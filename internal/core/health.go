package core

import (
	"net/http"
	"time"

	"rocks/internal/monitor"
)

// Ping answers a management-Ethernet reachability probe for a tracked node.
// Per §4, the network is up while Linux runs (node Up) and during
// installation (eKV is reachable); a node that is off, mid-boot, or crashed
// is dark.
func (c *Cluster) Ping(host string) (bool, string) { return c.dir.ping(host) }

// NewMonitor starts a health monitor over the cluster's current nodes
// (frontend included). New nodes must be added with Watch. The monitor
// publishes up/dark transitions to the cluster's lifecycle bus, and its
// background loop (when interval > 0) runs under the cluster's root
// context, so Close reaps it; the caller may also Stop it earlier.
func (c *Cluster) NewMonitor(patience, interval time.Duration) *monitor.Monitor {
	m := monitor.New(monitor.PingerFunc(c.Ping), patience, 0)
	m.PublishTo(c.events)
	m.StartCtx(c.ctx, interval)
	m.Watch("frontend-0")
	for _, s := range c.Status() {
		if s.Name != "" {
			m.Watch(s.Name)
		}
	}
	return m
}

// opHealth serves a one-shot health report: every node probed now, dark
// nodes flagged, with the PDU outlet to cycle.
func (c *Cluster) opHealth(r *http.Request) (interface{}, *apiError) {
	type row struct {
		Host        string `json:"host"`
		Alive       bool   `json:"alive"`
		State       string `json:"state"`
		Outlet      int    `json:"outlet,omitempty"`
		Quarantined bool   `json:"quarantined,omitempty"`
	}
	var rows []row
	for _, s := range c.Status() {
		name := s.Name
		if name == "" {
			name = s.MAC
		}
		alive, state := c.Ping(name)
		rr := row{Host: name, Alive: alive, State: state,
			Quarantined: c.IsQuarantined(name) || c.IsQuarantined(s.MAC)}
		if !alive {
			if outlet, wired := c.PDU.OutletFor(s.MAC); wired {
				rr.Outlet = outlet
			}
		}
		rows = append(rows, rr)
	}
	return rows, nil
}
