package core

import (
	"net/http"
	"time"

	"rocks/internal/monitor"
)

// NewMonitor returns a health monitor over the cluster's current nodes
// (frontend included). New nodes must be added with Watch. The caller drives
// it with Probe; each probe publishes up/dark transitions to the cluster's
// lifecycle bus. It only reports: acting on a dark node, withdrawing its
// relay included, is the supervisor's.
func (c *Cluster) NewMonitor(patience time.Duration) *monitor.Monitor {
	m := monitor.New(monitor.PingerFunc(c.dir.ping), patience)
	m.PublishTo(c.events)
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
		alive, state := c.dir.ping(name)
		rr := row{Host: name, Alive: alive, State: state,
			Quarantined: c.dir.isQuarantined(name) || c.dir.isQuarantined(s.MAC)}
		if !alive {
			if outlet, wired := c.PDU.OutletFor(s.MAC); wired {
				rr.Outlet = outlet
			}
		}
		rows = append(rows, rr)
	}
	return rows, nil
}
