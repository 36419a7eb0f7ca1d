package core

import (
	"net/http"
	"sort"
	"time"

	"rocks/internal/monitor"
)

// NewMonitor returns a health monitor over the cluster's current nodes
// (frontend included), each watched under its database name. New nodes must
// be added with Watch. The caller drives it with Probe; each probe publishes
// up/dark transitions to the cluster's lifecycle bus. It only reports:
// acting on a dark node, withdrawing its relay included, is the supervisor's.
func (c *Cluster) NewMonitor(patience time.Duration) *monitor.Monitor {
	m := monitor.New(monitor.PingerFunc(c.floor.ping), patience)
	m.PublishTo(c.events)
	for _, mac := range c.floor.macs() {
		if name := hostname(c.DB, mac); name != mac {
			m.Watch(name)
		}
	}
	return m
}

// opHealth serves a one-shot health report: every node probed now, dark
// nodes flagged, with the PDU outlet to cycle. Rows are sorted by host: the
// database name, or the MAC of a node insert-ethers has not named.
func (c *Cluster) opHealth(r *http.Request) (interface{}, *apiError) {
	type row struct {
		Host        string `json:"host"`
		Alive       bool   `json:"alive"`
		State       string `json:"state"`
		Outlet      int    `json:"outlet,omitempty"`
		Quarantined bool   `json:"quarantined,omitempty"`
	}
	var rows []row
	for _, mac := range c.floor.macs() {
		name := hostname(c.DB, mac)
		alive, state := c.floor.ping(mac)
		rr := row{Host: name, Alive: alive, State: state,
			Quarantined: c.dir.isQuarantined(name) || c.dir.isQuarantined(mac)}
		if !alive {
			if outlet, wired := c.PDU.OutletFor(mac); wired {
				rr.Outlet = outlet
			}
		}
		rows = append(rows, rr)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Host < rows[j].Host })
	return rows, nil
}
