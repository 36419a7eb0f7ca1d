// Package monitor implements the health-monitoring side of the paper's
// management story. §4: with no dedicated management network, "an
// administrator is 'in the dark' from the moment the node is powered on (or
// reset) to the time Linux brings up the Ethernet network"; a node that
// stays unreachable either has a hardware fault or fell to a common-mode
// service failure, and the remedy is a remote power cycle. Each time its
// owner calls Probe, the monitor probes every node over the management
// Ethernet, tracks when each was last reachable, and classifies nodes so the
// administrator knows exactly which outlets to cycle. It runs no goroutine of
// its own: the owner's loop sets the pace.
package monitor

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"rocks/internal/lifecycle"
)

// Pinger answers reachability probes — the cluster provides one backed by
// its management Ethernet.
type Pinger interface {
	// Ping reports whether the host currently answers on the network, and
	// a short state description for display (e.g. "up", "installing").
	Ping(host string) (bool, string)
}

// PingerFunc adapts a function to Pinger.
type PingerFunc func(host string) (bool, string)

// Ping calls the function.
func (f PingerFunc) Ping(host string) (bool, string) { return f(host) }

// Health classifies one host.
type Health string

// Health classes. Dark hosts have been unreachable longer than the
// configured patience — the §4 "physical intervention or power cycle"
// candidates.
const (
	HealthUp   Health = "up"
	HealthDark Health = "dark"
)

// HostStatus is the monitor's view of one host.
type HostStatus struct {
	Host     string
	Health   Health
	Detail   string // the pinger's state description from the last probe
	LastSeen time.Time
	// DarkFor is how long the host has been unreachable (zero when up).
	DarkFor time.Duration
}

// Monitor watches a fixed-or-growing set of hosts.
type Monitor struct {
	pinger   Pinger
	patience time.Duration
	now      func() time.Time // injectable clock for tests

	mu    sync.Mutex
	hosts map[string]*hostRecord

	// bus receives up/dark transition events; published remembers the last
	// health class announced per host so steady state publishes nothing.
	bus       *lifecycle.Bus
	published map[string]Health
}

type hostRecord struct {
	lastSeen time.Time
	seenEver bool
	detail   string
	firstAdd time.Time
}

// New creates a monitor. patience is how long a host may be unreachable
// before it is reported dark.
func New(p Pinger, patience time.Duration) *Monitor {
	return &Monitor{
		pinger:    p,
		patience:  patience,
		now:       time.Now,
		hosts:     make(map[string]*hostRecord),
		published: make(map[string]Health),
	}
}

// PublishTo routes up/dark transitions onto the lifecycle bus. A host that
// crosses the patience threshold produces one dark event; a dark host that
// answers again produces one up event. Steady state is silent. Call before
// the first probe.
func (m *Monitor) PublishTo(bus *lifecycle.Bus) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bus = bus
}

// SetClock injects a clock (tests).
func (m *Monitor) SetClock(now func() time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = now
}

// Watch adds hosts to the probe set; re-adding is a no-op.
func (m *Monitor) Watch(hosts ...string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, h := range hosts {
		if _, ok := m.hosts[h]; !ok {
			m.hosts[h] = &hostRecord{firstAdd: m.now()}
		}
	}
}

// Unwatch removes hosts (decommissioned nodes).
func (m *Monitor) Unwatch(hosts ...string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, h := range hosts {
		delete(m.hosts, h)
		delete(m.published, h)
	}
}

// Probe runs one probe pass over every watched host, publishes the
// transitions it finds, and returns the classification it published from.
func (m *Monitor) Probe() []HostStatus {
	m.mu.Lock()
	names := make([]string, 0, len(m.hosts))
	for h := range m.hosts {
		names = append(names, h)
	}
	now := m.now
	m.mu.Unlock()

	for _, h := range names {
		ok, detail := m.pinger.Ping(h)
		m.mu.Lock()
		if rec, present := m.hosts[h]; present {
			rec.detail = detail
			if ok {
				rec.lastSeen = now()
				rec.seenEver = true
			}
		}
		m.mu.Unlock()
	}
	status := m.Status()
	m.publishTransitions(status)
	return status
}

// publishTransitions diffs a classification against what was last announced
// and publishes the deltas. A host first classified up is recorded silently
// — the cluster's own up event is authoritative for that edge; the monitor
// speaks when a host goes dark and when a dark host comes back.
func (m *Monitor) publishTransitions(status []HostStatus) {
	m.mu.Lock()
	bus := m.bus
	m.mu.Unlock()
	if bus == nil {
		return
	}
	for _, st := range status {
		m.mu.Lock()
		if _, watched := m.hosts[st.Host]; !watched {
			m.mu.Unlock()
			continue // unwatched between Status and here
		}
		prev, seen := m.published[st.Host]
		m.published[st.Host] = st.Health
		m.mu.Unlock()
		switch {
		case st.Health == HealthDark && prev != HealthDark:
			bus.Publish(lifecycle.Event{
				Node:   st.Host,
				Phase:  lifecycle.PhaseRun,
				Type:   lifecycle.EventDark,
				Source: "monitor",
				Detail: fmt.Sprintf("dark for %s (%s)", st.DarkFor.Round(time.Millisecond), st.Detail),
			})
		case st.Health == HealthUp && seen && prev == HealthDark:
			bus.Publish(lifecycle.Event{
				Node:   st.Host,
				Phase:  lifecycle.PhaseRun,
				Type:   lifecycle.EventUp,
				Source: "monitor",
				Detail: "answering again: " + st.Detail,
			})
		}
	}
}

// Status reports every watched host, sorted by name.
func (m *Monitor) Status() []HostStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	out := make([]HostStatus, 0, len(m.hosts))
	for h, rec := range m.hosts {
		st := HostStatus{Host: h, Detail: rec.detail, LastSeen: rec.lastSeen}
		ref := rec.lastSeen
		if !rec.seenEver {
			ref = rec.firstAdd
		}
		if dark := now.Sub(ref); dark > m.patience {
			st.Health = HealthDark
			st.DarkFor = dark
		} else {
			st.Health = HealthUp
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// Dark returns the hosts currently classified dark — the power-cycle list.
func (m *Monitor) Dark() []string {
	var out []string
	for _, st := range m.Status() {
		if st.Health == HealthDark {
			out = append(out, st.Host)
		}
	}
	return out
}

// Report renders the status table the CLI prints.
func (m *Monitor) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-6s %-12s %s\n", "HOST", "HEALTH", "STATE", "DARK-FOR")
	for _, st := range m.Status() {
		dark := "-"
		if st.DarkFor > 0 {
			dark = st.DarkFor.Round(time.Second).String()
		}
		fmt.Fprintf(&b, "%-14s %-6s %-12s %s\n", st.Host, st.Health, st.Detail, dark)
	}
	return b.String()
}
