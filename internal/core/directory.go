package core

import (
	"maps"
	"sort"
	"sync"

	"rocks/internal/lifecycle"
	"rocks/internal/metrics"
	"rocks/internal/node"
	"rocks/internal/rexec"
)

// directory is the frontend's index of the machines on its floor: every
// tracked node by MAC, the ones that came up by hostname, the PDU outlets
// handed out, and the quarantine set with its generation (the report guard).
// One lock covers all of it; a node's own lock nests inside it.
type directory struct {
	mu          sync.Mutex
	nodes       map[string]*node.Node // by MAC
	byName      map[string]*node.Node
	outlets     int
	quarantined map[string]bool
	quarSeq     int64 // bumps on every quarantine-set change (report guard)
}

func newDirectory() *directory {
	return &directory{
		nodes:       make(map[string]*node.Node),
		byName:      make(map[string]*node.Node),
		quarantined: make(map[string]bool),
	}
}

// track indexes a node by its MAC.
func (d *directory) track(n *node.Node) {
	d.mu.Lock()
	d.nodes[n.MAC()] = n
	d.mu.Unlock()
}

// plug hands out the next PDU outlet and reports whether the machine at mac
// is already tracked.
func (d *directory) plug(mac string) (outlet int, tracked bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, tracked = d.nodes[mac]
	d.outlets++
	return d.outlets, tracked
}

// named indexes a node that came up under its hostname.
func (d *directory) named(name string, n *node.Node) {
	d.mu.Lock()
	d.byName[name] = n
	d.mu.Unlock()
}

// node returns the node that came up under a hostname.
func (d *directory) node(name string) (*node.Node, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, ok := d.byName[name]
	return n, ok
}

// machine returns the tracked node at a MAC.
func (d *directory) machine(mac string) (*node.Node, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, ok := d.nodes[mac]
	return n, ok
}

// executor adapts the name index to the ctools Lookup contract.
func (d *directory) executor(host string) (rexec.Executor, bool) {
	return d.node(host)
}

// all copies the MAC index.
func (d *directory) all() map[string]*node.Node {
	d.mu.Lock()
	defer d.mu.Unlock()
	return maps.Clone(d.nodes)
}

// with runs f under one hold of the lock, for reads that visit every tracked
// node (the listing, status, a scan by carried name).
func (d *directory) with(f func(byMAC map[string]*node.Node)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f(d.nodes)
}

// forget drops a decommissioned machine from both indexes.
func (d *directory) forget(name, mac string) {
	d.mu.Lock()
	delete(d.byName, name)
	delete(d.nodes, mac)
	d.mu.Unlock()
}

// filter selects a node's events under both of its identities: the one
// given and, when the node is tracked, the other (its MAC for a hostname,
// its hostname for a MAC).
func (d *directory) filter(hostOrMAC string) lifecycle.Filter {
	f := lifecycle.Filter{Node: hostOrMAC}
	d.mu.Lock()
	defer d.mu.Unlock()
	if n, ok := d.byName[hostOrMAC]; ok {
		f.Alias = n.MAC()
	} else if n, ok := d.nodes[hostOrMAC]; ok {
		f.Alias = n.Name()
	}
	return f
}

// ping answers a management-Ethernet reachability probe for a tracked node.
// Per §4, the network is up while Linux runs (node Up) and during
// installation (eKV is reachable); a node that is off, mid-boot, or crashed
// is dark.
func (d *directory) ping(host string) (bool, string) {
	n, ok := d.node(host)
	if !ok {
		// Fall back to MAC addressing, then to the name the node itself
		// carries: a node that crashed mid-install has a hostname (DHCP
		// assigned it) but never reached comeUp, which is what populates
		// the name index.
		d.with(func(byMAC map[string]*node.Node) {
			if n, ok = byMAC[host]; ok {
				return
			}
			for _, cand := range byMAC {
				if cand.Name() == host {
					n, ok = cand, true
					return
				}
			}
		})
		if !ok {
			return false, "unknown host"
		}
	}
	switch st := n.State(); st {
	case node.StateUp, node.StateInstalling:
		return true, string(st)
	default:
		return false, string(st)
	}
}

// quarantine adds a host to the quarantine set, or takes it out.
func (d *directory) quarantine(host string, on bool) {
	d.mu.Lock()
	if on {
		d.quarantined[host] = true
	} else {
		delete(d.quarantined, host)
	}
	d.quarSeq++
	d.mu.Unlock()
}

func (d *directory) isQuarantined(host string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.quarantined[host]
}

// quarantineSet copies the quarantine set, nil when empty, with its
// generation.
func (d *directory) quarantineSet() (q map[string]bool, gen int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.quarantined) > 0 {
		q = make(map[string]bool, len(d.quarantined))
		for h := range d.quarantined {
			q[h] = true
		}
	}
	return q, d.quarSeq
}

// quarantinedHosts lists the quarantine set, sorted.
func (d *directory) quarantinedHosts() []string {
	q, _ := d.quarantineSet()
	out := make([]string, 0, len(q))
	for h := range q {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// registerMetrics exposes the node population.
func (d *directory) registerMetrics(r *metrics.Registry) {
	r.GaugeFunc("rocks_nodes",
		"Nodes the cluster tracks, including the frontend.",
		func() float64 {
			var n int
			d.with(func(byMAC map[string]*node.Node) { n = len(byMAC) })
			return float64(n)
		})
	r.GaugeFunc("rocks_nodes_quarantined",
		"Hosts currently quarantined.",
		func() float64 { q, _ := d.quarantineSet(); return float64(len(q)) })
	r.GaugeVecFunc("rocks_nodes_state",
		"Nodes per lifecycle state.", []string{"state"},
		func() []metrics.Sample {
			counts := make(map[node.State]int)
			d.with(func(byMAC map[string]*node.Node) {
				for _, n := range byMAC {
					counts[n.State()]++
				}
			})
			out := make([]metrics.Sample, 0, len(counts))
			for state, n := range counts {
				out = append(out, metrics.Sample{Labels: []string{string(state)}, Value: float64(n)})
			}
			return out
		})
}
