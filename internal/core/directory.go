package core

import (
	"sort"
	"sync"

	"rocks/internal/metrics"
)

// directory is the frontend's quarantine set with its generation (the report
// guard): a decision the frontend made, not an observation of a machine.
type directory struct {
	mu          sync.Mutex
	quarantined map[string]bool
	quarSeq     int64 // bumps on every quarantine-set change (report guard)
}

func newDirectory() *directory {
	return &directory{quarantined: make(map[string]bool)}
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

// registerMetrics exposes the quarantine set's size.
func (d *directory) registerMetrics(r *metrics.Registry) {
	r.GaugeFunc("rocks_nodes_quarantined",
		"Hosts currently quarantined.",
		func() float64 { q, _ := d.quarantineSet(); return float64(len(q)) })
}
