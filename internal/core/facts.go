package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/hardware"
	"rocks/internal/lifecycle"
)

// This file is the frontend half of the facts-driven inventory loop. The
// database records what every node *should* be; nothing in the paper ever
// checks what a node actually *is* after first boot. Here the agent's
// report lands (/v1/facts POST), is persisted in clusterdb (WAL-covered, so
// it survives a frontend crash), and is diffed against the expected
// hardware profile; each divergent field becomes a drift-detected lifecycle
// event, and actionable drift feeds the supervisor's remediation policy
// (supervisor.go). The same endpoint serves the inventory with per-node
// freshness, and a federated child forwards each report upstream so the
// parent's inventory carries shard provenance.

// driftFields is the comparator's full field vocabulary, pre-seeded into
// the drift counters so the rocks_facts_drift_total family is present on
// /metrics (at zero) before any drift ever occurs.
var driftFields = []string{"arch", "cpus", "mem_mb", "disk", "nics"}

// factsRecord is one node's latest report plus its drift verdict.
type factsRecord struct {
	facts      hardware.Facts
	reportedAt time.Time
	drift      []hardware.Drift
}

// factsState is the cluster's in-memory inventory view: its own nodes'
// latest reports (backed by the durable facts table) plus reports forwarded
// up from federated children, keyed by shard.
type factsState struct {
	mu      sync.Mutex
	records map[string]*factsRecord            // own nodes, by MAC
	fwd     map[string]map[string]*factsRecord // shard → MAC → record
	reports uint64
	drift   map[string]uint64 // drift events by field
}

func newFactsState() *factsState {
	fs := &factsState{
		records: make(map[string]*factsRecord),
		fwd:     make(map[string]map[string]*factsRecord),
		drift:   make(map[string]uint64, len(driftFields)),
	}
	for _, f := range driftFields {
		fs.drift[f] = 0
	}
	return fs
}

// ingestFacts records one agent report. shard is federation provenance:
// empty for this frontend's own nodes, the child's shard name for a report
// forwarded upstream (provenance-only — the parent has no expected profile
// for another frontend's node, so forwarded reports are never diffed here;
// the child already did that and published the drift events).
func (c *Cluster) ingestFacts(f hardware.Facts, shard string) error {
	now := time.Now()
	if shard != "" {
		c.facts.mu.Lock()
		m := c.facts.fwd[shard]
		if m == nil {
			m = make(map[string]*factsRecord)
			c.facts.fwd[shard] = m
		}
		m[f.MAC] = &factsRecord{facts: f, reportedAt: now}
		c.facts.reports++
		c.facts.mu.Unlock()
		return nil
	}

	c.mu.Lock()
	n := c.nodes[f.MAC]
	c.mu.Unlock()
	rec := &factsRecord{facts: f, reportedAt: now}
	if n != nil {
		rec.drift = hardware.DiffFacts(n.HW, f)
	}

	// Persist before publishing: a crash between the two loses events (the
	// ring is volatile anyway) but never a recorded report.
	if err := clusterdb.UpsertFacts(c.DB, clusterdb.Facts{
		MAC: f.MAC, Name: f.Name, Arch: f.Arch, CPUs: f.CPUs, MemMB: f.MemMB,
		DiskType: string(f.Disk.Type), DiskMB: f.Disk.SizeMB,
		NICs:       strings.Join(hardware.CanonicalNICs(f.NICs), ";"),
		ReportedAt: now.UnixNano(),
	}); err != nil {
		return err
	}

	c.facts.mu.Lock()
	prev := c.facts.records[f.MAC]
	hadDrift := prev != nil && len(prev.drift) > 0
	c.facts.records[f.MAC] = rec
	c.facts.reports++
	for _, d := range rec.drift {
		c.facts.drift[d.Field]++
	}
	c.facts.mu.Unlock()

	name := f.Name
	if name == "" {
		name = f.MAC
	}
	c.events.Publish(lifecycle.Event{
		Node: name, MAC: f.MAC, Phase: lifecycle.PhaseRun,
		Type: lifecycle.EventFactsReported, Source: "facts",
		Detail: fmt.Sprintf("arch=%s cpus=%d mem=%dMB disk=%s nics=%d drift=%d",
			f.Arch, f.CPUs, f.MemMB, hardware.DiskString(f.Disk), len(f.NICs), len(rec.drift)),
	})
	for _, d := range rec.drift {
		c.events.Publish(lifecycle.Event{
			Node: name, MAC: f.MAC, Phase: lifecycle.PhaseRun,
			Type: lifecycle.EventDriftDetected, Source: "facts",
			Detail: fmt.Sprintf("field=%s expected=%q got=%q actionable=%v",
				d.Field, d.Expected, d.Got, d.Actionable),
		})
	}
	if hadDrift && len(rec.drift) == 0 {
		c.events.Publish(lifecycle.Event{
			Node: name, MAC: f.MAC, Phase: lifecycle.PhaseRun,
			Type: lifecycle.EventDriftCleared, Source: "facts",
			Detail: "report matches expected profile",
		})
	}

	// A child frontend forwards the report upstream with its shard name, so
	// the parent's merged inventory carries provenance. Best-effort and
	// asynchronous: a dark parent must never stall a node's first boot.
	c.fed.forwardFacts(f)
	return nil
}

// loadFacts rehydrates the in-memory inventory from the durable facts
// table — what a recovered frontend knew before the crash. Drift is not
// recomputed here: the previous life's machines are not tracked yet, and
// each node's next first-boot report re-diffs it anyway.
func (c *Cluster) loadFacts() error {
	rows, err := clusterdb.AllFacts(c.DB)
	if err != nil {
		return err
	}
	c.facts.mu.Lock()
	for _, row := range rows {
		c.facts.records[row.MAC] = &factsRecord{
			facts: hardware.Facts{
				MAC: row.MAC, Name: row.Name, Arch: row.Arch, CPUs: row.CPUs,
				MemMB: row.MemMB,
				Disk:  hardware.Disk{Type: hardware.DiskType(row.DiskType), SizeMB: row.DiskMB},
				NICs:  decodeNICs(row.NICs),
			},
			reportedAt: time.Unix(0, row.ReportedAt),
		}
	}
	c.facts.mu.Unlock()
	return nil
}

// decodeNICs parses the canonical "type/mac/mbps;..." encoding the facts
// table stores (see CanonicalNICs). Malformed entries are dropped — the
// row came from our own encoder, so anything else is corruption.
func decodeNICs(s string) []hardware.NIC {
	if s == "" {
		return nil
	}
	var out []hardware.NIC
	for _, entry := range strings.Split(s, ";") {
		parts := strings.Split(entry, "/")
		if len(parts) != 3 {
			continue
		}
		mbps, err := strconv.Atoi(parts[2])
		if err != nil {
			continue
		}
		out = append(out, hardware.NIC{Type: hardware.NICType(parts[0]), MAC: parts[1], Mbps: mbps})
	}
	return out
}

// actionableDriftFields returns the actionable divergent fields from the
// node's latest report, or nil when the node is clean (or unreported). The
// supervisor polls this each tick to drive drift remediation.
func (c *Cluster) actionableDriftFields(mac string) []string {
	c.facts.mu.Lock()
	defer c.facts.mu.Unlock()
	rec := c.facts.records[mac]
	if rec == nil {
		return nil
	}
	var out []string
	for _, d := range rec.drift {
		if d.Actionable {
			out = append(out, d.Field)
		}
	}
	return out
}

// FactsEntry is one node's row in the served inventory.
type FactsEntry struct {
	Node       string           `json:"node"`
	MAC        string           `json:"mac"`
	Shard      string           `json:"shard,omitempty"`
	Arch       string           `json:"arch"`
	CPUs       int              `json:"cpus"`
	MemMB      int              `json:"mem_mb"`
	Disk       string           `json:"disk"`
	NICs       []string         `json:"nics"`
	ReportedAt time.Time        `json:"reported_at"`
	AgeSeconds float64          `json:"age_seconds"`
	Drift      []hardware.Drift `json:"drift,omitempty"`
	Actionable bool             `json:"actionable"`
}

// FactsResponse is the GET /v1/facts payload: every known report — own
// nodes first-hand, federated children by forwarded provenance — with
// per-node freshness.
type FactsResponse struct {
	Facts   []FactsEntry `json:"facts"`
	Reports uint64       `json:"reports"`
}

func factsEntry(rec *factsRecord, shard string, now time.Time) FactsEntry {
	f := rec.facts
	name := f.Name
	if name == "" {
		name = f.MAC
	}
	return FactsEntry{
		Node: name, MAC: f.MAC, Shard: shard,
		Arch: f.Arch, CPUs: f.CPUs, MemMB: f.MemMB,
		Disk: hardware.DiskString(f.Disk), NICs: hardware.CanonicalNICs(f.NICs),
		ReportedAt: rec.reportedAt,
		AgeSeconds: now.Sub(rec.reportedAt).Seconds(),
		Drift:      rec.drift,
		Actionable: hardware.Actionable(rec.drift),
	}
}

// FactsInventory assembles the served inventory, sorted by (shard, node).
func (c *Cluster) FactsInventory() FactsResponse {
	now := time.Now()
	c.facts.mu.Lock()
	resp := FactsResponse{Facts: make([]FactsEntry, 0, len(c.facts.records)), Reports: c.facts.reports}
	for _, rec := range c.facts.records {
		resp.Facts = append(resp.Facts, factsEntry(rec, "", now))
	}
	for shard, m := range c.facts.fwd {
		for _, rec := range m {
			resp.Facts = append(resp.Facts, factsEntry(rec, shard, now))
		}
	}
	c.facts.mu.Unlock()
	sort.Slice(resp.Facts, func(i, j int) bool {
		if resp.Facts[i].Shard != resp.Facts[j].Shard {
			return resp.Facts[i].Shard < resp.Facts[j].Shard
		}
		return resp.Facts[i].Node < resp.Facts[j].Node
	})
	return resp
}

// factsReportCount and factsDriftCounts feed the /metrics families.
func (c *Cluster) factsReportCount() uint64 {
	c.facts.mu.Lock()
	defer c.facts.mu.Unlock()
	return c.facts.reports
}

func (c *Cluster) factsDriftCounts() map[string]uint64 {
	c.facts.mu.Lock()
	defer c.facts.mu.Unlock()
	out := make(map[string]uint64, len(c.facts.drift))
	for k, v := range c.facts.drift {
		out[k] = v
	}
	return out
}
