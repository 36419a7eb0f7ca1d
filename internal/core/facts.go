package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/hardware"
	"rocks/internal/lifecycle"
	"rocks/internal/metrics"
)

// This file is the frontend half of the facts-driven inventory loop. The
// database records what every node *should* be; nothing in the paper ever
// checks what a node actually *is* after first boot. Here the agent's
// report lands (/v1/facts POST), is persisted in clusterdb (WAL-covered, so
// it survives a frontend crash), and is diffed against the machine's
// catalogue spec (floor.spec: the database holds only a node's arch and CPU
// count); each divergent field becomes a drift-detected lifecycle
// event, and actionable drift feeds the supervisor's remediation policy
// (supervisor.go). The same endpoint serves the inventory with per-node
// freshness, and a federated child forwards each report upstream so the
// parent's inventory carries shard provenance.

// driftFields is the comparator's full field vocabulary: the
// rocks_facts_drift_total family carries a series for each, at zero before
// any drift ever occurs.
var driftFields = []string{"arch", "cpus", "mem_mb", "disk", "nics"}

// factsRecord is one node's latest report plus its drift verdict.
type factsRecord struct {
	facts      hardware.Facts
	reportedAt time.Time
	drift      []hardware.Drift
}

// factsState is the inventory subsystem: its own nodes' latest reports
// (backed by the durable facts table, diffed against the floor's catalogue
// specs) plus reports forwarded up from federated children, keyed by
// shard, and the counters the rocks_facts_* families read.
type factsState struct {
	db     *clusterdb.Database
	events *lifecycle.Bus
	floor  *floor
	fed    *fedState

	mu      sync.Mutex
	records map[string]*factsRecord            // own nodes, by MAC
	fwd     map[string]map[string]*factsRecord // shard → MAC → record
	reports uint64
	drift   map[string]uint64 // drift events by field
}

func newFactsState(db *clusterdb.Database, events *lifecycle.Bus, floor *floor, fed *fedState) *factsState {
	return &factsState{
		db: db, events: events, floor: floor, fed: fed,
		records: make(map[string]*factsRecord),
		fwd:     make(map[string]map[string]*factsRecord),
		drift:   make(map[string]uint64, len(driftFields)),
	}
}

// ingest records one agent report. shard is federation provenance:
// empty for this frontend's own nodes, the child's shard name for a report
// forwarded upstream (provenance-only — the parent has no expected profile
// for another frontend's node, so forwarded reports are never diffed here;
// the child already did that and published the drift events).
func (fs *factsState) ingest(f hardware.Facts, shard string) error {
	now := time.Now()
	if shard != "" {
		fs.mu.Lock()
		m := fs.fwd[shard]
		if m == nil {
			m = make(map[string]*factsRecord)
			fs.fwd[shard] = m
		}
		m[f.MAC] = &factsRecord{facts: f, reportedAt: now}
		fs.reports++
		fs.mu.Unlock()
		return nil
	}

	rec := &factsRecord{facts: f, reportedAt: now}
	if hw, ok := fs.floor.spec(f.MAC); ok {
		rec.drift = hardware.DiffFacts(hw, f)
	}

	// Persist before publishing: a crash between the two loses events (the
	// ring is volatile anyway) but never a recorded report.
	if err := clusterdb.UpsertFacts(fs.db, clusterdb.Facts{
		MAC: f.MAC, Name: f.Name, Arch: f.Arch, CPUs: f.CPUs, MemMB: f.MemMB,
		DiskType: string(f.Disk.Type), DiskMB: f.Disk.SizeMB,
		NICs:       strings.Join(hardware.CanonicalNICs(f.NICs), ";"),
		ReportedAt: now.UnixNano(),
	}); err != nil {
		return err
	}

	fs.mu.Lock()
	prev := fs.records[f.MAC]
	hadDrift := prev != nil && len(prev.drift) > 0
	fs.records[f.MAC] = rec
	fs.reports++
	for _, d := range rec.drift {
		fs.drift[d.Field]++
	}
	fs.mu.Unlock()

	name := f.Name
	if name == "" {
		name = f.MAC
	}
	fs.events.Publish(lifecycle.Event{
		Node: name, MAC: f.MAC, Phase: lifecycle.PhaseRun,
		Type: lifecycle.EventFactsReported, Source: "facts",
		Detail: fmt.Sprintf("arch=%s cpus=%d mem=%dMB disk=%s nics=%d drift=%d",
			f.Arch, f.CPUs, f.MemMB, hardware.DiskString(f.Disk), len(f.NICs), len(rec.drift)),
	})
	for _, d := range rec.drift {
		fs.events.Publish(lifecycle.Event{
			Node: name, MAC: f.MAC, Phase: lifecycle.PhaseRun,
			Type: lifecycle.EventDriftDetected, Source: "facts",
			Detail: fmt.Sprintf("field=%s expected=%q got=%q actionable=%v",
				d.Field, d.Expected, d.Got, d.Actionable),
		})
	}
	if hadDrift && len(rec.drift) == 0 {
		fs.events.Publish(lifecycle.Event{
			Node: name, MAC: f.MAC, Phase: lifecycle.PhaseRun,
			Type: lifecycle.EventDriftCleared, Source: "facts",
			Detail: "report matches expected profile",
		})
	}

	// A child frontend forwards the report upstream with its shard name, so
	// the parent's merged inventory carries provenance. Best-effort and
	// asynchronous: a dark parent must never stall a node's first boot.
	fs.fed.forwardFacts(f)
	return nil
}

// load rehydrates the in-memory inventory from the durable facts
// table — what a recovered frontend knew before the crash. Drift is not
// recomputed here: the previous life's machines are not tracked yet, and
// each node's next first-boot report re-diffs it anyway.
func (fs *factsState) load() error {
	rows, err := clusterdb.AllFacts(fs.db)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	for _, row := range rows {
		fs.records[row.MAC] = &factsRecord{
			facts: hardware.Facts{
				MAC: row.MAC, Name: row.Name, Arch: row.Arch, CPUs: row.CPUs,
				MemMB: row.MemMB,
				Disk:  hardware.Disk{Type: hardware.DiskType(row.DiskType), SizeMB: row.DiskMB},
				NICs:  decodeNICs(row.NICs),
			},
			reportedAt: time.Unix(0, row.ReportedAt),
		}
	}
	fs.mu.Unlock()
	return nil
}

// forget drops a decommissioned machine's facts row and drift verdict, so
// the inventory never reports a ghost.
func (fs *factsState) forget(mac string) error {
	if err := clusterdb.DeleteFacts(fs.db, mac); err != nil {
		return err
	}
	fs.mu.Lock()
	delete(fs.records, mac)
	fs.mu.Unlock()
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
func (fs *factsState) actionableDriftFields(mac string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	rec := fs.records[mac]
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
func (c *Cluster) FactsInventory() FactsResponse { return c.facts.inventory() }

func (fs *factsState) inventory() FactsResponse {
	now := time.Now()
	fs.mu.Lock()
	resp := FactsResponse{Facts: make([]FactsEntry, 0, len(fs.records)), Reports: fs.reports}
	for _, rec := range fs.records {
		resp.Facts = append(resp.Facts, factsEntry(rec, "", now))
	}
	for shard, m := range fs.fwd {
		for _, rec := range m {
			resp.Facts = append(resp.Facts, factsEntry(rec, shard, now))
		}
	}
	fs.mu.Unlock()
	sort.Slice(resp.Facts, func(i, j int) bool {
		if resp.Facts[i].Shard != resp.Facts[j].Shard {
			return resp.Facts[i].Shard < resp.Facts[j].Shard
		}
		return resp.Facts[i].Node < resp.Facts[j].Node
	})
	return resp
}

// endpoint is the install loop's reporting edge. POST ingests one
// first-boot agent's JSON report: the frontend persists it (WAL-covered),
// diffs it against the profile the database expects, and publishes
// drift-detected events the supervisor acts on; ?shard= marks a report a
// registered federated child is relaying upstream, stored with provenance
// and never re-diffed. GET serves the assembled inventory with per-node
// freshness and each node's current drift verdict.
func (fs *factsState) endpoint() endpoint {
	return endpoint{
		name:  "facts",
		audit: "facts-report",
		// First-boot agent reports are telemetry, not administration:
		// accept POST, never audit (a cluster-wide reinstall's report
		// burst would bury the log).
		mutates: func(*http.Request) bool { return false },
		run: func(r *http.Request) (interface{}, *apiError) {
			if r.Method != http.MethodPost {
				return fs.inventory(), nil
			}
			shard := r.URL.Query().Get("shard")
			if shard != "" {
				if _, aerr := fs.fed.registered(shard); aerr != nil {
					return nil, aerr
				}
			}
			var f hardware.Facts
			dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
			if err := dec.Decode(&f); err != nil {
				return nil, apiErrorf(http.StatusBadRequest, "bad_body", "decoding facts report: %v", err)
			}
			if f.MAC == "" {
				return nil, apiErrorf(http.StatusBadRequest, "missing_parameter", "facts report has no mac")
			}
			if err := fs.ingest(f, shard); err != nil {
				return nil, apiErrorf(http.StatusInternalServerError, "facts_failed", "recording facts: %v", err)
			}
			return map[string]string{"status": "recorded", "mac": f.MAC}, nil
		},
	}
}

// registerMetrics exposes the facts-driven inventory loop: reports ingested
// (own nodes and forwarded) and drift events by divergent field. The drift
// family is pre-seeded with every comparator field, so all series exist at
// zero before any report lands.
func (fs *factsState) registerMetrics(r *metrics.Registry) {
	r.CounterFunc("rocks_facts_reports_total",
		"Facts reports ingested from first-boot agents and child forwarders.",
		func() float64 {
			fs.mu.Lock()
			defer fs.mu.Unlock()
			return float64(fs.reports)
		})
	r.CounterVecFunc("rocks_facts_drift_total",
		"Drift events published, by divergent field.", []string{"field"},
		func() []metrics.Sample {
			out := make([]metrics.Sample, 0, len(driftFields))
			fs.mu.Lock()
			defer fs.mu.Unlock()
			for _, f := range driftFields {
				out = append(out, metrics.Sample{Labels: []string{f}, Value: float64(fs.drift[f])})
			}
			return out
		})
}
