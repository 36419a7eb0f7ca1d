package core

import (
	"net/http"
	"sync"
	"time"

	"rocks/internal/lifecycle"
	"rocks/internal/metrics"
)

// The audit log answers "who changed the cluster, and did it work?" — the
// question the bespoke admin endpoints never recorded. Every mutating
// control-plane call (sql exec, shoot, kill, fork, integrate, adduser,
// reinstall-cluster) lands here with its actor, parameters, outcome, and
// HTTP status. The log is the same bounded ring the lifecycle bus keeps: old
// entries are evicted, never the process's memory.

// auditRingSize bounds the audit ring.
const auditRingSize = 1024

// AuditEntry is one recorded mutation.
type AuditEntry struct {
	Seq    uint64    `json:"seq"` // log-global, monotonically increasing from 1
	Time   time.Time `json:"time"`
	Actor  string    `json:"actor"`            // X-Rocks-Actor header, "anonymous" when unset
	Remote string    `json:"remote,omitempty"` // client address
	Op     string    `json:"op"`               // sql-exec, shoot, kill, fork, integrate, adduser, reinstall-cluster
	Detail string    `json:"detail,omitempty"` // the operation's parameters, human-readable
	// Outcome is "ok" or "error"; Error carries the message and Status the
	// HTTP code the caller saw.
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	Status  int    `json:"status"`
}

// auditLog is the control plane's record: a bounded ring of AuditEntries,
// safe for concurrent use, and the per-operation request counter every /v1
// call advances.
type auditLog struct {
	mu     sync.Mutex
	ring   lifecycle.Ring[AuditEntry]
	seq    uint64
	errors uint64

	requests *metrics.CounterVec
}

// record stamps the entry with a sequence number and timestamp and appends
// it, evicting the oldest entry when the ring is full.
func (a *auditLog) record(e AuditEntry) AuditEntry {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seq++
	e.Seq = a.seq
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if e.Outcome != "ok" {
		a.errors++
	}
	a.ring.Push(e)
	return e
}

// stats snapshots the log's counters for /metrics and the /v1/audit header
// fields.
func (a *auditLog) stats() (seq, evicted, errors uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seq, a.ring.Evicted(), a.errors
}

// endpoint serves the mutation audit log still in the ring, oldest first,
// filtered by op, actor, outcome and since (sequence) — an absent parameter
// matches everything — and limit (the most recent N matches).
func (a *auditLog) endpoint() endpoint {
	return endpoint{
		name: "audit",
		run: func(r *http.Request) (interface{}, *apiError) {
			since, aerr := formInt(r, "since", 0, 0)
			if aerr != nil {
				return nil, aerr
			}
			limit, aerr := formInt(r, "limit", 0, 0)
			if aerr != nil {
				return nil, aerr
			}
			op, actor, outcome := r.FormValue("op"), r.FormValue("actor"), r.FormValue("outcome")
			a.mu.Lock()
			entries := a.ring.Select(limit, func(e *AuditEntry) bool {
				return (op == "" || e.Op == op) && (actor == "" || e.Actor == actor) &&
					(outcome == "" || e.Outcome == outcome) && e.Seq > uint64(since)
			})
			a.mu.Unlock()
			seq, evicted, errCount := a.stats()
			return struct {
				Entries []AuditEntry `json:"entries"`
				Seq     uint64       `json:"seq"`
				Dropped uint64       `json:"dropped"`
				Errors  uint64       `json:"errors"`
			}{entries, seq, evicted, errCount}, nil
		},
	}
}

// registerMetrics exposes per-op control-plane traffic and the log's
// counters.
func (a *auditLog) registerMetrics(r *metrics.Registry) {
	a.requests = r.CounterVec("rocks_api_requests_total",
		"Control-plane requests by operation.", "op")
	r.CounterFunc("rocks_audit_entries_total",
		"Mutating control-plane calls recorded in the audit log.",
		func() float64 { seq, _, _ := a.stats(); return float64(seq) })
	r.CounterFunc("rocks_audit_errors_total",
		"Audited calls that failed.",
		func() float64 { _, _, errs := a.stats(); return float64(errs) })
	r.CounterFunc("rocks_audit_evictions_total",
		"Audit entries evicted from the bounded ring.",
		func() float64 { _, ev, _ := a.stats(); return float64(ev) })
}
