package core

import (
	"sync"
	"time"

	"rocks/internal/lifecycle"
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

// auditLog is a bounded ring of AuditEntries, safe for concurrent use.
type auditLog struct {
	mu     sync.Mutex
	ring   lifecycle.Ring[AuditEntry]
	seq    uint64
	errors uint64
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

// auditFilter selects entries; zero fields match everything.
type auditFilter struct {
	Op       string
	Actor    string
	Outcome  string
	SinceSeq uint64
	Limit    int // 0 = unlimited; otherwise the most recent N matches
}

// recent returns matching entries still in the ring, oldest first.
func (a *auditLog) recent(f auditFilter) []AuditEntry {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ring.Select(f.Limit, func(e *AuditEntry) bool {
		return (f.Op == "" || e.Op == f.Op) &&
			(f.Actor == "" || e.Actor == f.Actor) &&
			(f.Outcome == "" || e.Outcome == f.Outcome) &&
			e.Seq > f.SinceSeq
	})
}

// stats snapshots the log's counters for /metrics and the /v1/audit header
// fields.
func (a *auditLog) stats() (seq, evicted, errors uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seq, a.ring.Evicted(), a.errors
}
