package core

import (
	"context"
	"strings"
	"sync"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/dhcp"
	"rocks/internal/metrics"
	"rocks/internal/node"
	"rocks/internal/syslogd"
)

// The dbreport step (§6.4) regenerates every service configuration file
// from the database. The original tools ran it after each discovered node —
// O(N) work N times to populate a cabinet. Here a pass is one consistent read
// of the database rendered into all four files (clusterdb.RenderReports)
// followed by a DHCP reconcile that applies only the differences;
// WriteReports is guarded by the database's mutation counter so a no-op call
// costs two atomic reads; and ScheduleReports coalesces bursts, spacing
// passes by what a pass costs, so K discoveries trigger far fewer than K
// regenerations however large the table has grown.

// reportDebounce is the least ScheduleReports waits for more mutations
// before regenerating. Long enough to swallow a burst of discoveries,
// short enough that a lone insert's reports land before anyone looks.
const reportDebounce = 2 * time.Millisecond

// reportCoalescer is the dbreport subsystem: what the last written reports
// reflected, the coalesced pass in flight, and the rocks_reports_* families.
// It reads the database, the directory's quarantine set and the DHCP
// server's bindings, and writes the frontend's disk.
type reportCoalescer struct {
	ctx        context.Context // a cancelled one arms no further pass
	db         *clusterdb.Database
	dhcpd      *dhcp.Server
	disk       *node.Disk // the frontend's
	dir        *directory
	nextServer string
	log        *syslogd.Collector

	mu      sync.Mutex
	written bool  // at least one successful write recorded
	dbSeq   int64 // database ChangeSeq the written reports reflect
	quarSeq int64 // quarantine-set generation they reflect

	// pending is true from the moment a coalesced pass is armed until it has
	// run and found nothing more to do; again records a request that arrived
	// after that pass began, which the pass may have read past. While pending
	// is set no second timer exists, so coalesced passes never overlap and
	// are never back to back.
	timer          *time.Timer
	pending, again bool
	// lastPass is how long the most recent regeneration took. The next
	// coalesced pass is armed no sooner than that after the previous one
	// ended, so a storm spends at most half a core regenerating files that
	// FlushReports makes exact at its end anyway.
	lastPass time.Duration

	// counters for ReportStats
	writes, skips, scheduled uint64
	passSeconds              *metrics.Histogram

	// genMu serializes generate+write+record so a slow writer can't
	// overwrite a newer writer's files with stale content. It also guards
	// the pass's buffers, reused from one pass to the next.
	genMu sync.Mutex
	files clusterdb.Reports
	want  []dhcp.Host
}

// ReportStats counts report-regeneration traffic: how many WriteReports
// calls actually regenerated, how many were answered by the change-sequence
// guard, and how many ScheduleReports requests were coalesced into timers.
type ReportStats struct {
	Writes    uint64 `json:"writes"`
	Skips     uint64 `json:"skips"`
	Scheduled uint64 `json:"scheduled"`
}

// WriteReports regenerates the service configuration files from the
// database onto the frontend's disk — the dbreport step (§6.4). It is
// change-sequence-guarded: when neither the database nor the quarantine set
// has moved since the last successful write, nothing regenerates.
func (c *Cluster) WriteReports() error { return c.reports.write() }

// ScheduleReports requests a report regeneration soon: the first request in
// a burst arms a timer, and every further request before the pass it fires
// has finished rides along — on that pass if it has not started reading, on
// one more pass after it otherwise. The insert-ethers hot loop calls this per
// discovery, turning K discoveries into O(K) binding deltas plus a few
// coalesced regenerations.
func (c *Cluster) ScheduleReports() { c.reports.schedule() }

// FlushReports cancels any pending debounce and regenerates synchronously
// (a no-op when the reports are already current). Callers that hand control
// back to an administrator — the end of an integration batch, a CLI exit —
// use it so the files on disk match the database they just mutated.
func (c *Cluster) FlushReports() error {
	c.reports.stop()
	return c.reports.write()
}

// stats snapshots the coalescer's counters.
func (r *reportCoalescer) stats() ReportStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReportStats{Writes: r.writes, Skips: r.skips, Scheduled: r.scheduled}
}

// registerMetrics exposes the /v1/dbstats "reports" block and what one
// regeneration costs — the figure the coalescer spaces passes by.
func (r *reportCoalescer) registerMetrics(reg *metrics.Registry) {
	reg.CounterFunc("rocks_reports_writes_total",
		"Report regenerations actually performed.",
		func() float64 { return float64(r.stats().Writes) })
	reg.CounterFunc("rocks_reports_skips_total",
		"WriteReports calls coalesced away (another write already pending).",
		func() float64 { return float64(r.stats().Skips) })
	reg.CounterFunc("rocks_reports_scheduled_total",
		"WriteReports calls that scheduled a deferred regeneration.",
		func() float64 { return float64(r.stats().Scheduled) })
	// Buckets from 100 µs (a rack) to 1 s (a fleet no frontend holds).
	r.passSeconds = reg.Histogram("rocks_reports_pass_seconds",
		"Wall-clock seconds one report regeneration (render, write, DHCP reconcile) took.",
		[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 1})
}

func (r *reportCoalescer) write() error {
	if !r.disk.Bootable() {
		return nil // frontend still installing
	}
	r.genMu.Lock()
	defer r.genMu.Unlock()

	// Snapshot the generations BEFORE generating: a mutation racing the
	// generation below at worst marks these reports stale and costs one
	// extra regeneration on the next call — never a silently stale file.
	dbSeq := r.db.ChangeSeq()
	quarantined, quarSeq := r.dir.quarantineSet()

	r.mu.Lock()
	if r.written && r.dbSeq == dbSeq && r.quarSeq == quarSeq {
		r.skips++
		r.mu.Unlock()
		return nil
	}
	r.mu.Unlock()

	start := time.Now()
	if err := r.writeNow(quarantined); err != nil {
		return err
	}
	took := time.Since(start)
	r.passSeconds.Observe(took.Seconds())
	r.mu.Lock()
	r.lastPass = took
	r.written = true
	r.dbSeq = dbSeq
	r.quarSeq = quarSeq
	r.writes++
	r.mu.Unlock()
	return nil
}

func (r *reportCoalescer) schedule() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scheduled++
	if r.pending {
		r.again = true
		return
	}
	if r.ctx.Err() != nil {
		return // shutting down: stop already ran or will run
	}
	r.pending = true
	r.timer = time.AfterFunc(max(reportDebounce, r.lastPass), r.pass)
}

// pass is the timer's body: one regeneration, then either another timer —
// when a request arrived that this pass may not have seen — a full
// pass-duration away, or nothing.
func (r *reportCoalescer) pass() {
	r.mu.Lock()
	r.again = false
	r.mu.Unlock()
	if err := r.write(); err != nil {
		r.log.Log("frontend-0", "dbreport", "coalesced report regeneration: %v", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.again && r.ctx.Err() == nil {
		r.timer = time.AfterFunc(max(reportDebounce, r.lastPass), r.pass)
	} else {
		r.pending = false
	}
}

// stop kills an armed coalesced pass without flushing. A pass whose timer
// already fired is left to finish and settle the state itself.
func (r *reportCoalescer) stop() {
	r.mu.Lock()
	if r.timer != nil && r.timer.Stop() {
		r.pending, r.again = false, false
	}
	r.mu.Unlock()
}

// writeNow unconditionally regenerates every report, marking the
// quarantined hosts offline. Callers hold genMu.
func (r *reportCoalescer) writeNow(quarantined map[string]bool) error {
	f := &r.files
	// The DHCP stamp precedes the database read, so the reconcile below
	// never removes a binding insert-ethers set for a row this read missed.
	since := r.dhcpd.Generation()
	if err := r.db.RenderReports(f); err != nil {
		return err
	}
	d := r.disk
	if err := d.WriteFile("/etc/hosts", f.Hosts, 0o644); err != nil {
		return err
	}
	if err := d.WriteFile("/etc/dhcpd.conf", f.DHCP, 0o644); err != nil {
		return err
	}
	if err := d.WriteFile("/opt/pbs/server_priv/nodes", annotateOffline(f.PBSNodes, quarantined), 0o644); err != nil {
		return err
	}
	// Back the configuration database up alongside the reports (the
	// mysqldump a careful Rocks site cron'd); rocksql -dump reads it.
	if err := d.WriteFile("/var/db/cluster.sql", f.Dump, 0o600); err != nil {
		return err
	}
	want := r.want[:0]
	for _, h := range f.Bound {
		want = append(want, dhcp.Host{MAC: h.MAC, Binding: dhcp.Binding{IP: h.IP, Hostname: h.Name, NextServer: r.nextServer}})
	}
	r.want = want
	r.dhcpd.Reconcile(since, want)
	return nil
}

// annotateOffline appends the pbsnodes "offline" mark to quarantined hosts'
// lines in the PBS nodes report, so the administrator reading the file sees
// exactly which machines the supervisor pulled from service.
func annotateOffline(report []byte, quarantined map[string]bool) []byte {
	if len(quarantined) == 0 {
		return report
	}
	lines := strings.Split(string(report), "\n")
	for i, line := range lines {
		if f := strings.Fields(line); len(f) > 0 && quarantined[f[0]] {
			lines[i] = line + " offline"
		}
	}
	return []byte(strings.Join(lines, "\n"))
}
