package core

import (
	"strings"
	"sync"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/dhcp"
	"rocks/internal/metrics"
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

// reportCoalescer tracks what the last written reports reflected and the
// coalesced pass in flight.
type reportCoalescer struct {
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

// ReportStats snapshots the coalescer's counters.
func (c *Cluster) ReportStats() ReportStats {
	c.reports.mu.Lock()
	defer c.reports.mu.Unlock()
	return ReportStats{Writes: c.reports.writes, Skips: c.reports.skips, Scheduled: c.reports.scheduled}
}

// WriteReports regenerates the service configuration files from the
// database onto the frontend's disk — the dbreport step (§6.4). It is
// change-sequence-guarded: when neither the database nor the quarantine set
// has moved since the last successful write, nothing regenerates.
func (c *Cluster) WriteReports() error {
	if !c.Frontend.Disk().Bootable() {
		return nil // frontend still installing
	}
	c.reports.genMu.Lock()
	defer c.reports.genMu.Unlock()

	// Snapshot the generations BEFORE generating: a mutation racing the
	// generation below at worst marks these reports stale and costs one
	// extra regeneration on the next call — never a silently stale file.
	dbSeq := c.DB.ChangeSeq()
	c.mu.Lock()
	quarSeq := c.quarSeq
	c.mu.Unlock()

	c.reports.mu.Lock()
	if c.reports.written && c.reports.dbSeq == dbSeq && c.reports.quarSeq == quarSeq {
		c.reports.skips++
		c.reports.mu.Unlock()
		return nil
	}
	c.reports.mu.Unlock()

	start := time.Now()
	if err := c.writeReportsNow(); err != nil {
		return err
	}
	took := time.Since(start)
	c.reports.passSeconds.Observe(took.Seconds())
	c.reports.mu.Lock()
	c.reports.lastPass = took
	c.reports.written = true
	c.reports.dbSeq = dbSeq
	c.reports.quarSeq = quarSeq
	c.reports.writes++
	c.reports.mu.Unlock()
	return nil
}

// ScheduleReports requests a report regeneration soon: the first request in
// a burst arms a timer, and every further request before the pass it fires
// has finished rides along — on that pass if it has not started reading, on
// one more pass after it otherwise. The insert-ethers hot loop calls this per
// discovery, turning K discoveries into O(K) binding deltas plus a few
// coalesced regenerations.
func (c *Cluster) ScheduleReports() {
	r := &c.reports
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scheduled++
	if r.pending {
		r.again = true
		return
	}
	if c.ctx.Err() != nil {
		return // shutting down: stopReportTimer already ran or will run
	}
	r.pending = true
	c.armReportTimerLocked()
}

// armReportTimerLocked arms the next coalesced pass one debounce away, or
// one pass-duration if passes have come to cost more. Callers hold
// reports.mu.
func (c *Cluster) armReportTimerLocked() {
	c.reports.timer = time.AfterFunc(max(reportDebounce, c.reports.lastPass), c.coalescedPass)
}

// coalescedPass is the timer's body: one regeneration, then either another
// timer — when a request arrived that this pass may not have seen — a full
// pass-duration away, or nothing.
func (c *Cluster) coalescedPass() {
	r := &c.reports
	r.mu.Lock()
	r.again = false
	r.mu.Unlock()
	if err := c.WriteReports(); err != nil {
		c.Syslog.Log("frontend-0", "dbreport", "coalesced report regeneration: %v", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.again && c.ctx.Err() == nil {
		c.armReportTimerLocked()
	} else {
		r.pending = false
	}
}

// FlushReports cancels any pending debounce and regenerates synchronously
// (a no-op when the reports are already current). Callers that hand control
// back to an administrator — the end of an integration batch, a CLI exit —
// use it so the files on disk match the database they just mutated.
func (c *Cluster) FlushReports() error {
	c.stopReportTimer()
	return c.WriteReports()
}

// stopReportTimer kills an armed coalesced pass without flushing. A pass
// whose timer already fired is left to finish and settle the state itself.
func (c *Cluster) stopReportTimer() {
	r := &c.reports
	r.mu.Lock()
	if r.timer != nil && r.timer.Stop() {
		r.pending, r.again = false, false
	}
	r.mu.Unlock()
}

// writeReportsNow unconditionally regenerates every report. Callers hold
// reports.genMu.
func (c *Cluster) writeReportsNow() error {
	r := &c.reports.files
	// The DHCP stamp precedes the database read, so the reconcile below
	// never removes a binding insert-ethers set for a row this read missed.
	since := c.DHCPd.Generation()
	if err := c.DB.RenderReports(r); err != nil {
		return err
	}
	d := c.Frontend.Disk()
	if err := d.WriteFile("/etc/hosts", r.Hosts, 0o644); err != nil {
		return err
	}
	if err := d.WriteFile("/etc/dhcpd.conf", r.DHCP, 0o644); err != nil {
		return err
	}
	if err := d.WriteFile("/opt/pbs/server_priv/nodes", c.annotateOffline(r.PBSNodes), 0o644); err != nil {
		return err
	}
	// Back the configuration database up alongside the reports (the
	// mysqldump a careful Rocks site cron'd); rocksql -dump reads it.
	if err := d.WriteFile("/var/db/cluster.sql", r.Dump, 0o600); err != nil {
		return err
	}
	want := c.reports.want[:0]
	for _, h := range r.Bound {
		want = append(want, dhcp.Host{MAC: h.MAC, Binding: dhcp.Binding{IP: h.IP, Hostname: h.Name, NextServer: c.baseURL}})
	}
	c.reports.want = want
	c.DHCPd.Reconcile(since, want)
	return nil
}

// annotateOffline appends the pbsnodes "offline" mark to quarantined hosts'
// lines in the PBS nodes report, so the administrator reading the file sees
// exactly which machines the supervisor pulled from service.
func (c *Cluster) annotateOffline(report []byte) []byte {
	c.mu.Lock()
	if len(c.quarantined) == 0 {
		c.mu.Unlock()
		return report
	}
	q := make(map[string]bool, len(c.quarantined))
	for h := range c.quarantined {
		q[h] = true
	}
	c.mu.Unlock()
	lines := strings.Split(string(report), "\n")
	for i, line := range lines {
		if f := strings.Fields(line); len(f) > 0 && q[f[0]] {
			lines[i] = line + " offline"
		}
	}
	return []byte(strings.Join(lines, "\n"))
}
