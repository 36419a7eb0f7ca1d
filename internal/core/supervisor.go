package core

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/lifecycle"
	"rocks/internal/metrics"
	"rocks/internal/monitor"
	"rocks/internal/pbs"
	"rocks/internal/power"
	"rocks/internal/syslogd"
)

// The supervisor closes the remediation loop the paper leaves open. §4's
// monitor ends at a human — it tells the administrator "which outlets to
// cycle" — and §6.3's installer waits for a user to type "retry". The
// large-cluster experience reports (CERN, Brookhaven; PAPERS.md) are
// unanimous that at thousand-node scale transient install failures are
// constant and the human in that loop is the bottleneck. On each tick the
// supervisor probes every node through its monitor, reads that probe's
// dark/up classification and the state each node answered with, and applies
// the paper's own remedies mechanically: a hard power cycle for dark nodes
// (which forces reinstallation, §4), a re-shoot for crashed installs,
// capped exponential backoff with jitter between attempts, and — when a
// node exhausts its retry budget — quarantine: the node is marked offline in
// PBS and the reports, so the cluster keeps scheduling at reduced capacity
// instead of wedging on one bad machine. Every action is published to the cluster's
// lifecycle bus (the bounded ring that /v1/events serves), which chaos
// tests reconcile against the fault injector's ledger.

// SupervisorConfig tunes the remediation loop.
type SupervisorConfig struct {
	// Patience is how long a node may be dark (off, stuck booting) before
	// remediation starts; it is also the monitor's patience. Crashed nodes
	// skip the wait — their state is definitive. Default 5s.
	Patience time.Duration
	// Interval is the supervision tick: one probe pass, then one
	// remediation pass. Default 500ms.
	Interval time.Duration
	// MaxRetries is the remediation budget per failure episode; a node
	// still failing after that many power cycles is quarantined. A
	// recovery (node reaches Up) refunds the budget. Default 3.
	MaxRetries int
	// BaseBackoff is the wait after the first remediation attempt; it
	// doubles per attempt up to MaxBackoff, plus up to 50% seeded jitter
	// so a rack of simultaneous casualties does not thundering-herd the
	// install server. Defaults 1s and 30s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed drives the jitter PRNG; fixed seeds give reproducible runs.
	Seed int64
}

func (cfg SupervisorConfig) withDefaults() SupervisorConfig {
	if cfg.Patience <= 0 {
		cfg.Patience = 5 * time.Second
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = time.Second
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 30 * time.Second
	}
	return cfg
}

// remediation is the self-healing subsystem: the quarantine actions, the
// running supervisor (if any), the counters every supervisor adds to, and
// the supervisor endpoint and families. A supervisor pings the floor's
// machines, reads the directory for quarantine and the facts subsystem for
// drift, cycles through the PDU, names a node from the database, and
// withdraws the relay of a node it finds dark or quarantines.
type remediation struct {
	run         scope // a supervisor's loop runs under it
	events      *lifecycle.Bus
	log         *syslogd.Collector
	db          *clusterdb.Database
	pdu         *power.PDU
	pbs         *pbs.Server
	floor       *floor
	dir         *directory
	facts       *factsState
	reports     *reportCoalescer
	relays      *relayRegistry
	frontendMAC string

	// Remediation actions by type. They live here rather than on a
	// Supervisor so they stay monotonic across supervisor restarts.
	powerCycles     atomic.Uint64
	powerCycleFails atomic.Uint64
	quarantines     atomic.Uint64
	unquarantines   atomic.Uint64
	recoveries      atomic.Uint64
	driftReinstalls atomic.Uint64

	mu      sync.Mutex
	running *Supervisor
}

func (m *remediation) count(t lifecycle.EventType) {
	switch t {
	case lifecycle.EventPowerCycle:
		m.powerCycles.Add(1)
	case lifecycle.EventPowerCycleFailed:
		m.powerCycleFails.Add(1)
	case lifecycle.EventQuarantine:
		m.quarantines.Add(1)
	case lifecycle.EventUnquarantine:
		m.unquarantines.Add(1)
	case lifecycle.EventRecovered:
		m.recoveries.Add(1)
	case lifecycle.EventDriftReinstall:
		m.driftReinstalls.Add(1)
	}
}

// SupervisorEvent is one structured log entry, reconstructed from the
// supervisor's events on the lifecycle bus.
type SupervisorEvent struct {
	Seq     int                 `json:"seq"`
	Time    time.Time           `json:"time"`
	Host    string              `json:"host"`
	MAC     string              `json:"mac"`
	Type    lifecycle.EventType `json:"type"`
	Attempt int                 `json:"attempt,omitempty"`
	Detail  string              `json:"detail,omitempty"`
}

// String renders the event for logs.
func (e SupervisorEvent) String() string {
	s := fmt.Sprintf("#%d %s %s", e.Seq, e.Host, e.Type)
	if e.Attempt > 0 {
		s += fmt.Sprintf(" (attempt %d)", e.Attempt)
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

// remedRecord is the supervisor's per-node bookkeeping, keyed by MAC (the
// only identity a node is guaranteed to have).
type remedRecord struct {
	watchedAs     string // identity registered with the monitor
	attempts      int
	next          time.Time // backoff gate for the next attempt
	failing       bool
	quarantinedAs string // the host the supervisor quarantined, "" if none
	pass          uint64 // the last tick that found the node on the floor
}

// Supervisor is the closed-loop remediation daemon.
type Supervisor struct {
	r   *remediation
	cfg SupervisorConfig
	mon *monitor.Monitor

	mu   sync.Mutex
	rng  *rand.Rand
	recs map[string]*remedRecord
	pass uint64 // ticks so far

	cancel context.CancelFunc
	done   chan struct{}
}

// StartSupervisor launches the remediation loop over the cluster's nodes,
// stopping the supervisor already running, if any. The loop probes through
// its monitor, which publishes up/dark transitions to the lifecycle bus, and
// then remediates from that probe's classification. It runs under the
// cluster's scope, so Close reaps it; the caller may also Stop explicitly.
func (c *Cluster) StartSupervisor(cfg SupervisorConfig) *Supervisor { return c.remedy.start(cfg) }

func (m *remediation) start(cfg SupervisorConfig) *Supervisor {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(m.run.ctx)
	mon := monitor.New(monitor.PingerFunc(m.floor.ping), cfg.Patience)
	mon.PublishTo(m.events)
	s := &Supervisor{
		r:      m,
		cfg:    cfg,
		mon:    mon,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		recs:   make(map[string]*remedRecord),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	m.mu.Lock()
	prev := m.running
	m.running = s
	m.mu.Unlock()
	// One supervisor at a time: two would chase the same dark node with two
	// retry budgets.
	if prev != nil {
		prev.Stop()
	}
	m.run.spawn(func() { s.loop(ctx) })
	return s
}

func (m *remediation) current() *Supervisor {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.running
}

// quarantine pulls a node out of service without removing it: the host is
// marked offline in PBS (never scheduled again), its mom is unregistered
// (failing any running job — the honest consequence), and the reports
// regenerate with the offline mark. The database row, DHCP binding, and PDU
// outlet survive so the machine can be repaired and returned with
// unquarantine. Its relay, if it serves one, is withdrawn. Host may be a
// hostname or, for nodes that died before naming, a MAC.
func (m *remediation) quarantine(host string) error {
	m.relays.withdraw(host, "quarantined")
	m.dir.quarantine(host, true)
	m.pbs.SetOffline(host, true)
	m.pbs.UnregisterMom(host)
	m.log.Log("frontend-0", "rocks", "quarantined %s: offline in PBS, awaiting repair", host)
	return m.reports.write()
}

// unquarantine returns a repaired node to service. The node rejoins the batch
// pool on its next successful boot (its mom re-registers in comeUp); a
// running supervisor starts it on a fresh episode with a full budget.
func (m *remediation) unquarantine(host string) error {
	m.dir.quarantine(host, false)
	m.pbs.SetOffline(host, false)
	m.log.Log("frontend-0", "rocks", "unquarantined %s", host)
	m.count(lifecycle.EventUnquarantine)
	m.events.Publish(lifecycle.Event{
		Node: host, Phase: lifecycle.PhaseRemediate,
		Type: lifecycle.EventUnquarantine, Source: "cluster",
	})
	return m.reports.write()
}

// endpoint exposes the remediation supervisor's state: whether one is
// running, its structured event log (reconstructed from the bounded
// lifecycle ring — Dropped counts events the ring has evicted), and the
// quarantine list.
func (m *remediation) endpoint() endpoint {
	return endpoint{name: "supervisor", run: func(r *http.Request) (interface{}, *apiError) {
		resp := struct {
			Running     bool              `json:"running"`
			Events      []SupervisorEvent `json:"events"`
			Dropped     uint64            `json:"dropped"`
			Quarantined []string          `json:"quarantined"`
		}{Quarantined: m.dir.quarantinedHosts(), Dropped: m.events.Evicted()}
		if s := m.current(); s != nil {
			resp.Running = true
			resp.Events = s.Events()
		}
		return resp, nil
	}}
}

// registerMetrics exposes the /v1/supervisor figures, and the reinstalls
// ordered to chase actionable facts drift.
func (m *remediation) registerMetrics(r *metrics.Registry) {
	r.CounterFunc("rocks_supervisor_power_cycles_total",
		"Hard power cycles the supervisor commanded.",
		func() float64 { return float64(m.powerCycles.Load()) })
	r.CounterFunc("rocks_supervisor_power_cycle_failures_total",
		"Cycle commands the PDU refused or botched.",
		func() float64 { return float64(m.powerCycleFails.Load()) })
	r.CounterFunc("rocks_supervisor_quarantines_total",
		"Nodes pulled from service after exhausting their retry budget.",
		func() float64 { return float64(m.quarantines.Load()) })
	r.CounterFunc("rocks_supervisor_unquarantines_total",
		"Repaired nodes returned to service.",
		func() float64 { return float64(m.unquarantines.Load()) })
	r.CounterFunc("rocks_supervisor_recoveries_total",
		"Failing nodes that reached Up and had their budget refunded.",
		func() float64 { return float64(m.recoveries.Load()) })
	r.GaugeFunc("rocks_supervisor_running",
		"1 while a remediation supervisor is attached.",
		func() float64 {
			if m.current() != nil {
				return 1
			}
			return 0
		})
	r.CounterFunc("rocks_facts_reinstalls_total",
		"Reinstalls the supervisor ordered to remediate actionable drift.",
		func() float64 { return float64(m.driftReinstalls.Load()) })
}

// loop ticks until the supervisor is stopped or the cluster closes.
func (s *Supervisor) loop(ctx context.Context) {
	defer close(s.done)
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.tick()
		}
	}
}

// Stop halts the loop and waits for its last tick; idempotent. The
// cluster's root context cancels the same way, so Close needs no special
// case.
func (s *Supervisor) Stop() {
	s.cancel()
	<-s.done
}

// tick is one pass: refresh the watch set, probe it, then remediate against
// what that probe found.
func (s *Supervisor) tick() {
	// Keep the monitor watching every node under its best-known identity:
	// its database name, or its MAC until insert-ethers names it; and only
	// those on the floor, so a decommissioned one is neither probed nor
	// remediated again.
	macs := s.r.floor.macs()
	s.mu.Lock()
	s.pass++
	for _, mac := range macs {
		if mac == s.r.frontendMAC {
			continue
		}
		identity := hostname(s.r.db, mac)
		rec := s.recs[mac]
		if rec == nil {
			rec = &remedRecord{}
			s.recs[mac] = rec
		}
		if rec.watchedAs != identity {
			if rec.watchedAs != "" {
				s.mon.Unwatch(rec.watchedAs)
			}
			s.mon.Watch(identity)
			rec.watchedAs = identity
		}
		rec.pass = s.pass
	}
	for mac, rec := range s.recs {
		if rec.pass != s.pass {
			s.mon.Unwatch(rec.watchedAs)
			delete(s.recs, mac)
		}
	}
	s.mu.Unlock()

	// A dark node serves nothing: its relay goes before any remediation.
	probed := make(map[string]monitor.HostStatus)
	for _, st := range s.mon.Probe() {
		probed[st.Host] = st
		if st.Health == monitor.HealthDark {
			s.r.relays.withdraw(st.Host, "went dark")
		}
	}
	now := time.Now()
	for _, mac := range macs {
		s.superviseNode(now, mac, probed) // the frontend has no record
	}
}

// superviseNode applies the remediation policy to one node from the tick's
// probe, by watched identity: the state the node answered with and, for a
// node off or booting, whether it has been dark past the patience.
func (s *Supervisor) superviseNode(now time.Time, mac string, probed map[string]monitor.HostStatus) {
	s.mu.Lock()
	rec := s.recs[mac]
	if rec == nil {
		s.mu.Unlock()
		return
	}
	if rec.quarantinedAs != "" {
		// The directory owns the quarantine set: a host it no longer holds
		// was repaired and starts a fresh episode with a full budget, gated
		// by one patience so the repair's own power cycle goes first.
		if s.r.dir.isQuarantined(rec.quarantinedAs) {
			s.mu.Unlock()
			return
		}
		*rec = remedRecord{watchedAs: rec.watchedAs, next: now.Add(s.cfg.Patience)}
	}
	st := probed[rec.watchedAs]
	switch st.Detail {
	case hostUp:
		// Drift remediation: an Up node whose latest facts report shows
		// actionable drift (wrong arch, disk, NIC set) is cycled so its
		// reinstall re-probes the hardware. The episode shares the dark-node
		// budget — same backoff, same quarantine when it exhausts — and the
		// check runs before the recovery refund, so drift that persists
		// across reinstalls burns down the budget instead of resetting it.
		// Benign drift (cpus, mem_mb) never reaches here: it is recorded in
		// the inventory and the timeline only.
		if fields := s.r.facts.actionableDriftFields(mac); len(fields) > 0 {
			drift := strings.Join(fields, ",")
			s.remediateLocked(now, rec, mac, lifecycle.EventDriftReinstall,
				"chasing drift in "+drift, "reinstalling to chase drift in "+drift)
			return
		}
		if rec.failing {
			rec.failing = false
			rec.attempts = 0
			rec.next = time.Time{}
			s.record(rec.watchedAs, mac, lifecycle.EventRecovered, 0, "node reached up; retry budget refunded")
		}
		s.mu.Unlock()
		return
	case hostInstalling:
		// Alive: the install is visible on eKV. Progress stalls surface as
		// a crash (wedge) or as darkness after the install dies.
		s.mu.Unlock()
		return
	case hostCrashed:
		// Definitive: no patience needed.
	default: // off, booting
		if st.Health != monitor.HealthDark {
			s.mu.Unlock()
			return
		}
	}
	s.remediateLocked(now, rec, mac, lifecycle.EventPowerCycle,
		"in state "+st.Detail, "node reinstalling (was "+st.Detail+")")
}

// remediateLocked is the one remediation path, for dark or crashed nodes and
// for Up nodes with actionable facts drift alike: behind the backoff gate,
// spend one attempt of the node's budget on a hard power cycle — the paper's
// remedy, which forces the node to reinstall itself (§4) — or quarantine the
// node once the budget is gone. cycled is the event a successful cycle
// publishes; exhausted and reinstalling word the reason into the
// quarantine's and the cycle's detail. Called with s.mu held; releases it.
func (s *Supervisor) remediateLocked(now time.Time, rec *remedRecord, mac string,
	cycled lifecycle.EventType, exhausted, reinstalling string) {
	rec.failing = true
	if now.Before(rec.next) {
		s.mu.Unlock()
		return
	}
	if rec.attempts >= s.cfg.MaxRetries {
		attempts := rec.attempts
		host := rec.watchedAs
		rec.quarantinedAs = host
		s.mu.Unlock()
		if err := s.r.quarantine(host); err != nil {
			s.r.log.Log("frontend-0", "supervisor", "quarantining %s: %v", host, err)
		}
		// Published after Quarantine took effect, so a bus waiter that
		// wakes on this event observes the node already offline.
		s.record(host, mac, lifecycle.EventQuarantine, attempts,
			fmt.Sprintf("retry budget (%d) exhausted %s; marking offline", s.cfg.MaxRetries, exhausted))
		return
	}
	rec.attempts++
	attempt := rec.attempts
	rec.next = now.Add(s.backoffLocked(attempt))
	host := rec.watchedAs
	s.mu.Unlock()

	outlet, wired := s.r.pdu.OutletFor(mac)
	if !wired {
		s.record(host, mac, lifecycle.EventPowerCycleFailed, attempt, "no PDU outlet wired")
		return
	}
	if err := s.r.pdu.HardCycle(outlet); err != nil {
		s.record(host, mac, lifecycle.EventPowerCycleFailed, attempt, err.Error())
		return
	}
	s.record(host, mac, cycled, attempt, fmt.Sprintf("outlet %d cycled; %s", outlet, reinstalling))
}

// backoffLocked computes the capped exponential backoff plus jitter for the
// given attempt number. Caller holds s.mu (the PRNG is not goroutine-safe).
func (s *Supervisor) backoffLocked(attempt int) time.Duration {
	d := s.cfg.BaseBackoff << uint(attempt-1)
	if d > s.cfg.MaxBackoff || d <= 0 {
		d = s.cfg.MaxBackoff
	}
	return d + time.Duration(s.rng.Float64()*float64(d)/2)
}

// record publishes one supervisor action to the lifecycle bus — the
// bounded ring is the event log now; there is no private slice to grow
// without limit. Safe with or without s.mu held (the bus has its own lock
// and never calls back).
func (s *Supervisor) record(host, mac string, t lifecycle.EventType, attempt int, detail string) {
	s.r.count(t)
	e := s.r.events.Publish(lifecycle.Event{
		Node:    host,
		MAC:     mac,
		Phase:   lifecycle.PhaseRemediate,
		Type:    t,
		Source:  "supervisor",
		Attempt: attempt,
		Detail:  detail,
	})
	s.r.log.Log("frontend-0", "supervisor", "%s", e.String())
}

// Events returns the supervisor's action log in order, reconstructed from
// the lifecycle ring (bounded: entries evicted from the ring are gone; the
// drop count is on /v1/supervisor).
func (s *Supervisor) Events() []SupervisorEvent {
	events := s.r.events.Recent(lifecycle.Filter{Source: "supervisor"})
	out := make([]SupervisorEvent, len(events))
	for i, e := range events {
		out[i] = SupervisorEvent{
			Seq: i + 1, Time: e.Time,
			Host: e.Node, MAC: e.MAC, Type: e.Type, Attempt: e.Attempt, Detail: e.Detail,
		}
	}
	return out
}

// EventLog renders the action log as text, one event per line.
func (s *Supervisor) EventLog() string {
	var b strings.Builder
	for _, e := range s.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
