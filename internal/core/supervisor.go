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
// cycle" — and §6.3's installer waits for a user to type "retry"; at
// thousand-node scale (CERN, Brookhaven; PAPERS.md) transient install
// failures are constant and that human is the bottleneck. Each tick probes
// every node through the supervisor's monitor, and one pure function,
// decide, turns what the tick knows of a node into its action: a hard power
// cycle for a dark or crashed node (which forces reinstallation, §4) behind
// capped exponential backoff with jitter, or, once the retry budget is
// spent, quarantine — offline in PBS and the reports, so the cluster keeps
// scheduling at reduced capacity. Every action is published to the lifecycle
// bus (the bounded ring /v1/events serves), which chaos tests reconcile
// against the fault injector's ledger.

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

// remedRecord is the remediation policy's state for one node.
type remedRecord struct {
	attempts    int
	next        time.Time // backoff gate for the next attempt
	failing     bool
	quarantined bool // the directory held the node at the last decision
}

// tracked is the supervisor's entry for one node, keyed by its MAC.
type tracked struct {
	as   string // identity registered with the monitor
	pass uint64 // the last tick that found the node on the floor
	rec  remedRecord
}

// Supervisor is the closed-loop remediation daemon.
type Supervisor struct {
	r   *remediation
	cfg SupervisorConfig
	mon *monitor.Monitor

	mu     sync.Mutex
	jitter func() float64 // the seeded PRNG's draw; not goroutine-safe
	nodes  map[string]*tracked
	pass   uint64 // ticks so far

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
		jitter: rand.New(rand.NewSource(cfg.Seed)).Float64,
		nodes:  make(map[string]*tracked),
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
	m.events.Publish(lifecycle.Event{Node: host, Phase: lifecycle.PhaseRemediate,
		Type: lifecycle.EventUnquarantine, Source: "cluster"})
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

// Stop halts the loop and waits for its last tick; idempotent. The cluster's
// root context cancels the same way, so Close needs no special case.
func (s *Supervisor) Stop() {
	s.cancel()
	<-s.done
}

// input is everything one tick knows of one machine.
type input struct {
	mac, name   string // name: from the database, or the MAC until named
	onFloor     bool
	quarantined bool               // the directory holds its name or its MAC
	drift       []string           // its actionable facts drift fields
	probe       monitor.HostStatus // this tick's, by name
	now         time.Time
	jitter      func() float64 // drawn once for each cycle decided, only then
}

// action is decide's verdict on one machine, named as it is watched: the
// event to publish ("" for none; a cycle's detail follows "outlet N cycled; "),
// whether its relay goes, and whether it left the floor and is forgotten.
type action struct {
	host, mac string
	event     lifecycle.EventType
	attempt   int
	detail    string
	withdraw  bool
	forget    bool
}

// decide is the remediation policy for one machine, with no effect of its
// own. A quarantined node is left alone, whoever put it there; one the
// directory no longer holds was repaired and starts a fresh episode, its
// budget full and gated by one patience so the repair's own cycle goes first.
// A dark or crashed node, or an up one whose facts show actionable drift, is
// cycled behind the backoff gate — the paper's remedy, which forces a
// reinstall (§4) — or quarantined once its budget is spent. Drift is checked
// before the recovery refund, so drift that outlives reinstalls spends it.
func decide(cfg SupervisorConfig, rec remedRecord, in input) (remedRecord, action) {
	if !in.onFloor {
		return rec, action{forget: true}
	}
	act := action{host: in.name, mac: in.mac, withdraw: in.probe.Health == monitor.HealthDark}
	if in.quarantined {
		rec.quarantined = true
		return rec, act
	}
	if rec.quarantined {
		rec = remedRecord{next: in.now.Add(cfg.Patience)}
	}
	cycle, state := lifecycle.EventPowerCycle, in.probe.Detail
	switch {
	case state == hostUp && len(in.drift) > 0:
		cycle = lifecycle.EventDriftReinstall
	case state == hostUp:
		if rec.failing {
			rec = remedRecord{}
			act.event, act.detail = lifecycle.EventRecovered, "node reached up; retry budget refunded"
		}
		return rec, act
	case state == hostInstalling, state != hostCrashed && in.probe.Health != monitor.HealthDark:
		// Installing (a stall surfaces as a crash or as darkness), or off or
		// booting within the patience. A crash is definitive.
		return rec, act
	}
	rec.failing = true
	if in.now.Before(rec.next) {
		return rec, act
	}
	exhausted, reinstalling := "in state "+state, "node reinstalling (was "+state+")"
	if cycle == lifecycle.EventDriftReinstall {
		drift := strings.Join(in.drift, ",")
		exhausted, reinstalling = "chasing drift in "+drift, "reinstalling to chase drift in "+drift
	}
	if rec.attempts >= cfg.MaxRetries {
		rec.quarantined = true
		act.event, act.attempt = lifecycle.EventQuarantine, rec.attempts
		act.detail = fmt.Sprintf("retry budget (%d) exhausted %s; marking offline", cfg.MaxRetries, exhausted)
		return rec, act
	}
	rec.attempts++
	rec.next = in.now.Add(backoff(cfg, rec.attempts, in.jitter()))
	act.event, act.attempt, act.detail = cycle, rec.attempts, reinstalling
	return rec, act
}

// backoff is the wait after the given attempt: BaseBackoff doubled per
// attempt up to MaxBackoff, plus jitter (a draw in [0, 1)) times half that.
func backoff(cfg SupervisorConfig, attempt int, jitter float64) time.Duration {
	d := cfg.BaseBackoff << uint(attempt-1)
	if d > cfg.MaxBackoff || d <= 0 {
		d = cfg.MaxBackoff
	}
	return d + time.Duration(jitter*float64(d)/2)
}

// tick is one pass: under s.mu, gather what the floor, the database, the
// directory and the facts say of each machine, and plan; then withdraw each
// dark node's relay before any remediation, and act.
func (s *Supervisor) tick() {
	s.mu.Lock()
	quarantined, _ := s.r.dir.quarantineSet()
	var floor []input
	for _, mac := range s.r.floor.macs() {
		if mac == s.r.frontendMAC {
			continue
		}
		name := hostname(s.r.db, mac)
		floor = append(floor, input{mac: mac, name: name, onFloor: true,
			quarantined: quarantined[name] || quarantined[mac], drift: s.r.facts.actionableDriftFields(mac)})
	}
	acts := s.plan(time.Now(), floor)
	s.mu.Unlock()

	for _, a := range acts {
		if a.withdraw {
			s.r.relays.withdraw(a.host, "went dark")
		}
	}
	for _, a := range acts {
		s.apply(a)
	}
}

// plan brings the entries and the monitor's watch set to the floor, probes,
// and decides each machine from that probe, storing its next record. A
// machine that left the floor is forgotten before the probe. It acts on
// s.nodes and the watch set alone; the caller holds s.mu.
func (s *Supervisor) plan(now time.Time, floor []input) []action {
	s.pass++
	for _, in := range floor {
		t := s.nodes[in.mac]
		if t == nil {
			t = &tracked{}
			s.nodes[in.mac] = t
		}
		if t.as != in.name {
			s.mon.Unwatch(t.as)
			s.mon.Watch(in.name)
			t.as = in.name
		}
		t.pass = s.pass
	}
	var acts []action
	settle := func(t *tracked, in input) {
		var act action
		t.rec, act = decide(s.cfg, t.rec, in)
		switch {
		case act.forget:
			s.mon.Unwatch(t.as)
			delete(s.nodes, in.mac)
		case act.event != "" || act.withdraw:
			acts = append(acts, act)
		}
	}
	for mac, t := range s.nodes {
		if t.pass != s.pass {
			settle(t, input{mac: mac, name: t.as})
		}
	}
	probed := make(map[string]monitor.HostStatus, len(floor))
	for _, st := range s.mon.Probe() {
		probed[st.Host] = st
	}
	for _, in := range floor {
		in.probe, in.now, in.jitter = probed[in.name], now, s.jitter
		settle(s.nodes[in.mac], in)
	}
	return acts
}

// apply takes one planned action and publishes it. A quarantine is published
// only after it took effect, so a bus waiter that wakes on the event observes
// the node already offline; a cycle the PDU cannot make is published failed.
func (s *Supervisor) apply(a action) {
	switch a.event {
	case "":
		return
	case lifecycle.EventQuarantine:
		if err := s.r.quarantine(a.host); err != nil {
			s.r.log.Log("frontend-0", "supervisor", "quarantining %s: %v", a.host, err)
		}
	case lifecycle.EventPowerCycle, lifecycle.EventDriftReinstall:
		outlet, wired := s.r.pdu.OutletFor(a.mac)
		if !wired {
			a.event, a.detail = lifecycle.EventPowerCycleFailed, "no PDU outlet wired"
		} else if err := s.r.pdu.HardCycle(outlet); err != nil {
			a.event, a.detail = lifecycle.EventPowerCycleFailed, err.Error()
		} else {
			a.detail = fmt.Sprintf("outlet %d cycled; %s", outlet, a.detail)
		}
	}
	s.r.count(a.event)
	e := s.r.events.Publish(lifecycle.Event{Node: a.host, MAC: a.mac, Phase: lifecycle.PhaseRemediate,
		Type: a.event, Source: "supervisor", Attempt: a.attempt, Detail: a.detail})
	s.r.log.Log("frontend-0", "supervisor", "%s", e.String())
}

// Events returns the supervisor's action log in order, reconstructed from
// the lifecycle ring (bounded: entries evicted from the ring are gone; the
// drop count is on /v1/supervisor).
func (s *Supervisor) Events() []SupervisorEvent {
	events := s.r.events.Recent(lifecycle.Filter{Source: "supervisor"})
	out := make([]SupervisorEvent, len(events))
	for i, e := range events {
		out[i] = SupervisorEvent{Seq: i + 1, Time: e.Time, Host: e.Node, MAC: e.MAC,
			Type: e.Type, Attempt: e.Attempt, Detail: e.Detail}
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
