package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"rocks/internal/lifecycle"
	"rocks/internal/monitor"
)

// The supervisor's decisions, explored exhaustively at a small scope: every
// state reachable from one machine, and from two, by any sequence of the
// events below, each followed by one tick of decide and plan's bookkeeping
// (the entries and the monitor's watch set), with the jitter at both of its
// extremes. The supervisor's bugs so far each needed a particular order of
// events; a breadth-first search finds the shortest such order.

// stimulus is what happens to one machine before a tick.
type stimulus uint8

const (
	xHealthy stimulus = iota
	xDrifted          // up, with actionable facts drift
	xDark
	xCrashed
	xInstalling
	xBooting // past the patience
	xDecommissioned
	xQuarantined // directly, not by the supervisor
	xUnquarantined
	xStimuli
)

var stimulusNames = [xStimuli]string{"healthy", "drifted", "dark", "crashed", "installing",
	"booting past patience", "decommissioned", "quarantined directly", "unquarantined"}

// answer is what a machine's ping says while its last probe stimulus holds.
func (p stimulus) answer() (bool, string) {
	switch p {
	case xHealthy, xDrifted:
		return true, hostUp
	case xInstalling:
		return true, hostInstalling
	case xCrashed:
		return false, hostCrashed
	case xBooting:
		return false, "booting"
	}
	return false, "off"
}

// xMachine is one machine of the explored world.
type xMachine struct {
	probe       stimulus // the last probe stimulus
	gone        bool     // decommissioned: off the floor for good
	quarantined bool     // held by the directory
	waiting     int      // dark ticks since its last cycle or quarantine
}

// xStep is one tick's input: a stimulus to one machine, the others keeping
// their last probe, and the jitter's extreme.
type xStep struct {
	machine int
	do      stimulus
	high    bool
}

// xState is an explored state: the world, the supervisor's entry for each
// machine that has one, and the step that first reached it.
type xState struct {
	world   [2]xMachine
	tracked [2]bool
	nodes   [2]tracked
	now     time.Time
	parent  *xState
	by      xStep
}

// xKey is a state up to a shift in time: all a later decision can depend on.
type xKey [2]struct {
	m                    xMachine
	tracked              bool
	attempts             int
	gate                 time.Duration // until the backoff gate opens, 0 if open
	failing, quarantined bool
}

type explorer struct {
	cfg   SupervisorConfig
	n     int
	macs  [2]string
	names [2]string
	bound int // the most dark ticks a run may pass without a cycle or quarantine

	// One supervisor and monitor, reset for each step. A monitor of no
	// patience, on a clock one interval on from the state's watches, calls a
	// machine it already watched dark exactly when its ping fails; one that
	// plan starts watching gets one tick of grace.
	sup         *Supervisor
	mon         *monitor.Monitor
	clock       time.Time
	world       *[2]xMachine
	pinged      [2]bool
	high, drawn bool
}

func (x *explorer) ping(host string) (bool, string) {
	for i := 0; i < x.n; i++ {
		if host == x.names[i] {
			x.pinged[i] = true
			if x.world[i].gone {
				return false, unknownHost
			}
			return x.world[i].probe.answer()
		}
	}
	return false, unknownHost
}

// draw is the supervisor's jitter: one of its two extremes.
func (x *explorer) draw() float64 {
	x.drawn = true
	if x.high {
		return math.Nextafter(1, 0)
	}
	return 0
}

func (x *explorer) key(s *xState) xKey {
	var k xKey
	for i := 0; i < x.n; i++ {
		k[i].m = s.world[i]
		if !s.tracked[i] {
			continue
		}
		e := s.nodes[i]
		k[i].tracked, k[i].attempts = true, e.rec.attempts
		k[i].failing, k[i].quarantined = e.rec.failing, e.rec.quarantined
		k[i].gate = max(0, e.rec.next.Sub(s.now))
	}
	return k
}

// repro renders the path to a state as one line.
func (x *explorer) repro(s *xState) string {
	var ticks []string
	for ; s.parent != nil; s = s.parent {
		tick := x.names[s.by.machine] + " " + stimulusNames[s.by.do]
		if s.by.high {
			tick += " (jitter high)"
		}
		ticks = append(ticks, tick)
	}
	for i, j := 0, len(ticks)-1; i < j; i, j = i+1, j-1 {
		ticks[i], ticks[j] = ticks[j], ticks[i]
	}
	for i := range ticks {
		ticks[i] = fmt.Sprintf("tick %d: %s", i+1, ticks[i])
	}
	return strings.Join(ticks, "; ")
}

// step applies one tick's input to a state: the stimulus, then plan on the
// supervisor reset to the state's entries, then the world's side of the
// actions. It returns the next state, whether the jitter was drawn, and the
// first property the tick broke, if any.
func (x *explorer) step(from *xState, st xStep) (next *xState, drawn bool, broke string) {
	next = &xState{world: from.world, now: from.now.Add(x.cfg.Interval), parent: from, by: st}
	prev, w := from.world, &next.world
	switch m := &w[st.machine]; st.do {
	case xDecommissioned:
		m.gone = true
	case xQuarantined:
		m.quarantined = true
	case xUnquarantined:
		m.quarantined = false
	default:
		m.probe = st.do
	}

	s, mon := x.sup, x.mon
	x.world, x.pinged, x.high, x.drawn, x.clock = w, [2]bool{}, st.high, false, from.now
	mon.Unwatch(x.names[:x.n]...)
	clear(s.nodes)
	s.pass = 0
	for i := 0; i < x.n; i++ {
		if from.tracked[i] {
			e := from.nodes[i]
			e.pass = 0
			s.nodes[x.macs[i]] = &e
			mon.Watch(e.as)
		}
	}
	x.clock = next.now
	var floor []input
	for i := 0; i < x.n; i++ {
		if !w[i].gone {
			in := input{mac: x.macs[i], name: x.names[i], onFloor: true, quarantined: w[i].quarantined}
			if w[i].probe == xDrifted {
				in.drift = []string{"arch"}
			}
			floor = append(floor, in)
		}
	}
	acts := s.plan(next.now, floor)
	watched := mon.Status() // the watch set

	for i := 0; i < x.n; i++ {
		var a action
		acted := false
		for _, act := range acts {
			if act.mac == x.macs[i] {
				a, acted = act, true
			}
		}
		cycled := a.event == lifecycle.EventPowerCycle || a.event == lifecycle.EventDriftReinstall
		spent := cycled || a.event == lifecycle.EventQuarantine
		e, tracked := s.nodes[x.macs[i]]
		if w[i].gone {
			for _, hs := range watched {
				tracked = tracked || hs.Host == x.names[i]
			}
			if x.pinged[i] || acted || tracked {
				return next, x.drawn, x.names[i] + " was watched, probed or withdrawn after it left the floor"
			}
			continue
		}
		next.tracked[i], next.nodes[i] = true, *e
		if w[i].quarantined && spent {
			return next, x.drawn, fmt.Sprintf("%s was quarantined and got a %s", x.names[i], a.event)
		}
		if e.rec.attempts > x.cfg.MaxRetries || a.attempt > x.cfg.MaxRetries {
			return next, x.drawn, fmt.Sprintf("%s is at attempt %d of a budget of %d", x.names[i], max(e.rec.attempts, a.attempt), x.cfg.MaxRetries)
		}
		if gate := e.rec.next.Sub(next.now); cycled && gate > x.cfg.MaxBackoff*3/2 {
			return next, x.drawn, fmt.Sprintf("%s backs off %s, past MaxBackoff plus half of it", x.names[i], gate)
		}
		if prev[i].quarantined && !w[i].quarantined && e.rec.attempts != 0 {
			return next, x.drawn, fmt.Sprintf("%s was unquarantined with %d attempts of its budget spent", x.names[i], e.rec.attempts)
		}
		switch p := w[i].probe; {
		case spent:
			w[i].waiting = 0
		case !w[i].quarantined && (p == xDark || p == xCrashed || p == xBooting):
			w[i].waiting++
		default:
			w[i].waiting = 0
		}
		if w[i].waiting > x.bound {
			return next, x.drawn, fmt.Sprintf("%s has been dark %d ticks with neither a cycle nor a quarantine", x.names[i], w[i].waiting)
		}
		if a.event == lifecycle.EventQuarantine {
			w[i].quarantined = true // what remediation.quarantine does first
		}
	}
	return next, x.drawn, ""
}

// explore runs the breadth-first search over n machines and returns the
// number of states it visited, failing the test with the shortest input
// sequence that breaks a property.
func explore(t *testing.T, n int) int {
	t.Helper()
	cfg := SupervisorConfig{Interval: time.Second, Patience: 2 * time.Second, MaxRetries: 2,
		BaseBackoff: time.Second, MaxBackoff: 2 * time.Second}
	gate := max(cfg.Patience, cfg.MaxBackoff*3/2)
	x := &explorer{cfg: cfg, n: n, bound: int((gate + cfg.Interval - 1) / cfg.Interval),
		macs: [2]string{"00:50:56:00:00:01", "00:50:56:00:00:02"}, names: [2]string{"compute-0-0", "compute-0-1"}}
	x.mon = monitor.New(monitor.PingerFunc(x.ping), 0)
	x.mon.SetClock(func() time.Time { return x.clock })
	x.sup = &Supervisor{cfg: cfg, mon: x.mon, nodes: map[string]*tracked{}, jitter: x.draw}
	start := &xState{now: time.Unix(1_000_000_000, 0)}
	seen := map[xKey]bool{x.key(start): true}
	for queue := []*xState{start}; len(queue) > 0; queue = queue[1:] {
		from := queue[0]
		for i := 0; i < n; i++ {
			m := from.world[i]
			for p := stimulus(0); p < xStimuli && !m.gone; p++ {
				if (p == xQuarantined && m.quarantined) || (p == xUnquarantined && !m.quarantined) {
					continue // the same tick as one more of its last probe
				}
				for _, high := range []bool{false, true} {
					next, drawn, broke := x.step(from, xStep{machine: i, do: p, high: high})
					if broke != "" {
						t.Fatalf("%s, after %s", broke, x.repro(next))
					}
					if k := x.key(next); !seen[k] {
						seen[k] = true
						queue = append(queue, next)
					}
					if !drawn {
						break // the high extreme would decide the same
					}
				}
			}
		}
	}
	return len(seen)
}

// TestSupervisorDecisionsExhaustive checks, in every state reachable from
// one machine and from two: a quarantined or decommissioned machine is never
// cycled (nor quarantined again); attempts never exceed MaxRetries and a
// backoff never exceeds MaxBackoff plus half of it; every dark run ends in a
// cycle or a quarantine within the longest gate; an unquarantine restores
// the budget; and a forgotten machine is never watched, probed or withdrawn
// again.
func TestSupervisorDecisionsExhaustive(t *testing.T) {
	for n := 1; n <= 2; n++ {
		start := time.Now()
		states := explore(t, n)
		t.Logf("%d machine(s): %d states, %s", n, states, time.Since(start).Round(time.Millisecond))
	}
}
