// Package simnet is a deterministic discrete-event network simulator used to
// reproduce the paper's timing results (Table I and the §6.3 scaling claims)
// without a 32-node testbed.
//
// The model is fluid-flow: a Flow moves a byte count across a Path of shared
// Links, and at any instant the set of active flows shares link capacity
// max-min fairly (progressive water-filling, with optional per-flow rate
// caps modelling a client NIC or an application's limited demand). Between
// rate changes, flows drain linearly, so the simulator only processes events
// at flow arrivals, departures, and timer expirations — a 32-node, 10-minute
// reinstallation replays in microseconds of wall-clock time.
//
// Rate reallocation is batched and incremental: starts, cancellations, and
// completions that land on the same virtual instant are absorbed into one
// flush, run just before the clock moves (or on demand when rates are
// observed), and the flush re-solves only the connected component of links
// and flows those changes can reach. Every other flow keeps its rate. A
// completion instant sweeps the live flows twice: once to charge them and
// find who finished, once in the flush to charge them again, drop the
// retired, collect the component in start order and find the next
// completion. The water-filling rounds between walk the component alone, each
// round its links and its still-unfrozen flows (DESIGN.md §12). That is what
// makes whole-fleet experiments (100k–1M nodes reinstalling in waves)
// tractable.
//
// Virtual time is a float64 in seconds. All scheduling is deterministic:
// events at equal times fire in the order they were scheduled, and onDone
// callbacks for simultaneous completions run in (start time, flow name)
// order.
package simnet

import (
	"container/heap"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"
)

// timeEpsilon guards float comparisons on the virtual clock.
const timeEpsilon = 1e-9

// Simulation owns the virtual clock, the event queue, and the set of active
// flows. It is not safe for concurrent use; a simulation is single-threaded
// by construction (determinism is the point).
type Simulation struct {
	now    float64
	seq    int64
	events eventQueue

	// flowList holds active flows in start order (start times are
	// monotonic, so append order is (start, arrival) order). Retired flows
	// are marked done and compacted out at the next rate flush, and
	// flowList[fresh:] started since.
	flowList []*Flow
	live     int
	fresh    int

	// charged is the virtual time up to which every live flow's remaining
	// bytes are drained: flows are charged all together, so it is one clock
	// and not a field of each. A flow started since has no rate yet, and
	// charging it for the time before it began costs it nothing.
	charged float64

	// dirty marks that the flow set changed since rates were last computed.
	// The reallocation runs once per virtual instant — after every event at
	// that time has fired — or immediately when rates are observed.
	dirty bool

	// completion is the pending earliest-flow-completion event, stopped
	// whenever rates are reallocated.
	completion *Timer

	// Flush scratch, kept between flushes: the links of the component being
	// re-solved (the search's queue and the solve's active-link list are the
	// same slice, never longer than numLinks; a retiring flow queues its
	// links at once) and its flows, which completeFinished borrows between
	// flushes. rerated is how many flows the last flush re-rated.
	links    []*Link
	flows    []*Flow
	rerated  int
	numLinks int
}

// New creates an empty simulation at virtual time zero.
func New() *Simulation {
	return &Simulation{}
}

// Now returns the current virtual time in seconds.
func (s *Simulation) Now() float64 { return s.now }

// Timer is a scheduled callback, and the event-queue entry itself; it can
// be stopped before it fires.
type Timer struct {
	at      float64
	seq     int64
	fn      func()
	stopped bool
}

// Stop prevents the timer's callback from running. It is a no-op if the
// timer already fired.
func (t *Timer) Stop() { t.stopped = true }

// After schedules fn to run once, delay seconds from now. A negative delay
// fires immediately (at the current time).
func (s *Simulation) After(delay float64, fn func()) *Timer {
	return s.push(s.now+max(delay, 0), fn)
}

// Run processes events until none remain, and returns the final virtual
// time. A run is one goroutine that never blocks, and Go lets such a
// goroutine keep its processor for 10–20 ms at a time while whatever else is
// queued on that processor waits; beside a live frontend in the same process
// (the harness's smoke test runs a model next to an install storm) that is
// several whole installs. So the loop offers the processor every 200 µs of
// wall clock — read once in 64 events, which costs a model nothing that
// modeled_100k can measure and changes nothing it computes.
func (s *Simulation) Run() float64 {
	yielded := time.Now()
	for n := 1; ; n++ {
		s.maybeFlush()
		if len(s.events) == 0 {
			return s.now
		}
		s.step()
		if n%64 == 0 && time.Since(yielded) > 200*time.Microsecond {
			runtime.Gosched()
			yielded = time.Now()
		}
	}
}

// RunUntil processes events up to and including virtual time t, leaving
// later events queued. The clock is left at t (or at the last event time if
// that is later than any remaining event).
func (s *Simulation) RunUntil(t float64) {
	for {
		s.maybeFlush()
		if len(s.events) == 0 || s.events[0].at > t+timeEpsilon {
			break
		}
		s.step()
	}
	if s.now < t {
		s.now = t
	}
}

// maybeFlush recomputes rates if the flow set changed and every event at the
// current instant has fired. Holding the flush until the batch is complete
// collapses thousands of same-time starts or completions into a single
// water-filling pass without changing any observable timing: no virtual time
// passes between same-instant events.
func (s *Simulation) maybeFlush() {
	if !s.dirty {
		return
	}
	if len(s.events) > 0 && s.events[0].at <= s.now+timeEpsilon {
		return // more events at this instant: keep batching
	}
	s.flush()
}

// settle forces any pending reallocation so observers (Rate, Remaining,
// Utilization) see post-batch state.
func (s *Simulation) settle() {
	if s.dirty {
		s.flush()
	}
}

func (s *Simulation) step() {
	ev := heap.Pop(&s.events).(*Timer)
	if ev.at < s.now-timeEpsilon {
		panic(fmt.Sprintf("simnet: event at t=%g scheduled in the past (now=%g)", ev.at, s.now))
	}
	if ev.at > s.now {
		s.now = ev.at
	}
	if !ev.stopped {
		ev.fn()
	}
}

func (s *Simulation) push(at float64, fn func()) *Timer {
	s.seq++
	t := &Timer{at: at, seq: s.seq, fn: fn}
	heap.Push(&s.events, t)
	return t
}

type eventQueue []*Timer

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*Timer)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Link is a shared transmission resource with a fixed capacity in bytes per
// second. All flows whose Path includes the link share it max-min fairly.
type Link struct {
	Name     string
	Capacity float64 // bytes/second

	// flows lists the live flows crossing the link in start order, once per
	// hop. A retired flow stays until a flush next reaches the link, which
	// the flush after it retires always does.
	flows []*Flow

	// Flush scratch, meaningful only while queued: the link is in the
	// component being re-solved. The narrow types keep a Link in the 64-byte
	// size class.
	capLeft float64
	users   int32
	queued  bool
}

// NewLink registers a link with the simulation.
func (s *Simulation) NewLink(name string, capacity float64) *Link {
	if capacity <= 0 {
		panic("simnet: link capacity must be positive")
	}
	s.numLinks++
	return &Link{Name: name, Capacity: capacity}
}

// Utilization returns the fraction of the link's capacity currently
// allocated to active flows.
func (s *Simulation) Utilization(l *Link) float64 {
	s.settle()
	var used float64
	for _, f := range l.flows {
		used += f.rate
	}
	return used / l.Capacity
}

// Flow is an in-progress bulk transfer.
type Flow struct {
	Name string

	sim       *Simulation
	path      []*Link
	cap       float64 // per-flow rate cap; 0 means uncapped
	remaining float64 // bytes left at time Simulation.charged
	rate      float64 // current allocated rate
	onDone    func()
	done      bool
	// frozen says rate is settled. A flow starts unfrozen, a flush unfreezes
	// the flows a change can reach, and the solve freezes each at its rate.
	frozen bool
	start  float64
}

// StartFlow begins transferring `bytes` across `path`, calling onDone (which
// may be nil) when the last byte arrives. rateCap limits the flow's rate
// regardless of link availability; pass 0 for no cap. A link listed twice in
// path is crossed twice: the flow is charged against its capacity twice. A
// zero-byte flow completes at the current time (onDone runs from the event
// loop, not inline).
func (s *Simulation) StartFlow(name string, bytes float64, path []*Link, rateCap float64, onDone func()) *Flow {
	if bytes < 0 {
		panic("simnet: negative flow size")
	}
	if len(path) == 0 && rateCap <= 0 {
		panic("simnet: flow needs at least one link or a rate cap")
	}
	f := &Flow{Name: name, sim: s, path: path, cap: rateCap, remaining: bytes, onDone: onDone, start: s.now}
	s.flowList = append(s.flowList, f)
	for _, l := range path {
		l.flows = append(l.flows, f)
	}
	s.live++
	s.dirty = true
	// A zero-byte flow must complete even if no other event flushes rates.
	if bytes <= timeEpsilon {
		s.push(s.now, func() {}) // forces a flush at this instant
	}
	return f
}

// Cancel aborts a flow, freeing its bandwidth; onDone is not called.
func (f *Flow) Cancel() {
	if f.done {
		return
	}
	// Charge the flow's own transfer up to now; peers are charged at the
	// next flush, before their rates change.
	f.charge(f.sim.now - f.sim.charged)
	f.sim.retire(f)
}

// retire takes a flow out of the live set and queues its links for the next
// flush, whose search drops it from their lists. The queue is sized first, as
// flush sizes it.
func (s *Simulation) retire(f *Flow) {
	f.done = true
	s.live--
	s.dirty = true
	s.links = slices.Grow(s.links, s.numLinks-len(s.links))
	s.reach(f.path)
}

// charge drains the flow at its current rate for dt seconds.
func (f *Flow) charge(dt float64) {
	if dt > 0 {
		f.remaining = max(f.remaining-f.rate*dt, 0)
	}
}

// Remaining returns the bytes the flow still has to transfer as of the
// current virtual time.
func (f *Flow) Remaining() float64 {
	if f.done {
		return 0
	}
	f.sim.settle()
	return f.remaining - f.rate*(f.sim.now-f.sim.charged)
}

// Rate returns the flow's currently allocated transfer rate in bytes/sec.
func (f *Flow) Rate() float64 {
	if f.done {
		return 0
	}
	f.sim.settle()
	return f.rate
}

// finishIn is how long the flow takes to finish at its rate: +Inf if never.
func (f *Flow) finishIn() float64 {
	if f.rate > 0 {
		return f.remaining / f.rate
	}
	if f.remaining <= timeEpsilon {
		return 0 // zero-byte flow: completes now
	}
	return math.Inf(1)
}

// flush advances flows to the current instant at their old rates, re-solves
// max-min fair rates for the flows the changes since the last flush can
// affect, and schedules the next completion event.
func (s *Simulation) flush() {
	s.dirty = false
	// Sized to the most they can hold: grown by append, a 100 000-entry
	// slice leaves four times its size in garbage on the way (DESIGN.md §12).
	s.links = slices.Grow(s.links, s.numLinks-len(s.links))
	s.flows = slices.Grow(s.flows, len(s.flowList))
	// Seeds: the links of every flow started since the last flush; a retired
	// flow queued its own when it retired.
	for _, f := range s.flowList[s.fresh:] {
		s.reach(f.path)
	}
	// Component: breadth-first over link → flows → links. Reaching a link
	// drops its retired flows; whoever is left is in the component, so the
	// link's user count is what is left.
	for i := 0; i < len(s.links); i++ {
		l := s.links[i]
		kept := l.flows[:0]
		for _, f := range l.flows {
			if f.done {
				continue
			}
			kept = append(kept, f)
			if f.frozen {
				f.frozen = false
				s.reach(f.path)
			}
		}
		clear(l.flows[len(kept):])
		l.flows, l.users = kept, int32(len(kept))
	}
	// One sweep charges the live, drops the retired and collects the
	// component in start order, so float noise is reproducible run to run. A
	// flow outside the component keeps its rate, so its finish time is known
	// now; the solve gives each of the others its own as it freezes.
	next, minCap := math.Inf(1), math.Inf(1)
	kept := s.flowList[:0]
	for _, f := range s.flowList {
		if f.done {
			continue
		}
		f.charge(s.now - s.charged)
		kept = append(kept, f)
		if f.frozen {
			next = min(next, f.finishIn())
			continue
		}
		s.flows = append(s.flows, f)
		if f.cap > 0 {
			minCap = min(minCap, f.cap)
		}
	}
	s.charged = s.now
	clear(s.flowList[len(kept):])
	s.flowList, s.fresh = kept, len(kept)
	s.rerated = len(s.flows)
	next = s.waterfill(minCap, next)
	for _, l := range s.links {
		l.queued = false
	}
	clear(s.flows) // a retired flow must not stay reachable from scratch
	s.links, s.flows = s.links[:0], s.flows[:0]
	if s.completion != nil {
		s.completion.Stop()
	}
	if next < math.Inf(1) {
		s.completion = s.push(s.now+next, s.completeFinished)
	}
}

// reach brings a flow's links into the current flush: each is queued, with
// its whole capacity to give, the first time it is seen.
func (s *Simulation) reach(path []*Link) {
	for _, l := range path {
		if !l.queued {
			l.queued, l.capLeft = true, l.Capacity
			s.links = append(s.links, l)
		}
	}
}

// waterfill runs progressive max-min water-filling over s.flows and s.links,
// one connected component or several. All unfrozen flows rise together from
// zero, so they share one level; a flow freezes, and takes its rate, when the
// level reaches its cap or one of its links saturates. minCap is the lowest
// cap among s.flows. The pass allocates nothing, and each round costs the
// component's links plus its still-unfrozen flows. It returns the earlier of
// next and the soonest a re-rated flow finishes.
func (s *Simulation) waterfill(minCap, next float64) float64 {
	flows, level := s.flows, 0.0
	for len(flows) > 0 {
		// The common increment is limited by the tightest link share and
		// the nearest flow cap.
		delta := minCap - level
		for _, l := range s.links {
			if l.users > 0 {
				delta = min(delta, l.capLeft/float64(l.users))
			}
		}
		if math.IsInf(delta, 1) {
			// Flows with no links and no cap cannot happen (StartFlow
			// rejects them), so delta is always finite here.
			panic("simnet: unbounded allocation")
		}
		delta = max(delta, 0)
		level += delta
		for _, l := range s.links {
			l.capLeft -= delta * float64(l.users)
		}
		// Freeze capped flows and flows on saturated links; keep the rest,
		// and their lowest cap, for the next round.
		rest := flows[:0]
		minCap = math.Inf(1)
		for _, f := range flows {
			f.rate = level
			if f.cap > 0 && level >= f.cap-timeEpsilon {
				f.rate, f.frozen = f.cap, true
			}
			for i := 0; i < len(f.path) && !f.frozen; i++ {
				f.frozen = f.path[i].capLeft <= timeEpsilon
			}
			if !f.frozen {
				rest = append(rest, f)
				if f.cap > 0 {
					minCap = min(minCap, f.cap)
				}
				continue
			}
			next = min(next, f.finishIn())
			for _, l := range f.path {
				l.users--
			}
		}
		if len(rest) == len(flows) && delta <= timeEpsilon {
			break // numerical stall: everyone left keeps the level reached
		}
		flows = rest
	}
	for _, f := range flows {
		f.frozen = true
		next = min(next, f.finishIn())
	}
	return next
}

// completeFinished charges every live flow up to now and, in the same sweep,
// finds those whose remaining bytes reached zero, then retires them. onDone
// callbacks run in deterministic (start, name) order; the rate reallocation
// they trigger is batched with any same-instant starts. The
// list borrows the flush's flow scratch and takes it off the Simulation
// meanwhile: a callback that observes rates flushes mid-loop, and that flush
// must not write over the list being walked.
func (s *Simulation) completeFinished() {
	finished := s.flows
	s.flows = nil
	// A flow due within the clock's resolution at now is finished too: its
	// completion event could not move the clock and would recur for ever.
	tick := math.Nextafter(s.now, math.Inf(1)) - s.now
	for _, f := range s.flowList {
		if f.done {
			continue
		}
		f.charge(s.now - s.charged)
		if f.remaining <= max(1e-6, f.rate*tick) { // byte-level epsilon
			finished = append(finished, f)
		}
	}
	s.charged = s.now
	sort.Slice(finished, func(i, j int) bool {
		return finished[i].start < finished[j].start ||
			(finished[i].start == finished[j].start && finished[i].Name < finished[j].Name)
	})
	for _, f := range finished {
		s.retire(f)
	}
	s.dirty = true // even if none finished: only a flush schedules the next event
	for _, f := range finished {
		if f.onDone != nil {
			f.onDone()
		}
	}
	clear(finished)
	s.flows = finished[:0]
}

// ActiveFlows reports the number of in-progress flows.
func (s *Simulation) ActiveFlows() int { return s.live }
