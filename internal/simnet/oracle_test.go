package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference: the global water-filler and the flush that drove it, as they
// stood before a flush re-solved only the component a change can reach
// (DESIGN.md §12). Verbatim but for where the per-link scratch lives: Link no
// longer carries a generation stamp, so the reference keeps capLeft and users
// in a map of its own. It re-rates every live flow from zero at every flush,
// and is what "max-min fair" means to every number this repository records.

type refScratch struct {
	capLeft float64
	users   int
}

func (s *Simulation) compactRef() {
	if s.live == len(s.flowList) {
		return
	}
	kept := s.flowList[:0]
	for _, f := range s.flowList {
		if !f.done {
			kept = append(kept, f)
		}
	}
	for i := len(kept); i < len(s.flowList); i++ {
		s.flowList[i] = nil
	}
	s.flowList = kept
}

func (s *Simulation) waterfillRef() {
	scratch := map[*Link]*refScratch{}
	flows := s.flowList
	var active []*Link
	for _, f := range flows {
		f.rate = 0
		f.frozen = false
		for _, l := range f.path {
			if scratch[l] == nil {
				scratch[l] = &refScratch{capLeft: l.Capacity}
				active = append(active, l)
			}
			scratch[l].users++
		}
	}

	unfrozen := len(flows)
	for unfrozen > 0 {
		delta := math.Inf(1)
		for _, l := range active {
			if sc := scratch[l]; sc.users > 0 {
				if share := sc.capLeft / float64(sc.users); share < delta {
					delta = share
				}
			}
		}
		for _, f := range flows {
			if !f.frozen && f.cap > 0 {
				if room := f.cap - f.rate; room < delta {
					delta = room
				}
			}
		}
		if math.IsInf(delta, 1) {
			panic("simnet: unbounded allocation")
		}
		if delta < 0 {
			delta = 0
		}
		for _, f := range flows {
			if !f.frozen {
				f.rate += delta
			}
		}
		for _, l := range active {
			scratch[l].capLeft -= delta * float64(scratch[l].users)
		}
		progressed := false
		for _, f := range flows {
			if f.frozen {
				continue
			}
			frozen := false
			if f.cap > 0 && f.rate >= f.cap-timeEpsilon {
				f.rate = f.cap
				frozen = true
			}
			if !frozen {
				for _, l := range f.path {
					if scratch[l].capLeft <= timeEpsilon {
						frozen = true
						break
					}
				}
			}
			if frozen {
				f.frozen = true
				unfrozen--
				progressed = true
				for _, l := range f.path {
					scratch[l].users--
				}
			}
		}
		if !progressed && delta <= timeEpsilon {
			break
		}
	}
}

func (s *Simulation) flushRef() {
	s.dirty = false
	s.advance()
	s.compactRef()
	s.waterfillRef()
	s.scheduleCompletion()
}

// runRef is Run over the reference flush. Nothing inside it may call Rate,
// Remaining or Utilization: those settle through the incremental flush.
func (s *Simulation) runRef() {
	for {
		if s.dirty && !(len(s.events) > 0 && s.events[0].at <= s.now+timeEpsilon) {
			s.flushRef()
		}
		if len(s.events) == 0 {
			return
		}
		s.step()
	}
}

// observation is one line of a scenario's log: a completion, a cancellation
// or a sampled Remaining (val, of a flow of size bytes).
type observation struct {
	what       string
	at         float64
	val, bytes float64
}

// flowSpec is everything random about one flow, drawn before the run so that
// both simulators replay the same schedule whatever order callbacks run in.
type flowSpec struct {
	name     string
	at       float64
	bytes    float64
	cap      float64
	path     []int
	cancelIn float64 // < 0: never
	then     *flowSpec
}

func drawFlow(r *rand.Rand, name string, nLinks int, chain bool) *flowSpec {
	sp := &flowSpec{name: name, cancelIn: -1}
	if r.Intn(2) == 0 {
		sp.at = float64(r.Intn(20)) // shared instants: batches of starts
	} else {
		sp.at = r.Float64() * 50
	}
	switch r.Intn(20) {
	case 0:
		sp.bytes = 0
	case 1, 2, 3, 4, 5:
		sp.bytes = 500 * float64(1+r.Intn(4)) // size classes: batches of completions
	default:
		sp.bytes = 10 + r.Float64()*5000
	}
	if r.Intn(3) == 0 {
		sp.cap = 10 + r.Float64()*200
	}
	for k := r.Intn(4); k > 0; k-- {
		sp.path = append(sp.path, r.Intn(nLinks)) // repeats allowed: charged twice
	}
	if len(sp.path) == 0 && sp.cap == 0 {
		sp.cap = 5 + r.Float64()*50
	}
	if r.Intn(5) == 0 {
		if sp.cancelIn = r.Float64() * 20; r.Intn(3) == 0 {
			sp.cancelIn = 0 // started and cancelled in the same instant
		}
	}
	if chain && r.Intn(5) == 0 {
		sp.then = drawFlow(r, name+"+", nLinks, false)
	}
	return sp
}

// runScenario plays one seeded topology on a fresh simulator, under the
// reference flush or the incremental one, and returns its log. check, if
// set, runs at each sample instant on settled rates.
func runScenario(seed int64, ref bool, check func(s *Simulation, links []*Link)) []observation {
	r := rand.New(rand.NewSource(seed))
	s := New()
	links := make([]*Link, 2+r.Intn(12))
	for i := range links {
		c := []float64{10, 100, 1000, 125e6}[r.Intn(4)]
		if r.Intn(2) == 0 {
			c = 50 + r.Float64()*950
		}
		links[i] = s.NewLink(fmt.Sprintf("l%d", i), c)
	}
	settle := s.settle
	if ref {
		settle = func() {
			if s.dirty {
				s.flushRef()
			}
		}
	}
	var log []observation
	var started []*Flow
	var sizes []float64
	var start func(sp *flowSpec)
	start = func(sp *flowSpec) {
		path := make([]*Link, len(sp.path))
		for i, li := range sp.path {
			path[i] = links[li]
		}
		f := s.StartFlow(sp.name, sp.bytes, path, sp.cap, func() {
			log = append(log, observation{what: "done " + sp.name, at: s.Now()})
			if sp.then != nil {
				start(sp.then)
			}
		})
		started, sizes = append(started, f), append(sizes, sp.bytes)
		if sp.cancelIn >= 0 {
			s.After(sp.cancelIn, func() {
				if !f.done {
					log = append(log, observation{what: "cancel " + sp.name, at: s.Now()})
					f.Cancel()
				}
			})
		}
	}
	for i, n := 0, 5+r.Intn(200); i < n; i++ {
		sp := drawFlow(r, fmt.Sprintf("f%d", i), len(links), true)
		s.After(sp.at, func() { start(sp) })
	}
	for i := 0; i < 12; i++ {
		s.After(r.Float64()*80, func() {
			settle()
			for i, f := range started {
				if !f.done {
					log = append(log, observation{"remaining " + f.Name, s.Now(), f.remaining - f.rate*(s.now-s.charged), sizes[i]})
				}
			}
			if check != nil {
				check(s, links)
			}
		})
	}
	if ref {
		s.runRef()
	} else {
		s.Run()
	}
	if s.ActiveFlows() != 0 {
		panic(fmt.Sprintf("seed %d: %d flows never finished", seed, s.ActiveFlows()))
	}
	return log
}

// maxMinCertificate checks, on settled rates, what makes an allocation
// max-min fair: no link is over capacity, and every flow is either at its
// cap or crosses a saturated link on which nobody has a higher rate — so
// no flow's rate can rise without lowering that of a flow no better off.
func maxMinCertificate(t *testing.T, seed int64, s *Simulation, links []*Link) {
	t.Helper()
	const tol = 1e-9
	used, top := map[*Link]float64{}, map[*Link]float64{}
	for _, f := range s.flowList {
		for _, l := range f.path {
			used[l] += f.rate
			top[l] = max(top[l], f.rate)
		}
	}
	for _, l := range links {
		if used[l] > l.Capacity*(1+tol) {
			t.Errorf("seed %d t=%g: link %s carries %g of %g", seed, s.now, l.Name, used[l], l.Capacity)
		}
	}
	for _, f := range s.flowList {
		ok := f.cap > 0 && f.rate >= f.cap*(1-tol)
		for _, l := range f.path {
			ok = ok || (used[l] >= l.Capacity*(1-tol) && f.rate >= top[l]*(1-tol))
		}
		if !ok {
			t.Errorf("seed %d t=%g: flow %s at rate %g (cap %g) is bottlenecked nowhere", seed, s.now, f.Name, f.rate, f.cap)
		}
	}
}

// TestIncrementalMatchesGlobal replays seeded random topologies — mixed
// capacities, multi-link paths with repeats, link-less capped flows, caps,
// zero-byte flows, starts and cancels sharing an instant, flows started from
// onDone — under the reference and under the incremental flush.
//
// The logs must agree line for line: the same completions and cancellations
// in the same order, times within 1e-12 relative, sampled remaining bytes
// within 1e-12 of the flow's size. Not bit for bit. Re-solving only a
// component is exact in real arithmetic, but a flow outside the component
// keeps the float it has, where the reference re-accumulates it through a
// delta sequence that the other components' freezes cut into different
// pieces. With every flow forced into every component the two agree to the
// last bit on every line here, so the level-based solve itself is exact; as
// shipped, about a third of these lines differ, by at most a few units in
// the last place (2e-15 relative on times). The fleet model's caps are
// uniform and a capped flow snaps to its cap when it freezes, which is why
// its pinned curves are bit-identical all the same
// (experiments.TestFleetGoldens).
func TestIncrementalMatchesGlobal(t *testing.T) {
	within := func(a, b, scale float64) bool {
		return math.Abs(a-b) <= 1e-12*max(math.Abs(a), math.Abs(b), scale)
	}
	lines, inexact := 0, 0
	for seed := int64(0); seed < 240; seed++ {
		want := runScenario(seed, true, nil)
		got := runScenario(seed, false, func(s *Simulation, links []*Link) { maxMinCertificate(t, seed, s, links) })
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, reference has %d", seed, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.what != w.what {
				t.Fatalf("seed %d line %d: %q at %v, reference has %q at %v", seed, i, g.what, g.at, w.what, w.at)
			}
			if !within(g.at, w.at, 0) || !within(g.val, w.val, w.bytes) {
				t.Errorf("seed %d line %d (%s): t=%v value %v, reference t=%v value %v", seed, i, g.what, g.at, g.val, w.at, w.val)
			}
			lines++
			if g != w {
				inexact++
			}
		}
	}
	t.Logf("%d log lines, %d not bit-identical to the reference", lines, inexact)
}
