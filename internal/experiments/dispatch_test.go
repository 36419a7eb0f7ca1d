package experiments

import (
	"math/rand"
	"testing"
)

// pickByScan is the admission rule as it was written before the free sets:
// walk the sources from the head, take the first same-rack one with a free
// slot, else the first with a free slot at all; -1 if none has one.
func pickByScan(srcs []source, rack int) int32 {
	pick := int32(-1)
	for i, s := range srcs {
		if s.free > 0 && int(s.rack) == rack {
			return int32(i)
		}
		if s.free > 0 && pick < 0 {
			pick = int32(i)
		}
	}
	return pick
}

// TestDispatchMatchesLinearScan drives the bitset admission through random
// sequences of "a node in rack k asks", "a stream ends" and "a node becomes
// a relay", and requires the same pick as the linear scan every time — from
// the empty list (nothing free), through racks that have no relay yet, to
// sources that empty and refill. Every tenth seed runs long and saturated:
// thousands of sources and racks of hundreds of relays, so the picks cross
// each word of both kinds of set and each word of anyFree's summary.
func TestDispatchMatchesLinearScan(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		racks, steps, streams, ask, end := 1+rng.Intn(6), 2000, 1+rng.Intn(3), 6, 9
		long := seed%10 == 0
		if long {
			racks, steps, streams, ask, end = 1+rng.Intn(3), 16000, 1, 6, 7
		}
		// At most one source joins per step, so steps sources per rack bound
		// every row newFleetRun sizes.
		r := newFleetRun(FleetParams{Nodes: racks * steps, RackSize: steps, SourceStreams: streams, Relay: true})
		picks, none, deepest, deepestPos := 0, 0, int32(-1), int32(-1)
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < ask: // a node asks
				rack := rng.Intn(racks)
				got, want := r.pick(rack), pickByScan(r.srcs, rack)
				if got != want {
					t.Fatalf("seed %d step %d: rack %d picked %d, the scan picks %d", seed, step, rack, got, want)
				}
				if got < 0 {
					none++
					continue
				}
				picks++
				deepest = max(deepest, got)
				if int(r.srcs[got].rack) == rack {
					deepestPos = max(deepestPos, r.srcs[got].pos)
				}
				r.release(got, -1)
			case op < end: // a stream ends somewhere
				if len(r.srcs) == 0 {
					continue
				}
				if i := int32(rng.Intn(len(r.srcs))); r.srcs[i].free < int32(streams) {
					r.release(i, 1)
				}
			default: // a frontend (early on) or a finished node joins
				rack := rng.Intn(racks)
				if len(r.srcs) < 2 {
					rack = -1
				}
				r.addSource(nil, rack)
			}
		}
		if picks == 0 || none == 0 {
			t.Errorf("seed %d: %d picks and %d refusals; the sequence should see both", seed, picks, none)
		}
		if long && (deepest < 4096 || deepestPos < 64) {
			t.Errorf("seed %d: deepest pick %d, deepest same-rack position %d; the long run should pass 4096 and 64",
				seed, deepest, deepestPos)
		}
	}
}
