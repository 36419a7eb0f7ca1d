package experiments

import (
	"math/rand"
	"testing"
)

// pickByScan is the admission rule as it was written before the free sets:
// walk the sources from the head, take the first same-rack one with a free
// slot, else the first with a free slot at all.
func pickByScan(sources []*installSource, rack int) *installSource {
	var pick *installSource
	for _, s := range sources {
		if s.free > 0 && s.rack == rack {
			pick = s
			break
		}
		if s.free > 0 && pick == nil {
			pick = s
		}
	}
	return pick
}

// TestDispatchMatchesLinearScan drives the indexed admission through random
// sequences of "a node in rack k asks", "a stream ends" and "a node becomes
// a relay", and requires the same pick as the linear scan every time — from
// the empty list (nothing free), through racks that have no relay yet, to
// sources that empty and refill while stale entries sit in the heaps.
func TestDispatchMatchesLinearScan(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		racks := 1 + rng.Intn(6)
		r := &fleetRun{p: FleetParams{SourceStreams: 1 + rng.Intn(3)}, rackFree: make([]freeSet, racks)}
		picks, none := 0, 0
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // a node asks
				rack := rng.Intn(racks)
				got, want := r.pick(rack), pickByScan(r.sources, rack)
				if got != want {
					t.Fatalf("seed %d step %d: rack %d picked %+v, the scan picks %+v", seed, step, rack, got, want)
				}
				if got == nil {
					none++
					continue
				}
				picks++
				got.free--
			case op < 9: // a stream ends somewhere
				if len(r.sources) == 0 {
					continue
				}
				if src := r.sources[rng.Intn(len(r.sources))]; src.free < r.p.SourceStreams {
					r.release(src, 1)
				}
			default: // a frontend (early on) or a finished node joins
				rack := rng.Intn(racks)
				if len(r.sources) < 2 {
					rack = -1
				}
				r.addSource(nil, rack)
			}
		}
		if picks == 0 || none == 0 {
			t.Errorf("seed %d: %d picks and %d refusals; the sequence should see both", seed, picks, none)
		}
	}
}
