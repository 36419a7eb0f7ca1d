package simnet

import (
	"fmt"
	"slices"
	"testing"
)

// TestObserveRatesInsideOnDone: three flows finish in one instant, and each
// callback reads a survivor's rate — forcing a flush while completeFinished
// is still walking its list — and then starts another flow. The list is the
// flush's own flow scratch on loan, so this is the test that the loan is
// exclusive: every callback runs exactly once, and each sees the survivor's
// rate for the flows live at that point.
func TestObserveRatesInsideOnDone(t *testing.T) {
	s := New()
	l := s.NewLink("eth", 300)
	survivor := s.StartFlow("survivor", 1e6, []*Link{l}, 0, nil)
	ran := map[string]int{}
	var seen []float64
	for _, name := range []string{"a", "b", "c"} {
		s.StartFlow(name, 75, []*Link{l}, 0, func() { // four share 300: done at t=1
			ran[name]++
			seen = append(seen, survivor.Rate())
			s.StartFlow("after-"+name, 1e6, []*Link{l}, 0, nil)
		})
	}
	s.RunUntil(1)
	for _, name := range []string{"a", "b", "c"} {
		if ran[name] != 1 {
			t.Errorf("callback of %s ran %d times, want 1", name, ran[name])
		}
	}
	// Alone, then beside one newcomer, then beside two.
	if want := []float64{300, 150, 100}; !slices.Equal(seen, want) {
		t.Errorf("survivor's rate inside the callbacks = %v, want %v", seen, want)
	}
	if got := survivor.Rate(); got != 75 {
		t.Errorf("survivor's rate after the batch = %g, want 75", got)
	}
	if s.ActiveFlows() != 4 {
		t.Errorf("ActiveFlows = %d, want 4", s.ActiveFlows())
	}
}

// TestFlushTouchesOnlyWhatChanged pins the mechanism by the count of flows a
// flush re-rates, not by a timer: two racks that share no link, 32 flows
// each, and three flows on a NIC of their own.
func TestFlushTouchesOnlyWhatChanged(t *testing.T) {
	s := New()
	rack := func(name string) *Link {
		uplink := s.NewLink(name+"-uplink", 3200)
		for i := 0; i < 32; i++ {
			nic := s.NewLink(fmt.Sprintf("%s-nic-%d", name, i), 1000)
			s.StartFlow(fmt.Sprintf("%s-%d", name, i), 1e9, []*Link{uplink, nic}, 0, nil)
		}
		return uplink
	}
	a := rack("a")
	rack("b")
	private := s.NewLink("private", 30)
	s.StartFlow("short", 10, []*Link{private}, 0, nil) // a third of 30: done at t=1
	n1 := s.StartFlow("neighbour-1", 1e9, []*Link{private}, 0, nil)
	n2 := s.StartFlow("neighbour-2", 1e9, []*Link{private}, 0, nil)
	s.settle()
	if s.rerated != 67 {
		t.Fatalf("first flush re-rated %d flows, want all 67", s.rerated)
	}

	// A completion on the private NIC re-rates its two neighbours only.
	s.RunUntil(1.5)
	if s.rerated != 2 || n1.Rate() != 15 || n2.Rate() != 15 {
		t.Errorf("after the completion: re-rated %d flows (want 2), neighbours at %g and %g (want 15)", s.rerated, n1.Rate(), n2.Rate())
	}

	// An arrival in rack a re-rates rack a — its 32 flows and the newcomer —
	// and nothing in rack b.
	late := s.StartFlow("a-late", 1e9, []*Link{a, s.NewLink("a-nic-late", 1000)}, 0, nil)
	if got, want := late.Rate(), 3200.0/33; !almost(got, want, 1e-9) {
		t.Errorf("newcomer's rate = %g, want %g", got, want)
	}
	if s.rerated != 33 {
		t.Errorf("arrival in rack a re-rated %d flows, want 33", s.rerated)
	}

	// A cancellation is a change like any other: rack a again, less one.
	late.Cancel()
	s.settle()
	if s.rerated != 32 {
		t.Errorf("cancellation in rack a re-rated %d flows, want 32", s.rerated)
	}
}

// TestCompletionBelowClockResolution: late in a long run on a fast link, a
// flow can be left with more than the byte epsilon yet less than the link
// moves in one tick of the float64 clock. Its completion event then lands on
// the current instant, charges nothing, and used to be rescheduled for ever.
func TestCompletionBelowClockResolution(t *testing.T) {
	s := New()
	l := s.NewLink("gige", 125e6)
	done := false
	s.After(4139.286333422343, func() {
		s.StartFlow("f", 1.2e-5, []*Link{l}, 0, func() { done = true })
	})
	s.After(5000, func() {}) // the run must get here
	if end := s.Run(); !done || end != 5000 {
		t.Errorf("done=%v, run ended at %v", done, end)
	}
}
