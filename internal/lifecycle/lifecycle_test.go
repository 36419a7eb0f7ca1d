package lifecycle

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestPublishAssignsSeqAndTime(t *testing.T) {
	b := NewBus(8)
	e1 := b.Publish(Event{Node: "compute-0-0", Phase: PhaseInstall, Type: EventLease})
	e2 := b.Publish(Event{Node: "compute-0-0", Phase: PhaseInstall, Type: EventKickstart})
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Fatalf("sequence numbers = %d, %d; want 1, 2", e1.Seq, e2.Seq)
	}
	if e1.Time.IsZero() {
		t.Fatal("Publish left Time zero")
	}
	if got := b.Seq(); got != 2 {
		t.Fatalf("Seq() = %d, want 2", got)
	}
}

func TestRingEvictsOldest(t *testing.T) {
	b := NewBus(4)
	for i := 0; i < 10; i++ {
		b.Publish(Event{Node: fmt.Sprintf("n%d", i), Type: EventUp})
	}
	got := b.Recent(Filter{})
	if len(got) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(got))
	}
	if got[0].Node != "n6" || got[3].Node != "n9" {
		t.Fatalf("ring = %s..%s, want n6..n9", got[0].Node, got[3].Node)
	}
	if b.Evicted() != 6 {
		t.Fatalf("Evicted() = %d, want 6", b.Evicted())
	}
}

func TestFilterMatchesNodeOrMAC(t *testing.T) {
	b := NewBus(16)
	// Before insert-ethers binds a name, producers use the MAC as Node.
	b.Publish(Event{Node: "aa:bb", MAC: "aa:bb", Phase: PhaseDiscover, Type: EventDiscovered})
	b.Publish(Event{Node: "compute-0-0", MAC: "aa:bb", Phase: PhaseDiscover, Type: EventBound})
	b.Publish(Event{Node: "compute-0-1", MAC: "cc:dd", Phase: PhaseDiscover, Type: EventBound})

	tl := b.Timeline("aa:bb")
	if len(tl) != 2 {
		t.Fatalf("timeline by MAC returned %d events, want 2 (discovered+bound)", len(tl))
	}
	byName := b.Timeline("compute-0-0")
	if len(byName) != 1 || byName[0].Type != EventBound {
		t.Fatalf("timeline by name = %v", byName)
	}
	if got := b.Recent(Filter{Type: EventBound}); len(got) != 2 {
		t.Fatalf("type filter returned %d, want 2", len(got))
	}
	if got := b.Recent(Filter{Phase: PhaseDiscover, Limit: 1}); len(got) != 1 || got[0].Node != "compute-0-1" {
		t.Fatalf("limit should keep most recent match, got %v", got)
	}
	if got := b.Recent(Filter{SinceSeq: 2}); len(got) != 1 {
		t.Fatalf("SinceSeq filter returned %d, want 1", len(got))
	}
}

func TestSubscribeFanOut(t *testing.T) {
	b := NewBus(16)
	ch1, cancel1 := b.Subscribe(4)
	ch2, cancel2 := b.Subscribe(4)
	defer cancel2()
	b.Publish(Event{Node: "n0", Type: EventUp})
	for i, ch := range []<-chan Event{ch1, ch2} {
		select {
		case e := <-ch:
			if e.Node != "n0" {
				t.Fatalf("subscriber %d got %v", i, e)
			}
		case <-time.After(time.Second):
			t.Fatalf("subscriber %d never received the event", i)
		}
	}
	cancel1()
	b.Publish(Event{Node: "n1", Type: EventUp})
	select {
	case e := <-ch1:
		t.Fatalf("cancelled subscriber received %v", e)
	default:
	}
	select {
	case e := <-ch2:
		if e.Node != "n1" {
			t.Fatalf("live subscriber got %v", e)
		}
	case <-time.After(time.Second):
		t.Fatal("live subscriber missed the second event")
	}
}

func TestSlowSubscriberDropsInsteadOfBlocking(t *testing.T) {
	b := NewBus(16)
	_, cancel := b.Subscribe(1)
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 5; i++ {
			b.Publish(Event{Node: "n0", Type: EventUp})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Publish blocked on a full subscriber")
	}
	if d := b.SubscriberDrops(); d != 4 {
		t.Fatalf("SubscriberDrops() = %d, want 4", d)
	}
}

func TestWaitForSeesPastEvents(t *testing.T) {
	b := NewBus(16)
	b.Publish(Event{Node: "compute-0-0", Type: EventQuarantine})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	e, err := b.WaitFor(ctx, Filter{Node: "compute-0-0", Type: EventQuarantine})
	if err != nil {
		t.Fatalf("WaitFor missed an event already in the ring: %v", err)
	}
	if e.Seq != 1 {
		t.Fatalf("WaitFor returned seq %d, want 1", e.Seq)
	}
}

func TestWaitForBlocksUntilPublish(t *testing.T) {
	b := NewBus(16)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got := make(chan Event, 1)
	since := b.Seq()
	go func() {
		e, err := b.WaitFor(ctx, Filter{Node: "compute-0-3", Type: EventRecovered, SinceSeq: since})
		if err == nil {
			got <- e
		}
	}()
	b.Publish(Event{Node: "compute-0-1", Type: EventRecovered}) // wrong node: keeps waiting
	b.Publish(Event{Node: "compute-0-3", Type: EventRecovered})
	select {
	case e := <-got:
		if e.Node != "compute-0-3" {
			t.Fatalf("WaitFor returned %v", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitFor never woke for the matching publish")
	}
}

func TestWaitForHonorsContext(t *testing.T) {
	b := NewBus(16)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := b.WaitFor(ctx, Filter{Node: "never"})
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("WaitFor returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitFor ignored cancellation")
	}
}

// TestConcurrentPublishSubscribe exercises the bus under -race: publishers,
// subscribers, timeline readers, and WaitFor callers all at once. The ring
// holds all 200 events, so the event WaitFor waits for cannot be evicted
// before it looks (TestWaitForNamesEviction covers a ring that wraps).
func TestConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus(200)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b.Publish(Event{Node: fmt.Sprintf("n%d", p), Type: EventUp, Detail: fmt.Sprintf("%d", i)})
			}
		}(p)
	}
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch, cancelSub := b.Subscribe(8)
			defer cancelSub()
			for {
				select {
				case <-ch:
				case <-time.After(10 * time.Millisecond):
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			b.Timeline("n0")
			b.Recent(Filter{Type: EventUp, Limit: 5})
		}
	}()
	if _, err := b.WaitFor(ctx, Filter{Node: "n3", Type: EventUp}); err != nil {
		t.Fatalf("WaitFor under load: %v", err)
	}
	wg.Wait()
	if b.Seq() != 200 {
		t.Fatalf("Seq() = %d after 200 publishes", b.Seq())
	}
}

// TestWaitForNamesEviction: a wait whose match may have left the ring fails
// at once, naming the eviction, instead of waiting out its context; a match
// still held, or a wait from a point the ring still covers, is unaffected.
func TestWaitForNamesEviction(t *testing.T) {
	b := NewBus(4)
	for i := range 6 {
		b.Publish(Event{Node: fmt.Sprintf("n%d", i), Type: EventUp})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	_, err := b.WaitFor(ctx, Filter{Node: "n0"})
	if err == nil || !contains(err.Error(), "events #1 to #2, after #0, were evicted") || time.Since(start) > time.Second {
		t.Errorf("WaitFor(n0) after its event was evicted = %v after %v; want the eviction named at once", err, time.Since(start))
	}
	if e, err := b.WaitFor(ctx, Filter{Node: "n5"}); err != nil || e.Seq != 6 {
		t.Errorf("WaitFor(n5) = #%d, %v; want #6 from the ring", e.Seq, err)
	}
	since := b.Seq()
	go b.Publish(Event{Node: "n0", Type: EventUp})
	if e, err := b.WaitFor(ctx, Filter{Node: "n0", SinceSeq: since}); err != nil || e.Seq != since+1 {
		t.Errorf("WaitFor(n0) from #%d = #%d, %v; want the next event", since, e.Seq, err)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 7, Node: "compute-0-2", Phase: PhaseRemediate, Type: EventPowerCycle,
		Source: "supervisor", Attempt: 2, Detail: "dark 310ms"}
	s := e.String()
	for _, want := range []string{"#7", "compute-0-2", "remediate/power-cycle", "attempt=2", "dark 310ms"} {
		if !contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestLastEventsKeepsNewestPerIdentity(t *testing.T) {
	b := NewBus(4)
	b.Publish(Event{Node: "evicted", Type: EventUp})
	b.Publish(Event{Node: "aa:bb", MAC: "aa:bb", Type: EventDiscovered})
	b.Publish(Event{Node: "compute-0-0", MAC: "aa:bb", Type: EventBound})
	b.Publish(Event{Node: "compute-0-0", Type: EventDark}) // hostname only
	b.Publish(Event{Node: "compute-0-1", MAC: "cc:dd", Type: EventUp})
	last := b.LastEvents()
	want := map[string]uint64{"aa:bb": 3, "compute-0-0": 4, "compute-0-1": 5, "cc:dd": 5}
	if len(last) != len(want) {
		t.Fatalf("LastEvents indexed %d identities, want %d: %v", len(last), len(want), last)
	}
	for id, seq := range want {
		if last[id].Seq != seq {
			t.Errorf("LastEvents[%q] is event #%d, want #%d", id, last[id].Seq, seq)
		}
	}
}
