package monitor

import (
	"strings"
	"sync"
	"testing"
	"time"

	"rocks/internal/lifecycle"
)

// fakeNet is a controllable pinger.
type fakeNet struct {
	mu    sync.Mutex
	alive map[string]string // host → detail; absent = unreachable
}

func (f *fakeNet) set(host, detail string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.alive == nil {
		f.alive = map[string]string{}
	}
	if detail == "" {
		delete(f.alive, host)
	} else {
		f.alive[host] = detail
	}
}

func (f *fakeNet) Ping(host string) (bool, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.alive[host]
	if !ok {
		return false, "no response"
	}
	return true, d
}

// testClock is a manually advanced clock.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newTestMonitor(patience time.Duration) (*Monitor, *fakeNet, *testClock) {
	net := &fakeNet{}
	clock := &testClock{t: time.Unix(1000, 0)}
	m := New(net, patience)
	m.SetClock(clock.now)
	return m, net, clock
}

func TestHealthyHostStaysUp(t *testing.T) {
	m, net, clock := newTestMonitor(30 * time.Second)
	net.set("compute-0-0", "up")
	m.Watch("compute-0-0")
	m.Probe()
	clock.advance(10 * time.Second)
	m.Probe()
	st := m.Status()
	if len(st) != 1 || st[0].Health != HealthUp || st[0].Detail != "up" {
		t.Errorf("status = %+v", st)
	}
	if len(m.Dark()) != 0 {
		t.Errorf("dark = %v", m.Dark())
	}
}

func TestDarkDetectionAndRecovery(t *testing.T) {
	m, net, clock := newTestMonitor(30 * time.Second)
	net.set("compute-0-0", "up")
	m.Watch("compute-0-0")
	m.Probe()

	// The node wedges: unreachable past the patience window.
	net.set("compute-0-0", "")
	clock.advance(31 * time.Second)
	m.Probe()
	st := m.Status()[0]
	if st.Health != HealthDark || st.DarkFor < 31*time.Second {
		t.Fatalf("status = %+v", st)
	}
	if got := m.Dark(); len(got) != 1 || got[0] != "compute-0-0" {
		t.Errorf("Dark = %v", got)
	}
	// The administrator power-cycles it; it reinstalls and answers again.
	net.set("compute-0-0", "installing")
	m.Probe()
	if st := m.Status()[0]; st.Health != HealthUp || st.Detail != "installing" {
		t.Errorf("recovered status = %+v", st)
	}
}

func TestNeverSeenHostGoesDarkAfterPatience(t *testing.T) {
	m, _, clock := newTestMonitor(30 * time.Second)
	m.Watch("compute-0-9") // never answers
	m.Probe()
	if m.Status()[0].Health != HealthUp {
		t.Error("brand-new host should get the patience window")
	}
	clock.advance(31 * time.Second)
	m.Probe()
	if m.Status()[0].Health != HealthDark {
		t.Error("never-seen host should go dark after patience")
	}
}

func TestWatchUnwatch(t *testing.T) {
	m, net, _ := newTestMonitor(time.Minute)
	net.set("a", "up")
	m.Watch("a", "b")
	m.Watch("a") // idempotent
	if len(m.Status()) != 2 {
		t.Fatalf("status = %v", m.Status())
	}
	m.Unwatch("b")
	if len(m.Status()) != 1 {
		t.Errorf("status after unwatch = %v", m.Status())
	}
}

func TestReportFormat(t *testing.T) {
	m, net, clock := newTestMonitor(10 * time.Second)
	net.set("frontend-0", "up")
	m.Watch("frontend-0", "compute-0-0")
	m.Probe()
	clock.advance(time.Minute)
	m.Probe()
	r := m.Report()
	if !strings.Contains(r, "HOST") || !strings.Contains(r, "dark") || !strings.Contains(r, "frontend-0") {
		t.Errorf("report = %q", r)
	}
}

// TestFlappingHost: a host that bounces — answering, vanishing, answering
// again — must only be reported dark when an outage outlasts the patience
// window, and each recovery must reset the dark clock completely.
func TestFlappingHost(t *testing.T) {
	m, net, clock := newTestMonitor(30 * time.Second)
	m.Watch("compute-0-5")

	// Fast flapping: outages shorter than patience never show as dark.
	for i := 0; i < 5; i++ {
		net.set("compute-0-5", "up")
		m.Probe()
		clock.advance(10 * time.Second)
		net.set("compute-0-5", "")
		m.Probe()
		clock.advance(10 * time.Second)
		if st := m.Status()[0]; st.Health != HealthUp {
			t.Fatalf("flap %d: %+v; short outages must stay within patience", i, st)
		}
	}

	// A real outage: dark, with DarkFor measured from the last answer.
	net.set("compute-0-5", "")
	clock.advance(40 * time.Second)
	m.Probe()
	st := m.Status()[0]
	if st.Health != HealthDark || st.DarkFor < 40*time.Second {
		t.Fatalf("real outage: %+v", st)
	}

	// Recovery resets the clock: the next short outage is tolerated anew.
	net.set("compute-0-5", "up")
	m.Probe()
	if st := m.Status()[0]; st.Health != HealthUp || st.DarkFor != 0 {
		t.Fatalf("after recovery: %+v", st)
	}
	net.set("compute-0-5", "")
	clock.advance(20 * time.Second)
	m.Probe()
	if st := m.Status()[0]; st.Health != HealthUp {
		t.Errorf("dark clock did not reset after recovery: %+v", st)
	}
}

// TestConcurrentProbeStatusWatch hammers Probe, Status, Dark, Report, and
// Watch/Unwatch from concurrent goroutines. It asserts nothing beyond
// termination — its value is running under -race (the supervisor probes
// the same monitor the admin endpoints read).
func TestConcurrentProbeStatusWatch(t *testing.T) {
	m, net, clock := newTestMonitor(30 * time.Second)
	for _, h := range []string{"a", "b", "c", "d"} {
		net.set(h, "up")
		m.Watch(h)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	worker := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	worker(func() { m.Probe() })
	worker(func() { m.Status() })
	worker(func() { m.Dark() })
	worker(func() { m.Report() })
	worker(func() { net.set("b", "installing"); net.set("b", "") })
	worker(func() { clock.advance(time.Millisecond) })
	worker(func() {
		m.Watch("transient")
		m.Unwatch("transient")
	})
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	// The permanent hosts must all still be tracked afterwards.
	if st := m.Status(); len(st) < 4 {
		t.Errorf("hosts lost during concurrency: %+v", st)
	}
}

// TestTransitionEvents: the monitor publishes exactly one dark event when a
// host crosses the patience threshold and exactly one up event when it
// answers again — steady state and initial healthy classification are
// silent (the cluster's own up event owns that edge).
func TestTransitionEvents(t *testing.T) {
	m, net, clock := newTestMonitor(30 * time.Second)
	bus := lifecycle.NewBus(64)
	m.PublishTo(bus)
	net.set("compute-0-0", "up")
	m.Watch("compute-0-0")
	m.Probe()
	m.Probe() // steady state: still nothing
	if got := bus.Recent(lifecycle.Filter{}); len(got) != 0 {
		t.Fatalf("healthy host published %v", got)
	}

	net.set("compute-0-0", "")
	clock.advance(31 * time.Second)
	m.Probe()
	m.Probe() // still dark: no duplicate
	dark := bus.Recent(lifecycle.Filter{Type: lifecycle.EventDark})
	if len(dark) != 1 || dark[0].Node != "compute-0-0" || dark[0].Source != "monitor" {
		t.Fatalf("dark events = %v", dark)
	}

	net.set("compute-0-0", "up")
	m.Probe()
	m.Probe()
	up := bus.Recent(lifecycle.Filter{Type: lifecycle.EventUp})
	if len(up) != 1 || up[0].Node != "compute-0-0" || up[0].Phase != lifecycle.PhaseRun {
		t.Fatalf("up events = %v", up)
	}
}

// TestUnwatchForgetsPublishedState: re-watching a host after Unwatch starts
// a fresh patience window and a fresh transition history.
func TestUnwatchForgetsPublishedState(t *testing.T) {
	m, _, clock := newTestMonitor(30 * time.Second)
	bus := lifecycle.NewBus(64)
	m.PublishTo(bus)
	m.Watch("aa:bb") // watched by MAC pre-discovery, never answers
	clock.advance(31 * time.Second)
	m.Probe()
	if got := bus.Recent(lifecycle.Filter{Type: lifecycle.EventDark}); len(got) != 1 {
		t.Fatalf("dark events = %v", got)
	}
	// insert-ethers binds the name; the supervisor rebinds the watch.
	m.Unwatch("aa:bb")
	m.Watch("compute-0-0")
	m.Probe()
	// New identity gets its own patience window: no immediate dark event.
	if got := bus.Recent(lifecycle.Filter{Node: "compute-0-0"}); len(got) != 0 {
		t.Fatalf("rebound host published before its patience expired: %v", got)
	}
}
