package core

import (
	"context"
	"net/http"
	"net/url"
	"runtime"
	"testing"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/hardware"
	"rocks/internal/lifecycle"
	"rocks/internal/node"
)

// TestNodeLifecycleTimeline drives one node through its whole life —
// discovery, install, service, darkness, supervised power cycle, recovery —
// and asserts that /v1/events?node= replays it as a single ordered
// timeline fed by every producer layer.
func TestNodeLifecycleTimeline(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 1)
	n := nodes[0]

	s := c.StartSupervisor(tightSupervisor(11))
	defer s.Stop()

	// Kill the machine: the monitor reports it dark, the supervisor cycles
	// its outlet, and the forced reinstall brings it back.
	n.PowerOff()
	ctx, cancelWait := context.WithTimeout(context.Background(), integrationTimeout)
	defer cancelWait()
	if _, err := c.Events().WaitFor(ctx, lifecycle.Filter{
		Node: "compute-0-0", Type: lifecycle.EventRecovered,
	}); err != nil {
		t.Fatalf("node never recovered: %v\nevents:\n%s", err, s.EventLog())
	}

	code, body, _ := v1Call(t, c, http.MethodGet, "/v1/events", url.Values{"node": {"compute-0-0"}})
	if code != 200 {
		t.Fatalf("/v1/events: %d %q", code, body)
	}
	var resp struct {
		Events  []lifecycle.Event `json:"events"`
		Seq     uint64            `json:"seq"`
		Dropped uint64            `json:"dropped"`
	}
	dataOf(t, body, &resp)

	// The timeline must contain the canonical subsequence, in order. Other
	// events — the reinstall's second lease/kickstart/…/up — interleave
	// after the power cycle; the scan skips over them.
	want := []lifecycle.EventType{
		lifecycle.EventDiscovered,
		lifecycle.EventBound,
		lifecycle.EventLease,
		lifecycle.EventKickstart,
		lifecycle.EventPartition,
		lifecycle.EventPackages,
		lifecycle.EventPost,
		lifecycle.EventInstallComplete,
		lifecycle.EventUp,
		lifecycle.EventDark,
		lifecycle.EventPowerCycle,
		lifecycle.EventRecovered,
	}
	i := 0
	for _, e := range resp.Events {
		if i < len(want) && e.Type == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("timeline missing %q (matched %d/%d):\n%s", want[i], i, len(want), body)
	}

	// One bus, every producer: discovery, install, steady state, and
	// remediation all speak on it.
	seen := map[string]bool{}
	for _, e := range resp.Events {
		seen[e.Source] = true
	}
	for _, src := range []string{"insert-ethers", "installer", "cluster", "monitor", "supervisor", "pdu"} {
		if !seen[src] {
			t.Errorf("no %s-sourced event in the timeline:\n%s", src, body)
		}
	}

	// The merged timeline (pre-name events under the MAC, the rest under
	// the hostname) is strictly Seq-ordered.
	for i := 1; i < len(resp.Events); i++ {
		if resp.Events[i].Seq <= resp.Events[i-1].Seq {
			t.Errorf("timeline out of order at %d: %+v", i, resp.Events[i])
		}
	}
	if resp.Seq == 0 {
		t.Error("response missing the bus's high-water sequence")
	}
}

// TestAdminEventsFilters: the endpoint's type/source/limit parameters narrow
// the ring without a node timeline merge.
func TestAdminEventsFilters(t *testing.T) {
	c := newCluster(t)
	addComputes(t, c, 2)

	code, body, _ := v1Call(t, c, http.MethodGet, "/v1/events",
		url.Values{"type": {"bound"}, "source": {"insert-ethers"}})
	if code != 200 {
		t.Fatalf("/v1/events: %d %q", code, body)
	}
	var resp struct {
		Events []lifecycle.Event `json:"events"`
	}
	dataOf(t, body, &resp)
	if len(resp.Events) != 2 {
		t.Fatalf("bound events = %d, want 2:\n%s", len(resp.Events), body)
	}
	for _, e := range resp.Events {
		if e.Type != lifecycle.EventBound || e.Source != "insert-ethers" {
			t.Errorf("filter leak: %+v", e)
		}
	}

	// limit keeps the most recent matches.
	_, body, _ = v1Call(t, c, http.MethodGet, "/v1/events", url.Values{"type": {"bound"}, "limit": {"1"}})
	resp.Events = nil
	dataOf(t, body, &resp)
	if len(resp.Events) != 1 || resp.Events[0].Node != "compute-0-1" {
		t.Errorf("limit=1 = %+v, want the most recent bound (compute-0-1)", resp.Events)
	}
}

// TestCloseReapsAllGoroutines: Close cancels the cluster's root context,
// which must reap a running supervisor nobody stopped and an installer
// parked in its DHCP discover loop. A monitor has no goroutine of its own to
// leak. With relays on, the private network's serve loops and connections,
// to the frontend and to a relay, must end too. CI runs this under -race.
func TestCloseReapsAllGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	c, err := New(Config{
		Name:         "leak",
		DHCPRetry:    2 * time.Millisecond,
		DHCPTimeout:  time.Hour, // only cancellation can end the stray's loop
		EnableRelays: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One node at a time, so the second installs from the first's relay.
	for range 2 {
		profiles := []hardware.Profile{hardware.PIIICompute(c.MACs(), 733)}
		if _, err := c.IntegrateNodes(profiles, clusterdb.MembershipCompute, 0, integrationTimeout); err != nil {
			c.Close()
			t.Fatal(err)
		}
	}
	if c.installStats.PeerFetches.Load() == 0 {
		c.Close()
		t.Fatal("the second install fetched nothing from the first node's relay")
	}

	// The leak sources Close must reap on its own: a supervisor's loop, and
	// a powered-on machine no insert-ethers session will ever admit — its
	// installer retries DHCP discovery until the root context aborts it. A
	// monitor nobody drives holds no goroutine, so it has nothing to leak.
	c.NewMonitor(20 * time.Millisecond)
	c.StartSupervisor(tightSupervisor(13))
	stray := node.New(hardware.PIIICompute(c.MACs(), 733))
	c.PowerOn(stray)

	start := time.Now()
	done := make(chan struct{})
	go func() { c.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(integrationTimeout):
		t.Fatal("Close never returned: a goroutine is not honoring the root context")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("Close took %v; cancellation should be prompt", d)
	}
	if stray.State() == node.StateUp {
		t.Error("stray node came up without a DHCP binding")
	}

	// The count settles back to the pre-cluster baseline. Close has closed
	// every connection the installs made, pooled ones included; their
	// goroutines need only time to see it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before the cluster, %d after Close\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
