package core

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/faults"
	"rocks/internal/hardware"
	"rocks/internal/lifecycle"
	"rocks/internal/node"
	"rocks/internal/rpm"
)

// newRelayCluster builds a cluster with the peer distribution tier on.
func newRelayCluster(t *testing.T, inj *faults.Injector) *Cluster {
	t.Helper()
	c, err := New(Config{
		Name:                "relay",
		DHCPRetry:           2 * time.Millisecond,
		DisableEKV:          true,
		EnableRelays:        true,
		Faults:              inj,
		InstallRetries:      2,
		InstallRetryBackoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// waitRelayEvent blocks until an event of the given type exists for the node
// (by hostname or MAC) past the given sequence.
func waitRelayEvent(t *testing.T, c *Cluster, typ lifecycle.EventType, nodeID string, since uint64) lifecycle.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e, err := c.Events().WaitFor(ctx, lifecycle.Filter{Type: typ, Node: nodeID, SinceSeq: since})
	if err != nil {
		t.Fatalf("waiting for %s of %s: %v", typ, nodeID, err)
	}
	return e
}

// TestRelayDistribution drives the tentpole end to end on live services:
// the first integrated node becomes a relay after install-complete, later
// installers fetch packages from it (peer bytes dominate the frontend for
// those installs), /v1/relays lists it, the relay metrics advance, and a
// reinstall withdraws the relay before the node's tree is wiped.
func TestRelayDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node live integration")
	}
	c := newRelayCluster(t, nil)

	// First node: installs frontend-only (no relays live yet), then is
	// promoted to a relay.
	first := addComputes(t, c, 1)[0]
	up := waitRelayEvent(t, c, lifecycle.EventRelayUp, first.Name(), 0)
	if !strings.Contains(up.Detail, "serving") {
		t.Errorf("relay-up detail = %q", up.Detail)
	}
	if got := c.installStats.PeerFetches.Load(); got != 0 {
		t.Errorf("first install used %d peer fetches, want 0", got)
	}

	// Later nodes should pull their packages from the peer.
	addComputes(t, c, 3)
	peerFetches := c.installStats.PeerFetches.Load()
	peerBytes := c.installStats.PeerBytes.Load()
	if peerFetches == 0 || peerBytes == 0 {
		t.Fatalf("later installs fetched nothing from peers (fetches=%d bytes=%d)",
			peerFetches, peerBytes)
	}
	reqs, bytes := c.relays.serveTotals()
	if reqs == 0 || bytes == 0 {
		t.Errorf("relay serve totals = %d reqs %d bytes, want > 0", reqs, bytes)
	}

	// /v1/relays lists live peers.
	code, body, _ := v1Call(t, c, http.MethodGet, "/v1/relays", nil)
	if code != 200 {
		t.Fatalf("/v1/relays = %d: %s", code, body)
	}
	var rr RelaysResponse
	dataOf(t, body, &rr)
	if rr.Live == 0 || len(rr.Sources) == 0 {
		t.Fatalf("registry empty after 4 installs: %+v", rr)
	}
	for _, s := range rr.Sources {
		if s.Kind != "peer" || s.URL == "" || s.Node == "" {
			t.Errorf("malformed source %+v", s)
		}
	}

	// The relay tier is visible on /metrics.
	s := scrapeMetrics(t, c)
	if v, _ := s.Value("rocks_dist_relays"); v == 0 {
		t.Error("rocks_dist_relays = 0")
	}
	if v, _ := s.Value("rocks_dist_relay_package_bytes_total"); v == 0 {
		t.Error("rocks_dist_relay_package_bytes_total = 0")
	}
	if v, _ := s.Value(`rocks_installer_fetch_bytes_total{source="peer"}`); v == 0 {
		t.Error(`rocks_installer_fetch_bytes_total{source="peer"} = 0`)
	}
	for _, fam := range []string{
		"rocks_installer_fetch_seconds", "rocks_installer_install_seconds",
	} {
		if s.Types[fam] != "histogram" {
			t.Errorf("%s exposed as %q, want histogram", fam, s.Types[fam])
		}
	}

	// Reinstalling the relay node withdraws it: the lease event fires before
	// the package phase, so peers are never pointed at a tree being wiped.
	since := c.Events().Seq()
	if err := c.ShootNode(first.Name()); err != nil {
		t.Fatal(err)
	}
	down := waitRelayEvent(t, c, lifecycle.EventRelayDown, first.Name(), since)
	if down.Detail != "reinstalling" {
		t.Errorf("relay-down detail = %q", down.Detail)
	}
	if !WaitState(first, node.StateUp, integrationTimeout) {
		t.Fatalf("reinstalled relay node stuck in %s", first.State())
	}
	// And it comes back as a relay after the reinstall completes.
	waitRelayEvent(t, c, lifecycle.EventRelayUp, first.Name(), since)
}

// TestRelayCorruptPeerDemoted proves the trustless-peer contract: a peer
// whose responses arrive corrupt is demoted mid-install (auditable in the
// event log, attributed to the peer's URL), the fetch falls back to the
// frontend, the install still converges, and every injected corruption is
// accounted for by a detected discard — zero verification escapes.
func TestRelayCorruptPeerDemoted(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node live chaos integration")
	}
	inj := faults.NewInjector(7)
	c := newRelayCluster(t, inj)

	relayNode := addComputes(t, c, 1)[0]
	waitRelayEvent(t, c, lifecycle.EventRelayUp, relayNode.Name(), 0)

	// Start the victim and corrupt its package stream — which goes to the
	// peer, the preferred source — but not its manifest, the request before
	// it on the same seam. Between the two the installer asks the relay
	// registry for sources: a latency fault holds it there (on a seam of its
	// own, so the package ledger below counts corruptions only) while the
	// corruption is armed for the next package request.
	victim := node.New(hardware.PIIICompute(c.MACs(), 733))
	inj.AddRule(faults.Rule{
		Op: faults.OpHTTPRelays, Hosts: victim.MAC(), Count: 1, Mode: faults.ModeLatency, Latency: 500 * time.Millisecond,
	})
	ie, err := c.StartInsertEthers(clusterdb.MembershipCompute, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ie.Stop()
	c.PowerOn(victim)
	deadline := time.Now().Add(integrationTimeout)
	for inj.CountOp(faults.OpHTTPRelays) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("victim never asked the relay registry for sources (state %s)", victim.State())
		}
		time.Sleep(time.Millisecond)
	}
	inj.AddRule(faults.Rule{
		Op: faults.OpHTTPPackage, Hosts: victim.MAC(), Count: 1, Mode: faults.ModeCorrupt,
	})
	if !WaitState(victim, node.StateUp, integrationTimeout) {
		t.Fatalf("victim stuck in %s after peer demotion", victim.State())
	}

	if got := c.installStats.PeerDemotions.Load(); got != 1 {
		t.Errorf("peer demotions = %d, want 1", got)
	}
	// Every injected corruption was detected and discarded — the
	// injector's ledger and the installer's corrupt counter reconcile.
	injected := uint64(inj.CountOp(faults.OpHTTPPackage))
	if caught := c.installStats.PackagesCorrupt.Load(); caught != injected {
		t.Errorf("injected %d corruptions, caught %d", injected, caught)
	}
	// The demotion is auditable: the event names the peer's URL.
	demoted := c.Events().Recent(lifecycle.Filter{Type: lifecycle.EventRelayDemoted})
	if len(demoted) != 1 {
		t.Fatalf("relay-demoted events = %d, want 1", len(demoted))
	}
	if !strings.Contains(demoted[0].Detail, "peer http://") {
		t.Errorf("demotion not attributed to peer URL: %q", demoted[0].Detail)
	}
	// The package-corrupt event also names the serving source.
	corrupt := c.Events().Recent(lifecycle.Filter{Type: lifecycle.EventPackageCorrupt})
	if len(corrupt) == 0 || !strings.Contains(corrupt[0].Detail, "source: peer") {
		t.Errorf("package-corrupt events lack source attribution: %+v", corrupt)
	}
}

// TestRelayRackAwareSources: an installer that identifies itself (its MAC
// resolves to a rack via the nodes table) is offered same-rack relays
// first, and the same/cross-rack counters account for every source handed
// out. A rack-blind request leaves the counters alone.
func TestRelayRackAwareSources(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node live integration")
	}
	c := newRelayCluster(t, nil)
	integrate := func(rack, n int) []*node.Node {
		t.Helper()
		profiles := make([]hardware.Profile, n)
		for i := range profiles {
			profiles[i] = hardware.PIIICompute(c.MACs(), 733)
		}
		nodes, err := c.IntegrateNodes(profiles, clusterdb.MembershipCompute, rack, integrationTimeout)
		if err != nil {
			t.Fatal(err)
		}
		return nodes
	}
	rack0 := integrate(0, 2)
	rack1 := integrate(1, 2)
	for _, n := range append(append([]*node.Node{}, rack0...), rack1...) {
		waitRelayEvent(t, c, lifecycle.EventRelayUp, n.Name(), 0)
	}
	inRack0 := map[string]bool{rack0[0].Name(): true, rack0[1].Name(): true}

	sameBefore := c.relays.sameRack.Load()
	crossBefore := c.relays.crossRack.Load()

	// Rack-blind: no counters move, plain rotation.
	code, body, _ := v1Call(t, c, http.MethodGet, "/v1/relays", nil)
	if code != 200 {
		t.Fatalf("/v1/relays = %d", code)
	}
	if c.relays.sameRack.Load() != sameBefore || c.relays.crossRack.Load() != crossBefore {
		t.Error("rack-blind request moved the rack counters")
	}

	// Asking as a rack-0 machine puts both rack-0 relays ahead of rack-1.
	code, body, _ = v1Call(t, c, http.MethodGet, "/v1/relays",
		url.Values{"mac": {rack0[0].MAC()}})
	if code != 200 {
		t.Fatalf("/v1/relays?mac= = %d: %s", code, body)
	}
	var rr RelaysResponse
	dataOf(t, body, &rr)
	if len(rr.Sources) != 4 {
		t.Fatalf("sources = %d, want 4", len(rr.Sources))
	}
	for i, s := range rr.Sources {
		if want := i < 2; inRack0[s.Node] != want {
			t.Errorf("source[%d] = %s; same-rack relays must lead the list", i, s.Node)
		}
	}
	if got := c.relays.sameRack.Load() - sameBefore; got != 2 {
		t.Errorf("same-rack counter moved %d, want 2", got)
	}
	if got := c.relays.crossRack.Load() - crossBefore; got != 2 {
		t.Errorf("cross-rack counter moved %d, want 2", got)
	}

	// An explicit rack parameter works without a MAC, and the preference
	// is visible on /metrics.
	code, body, _ = v1Call(t, c, http.MethodGet, "/v1/relays", url.Values{"rack": {"1"}})
	if code != 200 {
		t.Fatalf("/v1/relays?rack=1 = %d", code)
	}
	dataOf(t, body, &rr)
	if len(rr.Sources) == 0 || inRack0[rr.Sources[0].Node] {
		t.Errorf("rack=1 request led with %+v, want a rack-1 relay", rr.Sources)
	}
	s := scrapeMetrics(t, c)
	if v, _ := s.Value("rocks_dist_relay_same_rack_total"); v == 0 {
		t.Error("rocks_dist_relay_same_rack_total never moved")
	}
	if v, _ := s.Value("rocks_dist_relay_cross_rack_total"); v == 0 {
		t.Error("rocks_dist_relay_cross_rack_total never moved")
	}
}

// TestRelayRegistryChurn hammers the registry's expect→promote→withdraw
// cycle from concurrent goroutines (run under -race in CI) and asserts the
// invariant installers depend on: a withdrawn relay is never handed out.
func TestRelayRegistryChurn(t *testing.T) {
	c := newRelayCluster(t, nil)
	reg := c.relays
	pkg := c.Dist.Repo.All()[0]

	const workers, cycles = 3, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mac := fmt.Sprintf("02:ee:00:00:00:%02x", w)
			name := fmt.Sprintf("churn-%d-0", w)
			for i := 0; i < cycles; i++ {
				store := rpm.NewRepository("churn")
				store.Add(pkg)
				reg.expect(mac, store)
				reg.promote(mac, name)
				reg.withdraw(mac, "reinstalling")
				// The instant withdraw returns, this relay must be out of
				// rotation — an installer asking now may not receive it.
				for _, s := range reg.sources(-1) {
					if s.Node == name {
						t.Errorf("withdrawn relay %s handed out", name)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := reg.liveCount(); got != 0 {
		t.Errorf("live relays after full churn = %d, want 0", got)
	}
	if srcs := reg.sources(-1); srcs != nil {
		t.Errorf("empty registry handed out %+v", srcs)
	}
	if s, wd := reg.started.Load(), reg.withdrawn.Load(); s != workers*cycles || wd != workers*cycles {
		t.Errorf("started=%d withdrawn=%d, want %d each", s, wd, workers*cycles)
	}
}
