package core

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"testing"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/federation"
	"rocks/internal/hardware"
	"rocks/internal/lifecycle"
)

// newFedCluster builds a standalone (parent-capable) frontend with fan-out
// timeouts widened for loaded CI machines.
func newFedCluster(t *testing.T, name string) *Cluster {
	t.Helper()
	c, err := New(Config{
		Name:              name,
		DHCPRetry:         2 * time.Millisecond,
		FederationTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// newChildCluster builds a full child frontend that mirrors the parent's
// distribution and registers its shard upstream during construction.
func newChildCluster(t *testing.T, parent *Cluster, spec string) *Cluster {
	t.Helper()
	shard, err := federation.ParseShard(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Name:              shard.Name,
		Parent:            parent.BaseURL(),
		Shard:             shard,
		DHCPRetry:         2 * time.Millisecond,
		FederationTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// stripShards clears the provenance stamp a merging parent adds, for the
// byte-identity comparison against the child's own unstamped timeline.
func stripShards(events []lifecycle.Event) []lifecycle.Event {
	out := append([]lifecycle.Event(nil), events...)
	for i := range out {
		out[i].Shard = ""
	}
	return out
}

// TestFederationTimelineByteIdentical is the tentpole acceptance test: a
// node lives its whole life — discover, install, up, dark, power-cycle,
// recover — on a child frontend, and the parent's merged /v1/events view of
// that node is byte-identical to the child's own timeline modulo the shard
// provenance stamp.
func TestFederationTimelineByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-frontend live integration")
	}
	parent := newFedCluster(t, "HQ")
	child := newChildCluster(t, parent, "deptA:0-3")

	n := addComputes(t, child, 1)[0]
	s := child.StartSupervisor(tightSupervisor(11))
	defer s.Stop()
	since := child.Events().Seq()
	n.PowerOff()
	ctx, cancel := context.WithTimeout(context.Background(), integrationTimeout)
	defer cancel()
	if _, err := child.Events().WaitFor(ctx, lifecycle.Filter{
		Node: "compute-0-0", Type: lifecycle.EventRecovered, SinceSeq: since,
	}); err != nil {
		t.Fatalf("node never recovered: %v", err)
	}
	// Quiesce the child before reading: no publisher may race the two reads.
	s.Stop()

	params := url.Values{"node": {"compute-0-0"}}
	code, childBody, _ := v1Call(t, child, http.MethodGet, "/v1/events", params)
	if code != 200 {
		t.Fatalf("child /v1/events = %d: %s", code, childBody)
	}
	var childResp EventsResponse
	dataOf(t, childBody, &childResp)
	if len(childResp.Events) == 0 {
		t.Fatal("child timeline empty")
	}

	code, parentBody, _ := v1Call(t, parent, http.MethodGet, "/v1/events", params)
	if code != 200 {
		t.Fatalf("parent /v1/events = %d: %s", code, parentBody)
	}
	var parentResp EventsResponse
	dataOf(t, parentBody, &parentResp)

	// The merged view is attributed and whole.
	if parentResp.Partial {
		t.Error("parent flagged partial with a live child")
	}
	if parentResp.Shard != "HQ" || len(parentResp.Shards) != 1 || !parentResp.Shards[0].OK {
		t.Fatalf("provenance wrong: shard=%q shards=%+v", parentResp.Shard, parentResp.Shards)
	}
	for i, e := range parentResp.Events {
		if e.Shard != "deptA" {
			t.Fatalf("event %d missing shard stamp: %+v", i, e)
		}
	}
	// The full arc is present, in order.
	want := []lifecycle.EventType{
		lifecycle.EventDiscovered, lifecycle.EventInstallComplete, lifecycle.EventUp,
		lifecycle.EventDark, lifecycle.EventRecovered,
	}
	i := 0
	for _, e := range parentResp.Events {
		if i < len(want) && e.Type == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("merged timeline missing arc after %v: %d/%d matched", want, i, len(want))
	}
	// Byte identity modulo provenance.
	childJSON, err := json.Marshal(childResp.Events)
	if err != nil {
		t.Fatal(err)
	}
	parentJSON, err := json.Marshal(stripShards(parentResp.Events))
	if err != nil {
		t.Fatal(err)
	}
	if string(childJSON) != string(parentJSON) {
		t.Errorf("parent timeline diverges from child's:\nchild:  %s\nparent: %s", childJSON, parentJSON)
	}
}

// TestFederationDarkChildPartial: a dark child degrades merged queries to
// honestly-flagged partial results — nodes drop out, events fall back to
// the forwarded mirror marked stale — never to a 500.
func TestFederationDarkChildPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-frontend live integration")
	}
	parent := newFedCluster(t, "HQ")
	a := newChildCluster(t, parent, "deptA:0-3")
	b := newChildCluster(t, parent, "deptB:4-7")

	// One machine lives in deptB's racks.
	profiles := []hardware.Profile{hardware.PIIICompute(b.MACs(), 733)}
	if _, err := b.IntegrateNodes(profiles, clusterdb.MembershipCompute, 4, integrationTimeout); err != nil {
		t.Fatal(err)
	}
	// Make sure the whole history reached the parent's mirror, then kill B.
	b.fed.getForwarder().Flush()
	b.Close()

	code, body, _ := v1Call(t, parent, http.MethodGet, "/v1/nodes", nil)
	if code != 200 {
		t.Fatalf("merged /v1/nodes with a dark child = %d: %s", code, body)
	}
	var nodes NodesResponse
	dataOf(t, body, &nodes)
	if !nodes.Partial {
		t.Error("nodes result not flagged partial")
	}
	statuses := map[string]federation.ShardStatus{}
	for _, st := range nodes.Shards {
		statuses[st.Shard] = st
	}
	if st := statuses["deptB"]; st.OK || st.Error == "" {
		t.Errorf("deptB status not marked failed: %+v", st)
	}
	if st := statuses["deptA"]; !st.OK {
		t.Errorf("live child deptA marked failed: %+v", st)
	}
	for _, row := range nodes.Nodes {
		if row.Name == "compute-4-0" {
			t.Errorf("dark child's node served as live data: %+v", row)
		}
	}

	// Events fall back to the forwarded mirror, flagged stale.
	code, body, _ = v1Call(t, parent, http.MethodGet, "/v1/events", url.Values{"node": {"compute-4-0"}})
	if code != 200 {
		t.Fatalf("merged /v1/events with a dark child = %d: %s", code, body)
	}
	var events EventsResponse
	dataOf(t, body, &events)
	if !events.Partial {
		t.Error("events result not flagged partial")
	}
	var darkSt *federation.ShardStatus
	for i := range events.Shards {
		if events.Shards[i].Shard == "deptB" {
			darkSt = &events.Shards[i]
		}
	}
	if darkSt == nil || darkSt.OK || !darkSt.Stale {
		t.Fatalf("deptB fallback not flagged stale: %+v", events.Shards)
	}
	if len(events.Events) == 0 {
		t.Fatal("mirror fallback served nothing for the dark child's node")
	}
	sawUp := false
	for _, e := range events.Events {
		if e.Shard != "deptB" {
			t.Fatalf("mirror event missing provenance: %+v", e)
		}
		if e.Type == lifecycle.EventUp || e.Type == lifecycle.EventInstallComplete {
			sawUp = true
		}
	}
	if !sawUp {
		t.Error("mirror fallback lost the node's install history")
	}
	// The dbreport concatenation names the outage instead of omitting it.
	code, body, _ = v1Call(t, parent, http.MethodGet, "/v1/dbreport", nil)
	if code != 200 {
		t.Fatalf("merged /v1/dbreport = %d", code)
	}
	var report DBReportResponse
	dataOf(t, body, &report)
	if !report.Partial {
		t.Error("dbreport not flagged partial")
	}
	// keep the unused var honest
	_ = a
}

// TestFederationRemirrorCascadeZeroBodies: an unchanged distribution
// re-mirrored across a three-level hierarchy moves zero package bodies at
// every level — asserted both from the per-level delta reports and from the
// serving side's own package-request counters.
func TestFederationRemirrorCascadeZeroBodies(t *testing.T) {
	if testing.Short() {
		t.Skip("three-frontend live integration")
	}
	top := newFedCluster(t, "top")
	mid := newChildCluster(t, top, "campus")
	leaf := newChildCluster(t, mid, "dept")

	topBefore := top.distSrv.Stats().PackageRequests
	midBefore := mid.distSrv.Stats().PackageRequests

	code, body, _ := v1Call(t, top, http.MethodPost, "/v1/federation/remirror", nil)
	if code != 200 {
		t.Fatalf("cascade remirror = %d: %s", code, body)
	}
	var res RemirrorResult
	dataOf(t, body, &res)
	if res.Partial {
		t.Fatalf("cascade flagged partial: %+v", res.Shards)
	}
	if res.Shard != "top" || res.Mirror != nil {
		t.Fatalf("root result wrong: shard=%q mirror=%+v", res.Shard, res.Mirror)
	}
	if len(res.Children) != 1 {
		t.Fatalf("top cascade reached %d children, want 1", len(res.Children))
	}
	midRes := res.Children[0]
	if midRes.Shard != "campus" || midRes.Mirror == nil {
		t.Fatalf("mid result wrong: %+v", midRes)
	}
	if midRes.Mirror.Fetched != 0 || midRes.Mirror.Listed == 0 || midRes.Mirror.Skipped != midRes.Mirror.Listed {
		t.Errorf("mid delta not clean: listed=%d skipped=%d fetched=%d",
			midRes.Mirror.Listed, midRes.Mirror.Skipped, midRes.Mirror.Fetched)
	}
	if len(midRes.Children) != 1 {
		t.Fatalf("mid cascade reached %d children, want 1", len(midRes.Children))
	}
	leafRes := midRes.Children[0]
	if leafRes.Shard != "dept" || leafRes.Mirror == nil || leafRes.Mirror.Fetched != 0 {
		t.Fatalf("leaf delta not clean: %+v", leafRes)
	}
	// Server-observed, not just client-claimed: neither serving tier handed
	// out a single package body during the cascade.
	if got := top.distSrv.Stats().PackageRequests - topBefore; got != 0 {
		t.Errorf("top served %d package bodies during an unchanged re-mirror", got)
	}
	if got := mid.distSrv.Stats().PackageRequests - midBefore; got != 0 {
		t.Errorf("mid served %d package bodies during an unchanged re-mirror", got)
	}
	_ = leaf
}

// TestFederationRebindDedupe is the regression test for the merged-query
// duplication bug: a child re-announcing under a second shard name (a
// reshard mid-flight) must not double any node's rows or timeline — merges
// dedupe on (MAC, seq).
func TestFederationRebindDedupe(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-frontend live integration")
	}
	parent := newFedCluster(t, "HQ")
	child := newChildCluster(t, parent, "deptA")
	addComputes(t, child, 1)

	// The same backend re-registers as a second shard.
	code, body, _ := v1Call(t, parent, http.MethodPost, "/v1/federation/register",
		url.Values{"shard": {"deptB"}, "url": {child.BaseURL()}})
	if code != 200 {
		t.Fatalf("re-register = %d: %s", code, body)
	}

	code, body, _ = v1Call(t, parent, http.MethodGet, "/v1/nodes", nil)
	if code != 200 {
		t.Fatalf("/v1/nodes = %d", code)
	}
	var nodes NodesResponse
	dataOf(t, body, &nodes)
	count := 0
	for _, row := range nodes.Nodes {
		if row.Name == "compute-0-0" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("compute-0-0 appears %d times in the merged listing, want 1", count)
	}
	if nodes.Deduped == 0 {
		t.Error("merged nodes reported zero dedupes for a doubly-registered child")
	}

	// The timeline survives the rebind byte-identical, not doubled.
	params := url.Values{"node": {"compute-0-0"}}
	_, childBody, _ := v1Call(t, child, http.MethodGet, "/v1/events", params)
	var childResp EventsResponse
	dataOf(t, childBody, &childResp)
	_, parentBody, _ := v1Call(t, parent, http.MethodGet, "/v1/events", params)
	var parentResp EventsResponse
	dataOf(t, parentBody, &parentResp)
	if parentResp.Deduped == 0 {
		t.Error("merged events reported zero dedupes for a doubly-registered child")
	}
	childJSON, _ := json.Marshal(childResp.Events)
	parentJSON, _ := json.Marshal(stripShards(parentResp.Events))
	if string(childJSON) != string(parentJSON) {
		t.Errorf("rebound timeline diverged:\nchild:  %s\nparent: %s", childJSON, parentJSON)
	}
	// Keep-first: the duplicate kept the first-sorted shard's stamp.
	for _, e := range parentResp.Events {
		if e.Shard != "deptA" {
			t.Fatalf("duplicate won over keep-first: %+v", e)
		}
	}
}

// TestFederationScrapeAggregation: the parent's /metrics carries its own
// families verbatim plus every child's, shard-labeled, and the merged text
// still satisfies the strict parser (scrapeMetrics parses it).
func TestFederationScrapeAggregation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-frontend live integration")
	}
	parent := newFedCluster(t, "HQ")
	a := newChildCluster(t, parent, "deptA")
	newChildCluster(t, parent, "deptB")
	// The forwarder subscribes after bootstrap, so give it traffic to
	// stream before asserting on the ingest counters.
	a.Events().Publish(lifecycle.Event{
		Node: "frontend-0", Phase: lifecycle.PhaseRun, Type: lifecycle.EventUp,
		Source: "test", Detail: "scrape probe",
	})
	a.fed.getForwarder().Flush()

	s := scrapeMetrics(t, parent)
	if v, _ := s.Value("rocks_federation_children"); v != 2 {
		t.Errorf("rocks_federation_children = %v, want 2", v)
	}
	if v, _ := s.Value("rocks_federation_registrations_total"); v < 2 {
		t.Errorf("registrations_total = %v, want >= 2", v)
	}
	if v, _ := s.Value("rocks_federation_events_received_total"); v == 0 {
		t.Error("parent never ingested forwarded events")
	}
	// Parent's own population family survives bare.
	if v, ok := s.Value("rocks_nodes"); !ok || v != 1 {
		t.Errorf(`rocks_nodes = %v (ok=%v), want the parent's own 1`, v, ok)
	}
	// Child families arrive shard-labeled.
	for _, shard := range []string{"deptA", "deptB"} {
		key := `rocks_nodes{shard="` + shard + `"}`
		if v, ok := s.Value(key); !ok || v != 1 {
			t.Errorf("%s = %v (ok=%v), want 1", key, v, ok)
		}
		up := `rocks_federation_child_up{shard="` + shard + `"}`
		if v, ok := s.Value(up); !ok || v != 1 {
			t.Errorf("%s = %v (ok=%v), want 1", up, v, ok)
		}
	}
	// Child histogram series merged in without breaking strict validation.
	if s.Types["rocks_kickstart_cgi_seconds"] != "histogram" {
		t.Errorf("cgi histogram type = %q", s.Types["rocks_kickstart_cgi_seconds"])
	}

	// /v1/federation reports both sides of the link.
	code, body, _ := v1Call(t, parent, http.MethodGet, "/v1/federation", nil)
	if code != 200 {
		t.Fatalf("/v1/federation = %d", code)
	}
	var fed FederationResponse
	dataOf(t, body, &fed)
	if fed.Role != RoleParent || len(fed.Children) != 2 || fed.Received == 0 {
		t.Errorf("parent federation view wrong: %+v", fed)
	}
	code, body, _ = v1Call(t, a, http.MethodGet, "/v1/federation", nil)
	if code != 200 {
		t.Fatalf("child /v1/federation = %d", code)
	}
	var childFed FederationResponse
	dataOf(t, body, &childFed)
	if childFed.Role != RoleChild || childFed.Parent != parent.BaseURL() || childFed.Forwarded == 0 {
		t.Errorf("child federation view wrong: %+v", childFed)
	}
}

// TestFederationRegisterValidation: the registration surface rejects
// malformed shards, relative URLs, and a child claiming the parent's own
// shard name.
func TestFederationRegisterValidation(t *testing.T) {
	parent := newFedCluster(t, "HQ")
	cases := []struct {
		shard, url, code string
		status           int
	}{
		{"", "http://127.0.0.1:1", "missing_parameter", 400},
		{"a:5-2", "http://127.0.0.1:1", "bad_parameter", 400},
		{"deptA", "not-a-url", "bad_parameter", 400},
		{"HQ", "http://127.0.0.1:1", "shard_conflict", 409},
	}
	for _, tc := range cases {
		code, body, _ := v1Call(t, parent, http.MethodPost, "/v1/federation/register",
			url.Values{"shard": {tc.shard}, "url": {tc.url}})
		if code != tc.status {
			t.Errorf("register(%q,%q) = %d, want %d: %s", tc.shard, tc.url, code, tc.status, body)
			continue
		}
		if e := errorOf(t, body); e.Code != tc.code {
			t.Errorf("register(%q,%q) code = %q, want %q", tc.shard, tc.url, e.Code, tc.code)
		}
	}
	if got := parent.fed.role(); got != RoleStandalone {
		t.Errorf("failed registrations changed role to %q", got)
	}
}

// TestMirrorFallbackMatchesLiveFilter: the stale view a parent serves for a
// dark child must be the view the child itself would have served. One
// filter, applied to the child's live bus and to the parent's mirror of it,
// selects the same events (modulo the shard stamp) — every field, limit
// included, and a node followed under both of its identities.
func TestMirrorFallbackMatchesLiveFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-frontend live integration")
	}
	parent := newFedCluster(t, "HQ")
	child := newChildCluster(t, parent, "deptA:0-3")
	nodes := addComputes(t, child, 2)
	child.fed.getForwarder().Flush()

	parent.fed.mu.Lock()
	ch := parent.fed.children["deptA"]
	parent.fed.mu.Unlock()
	mirrored := ch.mirrorEvents(lifecycle.Filter{})
	if len(mirrored) == 0 {
		t.Fatal("nothing reached the parent's mirror")
	}
	// The mirror starts where the forwarder did; compare from there on.
	from := mirrored[0].Seq - 1
	mid := from + uint64(len(mirrored))/2

	byName := nodeFilter(child.DB, nodes[0].Name())
	byMAC := nodeFilter(child.DB, nodes[1].MAC())
	if byName.Alias != nodes[0].MAC() || byMAC.Alias != nodes[1].Name() {
		t.Fatalf("nodeFilter resolved aliases %q and %q", byName.Alias, byMAC.Alias)
	}
	filters := map[string]lifecycle.Filter{
		"all":          {},
		"limit":        {Limit: 5},
		"since":        {SinceSeq: mid},
		"type":         {Type: lifecycle.EventUp},
		"phase":        {Phase: lifecycle.PhaseDiscover},
		"source":       {Source: "installer"},
		"source+limit": {Source: "installer", Limit: 3},
		"mac":          {MAC: nodes[0].MAC()},
		"node by name": byName,
		"node by mac":  byMAC,
		"node+phase+since+limit": {Node: byMAC.Node, Alias: byMAC.Alias,
			Phase: lifecycle.PhaseInstall, SinceSeq: mid, Limit: 4},
		"one identity only": {Node: nodes[0].Name()},
	}
	for name, f := range filters {
		if f.SinceSeq < from {
			f.SinceSeq = from
		}
		live := child.Events().Recent(f)
		stale := stripShards(ch.mirrorEvents(f))
		if len(live) == 0 {
			t.Errorf("%s: filter selects nothing; the case proves nothing", name)
			continue
		}
		// Compared as served: the mirror's copy crossed the wire as JSON.
		liveJSON, _ := json.Marshal(live)
		staleJSON, _ := json.Marshal(stale)
		if string(liveJSON) != string(staleJSON) {
			t.Errorf("%s: live bus selects %d events, the mirror %d:\nlive  %v\nstale %v", name, len(live), len(stale), live, stale)
		}
	}
	// The two-identity filter is what makes one timeline of the MAC-keyed
	// discovery prefix and the hostname-keyed rest.
	if both, one := child.Events().Recent(byName), child.Events().Recent(filters["one identity only"]); len(both) <= len(one) {
		t.Errorf("alias added nothing: %d events under both identities, %d under the hostname alone", len(both), len(one))
	}
}

// TestMirrorKeepsNewestAcrossBatches: forwarded batches that overflow a
// child's mirror evict oldest-first, whatever the batch boundaries.
func TestMirrorKeepsNewestAcrossBatches(t *testing.T) {
	ch := &fedChild{
		shard:  federation.Shard{Name: "deptA"},
		mirror: lifecycle.NewRing[lifecycle.Event](fedMirrorRing),
	}
	const total = fedMirrorRing + 1000
	for seq := uint64(1); seq <= total; {
		batch := make([]lifecycle.Event, 0, 300)
		for ; len(batch) < cap(batch) && seq <= total; seq++ {
			batch = append(batch, lifecycle.Event{Seq: seq, Node: "compute-0-0"})
		}
		ch.ingest(batch)
	}
	got := ch.mirrorEvents(lifecycle.Filter{})
	if len(got) != fedMirrorRing || got[0].Seq != total-fedMirrorRing+1 || got[len(got)-1].Seq != total {
		t.Fatalf("mirror holds %d events, seq %d..%d; want the newest %d, ending at %d",
			len(got), got[0].Seq, got[len(got)-1].Seq, fedMirrorRing, total)
	}
	if got[0].Shard != "deptA" || ch.lastSeq != total || ch.forwarded != total {
		t.Fatalf("shard %q lastSeq %d forwarded %d", got[0].Shard, ch.lastSeq, ch.forwarded)
	}
}
