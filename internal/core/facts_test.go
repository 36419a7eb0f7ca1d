package core

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/faults"
	"rocks/internal/hardware"
	"rocks/internal/lifecycle"
	"rocks/internal/metrics"
)

// postFacts POSTs a raw JSON body to a facts endpoint and returns the
// status and body (v1Call only speaks forms).
func postFacts(t *testing.T, c *Cluster, path string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(c.BaseURL()+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(out)
}

func metricValue(t *testing.T, s metrics.Scrape, key string) float64 {
	t.Helper()
	v, ok := s.Value(key)
	if !ok {
		t.Fatalf("metric %s missing from /metrics", key)
	}
	return v
}

// TestFactsDriftChaosConverges is the tentpole acceptance scenario: four
// nodes integrate while a seeded injector skews what three of them report
// about their own hardware — deterministically, for a bounded number of
// reports each. The supervisor chases every actionable drift with a
// power-cycle-to-reinstall; the two recoverable machines converge to clean
// reports once their skew budget is exhausted, the machine whose drift
// outlives the retry budget is quarantined, and the drift events on the bus
// reconcile exactly against the injector's ledger — as do the rocks_facts_*
// deltas between two live /metrics scrapes.
func TestFactsDriftChaosConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node live drift chaos")
	}
	inj := faults.NewInjector(42)
	c, err := New(Config{
		Name:       "drifty",
		DHCPRetry:  2 * time.Millisecond,
		DisableEKV: true,
		Faults:     inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	profiles := make([]hardware.Profile, 4)
	for i := range profiles {
		profiles[i] = hardware.PIIICompute(c.MACs(), 733)
	}
	flipper := profiles[0].EthernetMAC() // one skewed report, then clean
	chronic := profiles[1].EthernetMAC() // two skewed reports, then clean
	lemon := profiles[2].EthernetMAC()   // skew outlives the retry budget
	clean := profiles[3].EthernetMAC()   // control: never skewed, never touched
	inj.AddRule(faults.Rule{Op: faults.OpFactsReport, Hosts: flipper, Count: 1, Mode: faults.ModeFactsSkew})
	inj.AddRule(faults.Rule{Op: faults.OpFactsReport, Hosts: chronic, Count: 2, Mode: faults.ModeFactsSkew})
	// MaxRetries is 2 below: the initial report plus one report per retry
	// exactly drains this rule as the budget runs out.
	inj.AddRule(faults.Rule{Op: faults.OpFactsReport, Hosts: lemon, Count: 3, Mode: faults.ModeFactsSkew})

	nodes, err := c.IntegrateNodes(profiles, clusterdb.MembershipCompute, 0, integrationTimeout)
	if err != nil {
		t.Fatal(err)
	}

	// Integration is complete, so every first-boot report has landed: three
	// skewed (arch + disk actionable each, MemMB 2% inside tolerance), one
	// clean. This scrape is the delta baseline.
	before := scrapeMetrics(t, c)
	if v := metricValue(t, before, "rocks_facts_reports_total"); v != 4 {
		t.Fatalf("reports after integration = %v, want 4", v)
	}
	for _, field := range []string{"arch", "disk"} {
		if v := metricValue(t, before, `rocks_facts_drift_total{field="`+field+`"}`); v != 3 {
			t.Fatalf("drift_total{%s} after integration = %v, want 3", field, v)
		}
	}
	if v := metricValue(t, before, "rocks_facts_reinstalls_total"); v != 0 {
		t.Fatalf("reinstalls before supervisor = %v, want 0", v)
	}

	sup := c.StartSupervisor(SupervisorConfig{
		Patience:    5 * time.Second, // never mistake a quick reinstall for darkness
		Interval:    10 * time.Millisecond,
		MaxRetries:  2,
		BaseBackoff: 25 * time.Millisecond,
		MaxBackoff:  200 * time.Millisecond,
		Seed:        7,
	})
	defer sup.Stop()

	// Zero manual intervention from here: the two recoverable machines must
	// report clean and be logged recovered, the lemon must exhaust the
	// budget chasing drift and be quarantined.
	waitCtx, cancelWait := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancelWait()
	for _, mac := range []string{flipper, chronic} {
		if _, err := c.Events().WaitFor(waitCtx, lifecycle.Filter{
			MAC: mac, Type: lifecycle.EventRecovered,
		}); err != nil {
			t.Fatalf("%s never recovered from drift: %v\nevents:\n%s", mac, err, sup.EventLog())
		}
	}
	if _, err := c.Events().WaitFor(waitCtx, lifecycle.Filter{
		MAC: lemon, Type: lifecycle.EventQuarantine,
	}); err != nil {
		t.Fatalf("lemon never quarantined: %v\nevents:\n%s", err, sup.EventLog())
	}
	sup.Stop()

	// The injector's ledger dried up exactly: every budgeted skew fired.
	if n := inj.CountOp(faults.OpFactsReport); n != 6 {
		t.Errorf("skewed reports = %d, want 6 (1 flipper + 2 chronic + 3 lemon)", n)
	}
	if !inj.Exhausted() {
		t.Error("skew budget never drained: count-capped rules left unconsumed")
	}

	// Supervisor accounting: every action traces to a drifting machine, the
	// reinstall counts match the skew budgets, and only the lemon was
	// quarantined.
	victims := map[string]bool{flipper: true, chronic: true, lemon: true}
	perMAC := map[string]map[lifecycle.EventType]int{}
	for _, e := range sup.Events() {
		if !victims[e.MAC] {
			t.Errorf("supervisor touched a healthy node: %s", e)
			continue
		}
		if perMAC[e.MAC] == nil {
			perMAC[e.MAC] = map[lifecycle.EventType]int{}
		}
		perMAC[e.MAC][e.Type]++
	}
	for mac, want := range map[string]int{flipper: 1, chronic: 2, lemon: 2} {
		if got := perMAC[mac][lifecycle.EventDriftReinstall]; got != want {
			t.Errorf("drift reinstalls for %s = %d, want %d\nevents:\n%s", mac, got, want, sup.EventLog())
		}
	}
	if perMAC[flipper][lifecycle.EventRecovered] != 1 || perMAC[chronic][lifecycle.EventRecovered] != 1 {
		t.Errorf("recoveries = %d/%d (flipper/chronic), want 1/1",
			perMAC[flipper][lifecycle.EventRecovered], perMAC[chronic][lifecycle.EventRecovered])
	}
	if perMAC[lemon][lifecycle.EventQuarantine] != 1 || perMAC[lemon][lifecycle.EventRecovered] != 0 {
		t.Errorf("lemon events = %v, want exactly 1 quarantine and no recovery", perMAC[lemon])
	}
	quarantines := c.Events().Recent(lifecycle.Filter{MAC: lemon, Type: lifecycle.EventQuarantine})
	if len(quarantines) != 1 || !strings.Contains(quarantines[0].Detail, "chasing drift") {
		t.Errorf("quarantine events = %+v, want one naming the drift chase", quarantines)
	}
	lemonName := nodes[2].Name()
	if !c.PBS.IsOffline(lemonName) {
		t.Errorf("%s not offline in PBS after drift quarantine", lemonName)
	}

	// Bus-vs-ledger reconciliation: every skewed report published exactly
	// two actionable drift events (arch and disk; the 2% MemMB skew sits
	// inside tolerance and must never appear), on a drifting machine.
	driftEvents := c.Events().Recent(lifecycle.Filter{Type: lifecycle.EventDriftDetected})
	if len(driftEvents) != 12 {
		t.Errorf("drift-detected events = %d, want 12 (2 per skewed report)", len(driftEvents))
	}
	perField := map[string]int{}
	for _, e := range driftEvents {
		if !victims[e.MAC] {
			t.Errorf("drift event on a clean node: %+v", e)
		}
		if !strings.Contains(e.Detail, "actionable=true") {
			t.Errorf("benign drift reached the timeline: %+v", e)
		}
		for _, field := range driftFields {
			if strings.HasPrefix(e.Detail, "field="+field+" ") {
				perField[field]++
			}
		}
	}
	if perField["arch"] != 6 || perField["disk"] != 6 || len(perField) != 2 {
		t.Errorf("drift events by field = %v, want exactly arch:6 disk:6", perField)
	}
	if reports := c.Events().Recent(lifecycle.Filter{Type: lifecycle.EventFactsReported}); len(reports) != 9 {
		t.Errorf("facts-reported events = %d, want 9", len(reports))
	}
	cleared := c.Events().Recent(lifecycle.Filter{Type: lifecycle.EventDriftCleared})
	if len(cleared) != 2 {
		t.Errorf("drift-cleared events = %d, want 2 (flipper and chronic)", len(cleared))
	}

	// The served inventory agrees: /v1/facts shows the lemon still carrying
	// its actionable drift and everyone else clean.
	code, body, _ := v1Call(t, c, http.MethodGet, "/v1/facts", nil)
	if code != 200 {
		t.Fatalf("/v1/facts = %d: %s", code, body)
	}
	var inv FactsResponse
	dataOf(t, body, &inv)
	if len(inv.Facts) != 4 || inv.Reports != 9 {
		t.Fatalf("inventory = %d entries / %d reports, want 4 / 9", len(inv.Facts), inv.Reports)
	}
	for _, entry := range inv.Facts {
		switch entry.MAC {
		case lemon:
			if !entry.Actionable || len(entry.Drift) != 2 {
				t.Errorf("lemon inventory entry not flagged: %+v", entry)
			}
		default:
			if entry.Actionable || len(entry.Drift) != 0 {
				t.Errorf("converged node still shows drift: %+v", entry)
			}
		}
	}
	_ = clean

	// Metrics deltas across the remediation, from live scrapes: five more
	// reports (one per reinstall plus the clean finals), three more drift
	// firings per actionable field, five supervisor-ordered reinstalls.
	after := scrapeMetrics(t, c)
	deltas := map[string]float64{
		"rocks_facts_reports_total":             5,
		`rocks_facts_drift_total{field="arch"}`: 3,
		`rocks_facts_drift_total{field="disk"}`: 3,
		"rocks_facts_reinstalls_total":          5,
	}
	for key, want := range deltas {
		got := metricValue(t, after, key) - metricValue(t, before, key)
		if got != want {
			t.Errorf("%s delta = %v, want %v", key, got, want)
		}
	}
	// The benign fields exist as series and never fired.
	for _, field := range []string{"mem_mb", "cpus", "nics"} {
		if v := metricValue(t, after, `rocks_facts_drift_total{field="`+field+`"}`); v != 0 {
			t.Errorf("drift_total{%s} = %v, want 0", field, v)
		}
	}
}

// TestFactsSurviveRecovery: facts rows ride the WAL. A frontend that
// ingested first-boot reports is restarted on the same database directory;
// the recovered inventory serves the same entries — same hardware, same
// report timestamps — without any node reporting again.
func TestFactsSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Name: "Meteor", DHCPRetry: 2 * time.Millisecond, DBDir: dir}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addComputes(t, c, 2)
	want := map[string]FactsEntry{}
	for _, e := range c.FactsInventory().Facts {
		want[e.MAC] = e
	}
	if len(want) != 2 {
		t.Fatalf("pre-restart inventory has %d entries, want 2", len(want))
	}
	c.Close()

	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart on %s: %v", dir, err)
	}
	defer c2.Close()
	if ri := c2.Recovery(); ri == nil || ri.Fresh {
		t.Fatalf("restart did not recover: %+v", ri)
	}
	got := c2.FactsInventory()
	if len(got.Facts) != 2 {
		t.Fatalf("recovered inventory has %d entries, want 2", len(got.Facts))
	}
	for _, e := range got.Facts {
		w, ok := want[e.MAC]
		if !ok {
			t.Errorf("recovered inventory invented %s", e.MAC)
			continue
		}
		if e.Arch != w.Arch || e.CPUs != w.CPUs || e.MemMB != w.MemMB || e.Disk != w.Disk {
			t.Errorf("recovered entry for %s = %+v, want %+v", e.MAC, e, w)
		}
		if strings.Join(e.NICs, ";") != strings.Join(w.NICs, ";") {
			t.Errorf("recovered NICs for %s = %v, want %v", e.MAC, e.NICs, w.NICs)
		}
		if !e.ReportedAt.Equal(w.ReportedAt) {
			t.Errorf("recovered report time for %s = %v, want %v", e.MAC, e.ReportedAt, w.ReportedAt)
		}
		if e.Actionable || len(e.Drift) != 0 {
			t.Errorf("recovery invented drift for %s: %+v", e.MAC, e.Drift)
		}
	}

	// A fresh report for a recovered MAC updates the row in place — no
	// duplicate inventory identity across lives.
	var anyMAC string
	for mac := range want {
		anyMAC = mac
	}
	body, _ := json.Marshal(hardware.Facts{MAC: anyMAC, Name: "reborn", Arch: "i386", CPUs: 1, MemMB: 512})
	if code, resp := postFacts(t, c2, "/v1/facts", body); code != 200 {
		t.Fatalf("re-report after recovery = %d: %s", code, resp)
	}
	if inv := c2.FactsInventory(); len(inv.Facts) != 2 {
		t.Errorf("re-report duplicated an identity: %d entries", len(inv.Facts))
	}
}

// TestFactsEndpointValidation exercises the /v1/facts surface directly:
// the GET inventory, drift detection and clearing through bare POSTs, and
// the rejection paths.
func TestFactsEndpointValidation(t *testing.T) {
	c := newCluster(t)
	n := addComputes(t, c, 1)[0]

	code, body, _ := v1Call(t, c, http.MethodGet, "/v1/facts", nil)
	if code != 200 {
		t.Fatalf("/v1/facts = %d: %s", code, body)
	}
	var inv FactsResponse
	dataOf(t, body, &inv)
	if len(inv.Facts) != 1 || inv.Facts[0].MAC != n.MAC() {
		t.Fatalf("inventory = %+v, want the one integrated node", inv)
	}
	if inv.Facts[0].Actionable || len(inv.Facts[0].Drift) != 0 || inv.Facts[0].AgeSeconds < 0 {
		t.Errorf("first-boot entry not clean: %+v", inv.Facts[0])
	}

	// A report with the wrong architecture is recorded and flagged.
	bad := hardware.FactsFromProfile(n.HW, n.MAC(), n.Name())
	bad.Arch = "ia64"
	raw, _ := json.Marshal(bad)
	if code, resp := postFacts(t, c, "/v1/facts", raw); code != 200 {
		t.Fatalf("drift report = %d: %s", code, resp)
	}
	_, body, _ = v1Call(t, c, http.MethodGet, "/v1/facts", nil)
	var drifted FactsResponse
	dataOf(t, body, &drifted)
	if !drifted.Facts[0].Actionable || len(drifted.Facts[0].Drift) != 1 || drifted.Facts[0].Drift[0].Field != "arch" {
		t.Fatalf("drift not served: %+v", drifted.Facts[0])
	}
	if evs := c.Events().Recent(lifecycle.Filter{Type: lifecycle.EventDriftDetected}); len(evs) != 1 {
		t.Errorf("drift-detected events = %d, want 1", len(evs))
	}

	// A clean re-report clears it, with a drift-cleared event.
	raw, _ = json.Marshal(hardware.FactsFromProfile(n.HW, n.MAC(), n.Name()))
	if code, resp := postFacts(t, c, "/v1/facts", raw); code != 200 {
		t.Fatalf("clean report = %d: %s", code, resp)
	}
	_, body, _ = v1Call(t, c, http.MethodGet, "/v1/facts", nil)
	var clearedInv FactsResponse
	dataOf(t, body, &clearedInv)
	if clearedInv.Facts[0].Actionable || len(clearedInv.Facts[0].Drift) != 0 {
		t.Errorf("drift not cleared: %+v", clearedInv.Facts[0])
	}
	if evs := c.Events().Recent(lifecycle.Filter{Type: lifecycle.EventDriftCleared}); len(evs) != 1 {
		t.Errorf("drift-cleared events = %d, want 1", len(evs))
	}

	// Rejection paths: no MAC, unparseable body, unregistered shard.
	cases := []struct {
		name, path, body, code string
		status                 int
	}{
		{"no-mac", "/v1/facts", `{"arch":"i386"}`, "missing_parameter", 400},
		{"bad-body", "/v1/facts", `{`, "bad_body", 400},
		{"unknown-shard", "/v1/facts?shard=nope", string(raw), "unknown_shard", 404},
	}
	for _, tc := range cases {
		code, resp := postFacts(t, c, tc.path, []byte(tc.body))
		if code != tc.status {
			t.Errorf("%s: status = %d, want %d: %s", tc.name, code, tc.status, resp)
			continue
		}
		if e := errorOf(t, resp); e.Code != tc.code {
			t.Errorf("%s: error code = %q, want %q", tc.name, e.Code, tc.code)
		}
	}
}

// TestFederationFactsForwarding: a node reporting to a child frontend shows
// up in the parent's merged inventory under the child's shard name, with no
// drift verdict re-derived (the parent has no expected profile for another
// frontend's nodes), and the child's federation view counts the relay.
func TestFederationFactsForwarding(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-frontend live integration")
	}
	parent := newFedCluster(t, "HQ")
	child := newChildCluster(t, parent, "deptA:0-3")
	n := addComputes(t, child, 1)[0]

	// The child's own view is first-hand: no shard stamp.
	cInv := child.FactsInventory()
	if len(cInv.Facts) != 1 || cInv.Facts[0].Shard != "" {
		t.Fatalf("child inventory = %+v, want one unstamped entry", cInv.Facts)
	}

	// The forward is asynchronous; the parent's view converges.
	var got *FactsEntry
	deadline := time.Now().Add(30 * time.Second)
	for got == nil && time.Now().Before(deadline) {
		inv := parent.FactsInventory()
		for i := range inv.Facts {
			if inv.Facts[i].MAC == n.MAC() {
				got = &inv.Facts[i]
			}
		}
		if got == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if got == nil {
		t.Fatal("forwarded facts never reached the parent")
	}
	if got.Shard != "deptA" {
		t.Errorf("forwarded entry shard = %q, want deptA", got.Shard)
	}
	if got.Actionable || len(got.Drift) != 0 {
		t.Errorf("parent re-diffed a forwarded report: %+v", got)
	}
	if got.Arch != n.HW.Arch || got.MemMB != n.HW.MemMB {
		t.Errorf("forwarded hardware diverges: %+v vs %+v", got, n.HW)
	}

	// The child counts a forward when the parent's answer arrives, which is
	// after the parent has made the record visible above.
	var fed FederationResponse
	for {
		code, body, _ := v1Call(t, child, http.MethodGet, "/v1/federation", nil)
		if code != 200 {
			t.Fatalf("child /v1/federation = %d", code)
		}
		dataOf(t, body, &fed)
		if fed.FactsForwarded != 0 || fed.FactsForwardErrors != 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fed.FactsForwarded == 0 {
		t.Errorf("child counted no forwarded facts: %+v", fed)
	}
	if fed.FactsForwardErrors != 0 {
		t.Errorf("facts forward errors = %d, want 0", fed.FactsForwardErrors)
	}
}

// TestFederationDarkChildStaleScrape: when a child goes dark, the parent's
// /metrics keeps serving the child's last successful exposition instead of
// letting its series vanish, flags the shard down, and ages the staleness
// on rocks_federation_child_last_scrape_seconds — the alerting handle.
func TestFederationDarkChildStaleScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-frontend live integration")
	}
	parent := newFedCluster(t, "HQ")
	child := newChildCluster(t, parent, "deptA")

	// First scrape primes the stale cache; the second serves an aged gauge
	// (the exposition is rendered before the per-request child scrape).
	s := scrapeMetrics(t, parent)
	if v, ok := s.Value(`rocks_nodes{shard="deptA"}`); !ok || v != 1 {
		t.Fatalf(`live rocks_nodes{shard="deptA"} = %v (ok=%v), want 1`, v, ok)
	}
	s = scrapeMetrics(t, parent)
	if v, ok := s.Value(`rocks_federation_child_last_scrape_seconds{shard="deptA"}`); !ok || v < 0 {
		t.Fatalf("last_scrape_seconds = %v (ok=%v), want a non-negative age", v, ok)
	}

	child.Close()

	// The first post-mortem scrape fails the child fetch and falls back to
	// the cache; the one after also reflects the dark mark in the parent's
	// own families.
	s = scrapeMetrics(t, parent)
	if v, ok := s.Value(`rocks_nodes{shard="deptA"}`); !ok || v != 1 {
		t.Errorf(`stale rocks_nodes{shard="deptA"} = %v (ok=%v), want the cached 1`, v, ok)
	}
	s = scrapeMetrics(t, parent)
	if v, ok := s.Value(`rocks_federation_child_up{shard="deptA"}`); !ok || v != 0 {
		t.Errorf("child_up with a dark child = %v (ok=%v), want 0", v, ok)
	}
	if v, ok := s.Value(`rocks_federation_child_last_scrape_seconds{shard="deptA"}`); !ok || v <= 0 {
		t.Errorf("staleness age with a dark child = %v (ok=%v), want > 0", v, ok)
	}
	if v, ok := s.Value(`rocks_nodes{shard="deptA"}`); !ok || v != 1 {
		t.Errorf("stale exposition vanished on the second dark scrape: %v (ok=%v)", v, ok)
	}
}
