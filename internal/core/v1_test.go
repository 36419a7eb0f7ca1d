package core

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"rocks/internal/clusterdb"
	"rocks/internal/metrics"
	"rocks/internal/node"
)

// v1Call performs one request against the cluster's /v1 surface.
func v1Call(t *testing.T, c *Cluster, method, path string, params url.Values) (int, string, http.Header) {
	t.Helper()
	u := c.BaseURL() + path
	var resp *http.Response
	var err error
	switch method {
	case http.MethodGet:
		if params != nil {
			u += "?" + params.Encode()
		}
		resp, err = http.Get(u)
	case http.MethodPost:
		resp, err = http.PostForm(u, params)
	default:
		req, _ := http.NewRequest(method, u, nil)
		resp, err = http.DefaultClient.Do(req)
	}
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), resp.Header
}

// dataOf unwraps a /v1 {"data": ...} envelope into out.
func dataOf(t *testing.T, body string, out interface{}) {
	t.Helper()
	var env struct {
		Data json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("bad envelope %q: %v", body, err)
	}
	if env.Data == nil {
		t.Fatalf("no data in envelope %q", body)
	}
	if err := json.Unmarshal(env.Data, out); err != nil {
		t.Fatalf("bad data payload %q: %v", env.Data, err)
	}
}

// errorOf unwraps a /v1 {"error": ...} envelope.
func errorOf(t *testing.T, body string) apiError {
	t.Helper()
	var env struct {
		Error *apiError `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error == nil {
		t.Fatalf("no error envelope in %q (%v)", body, err)
	}
	return *env.Error
}

// scrapeMetrics fetches and strictly parses /metrics.
func scrapeMetrics(t *testing.T, c *Cluster) metrics.Scrape {
	t.Helper()
	resp, err := http.Get(c.BaseURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	s, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	return s
}

// TestV1MethodGuards: every mutating endpoint rejects GET with 405 and an
// Allow header; reads reject POST; sql mutates only under POST.
func TestV1MethodGuards(t *testing.T) {
	c := newCluster(t)
	for _, path := range []string{
		"/v1/shoot", "/v1/fork", "/v1/kill", "/v1/integrate",
		"/v1/adduser", "/v1/reinstall-cluster",
	} {
		code, body, hdr := v1Call(t, c, http.MethodGet, path, url.Values{"node": {"x"}})
		if code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", path, code)
			continue
		}
		if hdr.Get("Allow") != "POST" {
			t.Errorf("GET %s Allow = %q", path, hdr.Get("Allow"))
		}
		if e := errorOf(t, body); e.Code != "method_not_allowed" || e.Status != 405 {
			t.Errorf("GET %s error = %+v", path, e)
		}
	}
	// sql: GET reads are fine, GET with exec=1 is a 405.
	code, _, _ := v1Call(t, c, http.MethodGet, "/v1/sql", url.Values{"q": {"SELECT name FROM nodes"}})
	if code != 200 {
		t.Errorf("GET /v1/sql read = %d", code)
	}
	code, _, hdr := v1Call(t, c, http.MethodGet, "/v1/sql",
		url.Values{"q": {"DELETE FROM nodes"}, "exec": {"1"}})
	if code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sql exec = %d, want 405", code)
	}
	if hdr.Get("Allow") != "GET, POST" {
		t.Errorf("sql Allow = %q", hdr.Get("Allow"))
	}
	// Reads reject POST.
	for _, path := range []string{"/v1/health", "/v1/dbstats", "/v1/events", "/v1/audit"} {
		code, _, hdr := v1Call(t, c, http.MethodPost, path, url.Values{})
		if code != http.StatusMethodNotAllowed || hdr.Get("Allow") != "GET" {
			t.Errorf("POST %s = %d (Allow %q), want 405/GET", path, code, hdr.Get("Allow"))
		}
	}
}

// TestV1ErrorShapes: missing parameters, unparseable integers, negative
// integers, and unknown nodes come back as structured errors with the
// right codes — never silent defaults, never a crash.
func TestV1ErrorShapes(t *testing.T) {
	c := newCluster(t)
	cases := []struct {
		method, path string
		params       url.Values
		status       int
		code         string
	}{
		{http.MethodPost, "/v1/shoot", url.Values{}, 400, "missing_parameter"},
		{http.MethodPost, "/v1/shoot", url.Values{"node": {"ghost"}}, 404, "unknown_node"},
		{http.MethodPost, "/v1/fork", url.Values{}, 400, "missing_parameter"},
		{http.MethodPost, "/v1/kill", url.Values{}, 400, "missing_parameter"},
		{http.MethodPost, "/v1/adduser", url.Values{}, 400, "missing_parameter"},
		{http.MethodPost, "/v1/adduser", url.Values{"name": {"x"}, "uid": {"abc"}}, 400, "bad_parameter"},
		{http.MethodGet, "/v1/sql", url.Values{}, 400, "missing_parameter"},
		{http.MethodGet, "/v1/events", url.Values{"since": {"abc"}}, 400, "bad_parameter"},
		{http.MethodGet, "/v1/events", url.Values{"since": {"-1"}}, 400, "bad_parameter"},
		{http.MethodGet, "/v1/events", url.Values{"limit": {"2x"}}, 400, "bad_parameter"},
		{http.MethodGet, "/v1/audit", url.Values{"since": {"-5"}}, 400, "bad_parameter"},
		{http.MethodPost, "/v1/integrate", url.Values{"count": {"0"}}, 400, "bad_parameter"},
		{http.MethodPost, "/v1/integrate", url.Values{"count": {"one"}}, 400, "bad_parameter"},
		{http.MethodPost, "/v1/reinstall-cluster", url.Values{"wait": {"never"}}, 400, "bad_parameter"},
	}
	for _, tc := range cases {
		code, body, _ := v1Call(t, c, tc.method, tc.path, tc.params)
		if code != tc.status {
			t.Errorf("%s %s %v = %d, want %d (%s)", tc.method, tc.path, tc.params, code, tc.status, body)
			continue
		}
		if e := errorOf(t, body); e.Code != tc.code || e.Status != tc.status {
			t.Errorf("%s %s error = %+v, want code %s", tc.method, tc.path, e, tc.code)
		}
	}
}

// TestV1MutationsAndAudit drives every mutating operation through /v1 and
// checks each landed in the audit log with its outcome.
func TestV1MutationsAndAudit(t *testing.T) {
	c := newCluster(t)

	code, body, _ := v1Call(t, c, http.MethodPost, "/v1/integrate",
		url.Values{"count": {"2"}, "wait": {"60"}})
	if code != 200 {
		t.Fatalf("integrate: %d %s", code, body)
	}
	var integrated map[string][]string
	dataOf(t, body, &integrated)
	if len(integrated["integrated"]) != 2 {
		t.Fatalf("integrated = %v", integrated)
	}

	code, body, _ = v1Call(t, c, http.MethodPost, "/v1/sql", url.Values{
		"q": {"UPDATE nodes SET comment = 'v1' WHERE name = 'compute-0-0'"}, "exec": {"1"}})
	if code != 200 {
		t.Fatalf("sql exec: %d %s", code, body)
	}
	var sqlResp SQLResponse
	dataOf(t, body, &sqlResp)
	if !sqlResp.Exec {
		t.Errorf("sql response = %+v", sqlResp)
	}

	code, body, _ = v1Call(t, c, http.MethodPost, "/v1/fork", url.Values{"cmd": {"hostname"}})
	if code != 200 {
		t.Fatalf("fork: %d %s", code, body)
	}
	var fr ForkResponse
	dataOf(t, body, &fr)
	if len(fr.Results) != 2 {
		t.Errorf("fork results = %+v", fr)
	}

	code, _, _ = v1Call(t, c, http.MethodPost, "/v1/kill", url.Values{"process": {"nothing"}})
	if code != 200 {
		t.Fatalf("kill: %d", code)
	}
	code, _, _ = v1Call(t, c, http.MethodPost, "/v1/adduser",
		url.Values{"name": {"alice"}, "uid": {"600"}})
	if code != 200 {
		t.Fatalf("adduser: %d", code)
	}
	code, body, _ = v1Call(t, c, http.MethodPost, "/v1/shoot", url.Values{"node": {"compute-0-1"}})
	if code != 200 {
		t.Fatalf("shoot: %d %s", code, body)
	}
	if !WaitState(mustNode(t, c, "compute-0-1"), node.StateUp, integrationTimeout) {
		t.Fatal("shot node never came back")
	}
	code, body, _ = v1Call(t, c, http.MethodPost, "/v1/reinstall-cluster",
		url.Values{"wait": {"60"}})
	if code != 200 {
		t.Fatalf("reinstall-cluster: %d %s", code, body)
	}
	var rr ReinstallResult
	dataOf(t, body, &rr)
	if !rr.Converged || len(rr.NotUp) != 0 {
		t.Errorf("reinstall result = %+v, want converged", rr)
	}
	// A failing mutation is audited too.
	v1Call(t, c, http.MethodPost, "/v1/shoot", url.Values{"node": {"ghost"}})

	// Every op shows up in the audit log with its outcome.
	code, body, _ = v1Call(t, c, http.MethodGet, "/v1/audit", nil)
	if code != 200 {
		t.Fatalf("audit: %d %s", code, body)
	}
	var audit struct {
		Entries []AuditEntry `json:"entries"`
		Seq     uint64       `json:"seq"`
		Errors  uint64       `json:"errors"`
	}
	dataOf(t, body, &audit)
	byOp := make(map[string][]AuditEntry)
	for _, e := range audit.Entries {
		byOp[e.Op] = append(byOp[e.Op], e)
	}
	for _, op := range []string{"integrate", "sql-exec", "fork", "kill", "adduser", "shoot", "reinstall-cluster"} {
		if len(byOp[op]) == 0 {
			t.Errorf("audit has no %s entry; ops seen: %v", op, opsOf(audit.Entries))
		}
	}
	shoots := byOp["shoot"]
	if len(shoots) != 2 {
		t.Fatalf("shoot audit entries = %d, want 2", len(shoots))
	}
	if shoots[0].Outcome != "ok" || shoots[0].Status != 200 {
		t.Errorf("first shoot audit = %+v", shoots[0])
	}
	if shoots[1].Outcome != "error" || shoots[1].Status != 404 || shoots[1].Error == "" {
		t.Errorf("ghost shoot audit = %+v", shoots[1])
	}
	if audit.Errors == 0 {
		t.Error("audit error counter never moved")
	}
	for _, e := range audit.Entries {
		if e.Actor == "" || e.Time.IsZero() || e.Seq == 0 {
			t.Errorf("audit entry missing identity fields: %+v", e)
		}
	}

	// Filters: by op, by outcome, and since the last sequence.
	code, body, _ = v1Call(t, c, http.MethodGet, "/v1/audit",
		url.Values{"op": {"shoot"}, "outcome": {"error"}})
	if code != 200 {
		t.Fatalf("audit filtered: %d", code)
	}
	var filtered struct {
		Entries []AuditEntry `json:"entries"`
	}
	dataOf(t, body, &filtered)
	if len(filtered.Entries) != 1 || filtered.Entries[0].Outcome != "error" {
		t.Errorf("filtered audit = %+v", filtered.Entries)
	}
	code, body, _ = v1Call(t, c, http.MethodGet, "/v1/audit",
		url.Values{"since": {"1000000"}})
	dataOf(t, body, &filtered)
	if len(filtered.Entries) != 0 {
		t.Errorf("since-future audit = %+v", filtered.Entries)
	}

	// Reads are not audited: the audit log holds only the mutations above.
	for _, e := range audit.Entries {
		switch e.Op {
		case "integrate", "sql-exec", "fork", "kill", "adduser", "shoot", "reinstall-cluster":
		default:
			t.Errorf("unexpected audited op %q", e.Op)
		}
	}
}

func opsOf(entries []AuditEntry) []string {
	var out []string
	for _, e := range entries {
		out = append(out, e.Op)
	}
	return out
}

func mustNode(t *testing.T, c *Cluster, name string) *node.Node {
	t.Helper()
	n, ok := c.NodeByName(name)
	if !ok {
		t.Fatalf("no node %s", name)
	}
	return n
}

// TestV1ActorHeader: the X-Rocks-Actor header names the caller in the
// audit record.
func TestV1ActorHeader(t *testing.T) {
	c := newCluster(t)
	req, _ := http.NewRequest(http.MethodPost, c.BaseURL()+"/v1/adduser?name=bob", nil)
	req.Header.Set("X-Rocks-Actor", "operator@console")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("adduser: %d", resp.StatusCode)
	}
	_, body, _ := v1Call(t, c, http.MethodGet, "/v1/audit", url.Values{"op": {"adduser"}})
	var audit struct {
		Entries []AuditEntry `json:"entries"`
	}
	dataOf(t, body, &audit)
	if len(audit.Entries) != 1 || audit.Entries[0].Actor != "operator@console" {
		t.Errorf("audit actor = %+v, want operator@console", audit.Entries)
	}
}

// TestReinstallClusterReportsStragglers: a reinstall that cannot converge
// within the deadline says so instead of lying "cluster reinstalled".
func TestReinstallClusterReportsStragglers(t *testing.T) {
	c := newCluster(t)
	addComputes(t, c, 2)
	// A zero-second deadline cannot possibly see the nodes reinstall and
	// come back up.
	code, body, _ := v1Call(t, c, http.MethodPost, "/v1/reinstall-cluster",
		url.Values{"wait": {"0"}})
	if code != 200 {
		t.Fatalf("reinstall-cluster: %d %s", code, body)
	}
	var rr ReinstallResult
	dataOf(t, body, &rr)
	if rr.Converged {
		t.Fatalf("zero-deadline reinstall claims convergence: %+v", rr)
	}
	if len(rr.NotUp) == 0 {
		t.Errorf("no stragglers named: %+v", rr)
	}
	if !strings.Contains(rr.Status, "incomplete") {
		t.Errorf("status = %q", rr.Status)
	}
	// Let the shot nodes finish so Close doesn't race the installs.
	for _, n := range c.Nodes() {
		WaitState(n, node.StateUp, integrationTimeout)
	}
}

// TestMetricsEndpoint: every registered family the control plane promises
// is present on /metrics, the exposition parses strictly, and the core
// figures move with the cluster.
func TestMetricsEndpoint(t *testing.T) {
	c := newCluster(t)
	addComputes(t, c, 2)
	// One control-plane read so the per-op request counter has traffic;
	// /metrics scrapes themselves are deliberately not counted.
	if code, _, _ := v1Call(t, c, http.MethodGet, "/v1/health", nil); code != 200 {
		t.Fatalf("health: %d", code)
	}
	s := scrapeMetrics(t, c)
	for _, fam := range []string{
		// clusterdb (/v1/dbstats "db")
		"rocks_db_plan_cache_hits_total", "rocks_db_plan_cache_misses_total",
		"rocks_db_plan_cache_entries", "rocks_db_index_selects_total",
		"rocks_db_scan_selects_total", "rocks_db_alloc_probes_total", "rocks_db_index_keys",
		"rocks_db_wal_enabled", "rocks_db_wal_records_appended_total",
		"rocks_db_wal_bytes_appended_total", "rocks_db_wal_fsyncs_total",
		"rocks_db_wal_snapshots_total", "rocks_db_wal_last_snapshot_seq",
		"rocks_db_wal_replays_total", "rocks_db_wal_records_replayed_total",
		"rocks_db_wal_replay_errors_total", "rocks_db_wal_stale_skipped_total",
		"rocks_db_wal_torn_tails_dropped_total",
		"rocks_db_recovery_records_replayed", "rocks_db_recovery_replay_errors",
		// kickstart cache (/v1/dbstats "kickstart_cache")
		"rocks_kickstart_cache_hits_total", "rocks_kickstart_cache_misses_total",
		"rocks_kickstart_cache_invalidations_total",
		// reports (/v1/dbstats "reports")
		"rocks_reports_writes_total", "rocks_reports_skips_total",
		"rocks_reports_scheduled_total", "rocks_reports_pass_seconds",
		// dist (/v1/diststats)
		"rocks_dist_listing_requests_total", "rocks_dist_manifest_requests_total",
		"rocks_dist_package_requests_total", "rocks_dist_bundle_requests_total",
		"rocks_dist_not_found_total", "rocks_dist_package_bytes_total",
		"rocks_dist_packages",
		"rocks_dist_mirror_packages_listed", "rocks_dist_mirror_packages_skipped",
		"rocks_dist_mirror_packages_fetched", "rocks_dist_mirror_bytes_fetched",
		"rocks_dist_mirror_corrupt_bodies",
		// lifecycle (/v1/events)
		"rocks_lifecycle_events_total", "rocks_lifecycle_ring_evictions_total",
		"rocks_lifecycle_subscriber_drops_total", "rocks_lifecycle_subscribers",
		// installer
		"rocks_installer_fetch_retries_total", "rocks_installer_packages_corrupt_total",
		"rocks_installer_installs_total",
		// supervisor (/v1/supervisor)
		"rocks_supervisor_power_cycles_total", "rocks_supervisor_power_cycle_failures_total",
		"rocks_supervisor_quarantines_total", "rocks_supervisor_unquarantines_total",
		"rocks_supervisor_recoveries_total", "rocks_supervisor_running",
		// relay rack preference
		"rocks_dist_relay_same_rack_total", "rocks_dist_relay_cross_rack_total",
		// kickstart CGI latency
		"rocks_kickstart_cgi_seconds",
		// federation
		"rocks_federation_children", "rocks_federation_registrations_total",
		"rocks_federation_events_received_total", "rocks_federation_events_forwarded_total",
		"rocks_federation_forward_errors_total", "rocks_federation_fanout_errors_total",
		"rocks_federation_merge_deduped_total",
		// population + control plane
		"rocks_nodes", "rocks_nodes_quarantined", "rocks_nodes_state",
		"rocks_api_requests_total", "rocks_audit_entries_total",
		"rocks_audit_errors_total", "rocks_audit_evictions_total",
	} {
		if !s.Has(fam) {
			t.Errorf("family %s absent from /metrics", fam)
		}
	}
	// The figures track reality: 2 computes + frontend.
	if got, _ := s.Value("rocks_nodes"); got != 3 {
		t.Errorf("rocks_nodes = %v, want 3", got)
	}
	if got := s.Sum("rocks_installer_installs_total"); got < 2 {
		t.Errorf("installs_total = %v, want >= 2", got)
	}
	if got, _ := s.Value("rocks_lifecycle_events_total"); got == 0 {
		t.Error("lifecycle events counter never moved")
	}
	if got := s.Sum("rocks_nodes_state"); got != 3 {
		t.Errorf("Sum(rocks_nodes_state) = %v, want 3", got)
	}
	// Scrapes themselves do not count as API traffic, but the health read
	// above does.
	if got := s.Sum("rocks_api_requests_total"); got == 0 {
		t.Error("api requests counter never moved")
	}
	// Serving two installs touched the dist server.
	if got, _ := s.Value("rocks_dist_package_requests_total"); got == 0 {
		t.Error("dist package counter never moved")
	}
	// Streams per install is readable from the scrape: one, fault-free.
	if got, installs := s.Sum("rocks_dist_bundle_requests_total"), s.Sum("rocks_installer_installs_total"); got != installs {
		t.Errorf("%v bundle requests for %v installs, want one each", got, installs)
	}
	// In-memory database: WAL present but disabled.
	if got, _ := s.Value("rocks_db_wal_enabled"); got != 0 {
		t.Errorf("wal_enabled = %v for in-memory db", got)
	}
}

// TestDiscoveryStormMetrics integrates a 1000-node discovery storm and
// asserts on the metric deltas scraped before and after: the lifecycle bus
// must record (at least) a discovered and a bound event per machine, and
// the database's indexes must grow a key per inserted node. The storm runs
// through insert-ethers exactly as a mass rack-and-stack would.
func TestDiscoveryStormMetrics(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 64
	}
	c := newCluster(t)
	before := scrapeMetrics(t, c)
	beforeEvents, _ := before.Value("rocks_lifecycle_events_total")
	beforeKeys := before.Sum("rocks_db_index_keys")

	ie, err := c.StartInsertEthers(clusterdb.MembershipCompute, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := ie.Discover(fmt.Sprintf("02:20:00:00:%02x:%02x", i/256, i%256)); err != nil {
			t.Fatalf("discover %d: %v", i, err)
		}
	}
	ie.Stop()

	after := scrapeMetrics(t, c)
	afterEvents, _ := after.Value("rocks_lifecycle_events_total")
	afterKeys := after.Sum("rocks_db_index_keys")

	// Each discovery publishes a discovered and a bound event.
	if got, want := afterEvents-beforeEvents, float64(2*n); got < want {
		t.Errorf("lifecycle event delta = %v, want >= %v", got, want)
	}
	// Each inserted row lands in the node indexes.
	if got, want := afterKeys-beforeKeys, float64(n); got < want {
		t.Errorf("index key delta = %v, want >= %v", got, want)
	}
	// Discovery inserts database rows, not tracked node objects — the node
	// gauge must not move until the machines actually boot and install.
	beforeNodes, _ := before.Value("rocks_nodes")
	afterNodes, _ := after.Value("rocks_nodes")
	if beforeNodes != afterNodes {
		t.Errorf("rocks_nodes moved during discovery: %v -> %v", beforeNodes, afterNodes)
	}
	// The scrapes themselves exercised the registry: both parsed strictly,
	// and every family present before is still present after.
	for fam := range before.Types {
		if !after.Has(fam) {
			t.Errorf("family %s disappeared between scrapes", fam)
		}
	}
}
