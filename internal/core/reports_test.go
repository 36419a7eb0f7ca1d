package core

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/dhcp"
)

// TestCoalescedDiscoveryBurst drives a burst of discoveries through
// insert-ethers and checks the fast-path contract: every node still lands
// in /etc/hosts and gets its DHCP binding, but the full dbreport pass runs
// far fewer times than once per discovery.
func TestCoalescedDiscoveryBurst(t *testing.T) {
	c := newCluster(t)
	const burst = 24

	w0 := c.ReportStats().Writes
	ie, err := c.StartInsertEthers(clusterdb.MembershipCompute, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		if err := ie.Discover(fmt.Sprintf("02:ee:00:00:00:%02x", i)); err != nil {
			t.Fatalf("discover %d: %v", i, err)
		}
	}
	ie.Stop()
	if err := c.FlushReports(); err != nil {
		t.Fatal(err)
	}

	hosts, err := c.Frontend.Disk().ReadFile("/etc/hosts")
	if err != nil {
		t.Fatal(err)
	}
	bindings := c.DHCPd.Bindings()
	for i := 0; i < burst; i++ {
		name := fmt.Sprintf("compute-0-%d", i)
		if !strings.Contains(string(hosts), name) {
			t.Errorf("/etc/hosts missing %s after flush", name)
		}
		if _, ok := bindings[fmt.Sprintf("02:ee:00:00:00:%02x", i)]; !ok {
			t.Errorf("DHCP binding for node %d missing (delta sync failed)", i)
		}
	}
	writes := c.ReportStats().Writes - w0
	if writes == 0 {
		t.Fatal("burst never regenerated reports")
	}
	if writes >= burst {
		t.Errorf("burst of %d discoveries caused %d full regenerations; want coalescing", burst, writes)
	}
}

// TestWriteReportsChangeSeqGuard checks that a WriteReports call with no
// intervening mutation is answered by the guard instead of regenerating.
func TestWriteReportsChangeSeqGuard(t *testing.T) {
	c := newCluster(t)
	if err := c.WriteReports(); err != nil {
		t.Fatal(err)
	}
	s0 := c.ReportStats()
	if err := c.WriteReports(); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteReports(); err != nil {
		t.Fatal(err)
	}
	s1 := c.ReportStats()
	if s1.Writes != s0.Writes {
		t.Errorf("no-op WriteReports regenerated: writes %d -> %d", s0.Writes, s1.Writes)
	}
	if s1.Skips < s0.Skips+2 {
		t.Errorf("guard skips %d -> %d, want +2", s0.Skips, s1.Skips)
	}
	// A mutation re-arms the guard.
	if _, err := c.DB.Exec(`UPDATE site SET value = 'Guarded' WHERE name = 'ClusterName'`); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteReports(); err != nil {
		t.Fatal(err)
	}
	if got := c.ReportStats().Writes; got != s1.Writes+1 {
		t.Errorf("post-mutation writes = %d, want %d", got, s1.Writes+1)
	}
	// Quarantining (no DB mutation) also re-arms it: the PBS report
	// annotates offline hosts, so the files must regenerate.
	addComputes(t, c, 1)
	if err := c.WriteReports(); err != nil {
		t.Fatal(err)
	}
	w := c.ReportStats().Writes
	if err := c.Quarantine("compute-0-0"); err != nil {
		t.Fatal(err)
	}
	if c.ReportStats().Writes <= w {
		t.Error("quarantine did not regenerate reports")
	}
}

// TestAdminDBStats exercises the observability endpoint end to end: the
// counters it reports must be live (an indexed lookup moves index_selects).
func TestAdminDBStats(t *testing.T) {
	c := newCluster(t)
	addComputes(t, c, 1)

	var stats struct {
		DB struct {
			PlanCacheHits   uint64                `json:"plan_cache_hits"`
			PlanCacheMisses uint64                `json:"plan_cache_misses"`
			IndexSelects    uint64                `json:"index_selects"`
			ScanSelects     uint64                `json:"scan_selects"`
			Indexes         []clusterdb.IndexInfo `json:"indexes"`
		} `json:"db"`
		Reports   ReportStats `json:"reports"`
		Kickstart struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"kickstart_cache"`
	}
	fetch := func() {
		t.Helper()
		code, body, _ := v1Call(t, c, http.MethodGet, "/v1/dbstats", nil)
		if code != 200 {
			t.Fatalf("GET /v1/dbstats = %d: %s", code, body)
		}
		dataOf(t, body, &stats)
	}
	fetch()
	if len(stats.DB.Indexes) == 0 {
		t.Fatal("no indexes reported")
	}
	var nodesMAC bool
	for _, ix := range stats.DB.Indexes {
		if ix.Table == "nodes" && ix.Name == "nodes_mac" && ix.Unique {
			nodesMAC = true
		}
	}
	if !nodesMAC {
		t.Errorf("nodes_mac index missing from %+v", stats.DB.Indexes)
	}
	if stats.Reports.Writes == 0 {
		t.Error("report writes counter never moved")
	}

	// Point an indexed query through /v1/sql and watch the counter move.
	before := stats.DB.IndexSelects
	code, _, _ := v1Call(t, c, http.MethodGet, "/v1/sql", url.Values{
		"q": {`SELECT name FROM nodes WHERE name = 'compute-0-0'`}})
	if code != 200 {
		t.Fatalf("admin sql = %d", code)
	}
	fetch()
	if stats.DB.IndexSelects <= before {
		t.Errorf("index_selects static at %d after indexed query", before)
	}
	if stats.DB.PlanCacheMisses == 0 {
		t.Error("plan cache miss counter never moved")
	}
}

// TestReportPassNeverDropsFreshBinding is the regression test for the race
// between insert-ethers and the report pass: the pass read the nodes table,
// a discovery then inserted a row and set its DHCP binding, and the pass's
// DHCP sync removed that binding because the row was not in what it had
// read — so the discovered machine's next DISCOVER (or, worse, the REQUEST
// after its OFFER) went unanswered. Passes run back to back beside a
// discovery storm here; every machine must get its OFFER and its ACK at
// once, every time. Run it under -race.
func TestReportPassNeverDropsFreshBinding(t *testing.T) {
	c := newCluster(t)
	n := 1500
	if testing.Short() {
		n = 300
	}
	stop := make(chan struct{})
	passes := make(chan int)
	go func() {
		count := 0
		for {
			select {
			case <-stop:
				passes <- count
				return
			default:
			}
			// Every call regenerates: the storm moves the database between
			// any two of them.
			if err := c.WriteReports(); err != nil {
				t.Error(err)
			}
			count++
		}
	}()
	ie, err := c.StartInsertEthers(clusterdb.MembershipCompute, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer ie.Stop()
	for i := 0; i < n; i++ {
		mac := fmt.Sprintf("02:ab:00:00:%02x:%02x", i>>8, i&255)
		if err := ie.Discover(mac); err != nil {
			t.Fatalf("discover %d: %v", i, err)
		}
		row, ok, err := clusterdb.NodeByMAC(c.DB, mac)
		if err != nil || !ok {
			t.Fatalf("discovery %d left no row: %v", i, err)
		}
		// What the machine does next, several times over so a pass that is
		// mid-reconcile gets its chance to interfere.
		for try := 0; try < 4; try++ {
			offer, ok := c.Bus.Broadcast(dhcp.Packet{Type: dhcp.Discover, Xid: uint32(i), MAC: mac})
			if !ok || offer.YourIP != row.IP {
				t.Fatalf("discovery %d, try %d: OFFER = %+v, %v; the binding for %s vanished", i, try, offer, ok, row.IP)
			}
			if ack, ok := c.Bus.Broadcast(dhcp.Packet{Type: dhcp.Request, Xid: uint32(i), MAC: mac}); !ok || ack.YourIP != row.IP {
				t.Fatalf("discovery %d, try %d: OFFER but no ACK (%+v, %v)", i, try, ack, ok)
			}
		}
	}
	close(stop)
	if got := <-passes; got < 10 {
		t.Fatalf("only %d passes ran beside %d discoveries; the test did not interleave", got, n)
	}
	if err := c.FlushReports(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.DHCPd.Bindings()); got != n+1 {
		t.Errorf("%d bindings after the storm, want %d", got, n+1)
	}
}

// TestCoalescedPassesSpacedByTheirCost checks the coalescer's spacing rule
// in the one direction a slow host cannot fake: a coalesced pass is never
// armed sooner than the last pass took.
func TestCoalescedPassesSpacedByTheirCost(t *testing.T) {
	c := newCluster(t)
	const cost = 400 * time.Millisecond
	c.reports.mu.Lock()
	c.reports.lastPass = cost
	c.reports.mu.Unlock()
	if err := clusterdb.SetSiteValue(c.DB, "Spacing", "1"); err != nil {
		t.Fatal(err)
	}
	w := c.ReportStats().Writes
	start := time.Now()
	for i := 0; i < 50; i++ {
		c.ScheduleReports()
	}
	time.Sleep(10 * reportDebounce)
	if got := c.ReportStats().Writes; got != w && time.Since(start) < cost {
		t.Fatalf("a coalesced pass ran %v after a %v pass", time.Since(start), cost)
	}
	// FlushReports does not wait for the timer, and leaves nothing armed.
	if err := c.FlushReports(); err != nil {
		t.Fatal(err)
	}
	if got := c.ReportStats().Writes; got != w+1 {
		t.Errorf("writes after flush = %d, want %d", got, w+1)
	}
	c.reports.mu.Lock()
	pending := c.reports.pending
	c.reports.mu.Unlock()
	if pending {
		t.Error("FlushReports left a coalesced pass armed")
	}
	// The flush was a real (fast) pass, so the spacing is back to its cost:
	// a lone request is served promptly again.
	if err := clusterdb.SetSiteValue(c.DB, "Spacing", "2"); err != nil {
		t.Fatal(err)
	}
	c.ScheduleReports()
	deadline := time.Now().Add(5 * time.Second)
	for c.ReportStats().Writes == w+1 && time.Now().Before(deadline) {
		time.Sleep(reportDebounce)
	}
	if got := c.ReportStats().Writes; got != w+2 {
		t.Errorf("lone request never served: writes = %d, want %d", got, w+2)
	}
}

// referenceAnnotateOffline is annotateOffline as it was when the PBS report
// was a string: the reference for the pass's bytes.
func referenceAnnotateOffline(report string, quarantined map[string]bool) string {
	lines := strings.Split(report, "\n")
	for i, line := range lines {
		if f := strings.Fields(line); len(f) > 0 && quarantined[f[0]] {
			lines[i] = line + " offline"
		}
	}
	return strings.Join(lines, "\n")
}

// TestPassWritesWhatTheReportsRender pins the four files a pass writes to
// the per-file entry points (themselves pinned to the SQL implementations by
// clusterdb's golden test), over hostile rows and quarantined hosts, and the
// DHCP table to dhcpd.conf's host blocks.
func TestPassWritesWhatTheReportsRender(t *testing.T) {
	c := newCluster(t)
	for _, stmt := range []string{
		`INSERT INTO nodes VALUES (40, '02:cc:00:00:00:40', 'compute-4-0', 2, 4, 0, '10.4.0.1', 'it''s "quoted"', 'i386', 0)`,
		"INSERT INTO nodes VALUES (41, '02:cc:00:00:00:41', 'compute-4-1', 2, 4, 1, '10.4.0.2', 'two\nlines', 'i386', 4)",
		`INSERT INTO nodes VALUES (42, '', 'compute-4-2', 2, 4, 2, '10.4.0.3', 'no mac yet', 'i386', 2)`,
		`INSERT INTO nodes VALUES (43, '02:cc:00:00:00:43', 'nfs-4-0', 3, 4, 0, '', 'no address', 'i386', 2)`,
		`INSERT INTO nodes VALUES (7, '02:cc:00:00:00:44', 'compute-4-4', 2, 4, 4, '10.4.0.5', 'out of order', 'i386', 2)`,
	} {
		if _, err := c.DB.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	// A binding nothing in the table explains must go; the frontend's stays.
	c.DHCPd.SetBinding("02:cc:ff:ff:ff:ff", dhcp.Binding{IP: "10.4.0.99", Hostname: "ghost"})
	if err := c.Quarantine("compute-4-1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Quarantine("compute-4-4"); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushReports(); err != nil {
		t.Fatal(err)
	}
	hosts, _ := clusterdb.HostsReport(c.DB)
	dhcpConf, _ := clusterdb.DHCPReport(c.DB)
	pbsNodes, _ := clusterdb.PBSNodesReport(c.DB)
	pbsNodes = referenceAnnotateOffline(pbsNodes, map[string]bool{"compute-4-1": true, "compute-4-4": true})
	if strings.Count(pbsNodes, " offline") != 2 {
		t.Fatalf("reference PBS file marks the wrong hosts:\n%s", pbsNodes)
	}
	for path, want := range map[string]string{
		"/etc/hosts":                 hosts,
		"/etc/dhcpd.conf":            dhcpConf,
		"/opt/pbs/server_priv/nodes": pbsNodes,
		"/var/db/cluster.sql":        c.DB.Dump(),
	} {
		got, err := c.Frontend.Disk().ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s differs from its report\n got: %q\nwant: %q", path, got, want)
		}
	}
	bindings := c.DHCPd.Bindings()
	if blocks := strings.Count(dhcpConf, "\thardware ethernet "); len(bindings) != blocks {
		t.Errorf("%d DHCP bindings for %d host blocks: %v", len(bindings), blocks, bindings)
	}
	for mac, b := range bindings {
		block := fmt.Sprintf("host %s {\n\thardware ethernet %s;\n\tfixed-address %s;\n", b.Hostname, mac, b.IP)
		if !strings.Contains(dhcpConf, block) || b.NextServer != c.BaseURL() {
			t.Errorf("binding %s -> %+v has no host block", mac, b)
		}
	}
}

// TestDiscoveryWorkStaysFlat is the scaling regression test, by counts, not
// clocks: across a 2048-machine storm through StartInsertEthers the work one
// discovery does must not depend on how many came before it. Allocating an
// id runs no scan SELECT, allocating an address probes the nodes_ip index a
// bounded number of times, and report passes are far fewer than
// discoveries.
func TestDiscoveryWorkStaysFlat(t *testing.T) {
	const racks, perRack, window = 8, 256, 256
	c := newCluster(t)
	type counts struct{ scans, probes, writes, records float64 }
	sample := func() counts {
		s := scrapeMetrics(t, c)
		var k counts
		k.scans, _ = s.Value("rocks_db_scan_selects_total")
		k.probes, _ = s.Value("rocks_db_alloc_probes_total")
		k.writes, _ = s.Value("rocks_reports_writes_total")
		k.records, _ = s.Value("rocks_reports_scheduled_total")
		return k
	}
	start := sample()
	var first, last counts
	for rack := 0; rack < racks; rack++ {
		ie, err := c.StartInsertEthers(clusterdb.MembershipCompute, rack)
		if err != nil {
			t.Fatal(err)
		}
		before := sample()
		for i := 0; i < perRack; i++ {
			if err := ie.Discover(fmt.Sprintf("02:5c:00:%02x:%02x:%02x", rack, i>>8, i&255)); err != nil {
				t.Fatalf("rack %d discover %d: %v", rack, i, err)
			}
		}
		ie.Stop()
		after := sample()
		delta := counts{after.scans - before.scans, after.probes - before.probes, after.writes - before.writes, after.records - before.records}
		if rack == 0 {
			first = delta
		}
		last = delta
	}
	if err := c.FlushReports(); err != nil {
		t.Fatal(err)
	}
	end := sample()
	t.Logf("first %d: %+v; last %d: %+v", window, first, window, last)
	for name, d := range map[string]counts{"first": first, "last": last} {
		if d.scans != 0 {
			t.Errorf("%s %d discoveries ran %v scan SELECTs, want 0 (id allocation must not scan)", name, window, d.scans)
		}
		if d.probes > 2*window {
			t.Errorf("%s %d discoveries made %v nodes_ip probes, want at most 2 each", name, window, d.probes)
		}
		if d.records != window {
			t.Errorf("%s %d discoveries requested %v report passes, want one each", name, window, d.records)
		}
	}
	discoveries := float64(racks * perRack)
	if passes := end.writes - start.writes; passes < 1 || passes > discoveries/4 {
		t.Errorf("%v report passes for %v discoveries, want at least 1 and far fewer than one each", passes, discoveries)
	}
	if rows, err := clusterdb.Nodes(c.DB, ""); err != nil || len(rows) != racks*perRack+1 {
		t.Errorf("nodes table has %d rows (%v), want %d", len(rows), err, racks*perRack+1)
	}
}

// TestHostsReadBesideReportPasses: every pass overwrites /etc/hosts in the
// bytes the last pass left, under the disk's lock, and ReadFile copies out
// under it — so a reader beside the passes only ever sees one pass's whole
// file: every line ended, the rack's machines listed 0…k−1 with none torn or
// repeated. Run under -race.
func TestHostsReadBesideReportPasses(t *testing.T) {
	c := newCluster(t)
	ie, err := c.StartInsertEthers(clusterdb.MembershipCompute, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer ie.Stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 120; i++ {
			if err := ie.Discover(fmt.Sprintf("02:cd:00:00:00:%02x", i)); err != nil {
				t.Errorf("discover %d: %v", i, err)
			}
			if err := c.WriteReports(); err != nil {
				t.Error(err)
			}
		}
	}()
	most := 0
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		hosts, err := c.Frontend.Disk().ReadFile("/etc/hosts")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(string(hosts), "\n") {
			t.Fatalf("/etc/hosts does not end in a newline: %q", hosts)
		}
		k := 0
		for _, line := range strings.Split(strings.TrimSuffix(string(hosts), "\n"), "\n") {
			f := strings.Fields(line)
			if len(f) < 2 && !strings.HasPrefix(line, "#") && line != "" {
				t.Fatalf("torn line %q in\n%s", line, hosts)
			}
			if len(f) > 0 && strings.HasPrefix(f[len(f)-1], "compute-5-") {
				if f[len(f)-1] != fmt.Sprintf("compute-5-%d", k) {
					t.Fatalf("line %q where compute-5-%d belongs in\n%s", line, k, hosts)
				}
				k++
			}
		}
		if k < most {
			t.Fatalf("/etc/hosts went back from %d machines to %d", most, k)
		}
		most = k
	}
	if most != 120 {
		t.Fatalf("the last pass listed %d of 120 machines", most)
	}
}
