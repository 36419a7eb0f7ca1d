package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/hardware"
	"rocks/internal/node"
	"rocks/internal/pbs"
	"rocks/internal/rexec"
)

const integrationTimeout = 30 * time.Second

func newCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Config{
		Name:      "Meteor",
		DHCPRetry: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// addComputes integrates n PIII compute nodes into rack 0.
func addComputes(t *testing.T, c *Cluster, n int) []*node.Node {
	t.Helper()
	profiles := make([]hardware.Profile, n)
	for i := range profiles {
		profiles[i] = hardware.PIIICompute(c.MACs(), 733)
	}
	nodes, err := c.IntegrateNodes(profiles, clusterdb.MembershipCompute, 0, integrationTimeout)
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

func TestFrontendBootstrap(t *testing.T) {
	c := newCluster(t)
	fe := c.Frontend
	if fe.State() != node.StateUp {
		t.Fatalf("frontend state = %s", fe.State())
	}
	if fe.Name() != "frontend-0" || fe.IP() != FrontendIP {
		t.Errorf("frontend identity = %s/%s", fe.Name(), fe.IP())
	}
	for _, svc := range []string{"httpd", "mysqld", "ypserv", "nfs", "pbs_server", "maui", "dhcpd"} {
		if !fe.HasService(svc) {
			t.Errorf("frontend service %s missing: %v", svc, fe.Services())
		}
	}
	// The Figure 2 post script ran: dhcpd listens only on eth0. Our mini
	// shell can't run awk, so the script text must at least be on disk.
	if got := fe.Disk().List("/root/ks-post"); len(got) == 0 {
		t.Error("frontend post scripts missing")
	}
	if name, _ := clusterdb.SiteValue(c.DB, "ClusterName"); name != "Meteor" {
		t.Errorf("ClusterName = %q", name)
	}
}

func TestIntegrateComputeNodes(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 3)
	for i, n := range nodes {
		want := fmt.Sprintf("compute-0-%d", i)
		if n.Name() != want {
			t.Errorf("node %d named %s, want %s", i, n.Name(), want)
		}
		if n.State() != node.StateUp {
			t.Errorf("%s state = %s", want, n.State())
		}
		if n.PackageDB().Len() != 162 {
			t.Errorf("%s has %d packages", want, n.PackageDB().Len())
		}
		if !n.MyrinetOperational() {
			t.Errorf("%s Myrinet not operational", want)
		}
	}
	// Database reflects the integration.
	rows, err := clusterdb.Nodes(c.DB, "membership = 2")
	if err != nil || len(rows) != 3 {
		t.Fatalf("db rows = %d, %v", len(rows), err)
	}
	// PBS knows all three moms.
	if got := c.PBS.Moms(); len(got) != 3 {
		t.Errorf("moms = %v", got)
	}
	// Reports regenerated on the frontend's disk.
	hosts, err := c.Frontend.Disk().ReadFile("/etc/hosts")
	if err != nil || !strings.Contains(string(hosts), "compute-0-2") {
		t.Errorf("frontend /etc/hosts stale: %v", err)
	}
	pbsNodes, _ := c.Frontend.Disk().ReadFile("/opt/pbs/server_priv/nodes")
	if !strings.Contains(string(pbsNodes), "compute-0-0 np=1") {
		t.Errorf("PBS nodes file = %q", pbsNodes)
	}
}

func TestClusterConsistency(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 3)
	ref, divergent, err := c.ConsistencyReport()
	if err != nil || len(divergent) != 0 {
		t.Fatalf("fresh cluster inconsistent: ref=%s divergent=%v err=%v", ref, divergent, err)
	}
	// Wreck one node, detect, reinstall, verify.
	nodes[1].PackageDB().Erase("glibc")
	_, divergent, _ = c.ConsistencyReport()
	if len(divergent) != 1 || divergent[0] != "compute-0-1" {
		t.Fatalf("divergence not detected: %v", divergent)
	}
	if err := c.ShootNode("compute-0-1"); err != nil {
		t.Fatal(err)
	}
	if !WaitState(nodes[1], node.StateUp, integrationTimeout) {
		t.Fatalf("node stuck in %s after shoot", nodes[1].State())
	}
	_, divergent, _ = c.ConsistencyReport()
	if len(divergent) != 0 {
		t.Errorf("still divergent after reinstall: %v", divergent)
	}
	if nodes[1].Installs() != 2 {
		t.Errorf("installs = %d", nodes[1].Installs())
	}
}

// TestShootNodeStartsAFreshInstallLog: a node shot any number of times
// carries the transcript of its latest install, in memory and on its disk,
// not one per install it has ever been through — a reinstalled node is the
// node a fresh install produces (§4), and the frontend's memory does not grow
// with the reinstalls it has performed.
func TestShootNodeStartsAFreshInstallLog(t *testing.T) {
	c := newCluster(t)
	n := addComputes(t, c, 1)[0]
	lines := len(n.InstallLog())
	file, err := n.Disk().ReadFile("/root/install.log")
	if err != nil || lines == 0 {
		t.Fatalf("first install left %d log lines, install.log: %v", lines, err)
	}
	for install := 2; install <= 3; install++ {
		if err := c.ShootNode(n.Name()); err != nil {
			t.Fatal(err)
		}
		if !WaitState(n, node.StateUp, integrationTimeout) {
			t.Fatalf("node stuck in %s after shoot", n.State())
		}
		got, err := n.Disk().ReadFile("/root/install.log")
		if err != nil {
			t.Fatal(err)
		}
		if n.Installs() != install || len(n.InstallLog()) != lines || string(got) != string(file) {
			t.Errorf("install %d (counter %d): %d log lines and %d bytes on disk, the first left %d and %d",
				install, n.Installs(), len(n.InstallLog()), len(got), lines, len(file))
		}
	}
}

func TestShootNodeWatchShowsEKV(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 1)
	client, err := c.ShootNodeWatch("compute-0-0", integrationTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if !client.WaitFor("Package Installation", integrationTimeout) {
		t.Errorf("eKV screen = %q", client.Screen())
	}
	if !WaitState(nodes[0], node.StateUp, integrationTimeout) {
		t.Fatal("node never came back")
	}
}

// TestShootNodeWatchNeverMissesAnInstall: an install lasts a millisecond or
// two, less than any poll of the node's eKV address can be trusted to catch.
// The watcher is handed the port by the installer itself, so fifty shoots in
// a row, on one processor, each return a client that saw the install through.
func TestShootNodeWatchNeverMissesAnInstall(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := newCluster(t)
	nodes := addComputes(t, c, 1)
	for shot := 1; shot <= 50; shot++ {
		client, err := c.ShootNodeWatch("compute-0-0", integrationTimeout)
		if err != nil {
			t.Fatalf("shoot %d: %v", shot, err)
		}
		if !client.WaitFor("Package Installation", integrationTimeout) {
			t.Fatalf("shoot %d: eKV screen = %q", shot, client.Screen())
		}
		client.Close()
		if !WaitState(nodes[0], node.StateUp, integrationTimeout) {
			t.Fatalf("shoot %d: node never came back", shot)
		}
	}
}

func TestHardPowerCycleForcesReinstall(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 1)
	n := nodes[0]
	outlet, ok := c.PDU.OutletFor(n.MAC())
	if !ok {
		t.Fatal("node not wired to the PDU")
	}
	if err := c.PDU.HardCycle(outlet); err != nil {
		t.Fatal(err)
	}
	if !WaitState(n, node.StateUp, integrationTimeout) {
		t.Fatalf("node state = %s after power cycle", n.State())
	}
	if n.Installs() != 2 {
		t.Errorf("installs = %d; hard power cycle must force reinstallation", n.Installs())
	}
}

func TestClusterKillViaSQL(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 2)
	nodes[0].StartProcess("bad-job")
	nodes[1].StartProcess("bad-job")
	c.Frontend.StartProcess("bad-job")

	query := `select nodes.name from nodes,memberships where ` +
		`nodes.membership = memberships.id and memberships.name = 'Compute'`
	_, killed, err := c.Kill(query, "bad-job")
	if err != nil {
		t.Fatal(err)
	}
	if killed != 2 {
		t.Errorf("killed = %d", killed)
	}
	if len(c.Frontend.Processes()) != 1 {
		t.Error("frontend process killed by a Compute-only query")
	}
}

func TestForkRpmQuery(t *testing.T) {
	c := newCluster(t)
	addComputes(t, c, 2)
	results, err := c.Fork("", "rpm -q glibc")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil || !strings.HasPrefix(r.Output, "glibc-") {
			t.Errorf("%s: %q %v", r.Host, r.Output, r.Err)
		}
	}
}

func TestNISUserVisibleOnComputeNodes(t *testing.T) {
	c := newCluster(t)
	addComputes(t, c, 1)
	if err := c.AddUser("bruno", 500); err != nil {
		t.Fatal(err)
	}
	// The account map is dynamic: nodes see it without reinstalling.
	daemons, err := c.RexecDaemons("compute-0-0")
	if err != nil {
		t.Fatal(err)
	}
	_ = daemons
	n, _ := c.NodeByName("compute-0-0")
	m, _ := c.NFS.Mount("/export/home", "/home", n.Name())
	data, err := m.ReadFile("/home/bruno/.profile")
	if err != nil || !strings.Contains(string(data), "bruno") {
		t.Errorf("home dir = %q, %v", data, err)
	}
}

func TestRexecAcrossCluster(t *testing.T) {
	c := newCluster(t)
	addComputes(t, c, 2)
	daemons, err := c.RexecDaemons("compute-0-0", "compute-0-1")
	if err != nil {
		t.Fatal(err)
	}
	results := rexec.RunParallel(daemons, rexec.Request{Command: "hostname"})
	if results[0].Stdout != "compute-0-0\n" || results[1].Stdout != "compute-0-1\n" {
		t.Errorf("results = %+v", results)
	}
	tagged := rexec.TagOutput(results)
	if !strings.Contains(tagged, "compute-0-1: compute-0-1") {
		t.Errorf("tagged = %q", tagged)
	}
}

func TestReinstallClusterViaPBS(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 2)
	// A long-running app occupies node 0.
	appID := c.PBS.Submit(pbs.Job{Name: "science", NodeCount: 1, Hold: true})
	c.PBS.Schedule()
	appJob, _ := c.PBS.Job(appID)
	if appJob.State != pbs.StateRunning {
		t.Fatalf("app job = %+v", appJob)
	}
	busyHost := appJob.Assigned[0]

	done := make(chan error, 1)
	go func() { done <- c.ReinstallCluster(integrationTimeout) }()

	// Give the rolling reinstall a moment: the idle node reinstalls, the
	// busy one must not.
	time.Sleep(50 * time.Millisecond)
	var busyNode *node.Node
	for _, n := range nodes {
		if n.Name() == busyHost {
			busyNode = n
		}
	}
	if busyNode.Installs() != 1 {
		t.Errorf("busy node reinstalled while the app was running")
	}
	// The app completes; the drain proceeds.
	if err := c.PBS.Finish(appID); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if !WaitState(n, node.StateUp, integrationTimeout) {
			t.Fatalf("%s stuck in %s", n.Name(), n.State())
		}
		if n.Installs() != 2 {
			t.Errorf("%s installs = %d", n.Name(), n.Installs())
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	c := newCluster(t)
	addComputes(t, c, 1)
	get := func(path string) string {
		resp, err := http.Get(c.BaseURL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}
	if !strings.Contains(get("/tables/nodes"), "compute-0-0") {
		t.Error("/tables/nodes missing the compute node")
	}
	if !strings.Contains(get("/tables/memberships"), "Ethernet Switches") {
		t.Error("/tables/memberships missing defaults")
	}
	if !strings.Contains(get("/graph.dot"), "digraph rocks") {
		t.Error("/graph.dot broken")
	}
	var status []NodeStatus
	if err := json.Unmarshal([]byte(get("/status")), &status); err != nil {
		t.Fatalf("status JSON: %v", err)
	}
	if len(status) != 2 { // frontend + compute
		t.Errorf("status rows = %d", len(status))
	}
}

func TestShootUnknownNode(t *testing.T) {
	c := newCluster(t)
	if err := c.ShootNode("compute-9-9"); err == nil {
		t.Error("shooting an unknown node should fail")
	}
}

func TestStatusTable(t *testing.T) {
	c := newCluster(t)
	out := c.StatusTable()
	if !strings.Contains(out, "frontend-0") || !strings.Contains(out, "NAME") {
		t.Errorf("StatusTable = %q", out)
	}
}
