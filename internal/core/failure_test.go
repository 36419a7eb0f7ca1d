package core

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/hardware"
	"rocks/internal/nfs"
	"rocks/internal/node"
	"rocks/internal/syslogd"
)

// TestNFSCommonModeFailure reproduces §4's diagnosis: "if Linux can't bring
// up the Ethernet network, either a hardware error has occurred... or a
// central (common-mode) service (often NFS) has failed. ... For a
// common-mode failure, fixing the service and then power cycling nodes
// (remotely) solves the dilemma."
func TestNFSCommonModeFailure(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 2)

	// The common-mode failure: the frontend's export disappears. Nodes that
	// boot during the outage log mount failures.
	*c.NFS = *nfs.NewServer() // swap the export table out from under mounts

	if err := c.ShootNode("compute-0-0"); err != nil {
		t.Fatal(err)
	}
	if !WaitState(nodes[0], node.StateUp, integrationTimeout) {
		t.Fatalf("node state = %s", nodes[0].State())
	}
	if _, ok := c.Syslog.WaitFor(func(m syslogd.Message) bool {
		return m.Tag == "mount" && strings.Contains(m.Text, "NFS mount failed")
	}, integrationTimeout); !ok {
		t.Fatal("mount failure not visible in syslog")
	}

	// Fix the service, then remotely power cycle the affected node: it
	// comes back with a working mount and no new failure line.
	c.NFS.AddExport("/export/home")
	before := len(c.Syslog.Grep("NFS mount failed"))
	outlet, _ := c.PDU.OutletFor(nodes[0].MAC())
	if err := c.PDU.HardCycle(outlet); err != nil {
		t.Fatal(err)
	}
	if !WaitState(nodes[0], node.StateUp, integrationTimeout) {
		t.Fatalf("node state = %s after recovery", nodes[0].State())
	}
	if after := len(c.Syslog.Grep("NFS mount failed")); after != before {
		t.Errorf("mount still failing after the service was fixed (%d -> %d)", before, after)
	}
}

// TestHealthMonitorFlagsDarkNode: a node wedges (crashed install); the
// monitor goes dark on it and the health endpoint names the PDU outlet to
// cycle — §4's management loop closed end to end.
func TestHealthMonitorFlagsDarkNode(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 1)
	n := nodes[0]

	mon := c.NewMonitor(50*time.Millisecond, 0)
	defer mon.Stop()
	mon.Probe()
	if dark := mon.Dark(); len(dark) != 0 {
		t.Fatalf("healthy cluster reported dark nodes: %v", dark)
	}

	// Wedge the node: crash it outright (hardware fault stand-in).
	n.PowerOff()
	time.Sleep(60 * time.Millisecond)
	mon.Probe()
	dark := mon.Dark()
	if len(dark) != 1 || dark[0] != "compute-0-0" {
		t.Fatalf("dark = %v", dark)
	}

	// The health endpoint points at the right outlet.
	_, body, _ := v1Call(t, c, http.MethodGet, "/v1/health", nil)
	var rows []struct {
		Host   string `json:"host"`
		Alive  bool   `json:"alive"`
		Outlet int    `json:"outlet"`
	}
	dataOf(t, body, &rows)
	var found bool
	for _, r := range rows {
		if r.Host == "compute-0-0" {
			found = true
			if r.Alive || r.Outlet == 0 {
				t.Errorf("row = %+v; want dead with an outlet", r)
			}
			// Cycle the outlet: the node reinstalls and the monitor clears.
			if err := c.PDU.HardCycle(r.Outlet); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !found {
		t.Fatalf("compute-0-0 missing from health report: %s", body)
	}
	if !WaitState(n, node.StateUp, integrationTimeout) {
		t.Fatalf("node state = %s after cycle", n.State())
	}
	mon.Probe()
	if len(mon.Dark()) != 0 {
		t.Errorf("node still dark after recovery: %v", mon.Dark())
	}
}

// TestCrashCart covers §4's final fallback: a node that no remote mechanism
// can revive is visited physically; the console shows why it died and the
// repair path brings it back through a fresh install.
func TestCrashCart(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 1)
	n := nodes[0]

	// Break the distribution and shoot the node so it crashes.
	var removed = c.Dist.Repo.Versions("sed")
	for _, p := range removed {
		c.Dist.Repo.Remove(p.NVRA())
	}
	c.ShootNode("compute-0-0")
	if !WaitState(n, node.StateCrashed, integrationTimeout) {
		t.Fatalf("state = %s", n.State())
	}
	console, err := c.CrashCart(n.MAC(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(console, "crashed") || !strings.Contains(console, "sed") {
		t.Errorf("console = %q", console)
	}
	// Repair: fix the distribution first, then the cart's repair path.
	for _, p := range removed {
		c.Dist.Repo.Add(p)
	}
	if _, err := c.CrashCart(n.MAC(), true); err != nil {
		t.Fatal(err)
	}
	if !WaitState(n, node.StateUp, integrationTimeout) {
		t.Fatalf("state = %s after repair", n.State())
	}
	if _, err := c.CrashCart("no:such:mac", false); err == nil {
		t.Error("unknown MAC accepted")
	}
}

// TestDecommission removes a node from the cluster entirely: database,
// DHCP, PBS, PDU — and the tools stop seeing it.
func TestDecommission(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 2)
	if err := c.Decommission("compute-0-1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.NodeByName("compute-0-1"); ok {
		t.Error("node still indexed")
	}
	if got := c.PBS.Moms(); len(got) != 1 {
		t.Errorf("moms = %v", got)
	}
	results, err := c.Fork("", "hostname")
	if err != nil || len(results) != 1 || results[0].Host != "compute-0-0" {
		t.Errorf("fork after decommission = %+v, %v", results, err)
	}
	if _, ok := c.PDU.OutletFor(nodes[1].MAC()); ok {
		t.Error("PDU outlet still wired")
	}
	if nodes[1].State() != node.StateOff {
		t.Errorf("node state = %s", nodes[1].State())
	}
	if err := c.Decommission("ghost"); err == nil {
		t.Error("decommission of unknown node accepted")
	}
	// The freed IP is reusable by the next discovery.
	extra, err := c.IntegrateNodes(
		[]hardware.Profile{hardware.PIIICompute(c.MACs(), 733)},
		clusterdb.MembershipCompute, 0, integrationTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if extra[0].Name() != "compute-0-1" {
		t.Errorf("replacement named %s; rank/IP should be reused", extra[0].Name())
	}
}

// TestChurnChaos interleaves shoot-node storms with cluster-fork sweeps and
// health probes: nothing may deadlock, and the cluster must converge to
// consistent.
func TestChurnChaos(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 3)
	mon := c.NewMonitor(time.Minute, 0)
	defer mon.Stop()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // fork sweeps, tolerating down nodes
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Fork("", "rpm -q glibc")
			mon.Probe()
		}
	}()
	for round := 0; round < 3; round++ {
		for _, n := range nodes {
			name := n.Name()
			if name == "" {
				continue
			}
			// Shoot may race a node that is mid-reinstall; both outcomes
			// are legitimate.
			c.ShootNode(name)
			time.Sleep(2 * time.Millisecond)
		}
		for _, n := range nodes {
			if !WaitState(n, node.StateUp, integrationTimeout) {
				t.Fatalf("%s stuck in %s during churn", n.Name(), n.State())
			}
		}
	}
	close(stop)
	wg.Wait()
	_, divergent, err := c.ConsistencyReport()
	if err != nil || len(divergent) != 0 {
		t.Errorf("after churn: divergent=%v err=%v", divergent, err)
	}
	for _, n := range nodes {
		if n.Installs() < 4 {
			t.Errorf("%s installs = %d, want ≥4", n.Name(), n.Installs())
		}
	}
}
