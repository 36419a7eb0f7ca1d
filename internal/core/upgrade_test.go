package core

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/dist"
	"rocks/internal/hardware"
	"rocks/internal/kickstart"
	"rocks/internal/mpirun"
	"rocks/internal/node"
	"rocks/internal/rexec"
	"rocks/internal/rpm"
)

// TestKernelUpgradeFlow reproduces §3.3's kernel customization path: the
// administrator builds a new kernel RPM (`make rpm`), binds it into a new
// distribution with rocks-dist, and instantiates it "on all desired nodes
// by simply reinstalling them". The Myrinet driver must come out rebuilt
// against the new kernel (§6.3).
func TestKernelUpgradeFlow(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 2)
	oldKernel := nodes[0].KernelVersion()

	// Craft the custom kernel RPM: same name, higher version.
	cur := c.Dist.Repo.Newest("kernel", "i386")
	custom := rpm.New("kernel", rpm.Version{Version: cur.Version.Version, Release: cur.Version.Release + ".custom1"},
		rpm.ArchI386, rpm.FileEntry{Path: "/boot/config-custom", Data: []byte("CONFIG_HPC=y")})
	custom.Size = cur.Size
	local := rpm.NewRepository("site-kernels")
	local.Add(custom)

	// rocks-dist: bind the kernel into a new distribution.
	rebuilt := dist.Build(c.Dist.Name, c.Dist.Framework,
		dist.Source{Name: "current", Repo: c.Dist.Repo},
		dist.Source{Name: "site-kernels", Repo: local})
	if len(rebuilt.Report.Superseded) != 1 {
		t.Fatalf("superseded = %v, want just the old kernel", rebuilt.Report.Superseded)
	}
	*c.Dist = *rebuilt

	// Reinstall and verify.
	if err := c.ShootNode("compute-0-0", "compute-0-1"); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if !WaitState(n, node.StateUp, integrationTimeout) {
			t.Fatalf("%s stuck in %s; log: %v", n.Name(), n.State(), n.InstallLog())
		}
		if n.KernelVersion() == oldKernel {
			t.Errorf("%s still runs %s", n.Name(), oldKernel)
		}
		if !strings.HasSuffix(n.KernelVersion(), ".custom1") {
			t.Errorf("%s kernel = %s, want the custom build", n.Name(), n.KernelVersion())
		}
		// The per-install source rebuild keeps Myrinet working across
		// kernel changes — the whole point of §6.3's strategy.
		if !n.MyrinetOperational() {
			t.Errorf("%s Myrinet broken after kernel upgrade (driver for %q, kernel %q)",
				n.Name(), n.GMDriverFor(), n.KernelVersion())
		}
		if _, err := n.Disk().ReadFile("/boot/config-custom"); err != nil {
			t.Errorf("%s missing the custom kernel payload: %v", n.Name(), err)
		}
	}
}

// TestFailedInstallRecoveryViaPDU injects a distribution fault mid-fleet:
// the install crashes (visible on eKV), the administrator fixes the
// distribution and recovers the node with a hard power cycle (§4).
func TestFailedInstallRecoveryViaPDU(t *testing.T) {
	c := newCluster(t)
	nodes := addComputes(t, c, 1)
	n := nodes[0]

	// Break the distribution: drop bash.
	var removed []*rpm.Package
	for _, p := range c.Dist.Repo.Versions("bash") {
		removed = append(removed, p)
		c.Dist.Repo.Remove(p.NVRA())
	}
	if err := c.ShootNode("compute-0-0"); err != nil {
		t.Fatal(err)
	}
	if !WaitState(n, node.StateCrashed, integrationTimeout) {
		t.Fatalf("node state = %s, want crashed", n.State())
	}
	logs := strings.Join(n.InstallLog(), "\n")
	if !strings.Contains(logs, "bash") {
		t.Errorf("install log does not name the missing package: %q", logs)
	}

	// Fix the distribution, then recover via the PDU: a hard power cycle
	// forces reinstallation.
	for _, p := range removed {
		c.Dist.Repo.Add(p)
	}
	outlet, ok := c.PDU.OutletFor(n.MAC())
	if !ok {
		t.Fatal("node not wired")
	}
	if err := c.PDU.HardCycle(outlet); err != nil {
		t.Fatal(err)
	}
	if !WaitState(n, node.StateUp, integrationTimeout) {
		t.Fatalf("node state = %s after recovery", n.State())
	}
	if n.PackageDB().Len() != 162 {
		t.Errorf("recovered node has %d packages", n.PackageDB().Len())
	}
}

// TestParallelDiscovery exercises the §6.4 footnote: "This procedure can be
// executed in parallel if a node's physical location is unimportant." All
// nodes power on at once; every one must end Up with a unique name and IP.
func TestParallelDiscovery(t *testing.T) {
	c := newCluster(t)
	ie, err := c.StartInsertEthers(clusterdb.MembershipCompute, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ie.Stop()

	const n = 4
	nodes := make([]*node.Node, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		nodes[i] = node.New(hardware.PIIICompute(c.MACs(), 733))
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.PowerOn(nodes[i])
		}(i)
	}
	wg.Wait()
	names := map[string]bool{}
	ips := map[string]bool{}
	for _, nd := range nodes {
		if !WaitState(nd, node.StateUp, integrationTimeout) {
			t.Fatalf("node %s stuck in %s", nd.MAC(), nd.State())
		}
		if names[nd.Name()] || ips[nd.IP()] {
			t.Fatalf("duplicate identity: %s/%s", nd.Name(), nd.IP())
		}
		names[nd.Name()] = true
		ips[nd.IP()] = true
	}
	rows, _ := clusterdb.Nodes(c.DB, "membership = 2")
	if len(rows) != n {
		t.Errorf("db rows = %d", len(rows))
	}
}

// TestWebFormGeneratesFrontendKickstart covers §7: "the frontend Kickstart
// file is built from a simple web form."
func TestWebFormGeneratesFrontendKickstart(t *testing.T) {
	c := newCluster(t)
	resp, err := http.Get(c.BaseURL() + "/install/frontend-form")
	if err != nil {
		t.Fatal(err)
	}
	form, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(form), "<form") || !strings.Contains(string(form), "Cluster name") {
		t.Fatalf("form = %q", form)
	}

	resp, err = http.Get(c.BaseURL() + "/install/frontend-form?generate=1&cluster=Scripps&timezone=US/Pacific")
	if err != nil {
		t.Fatal(err)
	}
	ks, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(ks)
	for _, want := range []string{"install", "%packages", "mysql-server", "timezone US/Pacific"} {
		if !strings.Contains(text, want) {
			t.Errorf("generated kickstart missing %q", want)
		}
	}
}

// TestMpirunOnCluster launches a parallel job across live nodes using the
// machinefile derived from the database — §4.1's interactive path.
func TestMpirunOnCluster(t *testing.T) {
	c := newCluster(t)
	addComputes(t, c, 2)
	rows, err := clusterdb.Nodes(c.DB, "membership = 2")
	if err != nil {
		t.Fatal(err)
	}
	var hosts []mpirun.Host
	for _, r := range rows {
		nd, ok := c.NodeByName(r.Name)
		if !ok {
			t.Fatalf("no live node for %s", r.Name)
		}
		hosts = append(hosts, mpirun.Host{Name: r.Name, Slots: r.CPUs, Exec: nd})
	}
	job, err := mpirun.Launch("cpi", 2, hosts)
	if err != nil {
		t.Fatal(err)
	}
	defer job.Kill()
	results := job.Run(rexec.Request{Command: "hostname"})
	if results[0].Stdout != "compute-0-0\n" || results[1].Stdout != "compute-0-1\n" {
		t.Errorf("results = %+v", results)
	}
	// cluster-kill can clean up the whole parallel job.
	_, killed, err := c.Kill("", "cpi.0")
	if err != nil || killed != 1 {
		t.Errorf("cluster-kill of rank 0: %d, %v", killed, err)
	}
}

// TestClusterFromParentDistribution bootstraps a cluster whose distribution
// derives from a parent served over HTTP — the Figure 6 campus flow ending
// in installed nodes that carry the parent's packages.
func TestClusterFromParentDistribution(t *testing.T) {
	parent := dist.Build("npaci", kickstart.DefaultFramework(),
		dist.Source{Name: "redhat", Repo: dist.SyntheticRedHat()},
		dist.Source{Name: "rocks-local", Repo: dist.LocalRocksPackages()})
	srv := httptest.NewServer(dist.NewServer(parent))
	defer srv.Close()

	c, err := New(Config{
		Name:      "campus",
		ParentURL: srv.URL,
		Sources:   []dist.Source{}, // nothing local: everything mirrored
		DHCPRetry: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Dist.Repo.Len() != parent.Repo.Len() {
		t.Errorf("mirrored %d packages, parent has %d", c.Dist.Repo.Len(), parent.Repo.Len())
	}
	nodes, err := c.IntegrateNodes(
		[]hardware.Profile{hardware.PIIICompute(c.MACs(), 733)},
		clusterdb.MembershipCompute, 0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := nodes[0].PackageDB().Query("rocks-tools")
	if !ok || m.Source == "" {
		t.Errorf("node missing parent package: %+v %v", m, ok)
	}
}

// TestClusterBadParentURL fails fast.
func TestClusterBadParentURL(t *testing.T) {
	if _, err := New(Config{ParentURL: "http://127.0.0.1:1"}); err == nil {
		t.Error("unreachable parent accepted")
	}
}
