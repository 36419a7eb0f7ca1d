// Paper-artifact benchmarks: one per table and figure of the paper's
// evaluation that is an artifact rather than a modeled time (Tables II/III,
// Figures 1-7, update tracking, the mirror pass). Each regenerates the
// artifact; custom metrics report the figures the paper prints (package
// counts, rows, bytes). Table I and the §6.3 ablations are modeled times:
// `cluster-sim -experiment all` prints them, internal/experiments' tests
// assert them, and rocks-bench's modeled_100k workload times the model.
// EXPERIMENTS.md records the paper-versus-measured comparison.
package rocks_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/core"
	"rocks/internal/dist"
	"rocks/internal/hardware"
	"rocks/internal/kickstart"
	"rocks/internal/node"
	"rocks/internal/rpm"
	"rocks/internal/simnet"
)

// --- Table II: the nodes table -------------------------------------------

// paperNodesDB rebuilds the exact database of Table II.
func paperNodesDB(b *testing.B) *clusterdb.Database {
	db := clusterdb.New()
	if err := clusterdb.InitSchema(db); err != nil {
		b.Fatal(err)
	}
	clusterdb.AddMembership(db, "NFS", 7, false)
	clusterdb.AddMembership(db, "Web", 8, false)
	rows := []clusterdb.Node{
		{MAC: "00:30:c1:d8:ac:80", Name: "frontend-0", Membership: 1, IP: "10.1.1.1", Comment: "Gateway machine"},
		{MAC: "00:01:e7:1a:be:00", Name: "network-0-0", Membership: 4, IP: "10.255.255.253", Comment: "Switch for Cabinet 0"},
		{MAC: "00:50:8b:a5:4d:b1", Name: "nfs-0-0", Membership: 7, IP: "10.255.255.249", Comment: "NFS Server in Cabinet 0"},
		{MAC: "00:50:8b:e0:3a:a7", Name: "compute-0-0", Membership: 2, IP: "10.255.255.245", Comment: "Compute node"},
		{MAC: "00:50:8b:e0:44:5e", Name: "compute-0-1", Membership: 2, Rank: 1, IP: "10.255.255.244", Comment: "Compute node"},
		{MAC: "00:50:8b:e0:40:95", Name: "compute-0-2", Membership: 2, Rank: 2, IP: "10.255.255.243", Comment: "Compute node"},
		{MAC: "00:50:8b:e0:40:93", Name: "compute-0-3", Membership: 2, Rank: 3, IP: "10.255.255.242", Comment: "Compute node"},
		{MAC: "00:50:8b:c5:c7:d3", Name: "web-1-0", Membership: 8, Rack: 1, IP: "10.255.255.246", Comment: "Web Server in Cabinet 1"},
	}
	for _, n := range rows {
		if _, err := clusterdb.InsertNode(db, n); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkTableII_NodesTable regenerates the paper's nodes table from a
// live database, including the SQL round trip.
func BenchmarkTableII_NodesTable(b *testing.B) {
	db := paperNodesDB(b)
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = clusterdb.NodesTableReport(db)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !strings.Contains(out, "web-1-0") {
		b.Fatal("report incomplete")
	}
	b.ReportMetric(float64(strings.Count(out, "\n")-1), "rows")
}

// BenchmarkTableIII_Memberships regenerates the memberships table.
func BenchmarkTableIII_Memberships(b *testing.B) {
	db := clusterdb.New()
	if err := clusterdb.InitSchema(db); err != nil {
		b.Fatal(err)
	}
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = clusterdb.MembershipsTableReport(db)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !strings.Contains(out, "Power Units") {
		b.Fatal("report incomplete")
	}
	b.ReportMetric(float64(strings.Count(out, "\n")-1), "rows")
}

// --- Figure 1: cluster hardware architecture -----------------------------

// BenchmarkFig1_Topology constructs the paper's minimal architecture — a
// frontend with two Ethernet interfaces, N compute nodes on a private
// Ethernet, power units — and pushes one management message across every
// link to prove connectivity.
func BenchmarkFig1_Topology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := simnet.New()
		frontendEth := sim.NewLink("frontend-eth0", 12.5e6)
		publicEth := sim.NewLink("frontend-eth1", 12.5e6)
		const nodes = 16
		done := 0
		for j := 0; j < nodes; j++ {
			nodeEth := sim.NewLink(fmt.Sprintf("compute-%d-eth0", j), 12.5e6)
			sim.StartFlow("mgmt", 1500, []*simnet.Link{frontendEth, nodeEth}, 0, func() { done++ })
		}
		sim.StartFlow("public", 1500, []*simnet.Link{publicEth}, 0, func() { done++ })
		sim.Run()
		if done != nodes+1 {
			b.Fatalf("connectivity: %d/%d", done, nodes+1)
		}
	}
}

// --- Figure 2: the XML node file -----------------------------------------

// figure2XML is the paper's Figure 2 node file.
const figure2XML = `<?xml version="1.0" standalone="no"?>
<KICKSTART>
        <DESCRIPTION>Setup the DHCP server for the cluster</DESCRIPTION>
        <PACKAGE>dhcp</PACKAGE>
        <POST>
                awk '
                        /^DHCPD_INTERFACES/ {
                                printf("DHCPD_INTERFACES=\"eth0\"\n");
                                next;
                        }
                        {
                                print $0;
                        } ' /etc/sysconfig/dhcpd &gt; /tmp/dhcpd
                mv /tmp/dhcpd /etc/sysconfig/dhcpd
        </POST>
</KICKSTART>`

// BenchmarkFig2_ParseNodeFile parses the paper's DHCP node file.
func BenchmarkFig2_ParseNodeFile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nf, err := kickstart.ParseNode("dhcp-server", strings.NewReader(figure2XML))
		if err != nil {
			b.Fatal(err)
		}
		if nf.Packages[0].Name != "dhcp" {
			b.Fatal("parse lost the package")
		}
	}
}

// --- Figure 3: the XML graph file ----------------------------------------

const figure3XML = `<?xml version="1.0" standalone="no"?>
<graph>
	<description>Default Rocks graph excerpt</description>
	<edge from="compute" to="mpi"/>
	<edge from="frontend" to="mpi"/>
	<edge from="mpi" to="c-development"/>
	<edge from="compute" to="myrinet" arch="i386,athlon"/>
</graph>`

// BenchmarkFig3_ParseGraph parses a Figure 3-style graph file.
func BenchmarkFig3_ParseGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := kickstart.ParseGraph("default", strings.NewReader(figure3XML))
		if err != nil {
			b.Fatal(err)
		}
		if len(g.Edges) != 4 {
			b.Fatal("parse lost edges")
		}
	}
}

// --- Figure 4: graph traversal and visualization -------------------------

// BenchmarkFig4_TraverseGraph traverses the full default graph for a
// compute appliance and renders the DOT visualization.
func BenchmarkFig4_TraverseGraph(b *testing.B) {
	fw := kickstart.DefaultFramework()
	attrs := kickstart.DefaultAttrs("http://10.1.1.1/install/dist", "10.1.1.1")
	var pkgs int
	for i := 0; i < b.N; i++ {
		p, err := fw.Generate(kickstart.Request{Appliance: "compute", Arch: "i386",
			NodeName: "compute-0-0", Attrs: attrs})
		if err != nil {
			b.Fatal(err)
		}
		pkgs = len(p.Packages)
		if dot := fw.DOT(); !strings.Contains(dot, "digraph") {
			b.Fatal("bad dot")
		}
	}
	b.ReportMetric(float64(pkgs), "packages")
}

// --- Figure 5: building a distribution -----------------------------------

// BenchmarkFig5_BuildDist runs the full rocks-dist merge: Red Hat base +
// updates + local Rocks packages.
func BenchmarkFig5_BuildDist(b *testing.B) {
	base := dist.SyntheticRedHat()
	updates := dist.GenerateUpdates(base, 124, 1)
	local := dist.LocalRocksPackages()
	fw := kickstart.DefaultFramework()
	b.ResetTimer()
	var d *dist.Distribution
	for i := 0; i < b.N; i++ {
		d = dist.Build("rocks", fw,
			dist.Source{Name: "redhat", Repo: base},
			dist.Source{Name: "updates", Repo: updates},
			dist.Source{Name: "rocks-local", Repo: local})
	}
	b.ReportMetric(float64(d.Report.Included), "packages")
	b.ReportMetric(float64(len(d.Report.Superseded)), "superseded")
}

// --- Figure 6: hierarchical distributions --------------------------------

// BenchmarkFig6_HierarchicalDist derives a campus and a department
// distribution from the NPACI master; the metrics show the derived tree is
// lightweight (§6.2.3: ~25 MB of links, built in under a minute — here,
// microseconds, because links are references).
func BenchmarkFig6_HierarchicalDist(b *testing.B) {
	npaci := dist.Build("npaci", kickstart.DefaultFramework(),
		dist.Source{Name: "redhat", Repo: dist.SyntheticRedHat()},
		dist.Source{Name: "rocks-local", Repo: dist.LocalRocksPackages()})
	campusLocal := rpm.NewRepository("campus-rpms")
	campusLocal.Add(rpm.New("licensed-fortran", rpm.Version{Version: "4.0", Release: "2"}, rpm.ArchI386))
	b.ResetTimer()
	var child *dist.Distribution
	for i := 0; i < b.N; i++ {
		child = dist.BuildChild("campus", npaci, nil,
			dist.Source{Name: "campus-rpms", Repo: campusLocal})
	}
	b.ReportMetric(float64(child.Report.Linked), "linked")
	b.ReportMetric(float64(child.Report.Copied), "copied")
	b.ReportMetric(float64(child.Report.CopiedBytes), "copied-bytes")
}

// --- Figure 7: shoot-node and eKV ----------------------------------------

// BenchmarkFig7_EKVScreen measures a full live reinstallation watched over
// eKV: shoot-node, attach to the telnet-compatible port, stream the Red Hat
// install screen, wait for the node to rejoin the cluster.
func BenchmarkFig7_EKVScreen(b *testing.B) {
	c, err := core.New(core.Config{Name: "bench", DHCPRetry: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	nodes, err := c.IntegrateNodes(
		[]hardware.Profile{hardware.PIIICompute(c.MACs(), 733)},
		clusterdb.MembershipCompute, 0, time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	n := nodes[0]
	b.ResetTimer()
	var screen string
	for i := 0; i < b.N; i++ {
		client, err := c.ShootNodeWatch("compute-0-0", time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if !client.WaitFor("installation complete", time.Minute) {
			b.Fatalf("install never completed: %q", client.Screen())
		}
		screen = client.Screen()
		client.Close()
		if !core.WaitState(n, node.StateUp, time.Minute) {
			b.Fatal("node did not come back up")
		}
	}
	b.StopTimer()
	if !strings.Contains(screen, "Package Installation") {
		b.Fatal("eKV screen incomplete")
	}
	b.ReportMetric(float64(len(screen)), "screen-bytes")
	b.ReportMetric(float64(n.Installs()), "installs")
}

// --- §6.2.1: update tracking ----------------------------------------------

// BenchmarkUpdateTracking replays Red Hat 6.2's measured year of updates —
// 124 updated packages, one every three days — through rocks-dist and
// reports how many stale packages survive (must be zero).
func BenchmarkUpdateTracking(b *testing.B) {
	base := dist.SyntheticRedHat()
	updates := dist.GenerateUpdates(base, 124, 1)
	fw := kickstart.DefaultFramework()
	b.ResetTimer()
	var stale, superseded int
	for i := 0; i < b.N; i++ {
		d := dist.Build("updated", fw,
			dist.Source{Name: "base", Repo: base},
			dist.Source{Name: "updates", Repo: updates})
		superseded = len(d.Report.Superseded)
		stale = 0
		for _, up := range updates.All() {
			cur := d.Repo.Newest(up.Name, up.Arch)
			if cur == nil || rpm.Compare(cur.Version, up.Version) < 0 {
				stale++
			}
		}
	}
	if stale != 0 {
		b.Fatalf("%d stale packages after update pass", stale)
	}
	b.ReportMetric(float64(superseded), "superseded")
	b.ReportMetric(365.0/124, "days-per-update")
}

// BenchmarkProfileGeneration isolates the kickstart layer: a full graph
// traversal plus substitution per profile (uncached) versus one traversal
// amortized over every node of an appliance class (cached).
func BenchmarkProfileGeneration(b *testing.B) {
	fw := kickstart.DefaultFramework()
	attrs := kickstart.DefaultAttrs("http://10.1.1.1/install/dist", "10.1.1.1")
	req := kickstart.Request{Appliance: "compute", Arch: "i386", NodeName: "compute-0-0",
		Attrs: attrs, NodeAttrs: map[string]string{"Kickstart_PublicHostname": "compute-0-0"}}
	b.Run("uncached", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := fw.Generate(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("cached", func(b *testing.B) {
		pc := kickstart.NewProfileCache(fw)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := pc.Generate(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkMirrorWorkers measures the parallel rocks-dist mirror pass at 1
// and 8 workers against a parent with 2 ms of per-request latency — the
// campus-to-department distance of Figure 6, where the worker pool's job is
// to keep round trips in flight rather than serializing on them.
func BenchmarkMirrorWorkers(b *testing.B) {
	parent := dist.Build("npaci", kickstart.DefaultFramework(),
		dist.Source{Name: "redhat", Repo: dist.SyntheticRedHat()})
	inner := dist.NewServer(parent)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				repo, _, err := dist.Mirror(context.Background(), srv.URL, "bench", dist.MirrorOptions{
					Fetcher: dist.Fetcher{HTTP: srv.Client()}, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				n = repo.Len()
			}
			b.ReportMetric(float64(n), "packages")
		})
	}
}

// BenchmarkMirrorDelta compares a full replication pass against a delta
// pass over an unchanged parent and a 20-package update: the delta pays
// only for changed digests, so an unchanged re-mirror transfers zero
// package bodies regardless of distribution size.
func BenchmarkMirrorDelta(b *testing.B) {
	base := dist.SyntheticRedHat()
	parent := dist.Build("npaci", kickstart.DefaultFramework(),
		dist.Source{Name: "redhat", Repo: base})
	inner := dist.NewServer(parent)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond) // per-request wire latency, as in BenchmarkMirrorWorkers
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	baseline, _, err := dist.Mirror(context.Background(), srv.URL, "baseline",
		dist.MirrorOptions{Fetcher: dist.Fetcher{HTTP: srv.Client()}})
	if err != nil {
		b.Fatal(err)
	}
	updated := dist.Build("npaci", kickstart.DefaultFramework(),
		dist.Source{Name: "redhat", Repo: base},
		dist.Source{Name: "updates", Repo: dist.GenerateUpdates(base, 20, 5)})
	updatedInner := dist.NewServer(updated)
	updSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		updatedInner.ServeHTTP(w, r)
	}))
	defer updSrv.Close()

	cases := []struct {
		name     string
		url      string
		client   *http.Client
		baseline *rpm.Repository
	}{
		{"full", srv.URL, srv.Client(), nil},
		{"delta-unchanged", srv.URL, srv.Client(), baseline},
		{"delta-20-updates", updSrv.URL, updSrv.Client(), baseline},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var rep dist.MirrorReport
			for i := 0; i < b.N; i++ {
				var err error
				_, rep, err = dist.Mirror(context.Background(), tc.url, "bench",
					dist.MirrorOptions{Fetcher: dist.Fetcher{HTTP: tc.client}, Baseline: tc.baseline})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.Fetched), "fetched")
			b.ReportMetric(float64(rep.Skipped), "skipped")
			b.ReportMetric(float64(rep.FetchedBytes), "bytes")
		})
	}
}
