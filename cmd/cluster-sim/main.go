// cluster-sim boots a complete simulated Rocks cluster — frontend services,
// kickstart CGI, distribution server, DHCP, NIS, NFS, PBS — integrates
// compute nodes, and either serves its admin API for the other cmd/ tools
// (live mode) or regenerates the paper's quantitative results (-experiment).
//
// Live mode:
//
//	cluster-sim -listen 127.0.0.1:8070 -nodes 4
//	    ... then, from other shells:
//	rocksql      -server http://127.0.0.1:8070 "select * from nodes"
//	cluster-fork -server http://127.0.0.1:8070 -cmd "rpm -q glibc"
//	shoot-node   -server http://127.0.0.1:8070 -watch compute-0-0
//
// Experiment mode (-h lists the names; experimentTable below is the one
// place they are spelled):
//
//	cluster-sim -experiment table1      # Table I reproduction
//	cluster-sim -experiment all         # every modeled figure, in order
//
// Federation mode — a two-level frontend hierarchy on one machine:
//
//	cluster-sim -listen 127.0.0.1:8090 -nodes 0                                      # parent
//	cluster-sim -listen 127.0.0.1:8091 -parent http://127.0.0.1:8090 -shard deptA:0-3
//	cluster-sim -listen 127.0.0.1:8092 -parent http://127.0.0.1:8090 -shard deptB:4-7
//
// Each child is a full frontend for its rack range; the parent's /v1/nodes,
// /v1/events, and /metrics merge every shard with per-shard provenance.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/core"
	"rocks/internal/dist"
	"rocks/internal/experiments"
	"rocks/internal/faults"
	"rocks/internal/federation"
	"rocks/internal/hardware"
	"rocks/internal/kickstart"
	"rocks/internal/lifecycle"
	"rocks/internal/mpirun"
	"rocks/internal/rexec"
	"rocks/internal/rpm"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:0", "frontend HTTP listen address")
		nodes      = flag.Int("nodes", 2, "compute nodes to integrate at startup")
		name       = flag.String("name", "Meteor", "cluster name")
		experiment = flag.String("experiment", "", "run an experiment instead of live mode: "+experimentNames())
		parent     = flag.String("parent", "", "run as a child frontend: parent frontend base URL to register with")
		shard      = flag.String("shard", "", "shard this child owns, as name or name:rack or name:lo-hi (requires -parent)")
		relays     = flag.Bool("relays", false, "enable the peer relay distribution tier (completed nodes re-serve packages)")
		demo       = flag.Bool("demo", false, "run the scripted management demo and exit")
		dbdir      = flag.String("dbdir", "", "durable cluster database directory (WAL + snapshots); empty keeps the database in memory")
		dbfsync    = flag.Bool("dbfsync", false, "fsync every WAL record before its statement applies (requires -dbdir)")
		drift      = flag.Int("drift", 0, "inject deterministic hardware-facts drift into the first N first-boot reports (chaos mode: the supervisor reinstalls the drifted nodes until reports come back clean)")
	)
	flag.Parse()

	if *experiment != "" {
		runExperiments(*experiment)
		return
	}

	cfg := core.Config{Name: *name, ListenAddr: *listen, DHCPRetry: 5 * time.Millisecond,
		DBDir: *dbdir, DBFsync: *dbfsync, EnableRelays: *relays}
	if *drift > 0 {
		// Seeded injector, one count-capped rule: the first N facts reports
		// are skewed (wrong arch + halved disk, plus a within-tolerance
		// memory wobble the comparator must classify as benign). Each
		// skewed report costs the node a supervisor-ordered reinstall;
		// the rule's budget exhausts and the loop converges to zero
		// actionable drift.
		cfg.Faults = faults.NewInjector(1, faults.Rule{
			Op: faults.OpFactsReport, Mode: faults.ModeFactsSkew, Count: *drift,
		})
	}
	rack := 0
	if *shard != "" {
		if *parent == "" {
			fmt.Fprintln(os.Stderr, "cluster-sim: -shard requires -parent")
			os.Exit(2)
		}
		sh, err := federation.ParseShard(*shard)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cluster-sim:", err)
			os.Exit(2)
		}
		cfg.Shard = sh
		if *name == "Meteor" { // untouched default: name the child after its shard
			cfg.Name = sh.Name
		}
		rack = sh.RackLo
	}
	cfg.Parent = *parent

	c, err := core.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster-sim:", err)
		os.Exit(1)
	}
	defer c.Close()
	fmt.Printf("frontend up: %s\n", c.BaseURL())
	if *parent != "" {
		fmt.Printf("role: child frontend, shard %q (racks %d..%d), registered with %s\n",
			cfg.Shard.Name, cfg.Shard.RackLo, cfg.Shard.RackHi, *parent)
	} else {
		fmt.Println("role: standalone frontend (becomes parent when children register at /v1/federation/register)")
	}
	if ri := c.Recovery(); ri != nil {
		fmt.Printf("cluster database recovered from %s: %s\n", *dbdir, ri)
	}
	fmt.Print(c.Dist.Report.Summary())

	if *nodes > 0 {
		fmt.Printf("integrating %d compute nodes (insert-ethers, sequential boot)...\n", *nodes)
		profiles := make([]hardware.Profile, *nodes)
		for i := range profiles {
			profiles[i] = hardware.PIIICompute(c.MACs(), 733)
		}
		if _, err := c.IntegrateNodes(profiles, clusterdb.MembershipCompute, rack, 2*time.Minute); err != nil {
			fmt.Fprintln(os.Stderr, "cluster-sim:", err)
			os.Exit(1)
		}
	}
	fmt.Println(c.StatusTable())

	if *drift > 0 {
		// Close the loop: the supervisor watches /v1/facts drift verdicts
		// and reinstalls drifted nodes on a fast cadence so a smoke test
		// sees convergence in seconds.
		c.StartSupervisor(core.SupervisorConfig{
			Patience:    2 * time.Second,
			Interval:    100 * time.Millisecond,
			BaseBackoff: 200 * time.Millisecond,
			MaxRetries:  5,
		})
		fmt.Printf("drift chaos: first %d facts reports skewed; supervisor remediation running\n", *drift)
	}

	if *demo {
		if err := runDemo(c); err != nil {
			fmt.Fprintln(os.Stderr, "cluster-sim demo:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("control plane ready: /v1/* (versioned API), /metrics (scrape), /v1/audit (mutation log); ^C to stop")
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}

// runDemo walks the paper's management story end to end on the live
// cluster.
func runDemo(c *core.Cluster) error {
	fmt.Println("== Table II: the nodes table ==")
	nodesReport, err := clusterdb.NodesTableReport(c.DB)
	if err != nil {
		return err
	}
	fmt.Print(nodesReport)

	fmt.Println("\n== cluster-kill via a multi-table join (§6.4) ==")
	for _, s := range c.Status() {
		if n, ok := c.NodeByName(s.Name); ok && s.Name != "frontend-0" {
			n.StartProcess("bad-job")
		}
	}
	query := `select nodes.name from nodes,memberships where ` +
		`nodes.membership = memberships.id and memberships.name = 'Compute'`
	_, killed, err := c.Kill(query, "bad-job")
	if err != nil {
		return err
	}
	fmt.Printf("killed %d runaway processes on compute nodes\n", killed)

	fmt.Println("\n== shoot-node with eKV (§6.3) ==")
	names := []string{}
	for _, s := range c.Status() {
		if s.Name != "frontend-0" {
			names = append(names, s.Name)
		}
	}
	if len(names) > 0 {
		client, err := c.ShootNodeWatch(names[0], time.Minute)
		if err != nil {
			return err
		}
		defer client.Close()
		if client.WaitFor("installation complete", time.Minute) {
			fmt.Printf("%s reinstalled; eKV transcript: %d bytes\n", names[0], len(client.Screen()))
		}
		n, _ := c.NodeByName(names[0])
		for i := 0; i < 5000 && n.State() != "up"; i++ {
			time.Sleep(2 * time.Millisecond)
		}
	}

	fmt.Println("\n== consistency after reinstall (§3.2) ==")
	ref, divergent, err := c.ConsistencyReport()
	if err != nil {
		return err
	}
	fmt.Printf("reference node %s; %d divergent nodes\n", ref, len(divergent))

	fmt.Println("\n== mpirun over REXEC (§4.1) ==")
	rows, err := clusterdb.Nodes(c.DB, "membership = 2")
	if err != nil {
		return err
	}
	var hosts []mpirun.Host
	for _, r := range rows {
		if n, ok := c.NodeByName(r.Name); ok {
			hosts = append(hosts, mpirun.Host{Name: r.Name, Slots: r.CPUs, Exec: n})
		}
	}
	if len(hosts) > 0 {
		job, err := mpirun.Launch("cpi", len(hosts), hosts)
		if err != nil {
			return err
		}
		job.Run(rexec.Request{Command: "hostname"})
		fmt.Print(job.TaggedOutput())
		job.Kill()
	}

	fmt.Println("\n== health monitor (§4) ==")
	mon := c.NewMonitor(time.Second)
	mon.Probe()
	fmt.Print(mon.Report())

	fmt.Println("\n== node lifecycle timeline (/v1/events) ==")
	if len(names) > 0 {
		fmt.Printf("%s:\n", names[0])
		fmt.Print(lifecycle.FormatTimeline(c.NodeTimeline(names[0])))
	}

	fmt.Println("\n" + c.StatusTable())
	return nil
}

// experimentTable is every -experiment name, in the order "all" runs them;
// the flag's usage string and the dispatch both derive from it.
var experimentTable = []struct {
	name, title string
	run         func()
}{
	{"table1", "Table I: reinstallation performance", func() {
		fmt.Print(experiments.FormatTableI(experiments.RunTableI()))
	}},
	{"microbench", "§6.3 micro-benchmark: serial RPM download", func() {
		got := experiments.SerialDownloadMBps(experiments.DefaultFleetParams(1, false))
		fmt.Printf("web server sourced %.1f MB/s (paper: 7-8 MB/s)\n", got)
	}},
	{"gige", "§6.3: Gigabit Ethernet scaling", func() {
		fe := experiments.DefaultFleetParams(1, false)
		fe.FrontendBps = 7.0 * 1048576 // the web server's measured 7 MB/s
		feN := experiments.MaxFullSpeedReinstalls(fe, 0.02, 20)
		ge := fe
		ge.FrontendBps *= 8.5
		geN := experiments.MaxFullSpeedReinstalls(ge, 0.02, 100)
		fmt.Printf("Fast Ethernet: %d concurrent full-speed reinstalls\n", feN)
		fmt.Printf("Gigabit:       %d concurrent (%.1fx; paper: 7.0-9.5x)\n", geN, float64(geN)/float64(feN))
	}},
	{"servers", "§6.3: replicated installation servers", func() {
		for _, servers := range []int{1, 2, 4} {
			p := experiments.DefaultFleetParams(32, false)
			p.Frontends = servers
			fmt.Printf("32 nodes on %d server(s): %.1f minutes\n", servers, experiments.RunInstallCurve(p).TimeToLast/60)
		}
	}},
	{"myrinet", "§6.3: Myrinet driver rebuild penalty", func() {
		p := experiments.DefaultFleetParams(1, false)
		with := experiments.RunInstallCurve(p).TimeToLast
		p.PostSecs -= 140 // the GM source rebuild
		without := experiments.RunInstallCurve(p).TimeToLast
		fmt.Printf("with rebuild: %.0f s, without: %.0f s, penalty %.0f%% (paper: 20-30%%)\n",
			with, without, (with-without)/without*100)
	}},
	{"updates", "§6.2.1: update tracking (124 updates in a year)", func() {
		base := dist.SyntheticRedHat()
		updates := dist.GenerateUpdates(base, 124, 1)
		d := dist.Build("updated", kickstart.DefaultFramework(),
			dist.Source{Name: "base", Repo: base},
			dist.Source{Name: "updates", Repo: updates})
		fmt.Print(d.Report.Summary())
		fmt.Printf("one update every %.1f days on average\n", 365.0/124)
		// Spot-check: every update beat its base version.
		stale := 0
		for _, up := range updates.All() {
			cur := d.Repo.Newest(up.Name, up.Arch)
			if cur == nil || rpm.Compare(cur.Version, up.Version) < 0 {
				stale++
			}
		}
		fmt.Printf("%d stale packages after rebuild (want 0)\n", stale)
	}},
	{"relaycurve", "peer/relay distribution: install completion curves", func() {
		rows := []experiments.CurveComparison{}
		for _, n := range []int{32, 1000, 10000, 100000, 1000000} {
			rows = append(rows, experiments.RunCurveComparison(n))
		}
		fmt.Print(experiments.FormatCurves(rows))
	}},
	{"federation", "federated frontends: sharded hierarchy vs one frontend", func() {
		rows := []experiments.FederationComparison{}
		for _, relay := range []bool{false, true} {
			rows = append(rows, experiments.RunFederationComparison(10000, 8, relay))
		}
		rows = append(rows, experiments.RunFederationComparison(1000000, 8, true))
		fmt.Print(experiments.FormatFederationCurves(rows))
		fmt.Println("(full mirror = cold cascade of the whole tree to every child;")
		fmt.Println(" delta mirror = unchanged tree, the cascade moves zero package bodies)")
	}},
}

// experimentNames joins the table's names for the flag's usage string.
func experimentNames() string {
	var names []string
	for _, e := range experimentTable {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), "|")
}

func runExperiments(which string) {
	ran := false
	for _, e := range experimentTable {
		if which == "all" || which == e.name {
			fmt.Printf("== %s ==\n", e.title)
			e.run()
			fmt.Println()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
		os.Exit(2)
	}
}
