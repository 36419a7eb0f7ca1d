// Database fast-path benchmarks: the discovery storm, the kickstart CGI's
// point-lookup mix and report regeneration — each with the optimization on
// and off so BENCH_pr3.json can record the ratio. The legacy sub-benchmarks
// reproduce the original tools' behavior (full table scans, wholesale DHCP
// rebuild plus a full dbreport pass after every discovered node).
package rocks_test

import (
	"fmt"
	"testing"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/core"
	"rocks/internal/dhcp"
	"rocks/internal/insertethers"
	"rocks/internal/syslogd"
)

// populateBenchNodes registers n compute nodes directly in the database.
func populateBenchNodes(b *testing.B, db *clusterdb.Database, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		if _, err := clusterdb.InsertNode(db, clusterdb.Node{
			MAC:        fmt.Sprintf("02:10:00:00:%02x:%02x", i/256, i%256),
			Name:       fmt.Sprintf("compute-9-%d", i),
			Membership: clusterdb.MembershipCompute,
			Rack:       9, Rank: i,
			IP: fmt.Sprintf("10.254.%d.%d", i/254, 1+i%254),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkDiscoveryStorm integrates stormNodes machines through
// insert-ethers. Fast path: indexed lookups, per-node DHCP binding deltas,
// one coalesced report pass at the end. Legacy path: scans, a wholesale
// DHCP rebuild and a full dbreport regeneration after every single
// discovery — the O(N) work N times the paper's tools
// actually did.
func benchmarkDiscoveryStorm(b *testing.B, fast bool, durable, fsync bool) {
	const stormNodes = 1000
	var elapsed time.Duration
	for iter := 0; iter < b.N; iter++ {
		b.StopTimer()
		cfg := core.Config{Name: "storm", DHCPRetry: time.Millisecond, DisableEKV: true}
		if durable {
			cfg.DBDir = b.TempDir() // fresh per iteration: a recovered dir would skip every MAC
			cfg.DBFsync = fsync
		}
		c, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		c.DB.SetIndexRouting(fast)
		var onInsert func(clusterdb.Node)
		if !fast {
			onInsert = func(clusterdb.Node) { c.WriteReports() }
		} else {
			onInsert = func(clusterdb.Node) { c.ScheduleReports() }
		}
		ie, err := insertethers.Start(insertethers.Config{
			DB: c.DB, Syslog: c.Syslog, DHCP: c.DHCPd,
			NextServer: c.BaseURL(),
			Membership: clusterdb.MembershipCompute, Rack: 9,
			FullSync: !fast,
			OnInsert: onInsert,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		start := time.Now()
		for i := 0; i < stormNodes; i++ {
			if err := ie.Discover(fmt.Sprintf("02:20:00:00:%02x:%02x", i/256, i%256)); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.FlushReports(); err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
		b.StopTimer()
		ie.Stop()
		c.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(stormNodes*b.N)/elapsed.Seconds(), "nodes/s")
}

// BenchmarkDBDiscoveryStorm is the PR 3 headline: integrating a 1000-node
// cabinet burst. Acceptance asks fast ≥ 10× legacy. The durable variants
// price the write-ahead log: every insert appends a checksummed record
// (and under fsync flushes it) before the statement applies, plus a
// snapshot rotation every 1024 statements.
func BenchmarkDBDiscoveryStorm(b *testing.B) {
	b.Run("fast", func(b *testing.B) { benchmarkDiscoveryStorm(b, true, false, false) })
	b.Run("legacy", func(b *testing.B) { benchmarkDiscoveryStorm(b, false, false, false) })
	b.Run("fast-durable", func(b *testing.B) { benchmarkDiscoveryStorm(b, true, true, false) })
	b.Run("fast-durable-fsync", func(b *testing.B) { benchmarkDiscoveryStorm(b, true, true, true) })
}

// benchmarkPointLookupMix is the kickstart CGI's database footprint: every
// profile request resolves the client IP to a node and its membership to an
// appliance. With 1000 registered nodes the scan path walks the table per
// request; the hash indexes answer in O(1).
func benchmarkPointLookupMix(b *testing.B, indexed bool) {
	db := clusterdb.New()
	if err := clusterdb.InitSchema(db); err != nil {
		b.Fatal(err)
	}
	populateBenchNodes(b, db, 1000)
	db.SetIndexRouting(indexed)
	defer db.SetIndexRouting(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % 1000
		n, ok, err := clusterdb.NodeByIP(db, fmt.Sprintf("10.254.%d.%d", k/254, 1+k%254))
		if err != nil || !ok {
			b.Fatalf("lookup %d: %v %v", k, ok, err)
		}
		if _, _, _, err := clusterdb.ApplianceForMembership(db, n.Membership); err != nil {
			b.Fatal(err)
		}
		if i%8 == 0 { // insert-ethers' replace path resolves by MAC
			if _, _, err := clusterdb.NodeByMAC(db, n.MAC); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

// BenchmarkDBPointLookupMix compares the CGI lookup mix indexed vs scan.
// Acceptance asks indexed ≥ 10× scan at 1000 nodes.
func BenchmarkDBPointLookupMix(b *testing.B) {
	b.Run("indexed", func(b *testing.B) { benchmarkPointLookupMix(b, true) })
	b.Run("scan", func(b *testing.B) { benchmarkPointLookupMix(b, false) })
}

// benchmarkLookupUnderStorm runs the CGI point-lookup mix against 1000
// registered nodes while an insert-ethers discovery storm drives the write
// path from another goroutine, paced at one discovery per millisecond —
// the fast path's measured cabinet-integration rate (BENCH_pr3: ~1700
// nodes/s), i.e. a full 1000-node storm arriving in about a second. The
// write-ahead log's lock split keeps the log append and fsync outside the
// table lock, so readers only ever wait for the in-memory apply — the CGI
// must not queue behind insert-ethers' disk I/O.
func benchmarkLookupUnderStorm(b *testing.B, storm bool, dir string, fsync bool) {
	var db *clusterdb.Database
	if dir != "" {
		var err error
		db, _, err = clusterdb.Open(dir, clusterdb.Options{Fsync: fsync})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
	} else {
		db = clusterdb.New()
	}
	if err := clusterdb.InitSchema(db); err != nil {
		b.Fatal(err)
	}
	populateBenchNodes(b, db, 1000)

	stop := make(chan struct{})
	done := make(chan struct{})
	if storm {
		log := syslogd.New()
		ie, err := insertethers.Start(insertethers.Config{
			DB: db, Syslog: log, DHCP: dhcp.NewServer("frontend-0", log),
			NextServer: "http://10.1.1.1",
			Membership: clusterdb.MembershipCompute, Rack: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer ie.Stop()
		go func() {
			defer close(done)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				mac := fmt.Sprintf("02:40:%02x:%02x:%02x:%02x", i>>24, (i>>16)&255, (i>>8)&255, i&255)
				if err := ie.Discover(mac); err != nil {
					b.Errorf("storm discover %d: %v", i, err)
					return
				}
			}
		}()
	} else {
		close(done)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % 1000
		n, ok, err := clusterdb.NodeByIP(db, fmt.Sprintf("10.254.%d.%d", k/254, 1+k%254))
		if err != nil || !ok {
			b.Fatalf("lookup %d: %v %v", k, ok, err)
		}
		if _, _, _, err := clusterdb.ApplianceForMembership(db, n.Membership); err != nil {
			b.Fatal(err)
		}
		if i%8 == 0 {
			if _, _, err := clusterdb.NodeByMAC(db, n.MAC); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

// BenchmarkDBLookupUnderStorm is the durable-database acceptance check:
// point-lookup throughput under a concurrent discovery storm must stay
// within 2x of idle, including when every storm insert fsyncs a WAL record.
func BenchmarkDBLookupUnderStorm(b *testing.B) {
	b.Run("idle", func(b *testing.B) { benchmarkLookupUnderStorm(b, false, "", false) })
	b.Run("storm", func(b *testing.B) { benchmarkLookupUnderStorm(b, true, "", false) })
	b.Run("storm-durable", func(b *testing.B) { benchmarkLookupUnderStorm(b, true, b.TempDir(), false) })
	b.Run("storm-durable-fsync", func(b *testing.B) { benchmarkLookupUnderStorm(b, true, b.TempDir(), true) })
}

// BenchmarkDBReportGeneration measures one full dbreport pass — hosts,
// dhcpd.conf, PBS nodes — over a 1000-node database: the unit of work the
// coalescer saves on every skipped regeneration.
func BenchmarkDBReportGeneration(b *testing.B) {
	db := clusterdb.New()
	if err := clusterdb.InitSchema(db); err != nil {
		b.Fatal(err)
	}
	populateBenchNodes(b, db, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clusterdb.HostsReport(db); err != nil {
			b.Fatal(err)
		}
		if _, err := clusterdb.DHCPReport(db); err != nil {
			b.Fatal(err)
		}
		if _, err := clusterdb.PBSNodesReport(db); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "regens/s")
}
