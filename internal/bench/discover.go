package bench

import (
	"fmt"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/core"
	"rocks/internal/dhcp"
	"rocks/internal/hardware"
	"rocks/internal/insertethers"
)

// macSpace hands out the synthetic MACs of machines that are discovered but
// never installed. The second and third octets come from the seed; the
// leading 02 (locally administered) keeps them clear of the simulated
// hardware's OUI.
type macSpace struct {
	prefix string
	next   int
}

func newMACSpace(r *run) *macSpace {
	return &macSpace{prefix: fmt.Sprintf("02:%02x:%02x", r.rng.Intn(256), r.rng.Intn(256))}
}

func (m *macSpace) take() string {
	n := m.next
	m.next++
	return fmt.Sprintf("%s:%02x:%02x:%02x", m.prefix, byte(n>>16), byte(n>>8), byte(n))
}

// confirmLease does what a discovered node does next: DISCOVER until the
// server offers, then REQUEST. It retries at dhcpRetry as
// installer.acquireLease does, because a coalesced report pass running
// beside the discovery can transiently drop the binding insert-ethers just
// set (see README.md, "Known product race"). Unlike the installer it also
// retries when the binding vanishes between OFFER and ACK, where an install
// would fail: the workload must not fail on a race it is not measuring.
func confirmLease(bus *dhcp.Bus, mac string) (offer dhcp.Packet, retries int, err error) {
	deadline := time.Now().Add(opTimeout)
	for xid := uint32(1); ; xid++ {
		var ok bool
		if offer, ok = bus.Broadcast(dhcp.Packet{Type: dhcp.Discover, Xid: xid, MAC: mac}); ok {
			if _, ok = bus.Broadcast(dhcp.Packet{Type: dhcp.Request, Xid: xid, MAC: mac}); ok {
				return offer, retries, nil
			}
		}
		if time.Now().After(deadline) {
			return offer, retries, fmt.Errorf("no lease for %s within %s", mac, opTimeout)
		}
		retries++
		time.Sleep(dhcpRetry)
	}
}

// discovered is one MAC the harness put through insert-ethers and the IP
// the DHCP server then offered it.
type discovered struct{ mac, offeredIP string }

// discoverOne runs one discovery: insert-ethers' sequence for a new MAC,
// then the DHCP exchange that confirms the binding took. It returns the
// two durations; with a recorder it records them as spans.
func discoverOne(bus *dhcp.Bus, ie *insertethers.InsertEthers, mac string, rec *Recorder) (d discovered, insert, exchange time.Duration, retries int, err error) {
	t0 := time.Now()
	if err = ie.Discover(mac); err != nil {
		return d, 0, 0, 0, err
	}
	t1 := time.Now()
	offer, retries, err := confirmLease(bus, mac)
	t2 := time.Now()
	if rec != nil {
		trace := rec.NewTrace()
		root := rec.Add(trace, 0, "bench", "discovery", t0, t2)
		rec.Add(trace, root, "insertethers", "discover", t0, t1)
		rec.Add(trace, root, "dhcp", "exchange", t1, t2)
	}
	return discovered{mac, offer.YourIP}, t1.Sub(t0), t2.Sub(t1), retries, err
}

// discoverStorm is the write side: racks of new machines discovered back to
// back into a durable database. insertethers, clusterdb (inserts, WAL,
// NextFreeIP/NextRank), dhcp and the core report coalescer do all the work;
// dist, installer and kickstart do none. The per-rack rate curve exposes
// anything O(N) per insert.
func discoverStorm(r *run) error {
	rounds := max(1, int(r.opt.Seconds/r.opt.Sizes.RoundSeconds))
	r.sizes["sessions"], r.sizes["session_size"], r.sizes["rounds"] = r.opt.Sizes.DiscoverSessions, r.opt.Sizes.SessionSize, rounds

	var c *core.Cluster
	var dbDir string
	build := func() (err error) { c, dbDir, err = newFrontend(r, true); return }
	// A set-up here is 70 ms: three times the usual repetitions cost half a
	// second and steady setup_s.
	if err := r.setups(3*r.opt.Sizes.Setups, build, func() { c.Close() }); err != nil {
		return err
	}
	macs := newMACSpace(r)
	totals := counts{}
	var firstRack, lastRack, exchangeUS []float64
	var retries, recoveryRecords int
	var recoveryMS []float64

	for round := 0; round < rounds; round++ {
		if round > 0 {
			// Every round starts from an empty durable database.
			if err := r.setups(1, build, nil); err != nil {
				return err
			}
		}
		var found []discovered
		r.timedCounted(c, totals, func() {
			start := time.Now()
			for s := 0; s < r.opt.Sizes.DiscoverSessions; s++ {
				ie, err := c.StartInsertEthers(clusterdb.MembershipCompute, s)
				if err != nil {
					r.errorf("insert-ethers rack %d: %v", s, err)
					return
				}
				rec := r.slice(s)
				cpu0 := cpuSeconds()
				var rackUS float64
				for i := 0; i < r.opt.Sizes.SessionSize; i++ {
					d, insert, exchange, n, err := discoverOne(c.Bus, ie, macs.take(), rec)
					r.attempt(err == nil)
					if err != nil {
						r.errorf("discovery: %v", err)
						continue
					}
					found = append(found, d)
					retries += n
					rackUS += float64(insert) / 1e3
					exchangeUS = append(exchangeUS, float64(exchange)/1e3)
					r.op(float64(insert+exchange)/1e6, s)
				}
				ie.Stop()
				r.addSliceCPU(s, cpuSeconds()-cpu0)
				switch s {
				case 0:
					firstRack = append(firstRack, rackUS/float64(r.opt.Sizes.SessionSize))
				case r.opt.Sizes.DiscoverSessions - 1:
					lastRack = append(lastRack, rackUS/float64(r.opt.Sizes.SessionSize))
				}
			}
			if err := c.FlushReports(); err != nil {
				r.errorf("flushing reports: %v", err)
			}
			r.rates = append(r.rates, float64(len(found))/time.Since(start).Seconds())
		})
		checkDiscovered(r, c, found)
		if r.opt.Trace && round == rounds-1 && len(found) > 0 {
			row, _, _ := clusterdb.NodeByMAC(c.DB, found[0].mac)
			probeFrontend(r, c, row, hardware.PIIICompute(c.MACs(), 733))
		}
		ms, replayed := closeAndRecover(r, c, dbDir)
		recoveryMS = append(recoveryMS, ms)
		recoveryRecords += replayed
	}

	if r.opt.Trace {
		r.countMetrics(totals, r.timedS)
		first, last := median(firstRack), median(lastRack)
		r.set("insertethers.discover_us_first_rack", first, len(firstRack)*r.opt.Sizes.SessionSize)
		r.set("insertethers.discover_us_last_rack", last, len(lastRack)*r.opt.Sizes.SessionSize)
		r.set("insertethers.rack_slowdown", ratio(last, first), len(lastRack))
		r.set("dhcp.exchange_us", median(exchangeUS), len(exchangeUS))
		r.set("dhcp.offer_retries", float64(retries), len(exchangeUS))
		r.set("clusterdb.recovery_ms", median(recoveryMS), len(recoveryMS))
		r.set("clusterdb.recovery_records", float64(recoveryRecords), len(recoveryMS))
	}
	return nil
}

// checkDiscovered verifies a round's database: one row per discovery plus
// the frontend's, names, IPs and MACs unique, and every OFFER carrying its
// row's IP.
func checkDiscovered(r *run, c *core.Cluster, found []discovered) {
	rows, err := clusterdb.Nodes(c.DB, "")
	if err != nil {
		r.errorf("reading nodes: %v", err)
		return
	}
	if want := len(found) + 1; len(rows) != want {
		r.errorf("nodes table has %d rows, want %d", len(rows), want)
	}
	byMAC := map[string]string{}
	names, ips := map[string]bool{}, map[string]bool{}
	for _, n := range rows {
		if _, dup := byMAC[n.MAC]; dup || names[n.Name] || ips[n.IP] {
			r.errorf("row %s (%s, %s) repeats a name, IP or MAC", n.Name, n.MAC, n.IP)
		}
		byMAC[n.MAC], names[n.Name], ips[n.IP] = n.IP, true, true
	}
	for _, d := range found {
		if byMAC[d.mac] != d.offeredIP || d.offeredIP == "" {
			r.errorf("%s was offered %q, its row holds %q", d.mac, d.offeredIP, byMAC[d.mac])
		}
	}
}

// closeAndRecover closes the frontend and reopens its database directory:
// what recovery reads back must be byte-identical to what was there before
// Close. It returns how long the reopen took and how many log records it
// replayed.
func closeAndRecover(r *run, c *core.Cluster, dir string) (ms float64, replayed int) {
	before := c.DB.Dump()
	c.Close()
	t0 := time.Now()
	db, info, err := clusterdb.Open(dir, clusterdb.Options{})
	t1 := time.Now()
	if err != nil {
		r.errorf("reopening %s: %v", dir, err)
		return 0, 0
	}
	defer db.Close()
	r.rec.Add(r.rec.NewTrace(), 0, "clusterdb", "recovery", t0, t1)
	if db.Dump() != before {
		r.errorf("database reopened from %s differs from the one closed", dir)
	}
	return t1.Sub(t0).Seconds() * 1e3, info.Replayed
}
