package insertethers

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rocks/internal/clusterdb"
	"rocks/internal/dhcp"
	"rocks/internal/lifecycle"
	"rocks/internal/syslogd"
)

type fixture struct {
	db    *clusterdb.Database
	log   *syslogd.Collector
	bus   *dhcp.Bus
	dhcpd *dhcp.Server
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{
		db:  clusterdb.New(),
		log: syslogd.New(),
		bus: dhcp.NewBus(),
	}
	if err := clusterdb.InitSchema(f.db); err != nil {
		t.Fatal(err)
	}
	f.dhcpd = dhcp.NewServer("frontend-0", f.log)
	f.bus.Register(f.dhcpd)
	// The frontend itself occupies 10.1.1.1.
	clusterdb.InsertNode(f.db, clusterdb.Node{MAC: "fe:fe:fe:fe:fe:fe", Name: "frontend-0",
		Membership: clusterdb.MembershipFrontend, IP: "10.1.1.1"})
	return f
}

func (f *fixture) start(t *testing.T, cfg Config) (*InsertEthers, chan clusterdb.Node) {
	t.Helper()
	inserted := make(chan clusterdb.Node, 64)
	cfg.DB = f.db
	cfg.Syslog = f.log
	cfg.DHCP = f.dhcpd
	if cfg.NextServer == "" {
		cfg.NextServer = "http://10.1.1.1"
	}
	cfg.OnInsert = func(n clusterdb.Node) { inserted <- n }
	ie, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ie.Stop)
	return ie, inserted
}

// discover emulates a node broadcasting DISCOVER until it gets an offer.
func (f *fixture) discover(t *testing.T, mac string) dhcp.Packet {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reply, ok := f.bus.Broadcast(dhcp.Packet{Type: dhcp.Discover, MAC: mac}); ok {
			return reply
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("node %s never received an offer", mac)
	return dhcp.Packet{}
}

func TestDiscoverySequence(t *testing.T) {
	f := newFixture(t)
	_, inserted := f.start(t, Config{Rack: 0})

	// Boot three nodes sequentially, as §6.4 prescribes for rack/rank
	// assignment.
	var macs = []string{"00:50:8b:e0:3a:a7", "00:50:8b:e0:44:5e", "00:50:8b:e0:40:95"}
	for i, mac := range macs {
		offer := f.discover(t, mac)
		n := <-inserted
		if n.Name != fmt.Sprintf("compute-0-%d", i) {
			t.Errorf("node %d named %s", i, n.Name)
		}
		if offer.Hostname != n.Name || offer.YourIP != n.IP {
			t.Errorf("offer %+v does not match inserted node %+v", offer, n)
		}
		if offer.NextServer != "http://10.1.1.1" {
			t.Errorf("next-server = %q", offer.NextServer)
		}
	}
	// IPs descend from the top of the private space.
	nodes, _ := clusterdb.Nodes(f.db, "membership = 2")
	if len(nodes) != 3 {
		t.Fatalf("db has %d compute nodes", len(nodes))
	}
	if nodes[0].IP != "10.255.255.254" || nodes[2].IP != "10.255.255.252" {
		t.Errorf("IPs = %s, %s, %s", nodes[0].IP, nodes[1].IP, nodes[2].IP)
	}
}

func TestDuplicateDiscoverInsertsOnce(t *testing.T) {
	f := newFixture(t)
	ie, inserted := f.start(t, Config{})
	f.discover(t, "aa:aa:aa:aa:aa:aa")
	<-inserted
	// The node retries DISCOVER (it does, constantly, while waiting): no
	// second row may appear.
	for i := 0; i < 5; i++ {
		f.bus.Broadcast(dhcp.Packet{Type: dhcp.Discover, MAC: "aa:aa:aa:aa:aa:aa"})
	}
	time.Sleep(20 * time.Millisecond)
	nodes, _ := clusterdb.Nodes(f.db, "membership = 2")
	if len(nodes) != 1 {
		t.Errorf("duplicate DISCOVER created %d rows", len(nodes))
	}
	if got := ie.Inserted(); len(got) != 1 {
		t.Errorf("Inserted = %v", got)
	}
}

func TestMembershipSelection(t *testing.T) {
	f := newFixture(t)
	// Discover an NFS appliance instead of compute nodes.
	id, err := clusterdb.AddMembership(f.db, "NFS", 7, false)
	if err != nil {
		t.Fatal(err)
	}
	_, inserted := f.start(t, Config{Membership: id, Rack: 0})
	f.discover(t, "00:50:8b:a5:4d:b1")
	n := <-inserted
	if n.Name != "nfs-0-0" {
		t.Errorf("name = %s, want nfs-0-0", n.Name)
	}
}

func TestRackNumbering(t *testing.T) {
	f := newFixture(t)
	_, inserted := f.start(t, Config{Rack: 1})
	f.discover(t, "bb:bb:bb:bb:bb:01")
	n := <-inserted
	if n.Name != "compute-1-0" || n.Rack != 1 || n.Rank != 0 {
		t.Errorf("node = %+v", n)
	}
}

func TestSyslogTrail(t *testing.T) {
	f := newFixture(t)
	_, inserted := f.start(t, Config{})
	f.discover(t, "cc:cc:cc:cc:cc:01")
	<-inserted
	if len(f.log.Grep("no free leases")) == 0 {
		t.Error("dhcpd's unknown-MAC line missing")
	}
	if len(f.log.Grep("inserted compute-0-0")) == 0 {
		t.Error("insert-ethers trail missing")
	}
}

func TestSyncDHCPRemovesDeletedNodes(t *testing.T) {
	f := newFixture(t)
	_, inserted := f.start(t, Config{})
	f.discover(t, "dd:dd:dd:dd:dd:01")
	n := <-inserted
	// Administrator removes the node from the database and regenerates.
	if err := clusterdb.DeleteNode(f.db, n.Name); err != nil {
		t.Fatal(err)
	}
	if err := SyncDHCP(f.db, f.dhcpd, "http://10.1.1.1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.dhcpd.HandleDHCP(dhcp.Packet{Type: dhcp.Request, MAC: "dd:dd:dd:dd:dd:01"}); ok {
		t.Error("deleted node still has a DHCP binding")
	}
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Error("Start without services accepted")
	}
}

func TestReplaceSwappedHardware(t *testing.T) {
	f := newFixture(t)
	// Original node discovered normally.
	ie1, inserted := f.start(t, Config{})
	f.discover(t, "aa:aa:aa:aa:aa:01")
	orig := <-inserted
	// Only one insert-ethers session runs at a time: end discovery before
	// starting the replacement session, or both would race for the new MAC.
	ie1.Stop()

	// The motherboard dies; a replacement with a fresh NIC arrives. A new
	// session with Replace set binds the new MAC to the old identity.
	ie2, err := Start(Config{DB: f.db, Syslog: f.log, DHCP: f.dhcpd,
		NextServer: "http://10.1.1.1", Replace: orig.Name})
	if err != nil {
		t.Fatal(err)
	}
	defer ie2.Stop()
	offer := f.discover(t, "bb:bb:bb:bb:bb:02")
	if offer.Hostname != orig.Name || offer.YourIP != orig.IP {
		t.Fatalf("replacement got %+v, want the original identity %s/%s", offer, orig.Name, orig.IP)
	}
	n, ok, _ := clusterdb.NodeByMAC(f.db, "bb:bb:bb:bb:bb:02")
	if !ok || n.Name != orig.Name {
		t.Errorf("db row = %+v, %v", n, ok)
	}
	if _, ok, _ := clusterdb.NodeByMAC(f.db, "aa:aa:aa:aa:aa:01"); ok {
		t.Error("old MAC still bound")
	}
	// One-shot: the next unknown MAC inserts normally.
	offer = f.discover(t, "cc:cc:cc:cc:cc:03")
	if offer.Hostname == orig.Name {
		t.Error("replace mode leaked to a second MAC")
	}
	nodes, _ := clusterdb.Nodes(f.db, "membership = 2")
	if len(nodes) != 2 {
		t.Errorf("compute rows = %d, want 2", len(nodes))
	}
}

func TestReplaceUnknownNodeLogsError(t *testing.T) {
	f := newFixture(t)
	ie, err := Start(Config{DB: f.db, Syslog: f.log, DHCP: f.dhcpd,
		NextServer: "http://10.1.1.1", Replace: "ghost-9-9"})
	if err != nil {
		t.Fatal(err)
	}
	defer ie.Stop()
	f.bus.Broadcast(dhcp.Packet{Type: dhcp.Discover, MAC: "dd:dd:dd:dd:dd:04"})
	if _, ok := f.log.WaitFor(func(m syslogd.Message) bool {
		return strings.Contains(m.Text, "no such node")
	}, 2*time.Second); !ok {
		t.Error("replacement error not logged")
	}
}

func TestScreenRendering(t *testing.T) {
	f := newFixture(t)
	ie, inserted := f.start(t, Config{Rack: 0})
	if !strings.Contains(ie.Screen(), "waiting for new nodes") {
		t.Errorf("empty screen = %q", ie.Screen())
	}
	f.discover(t, "ee:ee:ee:ee:ee:01")
	<-inserted
	screen := ie.Screen()
	for _, want := range []string{"Inserted Appliances", "compute-0-0", "ee:ee:ee:ee:ee:01", "10.255.255.254"} {
		if !strings.Contains(screen, want) {
			t.Errorf("screen missing %q:\n%s", want, screen)
		}
	}
}

// TestDiscoveryEvents: a wired lifecycle bus sees the §6.4 sequence as
// typed events — discovered (MAC-identified, no name yet), then bound once
// the row and DHCP binding exist — and a hardware replacement publishes
// replaced under the surviving hostname.
func TestDiscoveryEvents(t *testing.T) {
	f := newFixture(t)
	bus := lifecycle.NewBus(0)
	ie1, inserted := f.start(t, Config{Events: bus})
	f.discover(t, "aa:aa:aa:aa:aa:01")
	orig := <-inserted

	events := bus.Timeline("aa:aa:aa:aa:aa:01")
	if len(events) != 2 {
		t.Fatalf("events = %d (%v), want discovered+bound", len(events), events)
	}
	d, b := events[0], events[1]
	if d.Type != lifecycle.EventDiscovered || d.Node != "aa:aa:aa:aa:aa:01" || d.MAC != "aa:aa:aa:aa:aa:01" {
		t.Errorf("discovered = %+v", d)
	}
	if b.Type != lifecycle.EventBound || b.Node != orig.Name || b.MAC != "aa:aa:aa:aa:aa:01" ||
		!strings.Contains(b.Detail, orig.IP) {
		t.Errorf("bound = %+v", b)
	}
	for _, e := range events {
		if e.Phase != lifecycle.PhaseDiscover || e.Source != "insert-ethers" {
			t.Errorf("wrong phase/source: %+v", e)
		}
	}
	// A duplicate DISCOVER publishes nothing: the MAC is already known.
	before := bus.Seq()
	f.discover(t, "aa:aa:aa:aa:aa:01")
	if bus.Seq() != before {
		t.Errorf("duplicate DISCOVER published %d events", bus.Seq()-before)
	}
	ie1.Stop()

	// Hardware swap: the replacement session publishes replaced under the
	// node's (surviving) hostname with the new MAC.
	ie2, err := Start(Config{DB: f.db, Syslog: f.log, DHCP: f.dhcpd,
		NextServer: "http://10.1.1.1", Replace: orig.Name, Events: bus})
	if err != nil {
		t.Fatal(err)
	}
	defer ie2.Stop()
	f.discover(t, "bb:bb:bb:bb:bb:02")
	var replaced []lifecycle.Event
	for _, e := range bus.Timeline(orig.Name) {
		if e.Type == lifecycle.EventReplaced {
			replaced = append(replaced, e)
		}
	}
	if len(replaced) != 1 || replaced[0].MAC != "bb:bb:bb:bb:bb:02" {
		t.Errorf("replaced events = %v", replaced)
	}
}

// TestConcurrentSessionsNeverCollide: insert-ethers sessions on different
// racks — and two on the same rack — discover at once against one durable
// database. Rank, address and id are allocated in the same hold of the
// database's write lock as the insert, so no two discoveries are handed the
// same one: every Discover succeeds, identities are unique, each rack's ranks
// are exactly 0…n−1, the log holds one record per row, and the database
// reopens byte-identical. (With allocation and insert under separate holds
// this failed with "duplicate value … for unique index nodes_ip", and the
// failing INSERT stayed in the log to fail again on every replay.)
func TestConcurrentSessionsNeverCollide(t *testing.T) {
	dir := t.TempDir()
	opts := clusterdb.Options{SnapshotEvery: -1} // keep every record in the log until Close
	db, _, err := clusterdb.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	if err := clusterdb.InitSchema(db); err != nil {
		t.Fatal(err)
	}
	log := syslogd.New()
	dhcpd := dhcp.NewServer("frontend-0", log)
	const perSession = 64
	racks := []int{0, 1, 2, 3, 4, 4}
	seeded := db.Stats().WAL.RecordsAppended
	var wg sync.WaitGroup
	for s, rack := range racks {
		ie, err := Start(Config{DB: db, Syslog: log, DHCP: dhcpd, NextServer: "http://10.1.1.1", Rack: rack})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ie.Stop)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSession; i++ {
				if err := ie.Discover(fmt.Sprintf("00:16:3e:00:%02x:%02x", s, i)); err != nil {
					t.Errorf("session %d, discovery %d: %v", s, i, err)
				}
			}
		}(s)
	}
	wg.Wait()

	nodes, err := clusterdb.Nodes(db, "")
	if err != nil {
		t.Fatal(err)
	}
	want := perSession * len(racks)
	if got := db.Stats().WAL.RecordsAppended - seeded; len(nodes) != want || got != uint64(want) {
		t.Fatalf("%d rows from %d log records, want %d of each", len(nodes), got, want)
	}
	seen := map[string]bool{}
	ranks := map[int][]bool{}
	for _, n := range nodes {
		for _, identity := range []string{"name " + n.Name, "ip " + n.IP, "mac " + n.MAC, fmt.Sprint("id ", n.ID),
			fmt.Sprintf("place %d/%d/%d", n.Membership, n.Rack, n.Rank)} {
			if seen[identity] {
				t.Errorf("two rows share %s", identity)
			}
			seen[identity] = true
		}
		if n.Name != fmt.Sprintf("compute-%d-%d", n.Rack, n.Rank) {
			t.Errorf("row %d is named %s at rack %d rank %d", n.ID, n.Name, n.Rack, n.Rank)
		}
		if ranks[n.Rack] == nil {
			ranks[n.Rack] = make([]bool, want)
		}
		ranks[n.Rack][n.Rank] = true
	}
	for _, rack := range racks {
		machines := perSession
		if rack == 4 {
			machines = 2 * perSession
		}
		for rank, held := range ranks[rack] {
			if held != (rank < machines) {
				t.Fatalf("rack %d: rank %d held = %v with %d machines discovered", rack, rank, held, machines)
			}
		}
	}

	before := db.Dump()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var info clusterdb.RecoveryInfo
	if db, info, err = clusterdb.Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	if info.ReplayErrors != 0 || db.Dump() != before {
		t.Fatalf("reopened database differs from the one closed (%s)", info)
	}
}
