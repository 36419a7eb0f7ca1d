package clusterdb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func initDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	if err := InitSchema(db); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestInitSchemaSeedsDefaults(t *testing.T) {
	db := initDB(t)
	names := db.TableNames()
	want := []string{"appliances", "facts", "memberships", "nodes", "site"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("TableNames = %v, want %v", names, want)
	}
	res, _ := db.Query(`SELECT * FROM memberships`)
	if len(res.Rows) != 6 {
		t.Errorf("%d default memberships, want 6 (Table III)", len(res.Rows))
	}
	v, err := SiteValue(db, "PrivateNetwork")
	if err != nil || v != "10.0.0.0" {
		t.Errorf("PrivateNetwork = %q, %v", v, err)
	}
}

func TestInsertNodeAllocatesIDs(t *testing.T) {
	db := initDB(t)
	n1, err := InsertNode(db, Node{MAC: "aa:bb", Name: "frontend-0", Membership: MembershipFrontend, IP: "10.1.1.1"})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := InsertNode(db, Node{MAC: "cc:dd", Name: "compute-0-0", Membership: MembershipCompute, IP: "10.255.255.254"})
	if err != nil {
		t.Fatal(err)
	}
	if n1.ID != 1 || n2.ID != 2 {
		t.Errorf("IDs = %d, %d; want 1, 2", n1.ID, n2.ID)
	}
	if n2.Arch != "i386" || n2.CPUs != 1 {
		t.Errorf("defaults not applied: %+v", n2)
	}
}

func TestNodeLookups(t *testing.T) {
	db := initDB(t)
	InsertNode(db, Node{MAC: "aa:bb", Name: "compute-0-0", Membership: MembershipCompute, IP: "10.255.255.254"})
	byMAC, ok, err := NodeByMAC(db, "aa:bb")
	if err != nil || !ok || byMAC.Name != "compute-0-0" {
		t.Errorf("NodeByMAC = %+v, %v, %v", byMAC, ok, err)
	}
	byIP, ok, _ := NodeByIP(db, "10.255.255.254")
	if !ok || byIP.MAC != "aa:bb" {
		t.Errorf("NodeByIP = %+v, %v", byIP, ok)
	}
	byName, ok, _ := NodeByName(db, "compute-0-0")
	if !ok || byName.IP != "10.255.255.254" {
		t.Errorf("NodeByName = %+v, %v", byName, ok)
	}
	if _, ok, _ := NodeByMAC(db, "no:pe"); ok {
		t.Error("NodeByMAC found a ghost")
	}
}

func TestDeleteNode(t *testing.T) {
	db := initDB(t)
	InsertNode(db, Node{MAC: "aa:bb", Name: "compute-0-0", Membership: MembershipCompute, IP: "10.2.2.2"})
	if err := DeleteNode(db, "compute-0-0"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := NodeByName(db, "compute-0-0"); ok {
		t.Error("node survived deletion")
	}
}

func TestNextFreeIPDescends(t *testing.T) {
	db := initDB(t)
	ip1, err := NextFreeIP(db)
	if err != nil || ip1 != "10.255.255.254" {
		t.Fatalf("first IP = %q, %v", ip1, err)
	}
	InsertNode(db, Node{MAC: "a", Name: "x-0-0", Membership: MembershipCompute, IP: ip1})
	ip2, _ := NextFreeIP(db)
	if ip2 != "10.255.255.253" {
		t.Errorf("second IP = %q, want 10.255.255.253", ip2)
	}
	// A hole left by a deleted node is reused.
	InsertNode(db, Node{MAC: "b", Name: "x-0-1", Membership: MembershipCompute, IP: ip2})
	DeleteNode(db, "x-0-0")
	ip3, _ := NextFreeIP(db)
	if ip3 != "10.255.255.254" {
		t.Errorf("freed IP not reused: got %q", ip3)
	}
}

func TestNextFreeIPCrossesOctetBoundary(t *testing.T) {
	db := initDB(t)
	// Fill .254 down to .1 of the top /24, then the allocator must move to
	// 10.255.254.x. (.0 is skipped implicitly by decrementing through it —
	// verify we don't hand out a .0... actually Rocks hands out every
	// address; we just check the decrement is correct across the boundary.)
	for i := 254; i >= 1; i-- {
		InsertNode(db, Node{MAC: fmt.Sprintf("m%d", i), Name: fmt.Sprintf("c-0-%d", i),
			Membership: MembershipCompute, IP: fmt.Sprintf("10.255.255.%d", i)})
	}
	ip, err := NextFreeIP(db)
	if err != nil {
		t.Fatal(err)
	}
	if ip != "10.255.255.0" {
		t.Errorf("boundary IP = %q, want 10.255.255.0", ip)
	}
}

func TestNextRank(t *testing.T) {
	db := initDB(t)
	r, _ := NextRank(db, MembershipCompute, 0)
	if r != 0 {
		t.Errorf("first rank = %d, want 0", r)
	}
	InsertNode(db, Node{MAC: "a", Name: "compute-0-0", Membership: MembershipCompute, Rack: 0, Rank: 0, IP: "10.0.0.1"})
	InsertNode(db, Node{MAC: "b", Name: "compute-0-1", Membership: MembershipCompute, Rack: 0, Rank: 1, IP: "10.0.0.2"})
	r, _ = NextRank(db, MembershipCompute, 0)
	if r != 2 {
		t.Errorf("rank after two inserts = %d, want 2", r)
	}
	// Different rack and different membership rank independently.
	if r, _ = NextRank(db, MembershipCompute, 1); r != 0 {
		t.Errorf("rack 1 rank = %d, want 0", r)
	}
	if r, _ = NextRank(db, MembershipEthernetSwitch, 0); r != 0 {
		t.Errorf("switch rank = %d, want 0", r)
	}
	// A gap (deleted node) is refilled.
	DeleteNode(db, "compute-0-0")
	if r, _ = NextRank(db, MembershipCompute, 0); r != 0 {
		t.Errorf("gap rank = %d, want 0", r)
	}
}

// TestAllocationNeedsTheCursor: the allocator answers only from its cursor,
// so a nodes table without what the cursor summarizes cannot allocate, and
// says what it lacks.
func TestAllocationNeedsTheCursor(t *testing.T) {
	db := New()
	if _, err := NextFreeIP(db); err == nil || !strings.Contains(err.Error(), `no such table "nodes"`) {
		t.Errorf("no nodes table: NextFreeIP error %v", err)
	}
	mustExec(t, db, `CREATE TABLE nodes (id INT, mac TEXT, membership INT, rack INT, rank INT)`)
	if _, err := NextRank(db, MembershipCompute, 0); err == nil || !strings.Contains(err.Error(), "no ip column of type TEXT") {
		t.Errorf("nodes without ip: NextRank error %v", err)
	}
	if _, err := InsertNode(db, Node{MAC: "a", Name: "n"}); err == nil || !strings.Contains(err.Error(), "cannot allocate") {
		t.Errorf("nodes without ip: InsertNode error %v", err)
	}
}

func TestApplianceForMembership(t *testing.T) {
	db := initDB(t)
	name, graph, root, err := ApplianceForMembership(db, MembershipCompute)
	if err != nil {
		t.Fatal(err)
	}
	if name != "compute" || graph != "default" || root != "compute" {
		t.Errorf("got %q %q %q", name, graph, root)
	}
	if _, _, _, err := ApplianceForMembership(db, 99); err == nil {
		t.Error("unknown membership should error")
	}
}

// TestApplianceProbesAnswerAsTheJoin: the index probes answer every
// membership, one whose appliance row is missing or NULL, and one with no
// row, exactly as the join over the two tables does, errors word for word.
func TestApplianceProbesAnswerAsTheJoin(t *testing.T) {
	db := initDB(t)
	if _, err := db.Exec(`INSERT INTO memberships VALUES (20, 'Dangling', 77, 'yes'), (21, 'Unset', NULL, 'yes')`); err != nil {
		t.Fatal(err)
	}
	answer := func(id int) string {
		name, graph, root, err := ApplianceForMembership(db, id)
		return fmt.Sprintf("%q %q %q %v", name, graph, root, err)
	}
	for id := 0; id <= 22; id++ {
		db.SetIndexRouting(false)
		want := answer(id)
		db.SetIndexRouting(true)
		before := db.indexSelects.Load()
		if got := answer(id); got != want {
			t.Errorf("membership %d: probes answer %s, the join %s", id, got, want)
		}
		if db.indexSelects.Load() == before {
			t.Errorf("membership %d: answered without probing an index", id)
		}
	}
}

func TestMembershipBasename(t *testing.T) {
	db := initDB(t)
	cases := map[int]string{
		MembershipCompute:        "compute",
		MembershipEthernetSwitch: "network",
		MembershipFrontend:       "frontend",
		MembershipPowerUnit:      "power",
	}
	for id, want := range cases {
		got, err := MembershipBasename(db, id)
		if err != nil || got != want {
			t.Errorf("MembershipBasename(%d) = %q, %v; want %q", id, got, err, want)
		}
	}
}

func TestAddMembership(t *testing.T) {
	db := initDB(t)
	id, err := AddMembership(db, "NFS", 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 {
		t.Errorf("new membership id = %d, want 7", id)
	}
	got, err := MembershipIDByName(db, "NFS")
	if err != nil || got != 7 {
		t.Errorf("MembershipIDByName = %d, %v", got, err)
	}
	base, _ := MembershipBasename(db, 7)
	if base != "nfs" {
		t.Errorf("basename = %q, want nfs", base)
	}
}

// TestSetSiteValueIsOneRow: concurrent writers of one new attribute leave one
// row. Two Execs, UPDATE then INSERT on no row affected, let two writers both
// see no row and both insert.
func TestSetSiteValueIsOneRow(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		db := initDB(t)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 1; g <= 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := SetSiteValue(db, "NewAttr", fmt.Sprint(g)); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if res := mustExec(t, db, "SELECT value FROM site WHERE name = 'NewAttr'"); len(res.Rows) != 1 {
			t.Fatalf("trial %d: %d site rows named NewAttr, want one", trial, len(res.Rows))
		}
	}
}

// TestSetSiteValueLog pins what a write logs — the INSERT of a new
// attribute's row with its column list, then the UPDATE of it — and replays a
// log the two-Exec version wrote (UPDATE, then INSERT without a column list
// when no row changed): hostile strings leave the same database either way,
// before and after recovery.
func TestSetSiteValueLog(t *testing.T) {
	built, formatted, _ := twins(t)
	wants := []string{
		"INSERT INTO site (name, value) VALUES ('Kickstart_Multicast', '226.117.172.185')",
		"UPDATE site SET value = '226.117.172.185' WHERE name = 'Kickstart_Multicast'",
	}
	for i, want := range wants {
		before := len(walBytes(t, built.dur.dir))
		if err := SetSiteValue(built, "Kickstart_Multicast", "226.117.172.185"); err != nil {
			t.Fatal(err)
		}
		if got := string(walBytes(t, built.dur.dir)[before:]); !strings.HasSuffix(got, want) || len(got) != 16+len(want) {
			t.Errorf("write %d logged %q, want one record of %q", i, got, want)
		}
	}
	oldSet := func(name, value string) {
		res := mustExec(t, formatted, fmt.Sprintf("UPDATE site SET value = '%s' WHERE name = '%s'",
			sqlEscape(value), sqlEscape(name)))
		if res.Affected == 0 {
			mustExec(t, formatted, fmt.Sprintf("INSERT INTO site VALUES ('%s', '%s')", sqlEscape(name), sqlEscape(value)))
		}
	}
	oldSet("Kickstart_Multicast", "226.117.172.185")
	oldSet("Kickstart_Multicast", "226.117.172.185")
	for _, s := range hostileStrings {
		for _, value := range []string{s, s + s} {
			if err := SetSiteValue(built, s, value); err != nil {
				t.Fatalf("SetSiteValue(%q): %v", s, err)
			}
			oldSet(s, value)
			if v, err := SiteValue(built, s); err != nil || v != value {
				t.Fatalf("SetSiteValue(%q, %q) stored %q, %v", s, value, v, err)
			}
		}
	}
	if built.Dump() != formatted.Dump() {
		t.Fatalf("built and formatted writes left different databases:\n%s\n---\n%s", built.Dump(), formatted.Dump())
	}
	for _, db := range []*Database{built, formatted} {
		kill(db)
		recovered, info := mustOpen(t, db.dur.dir, Options{SnapshotEvery: -1})
		if info.ReplayErrors != 0 || recovered.Dump() != db.Dump() {
			t.Fatalf("recovery of %s: %+v, dump differs: %v", db.dur.dir, info, recovered.Dump() != db.Dump())
		}
		recovered.Close()
	}
}

func TestSetSiteValueInsertsAndUpdates(t *testing.T) {
	db := initDB(t)
	if err := SetSiteValue(db, "ClusterName", "Meteor"); err != nil {
		t.Fatal(err)
	}
	if v, _ := SiteValue(db, "ClusterName"); v != "Meteor" {
		t.Errorf("update path failed: %q", v)
	}
	if err := SetSiteValue(db, "NewAttr", "x"); err != nil {
		t.Fatal(err)
	}
	if v, _ := SiteValue(db, "NewAttr"); v != "x" {
		t.Errorf("insert path failed: %q", v)
	}
}

func TestSQLInjectionSafeEscaping(t *testing.T) {
	db := initDB(t)
	evil := "x'; DELETE FROM nodes -- "
	if _, err := InsertNode(db, Node{MAC: evil, Name: "n", Membership: 2, IP: "10.0.0.9"}); err != nil {
		t.Fatalf("InsertNode with quote in MAC: %v", err)
	}
	n, ok, err := NodeByMAC(db, evil)
	if err != nil || !ok || n.MAC != evil {
		t.Errorf("quoted MAC round-trip failed: %+v %v %v", n, ok, err)
	}
}

func TestSortNodesByLocation(t *testing.T) {
	ns := []Node{{Rack: 1, Rank: 0}, {Rack: 0, Rank: 2}, {Rack: 0, Rank: 1}}
	SortNodesByLocation(ns)
	if ns[0].Rank != 1 || ns[1].Rank != 2 || ns[2].Rack != 1 {
		t.Errorf("sorted = %+v", ns)
	}
}
