package clusterdb

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sprintfInsertNode is the text InsertNode wrote while it still formatted its
// values into SQL for the parser to find again (defaults applied as it applied
// them), kept as the oracle for the statement that is now built.
func sprintfInsertNode(n Node) string {
	if n.CPUs == 0 {
		n.CPUs = 1
	}
	if n.Arch == "" {
		n.Arch = "i386"
	}
	return fmt.Sprintf(
		`INSERT INTO nodes (%s) VALUES (%d, '%s', '%s', %d, %d, %d, '%s', '%s', '%s', %d)`,
		nodeCols, n.ID, sqlEscape(n.MAC), sqlEscape(n.Name), n.Membership,
		n.Rack, n.Rank, sqlEscape(n.IP), sqlEscape(n.Comment), sqlEscape(n.Arch), n.CPUs)
}

// checkBuiltIsParsed checks, for a node with its defaults applied, that the
// built statement's text is the old formatted text byte for byte and that
// parsing that text gives back the built statement.
func checkBuiltIsParsed(t *testing.T, n Node) {
	t.Helper()
	built, text, err := nodeInsert(n)
	if err != nil {
		t.Fatalf("nodeInsert(%+v): %v", n, err)
	}
	if want := sprintfInsertNode(n); text != want {
		t.Fatalf("built text differs from the formatted text:\n have %q\n want %q", text, want)
	}
	parsed, err := parse(text)
	if err != nil {
		t.Fatalf("parse(%q): %v", text, err)
	}
	if !reflect.DeepEqual(parsed, built) {
		t.Fatalf("parse(%q)\n  = %#v\nbuilt %#v", text, parsed, built)
	}
}

// walBytes reads a durable database's log file.
func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// twins opens two fresh durable databases with the schema seeded and returns
// a check that their dumps and logs are byte-identical.
func twins(t *testing.T) (a, b *Database, same func(when string)) {
	t.Helper()
	dirs := [2]string{t.TempDir(), t.TempDir()}
	var dbs [2]*Database
	for i, dir := range dirs {
		dbs[i], _ = mustOpen(t, dir, Options{SnapshotEvery: -1})
		if err := InitSchema(dbs[i]); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { dbs[0].Close(); dbs[1].Close() })
	return dbs[0], dbs[1], func(when string) {
		t.Helper()
		if x, y := dbs[0].Dump(), dbs[1].Dump(); x != y {
			t.Fatalf("%s: dumps differ:\n%s\n---\n%s", when, x, y)
		}
		if x, y := walBytes(t, dirs[0]), walBytes(t, dirs[1]); string(x) != string(y) {
			t.Fatalf("%s: logs differ: %d and %d bytes", when, len(x), len(y))
		}
	}
}

// hostileStrings are what a syslog line or an administrator's flag could put
// in a node's text columns that a text-building INSERT has to get right.
var hostileStrings = []string{
	"it's", "''", `'`, `back\slash`, `\'`, "nul\x00byte", "line\nbreak\r\n-- not a comment",
	"--", ");", "'); DROP TABLE nodes; --", "\u2028", "\xff\xfe invalid utf-8 \xc3", `"double"`, " ",
}

// TestBuiltInsertIsTheParsedInsert pins "built, not parsed": for hostile
// strings in every text column (and negative integers, which the parser reads
// as 0 - n) the built statement's text is the old formatted text, parses back
// to the built statement, and InsertNode on one database and Exec of the old
// text on its twin leave byte-identical dumps and logs, before and after
// recovery replays them.
func TestBuiltInsertIsTheParsedInsert(t *testing.T) {
	built, formatted, same := twins(t)
	for i, s := range hostileStrings {
		n := Node{ID: 100 + i, MAC: s, Name: s, Membership: MembershipCompute, Rack: i - 3, Rank: 2 - i,
			IP: s, Comment: s, Arch: s, CPUs: 1 + i%2}
		checkBuiltIsParsed(t, n)
		if _, err := InsertNode(built, n); err != nil {
			t.Fatalf("InsertNode(%q): %v", s, err)
		}
		mustExec(t, formatted, sprintfInsertNode(n))
		got, ok, err := NodeByMAC(built, s)
		if err != nil || !ok || got != n {
			t.Fatalf("NodeByMAC(%q) = %+v, %v, %v; want %+v", s, got, ok, err, n)
		}
	}
	// Defaults, an allocated id, and a mix of columns holding different text.
	n := Node{MAC: "m" + hostileStrings[0], Name: "n" + hostileStrings[5], IP: "i" + hostileStrings[6], Comment: hostileStrings[9]}
	stored, err := InsertNode(built, n)
	if err != nil {
		t.Fatal(err)
	}
	checkBuiltIsParsed(t, stored)
	mustExec(t, formatted, sprintfInsertNode(stored))
	same("after the inserts")
	// The one integer with no literal is refused before anything is logged.
	if _, err := InsertNode(built, Node{ID: 999, MAC: "m", Rack: -1 << 63}); err == nil {
		t.Fatal("a rack of -1<<63 was rendered into SQL the parser cannot read")
	}
	same("after the refused insert")
	for _, db := range []*Database{built, formatted} {
		kill(db)
		recovered, info := mustOpen(t, db.dur.dir, Options{SnapshotEvery: -1})
		if info.ReplayErrors != 0 || recovered.Dump() != db.Dump() {
			t.Fatalf("recovery of %s: %+v, dump differs: %v", db.dur.dir, info, recovered.Dump() != db.Dump())
		}
		recovered.Close()
	}
}

// TestWALRecordPinned pins one log record byte for byte — framing, sequence
// number and the INSERT's text — so the format a discovery writes cannot
// drift without this test saying so: a log written before statements were
// built must replay after, and the reverse.
func TestWALRecordPinned(t *testing.T) {
	dir := t.TempDir()
	db, _ := mustOpen(t, dir, Options{SnapshotEvery: -1})
	defer db.Close()
	if err := InitSchema(db); err != nil {
		t.Fatal(err)
	}
	before := len(walBytes(t, dir))
	if _, err := InsertDiscovered(db, Node{MAC: "00:50:8b:e0:3a:a7", Membership: MembershipCompute,
		Comment: "Discovered by insert-ethers", Arch: "i386", CPUs: 1}); err != nil {
		t.Fatal(err)
	}
	const want = "\x00\x00\x00\xce" + "\xf1\x4f\x2c\x70" + "\x00\x00\x00\x00\x00\x00\x00\x09" +
		"INSERT INTO nodes (id, mac, name, membership, rack, rank, ip, comment, arch, cpus) VALUES " +
		"(1, '00:50:8b:e0:3a:a7', 'compute-0-0', 2, 0, 0, '10.255.255.254', 'Discovered by insert-ethers', 'i386', 1)"
	if got := string(walBytes(t, dir)[before:]); got != want {
		t.Fatalf("log record\n have %q\n want %q", got, want)
	}
}

// TestInsertDiscoveredIsTheSequence: a database populated through
// InsertDiscovered has the dump and the log, byte for byte, of one populated
// by MembershipBasename + NextRank + NextFreeIP + InsertNode in sequence —
// across memberships (Table II's network-0-0 included), racks, and holes that
// deletes open in the ranks and the addresses.
func TestInsertDiscoveredIsTheSequence(t *testing.T) {
	one, seq, same := twins(t)
	for i := 0; i < 120; i++ {
		n := Node{MAC: fmt.Sprintf("02:00:00:00:00:%02x", i), Membership: MembershipCompute, Rack: i % 3,
			Comment: "Discovered by insert-ethers", Arch: "i386", CPUs: 1 + i%2}
		if i%10 == 9 {
			n.Membership, n.Arch, n.CPUs = MembershipEthernetSwitch, "", 0
		}
		got, err := InsertDiscovered(one, n)
		if err != nil {
			t.Fatalf("discovery %d: %v", i, err)
		}
		base, err := MembershipBasename(seq, n.Membership)
		if err != nil {
			t.Fatal(err)
		}
		if n.Rank, err = NextRank(seq, n.Membership, n.Rack); err != nil {
			t.Fatal(err)
		}
		if n.IP, err = NextFreeIP(seq); err != nil {
			t.Fatal(err)
		}
		n.Name = fmt.Sprintf("%s-%d-%d", base, n.Rack, n.Rank)
		want, err := InsertNode(seq, n)
		if err != nil || got != want {
			t.Fatalf("discovery %d: InsertDiscovered stored %+v; the sequence %+v, %v", i, got, want, err)
		}
		if i == 9 && got.Name != "network-0-0" {
			t.Fatalf("first switch is %q, want network-0-0", got.Name)
		}
		if i%25 == 24 { // decommission one from the middle: its rank and address come round again
			for _, db := range []*Database{one, seq} {
				if err := DeleteNode(db, fmt.Sprintf("compute-%d-%d", i%3, i/10)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	same("after 120 discoveries")
}

// TestPlanCacheHoldsWhatRepeats: a discovery hands the plan cache no text of
// its own. Once the first discovery and report pass have entered the session's
// repeated statements, 2 000 more leave the entry count where it was and
// every lookup of the session hits.
func TestPlanCacheHoldsWhatRepeats(t *testing.T) {
	db := initDB(t)
	session := func(from, to int) {
		for i := from; i < to; i++ {
			mac := fmt.Sprintf("02:00:00:00:%02x:%02x", i>>8, i&255)
			if _, known, err := NodeByMAC(db, mac); err != nil || known {
				t.Fatal(known, err)
			}
			if _, err := InsertDiscovered(db, Node{MAC: mac, Membership: MembershipCompute, Rack: i / 250}); err != nil {
				t.Fatal(err)
			}
			if i%100 == 0 { // a coalesced report pass
				for _, report := range []func(*Database) (string, error){HostsReport, DHCPReport, PBSNodesReport} {
					if _, err := report(db); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	session(0, 1)
	before := db.Stats()
	session(1, 2001)
	after := db.Stats()
	if after.PlanCacheEntries != before.PlanCacheEntries {
		t.Errorf("plan cache went from %d to %d entries over 2000 discoveries", before.PlanCacheEntries, after.PlanCacheEntries)
	}
	hits, misses := after.PlanCacheHits-before.PlanCacheHits, after.PlanCacheMisses-before.PlanCacheMisses
	if hits < 2000 || float64(hits) < 0.99*float64(hits+misses) {
		t.Errorf("plan cache: %d hits, %d misses over the session, want a hit ratio of at least 0.99", hits, misses)
	}
}
