package clusterdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// checkStructures verifies what every statement, failing or not, must leave
// true of every table: no stored row occupies two positions, each index
// equals a rebuild of itself from the rows, and the allocation cursor equals
// its rebuild.
func checkStructures(t *testing.T, d *Database, when string) {
	t.Helper()
	d.mu.RLock()
	defer d.mu.RUnlock()
	for name, tb := range d.tables {
		at := map[*Value]int{}
		for pos, row := range tb.rows {
			if len(row) == 0 {
				continue
			}
			if first, dup := at[&row[0]]; dup {
				t.Fatalf("%s: table %s holds one row at positions %d and %d", when, name, first, pos)
			}
			at[&row[0]] = pos
		}
		for _, ix := range tb.indexes {
			want := map[string][]int{}
			for pos, row := range tb.rows {
				if key, ok := ix.keyFor(row); ok {
					want[key] = append(want[key], pos)
				}
			}
			if !reflect.DeepEqual(ix.buckets, want) {
				t.Fatalf("%s: index %s is not a rebuild of itself:\n have %v\n want %v", when, ix.spec.name, ix.buckets, want)
			}
		}
		if tb.alloc != nil {
			fresh := *tb.alloc
			fresh.rebuild(tb.rows)
			if !reflect.DeepEqual(fresh, *tb.alloc) {
				t.Fatalf("%s: allocation cursor %+v, its rebuild %+v", when, *tb.alloc, fresh)
			}
		}
	}
}

// seedTornDelete gives nodes three rows whose comment column makes
// `comment + 0 = 5` accept the first, reject the second and fail on the
// third — the shape that tore the table when DELETE compacted as it went.
func seedTornDelete(t *testing.T, db *Database) {
	t.Helper()
	if err := InitSchema(db); err != nil {
		t.Fatal(err)
	}
	for i, comment := range []string{"5", "6", "abc"} {
		if _, err := InsertNode(db, Node{
			MAC: fmt.Sprintf("aa:00:00:00:00:%02x", i+1), Name: fmt.Sprintf("n%d", i+1),
			Membership: MembershipCompute, Rank: i, IP: fmt.Sprintf("10.9.9.%d", i+1), Comment: comment,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

const tornDelete = `DELETE FROM nodes WHERE comment + 0 = 5`

func TestDeleteWhereErrorLeavesTableIntact(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		db := New()
		mustExec(t, db, `CREATE TABLE t (id INT, c TEXT)`)
		mustExec(t, db, `INSERT INTO t VALUES (1, '5'), (2, '6'), (3, 'abc')`)
		before, seq := db.Dump(), db.ChangeSeq()
		if _, err := db.Exec(`DELETE FROM t WHERE c + 0 = 5`); err == nil || !strings.Contains(err.Error(), "requires integer operands") {
			t.Fatalf("DELETE = %v, want the arithmetic error", err)
		}
		if got := db.Dump(); got != before {
			t.Errorf("failed DELETE changed the table:\n--- before\n%s--- after\n%s", before, got)
		}
		if db.ChangeSeq() != seq+1 {
			t.Errorf("ChangeSeq moved %d → %d, want exactly one step", seq, db.ChangeSeq())
		}
		checkStructures(t, db, "after failed DELETE")
	})

	t.Run("nodes", func(t *testing.T) {
		db := New()
		seedTornDelete(t, db)
		before, seq := db.Dump(), db.ChangeSeq()
		if _, err := db.Exec(tornDelete); err == nil {
			t.Fatal("DELETE with a failing WHERE succeeded")
		}
		if got := db.Dump(); got != before {
			t.Errorf("failed DELETE changed nodes:\n--- before\n%s--- after\n%s", before, got)
		}
		if db.ChangeSeq() != seq+1 {
			t.Errorf("ChangeSeq moved %d → %d, want exactly one step", seq, db.ChangeSeq())
		}
		checkStructures(t, db, "after failed DELETE")
		for i := 1; i <= 3; i++ {
			name := fmt.Sprintf("n%d", i)
			lookups := map[string]func() (Node, bool, error){
				"NodeByName": func() (Node, bool, error) { return NodeByName(db, name) },
				"NodeByMAC":  func() (Node, bool, error) { return NodeByMAC(db, fmt.Sprintf("aa:00:00:00:00:%02x", i)) },
				"NodeByIP":   func() (Node, bool, error) { return NodeByIP(db, fmt.Sprintf("10.9.9.%d", i)) },
			}
			for how, lookup := range lookups {
				if n, ok, err := lookup(); err != nil || !ok || n.Name != name {
					t.Errorf("%s for %s = %+v, %v, %v", how, name, n, ok, err)
				}
			}
		}
	})

	// The log holds the failing statement; a kill and reopen replays it to
	// the same untouched table and counts it as the one replay error.
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		d, _ := mustOpen(t, dir, Options{})
		seedTornDelete(t, d)
		want := d.Dump()
		if _, err := d.Exec(tornDelete); err == nil {
			t.Fatal("DELETE with a failing WHERE succeeded")
		}
		seq := d.ChangeSeq()
		kill(d)

		d2, info := mustOpen(t, dir, Options{})
		defer d2.Close()
		if info.ReplayErrors != 1 {
			t.Errorf("recovery = %+v, want exactly one replay error", info)
		}
		if got := d2.Dump(); got != want {
			t.Errorf("recovered dump differs:\n--- want\n%s--- got\n%s", want, got)
		}
		if d2.ChangeSeq() != seq {
			t.Errorf("recovered ChangeSeq = %d, want %d", d2.ChangeSeq(), seq)
		}
		checkStructures(t, d2, "after recovery")
		if n, ok, err := NodeByName(d2, "n1"); err != nil || !ok || n.MAC != "aa:00:00:00:00:01" {
			t.Errorf("recovered NodeByName(n1) = %+v, %v, %v", n, ok, err)
		}
	})
}

// TestHavingLimitAndMixedSelect pins the three behaviours that differed
// between the copies of the aggregate path: HAVING takes any aggregate the
// select list takes, LIMIT bounds an ungrouped aggregate, and a scalar beside
// an aggregate is refused with advice that is true.
func TestHavingLimitAndMixedSelect(t *testing.T) {
	db := newTestDB(t)
	cases := []struct {
		sql     string
		want    string // rendered rows, "|" between cells and ";" between rows
		wantErr string
	}{
		{sql: `SELECT membership, COUNT(*) FROM nodes GROUP BY membership HAVING SUM(id+0) > 9`, want: "2|4"},
		{sql: `SELECT membership FROM nodes GROUP BY membership HAVING SUM(rank + 1) > 2`, want: "2"},
		{sql: `SELECT membership FROM nodes GROUP BY membership HAVING MAX(rank) - MIN(rank) = 3`, want: "2"},
		{sql: `SELECT rack FROM nodes GROUP BY rack HAVING COUNT(*) > 1 AND SUM(id) < 30`, want: "0"},
		{sql: `SELECT rack FROM nodes GROUP BY rack HAVING COUNT(comment) IN (1, 2)`, want: "1"},
		{sql: `SELECT rack, COUNT(*) FROM nodes GROUP BY rack HAVING name = 'x'`,
			wantErr: `clusterdb: HAVING: clusterdb: unknown column "name" (only aggregates and literals are allowed)`},
		{sql: `SELECT COUNT(*) FROM nodes LIMIT 0`, want: ""},
		{sql: `SELECT COUNT(*) FROM nodes LIMIT 1`, want: "8"},
		{sql: `SELECT rack, COUNT(*) FROM nodes GROUP BY rack LIMIT 0`, want: ""},
		{sql: `SELECT name, COUNT(*) FROM nodes`,
			wantErr: `clusterdb: column "name" must be an aggregate or named in GROUP BY`},
	}
	for _, c := range cases {
		res, err := db.Query(c.sql)
		if c.wantErr != "" {
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("%s\n  error %v\n  want  %s", c.sql, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		var rows []string
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			rows = append(rows, strings.Join(cells, "|"))
		}
		if got := strings.Join(rows, ";"); got != c.want || res.Affected != len(res.Rows) {
			t.Errorf("%s\n  rows %q (affected %d)\n  want %q", c.sql, got, res.Affected, c.want)
		}
	}
}

// TestUngroupedAggregateIsZeroKeyGroup says the two aggregate forms are one:
// over any non-empty match set an all-aggregate select list answers what the
// same list answers under GROUP BY a constant, indexed or scanned. Over an
// empty one the ungrouped form still has its one group and the grouped form
// has none.
func TestUngroupedAggregateIsZeroKeyGroup(t *testing.T) {
	db := New()
	if err := InitSchema(db); err != nil {
		t.Fatal(err)
	}
	populateRandomNodes(t, db, rand.New(rand.NewSource(7)), 120)
	lists := []string{
		`count(*), min(rank), max(rank)`, // the shape in differentialQueries
		`count(*)`,
		`COUNT(mac), COUNT(cpus)`,
		`MIN(mac), MAX(ip), MIN(cpus), MAX(cpus)`,
		`SUM(cpus), SUM(id + 1) AS s`,
		`MAX(name), COUNT(*) AS n, SUM(rack)`,
	}
	wheres := []struct {
		cond  string
		empty bool
	}{
		{cond: `membership = 2 AND rack = 2`},
		{cond: `membership = 2`},
		{cond: `mac = '02:00:00:00:00:11'`},
		{cond: `name LIKE 'ghost-%'`}, // mac, ip, rank and cpus all NULL
		{cond: `mac IS NULL OR rank < 9`},
		{cond: `id > 0`},
		{cond: `membership = 2 AND rack = 99`, empty: true},
		{cond: `name = 'no-such-node'`, empty: true},
		{cond: `rank < 0`, empty: true},
	}
	for _, list := range lists {
		for _, w := range wheres {
			for _, routing := range []bool{true, false} {
				db.SetIndexRouting(routing)
				base := fmt.Sprintf(`SELECT %s FROM nodes WHERE %s`, list, w.cond)
				flat, err := db.Query(base)
				if err != nil {
					t.Fatalf("%s: %v", base, err)
				}
				keyed, err := db.Query(base + ` GROUP BY 'k'`)
				if err != nil {
					t.Fatalf("%s GROUP BY 'k': %v", base, err)
				}
				if len(flat.Rows) != 1 {
					t.Fatalf("routing %v: %s returned %d rows, want 1", routing, base, len(flat.Rows))
				}
				if w.empty {
					if len(keyed.Rows) != 0 {
						t.Errorf("routing %v: %s GROUP BY 'k' over no rows = %v, want no group", routing, base, keyed.Rows)
					}
					continue
				}
				if !reflect.DeepEqual(flat.Columns, keyed.Columns) || !reflect.DeepEqual(flat.Rows, keyed.Rows) {
					t.Errorf("routing %v: %s\n  ungrouped %v\n  grouped   %v", routing, base, flat.Rows, keyed.Rows)
				}
			}
		}
	}
	db.SetIndexRouting(true)
}

// TestKeyEncodingIsOne checks the three users of appendKeyPart against each
// other: a stored row's bucket key is the concatenation of the probe parts of
// its cells, and the allocation cursor's address probe finds exactly the
// addresses the index holds — without allocating, since it runs per
// discovery.
func TestKeyEncodingIsOne(t *testing.T) {
	db := New()
	if err := InitSchema(db); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	inserted := map[uint32]bool{}
	for i := 0; i < 200; i++ {
		a := ipTop - uint32(rng.Intn(600))
		if inserted[a] {
			continue
		}
		inserted[a] = true
		mustExec(t, db, fmt.Sprintf(
			`INSERT INTO nodes (id, mac, name, membership, rack, rank, ip) VALUES (%d, 'm%d', 'n %d''s', %d, %d, %d, '%s')`,
			rng.Int63()-rng.Int63(), i, i, rng.Intn(4), rng.Intn(9)-4, i, appendIPv4(nil, a)))
	}
	nodes := db.tables["nodes"]
	for _, row := range nodes.rows {
		for _, ix := range nodes.indexes {
			key, ok := ix.keyFor(row)
			if !ok {
				t.Fatalf("index %s: no key for %v", ix.spec.name, row)
			}
			var probe []byte
			cells := make([]Value, len(ix.colIdx))
			for i, ci := range ix.colIdx {
				var pOK, empty bool
				if probe, pOK, empty = canonicalKeyPart(probe, nodes.cols[ci].Type, row[ci]); !pOK || empty {
					t.Fatalf("index %s: cell %v does not probe (ok %v, empty %v)", ix.spec.name, row[ci], pOK, empty)
				}
				cells[i] = row[ci]
			}
			if key != string(probe) || key != rowKey(cells) {
				t.Fatalf("index %s: stored key %q, probe key %q, row key %q", ix.spec.name, key, probe, rowKey(cells))
			}
		}
	}
	for a := ipTop - 700; a <= ipTop; a++ {
		if got := nodes.alloc.taken(a); got != inserted[a] {
			t.Fatalf("taken(%s) = %v, inserted %v", appendIPv4(nil, a), got, inserted[a])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { nodes.alloc.taken(ipTop - 3) }); allocs != 0 {
		t.Errorf("taken allocates %.0f times per probe, want 0", allocs)
	}
}
