package clusterdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// populateRandomNodes fills a schema'd database with n deterministic
// pseudo-random nodes: unique macs/ips/names, random placement, a sprinkle
// of NULL-mac ghost rows (hardware registered before discovery).
func populateRandomNodes(t *testing.T, db *Database, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		node := Node{
			MAC:        fmt.Sprintf("02:00:00:00:%02x:%02x", i/256, i%256),
			Name:       fmt.Sprintf("compute-x-%d", i),
			Membership: 2 + rng.Intn(2),
			Rack:       rng.Intn(5),
			Rank:       i,
			IP:         fmt.Sprintf("10.7.%d.%d", i/256, i%256),
			CPUs:       1 + rng.Intn(4),
		}
		if _, err := InsertNode(db, node); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		mustExec(t, db, fmt.Sprintf(
			`INSERT INTO nodes (id, name, membership, rack) VALUES (%d, 'ghost-%d', 2, %d)`,
			9000+i, i, i%3))
	}
}

// differentialQueries is the catalog the indexed-vs-scan comparison runs:
// point lookups the planner routes, predicates it must refuse, and shapes
// (aggregates, GROUP BY, ORDER BY) layered over both.
var differentialQueries = []string{
	// Routed single-column probes, hit and miss.
	`SELECT * FROM nodes WHERE mac = '02:00:00:00:00:11'`,
	`SELECT id, name FROM nodes WHERE ip = '10.7.0.40'`,
	`SELECT * FROM nodes WHERE name = 'compute-x-7'`,
	`SELECT * FROM nodes WHERE name = 'no-such-node'`,
	`SELECT * FROM nodes WHERE nodes.mac = '02:00:00:00:00:22'`,
	`SELECT n.name FROM nodes n WHERE n.mac = '02:00:00:00:00:22'`,
	// Composite index, both conjunct orders, plus extra conjuncts.
	`SELECT name FROM nodes WHERE membership = 2 AND rack = 3`,
	`SELECT name FROM nodes WHERE rack = 3 AND membership = 2`,
	`SELECT name FROM nodes WHERE membership = 2 AND rack = 1 AND cpus = 2`,
	`SELECT name FROM nodes WHERE mac = '02:00:00:00:00:33' AND cpus = 1`,
	// Conflicting equalities: first probe narrows, full WHERE rejects.
	`SELECT name FROM nodes WHERE mac = '02:00:00:00:00:11' AND mac = '02:00:00:00:00:12'`,
	// Numeric-string literals on INT columns still probe.
	`SELECT name FROM nodes WHERE membership = '2' AND rack = '0'`,
	// Non-numeric literal on an INT column: provably empty either way.
	`SELECT name FROM nodes WHERE membership = 'zap' AND rack = 0`,
	// Integer literal on a TEXT column: '0042'-style coercion forces a scan.
	`SELECT name FROM nodes WHERE name = 7`,
	// Shapes the planner must leave to the scan path.
	`SELECT name FROM nodes WHERE mac = '02:00:00:00:00:11' OR ip = '10.7.0.9'`,
	`SELECT name FROM nodes WHERE mac IN ('02:00:00:00:00:11', '02:00:00:00:00:12')`,
	`SELECT name FROM nodes WHERE mac IS NULL AND rack = 1`,
	`SELECT name FROM nodes WHERE rank < 20 AND membership = 2`,
	`SELECT name FROM nodes WHERE mac LIKE '02:00:%' AND rack = 2`,
	// Sorting, limits, distinct, aggregates, grouping over indexed probes.
	`SELECT name FROM nodes WHERE membership = 2 AND rack = 1 ORDER BY rank DESC LIMIT 3`,
	`SELECT DISTINCT cpus FROM nodes WHERE membership = 3 AND rack = 0`,
	`SELECT count(*), min(rank), max(rank) FROM nodes WHERE membership = 2 AND rack = 2`,
	`SELECT rank, count(*) FROM nodes WHERE membership = 2 AND rack = 0 GROUP BY rank`,
	`SELECT rack, count(*) FROM nodes WHERE membership = 2 GROUP BY rack`,
	// Joins always scan; results must still match with routing on.
	`SELECT nodes.name, memberships.name FROM nodes, memberships
	 WHERE nodes.membership = memberships.id AND nodes.rack = 4 ORDER BY nodes.id`,
	// Errors must surface identically (unknown column alongside a probe).
	`SELECT name FROM nodes WHERE mac = '02:00:00:00:00:11' AND bogus = 1`,
}

// TestDifferentialIndexVsScan proves the planner's outputs are
// byte-identical to the scan path over randomized data, including after
// index maintenance (updates and deletes that shift row positions).
func TestDifferentialIndexVsScan(t *testing.T) {
	db := New()
	if err := InitSchema(db); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	populateRandomNodes(t, db, rng, 160)

	compareAll := func(stage string) {
		t.Helper()
		for _, q := range differentialQueries {
			db.SetIndexRouting(true)
			idxRes, idxErr := db.Query(q)
			before := db.Stats()
			db.SetIndexRouting(false)
			scanRes, scanErr := db.Query(q)
			after := db.Stats()
			db.SetIndexRouting(true)
			if after.IndexSelects != before.IndexSelects {
				t.Fatalf("%s: %q used an index with routing disabled", stage, q)
			}
			if (idxErr == nil) != (scanErr == nil) ||
				(idxErr != nil && idxErr.Error() != scanErr.Error()) {
				t.Fatalf("%s: %q error mismatch: indexed=%v scan=%v", stage, q, idxErr, scanErr)
			}
			if idxErr != nil {
				continue
			}
			if idxRes.Format() != scanRes.Format() {
				t.Fatalf("%s: %q rendered differently:\nindexed:\n%s\nscan:\n%s",
					stage, q, idxRes.Format(), scanRes.Format())
			}
			if !reflect.DeepEqual(idxRes.Rows, scanRes.Rows) {
				t.Fatalf("%s: %q rows differ", stage, q)
			}
		}
	}

	before := db.Stats()
	compareAll("fresh")
	after := db.Stats()
	if after.IndexSelects <= before.IndexSelects {
		t.Fatalf("catalog never hit an index: %+v", after)
	}
	if after.ScanSelects <= before.ScanSelects {
		t.Fatalf("catalog never fell back to a scan: %+v", after)
	}

	// Mutate: random racks move, some nodes decommission, then re-verify.
	for i := 0; i < 40; i++ {
		id := 1 + rng.Intn(160)
		mustExec(t, db, fmt.Sprintf("UPDATE nodes SET rack = %d, cpus = %d WHERE id = %d",
			rng.Intn(5), 1+rng.Intn(4), id))
	}
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf("DELETE FROM nodes WHERE name = 'compute-x-%d'", rng.Intn(160)))
	}
	compareAll("after-maintenance")
}

func TestUniqueIndexEnforcement(t *testing.T) {
	db := New()
	if err := InitSchema(db); err != nil {
		t.Fatal(err)
	}
	if _, err := InsertNode(db, Node{MAC: "aa:aa", Name: "c-0-0", IP: "10.9.0.1", Membership: 2}); err != nil {
		t.Fatal(err)
	}
	// Duplicate MAC, IP, and name each refuse.
	dups := []Node{
		{MAC: "aa:aa", Name: "c-0-1", IP: "10.9.0.2", Membership: 2},
		{MAC: "aa:ab", Name: "c-0-2", IP: "10.9.0.1", Membership: 2},
		{MAC: "aa:ac", Name: "c-0-0", IP: "10.9.0.3", Membership: 2},
	}
	for _, n := range dups {
		if _, err := InsertNode(db, n); err == nil || !strings.Contains(err.Error(), "unique index") {
			t.Errorf("InsertNode(%+v) = %v, want unique-index error", n, err)
		}
	}
	// UPDATE into a collision refuses; updating a row to its own key is fine.
	if _, err := InsertNode(db, Node{MAC: "bb:bb", Name: "c-0-9", IP: "10.9.0.9", Membership: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`UPDATE nodes SET mac = 'aa:aa' WHERE name = 'c-0-9'`); err == nil {
		t.Error("UPDATE into duplicate mac should fail")
	}
	if _, err := db.Exec(`UPDATE nodes SET mac = 'bb:bb' WHERE name = 'c-0-9'`); err != nil {
		t.Errorf("self-assignment should succeed: %v", err)
	}
	// Sparse semantics: NULL and empty keys may repeat.
	mustExec(t, db, `INSERT INTO nodes (id, name, membership) VALUES (501, 'null-1', 2)`)
	mustExec(t, db, `INSERT INTO nodes (id, name, membership) VALUES (502, 'null-2', 2)`)
	mustExec(t, db, `INSERT INTO nodes (id, mac, name, membership) VALUES (503, '', 'empty-1', 2)`)
	mustExec(t, db, `INSERT INTO nodes (id, mac, name, membership) VALUES (504, '', 'empty-2', 2)`)
	// Freeing a key by delete makes it insertable again.
	if err := DeleteNode(db, "c-0-9"); err != nil {
		t.Fatal(err)
	}
	if _, err := InsertNode(db, Node{MAC: "bb:bb", Name: "c-0-9", IP: "10.9.0.9", Membership: 2}); err != nil {
		t.Errorf("reinsert after delete: %v", err)
	}
}

func TestOneNodeRejectsDuplicateMatches(t *testing.T) {
	db := New()
	if err := InitSchema(db); err != nil {
		t.Fatal(err)
	}
	// Two identity-less rows legally share mac='' under sparse uniqueness;
	// looking one up by that non-identity must error, not pick arbitrarily.
	mustExec(t, db, `INSERT INTO nodes (id, mac, name, membership) VALUES (601, '', 'blank-1', 2)`)
	mustExec(t, db, `INSERT INTO nodes (id, mac, name, membership) VALUES (602, '', 'blank-2', 2)`)
	_, _, err := NodeByMAC(db, "")
	if err == nil || !strings.Contains(err.Error(), "expected at most one") {
		t.Fatalf("NodeByMAC('') = %v, want duplicate-match error", err)
	}
	// A unique match still resolves.
	if _, ok, err := NodeByName(db, "blank-1"); err != nil || !ok {
		t.Fatalf("NodeByName(blank-1) = %v, %v", ok, err)
	}
}

func TestIndexesSurviveDumpRestore(t *testing.T) {
	db := New()
	if err := InitSchema(db); err != nil {
		t.Fatal(err)
	}
	if _, err := InsertNode(db, Node{MAC: "cc:cc", Name: "c-1-0", IP: "10.9.1.1", Membership: 2}); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := Restore(restored, db.Dump()); err != nil {
		t.Fatal(err)
	}
	if len(restored.Stats().Indexes) == 0 {
		t.Fatal("restored database has no indexes")
	}
	before := restored.Stats().IndexSelects
	n, ok, err := NodeByMAC(restored, "cc:cc")
	if err != nil || !ok || n.Name != "c-1-0" {
		t.Fatalf("restored lookup = %+v, %v, %v", n, ok, err)
	}
	if restored.Stats().IndexSelects <= before {
		t.Error("restored lookup did not use the index")
	}
	if _, err := InsertNode(restored, Node{MAC: "cc:cc", Name: "c-1-1", IP: "10.9.1.2", Membership: 2}); err == nil {
		t.Error("restored database lost unique enforcement")
	}
}

// TestConcurrentIndexMaintenance hammers inserts, updates, deletes, and
// indexed reads from many goroutines; run under -race this exercises the
// locking around bucket maintenance.
func TestConcurrentIndexMaintenance(t *testing.T) {
	db := New()
	if err := InitSchema(db); err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		perW    = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers*perW*3)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				id := 100 + w*1000 + i
				_, err := db.Exec(fmt.Sprintf(
					`INSERT INTO nodes (id, mac, name, membership, rack, rank, ip)
					 VALUES (%d, 'st:%d:%d', 'storm-%d-%d', 2, %d, %d, '10.8.%d.%d')`,
					id, w, i, w, i, w, i, w, i))
				if err != nil {
					errs <- err
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if _, err := db.Exec(fmt.Sprintf(
					"UPDATE nodes SET cpus = %d WHERE name = 'storm-%d-%d'", 1+i%4, w, i)); err != nil {
					errs <- err
				}
				if err := DeleteNode(db, fmt.Sprintf("storm-%d-%d", 2+w, i)); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perW*2; i++ {
				if _, _, err := NodeByMAC(db, fmt.Sprintf("st:%d:%d", r%writers, i%perW)); err != nil {
					errs <- err
				}
				if _, err := db.Query(`SELECT count(*) FROM nodes WHERE membership = 2 AND rack = 1`); err != nil {
					errs <- err
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The survivors must still be consistent between index and scan paths.
	db.SetIndexRouting(false)
	scan, _ := db.Query(`SELECT name FROM nodes WHERE membership = 2 AND rack = 1 ORDER BY id`)
	db.SetIndexRouting(true)
	idx, _ := db.Query(`SELECT name FROM nodes WHERE membership = 2 AND rack = 1 ORDER BY id`)
	if scan.Format() != idx.Format() {
		t.Fatalf("post-storm divergence:\n%s\nvs\n%s", idx.Format(), scan.Format())
	}
}

func TestPlanCacheHitsAndRotation(t *testing.T) {
	db := New()
	if err := InitSchema(db); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT name FROM nodes WHERE id = 1`
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	h0 := db.Stats().PlanCacheHits
	for i := 0; i < 10; i++ {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	s := db.Stats()
	if s.PlanCacheHits < h0+10 {
		t.Errorf("hits = %d, want >= %d", s.PlanCacheHits, h0+10)
	}
	if s.PlanCacheEntries == 0 {
		t.Error("no cached plans")
	}
	// One-shot texts (INSERTs with inlined values) must not grow the cache
	// without bound: after thousands of distinct statements the entry count
	// stays within two generations.
	mustExec(t, db, `CREATE TABLE scratch (n INT)`)
	for i := 0; i < 3*planCacheGeneration; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO scratch VALUES (%d)", i))
		if i%100 == 0 {
			if _, err := db.Query(q); err != nil { // keep the hot statement hot
				t.Fatal(err)
			}
		}
	}
	if got := db.Stats().PlanCacheEntries; got > 2*planCacheGeneration {
		t.Errorf("cache grew unbounded: %d entries", got)
	}
	// The hot statement survived the churn (promoted across generations
	// each time a prev-generation hit touched it).
	h1 := db.Stats().PlanCacheHits
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if db.Stats().PlanCacheHits != h1+1 {
		t.Error("hot statement evicted by one-shot churn")
	}
}
