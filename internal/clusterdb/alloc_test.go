package clusterdb

import (
	"fmt"
	"math/rand"
	"testing"
)

// refNextFreeIP is the reference allocator: the highest address in
// 10.0.0.0–10.255.255.254 that no row holds, found by walking down from the
// top against a used-set built from a full read of the table.
func refNextFreeIP(t *testing.T, db *Database) string {
	t.Helper()
	res, err := db.Query("SELECT ip FROM nodes")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, row := range res.Rows {
		used[row[0].String()] = true
	}
	for a, b, c := 255, 255, 254; a >= 0; {
		if ip := fmt.Sprintf("10.%d.%d.%d", a, b, c); !used[ip] {
			return ip
		}
		if c--; c < 0 {
			c = 255
			if b--; b < 0 {
				b = 255
				a--
			}
		}
	}
	t.Fatal("reference allocator exhausted")
	return ""
}

// refNextID is the reference id allocation: max(id)+1, or 1 for no ids.
func refNextID(t *testing.T, db *Database) int {
	t.Helper()
	res, err := db.Query("SELECT id FROM nodes")
	if err != nil {
		t.Fatal(err)
	}
	next := 1
	for _, row := range res.Rows {
		if id, ok := row[0].AsInt(); ok && int(id) >= next {
			next = int(id) + 1
		}
	}
	return next
}

// refNextRank is NextRank as it was before the cursor answered it, kept as
// the oracle: SELECT the cabinet's ranks, copy the integers into a set and
// count up from zero to the first one missing.
func refNextRank(t *testing.T, db *Database, membership, rack int) int {
	t.Helper()
	res, err := db.Query(fmt.Sprintf(
		"SELECT rank FROM nodes WHERE membership = %d AND rack = %d", membership, rack))
	if err != nil {
		t.Fatal(err)
	}
	ranks := make(map[int]bool, len(res.Rows))
	for _, row := range res.Rows {
		if n, isInt := row[0].AsInt(); isInt {
			ranks[int(n)] = true
		}
	}
	for r := 0; ; r++ {
		if !ranks[r] {
			return r
		}
	}
}

// allocRacks and allocMemberships are where TestAllocatorMatchesReference puts
// its rows; the last of each stays empty, the cabinet nothing was ever in.
const allocRacks, allocMemberships = 4, 3

// checkAllocator compares the cursor's answers with the references, and
// checks the answers do not depend on the planner's index routing switch.
func checkAllocator(t *testing.T, db *Database, step int, op string) {
	t.Helper()
	wantIP, wantID := refNextFreeIP(t, db), refNextID(t, db)
	for _, routing := range []bool{true, false} {
		db.SetIndexRouting(routing)
		ip, err := NextFreeIP(db)
		if err != nil || ip != wantIP {
			t.Fatalf("step %d (%s), routing %v: NextFreeIP = %q, %v; reference %q", step, op, routing, ip, err, wantIP)
		}
		for m := MembershipCompute; m < MembershipCompute+allocMemberships; m++ {
			for rack := 0; rack < allocRacks; rack++ {
				want := refNextRank(t, db, m, rack)
				if rank, err := NextRank(db, m, rack); err != nil || rank != want {
					t.Fatalf("step %d (%s), routing %v: NextRank(%d, %d) = %d, %v; reference %d", step, op, routing, m, rack, rank, err, want)
				}
			}
		}
	}
	db.SetIndexRouting(true)
	if id, err := db.nextNodeID(); err != nil || id != wantID {
		t.Fatalf("step %d (%s): next id = %d, %v; reference %d", step, op, id, err, wantID)
	}
}

// TestAllocatorMatchesReference drives the nodes table through a seeded
// random sequence of everything that can move the allocation cursor —
// allocated and explicit out-of-order inserts (NULL and negative ranks among
// them), deletes from the middle of a cabinet, ip/id/MAC/rank/rack/membership
// updates, Restore, and close → snapshot load + WAL replay → reopen — and
// checks after every step that the O(1) answers are the reference scans'.
func TestAllocatorMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			// A small snapshot cadence so reopening exercises both the bulk
			// snapshot load and a WAL tail replayed on top of it.
			opts := Options{SnapshotEvery: 37}
			db, _, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.Close() }()
			if err := InitSchema(db); err != nil {
				t.Fatal(err)
			}
			var names []string
			serial := 0
			insert := func(n Node) {
				serial++
				n.MAC = fmt.Sprintf("02:00:00:00:%02x:%02x", serial>>8, serial&255)
				n.Name = fmt.Sprintf("n-%d", serial)
				// One insert in four runs with the planner's index routing
				// off: the id the cursor allocates must not depend on it.
				db.SetIndexRouting(rng.Intn(4) != 0)
				defer db.SetIndexRouting(true)
				wantID := refNextID(t, db)
				got, err := InsertNode(db, n)
				if err != nil {
					return // a duplicate address: rejected, nothing stored
				}
				if n.ID == 0 && got.ID != wantID {
					t.Fatalf("InsertNode allocated id %d, reference %d", got.ID, wantID)
				}
				names = append(names, n.Name)
			}
			pick := func() string { return names[rng.Intn(len(names))] }
			// A cabinet that gets rows: the last rack and membership never do.
			cabinet := func() (membership, rack int) {
				return MembershipCompute + rng.Intn(allocMemberships-1), rng.Intn(allocRacks - 1)
			}
			nearTop := func() string { return fmt.Sprintf("10.255.%d.%d", 255-rng.Intn(2), rng.Intn(256)) }
			checkAllocator(t, db, 0, "empty")
			for step := 1; step <= 400; step++ {
				op := "insert"
				switch k := rng.Intn(24); {
				case k >= 20 && len(names) > 0:
					// Whatever the new value, the cursor must match what the
					// table then holds.
					col := []string{"rank", "rack", "membership"}[k%3]
					op = "update " + col
					val := fmt.Sprint(rng.Intn(6) - 1)
					if rng.Intn(8) == 0 {
						val = "NULL"
					}
					mustExec(t, db, fmt.Sprintf("UPDATE nodes SET %s = %s WHERE name = '%s'", col, val, pick()))
				case k < 9 || len(names) == 0: // what insert-ethers does
					m, rack := cabinet()
					rank, err := NextRank(db, m, rack)
					if err != nil {
						t.Fatal(err)
					}
					ip, err := NextFreeIP(db)
					if err != nil {
						t.Fatal(err)
					}
					insert(Node{Membership: m, Rack: rack, Rank: rank, IP: ip})
				case k < 11:
					op = "insert explicit"
					// Out-of-order id and rank (one in four negative) and an
					// address near the top: sometimes a duplicate (rejected),
					// sometimes below the cursor, sometimes exactly on it.
					m, rack := cabinet()
					insert(Node{ID: 1 + rng.Intn(1000), Membership: m, Rack: rack, Rank: rng.Intn(16) - 4, IP: nearTop()})
				case k < 12:
					op = "insert NULL rank"
					serial++
					m, rack := cabinet()
					name := fmt.Sprintf("n-%d", serial)
					mustExec(t, db, fmt.Sprintf(
						"INSERT INTO nodes (id, mac, name, membership, rack, rank, ip) VALUES (%d, '02:aa:00:00:%02x:%02x', '%s', %d, %d, NULL, '10.9.%d.%d')",
						refNextID(t, db), serial>>8, serial&255, name, m, rack, serial>>8, serial&255))
					names = append(names, name)
				case k < 14:
					op = "delete"
					i := rng.Intn(len(names))
					if err := DeleteNode(db, names[i]); err != nil {
						t.Fatal(err)
					}
					names = append(names[:i], names[i+1:]...)
				case k < 16:
					op = "update ip"
					// May fail on a duplicate address; either way the cursor
					// must match what the table then holds.
					db.Exec(fmt.Sprintf("UPDATE nodes SET ip = '%s' WHERE name = '%s'", nearTop(), pick()))
				case k < 17:
					op = "update id"
					db.Exec(fmt.Sprintf("UPDATE nodes SET id = %d WHERE name = '%s'", rng.Intn(2000), pick()))
				case k < 18:
					op = "rebind mac"
					if err := RebindNodeMAC(db, pick(), fmt.Sprintf("02:ff:00:00:%02x:%02x", step>>8, step&255)); err != nil {
						t.Fatal(err)
					}
				case k < 19:
					op = "restore"
					dump := db.Dump()
					for _, name := range db.TableNames() {
						db.MustExec("DROP TABLE " + name)
					}
					if err := Restore(db, dump); err != nil {
						t.Fatal(err)
					}
				default:
					op = "reopen"
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					if step%2 == 0 {
						// Leave the next life a WAL tail to replay on top of
						// the snapshot Close just wrote.
						db, _, err = Open(dir, opts)
						if err != nil {
							t.Fatal(err)
						}
						ip, _ := NextFreeIP(db)
						insert(Node{IP: ip})
						db.dur.crashed.Store(true) // close without snapshotting
						db.Close()
					}
					if db, _, err = Open(dir, opts); err != nil {
						t.Fatal(err)
					}
				}
				checkAllocator(t, db, step, op)
			}
		})
	}
}

// TestAllocatorProbesStayConstant pins the O(1) claim by count: once the
// cursor is past the allocated block, an allocation is one index probe and
// no scan SELECT, however many addresses are taken; and a whole discovery
// into a cabinet of 255 machines costs what one into a cabinet of 1 does.
func TestAllocatorProbesStayConstant(t *testing.T) {
	db := initDB(t)
	for i := 0; i < 600; i++ {
		ip, err := NextFreeIP(db)
		if err != nil {
			t.Fatal(err)
		}
		before := db.Stats()
		if _, err := InsertNode(db, Node{MAC: fmt.Sprintf("m%d", i), Name: fmt.Sprintf("c-%d", i), Membership: MembershipCompute, IP: ip}); err != nil {
			t.Fatal(err)
		}
		if _, err := NextFreeIP(db); err != nil {
			t.Fatal(err)
		}
		after := db.Stats()
		if d := after.AllocProbes - before.AllocProbes; d != 1 {
			t.Fatalf("allocation %d made %d nodes_ip probes, want 1", i, d)
		}
		if after.ScanSelects != before.ScanSelects {
			t.Fatalf("allocation %d ran %d scan SELECTs, want 0", i, after.ScanSelects-before.ScanSelects)
		}
	}
	// A discovery's work does not depend on what its cabinet holds: rack 1
	// gets 255 machines, rack 2 one. After that a discovery into either runs
	// one SELECT (the membership's name, through memberships_id), none for the
	// rank, one nodes_ip probe, and as many allocations as into the other.
	for i := 0; i < 256; i++ {
		if _, err := InsertDiscovered(db, Node{MAC: fmt.Sprintf("r%d", i), Membership: MembershipCompute, Rack: 1 + i/255}); err != nil {
			t.Fatal(err)
		}
	}
	serial := 0
	cost := func(rack int) (counts [4]uint64, allocs float64) {
		before := db.Stats()
		const runs = 20
		allocs = testing.AllocsPerRun(runs, func() {
			serial++
			if _, err := InsertDiscovered(db, Node{MAC: fmt.Sprintf("d%d", serial), Membership: MembershipCompute, Rack: rack}); err != nil {
				t.Fatal(err)
			}
		})
		after := db.Stats()
		return [4]uint64{after.AllocProbes - before.AllocProbes, after.IndexSelects - before.IndexSelects,
			after.ScanSelects - before.ScanSelects, after.PlanCacheMisses - before.PlanCacheMisses}, allocs
	}
	full, fullAllocs := cost(1)
	empty, emptyAllocs := cost(2)
	if want := [4]uint64{21, 21, 0, 0}; full != want || empty != want { // AllocsPerRun warms up with one run more
		t.Errorf("21 discoveries made {ip probes, index SELECTs, scan SELECTs, parses} %v into the cabinet of 255, %v into the cabinet of 1, want %v", full, empty, want)
	}
	t.Logf("a discovery allocates %.0f times into the cabinet of 255, %.0f into the cabinet of 1", fullAllocs, emptyAllocs)
	if d := fullAllocs - emptyAllocs; d < -2 || d > 2 {
		t.Errorf("a discovery allocates %.0f times into a cabinet of 255 and %.0f into a cabinet of 1", fullAllocs, emptyAllocs)
	}
}
