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

// checkAllocator compares the cursor's answers with the references, and
// checks the answers do not depend on index routing.
func checkAllocator(t *testing.T, db *Database, step int, op string) {
	t.Helper()
	wantIP, wantID := refNextFreeIP(t, db), refNextID(t, db)
	for _, routing := range []bool{true, false} {
		db.SetIndexRouting(routing)
		ip, err := NextFreeIP(db)
		if err != nil || ip != wantIP {
			t.Fatalf("step %d (%s), routing %v: NextFreeIP = %q, %v; reference %q", step, op, routing, ip, err, wantIP)
		}
	}
	db.SetIndexRouting(true)
	if id, ok := db.nextNodeID(); !ok || id != wantID {
		t.Fatalf("step %d (%s): next id = %d, %v; reference %d", step, op, id, ok, wantID)
	}
}

// TestAllocatorMatchesReference drives the nodes table through a seeded
// random sequence of everything that can move the allocation cursor —
// allocated and explicit out-of-order inserts, deletes, ip/id/MAC updates,
// Restore, and close → snapshot load + WAL replay → reopen — and checks
// after every step that the O(1) answers are the reference scan's.
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
				n.Membership = MembershipCompute
				// One insert in four allocates its id by the max(id) scan.
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
			nearTop := func() string { return fmt.Sprintf("10.255.%d.%d", 255-rng.Intn(2), rng.Intn(256)) }
			checkAllocator(t, db, 0, "empty")
			for step := 1; step <= 400; step++ {
				op := "insert"
				switch k := rng.Intn(20); {
				case k < 9 || len(names) == 0: // what insert-ethers does
					ip, err := NextFreeIP(db)
					if err != nil {
						t.Fatal(err)
					}
					insert(Node{IP: ip})
				case k < 12:
					op = "insert explicit"
					// Out-of-order id and an address near the top: sometimes a
					// duplicate (rejected), sometimes below the cursor,
					// sometimes exactly on it.
					insert(Node{ID: 1 + rng.Intn(1000), IP: nearTop()})
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
// no scan SELECT, however many addresses are taken.
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
}
