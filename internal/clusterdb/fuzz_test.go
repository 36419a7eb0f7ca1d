package clusterdb

import (
	"math/rand"
	"reflect"
	"testing"
)

// fuzzJoinBudget bounds the row combinations one fuzzed SELECT may visit, so
// a five-way self-join reads as "skipped", not as a hang.
const fuzzJoinBudget = 5000

// FuzzSQL runs a script of at most 16 semicolon-separated statements against
// two copies of one seeded database (the Rocks schema, 24 random nodes and
// five NULL-mac ghosts), one with index routing on and one with it off, and
// checks what must hold of any statement text:
//
//   - parsing and executing never panic;
//   - a SELECT returns the same rows, or fails with the same text, whether the
//     planner routed it through an index or scanned;
//   - a mutation fails with the same text on both copies and leaves them with
//     identical dumps;
//   - after every mutation, failing or not, no stored row occupies two
//     positions, every index equals a rebuild of itself and the allocation
//     cursor equals its rebuild (checkStructures);
//   - the script itself, as the text of every text column of a node, gives a
//     built INSERT whose text is the formatted one and parses back to it
//     (checkBuiltIsParsed), and InsertNode of it and Exec of that text fail
//     alike and leave identical dumps.
//
// The corpus in testdata/fuzz/FuzzSQL is differentialQueries, the paper's two
// join queries, the DELETE whose WHERE fails part-way, the HAVING forms,
// parser_edge_test.go's quoted-string escapes, and UPDATEs the planner routes
// (update-*): one that moves its own indexed key, one of facts after an
// INSERT, one that collides on a unique key part-way, one whose WHERE errors
// and one that matches nothing.
func FuzzSQL(f *testing.F) {
	f.Fuzz(func(t *testing.T, script string) {
		if len(script) > 2048 {
			return
		}
		stmts := SplitStatements(script)
		if len(stmts) > 16 {
			return
		}
		seeded := func(routing bool) *Database {
			db := New()
			if err := InitSchema(db); err != nil {
				t.Fatal(err)
			}
			populateRandomNodes(t, db, rand.New(rand.NewSource(5)), 24)
			db.SetIndexRouting(routing)
			return db
		}
		on, off := seeded(true), seeded(false)
		sameError := func(a, b error) bool {
			return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
		}
		hostile := Node{ID: 7000, MAC: script, Name: script, Membership: MembershipCompute,
			Rack: len(script) - 40, Rank: len(stmts), IP: script, Comment: script, Arch: script, CPUs: 1}
		if hostile.Arch == "" {
			hostile.Arch = "i386" // InsertNode's default, applied before the statement is built
		}
		checkBuiltIsParsed(t, hostile)
		_, builtErr := InsertNode(on, hostile)
		_, textErr := off.Exec(sprintfInsertNode(hostile))
		if !sameError(builtErr, textErr) || on.Dump() != off.Dump() {
			t.Fatalf("InsertNode(%q): %v; Exec of its text: %v; same dumps: %v", script, builtErr, textErr, on.Dump() == off.Dump())
		}
		for _, sql := range stmts {
			st, err := parse(sql)
			if err != nil {
				continue
			}
			if sel, ok := st.(selectStmt); ok {
				combos := 1
				for _, ref := range sel.tables {
					if tb := on.tables[ref.name]; tb != nil && combos <= fuzzJoinBudget {
						combos *= len(tb.rows) + 1
					}
				}
				if combos > fuzzJoinBudget {
					continue
				}
				a, aErr := on.Query(sql)
				b, bErr := off.Query(sql)
				if !sameError(aErr, bErr) {
					t.Fatalf("%q: indexed error %v, scan error %v", sql, aErr, bErr)
				}
				if aErr == nil && (!reflect.DeepEqual(a.Columns, b.Columns) || !reflect.DeepEqual(a.Rows, b.Rows)) {
					t.Fatalf("%q: indexed and scanned answers differ:\n%s\n%s", sql, a.Format(), b.Format())
				}
				continue
			}
			_, aErr := on.Exec(sql)
			_, bErr := off.Exec(sql)
			if !sameError(aErr, bErr) {
				t.Fatalf("%q: error %v with routing on, %v with routing off", sql, aErr, bErr)
			}
			if a, b := on.Dump(), off.Dump(); a != b {
				t.Fatalf("%q left different databases:\n--- routing on\n%s--- routing off\n%s", sql, a, b)
			}
			checkStructures(t, on, sql)
			checkStructures(t, off, sql)
		}
	})
}
