package clusterdb

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// sprintfFactsUpdate and sprintfFactsInsert are the two statements
// UpsertFacts ran while it was two Execs, the INSERT only when the UPDATE
// found no row: what a log written then holds, so it is what this version
// must still replay.
func sprintfFactsUpdate(f Facts) string {
	return fmt.Sprintf(
		`UPDATE facts SET name = '%s', arch = '%s', cpus = %d, mem_mb = %d,
		 disk_type = '%s', disk_mb = %d, nics = '%s', reported_at = %d
		 WHERE mac = '%s'`,
		sqlEscape(f.Name), sqlEscape(f.Arch), f.CPUs, f.MemMB,
		sqlEscape(f.DiskType), f.DiskMB, sqlEscape(f.NICs), f.ReportedAt, sqlEscape(f.MAC))
}

func sprintfFactsInsert(f Facts) string {
	return fmt.Sprintf(
		`INSERT INTO facts (%s) VALUES ('%s', '%s', '%s', %d, %d, '%s', %d, '%s', %d)`,
		factsCols, sqlEscape(f.MAC), sqlEscape(f.Name), sqlEscape(f.Arch),
		f.CPUs, f.MemMB, sqlEscape(f.DiskType), f.DiskMB, sqlEscape(f.NICs), f.ReportedAt)
}

// oneFactsRow is the facts of mac, failing unless exactly one row holds it.
func oneFactsRow(t *testing.T, db *Database, mac string) Facts {
	t.Helper()
	res, err := db.Query("SELECT " + factsCols + " FROM facts WHERE mac = '" + sqlEscape(mac) + "'")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("facts of %q: %d rows, %v; want one", mac, len(res.Rows), err)
	}
	return factsFromRow(res.Rows[0])
}

// TestUpsertFactsIsOneRow: concurrent reports for one MAC leave one row,
// the last report applied. Two Execs, UPDATE then INSERT on no row affected,
// let two reporters both see no row and both insert.
func TestUpsertFactsIsOneRow(t *testing.T) {
	const mac = "00:50:8b:00:00:01"
	for trial := 0; trial < 200; trial++ {
		db := initDB(t)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 1; g <= 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := UpsertFacts(db, Facts{MAC: mac, Name: "compute-0-0", CPUs: g, ReportedAt: int64(g)}); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if f := oneFactsRow(t, db, mac); f.CPUs != int(f.ReportedAt) {
			t.Fatalf("trial %d: the row mixes two reports: %+v", trial, f)
		}
	}
}

// TestFactsReportVisitsOneRow pins the report's cost by count: a report for
// a MAC the table holds evaluates the UPDATE's WHERE on that MAC's row alone,
// whether the table holds 1 row or 1 024; with routing off the same report
// reads every row, and one for a new MAC runs no UPDATE at all.
func TestFactsReportVisitsOneRow(t *testing.T) {
	for _, size := range []int{1, 1024} {
		db := initDB(t)
		report := func(mac string, cpus int) uint64 {
			t.Helper()
			before := db.updateVisits.Load()
			if err := UpsertFacts(db, Facts{MAC: mac, Name: "n-" + mac, CPUs: cpus}); err != nil {
				t.Fatal(err)
			}
			return db.updateVisits.Load() - before
		}
		for i := 0; i < size; i++ {
			if v := report(fmt.Sprintf("m%d", i), 1); v != 0 {
				t.Fatalf("%d rows: the first report of m%d visited %d rows, want 0", size, i, v)
			}
		}
		if v := report("m0", 2); v != 1 {
			t.Errorf("%d rows: a report for m0 visited %d rows, want 1", size, v)
		}
		db.SetIndexRouting(false)
		if v := report("m0", 3); v != uint64(size) {
			t.Errorf("%d rows, routing off: a report for m0 visited %d rows, want %d", size, v, size)
		}
		if f := oneFactsRow(t, db, "m0"); f.CPUs != 3 {
			t.Errorf("%d rows: m0 holds %+v after its third report", size, f)
		}
	}
}

// TestUpsertFactsLog pins what a report logs — the INSERT of a new MAC's row,
// then the UPDATE of it, both built, not parsed, and parsing back to what
// was built — and replays a log the two-Exec version wrote: hostile strings
// in every text column and negative integers leave the same database either
// way, before and after recovery.
func TestUpsertFactsLog(t *testing.T) {
	built, formatted, _ := twins(t)
	f := Facts{MAC: "00:50:8b:e0:3a:a7", Name: "compute-0-0", Arch: "i386", CPUs: 2, MemMB: 1024,
		DiskType: "ide", DiskMB: 8192, NICs: "00:50:8b:e0:3a:a7", ReportedAt: 1700000000000000000}
	wants := []string{
		"INSERT INTO facts (mac, name, arch, cpus, mem_mb, disk_type, disk_mb, nics, reported_at) VALUES " +
			"('00:50:8b:e0:3a:a7', 'compute-0-0', 'i386', 2, 1024, 'ide', 8192, '00:50:8b:e0:3a:a7', 1700000000000000000)",
		"UPDATE facts SET name = 'compute-0-0', arch = 'i386', cpus = 2, mem_mb = 1024, disk_type = 'ide', " +
			"disk_mb = 8192, nics = '00:50:8b:e0:3a:a7', reported_at = 1700000000000000000 WHERE mac = '00:50:8b:e0:3a:a7'",
	}
	for i, want := range wants {
		before := len(walBytes(t, built.dur.dir))
		if err := UpsertFacts(built, f); err != nil {
			t.Fatal(err)
		}
		if got := string(walBytes(t, built.dur.dir)[before:]); !strings.HasSuffix(got, want) || len(got) != 16+len(want) {
			t.Errorf("report %d logged %q, want one record of %q", i, got, want)
		}
	}
	mustExec(t, formatted, sprintfFactsUpdate(f))
	mustExec(t, formatted, sprintfFactsInsert(f))
	mustExec(t, formatted, sprintfFactsUpdate(f))

	for i, s := range hostileStrings {
		f := Facts{MAC: s, Name: s, Arch: s, CPUs: 1 - i, MemMB: i * 100, DiskType: s, DiskMB: -i, NICs: s, ReportedAt: int64(i) - 3}
		for _, build := range []func(string, []string, []Value) (statement, string, error){literalInsert, literalUpdate} {
			i := func(v int) Value { return IntValue(int64(v)) }
			st, text, err := build("facts", factsColNames, []Value{TextValue(f.MAC), TextValue(f.Name), TextValue(f.Arch),
				i(f.CPUs), i(f.MemMB), TextValue(f.DiskType), i(f.DiskMB), TextValue(f.NICs), IntValue(f.ReportedAt)})
			if err != nil {
				t.Fatal(err)
			}
			if parsed, err := parse(text); err != nil || !reflect.DeepEqual(parsed, st) {
				t.Fatalf("parse(%q) = %#v, %v; built %#v", text, parsed, err, st)
			}
		}
		for round := 0; round < 2; round++ {
			f.CPUs += round
			if err := UpsertFacts(built, f); err != nil {
				t.Fatalf("UpsertFacts(%q): %v", s, err)
			}
			if res := mustExec(t, formatted, sprintfFactsUpdate(f)); res.Affected == 0 {
				mustExec(t, formatted, sprintfFactsInsert(f))
			}
			if got := oneFactsRow(t, built, s); got != f {
				t.Fatalf("UpsertFacts(%+v) stored %+v", f, got)
			}
		}
	}
	if built.Dump() != formatted.Dump() {
		t.Fatalf("built and formatted reports left different databases:\n%s\n---\n%s", built.Dump(), formatted.Dump())
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
