package clusterdb

import (
	"fmt"
	"strings"
)

// This file stores the facts a node's first-boot agent reports about itself
// — the observed counterpart to the nodes table's expected profile. Facts
// live in the same durable database as everything else, so a report written
// before a frontend crash is still there after WAL recovery and drift
// detection picks up where it left off.

// Facts mirrors one row of the facts table: what one node most recently
// claimed to be. NICs is the canonical NIC set (hardware.CanonicalNICs)
// joined by ";", and ReportedAt is the frontend's receive time in Unix
// nanoseconds.
type Facts struct {
	MAC        string
	Name       string
	Arch       string
	CPUs       int
	MemMB      int
	DiskType   string
	DiskMB     int
	NICs       string
	ReportedAt int64
}

const factsCols = "mac, name, arch, cpus, mem_mb, disk_type, disk_mb, nics, reported_at"

var factsColNames = strings.Split(factsCols, ", ")

func factsFromRow(row []Value) Facts {
	geti := func(v Value) int { n, _ := v.AsInt(); return int(n) }
	at, _ := row[8].AsInt()
	return Facts{
		MAC:        row[0].String(),
		Name:       row[1].String(),
		Arch:       row[2].String(),
		CPUs:       geti(row[3]),
		MemMB:      geti(row[4]),
		DiskType:   row[5].String(),
		DiskMB:     geti(row[6]),
		NICs:       row[7].String(),
		ReportedAt: at,
	}
}

// UpsertFacts records a node's latest report, replacing any previous row for
// the same MAC, as one upsert keyed by MAC (facts_mac).
func UpsertFacts(db *Database, f Facts) error {
	i := func(v int) Value { return IntValue(int64(v)) }
	return upsert(db, "facts", factsColNames, []Value{TextValue(f.MAC), TextValue(f.Name), TextValue(f.Arch),
		i(f.CPUs), i(f.MemMB), TextValue(f.DiskType), i(f.DiskMB), TextValue(f.NICs), IntValue(f.ReportedAt)})
}

// upsert writes row, whose first column is the key, as one operation: under
// one hold of writeMu it finds the key's row through that column's index,
// then logs and applies the UPDATE of that row or the INSERT of a new one, so
// two writers of one key never both insert. The statement is built, not
// parsed; its text is what the log replays.
func upsert(db *Database, table string, cols []string, row []Value) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	build := literalInsert
	if t, ok := db.tables[table]; ok {
		if held, _ := t.equal(cols[0], row[0]); len(held) > 0 {
			build = literalUpdate
		}
	}
	st, text, err := build(table, cols, row)
	if err == nil {
		_, err = db.mutateLocked(text, st)
	}
	return err
}

// AllFacts returns every stored report, ordered by node name.
func AllFacts(db *Database) ([]Facts, error) {
	res, err := db.Query("SELECT " + factsCols + " FROM facts ORDER BY name")
	if err != nil {
		return nil, err
	}
	out := make([]Facts, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, factsFromRow(r))
	}
	return out, nil
}

// DeleteFacts drops a node's report (decommission).
func DeleteFacts(db *Database, mac string) error {
	_, err := db.Exec(fmt.Sprintf("DELETE FROM facts WHERE mac = '%s'", sqlEscape(mac)))
	return err
}
