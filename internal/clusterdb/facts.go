package clusterdb

import (
	"fmt"
	"strconv"
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
// the same MAC. Both paths are plain SQL through Exec, so the write-ahead
// log covers them.
func UpsertFacts(db *Database, f Facts) error {
	res, err := db.Exec(fmt.Sprintf(
		`UPDATE facts SET name = '%s', arch = '%s', cpus = %d, mem_mb = %d,
		 disk_type = '%s', disk_mb = %d, nics = '%s', reported_at = %s
		 WHERE mac = '%s'`,
		sqlEscape(f.Name), sqlEscape(f.Arch), f.CPUs, f.MemMB,
		sqlEscape(f.DiskType), f.DiskMB, sqlEscape(f.NICs),
		strconv.FormatInt(f.ReportedAt, 10), sqlEscape(f.MAC)))
	if err != nil {
		return err
	}
	if res.Affected == 0 {
		_, err = db.Exec(fmt.Sprintf(
			`INSERT INTO facts (%s) VALUES ('%s', '%s', '%s', %d, %d, '%s', %d, '%s', %s)`,
			factsCols, sqlEscape(f.MAC), sqlEscape(f.Name), sqlEscape(f.Arch),
			f.CPUs, f.MemMB, sqlEscape(f.DiskType), f.DiskMB, sqlEscape(f.NICs),
			strconv.FormatInt(f.ReportedAt, 10)))
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
