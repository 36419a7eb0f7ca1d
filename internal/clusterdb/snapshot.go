package clusterdb

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rocks/internal/faults"
)

// Snapshots bound recovery time: instead of replaying every mutation since
// the frontend was installed, Open loads the newest snapshot — the dump.go
// serialization plus a CRC trailer — and replays only the log records that
// postdate it. Writing a snapshot and truncating the log is "rotation"; a
// crash between the two steps leaves both the new snapshot and the full
// log, which the per-record sequence numbers make safe (replay skips
// records the snapshot already contains).

// snapshotPrefix/snapshotSuffix frame snapshot filenames:
// snapshot-<seq, zero-padded so names sort>.sql.
const (
	snapshotPrefix = "snapshot-"
	snapshotSuffix = ".sql"
)

// snapshotTrailerFmt is the final line of a snapshot: the sequence it
// contains and the CRC32-IEEE of everything before the trailer line. A
// snapshot without a valid trailer (a torn write caught mid-rename would
// only ever be a .tmp, but a corrupted disk is a corrupted disk) fails
// recovery loudly.
const snapshotTrailerFmt = "-- snapshot seq=%d crc32=%08x\n"

// RecoveryInfo describes what Open found on disk.
type RecoveryInfo struct {
	// Fresh is true when the directory held no database: no snapshot and no
	// replayable log records. The caller seeds the schema.
	Fresh bool
	// SnapshotSeq is the change sequence the loaded snapshot contained
	// (zero when recovery started from an empty database).
	SnapshotSeq int64
	// Replayed is how many log records were applied on top of the snapshot;
	// ReplayErrors of them failed (deterministically, as they did when
	// first logged).
	Replayed     int
	ReplayErrors int
	// StaleSkipped counts log records the snapshot already contained — the
	// leftovers of a crash between snapshot rename and log truncation.
	StaleSkipped int
	// TornDropped counts torn final records dropped from the log tail.
	TornDropped int
}

// String renders the recovery for syslog and the dbreport recover check.
func (ri RecoveryInfo) String() string {
	if ri.Fresh {
		return "fresh database (no snapshot, no wal records)"
	}
	return fmt.Sprintf("snapshot seq %d, %d wal records replayed (%d errors, %d stale skipped, %d torn dropped)",
		ri.SnapshotSeq, ri.Replayed, ri.ReplayErrors, ri.StaleSkipped, ri.TornDropped)
}

// Open creates or recovers a durable database in dir. Recovery is: delete
// stray temporaries, load the newest snapshot, replay the log, truncate any
// torn tail, and resume appending. The returned RecoveryInfo tells the
// caller whether it must seed a fresh schema.
func Open(dir string, opts Options) (*Database, RecoveryInfo, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("clusterdb: creating %s: %w", dir, err)
	}
	d := New()
	dur := &durability{dir: dir, opts: opts}
	d.dur = dur
	d.writeMu.Lock()
	defer d.writeMu.Unlock()

	// A crash mid-snapshot leaves a partial .tmp; it was never renamed into
	// place, so it holds nothing durable.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	for _, tmp := range tmps {
		os.Remove(tmp)
	}

	var info RecoveryInfo
	snaps, err := sortedSnapshots(dir)
	if err != nil {
		return nil, info, err
	}
	if len(snaps) > 0 {
		newest := snaps[len(snaps)-1]
		seq, err := d.loadSnapshot(filepath.Join(dir, newest))
		if err != nil {
			return nil, info, err
		}
		info.SnapshotSeq = seq
		d.changeSeq.Store(seq)
		dur.lastSnapshotSeq.Store(seq)
		// Older snapshots are rotation leftovers; the newest supersedes them.
		for _, old := range snaps[:len(snaps)-1] {
			os.Remove(filepath.Join(dir, old))
		}
	}

	f, err := os.OpenFile(dur.walPath(), os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, info, fmt.Errorf("clusterdb: opening wal: %w", err)
	}
	validEnd, err := d.replayWAL(f, info.SnapshotSeq)
	if err != nil {
		f.Close()
		return nil, info, err
	}
	// Drop the torn tail (and any stale garbage past the last valid record)
	// so appends resume on a clean record boundary.
	if err := f.Truncate(validEnd); err != nil {
		f.Close()
		return nil, info, fmt.Errorf("clusterdb: truncating wal tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, info, err
	}
	dur.f = f
	info.Replayed = int(dur.replayed.Load())
	info.ReplayErrors = int(dur.replayErr.Load())
	info.StaleSkipped = int(dur.staleSkipped.Load())
	info.TornDropped = int(dur.tornDropped.Load())
	info.Fresh = len(snaps) == 0 && info.Replayed == 0 && info.StaleSkipped == 0
	if !info.Fresh {
		dur.replays.Add(1)
	}
	// Replayed records are not yet in any snapshot; keep the rotation
	// accounting honest across the crash.
	dur.appendsSinceSnap = info.Replayed
	return d, info, nil
}

// Close flushes and closes a durable database: a final snapshot (when the
// log holds anything new) bounds the next Open's replay, then the log file
// closes. Close on an in-memory database is a no-op. A crashed database
// closes without snapshotting — the frozen files are the test fixture.
func (d *Database) Close() error {
	if d.dur == nil {
		return nil
	}
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if d.dur.closed.Swap(true) {
		return nil
	}
	var err error
	if !d.dur.crashed.Load() && d.dur.appendsSinceSnap > 0 {
		err = d.snapshotLocked()
	}
	if cerr := d.dur.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("clusterdb: closing wal: %w", cerr)
	}
	return err
}

// Snapshot forces a snapshot + log rotation now.
func (d *Database) Snapshot() error {
	if d.dur == nil {
		return fmt.Errorf("clusterdb: Snapshot on an in-memory database")
	}
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if err := d.dur.guard(); err != nil {
		return err
	}
	return d.snapshotLocked()
}

// maybeSnapshotLocked rotates when enough mutations accumulated. Callers
// hold writeMu.
func (d *Database) maybeSnapshotLocked() error {
	dur := d.dur
	if dur.opts.SnapshotEvery <= 0 || dur.appendsSinceSnap < dur.opts.SnapshotEvery {
		return nil
	}
	return d.snapshotLocked()
}

// snapshotLocked writes snapshot-<seq>.sql atomically (tmp, fsync, rename),
// then rotates: the log truncates to empty and older snapshots are removed.
// Callers hold writeMu but not d.mu — Dump takes the read lock itself, so
// reads keep flowing while the snapshot writes.
func (d *Database) snapshotLocked() error {
	dur := d.dur
	seq := d.changeSeq.Load()
	name := fmt.Sprintf("%s%016d%s", snapshotPrefix, seq, snapshotSuffix)
	path := filepath.Join(dur.dir, name)
	tmp := path + ".tmp"
	body := d.dump()
	trailer := fmt.Sprintf(snapshotTrailerFmt, seq, crc32.ChecksumIEEE(body))

	if faults.CrashPoint(dur.opts.Faults, faults.OpDBSnapshotMid, "clusterdb", dur.dir) {
		// Die halfway through the tmp write: a partial file with no trailer,
		// never renamed, that recovery must sweep away.
		os.WriteFile(tmp, body[:len(body)/2], 0o600)
		dur.crashed.Store(true)
		return fmt.Errorf("%w (mid-snapshot: partial %s left behind)", ErrCrashed, filepath.Base(tmp))
	}

	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("clusterdb: snapshot: %w", err)
	}
	if _, err := tf.Write(append(body, trailer...)); err != nil {
		tf.Close()
		return fmt.Errorf("clusterdb: snapshot write: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("clusterdb: snapshot fsync: %w", err)
	}
	if err := tf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("clusterdb: snapshot rename: %w", err)
	}
	dur.snapshots.Add(1)
	dur.lastSnapshotSeq.Store(seq)

	if faults.CrashPoint(dur.opts.Faults, faults.OpDBRotateMid, "clusterdb", dur.dir) {
		// The snapshot is durable but the log still holds everything it
		// contains; recovery's stale-skip handles the overlap.
		dur.crashed.Store(true)
		return fmt.Errorf("%w (mid-rotation: %s durable, wal not truncated)", ErrCrashed, name)
	}

	if err := dur.f.Truncate(0); err != nil {
		return fmt.Errorf("clusterdb: wal rotation: %w", err)
	}
	if _, err := dur.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	dur.appendsSinceSnap = 0
	snaps, err := sortedSnapshots(dur.dir)
	if err != nil {
		return err
	}
	for _, s := range snaps {
		if s != name {
			os.Remove(filepath.Join(dur.dir, s))
		}
	}
	return nil
}

// sortedSnapshots lists snapshot files in ascending sequence order.
func sortedSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("clusterdb: listing %s: %w", dir, err)
	}
	var snaps []string
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, snapshotPrefix) && strings.HasSuffix(n, snapshotSuffix) {
			snaps = append(snaps, n)
		}
	}
	sort.Strings(snaps) // zero-padded sequence: lexicographic == numeric
	return snaps, nil
}

// loadSnapshot verifies a snapshot's trailer and bulk-loads it into an
// empty database, returning the sequence it contains. Rows load without
// per-row uniqueness churn — the snapshot is a dump of a database that
// already enforced it — and every index rebuilds once at the end, so a
// recovered database answers point lookups through its indexes exactly
// like one that never crashed.
func (d *Database) loadSnapshot(path string) (int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("clusterdb: reading snapshot: %w", err)
	}
	content := string(raw)
	cut := strings.LastIndex(content, "-- snapshot seq=")
	if cut < 0 || !strings.HasSuffix(content, "\n") {
		return 0, fmt.Errorf("clusterdb: snapshot %s has no trailer — refusing a torn or foreign file", filepath.Base(path))
	}
	body, trailer := content[:cut], content[cut:]
	var seq int64
	var sum uint32
	if _, err := fmt.Sscanf(trailer, snapshotTrailerFmt, &seq, &sum); err != nil {
		return 0, fmt.Errorf("clusterdb: snapshot %s trailer is malformed: %v", filepath.Base(path), err)
	}
	if got := crc32.ChecksumIEEE([]byte(body)); got != sum {
		return 0, fmt.Errorf("clusterdb: snapshot %s fails its checksum (have %08x, want %08x)",
			filepath.Base(path), got, sum)
	}
	for i, stmt := range SplitStatements(body) {
		st, err := parse(stmt)
		if err != nil {
			return 0, fmt.Errorf("clusterdb: snapshot %s statement %d: %v", filepath.Base(path), i+1, err)
		}
		d.mu.Lock()
		switch s := st.(type) {
		case createTableStmt:
			_, err = d.execCreate(s)
		case insertStmt:
			_, err = d.execInsertBulk(s)
		default:
			err = fmt.Errorf("unexpected %T in a snapshot", st)
		}
		d.mu.Unlock()
		if err != nil {
			return 0, fmt.Errorf("clusterdb: snapshot %s statement %d: %v", filepath.Base(path), i+1, err)
		}
	}
	d.mu.Lock()
	for _, t := range d.tables {
		t.rebuildIndexes()
	}
	d.mu.Unlock()
	return seq, nil
}
