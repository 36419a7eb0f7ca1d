package clusterdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"

	"rocks/internal/faults"
)

// The write-ahead log makes the cluster database survive the failure mode
// the paper's MySQL frontend survived and our in-memory reproduction did
// not: a frontend crash mid-discovery-storm. Every mutating statement is
// appended to wal.log as a length-prefixed, CRC32-checksummed record
// *before* it is applied in memory; recovery is the newest snapshot plus a
// short log replay. The engine is deterministic and single-writer, so
// replaying a CRC-valid record reproduces its original outcome — including
// its original error, which is why replay tolerates (and counts) apply
// errors but fails loudly on checksum corruption anywhere except a torn
// final record.
//
// Record layout (big-endian):
//
//	4 bytes  payload length
//	4 bytes  CRC32-IEEE of payload
//	payload: 8 bytes sequence number | SQL text
//
// The sequence number is the ChangeSeq value the record produces. Snapshots
// are tagged with the sequence they contain, so a replay after a crash
// mid-rotation (snapshot renamed, log not yet truncated) skips the records
// the snapshot already holds instead of applying them twice.

// walName is the log file inside a durable database directory.
const walName = "wal.log"

// walHeaderSize is the fixed prefix of every record: length + CRC.
const walHeaderSize = 8

// maxWALRecord bounds a single record's payload; anything larger is
// corruption, not a statement.
const maxWALRecord = 64 << 20

// DefaultSnapshotEvery is how many logged mutations accumulate before an
// automatic snapshot + log rotation when Options.SnapshotEvery is zero.
const DefaultSnapshotEvery = 1024

// ErrCrashed is returned by every mutation after a simulated crash seam
// fired: the durability layer is frozen exactly as a kill -9 left it, and
// only reopening the directory recovers.
var ErrCrashed = errors.New("clusterdb: simulated crash: durability layer is down, reopen the directory to recover")

// ErrClosed is returned by mutations after Close.
var ErrClosed = errors.New("clusterdb: database is closed")

// Options configures a durable database opened with Open.
type Options struct {
	// Fsync forces every appended record to stable storage before the
	// statement applies. Off by default: the simulation's tests care about
	// crash *consistency* (which the record framing provides) more than
	// about the last-record guarantee, and a 1000-node discovery storm
	// should not pay a thousand fsyncs unless asked to.
	Fsync bool
	// SnapshotEvery is how many logged mutations trigger an automatic
	// snapshot + log rotation. Zero means DefaultSnapshotEvery; negative
	// disables automatic snapshots (Snapshot may still be called).
	SnapshotEvery int
	// Faults, when set, arms the durability crash seams (faults.OpDBPreAppend
	// and friends) so tests can kill the database at chosen points.
	Faults *faults.Injector

	// onReplay, when set, is invoked after each replayed record with the
	// database being recovered — the white-box hook the recovery/serving
	// boundary race test uses. Never set in production.
	onReplay func(*Database)
}

// WALStats counts the durability layer's traffic for /v1/dbstats.
type WALStats struct {
	Dir              string `json:"dir"`
	RecordsAppended  uint64 `json:"records_appended"`
	BytesAppended    uint64 `json:"bytes_appended"`
	Fsyncs           uint64 `json:"fsyncs"`
	Snapshots        uint64 `json:"snapshots"`
	LastSnapshotSeq  int64  `json:"last_snapshot_seq"`
	Replays          uint64 `json:"replays"`
	RecordsReplayed  uint64 `json:"records_replayed"`
	ReplayErrors     uint64 `json:"replay_errors"`
	StaleSkipped     uint64 `json:"stale_skipped"`
	TornTailsDropped uint64 `json:"torn_tails_dropped"`
}

// durability is a Database's on-disk half: the open log file and the
// counters behind WALStats. The file handle and appendsSinceSnap are
// guarded by Database.writeMu; counters are atomic so Stats never blocks
// behind an fsync.
type durability struct {
	dir  string
	opts Options
	f    *os.File

	crashed atomic.Bool
	closed  atomic.Bool

	appendsSinceSnap int // mutations logged since the last snapshot

	records, bytes, fsyncs       atomic.Uint64
	snapshots                    atomic.Uint64
	lastSnapshotSeq              atomic.Int64
	replays, replayed, replayErr atomic.Uint64
	staleSkipped, tornDropped    atomic.Uint64
}

// guard rejects mutations once the durability layer has crashed or closed.
func (dur *durability) guard() error {
	if dur.crashed.Load() {
		return ErrCrashed
	}
	if dur.closed.Load() {
		return ErrClosed
	}
	return nil
}

// walPath returns the log file's path.
func (dur *durability) walPath() string { return dur.dir + "/" + walName }

// encodeRecord frames one statement for the log.
func encodeRecord(seq int64, sql string) []byte {
	payload := make([]byte, 8+len(sql))
	binary.BigEndian.PutUint64(payload, uint64(seq))
	copy(payload[8:], sql)
	rec := make([]byte, walHeaderSize+len(payload))
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	copy(rec[walHeaderSize:], payload)
	return rec
}

// append logs one mutation. Callers hold Database.writeMu. The pre-append
// and post-append crash seams fire here: pre-append leaves nothing on disk,
// post-append leaves a durable record whose statement the caller must not
// apply (the returned error tells it so).
func (dur *durability) append(seq int64, sql string) error {
	if err := dur.guard(); err != nil {
		return err
	}
	if faults.CrashPoint(dur.opts.Faults, faults.OpDBPreAppend, "clusterdb", dur.dir) {
		dur.crashed.Store(true)
		return fmt.Errorf("%w (pre-append: record %d never written)", ErrCrashed, seq)
	}
	rec := encodeRecord(seq, sql)
	if _, err := dur.f.Write(rec); err != nil {
		return fmt.Errorf("clusterdb: wal append: %w", err)
	}
	if dur.opts.Fsync {
		if err := dur.f.Sync(); err != nil {
			return fmt.Errorf("clusterdb: wal fsync: %w", err)
		}
		dur.fsyncs.Add(1)
	}
	dur.records.Add(1)
	dur.bytes.Add(uint64(len(rec)))
	dur.appendsSinceSnap++
	if faults.CrashPoint(dur.opts.Faults, faults.OpDBPostAppend, "clusterdb", dur.dir) {
		dur.crashed.Store(true)
		return fmt.Errorf("%w (post-append: record %d durable but unapplied)", ErrCrashed, seq)
	}
	return nil
}

// stats snapshots the counters.
func (dur *durability) stats() *WALStats {
	return &WALStats{
		Dir:              dur.dir,
		RecordsAppended:  dur.records.Load(),
		BytesAppended:    dur.bytes.Load(),
		Fsyncs:           dur.fsyncs.Load(),
		Snapshots:        dur.snapshots.Load(),
		LastSnapshotSeq:  dur.lastSnapshotSeq.Load(),
		Replays:          dur.replays.Load(),
		RecordsReplayed:  dur.replayed.Load(),
		ReplayErrors:     dur.replayErr.Load(),
		StaleSkipped:     dur.staleSkipped.Load(),
		TornTailsDropped: dur.tornDropped.Load(),
	}
}

// replayWAL reads the log and applies every record with seq > snapSeq to d.
// It returns the offset of the end of the last valid record so Open can
// truncate a torn tail before appending resumes.
//
// Torn-tail policy: a final record that is truncated (header or payload
// extends past EOF) or checksum-corrupt is the unacknowledged write a power
// failure legally tears — it is dropped and counted. A checksum mismatch
// with *more data after it* is not a torn write, it is corruption of
// acknowledged history: replay fails loudly rather than silently dropping
// committed statements.
func (d *Database) replayWAL(f *os.File, snapSeq int64) (validEnd int64, err error) {
	dur := d.dur
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, fmt.Errorf("clusterdb: reading wal: %w", err)
	}
	size := int64(len(data))
	off := int64(0)
	for off < size {
		if size-off < walHeaderSize {
			dur.tornDropped.Add(1) // torn mid-header
			return off, nil
		}
		length := int64(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		end := off + walHeaderSize + length
		if length < 8 || length > maxWALRecord || end > size {
			// The framing itself is impossible or runs past EOF. If this is
			// the final region of the file it is a torn write; a record this
			// malformed can never have data after it (we cannot frame past
			// it), so it is always final — drop it.
			dur.tornDropped.Add(1)
			return off, nil
		}
		payload := data[off+walHeaderSize : end]
		if crc32.ChecksumIEEE(payload) != sum {
			if end == size {
				dur.tornDropped.Add(1) // torn final record
				return off, nil
			}
			return off, fmt.Errorf("clusterdb: wal record at offset %d fails its checksum with %d bytes of later history — refusing to drop acknowledged statements",
				off, size-end)
		}
		seq := int64(binary.BigEndian.Uint64(payload[:8]))
		sql := string(payload[8:])
		if seq <= snapSeq {
			dur.staleSkipped.Add(1) // the snapshot already contains it
			off = end
			continue
		}
		st, perr := parse(sql)
		if perr != nil {
			// A CRC-valid record that does not parse was never appended by
			// this engine (append happens after parse) — that is corruption,
			// not history.
			return off, fmt.Errorf("clusterdb: wal record at offset %d (seq %d) does not parse: %v", off, seq, perr)
		}
		d.mu.Lock()
		d.changeSeq.Store(seq)
		_, aerr := d.applyLocked(st)
		d.mu.Unlock()
		if aerr != nil {
			// Deterministic engine: the statement failed identically when it
			// was first logged. Count it and keep going.
			dur.replayErr.Add(1)
		}
		dur.replayed.Add(1)
		if dur.opts.onReplay != nil {
			dur.opts.onReplay(d)
		}
		off = end
	}
	return off, nil
}
