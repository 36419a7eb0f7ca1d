package clusterdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Column is one column of a table schema.
type Column struct {
	Name string
	Type Type
}

// Table holds a schema and its rows. Rows are slices of Values in schema
// order.
type table struct {
	name    string
	cols    []Column
	rows    [][]Value
	indexes []*index
	alloc   *allocCursor // nodes only; see alloc.go
}

func (t *table) colIndex(name string) int {
	for i, c := range t.cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Database is the cluster configuration database. All access goes through
// Exec (statements) and Query (SELECT); both are safe for concurrent use.
// Reads (SELECT, pointLookup) take mu shared; mutations serialize on
// writeMu so the expensive durability work — WAL append, fsync, snapshot
// writes — happens *outside* the RWMutex, and readers only contend for the
// brief in-memory apply. That split is what keeps the kickstart CGI's
// point-lookup mix flat while insert-ethers storms the writer.
type Database struct {
	mu      sync.RWMutex
	writeMu sync.Mutex
	tables  map[string]*table
	// changeSeq increments on every mutation; report generators use it to
	// decide whether regenerated configuration files are stale. Atomic so
	// ChangeSeq never queues behind a writer mid-fsync; it is stored under
	// both writeMu (ordering) and before the apply under mu, so a reader
	// holding the read lock sees a seq at least as new as the state it
	// reads — the stale-marking direction the report coalescer needs.
	changeSeq atomic.Int64

	// dur is the durability layer (write-ahead log + snapshots); nil for a
	// pure in-memory database (New). See wal.go.
	dur *durability

	// The fast path: a parse memo and per-plan counters. Index routing
	// defaults on; the oracle tests and benchmarks flip it off to get the
	// scan baseline.
	plans        planCache
	indexRouting atomic.Bool
	// indexSelects/scanSelects count how each SELECT was answered; they are
	// atomic because SELECTs run under the read lock concurrently.
	indexSelects atomic.Uint64
	scanSelects  atomic.Uint64
	// allocProbes counts the nodes_ip probes NextFreeIP made from the
	// allocation cursor: probes per allocation stays near 1 while the cursor
	// holds.
	allocProbes atomic.Uint64
}

// New creates an empty database.
func New() *Database {
	d := &Database{tables: make(map[string]*table)}
	d.indexRouting.Store(true)
	return d
}

// SetIndexRouting enables or disables the planner's use of hash indexes for
// SELECTs. Indexes are always *maintained* (uniqueness still holds); this
// only routes reads back through the full-scan path — the ablation knob the
// benchmarks use.
func (d *Database) SetIndexRouting(on bool) { d.indexRouting.Store(on) }

// parseSQL is parse() behind the plan cache.
func (d *Database) parseSQL(sql string) (statement, error) {
	if st, ok := d.plans.get(sql); ok {
		return st, nil
	}
	st, err := parse(sql)
	if err != nil {
		return nil, err
	}
	d.plans.put(sql, st)
	return st, nil
}

// Result is the outcome of a statement: for SELECT, the column names and
// rows; for data-modification statements, the number of affected rows.
type Result struct {
	Columns  []string
	Rows     [][]Value
	Affected int
}

// Strings flattens a single-column result into a string slice — the shape
// cluster-kill wants when it asks for a list of node names.
func (r *Result) Strings() []string {
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		if len(row) > 0 {
			out = append(out, row[0].String())
		}
	}
	return out
}

// Format renders the result as the ASCII table the paper prints (Tables II
// and III): a header row of column names and one row per tuple, columns
// padded to their widest member. One pass over the values finds the widths,
// a second appends them; no cell becomes a string on the way.
func (r *Result) Format() string {
	if len(r.Columns) == 0 {
		return fmt.Sprintf("OK, %d row(s) affected\n", r.Affected)
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	var cell []byte
	for _, row := range r.Rows {
		for i, v := range row {
			cell = v.appendText(cell[:0])
			widths[i] = max(widths[i], len(cell))
		}
	}
	line := 0 // a full row's length: every column padded, two spaces between, a newline
	for _, w := range widths {
		line += w + 2
	}
	const spaces = "                                "
	b := make([]byte, 0, line*(len(r.Rows)+1))
	for ri := -1; ri < len(r.Rows); ri++ { // -1 is the header
		n := len(r.Columns)
		if ri >= 0 {
			n = len(r.Rows[ri])
		}
		for i := 0; i < n; i++ {
			from := len(b)
			if ri < 0 {
				b = append(b, r.Columns[i]...)
			} else {
				b = r.Rows[ri][i].appendText(b)
			}
			for pad := from + widths[i] + 2 - len(b); pad > 0 && i < n-1; pad -= len(spaces) {
				b = append(b, spaces[:min(pad, len(spaces))]...)
			}
		}
		b = append(b, '\n')
	}
	return text(b)
}

// Exec parses and executes any supported statement.
func (d *Database) Exec(sql string) (*Result, error) {
	st, err := d.parseSQL(sql)
	if err != nil {
		return nil, err
	}
	if sel, ok := st.(selectStmt); ok {
		d.mu.RLock()
		defer d.mu.RUnlock()
		return d.execSelect(sel)
	}
	return d.execMutation(sql, st)
}

// execMutation runs one mutating statement: log first (when durable), then
// apply under the write half of the RWMutex. The change sequence advances
// even when the apply errors — the historical behavior report staleness
// guards rely on — and the WAL record is appended before the apply, so a
// replay reproduces the identical (possibly failing) outcome.
func (d *Database) execMutation(sql string, st statement) (*Result, error) {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	return d.mutateLocked(sql, st)
}

// mutateLocked is execMutation under the caller's hold of writeMu: a schema
// helper chooses a statement's values (the next id, rank and address) and
// applies it with no writer in between. st is parse(sql), parsed or built.
func (d *Database) mutateLocked(sql string, st statement) (*Result, error) {
	if d.dur != nil {
		if err := d.dur.append(d.changeSeq.Load()+1, sql); err != nil {
			return nil, err
		}
	}
	d.mu.Lock()
	d.changeSeq.Add(1)
	res, err := d.applyLocked(st)
	d.mu.Unlock()
	if err != nil {
		return res, err
	}
	if d.dur != nil {
		if serr := d.maybeSnapshotLocked(); serr != nil {
			return res, fmt.Errorf("clusterdb: statement applied, but snapshot rotation failed: %w", serr)
		}
	}
	return res, nil
}

// applyLocked dispatches a parsed mutating statement. Callers hold d.mu;
// both the live write path and WAL replay come through here, which is what
// makes replay reproduce exactly what the original Exec did.
func (d *Database) applyLocked(st statement) (*Result, error) {
	switch s := st.(type) {
	case createTableStmt:
		return d.execCreate(s)
	case dropTableStmt:
		return d.execDrop(s)
	case insertStmt:
		return d.execInsert(s)
	case updateStmt:
		return d.execUpdate(s)
	case deleteStmt:
		return d.execDelete(s)
	}
	return nil, fmt.Errorf("clusterdb: unhandled statement %T", st)
}

// Query is Exec restricted to SELECT; it rejects anything that would modify
// the database, which is what tools taking a --query flag pass through.
func (d *Database) Query(sql string) (*Result, error) {
	st, err := d.parseSQL(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(selectStmt)
	if !ok {
		return nil, fmt.Errorf("clusterdb: Query accepts only SELECT statements")
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.execSelect(sel)
}

// MustExec runs a statement that the caller knows is valid (schema setup);
// it panics on error.
func (d *Database) MustExec(sql string) *Result {
	r, err := d.Exec(sql)
	if err != nil {
		panic("clusterdb: " + err.Error())
	}
	return r
}

// ChangeSeq returns a counter that increments on every mutation.
func (d *Database) ChangeSeq() int64 {
	return d.changeSeq.Load()
}

// TableNames lists the tables in sorted order.
func (d *Database) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Schema returns the column definitions of a table.
func (d *Database) Schema(name string) ([]Column, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("clusterdb: no such table %q", name)
	}
	return append([]Column(nil), t.cols...), nil
}

func (d *Database) execCreate(s createTableStmt) (*Result, error) {
	if _, ok := d.tables[s.name]; ok {
		return nil, fmt.Errorf("clusterdb: table %q already exists", s.name)
	}
	seen := map[string]bool{}
	for _, c := range s.cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("clusterdb: duplicate column %q in table %q", c.Name, s.name)
		}
		seen[c.Name] = true
	}
	t := &table{name: s.name, cols: s.cols}
	t.attachIndexes()
	t.attachAlloc()
	d.tables[s.name] = t
	return &Result{}, nil
}

func (d *Database) execDrop(s dropTableStmt) (*Result, error) {
	if _, ok := d.tables[s.name]; !ok {
		if s.ifExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("clusterdb: no such table %q", s.name)
	}
	delete(d.tables, s.name)
	return &Result{}, nil
}

func (d *Database) execInsert(s insertStmt) (*Result, error) {
	return d.insertRows(s, false)
}

// execInsertBulk is the snapshot loader's INSERT: rows append without
// per-row uniqueness checks or index maintenance (the snapshot is a dump of
// a database that already enforced both), and loadSnapshot rebuilds every
// index once at the end.
func (d *Database) execInsertBulk(s insertStmt) (*Result, error) {
	return d.insertRows(s, true)
}

func (d *Database) insertRows(s insertStmt, bulk bool) (*Result, error) {
	t, ok := d.tables[s.table]
	if !ok {
		return nil, fmt.Errorf("clusterdb: no such table %q", s.table)
	}
	colIdx := make([]int, 0, len(t.cols))
	if s.cols == nil {
		for i := range t.cols {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range s.cols {
			i := t.colIndex(name)
			if i < 0 {
				return nil, fmt.Errorf("clusterdb: table %q has no column %q", s.table, name)
			}
			colIdx = append(colIdx, i)
		}
	}
	inserted := 0
	for _, exprs := range s.rows {
		if len(exprs) != len(colIdx) {
			return nil, fmt.Errorf("clusterdb: INSERT has %d values for %d columns", len(exprs), len(colIdx))
		}
		row := make([]Value, len(t.cols))
		for i := range row {
			row[i] = NullValue()
		}
		for i, ex := range exprs {
			v, err := eval(bound(ex, nil), &rowEnv{}) // no row to read: a name here names nothing
			if err != nil {
				return nil, err
			}
			cv, err := coerce(v, t.cols[colIdx[i]].Type)
			if err != nil {
				return nil, fmt.Errorf("%v (column %q)", err, t.cols[colIdx[i]].Name)
			}
			row[colIdx[i]] = cv
		}
		if !bulk {
			if err := t.checkInsert(row, -1); err != nil {
				return nil, err
			}
			t.indexAdd(row, len(t.rows))
			if t.alloc != nil {
				t.alloc.noteInsert(row)
			}
		}
		t.rows = append(t.rows, row)
		inserted++
	}
	return &Result{Affected: inserted}, nil
}

func (d *Database) execUpdate(s updateStmt) (*Result, error) {
	t, ok := d.tables[s.table]
	if !ok {
		return nil, fmt.Errorf("clusterdb: no such table %q", s.table)
	}
	env := &rowEnv{tables: []*boundTable{{alias: s.table, t: t}}}
	where, vals := bound(s.where, env.tables), make([]expr, len(s.sets))
	for i, set := range s.sets {
		vals[i] = bound(set.val, env.tables)
	}
	affected := 0
	// Rows already updated stay updated when a later row errors, so the
	// cursor rebuild must run on every way out.
	holes := false
	defer func() {
		if holes {
			t.alloc.rebuild(t.rows)
		}
	}()
	for ri := range t.rows {
		env.rows = [][]Value{t.rows[ri]}
		match, err := holds(where, env)
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		// Stage the new row so uniqueness is checked before anything
		// commits; within one row later SET clauses see earlier ones, the
		// same visibility the old in-place update gave.
		staged := append([]Value(nil), t.rows[ri]...)
		env.rows = [][]Value{staged}
		for i, set := range s.sets {
			ci := t.colIndex(set.col)
			if ci < 0 {
				return nil, fmt.Errorf("clusterdb: table %q has no column %q", s.table, set.col)
			}
			v, err := eval(vals[i], env)
			if err != nil {
				return nil, err
			}
			cv, err := coerce(v, t.cols[ci].Type)
			if err != nil {
				return nil, err
			}
			staged[ci] = cv
		}
		if err := t.checkInsert(staged, ri); err != nil {
			return nil, err
		}
		t.indexUpdate(t.rows[ri], staged, ri)
		if t.alloc != nil && t.alloc.moved(t.rows[ri], staged) {
			holes = true
		}
		t.rows[ri] = staged
		affected++
	}
	return &Result{Affected: affected}, nil
}

func (d *Database) execDelete(s deleteStmt) (*Result, error) {
	t, ok := d.tables[s.table]
	if !ok {
		return nil, fmt.Errorf("clusterdb: no such table %q", s.table)
	}
	env := &rowEnv{tables: []*boundTable{{alias: s.table, t: t}}, rows: make([][]Value, 1)}
	where := bound(s.where, env.tables)
	// Decide, then move: the survivors collect in a slice of their own, so a
	// WHERE that fails on a later row returns with the rows, the indexes and
	// the allocation cursor exactly as they were.
	kept := make([][]Value, 0, len(t.rows))
	for _, row := range t.rows {
		env.rows[0] = row
		doomed, err := holds(where, env)
		if err != nil {
			return nil, err
		}
		if !doomed {
			kept = append(kept, row)
		}
	}
	deleted := len(t.rows) - len(kept)
	if deleted > 0 {
		t.rows = kept
		// Deletion shifts row positions; rebuilding is O(N) but deletes are
		// the rarest mutation (decommissioning hardware).
		t.rebuildIndexes()
	}
	return &Result{Affected: deleted}, nil
}

// IndexInfo describes one automatic index in DBStats.
type IndexInfo struct {
	Table   string   `json:"table"`
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Unique  bool     `json:"unique"`
	Keys    int      `json:"keys"`
}

// DBStats is the database's fast-path instrumentation: how often the plan
// cache saved a parse, how SELECTs were answered, and what the indexes hold.
type DBStats struct {
	PlanCacheHits    uint64      `json:"plan_cache_hits"`
	PlanCacheMisses  uint64      `json:"plan_cache_misses"`
	PlanCacheEntries int         `json:"plan_cache_entries"`
	IndexSelects     uint64      `json:"index_selects"`
	ScanSelects      uint64      `json:"scan_selects"`
	AllocProbes      uint64      `json:"alloc_probes"`
	Indexes          []IndexInfo `json:"indexes"`
	// WAL is the durability layer's accounting; nil for in-memory databases.
	WAL *WALStats `json:"wal,omitempty"`
}

// Stats snapshots the fast-path counters.
func (d *Database) Stats() DBStats {
	var s DBStats
	s.PlanCacheHits, s.PlanCacheMisses, s.PlanCacheEntries = d.plans.stats()
	s.IndexSelects = d.indexSelects.Load()
	s.ScanSelects = d.scanSelects.Load()
	s.AllocProbes = d.allocProbes.Load()
	if d.dur != nil {
		s.WAL = d.dur.stats()
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, name := range d.tableNamesLocked() {
		for _, ix := range d.tables[name].indexes {
			s.Indexes = append(s.Indexes, IndexInfo{
				Table:   name,
				Name:    ix.spec.name,
				Columns: append([]string(nil), ix.spec.cols...),
				Unique:  ix.spec.unique,
				Keys:    len(ix.buckets),
			})
		}
	}
	return s
}

// pointLookup answers "all rows where col = v" straight from a
// single-column index — the prepared-statement path the schema helpers use
// so per-value SQL texts (a different IP in every kickstart request) don't
// defeat the plan cache by paying a fresh parse per call. Row slices are
// safe to read after the lock drops: mutations replace a table's row
// slices, never write into them. ok is false when routing is off or no
// index covers col; the caller falls back to the SQL scan path.
func (d *Database) pointLookup(tableName, col string, v Value) (rows [][]Value, ok bool) {
	if !d.indexRouting.Load() {
		return nil, false
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, found := d.tables[tableName]
	if !found {
		return nil, false
	}
	for _, ix := range t.indexes {
		if len(ix.spec.cols) != 1 || ix.spec.cols[0] != col {
			continue
		}
		var buf [64]byte
		key, pOK, empty := canonicalKeyPart(buf[:0], t.cols[ix.colIdx[0]].Type, v)
		if empty {
			d.indexSelects.Add(1)
			return nil, true
		}
		if !pOK {
			return nil, false // '07'=7-style coercion: only a scan is exact
		}
		bucket := ix.buckets[string(key)]
		rows = make([][]Value, len(bucket))
		for i, ri := range bucket {
			rows[i] = t.rows[ri]
		}
		d.indexSelects.Add(1)
		return rows, true
	}
	return nil, false
}
