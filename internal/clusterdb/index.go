package clusterdb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Hash indexes over the hot columns of the Rocks schema. Every point lookup
// the paper's tools issue — insert-ethers asking NodeByMAC for each syslog
// line, the kickstart CGI asking NodeByIP for each HTTP request, NextRank
// scanning a cabinet — is a single-table equality predicate, so a handful of
// automatic hash indexes turns the O(N) scans that wall at 1000 nodes into
// O(1) probes. Indexes are created when a table with a known spec is
// created (including Restore replaying a dump), maintained on every
// INSERT/UPDATE/DELETE, and consulted by the planner in exec.go. The planner
// must produce byte-identical results to the scan path; the rules that make
// that true live in canonicalKeyPart.

// indexSpec names an automatic index: which columns it covers and whether
// it enforces uniqueness.
type indexSpec struct {
	name   string
	cols   []string
	unique bool
}

// autoIndexSpecs lists the indexes attached to known tables at CREATE time.
// A spec only applies when every named column exists in the created table,
// so user tables that happen to share a name but not the schema stay plain.
//
// Uniqueness on nodes is sparse: NULL keys are never indexed and empty-string
// keys are indexed but not uniqueness-enforced, because appliances without a
// burned-in identity (switches before discovery, placeholder rows) legally
// share ”. oneNode surfaces those duplicates at lookup time instead.
var autoIndexSpecs = map[string][]indexSpec{
	"nodes": {
		{name: "nodes_mac", cols: []string{"mac"}, unique: true},
		{name: "nodes_ip", cols: []string{"ip"}, unique: true},
		{name: "nodes_name", cols: []string{"name"}, unique: true},
		{name: "nodes_membership_rack", cols: []string{"membership", "rack"}},
	},
	"memberships": {
		{name: "memberships_id", cols: []string{"id"}},
		{name: "memberships_name", cols: []string{"name"}},
	},
	"site": {
		{name: "site_name", cols: []string{"name"}},
	},
}

// appendKeyPart appends one cell in the key encoding every hash in the
// package shares (index buckets, probe keys, the allocation cursor's address
// probe, DISTINCT and GROUP BY identities): NUL, a type tag, the payload. A
// probe finds a stored row only while both sides spell this byte for byte,
// which is why it is spelled once.
func appendKeyPart(b []byte, v Value) []byte {
	switch {
	case v.Null:
		return append(b, "\x00N"...)
	case v.IsInt:
		return strconv.AppendInt(append(b, "\x00I"...), v.Int, 10)
	default:
		return append(append(b, "\x00S"...), v.Str...)
	}
}

// index is one hash index: bucket keys are the appendKeyPart encoding of the
// indexed columns, and each bucket holds row positions in ascending order so
// an indexed SELECT visits rows in exactly the order a scan would.
type index struct {
	spec    indexSpec
	colIdx  []int
	buckets map[string][]int
}

// attachIndexes gives a freshly created table its automatic indexes.
func (t *table) attachIndexes() {
	for _, spec := range autoIndexSpecs[t.name] {
		colIdx := make([]int, len(spec.cols))
		covered := true
		for i, col := range spec.cols {
			if colIdx[i] = t.colIndex(col); colIdx[i] < 0 {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		t.indexes = append(t.indexes, &index{
			spec:    spec,
			colIdx:  colIdx,
			buckets: make(map[string][]int),
		})
	}
}

// keyFor encodes a stored row's key for this index. ok is false when any key
// column is NULL: NULL equals nothing, so such rows can never be returned by
// an equality probe and are left out of the buckets entirely.
func (ix *index) keyFor(row []Value) (string, bool) {
	var buf [64]byte
	b := buf[:0]
	for _, ci := range ix.colIdx {
		if row[ci].Null {
			return "", false
		}
		b = appendKeyPart(b, row[ci])
	}
	return string(b), true
}

// enforceable reports whether uniqueness applies to this row's key: sparse
// semantics exempt empty-string text parts (rows without an identity yet).
func (ix *index) enforceable(row []Value) bool {
	if !ix.spec.unique {
		return false
	}
	for _, ci := range ix.colIdx {
		v := row[ci]
		if v.Null || (!v.IsInt && v.Str == "") {
			return false
		}
	}
	return true
}

// checkInsert verifies a prospective row violates no unique index of the
// table. exclude is the row position to ignore (the row itself, during
// UPDATE); pass -1 for INSERT.
func (t *table) checkInsert(row []Value, exclude int) error {
	for _, ix := range t.indexes {
		if !ix.enforceable(row) {
			continue
		}
		key, ok := ix.keyFor(row)
		if !ok {
			continue
		}
		for _, pos := range ix.buckets[key] {
			if pos != exclude {
				return fmt.Errorf("clusterdb: duplicate value %s for unique index %s on %q",
					indexKeyString(ix, row), ix.spec.name, t.name)
			}
		}
	}
	return nil
}

// indexKeyString renders an index key for error messages: ('aa:bb', 7).
func indexKeyString(ix *index, row []Value) string {
	parts := make([]string, len(ix.colIdx))
	for i, ci := range ix.colIdx {
		parts[i] = sqlLiteral(row[ci])
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// indexAdd registers a row at the given position in every index.
func (t *table) indexAdd(row []Value, pos int) {
	for _, ix := range t.indexes {
		if key, ok := ix.keyFor(row); ok {
			ix.buckets[key] = insertPos(ix.buckets[key], pos)
		}
	}
}

// indexUpdate moves a row from its old key to its new key in every index.
func (t *table) indexUpdate(oldRow, newRow []Value, pos int) {
	for _, ix := range t.indexes {
		oldKey, oldOK := ix.keyFor(oldRow)
		newKey, newOK := ix.keyFor(newRow)
		if oldOK == newOK && oldKey == newKey {
			continue
		}
		if oldOK {
			if b := removePos(ix.buckets[oldKey], pos); len(b) > 0 {
				ix.buckets[oldKey] = b
			} else {
				delete(ix.buckets, oldKey)
			}
		}
		if newOK {
			ix.buckets[newKey] = insertPos(ix.buckets[newKey], pos)
		}
	}
}

// rebuildIndexes refills every bucket from scratch — used after DELETE
// compacts the row slice and shifts positions, and once after a bulk load.
// Both can leave holes the allocation cursor has not seen, so it is rebuilt
// with them.
func (t *table) rebuildIndexes() {
	for _, ix := range t.indexes {
		ix.buckets = make(map[string][]int)
	}
	for pos, row := range t.rows {
		t.indexAdd(row, pos)
	}
	if t.alloc != nil {
		t.alloc.rebuild(t.rows)
	}
}

// insertPos adds pos to a sorted position slice.
func insertPos(s []int, pos int) []int {
	i := sort.SearchInts(s, pos)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = pos
	return s
}

// removePos drops pos from a sorted position slice.
func removePos(s []int, pos int) []int {
	i := sort.SearchInts(s, pos)
	if i < len(s) && s[i] == pos {
		s = append(s[:i], s[i+1:]...)
	}
	return s
}

// --- planner ---------------------------------------------------------------

// indexCandidates is the minimal planner: for a single-table SELECT whose
// WHERE is index-safe, find the best index fully covered by equality
// conjuncts and return the matching row positions (ascending — scan order).
// used=false means no index applies and the caller must scan. used=true with
// nil candidates means the predicate provably matches nothing.
func indexCandidates(bt *boundTable, where expr) (cand []int, used bool) {
	t := bt.t
	if len(t.indexes) == 0 || where == nil || !whereSafe(where, bt) {
		return nil, false
	}
	eq := map[string]Value{}
	collectEqualities(where, bt, eq)
	if len(eq) == 0 {
		return nil, false
	}
	var best *index
	var bestKey string
	bestEmpty := false
	for _, ix := range t.indexes {
		key, ok, empty := ix.probeKey(t, eq)
		if !ok {
			continue
		}
		if best == nil ||
			len(ix.spec.cols) > len(best.spec.cols) ||
			(len(ix.spec.cols) == len(best.spec.cols) && ix.spec.unique && !best.spec.unique) {
			best, bestKey, bestEmpty = ix, key, empty
		}
	}
	if best == nil {
		return nil, false
	}
	if bestEmpty {
		return nil, true
	}
	return best.buckets[bestKey], true
}

// probeKey builds the bucket key for a probe if every index column has a
// compatible equality literal. empty=true means the predicate can match no
// stored row (e.g. col = NULL), which is itself a usable — empty — plan.
func (ix *index) probeKey(t *table, eq map[string]Value) (key string, ok, empty bool) {
	var b []byte
	for i, col := range ix.spec.cols {
		lit, have := eq[col]
		if !have {
			return "", false, false
		}
		if b, ok, empty = canonicalKeyPart(b, t.cols[ix.colIdx[i]].Type, lit); !ok || empty {
			return "", ok, empty
		}
	}
	return string(b), true, false
}

// canonicalKeyPart appends a probe literal in the stored encoding for one
// key column, or reports why it can't:
//
//   - NULL probes match nothing (SQL equality), on any column type.
//   - INT columns store canonical integers, so a probe that parses as an
//     integer probes with that integer; one that doesn't parse can never
//     equal a stored integer (Compare falls back to the canonical decimal
//     rendering, which always parses) — provably empty.
//   - TEXT columns store exact strings, so string probes are exact; an
//     integer probe, however, compares *numerically* against numeric-looking
//     strings ('07' = 7 under Compare), which a hash key can't express — the
//     planner bows out and the scan path answers it.
func canonicalKeyPart(b []byte, ct Type, v Value) (key []byte, ok, empty bool) {
	if v.Null {
		return b, true, true
	}
	if ct == TypeInt {
		n, isInt := v.AsInt()
		if !isInt {
			return b, true, true
		}
		return appendKeyPart(b, IntValue(n)), true, false
	}
	if v.IsInt {
		return b, false, false
	}
	return appendKeyPart(b, v), true, false
}

// whereSafe reports whether evaluating the WHERE clause over *any* subset of
// rows behaves identically to evaluating it over all rows: every column
// reference resolves against the single bound table and no operator can
// raise a row-dependent error. A scan evaluates the WHERE on every row, so
// an expression that errors (unknown column, aggregate misuse, non-integer
// arithmetic) errors whenever the table is non-empty; an index path that
// visits fewer rows must not silently succeed where the scan would fail.
func whereSafe(e expr, bt *boundTable) bool {
	switch x := e.(type) {
	case literal:
		return true
	case columnRef:
		return (x.table == "" || x.table == bt.alias) && bt.t.colIndex(x.name) >= 0
	case notExpr:
		return whereSafe(x.x, bt)
	case isNullExpr:
		return whereSafe(x.x, bt)
	case inExpr:
		if !whereSafe(x.x, bt) {
			return false
		}
		for _, item := range x.list {
			if !whereSafe(item, bt) {
				return false
			}
		}
		return true
	case binaryExpr:
		switch x.op {
		case "and", "or", "=", "!=", "<", ">", "<=", ">=":
			return whereSafe(x.l, bt) && whereSafe(x.r, bt)
		}
		// +, - (non-integer operands) and LIKE (pattern compilation) can
		// error per-row; leave them to the scan path.
		return false
	}
	return false
}

// collectEqualities gathers `col = literal` conjuncts from the top-level AND
// tree. Conflicting equalities on one column keep the first — the full WHERE
// is still evaluated on every candidate, so extra conjuncts only narrow.
func collectEqualities(e expr, bt *boundTable, eq map[string]Value) {
	b, ok := e.(binaryExpr)
	if !ok {
		return
	}
	if b.op == "and" {
		collectEqualities(b.l, bt, eq)
		collectEqualities(b.r, bt, eq)
		return
	}
	if b.op != "=" {
		return
	}
	ref, lit, ok := refAndLiteral(b.l, b.r)
	if !ok {
		ref, lit, ok = refAndLiteral(b.r, b.l)
	}
	if !ok || (ref.table != "" && ref.table != bt.alias) || bt.t.colIndex(ref.name) < 0 {
		return
	}
	if _, exists := eq[ref.name]; !exists {
		eq[ref.name] = lit
	}
}

func refAndLiteral(a, b expr) (columnRef, Value, bool) {
	ref, ok := a.(columnRef)
	if !ok {
		return columnRef{}, Value{}, false
	}
	lit, ok := b.(literal)
	if !ok {
		return columnRef{}, Value{}, false
	}
	return ref, lit.v, true
}
