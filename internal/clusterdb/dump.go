package clusterdb

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Dump serializes the whole database as SQL text — CREATE TABLE and INSERT
// statements — the way mysqldump backs up a Rocks frontend before an
// upgrade. Restore replays a dump into an empty database.

// Dump renders the database as executable SQL, tables in name order, rows
// in storage order.
func (d *Database) Dump() string { return string(d.dump()) }

// dump is Dump as bytes: what a snapshot checksums and writes.
func (d *Database) dump() []byte {
	views := d.view(nil)
	return appendDump(make([]byte, 0, dumpSizeHint(views)), views)
}

// dumpSizeHint is room for a typical dump of the viewed tables (a nodes row
// renders to about 140 bytes), so a fresh buffer does not double its way up.
func dumpSizeHint(views []tableView) int {
	rows := 0
	for _, v := range views {
		rows += len(v.rows)
	}
	return 1024 + 160*rows
}

// tableView is a consistent copy of one table's row list. Row slices are
// safe to read after the lock drops (mutations replace a table's row slices,
// never write into them) and a table's columns never change, so copying the
// row list under the read lock is a full snapshot of the table, and everything
// rendered from it — the dump, the generated files — costs readers and the
// writer no lock time at all. Of t only the name and columns may be read.
type tableView struct {
	t    *table
	rows [][]Value
}

// view snapshots the named tables that exist, or with no names every table in
// name order, under one hold of the read lock. It reuses dst's storage.
func (d *Database) view(dst []tableView, names ...string) []tableView {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if names == nil {
		names = d.tableNamesLocked()
	}
	for len(dst) < len(names) {
		dst = append(dst, tableView{})
	}
	n := 0
	for _, name := range names {
		if t, ok := d.tables[name]; ok {
			dst[n] = tableView{t: t, rows: append(dst[n].rows[:0], t.rows...)}
			n++
		}
	}
	return dst[:n]
}

// inIDOrder returns the view's rows in id order: the ORDER BY id every report
// and listing has always had. Storage order is already id order unless ids
// were inserted out of sequence; only then is the view's copy sorted.
func (v *tableView) inIDOrder(idCol int) [][]Value {
	rows := v.rows
	byID := func(i, j int) bool { return Compare(rows[i][idCol], rows[j][idCol]) < 0 }
	if !sort.SliceIsSorted(rows, byID) {
		sort.SliceStable(rows, byID)
	}
	return rows
}

// appendDump appends the SQL text of the viewed tables.
func appendDump(b []byte, views []tableView) []byte {
	b = append(b, "-- rocks cluster database dump\n"...)
	for _, v := range views {
		b = append(append(append(b, "CREATE TABLE "...), v.t.name...), " ("...)
		for i, c := range v.t.cols {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(append(append(b, c.Name...), ' '), c.Type.String()...)
		}
		b = append(b, ");\n"...)
		for _, row := range v.rows {
			b = append(append(append(b, "INSERT INTO "...), v.t.name...), " VALUES "...)
			b = append(appendTuple(b, row), ";\n"...)
		}
	}
	return b
}

// tableNamesLocked returns sorted table names; callers hold the lock.
func (d *Database) tableNamesLocked() []string {
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	// insertion sort: the table count is tiny
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// appendLiteral appends a value as an SQL literal. The only escape the
// dialect has is quote doubling: newlines, carriage returns, and every other
// byte embed raw inside the quotes, and SplitStatements + the lexer
// reassemble multi-line literals byte-for-byte. Snapshots lean on this
// round-tripping exactly (the regression tests in dump_test.go feed it
// hostile text), so any new escaping here must change the reader in lockstep.
func appendLiteral(b []byte, v Value) []byte {
	switch {
	case v.Null:
		return append(b, "NULL"...)
	case v.IsInt:
		return strconv.AppendInt(b, v.Int, 10)
	}
	b = append(b, '\'')
	s := v.Str
	for {
		i := strings.IndexByte(s, '\'')
		if i < 0 {
			break
		}
		b = append(append(b, s[:i+1]...), '\'')
		s = s[i+1:]
	}
	return append(append(b, s...), '\'')
}

// appendTuple appends a row as the parenthesized literal list of an INSERT.
func appendTuple(b []byte, row []Value) []byte {
	b = append(b, '(')
	for i, cell := range row {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendLiteral(b, cell)
	}
	return append(b, ')')
}

// literalInsert builds the single-row INSERT of values the caller is holding:
// the statement parse would produce, and the text it would produce it from.
// The text is logged and replayed like any other; the lexer and parser are
// not asked to find the values again. The one integer the dialect cannot spell
// (the parser reads -n as 0 - n) is refused before anything is logged.
func literalInsert(table string, cols []string, row []Value) (statement, string, error) {
	exprs, err := literalExprs(row)
	if err != nil {
		return nil, "", err
	}
	b := append(make([]byte, 0, 256), "INSERT INTO "+table+" ("+strings.Join(cols, ", ")+") VALUES "...)
	return insertStmt{table: table, cols: cols, rows: [][]expr{exprs}}, string(appendTuple(b, row)), nil
}

// literalUpdate is literalInsert's UPDATE: the row whose first column equals
// row[0] gets the rest of row, as "UPDATE t SET c1 = v1, ... WHERE c0 = v0".
func literalUpdate(table string, cols []string, row []Value) (statement, string, error) {
	exprs, err := literalExprs(row)
	if err != nil {
		return nil, "", err
	}
	st := updateStmt{table: table, sets: make([]setClause, len(cols)-1),
		where: binaryExpr{op: "=", l: columnRef{name: cols[0]}, r: exprs[0]}}
	b := append(make([]byte, 0, 256), "UPDATE "+table+" SET "...)
	for i := 1; i < len(cols); i++ {
		if i > 1 {
			b = append(b, ", "...)
		}
		st.sets[i-1] = setClause{col: cols[i], val: exprs[i]}
		b = appendLiteral(append(b, cols[i]+" = "...), row[i])
	}
	b = appendLiteral(append(b, " WHERE "+cols[0]+" = "...), row[0])
	return st, string(b), nil
}

// literalExprs is each value as the expression the parser makes of its
// literal.
func literalExprs(row []Value) ([]expr, error) {
	exprs := make([]expr, len(row))
	for i, v := range row {
		switch {
		case v.IsInt && v.Int == math.MinInt64:
			return nil, fmt.Errorf("clusterdb: integer %d has no literal", v.Int)
		case v.IsInt && v.Int < 0:
			exprs[i] = binaryExpr{op: "-", l: literal{v: IntValue(0)}, r: literal{v: IntValue(-v.Int)}}
		default:
			exprs[i] = literal{v: v}
		}
	}
	return exprs, nil
}

// sqlLiteral is appendLiteral as a string, for error messages.
func sqlLiteral(v Value) string { return string(appendLiteral(nil, v)) }

// Restore replays a dump into the database. Statements execute in order;
// the first error aborts the restore, identifying the statement — recovery
// paths surface this to an administrator staring at a damaged backup, so
// "which statement" matters.
func Restore(d *Database, dump string) error {
	for i, stmt := range SplitStatements(dump) {
		if _, err := d.Exec(stmt); err != nil {
			return fmt.Errorf("clusterdb: restore: statement %d (%s): %w", i+1, abbreviateSQL(stmt), err)
		}
	}
	return nil
}

// abbreviateSQL clips a statement for error messages.
func abbreviateSQL(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}

// SplitStatements splits SQL text on statement-terminating semicolons,
// respecting string literals and skipping comment lines.
func SplitStatements(text string) []string {
	var stmts []string
	var cur strings.Builder
	inString := byte(0)
	lines := strings.Split(text, "\n")
	for _, line := range lines {
		if inString == 0 && strings.HasPrefix(strings.TrimSpace(line), "--") {
			continue
		}
		for i := 0; i < len(line); i++ {
			c := line[i]
			switch {
			case inString != 0:
				cur.WriteByte(c)
				if c == inString {
					// Doubled quotes stay inside the literal.
					if i+1 < len(line) && line[i+1] == inString {
						cur.WriteByte(line[i+1])
						i++
					} else {
						inString = 0
					}
				}
			case c == '\'' || c == '"':
				inString = c
				cur.WriteByte(c)
			case c == ';':
				if s := strings.TrimSpace(cur.String()); s != "" {
					stmts = append(stmts, s)
				}
				cur.Reset()
			default:
				cur.WriteByte(c)
			}
		}
		cur.WriteByte('\n')
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		stmts = append(stmts, s)
	}
	return stmts
}
