package clusterdb

import (
	"fmt"
	"reflect"
	"regexp"
	"sort"
	"strings"
)

// outCol is one projected column of a SELECT.
type outCol struct {
	name string
	ex   expr
}

// boundTable pairs a table with the alias it is visible under in a query.
type boundTable struct {
	alias string
	t     *table
}

// rowEnv is one candidate joined row: rows[i] is the current row of
// tables[i]. agg, set only while HAVING is evaluated, resolves an aggregate
// sub-expression to its group's value.
type rowEnv struct {
	tables []*boundTable
	rows   [][]Value
	agg    func(aggExpr) (Value, bool)
}

// slot is a column reference after bind: the joined table and the column
// within it, or the error the name resolves to, raised when a row evaluates
// the reference and not before (a query over no rows never sees it).
type slot struct {
	ti, ci int
	err    error
}

func (slot) exprNode() {}

// resolve finds the slot a column reference names. Unqualified names must be
// unambiguous across the joined tables, mirroring MySQL.
func resolve(ref columnRef, tables []*boundTable) slot {
	found := slot{ti: -1}
	for ti, bt := range tables {
		if ref.table != "" && bt.alias != ref.table {
			continue
		}
		if ci := bt.t.colIndex(ref.name); ci >= 0 {
			if found.ti >= 0 {
				return slot{err: fmt.Errorf("clusterdb: column %q is ambiguous", ref.name)}
			}
			found = slot{ti: ti, ci: ci}
		}
	}
	if found.ti < 0 && ref.table != "" {
		return slot{err: fmt.Errorf("clusterdb: unknown column %s.%s", ref.table, ref.name)}
	}
	if found.ti < 0 {
		return slot{err: fmt.Errorf("clusterdb: unknown column %q", ref.name)}
	}
	return found
}

// bound rewrites a parsed expression for one execution over tables: every
// column reference becomes its slot and every LIKE gets a memo for its
// compiled patterns. Only bound expressions are evaluated. The parsed tree
// belongs to the plan cache and is left alone, and nothing bound outlives the
// execution, so a table dropped and recreated under one SQL text is resolved
// afresh. An aggregate's argument is bound by grouped, where it is read.
func bound(ex expr, tables []*boundTable) expr {
	switch e := ex.(type) {
	case columnRef:
		return resolve(e, tables)
	case notExpr:
		return notExpr{bound(e.x, tables)}
	case isNullExpr:
		return isNullExpr{bound(e.x, tables), e.neg}
	case inExpr:
		list := make([]expr, len(e.list))
		for i, item := range e.list {
			list[i] = bound(item, tables)
		}
		return inExpr{bound(e.x, tables), list, e.neg}
	case binaryExpr:
		e.l, e.r = bound(e.l, tables), bound(e.r, tables)
		if e.op == "like" {
			e.rx = map[string]*regexp.Regexp{}
		}
		return e
	}
	return ex // a literal, an aggregate, or no expression at all
}

// eval evaluates a bound expression.
func eval(ex expr, env *rowEnv) (Value, error) {
	switch e := ex.(type) {
	case literal:
		return e.v, nil
	case slot:
		if e.err != nil {
			return Value{}, e.err
		}
		return env.rows[e.ti][e.ci], nil
	case notExpr:
		v, err := eval(e.x, env)
		if err != nil {
			return Value{}, err
		}
		if v.Truthy() {
			return IntValue(0), nil
		}
		return IntValue(1), nil
	case isNullExpr:
		v, err := eval(e.x, env)
		if err != nil {
			return Value{}, err
		}
		res := v.Null
		if e.neg {
			res = !res
		}
		return boolValue(res), nil
	case inExpr:
		v, err := eval(e.x, env)
		if err != nil {
			return Value{}, err
		}
		match := false
		for _, item := range e.list {
			iv, err := eval(item, env)
			if err != nil {
				return Value{}, err
			}
			if Equal(v, iv) {
				match = true
				break
			}
		}
		if e.neg {
			match = !match
		}
		return boolValue(match), nil
	case binaryExpr:
		return evalBinary(e, env)
	case aggExpr:
		if env.agg != nil {
			if v, ok := env.agg(e); ok {
				return v, nil
			}
		}
		return Value{}, fmt.Errorf("clusterdb: aggregate %s() is only allowed in a select list", e.fn)
	}
	return Value{}, fmt.Errorf("clusterdb: cannot evaluate %T", ex)
}

func boolValue(b bool) Value {
	if b {
		return IntValue(1)
	}
	return IntValue(0)
}

func evalBinary(e binaryExpr, env *rowEnv) (Value, error) {
	// AND short-circuits so `WHERE x AND y` doesn't evaluate y on rows x
	// already rejected.
	if e.op == "and" || e.op == "or" {
		l, err := eval(e.l, env)
		if err != nil {
			return Value{}, err
		}
		if e.op == "and" && !l.Truthy() {
			return boolValue(false), nil
		}
		if e.op == "or" && l.Truthy() {
			return boolValue(true), nil
		}
		r, err := eval(e.r, env)
		if err != nil {
			return Value{}, err
		}
		return boolValue(r.Truthy()), nil
	}
	l, err := eval(e.l, env)
	if err != nil {
		return Value{}, err
	}
	r, err := eval(e.r, env)
	if err != nil {
		return Value{}, err
	}
	switch e.op {
	case "=":
		return boolValue(Equal(l, r)), nil
	case "!=":
		if l.Null || r.Null {
			return boolValue(false), nil
		}
		return boolValue(Compare(l, r) != 0), nil
	case "<", ">", "<=", ">=":
		if l.Null || r.Null {
			return boolValue(false), nil
		}
		c := Compare(l, r)
		switch e.op {
		case "<":
			return boolValue(c < 0), nil
		case ">":
			return boolValue(c > 0), nil
		case "<=":
			return boolValue(c <= 0), nil
		default:
			return boolValue(c >= 0), nil
		}
	case "like":
		if l.Null || r.Null {
			return boolValue(false), nil
		}
		rx, err := likePattern(e.rx, r.String())
		if err != nil {
			return Value{}, err
		}
		return boolValue(rx.MatchString(l.String())), nil
	case "+", "-":
		li, lok := l.AsInt()
		ri, rok := r.AsInt()
		if !lok || !rok {
			return Value{}, fmt.Errorf("clusterdb: %s requires integer operands", e.op)
		}
		if e.op == "+" {
			return IntValue(li + ri), nil
		}
		return IntValue(li - ri), nil
	}
	return Value{}, fmt.Errorf("clusterdb: unknown operator %q", e.op)
}

// likePattern compiles a LIKE pattern unless memo, the expression's own for
// this execution, already holds it: % matches any run, _ one character,
// anything else itself; matching is case-insensitive like MySQL's default
// collation.
func likePattern(memo map[string]*regexp.Regexp, pattern string) (*regexp.Regexp, error) {
	if rx, ok := memo[pattern]; ok {
		return rx, nil
	}
	var re strings.Builder
	re.WriteString("(?is)^")
	for _, c := range pattern {
		switch c {
		case '%':
			re.WriteString(".*")
		case '_':
			re.WriteString(".")
		default:
			re.WriteString(regexp.QuoteMeta(string(c)))
		}
	}
	re.WriteString("$")
	rx, err := regexp.Compile(re.String())
	if err != nil {
		return nil, fmt.Errorf("clusterdb: bad LIKE pattern %q: %v", pattern, err)
	}
	memo[pattern] = rx
	return rx, nil
}

// holds reports whether a predicate accepts the environment's current rows;
// a nil predicate accepts everything. WHERE in SELECT, UPDATE and DELETE,
// and HAVING, all ask here.
func holds(pred expr, env *rowEnv) (bool, error) {
	if pred == nil {
		return true, nil
	}
	v, err := eval(pred, env)
	return err == nil && v.Truthy(), err
}

// query is one SELECT bound to its tables: the row source both consumers
// (plain and grouped) read through.
type query struct {
	s     selectStmt
	where expr // s.where, bound
	out   []outCol
	env   *rowEnv
	// The minimal planner's answer when a hash index covers a single-table
	// equality predicate: the matching row positions of tables[0] in scan
	// order. Meaningful only when useIndex is set.
	cand     []int
	useIndex bool
}

// bind resolves a SELECT's tables, projection and WHERE and asks the planner,
// which reads the WHERE as parsed, for candidates. Callers hold the read lock.
func (d *Database) bind(s selectStmt) (*query, error) {
	tables := make([]*boundTable, 0, len(s.tables))
	seen := map[string]bool{}
	for _, ref := range s.tables {
		t, ok := d.tables[ref.name]
		if !ok {
			return nil, fmt.Errorf("clusterdb: no such table %q", ref.name)
		}
		if seen[ref.alias] {
			return nil, fmt.Errorf("clusterdb: duplicate table alias %q", ref.alias)
		}
		seen[ref.alias] = true
		tables = append(tables, &boundTable{alias: ref.alias, t: t})
	}

	// Expand the projection list.
	var out []outCol
	for _, item := range s.items {
		if item.star {
			for ti, bt := range tables {
				if item.table != "" && bt.alias != item.table {
					continue
				}
				for ci, c := range bt.t.cols {
					out = append(out, outCol{name: c.Name, ex: slot{ti: ti, ci: ci}})
				}
			}
			if item.table != "" && !seen[item.table] {
				return nil, fmt.Errorf("clusterdb: unknown table %q in select list", item.table)
			}
			continue
		}
		name := item.alias
		if name == "" {
			switch e := item.ex.(type) {
			case columnRef:
				name = e.name
			case aggExpr:
				name = e.fn
			default:
				name = "expr"
			}
		}
		out = append(out, outCol{name: name, ex: bound(item.ex, tables)})
	}

	q := &query{s: s, where: bound(s.where, tables), out: out, env: &rowEnv{tables: tables, rows: make([][]Value, len(tables))}}
	if d.indexRouting.Load() && len(tables) == 1 {
		q.cand, q.useIndex = indexCandidates(tables[0], s.where)
	}
	if q.useIndex {
		d.indexSelects.Add(1)
	} else {
		d.scanSelects.Add(1)
	}
	return q, nil
}

// each is the nested-loop join: it calls visit once for every combination of
// rows the WHERE accepts, with env holding that combination. Index
// candidates are ascending positions, so the visit order is a scan's, and
// the full WHERE is still evaluated on each, so an indexed answer is
// byte-identical to the scanned one by construction.
func (q *query) each(visit func() error) error {
	var loop func(int) error
	loop = func(depth int) error {
		if depth == len(q.env.tables) {
			ok, err := holds(q.where, q.env)
			if err != nil || !ok {
				return err
			}
			return visit()
		}
		rows := q.env.tables[depth].t.rows
		indexed := q.useIndex && depth == 0
		n := len(rows)
		if indexed {
			n = len(q.cand)
		}
		for i := 0; i < n; i++ {
			pos := i
			if indexed {
				pos = q.cand[i]
			}
			q.env.rows[depth] = rows[pos]
			if err := loop(depth + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return loop(0)
}

// execSelect runs a SELECT: the join filtered by WHERE, consumed row by row
// or group by group, then limited. Callers hold the read lock.
func (d *Database) execSelect(s selectStmt) (*Result, error) {
	q, err := d.bind(s)
	if err != nil {
		return nil, err
	}
	consume := q.plain
	if len(s.groupBy) > 0 {
		consume = q.grouped
	}
	for _, oc := range q.out {
		if _, ok := oc.ex.(aggExpr); ok {
			consume = q.grouped
		}
	}
	rows, err := consume()
	if err != nil {
		return nil, err
	}
	if s.limit >= 0 && len(rows) > s.limit {
		rows = rows[:s.limit]
	}
	res := &Result{Columns: make([]string, len(q.out)), Rows: rows, Affected: len(rows)}
	for i, oc := range q.out {
		res.Columns[i] = oc.name
	}
	return res, nil
}

// plain projects every joined row, then applies DISTINCT and ORDER BY. The
// sort keys ride behind the projection as hidden trailing cells, as HAVING's
// aggregates do in grouped, and are cut off at the end.
func (q *query) plain() ([][]Value, error) {
	s, width := q.s, len(q.out)
	exprs := make([]expr, 0, width+len(s.orderBy))
	for _, oc := range q.out {
		exprs = append(exprs, oc.ex)
	}
	for _, k := range s.orderBy {
		exprs = append(exprs, bound(k.ex, q.env.tables))
	}
	var rows [][]Value
	err := q.each(func() error {
		row := make([]Value, len(exprs))
		for i, ex := range exprs {
			v, err := eval(ex, q.env)
			if err != nil {
				return err
			}
			row[i] = v
		}
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if s.distinct {
		seenRows := map[string]bool{}
		dedup := rows[:0]
		for _, r := range rows {
			key := rowKey(r[:width])
			if !seenRows[key] {
				seenRows[key] = true
				dedup = append(dedup, r)
			}
		}
		rows = dedup
	}
	if len(s.orderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			for k, key := range s.orderBy {
				c := Compare(rows[i][width+k], rows[j][width+k])
				if c == 0 {
					continue
				}
				if key.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	for i := range rows {
		rows[i] = rows[i][:width]
	}
	return rows, nil
}

// rowKey builds a collision-safe identity for DISTINCT and GROUP BY.
func rowKey(cells []Value) string {
	var b []byte
	for _, v := range cells {
		b = appendKeyPart(b, v)
	}
	return string(b)
}

// aggState accumulates one aggregate column.
type aggState struct {
	count    int64
	sum      int64
	min, max Value
	seen     bool
}

// add folds the environment's current rows into the aggregate; x is its
// argument, bound.
func (st *aggState) add(a aggExpr, x expr, env *rowEnv) error {
	if a.star {
		st.count++
		return nil
	}
	v, err := eval(x, env)
	if err != nil {
		return err
	}
	if v.Null {
		return nil // SQL aggregates skip NULLs
	}
	st.count++
	if n, ok := v.AsInt(); ok {
		st.sum += n
	} else if a.fn == "sum" {
		return fmt.Errorf("clusterdb: SUM over non-numeric value %q", v.String())
	}
	if !st.seen || Compare(v, st.min) < 0 {
		st.min = v
	}
	if !st.seen || Compare(v, st.max) > 0 {
		st.max = v
	}
	st.seen = true
	return nil
}

// value finalises the aggregate; MIN and MAX of nothing are NULL.
func (st *aggState) value(fn string) Value {
	switch {
	case fn == "count":
		return IntValue(st.count)
	case fn == "sum":
		return IntValue(st.sum)
	case fn == "min" && st.seen:
		return st.min
	case fn == "max" && st.seen:
		return st.max
	}
	return NullValue()
}

// grouped serves GROUP BY and the all-aggregate select list. The second is a
// GROUP BY over zero keys whose one group exists before any row is read, so
// COUNT(*) over no rows is one row of 0 while GROUP BY over no rows is none.
// Aggregate items accumulate per group and other items take the group's
// first row (classic MySQL 3.23 semantics, which the Rocks frontend ran).
// Groups come back sorted by key; ORDER BY is not supported together with
// GROUP BY.
func (q *query) grouped() ([][]Value, error) {
	s := q.s
	if len(s.groupBy) > 0 && len(s.orderBy) > 0 {
		return nil, fmt.Errorf("clusterdb: ORDER BY with GROUP BY is not supported (groups are returned sorted by key)")
	}
	// HAVING may reference aggregates not in the select list; accumulate
	// them as hidden trailing columns, dropped before returning.
	out := q.out
	if s.having != nil {
		for _, a := range collectAggs(s.having) {
			out = append(out, outCol{name: "__having__", ex: a})
		}
	}
	// Keys and aggregate arguments are bound here, where rows are read. The
	// aggregates themselves stay as parsed, in the select list and in HAVING
	// alike, which is how HAVING finds the column that accumulated one; a
	// bare column in HAVING, which sees a group and no row, names nothing.
	keys, args, having := make([]expr, len(s.groupBy)), make([]expr, len(out)), bound(s.having, nil)
	for i, g := range s.groupBy {
		keys[i] = bound(g, q.env.tables)
	}
	for i, oc := range out {
		if a, isAgg := oc.ex.(aggExpr); isAgg {
			args[i] = bound(a.x, q.env.tables)
		}
	}
	type group struct {
		key    []Value
		states []aggState
		row    []Value // the output row: first-row values now, aggregates at the end
	}
	groups := map[string]*group{}
	var order []*group
	open := func(k string, key []Value) *group {
		g := &group{key: key, states: make([]aggState, len(out)), row: make([]Value, len(out))}
		groups[k] = g
		order = append(order, g)
		return g
	}
	if len(s.groupBy) == 0 {
		for _, oc := range out {
			if _, isAgg := oc.ex.(aggExpr); !isAgg {
				return nil, fmt.Errorf("clusterdb: column %q must be an aggregate or named in GROUP BY", oc.name)
			}
		}
		open("", nil)
	}

	err := q.each(func() error {
		key := make([]Value, len(keys))
		for i, g := range keys {
			v, err := eval(g, q.env)
			if err != nil {
				return err
			}
			key[i] = v
		}
		k := rowKey(key)
		g, ok := groups[k]
		if !ok {
			g = open(k, key)
			for i, oc := range out {
				if _, isAgg := oc.ex.(aggExpr); !isAgg {
					v, err := eval(oc.ex, q.env)
					if err != nil {
						return err
					}
					g.row[i] = v
				}
			}
		}
		for i, oc := range out {
			if a, isAgg := oc.ex.(aggExpr); isAgg {
				if err := g.states[i].add(a, args[i], q.env); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Sorted group keys give deterministic output.
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i].key, order[j].key
		for k := range a {
			if c := Compare(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})

	// HAVING sees no row, only its group's aggregates: eval resolves each
	// aggregate sub-expression to the column that accumulated it.
	var row []Value
	groupEnv := &rowEnv{agg: func(a aggExpr) (Value, bool) {
		for i, oc := range out {
			if reflect.DeepEqual(oc.ex, a) {
				return row[i], true
			}
		}
		return Value{}, false
	}}
	var rows [][]Value
	for _, g := range order {
		row = g.row
		for i, oc := range out {
			if a, isAgg := oc.ex.(aggExpr); isAgg {
				row[i] = g.states[i].value(a.fn)
			}
		}
		ok, err := holds(having, groupEnv)
		if err != nil {
			return nil, fmt.Errorf("clusterdb: HAVING: %w (only aggregates and literals are allowed)", err)
		}
		if ok {
			rows = append(rows, row[:len(q.out)])
		}
	}
	return rows, nil
}

// collectAggs gathers every aggregate sub-expression in an expr tree.
func collectAggs(ex expr) []aggExpr {
	var out []aggExpr
	var walk func(e expr)
	walk = func(e expr) {
		switch t := e.(type) {
		case aggExpr:
			out = append(out, t)
		case binaryExpr:
			walk(t.l)
			walk(t.r)
		case notExpr:
			walk(t.x)
		case isNullExpr:
			walk(t.x)
		case inExpr:
			walk(t.x)
			for _, i := range t.list {
				walk(i)
			}
		}
	}
	walk(ex)
	return out
}
