package clusterdb

// The statement and expression AST produced by the parser and consumed by
// the executor.

import "regexp"

type statement interface{ stmt() }

type createTableStmt struct {
	name string
	cols []Column
}

type dropTableStmt struct {
	name     string
	ifExists bool
}

type insertStmt struct {
	table string
	cols  []string // nil means all columns in schema order
	rows  [][]expr
}

type updateStmt struct {
	table string
	sets  []setClause
	where expr // nil means all rows
}

type setClause struct {
	col string
	val expr
}

type deleteStmt struct {
	table string
	where expr
}

type selectStmt struct {
	distinct bool
	items    []selectItem // nil means *
	tables   []tableRef
	where    expr
	groupBy  []expr
	having   expr
	orderBy  []orderKey
	limit    int // -1 means no limit
}

type selectItem struct {
	ex    expr
	alias string
	star  bool   // bare * or table.*
	table string // for table.*
}

type tableRef struct {
	name  string
	alias string
}

type orderKey struct {
	ex   expr
	desc bool
}

func (createTableStmt) stmt() {}
func (dropTableStmt) stmt()   {}
func (insertStmt) stmt()      {}
func (updateStmt) stmt()      {}
func (deleteStmt) stmt()      {}
func (selectStmt) stmt()      {}

type expr interface{ exprNode() }

// binaryExpr covers comparisons, AND/OR, and + -.
type binaryExpr struct {
	op   string // "and" "or" "=" "!=" "<" ">" "<=" ">=" "+" "-" "like"
	l, r expr
	rx   map[string]*regexp.Regexp // a bound LIKE's compiled patterns, by their text
}

type notExpr struct{ x expr }

type inExpr struct {
	x    expr
	list []expr
	neg  bool
}

type isNullExpr struct {
	x   expr
	neg bool // IS NOT NULL
}

type columnRef struct {
	table string // "" if unqualified
	name  string
}

type literal struct{ v Value }

// aggExpr is an aggregate call in a select list: COUNT(*), COUNT(x),
// MIN(x), MAX(x), SUM(x).
type aggExpr struct {
	fn   string // "count", "min", "max", "sum"
	star bool   // COUNT(*)
	x    expr   // nil when star
}

func (binaryExpr) exprNode() {}
func (notExpr) exprNode()    {}
func (inExpr) exprNode()     {}
func (isNullExpr) exprNode() {}
func (columnRef) exprNode()  {}
func (literal) exprNode()    {}
func (aggExpr) exprNode()    {}
