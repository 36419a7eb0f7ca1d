// Package clusterdb implements the cluster-wide configuration database that
// Rocks keeps in MySQL (§6.4): a small relational engine with an SQL subset
// rich enough to run the paper's own queries — including the multi-table
// join that drives cluster-kill — plus the report generators that turn
// database state into /etc/hosts, dhcpd.conf, and PBS configuration files.
//
// The engine supports CREATE TABLE, DROP TABLE, INSERT, UPDATE, DELETE, and
// SELECT with multi-table joins, WHERE expressions (AND/OR/NOT, comparisons,
// LIKE, IN), aggregates, GROUP BY/HAVING, DISTINCT, ORDER BY, and LIMIT. Two
// column types exist, INT and TEXT, which is all the Rocks schema uses.
//
// There is one executor (exec.go, DESIGN.md §13): every statement that reads
// rows does it through query.each, the only nested-loop join, and holds, the
// only predicate test, over expressions whose column references bound has
// resolved once for the execution; aggregates accumulate in aggState, an all-aggregate
// select list being a GROUP BY over zero keys; and appendKeyPart spells every
// hash key (index buckets, probes, DISTINCT and GROUP BY identities). A
// statement that fails leaves rows, indexes and allocation cursor consistent.
package clusterdb

import (
	"fmt"
	"strconv"
	"strings"
)

// Type is a column type.
type Type int

// The supported column types.
const (
	TypeInt Type = iota
	TypeText
)

// String returns the SQL name of the type.
func (t Type) String() string {
	if t == TypeInt {
		return "INT"
	}
	return "TEXT"
}

// Value is one cell: an integer, a string, or NULL.
type Value struct {
	Null  bool
	IsInt bool
	Int   int64
	Str   string
}

// IntValue builds an integer Value.
func IntValue(v int64) Value { return Value{IsInt: true, Int: v} }

// TextValue builds a string Value.
func TextValue(s string) Value { return Value{Str: s} }

// NullValue is the SQL NULL.
func NullValue() Value { return Value{Null: true} }

// String renders the value the way the CLI and reports print it.
func (v Value) String() string {
	switch {
	case v.Null:
		return "NULL"
	case v.IsInt:
		return strconv.FormatInt(v.Int, 10)
	default:
		return v.Str
	}
}

// appendText appends what String returns, without making a string of an
// integer's digits.
func (v Value) appendText(b []byte) []byte {
	if v.IsInt && !v.Null {
		return strconv.AppendInt(b, v.Int, 10)
	}
	return append(b, v.String()...)
}

// AsInt coerces the value to an integer; strings parse if numeric.
func (v Value) AsInt() (int64, bool) {
	if v.Null {
		return 0, false
	}
	if v.IsInt {
		return v.Int, true
	}
	n, err := strconv.ParseInt(strings.TrimSpace(v.Str), 10, 64)
	return n, err == nil
}

// Truthy reports whether the value counts as true in a WHERE clause.
func (v Value) Truthy() bool {
	if v.Null {
		return false
	}
	if v.IsInt {
		return v.Int != 0
	}
	return v.Str != ""
}

// Compare orders two values: NULLs sort first and equal to each other; two
// ints compare numerically; otherwise both sides compare as strings (an int
// against a numeric string compares numerically).
func Compare(a, b Value) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return -1
	case b.Null:
		return 1
	}
	if a.IsInt && b.IsInt {
		switch {
		case a.Int < b.Int:
			return -1
		case a.Int > b.Int:
			return 1
		}
		return 0
	}
	if a.IsInt || b.IsInt {
		// Mixed: compare numerically if the string side parses.
		ai, aok := a.AsInt()
		bi, bok := b.AsInt()
		if aok && bok {
			switch {
			case ai < bi:
				return -1
			case ai > bi:
				return 1
			}
			return 0
		}
	}
	return strings.Compare(a.String(), b.String())
}

// Equal reports SQL equality (NULL equals nothing, not even NULL; callers
// that need NULL-safe equality use Compare).
func Equal(a, b Value) bool {
	if a.Null || b.Null {
		return false
	}
	return Compare(a, b) == 0
}

// coerce converts a value to the column type on INSERT/UPDATE.
func coerce(v Value, t Type) (Value, error) {
	if v.Null {
		return v, nil
	}
	switch t {
	case TypeInt:
		n, ok := v.AsInt()
		if !ok {
			return v, fmt.Errorf("clusterdb: cannot store %q in an INT column", v.String())
		}
		return IntValue(n), nil
	default:
		return TextValue(v.String()), nil
	}
}
