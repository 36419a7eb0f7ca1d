package clusterdb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// queryBothWays runs one SELECT with index routing on and off and requires
// the two to agree, error text included.
func queryBothWays(t *testing.T, db *Database, sql string) (*Result, error) {
	t.Helper()
	db.SetIndexRouting(true)
	indexed, ierr := db.Query(sql)
	db.SetIndexRouting(false)
	scanned, serr := db.Query(sql)
	db.SetIndexRouting(true)
	if fmt.Sprint(ierr) != fmt.Sprint(serr) || !reflect.DeepEqual(indexed, scanned) {
		t.Fatalf("%s\n indexed: %v, %v\n scanned: %v, %v", sql, indexed, ierr, scanned, serr)
	}
	return indexed, ierr
}

// TestBindOnce pins what resolving a query's column references once, instead
// of once per row, could silently change: when an unknown or ambiguous name
// is an error, what an alias hides, keys that are not projected, HAVING's
// aggregates, what SET reads, and a table recreated under a cached text.
func TestBindOnce(t *testing.T) {
	db := New()
	mustExec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec(`CREATE TABLE empty (a INT, b INT)`)
	mustExec(`CREATE TABLE t (id INT, g INT, v INT)`)
	mustExec(`CREATE TABLE u (id INT, w TEXT)`)
	mustExec(`INSERT INTO t VALUES (1, 10, 5), (2, 10, 7), (3, 20, 1)`)
	mustExec(`INSERT INTO u VALUES (1, 'one'), (3, 'three')`)

	for _, c := range []struct {
		sql  string
		want string // Result.Format() on success, the error text otherwise
	}{
		// An unknown column is an error when a row evaluates it, not before.
		{`SELECT nope FROM empty`, "nope\n"},
		{`SELECT a FROM empty WHERE nope = 1 ORDER BY nope`, "a\n"},
		{`SELECT count(*) FROM empty WHERE empty.nope = 1`, "count\n0\n"},
		{`SELECT nope FROM t`, `clusterdb: unknown column "nope"`},
		{`SELECT t.nope FROM t`, `clusterdb: unknown column t.nope`},
		{`SELECT x.id FROM t`, `clusterdb: unknown column x.id`},
		{`SELECT id FROM t WHERE nope = 1`, `clusterdb: unknown column "nope"`},
		{`SELECT id FROM t WHERE id = 99 AND nope = 1`, "id\n"}, // AND short-circuits on every row
		{`SELECT id FROM t ORDER BY t.nope`, `clusterdb: unknown column t.nope`},
		{`SELECT g FROM t GROUP BY nope`, `clusterdb: unknown column "nope"`},
		{`SELECT max(nope) FROM t`, `clusterdb: unknown column "nope"`},
		{`SELECT max(nope) FROM empty`, "max\nNULL\n"},
		// A name in both joined tables must be qualified.
		{`SELECT id FROM t, u WHERE t.id = u.id`, `clusterdb: column "id" is ambiguous`},
		{`SELECT id FROM empty, u`, "id\n"},
		{`SELECT t.id, w FROM t, u WHERE t.id = u.id`, "id  w\n1   one\n3   three\n"},
		{`SELECT u.id, v FROM t, u WHERE t.id = u.id AND w LIKE 't%'`, "id  v\n3   1\n"},
		// An alias hides the table's own name, even another table's.
		{`SELECT x.id FROM t x WHERE x.v > 4`, "id\n1\n2\n"},
		{`SELECT t.id FROM t x`, `clusterdb: unknown column t.id`},
		{`SELECT u.v, t.w FROM t u, u t WHERE u.id = t.id`, "v  w\n5  one\n1  three\n"},
		{`SELECT * FROM t u, u t WHERE u.id = t.id AND t.w = 'one'`, "id  g   v  id  w\n1   10  5  1   one\n"},
		{`SELECT t.* FROM t u, u t WHERE u.id = 3 AND t.id = 3`, "id  w\n3   three\n"},
		// Keys need not be projected.
		{`SELECT id FROM t ORDER BY v`, "id\n3\n1\n2\n"},
		{`SELECT id FROM t ORDER BY g DESC, v DESC`, "id\n3\n2\n1\n"},
		{`SELECT count(*) FROM t GROUP BY g`, "count\n2\n1\n"},
		{`SELECT DISTINCT g FROM t ORDER BY id DESC`, "g\n20\n10\n"},
		// HAVING on an aggregate that is, and is not, in the select list;
		// a bare column there names nothing, whatever the tables hold.
		{`SELECT g, max(v) FROM t GROUP BY g HAVING max(v) > 5`, "g   max\n10  7\n"},
		{`SELECT g, max(t.v) FROM t GROUP BY g HAVING max(v) > 5`, "g   max\n10  7\n"},
		{`SELECT g FROM t GROUP BY g HAVING count(*) = 1 OR min(v) = 5`, "g\n10\n20\n"},
		{`SELECT g FROM t GROUP BY g HAVING sum(v) IN (1, 2)`, "g\n20\n"},
		{`SELECT g FROM t GROUP BY g HAVING g = 10`,
			`clusterdb: HAVING: clusterdb: unknown column "g" (only aggregates and literals are allowed)`},
		{`SELECT g FROM t GROUP BY g HAVING max(nope) > 1`, `clusterdb: unknown column "nope"`},
		{`SELECT g FROM empty GROUP BY a HAVING g = 10`, "g\n"},
	} {
		res, err := queryBothWays(t, db, c.sql)
		got := fmt.Sprint(err)
		if err == nil {
			got = res.Format()
		}
		if got != c.want {
			t.Errorf("%s\n got  %q\n want %q", c.sql, got, c.want)
		}
	}

	// SET reads the staged row: b sees the a this statement just wrote.
	mustExec(`INSERT INTO empty VALUES (1, 1)`)
	mustExec(`UPDATE empty SET a = b + 1, b = a + 1 WHERE empty.a = 1`)
	if res, _ := queryBothWays(t, db, `SELECT a, b FROM empty`); res.Format() != "a  b\n2  3\n" {
		t.Errorf("SET a = b + 1, b = a + 1 over (1, 1) left\n%s", res.Format())
	}
	for _, c := range [][2]string{
		{`UPDATE empty SET a = nope`, `clusterdb: unknown column "nope"`},
		{`UPDATE empty SET a = 1 WHERE x`, `clusterdb: unknown column "x"`},
		{`DELETE FROM empty WHERE t.a`, `clusterdb: unknown column t.a`},
		{`UPDATE u SET w = id WHERE 0`, "<nil>"},
		{`DELETE FROM u WHERE 0 AND nope`, "<nil>"},
		{`DELETE FROM empty WHERE a = 2`, "<nil>"},
		{`UPDATE empty SET a = nope`, "<nil>"}, // no row is left to evaluate it
	} {
		if _, err := db.Exec(c[0]); fmt.Sprint(err) != c[1] {
			t.Errorf("%s: %v, want %s", c[0], err, c[1])
		}
	}

	// One cached text, two tables: nothing resolved survives an execution.
	const cached = `SELECT v, id FROM r WHERE v > 1 ORDER BY id`
	mustExec(`CREATE TABLE r (id INT, v INT)`)
	mustExec(`INSERT INTO r VALUES (1, 10), (2, 20)`)
	if res, _ := queryBothWays(t, db, cached); res.Format() != "v   id\n10  1\n20  2\n" {
		t.Errorf("before the table was recreated:\n%s", res.Format())
	}
	mustExec(`DROP TABLE r`)
	mustExec(`CREATE TABLE r (extra TEXT, v INT, id INT)`)
	mustExec(`INSERT INTO r VALUES ('x', 30, 3), ('y', 40, 4)`)
	if res, _ := queryBothWays(t, db, cached); res.Format() != "v   id\n30  3\n40  4\n" {
		t.Errorf("after the table was recreated with its columns in another order:\n%s", res.Format())
	}
}

// TestLikePatterns holds LIKE to what it has always matched: % and _ are the
// only wildcards, _ and % reach across a newline, case does not matter, and
// every regular-expression metacharacter is itself.
func TestLikePatterns(t *testing.T) {
	values := []string{
		"a.b", "axb", "a*b", "aab", "ab", "[x]", "x", "(x)", `a\b`, "^a$", "a", "a|b", "b",
		"line\nbreak", "lineXbreak", "Compute-0-0", "100%", "100", "a_b", "a+b", "a?b", "a{2}",
	}
	db := New()
	if _, err := db.Exec(`CREATE TABLE s (v TEXT)`); err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if _, err := db.Exec(`INSERT INTO s VALUES ('` + sqlEscape(v) + `')`); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		pattern string
		want    []string
	}{
		{"a.b", []string{"a.b"}},
		{"a*b", []string{"a*b"}},
		{"a_b", []string{"a.b", "axb", "a*b", "aab", `a\b`, "a|b", "a_b", "a+b", "a?b"}},
		{"a%b", []string{"a.b", "axb", "a*b", "aab", "ab", `a\b`, "a|b", "a_b", "a+b", "a?b"}},
		{"[x]", []string{"[x]"}},
		{"[%", []string{"[x]"}},
		{"(x)", []string{"(x)"}},
		{"(%", []string{"(x)"}},
		{`a\b`, []string{`a\b`}},
		{`%\%`, []string{`a\b`}},
		{"^a$", []string{"^a$"}},
		{"^%", []string{"^a$"}},
		{"%$", []string{"^a$"}},
		{"a|b", []string{"a|b"}},
		{"a", []string{"a"}},
		{"line_break", []string{"line\nbreak", "lineXbreak"}},
		{"line%", []string{"line\nbreak", "lineXbreak"}},
		{"line\nbreak", []string{"line\nbreak"}},
		{"COMPUTE-%", []string{"Compute-0-0"}},
		{"compute-_-_", []string{"Compute-0-0"}},
		{"100%", []string{"100%", "100"}},
		{"a+b", []string{"a+b"}},
		{"a?b", []string{"a?b"}},
		{"a{2}", []string{"a{2}"}},
		{"", nil},
		{"%", values},
	} {
		res, err := queryBothWays(t, db, `SELECT v FROM s WHERE v LIKE '`+sqlEscape(c.pattern)+`'`)
		if err != nil {
			t.Errorf("LIKE %q: %v", c.pattern, err)
		} else if got := res.Strings(); !reflect.DeepEqual(got, append([]string{}, c.want...)) {
			t.Errorf("LIKE %q matched %q, want %q", c.pattern, got, c.want)
		}
	}
	// A pattern that is not a literal: each row brings its own.
	res, err := queryBothWays(t, db, `SELECT count(*) FROM s x, s y WHERE x.v LIKE y.v`)
	if n, _ := res.Rows[0][0].AsInt(); err != nil || n != int64(len(values)+1+8) {
		t.Errorf("x.v LIKE y.v matched %v pairs (%v), want every value itself, 100%% one more and a_b eight more", n, err)
	}
}

// TestLikeCompilesOncePerQuery is the cluster-fork --query shape: what a LIKE
// over the nodes table allocates must not grow with the table.
func TestLikeCompilesOncePerQuery(t *testing.T) {
	allocs := func(rows int) float64 {
		db := New()
		if err := InitSchema(db); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := InsertNode(db, Node{Name: fmt.Sprintf("compute-%d", i), MAC: fmt.Sprintf("02:00:00:00:%02x:%02x", i>>8, i&0xff)}); err != nil {
				t.Fatal(err)
			}
		}
		const q = `select name from nodes where name like 'compute-1_'`
		if res, err := db.Query(q); err != nil || strings.Join(res.Strings(), " ") !=
			"compute-10 compute-11 compute-12 compute-13 compute-14 compute-15 compute-16 compute-17 compute-18 compute-19" {
			t.Fatalf("%s over %d rows: %v, %v", q, rows, res, err)
		}
		return testing.AllocsPerRun(10, func() { db.Query(q) })
	}
	// Without the race detector the two counts are equal. With it sync.Pool
	// drops a quarter of what it is given, regexp's matching state included,
	// so the bar is half an allocation a row; compiling per row was 63.
	small, large := allocs(64), allocs(2048)
	t.Logf("allocations per query: %.0f over 64 rows, %.0f over 2048", small, large)
	if large-small > (2048-64)/2 {
		t.Errorf("a LIKE query allocates %.0f times over 2048 rows and %.0f over 64: the pattern is compiled per row", large, small)
	}
}
