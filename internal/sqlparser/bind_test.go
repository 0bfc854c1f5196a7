package sqlparser

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/sieve-db/sieve/internal/storage"
)

// TestPlaceholderParseRoundTrip checks `?` lexes, parses to ordinal
// Placeholder nodes, survives clone, and round-trips through Print.
func TestPlaceholderParseRoundTrip(t *testing.T) {
	const q = "SELECT a FROM t WHERE a = ? AND b BETWEEN ? AND ? OR c IN (?, ?)"
	s, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if n := NumPlaceholders(s); n != 5 {
		t.Fatalf("NumPlaceholders = %d, want 5", n)
	}
	var idxs []int
	walkNodes(s, func(x Expr) {
		if ph, ok := x.(*Placeholder); ok {
			idxs = append(idxs, ph.Idx)
		}
	})
	if len(idxs) != 5 {
		t.Fatalf("walker found placeholders %v, want 5", idxs)
	}
	for i, idx := range idxs {
		if idx != i+1 {
			t.Fatalf("placeholder ordinals = %v, want 1..5 in lexical order", idxs)
		}
	}
	out := Print(s)
	if strings.Count(out, "?") != 5 {
		t.Fatalf("printed %q, want 5 placeholders", out)
	}
	re, err := Parse(out)
	if err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if NumPlaceholders(re) != 5 {
		t.Fatal("round-trip lost placeholders")
	}
	if NumPlaceholders(CloneStmt(s)) != 5 {
		t.Fatal("clone lost placeholders")
	}
}

// TestBindStmt binds values in ordinal order without mutating the input,
// and rejects arity mismatches.
func TestBindStmt(t *testing.T) {
	s := MustParse("SELECT a FROM t WHERE a = ? AND b < ?")
	bound, err := BindStmt(s, []storage.Value{storage.NewInt(7), storage.NewString("x")})
	if err != nil {
		t.Fatal(err)
	}
	if got := Print(bound); got != "SELECT a FROM t WHERE a = 7 AND b < 'x'" {
		t.Fatalf("bound print = %q", got)
	}
	if NumPlaceholders(s) != 2 {
		t.Fatal("BindStmt mutated its input")
	}
	if _, err := BindStmt(s, []storage.Value{storage.NewInt(7)}); err == nil {
		t.Fatal("missing arg accepted")
	}
	if _, err := BindStmt(MustParse("SELECT a FROM t"), []storage.Value{storage.NewInt(7)}); err == nil {
		t.Fatal("surplus arg accepted")
	}
	// No placeholders, no args: input returned as-is, no clone.
	plain := MustParse("SELECT a FROM t")
	same, err := BindStmt(plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if same != plain {
		t.Fatal("placeholder-free statement should pass through unchanged")
	}
}

// TestBindStmtNested reaches placeholders inside subqueries, derived
// tables, CTEs and set-operation arms, in HAVING and ORDER BY, in a derived
// table inside an IN subquery and in a CTE inside a scalar subquery.
func TestBindStmtNested(t *testing.T) {
	const q = "WITH w AS (SELECT a FROM t WHERE a > ?) " +
		"SELECT x FROM (SELECT a AS x FROM t WHERE a < ?) AS d " +
		"WHERE x IN (SELECT a FROM t WHERE a = ?) " +
		"AND x IN (SELECT e.a FROM (SELECT a FROM t WHERE a >= ?) AS e) " +
		"AND x = (WITH v AS (SELECT a FROM t WHERE a <= ?) SELECT max(a) FROM v) " +
		"GROUP BY x HAVING count(*) > ? ORDER BY x + ? " +
		"UNION SELECT a FROM w WHERE a <> ?"
	s, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if n := NumPlaceholders(s); n != 8 {
		t.Fatalf("NumPlaceholders = %d, want 8", n)
	}
	var args []storage.Value
	for i := int64(1); i <= 8; i++ {
		args = append(args, storage.NewInt(i))
	}
	bound, err := BindStmt(s, args)
	if err != nil {
		t.Fatal(err)
	}
	out := Print(bound)
	if strings.Contains(out, "?") {
		t.Fatalf("unbound placeholder survives: %q", out)
	}
	for _, want := range []string{"a > 1", "a < 2", "a = 3", "a >= 4", "a <= 5", "count(*) > 6", "x + 7", "a != 8"} {
		if !strings.Contains(out, want) {
			t.Fatalf("bound output %q missing %q", out, want)
		}
	}
}

// eachValue calls fn on v and on every value reachable from it through
// pointers, interfaces, struct fields and slice elements: a walk of an AST
// that shares no code with the package's own traversals.
func eachValue(v reflect.Value, fn func(reflect.Value)) {
	fn(v)
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			eachValue(v.Elem(), fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachValue(v.Field(i), fn)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			eachValue(v.Index(i), fn)
		}
	}
}

// pointers returns the address of every node reachable from s.
func pointers(s *SelectStmt) map[uintptr]bool {
	out := map[uintptr]bool{}
	eachValue(reflect.ValueOf(s), func(v reflect.Value) {
		if v.Kind() == reflect.Pointer && !v.IsNil() {
			out[v.Pointer()] = true
		}
	})
	return out
}

// Property: with every literal of a generated statement replaced by a
// placeholder, BindStmt given those literals prints exactly like the
// original statement and returns a tree that shares no node with its input.
func TestBindRestoresLiteralsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		orig := randStmt(r, 3)
		tmpl := CloneStmt(orig)
		var args []storage.Value
		eachValue(reflect.ValueOf(tmpl), func(v reflect.Value) {
			if v.Kind() != reflect.Interface || v.IsNil() || !v.CanSet() {
				return
			}
			if lit, ok := v.Elem().Interface().(*Literal); ok {
				args = append(args, lit.Val)
				v.Set(reflect.ValueOf(&Placeholder{Idx: len(args)}))
			}
		})
		if n := NumPlaceholders(tmpl); n != len(args) {
			t.Logf("seed %d: NumPlaceholders %d, %d literals replaced", seed, n, len(args))
			return false
		}
		bound, err := BindStmt(tmpl, args)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if got, want := Print(bound), Print(orig); got != want {
			t.Logf("seed %d: bound prints\n%s\nwant\n%s", seed, got, want)
			return false
		}
		if len(args) == 0 {
			return bound == tmpl
		}
		in := pointers(tmpl)
		for p := range pointers(bound) {
			if in[p] {
				t.Logf("seed %d: bound statement shares a node with its input", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// walkNodes calls fn for every expression node of s, those of every core
// WalkCores reaches included.
func walkNodes(s *SelectStmt, fn func(Expr)) {
	w := walker{node: fn, descend: true}
	w.stmt(s, false)
}
