package sqlparser

import (
	"reflect"
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/storage"
)

// The dialect emitters reuse the printer's precedence logic, so the
// parenthesisation of nested OR-of-AND (the shape of every guarded WHERE
// clause) must be airtight: parse(print(e)) == e for every combination of
// the logical connectives, not just the random samples of the property
// test. These tests enumerate the space exhaustively.

// enumLogical builds every expression tree of AND/OR/NOT over the atoms up
// to the given nesting depth.
func enumLogical(atoms []Expr, depth int) []Expr {
	out := append([]Expr{}, atoms...)
	if depth == 0 {
		return out
	}
	sub := enumLogical(atoms, depth-1)
	for _, l := range sub {
		out = append(out, &NotExpr{E: l})
		for _, r := range sub {
			out = append(out, &BinaryExpr{Op: OpAnd, L: l, R: r})
			out = append(out, &BinaryExpr{Op: OpOr, L: l, R: r})
		}
	}
	return out
}

func assertExprRoundTrips(t *testing.T, e Expr) {
	t.Helper()
	text := PrintExpr(e)
	back, err := ParseExpr(text)
	if err != nil {
		t.Fatalf("emitted %q does not parse: %v", text, err)
	}
	if !reflect.DeepEqual(e, back) {
		t.Fatalf("round-trip mismatch:\n printed  %q\n reprints %q", text, PrintExpr(back))
	}
}

// TestNestedLogicalParenRoundTrip exhaustively verifies parse∘print =
// identity for every AND/OR/NOT tree to depth 3 over a single atom (2776
// shapes) — equal-precedence nesting included.
func TestNestedLogicalParenRoundTrip(t *testing.T) {
	for _, e := range enumLogical([]Expr{Col("", "a")}, 3) {
		assertExprRoundTrips(t, e)
	}
}

// TestGuardShapedCorpusRoundTrip covers the exact expression shapes the
// rewriter builds (engine.GuardedCTE.Frame): OR-of-AND guard arms whose
// conjuncts are comparisons, ranges, IN lists, Δ UDF calls and constant
// FALSE, optionally conjoined with pushed query predicates — to depth 2
// over realistic atoms.
func TestGuardShapedCorpusRoundTrip(t *testing.T) {
	rel := "WiFi_Dataset"
	guardCond := &CompareExpr{Op: CmpEq, L: Col(rel, "wifiAP"), R: Lit(storage.NewInt(1200))}
	timeRange := &BetweenExpr{
		E:  Col(rel, "ts_time"),
		Lo: Lit(storage.MustTime("09:00")),
		Hi: Lit(storage.MustTime("10:30")),
	}
	ownerIn := &InExpr{E: Col(rel, "owner"), List: []Expr{
		Lit(storage.NewInt(7)), Lit(storage.NewInt(12)), Lit(storage.NewInt(44)),
	}}
	deltaArm := &CompareExpr{
		Op: CmpEq,
		L:  &FuncCall{Name: "sieve_delta", Args: []Expr{Lit(storage.NewInt(3)), Col(rel, "owner")}},
		R:  Lit(storage.NewBool(true)),
	}
	falseLit := Lit(storage.NewBool(false))

	atoms := []Expr{guardCond, timeRange, ownerIn, deltaArm, falseLit}
	for _, e := range enumLogical(atoms, 2) {
		assertExprRoundTrips(t, e)
	}
}

// TestGuardedWhereShape pins the canonical text of a representative guarded
// WHERE clause: the pushed query conjunct ANDed in front of the guard
// disjunction must keep the disjunction parenthesised.
func TestGuardedWhereShape(t *testing.T) {
	arm1 := And(
		&CompareExpr{Op: CmpEq, L: Col("W", "wifiAP"), R: Lit(storage.NewInt(1))},
		&CompareExpr{Op: CmpEq, L: Col("W", "owner"), R: Lit(storage.NewInt(5))},
	)
	arm2 := And(
		&CompareExpr{Op: CmpEq, L: Col("W", "wifiAP"), R: Lit(storage.NewInt(2))},
		&CompareExpr{Op: CmpEq, L: Col("W", "owner"), R: Lit(storage.NewInt(9))},
	)
	where := And(
		&CompareExpr{Op: CmpGt, L: Col("W", "ts_date"), R: Lit(storage.NewDate(10))},
		Or(arm1, arm2),
	)
	got := PrintExpr(where)
	want := "W.ts_date > DATE '2000-01-11' AND (W.wifiAP = 1 AND W.owner = 5 OR W.wifiAP = 2 AND W.owner = 9)"
	if got != want {
		t.Fatalf("canonical guarded WHERE drifted:\n got  %q\n want %q", got, want)
	}
	assertExprRoundTrips(t, where)
	if !strings.Contains(got, "(") {
		t.Fatal("guard disjunction lost its parentheses under the query conjunct")
	}
}
