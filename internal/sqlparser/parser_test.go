package sqlparser

import (
	"reflect"
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/storage"
)

func TestParseSimpleSelect(t *testing.T) {
	s, err := Parse("SELECT * FROM wifi WHERE owner = 3")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Body.Star || len(s.Body.From) != 1 || s.Body.From[0].Name != "wifi" {
		t.Fatalf("unexpected AST: %+v", s.Body)
	}
	cmp, ok := s.Body.Where.(*CompareExpr)
	if !ok || cmp.Op != CmpEq {
		t.Fatalf("WHERE not a comparison: %T", s.Body.Where)
	}
	col := cmp.L.(*ColRef)
	if col.Column != "owner" {
		t.Errorf("column = %q", col.Column)
	}
	lit := cmp.R.(*Literal)
	if lit.Val.I != 3 {
		t.Errorf("literal = %v", lit.Val)
	}
}

func TestParsePaperSampleQuery(t *testing.T) {
	// Q1 from the evaluation (§7.1), in our dialect.
	q := `SELECT * FROM WiFi_Dataset AS W
	      WHERE W.wifiAP IN (1200, 1201) AND W.ts_time BETWEEN TIME '09:00' AND TIME '10:00'
	        AND W.ts_date BETWEEN DATE '2019-09-25' AND DATE '2019-12-12'`
	s, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	conj := Conjuncts(s.Body.Where)
	if len(conj) != 3 {
		t.Fatalf("want 3 conjuncts, got %d", len(conj))
	}
	if _, ok := conj[0].(*InExpr); !ok {
		t.Errorf("first conjunct is %T, want *InExpr", conj[0])
	}
	bt, ok := conj[1].(*BetweenExpr)
	if !ok {
		t.Fatalf("second conjunct is %T, want *BetweenExpr", conj[1])
	}
	lo := bt.Lo.(*Literal)
	if lo.Val.K != storage.KindTime || lo.Val.I != 9*3600 {
		t.Errorf("BETWEEN lo = %v", lo.Val)
	}
}

func TestParseWithClauseAndHints(t *testing.T) {
	q := `WITH wpol AS (SELECT * FROM wifi FORCE INDEX (wifiAP, owner) WHERE wifiAP = 1200
	       UNION SELECT * FROM wifi USE INDEX () WHERE owner = 7)
	      SELECT owner FROM wpol WHERE ts_time >= TIME '09:00'`
	s, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.With) != 1 || s.With[0].Name != "wpol" {
		t.Fatalf("WITH not parsed: %+v", s.With)
	}
	inner := s.With[0].Select
	h := inner.Body.From[0].Hint
	if h == nil || h.Kind != HintForce || len(h.Indexes) != 2 {
		t.Fatalf("FORCE INDEX hint = %+v", h)
	}
	if len(inner.Ops) != 1 || inner.Ops[0].Kind != SetUnion {
		t.Fatalf("UNION arm missing: %+v", inner.Ops)
	}
	uh := inner.Ops[0].Core.From[0].Hint
	if uh == nil || uh.Kind != HintUse || len(uh.Indexes) != 0 {
		t.Fatalf("USE INDEX () hint = %+v", uh)
	}
}

func TestParseAggregatesGroupByHaving(t *testing.T) {
	q := `SELECT owner, count(*) AS n, sum(x) FROM t GROUP BY owner HAVING count(*) > 2 ORDER BY owner DESC LIMIT 10`
	s, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Body
	if len(c.Items) != 3 || c.Items[1].Alias != "n" {
		t.Fatalf("items = %+v", c.Items)
	}
	fc := c.Items[1].Expr.(*FuncCall)
	if !fc.Star || fc.Name != "count" {
		t.Errorf("count(*) = %+v", fc)
	}
	if len(c.GroupBy) != 1 || c.Having == nil {
		t.Error("GROUP BY / HAVING missing")
	}
	if len(c.OrderBy) != 1 || !c.OrderBy[0].Desc {
		t.Error("ORDER BY DESC missing")
	}
	if c.Limit != 10 {
		t.Errorf("LIMIT = %d", c.Limit)
	}
}

func TestParseCorrelatedScalarSubquery(t *testing.T) {
	// The paper's derived-value object condition (§3.1).
	q := `SELECT * FROM wifi AS W WHERE W.wifiAP =
	      (SELECT W2.wifiAP FROM wifi AS W2 WHERE W2.ts_time = W.ts_time AND W2.owner = 5)`
	s, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	cmp := s.Body.Where.(*CompareExpr)
	if _, ok := cmp.R.(*SubqueryExpr); !ok {
		t.Fatalf("right side is %T, want *SubqueryExpr", cmp.R)
	}
}

func TestParseInSubqueryAndExists(t *testing.T) {
	s, err := Parse(`SELECT * FROM t WHERE a IN (SELECT b FROM u) AND EXISTS (SELECT * FROM v)`)
	if err != nil {
		t.Fatal(err)
	}
	conj := Conjuncts(s.Body.Where)
	in := conj[0].(*InExpr)
	if in.Sub == nil {
		t.Error("IN subquery missing")
	}
	if _, ok := conj[1].(*ExistsExpr); !ok {
		t.Errorf("EXISTS is %T", conj[1])
	}
}

func TestParseMinus(t *testing.T) {
	s, err := Parse(`SELECT * FROM a MINUS SELECT * FROM b`)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Ops) != 1 || s.Ops[0].Kind != SetMinus {
		t.Fatalf("MINUS arm = %+v", s.Ops)
	}
}

func TestParseDerivedTable(t *testing.T) {
	s, err := Parse(`SELECT * FROM (SELECT owner FROM wifi) AS T, grades AS G WHERE T.owner = G.student`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Body.From[0].Subquery == nil || s.Body.From[0].Alias != "T" {
		t.Fatalf("derived table = %+v", s.Body.From[0])
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	s, err := Parse(`SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3`)
	if err != nil {
		t.Fatal(err)
	}
	or, ok := s.Body.Where.(*BinaryExpr)
	if !ok || or.Op != OpOr {
		t.Fatalf("top is %T/%v, want OR", s.Body.Where, or)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Fatal("AND must bind tighter than OR")
	}
	// Arithmetic: 1 + 2 * 3 parses as 1 + (2*3).
	s2 := MustParse(`SELECT 1 + 2 * 3 FROM t`)
	add := s2.Body.Items[0].Expr.(*BinaryExpr)
	if add.Op != OpAdd {
		t.Fatal("* must bind tighter than +")
	}
}

func TestParseNotVariants(t *testing.T) {
	s := MustParse(`SELECT * FROM t WHERE NOT a = 1 AND b NOT IN (1, 2) AND c NOT BETWEEN 1 AND 5 AND d IS NOT NULL`)
	conj := Conjuncts(s.Body.Where)
	if len(conj) != 4 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	if _, ok := conj[0].(*NotExpr); !ok {
		t.Errorf("conj[0] = %T", conj[0])
	}
	if in := conj[1].(*InExpr); !in.Not {
		t.Error("NOT IN lost")
	}
	if bt := conj[2].(*BetweenExpr); !bt.Not {
		t.Error("NOT BETWEEN lost")
	}
	if nn := conj[3].(*IsNullExpr); !nn.Not {
		t.Error("IS NOT NULL lost")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a ==",
		"SELECT * FROM (SELECT * FROM t)",     // derived table needs alias
		"SELECT * FROM t FORCE INDEX ()",      // force needs indexes
		"SELECT * FROM t WHERE a IN ()",       // empty IN
		"SELECT * FROM t WHERE 'unterminated", // lexer error
		"SELECT * FROM t WHERE a BETWEEN 1",   // missing AND hi
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t; DROP TABLE t",     // no statement separator support
		"SELECT * FROM t WHERE a = $1",      // unknown char
		"SELECT * FROM t WHERE TIME 'abc'",  // bad time literal
		"SELECT * FROM t WHERE DATE '2019'", // bad date literal
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestParseExprStandalone(t *testing.T) {
	e, err := ParseExpr("owner = 5 AND wifiAP = 1200")
	if err != nil {
		t.Fatal(err)
	}
	if len(Conjuncts(e)) != 2 {
		t.Error("expr conjuncts != 2")
	}
	if _, err := ParseExpr("owner = 5 extra"); err == nil {
		t.Error("trailing input must error")
	}
}

func TestLexerLineComments(t *testing.T) {
	s, err := Parse("SELECT * -- projection\nFROM t -- src\nWHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Body.Star {
		t.Error("comment handling broke parse")
	}
}

func TestStringEscapes(t *testing.T) {
	s := MustParse(`SELECT * FROM t WHERE name = 'o''hare'`)
	lit := s.Body.Where.(*CompareExpr).R.(*Literal)
	if lit.Val.S != "o'hare" {
		t.Errorf("escaped string = %q", lit.Val.S)
	}
}

func TestHelpersAndOr(t *testing.T) {
	a := Eq(Col("", "a"), Lit(storage.NewInt(1)))
	b := Eq(Col("", "b"), Lit(storage.NewInt(2)))
	if And() != nil || Or() != nil {
		t.Error("empty And/Or must be nil")
	}
	if !reflect.DeepEqual(And(a), Expr(a)) {
		t.Error("And(x) must be x")
	}
	ab := And(a, nil, b).(*BinaryExpr)
	if ab.Op != OpAnd {
		t.Error("And must conjoin")
	}
	if len(Disjuncts(Or(a, b, a))) != 3 {
		t.Error("Disjuncts flattening failed")
	}
}

func TestWalkVisitsSubqueries(t *testing.T) {
	s := MustParse(`SELECT * FROM t WHERE a = (SELECT max(b) FROM u WHERE c = 9)`)
	count := 0
	Walk(s.Body.Where, true, func(e Expr) {
		if lit, ok := e.(*Literal); ok && lit.Val.I == 9 {
			count++
		}
	})
	if count != 1 {
		t.Errorf("Walk did not descend into subquery (count=%d)", count)
	}
	countShallow := 0
	Walk(s.Body.Where, false, func(e Expr) {
		if lit, ok := e.(*Literal); ok && lit.Val.I == 9 {
			countShallow++
		}
	})
	if countShallow != 0 {
		t.Error("non-descending Walk entered subquery")
	}

	// A derived table below a subquery, and a CTE below that, are part of
	// the subquery.
	s = MustParse(`SELECT * FROM t WHERE EXISTS (SELECT 1 FROM (WITH w AS (SELECT * FROM v WHERE e = 9) SELECT * FROM u WHERE c = 9) AS d)`)
	count = 0
	Walk(s.Body.Where, true, func(e Expr) {
		if lit, ok := e.(*Literal); ok && lit.Val.I == 9 {
			count++
		}
	})
	if count != 2 {
		t.Errorf("Walk reached %d of the 2 literals below a subquery's derived table", count)
	}
}

// TestWalkCoresReachesEveryCore: the walker reports the body, set arms,
// CTE bodies, derived tables and the subqueries of every expression slot,
// each once, flagging those reached through an expression subquery; what a
// callback adds to a WHERE is not visited.
func TestWalkCoresReachesEveryCore(t *testing.T) {
	s := MustParse(`WITH w AS (SELECT * FROM cte) ` +
		`SELECT (SELECT max(a) FROM item), x FROM (SELECT * FROM derived) AS d ` +
		`WHERE x IN (SELECT a FROM (SELECT * FROM inderived) AS e) AND EXISTS (SELECT 1 FROM ex) ` +
		`GROUP BY (SELECT 1 FROM grp) HAVING count(*) > (SELECT count(*) FROM hav) ORDER BY (SELECT 1 FROM ord) ` +
		`UNION SELECT a FROM arm`)
	got := map[string]bool{}
	WalkCores(s, func(c *SelectCore, inExpr bool) {
		name := c.From[0].RefName()
		if _, dup := got[name]; dup {
			t.Errorf("core %s reported twice", name)
		}
		got[name] = inExpr
		// A subquery added here must not be walked.
		c.Where = And(c.Where, &ExistsExpr{Select: MustParse("SELECT 1 FROM added")})
	})
	// Cores are named by their first FROM entry: the body reads d, the IN
	// subquery reads e.
	want := map[string]bool{
		"cte": false, "derived": false, "d": false, "arm": false,
		"item": true, "inderived": true, "e": true, "ex": true, "grp": true, "hav": true, "ord": true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cores reached %v, want %v", got, want)
	}
}

func TestCmpOpHelpers(t *testing.T) {
	if CmpLt.Negate() != CmpGe || CmpEq.Negate() != CmpNe {
		t.Error("Negate mismatch")
	}
	if CmpLt.Flip() != CmpGt || CmpEq.Flip() != CmpEq {
		t.Error("Flip mismatch")
	}
	for _, op := range []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe} {
		if op.String() == "?" {
			t.Errorf("missing String for %d", op)
		}
		if op.Negate().Negate() != op {
			t.Errorf("Negate not involutive for %v", op)
		}
		if op.Flip().Flip() != op {
			t.Errorf("Flip not involutive for %v", op)
		}
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	s, err := Parse("select * from t where a between 1 and 2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Body.Where.(*BetweenExpr); !ok {
		t.Error("lower-case keywords not recognised")
	}
}

func TestPrintStableForPaperRewrite(t *testing.T) {
	// A shape matching the §5.6 rewrite must print and re-parse.
	q := `WITH WiFiDatasetPol AS (SELECT * FROM WiFi_Dataset AS W FORCE INDEX (wifiAP) WHERE wifiAP = 1200 AND (owner = 1 AND ts_time BETWEEN TIME '09:00' AND TIME '10:00' OR owner = 2) UNION SELECT * FROM WiFi_Dataset AS W FORCE INDEX (owner) WHERE owner = 3 AND delta(32, 'Prof. Smith', 'Analytics') = TRUE) SELECT owner, count(*) FROM WiFiDatasetPol GROUP BY owner`
	s1 := MustParse(q)
	printed := Print(s1)
	s2, err := Parse(printed)
	if err != nil {
		t.Fatalf("re-parse of %q failed: %v", printed, err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("round-trip mismatch:\n in: %s\nout: %s", q, printed)
	}
	if !strings.Contains(printed, "FORCE INDEX (wifiAP)") {
		t.Error("hint lost in printing")
	}
}
