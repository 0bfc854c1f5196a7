package engine

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

func explainOf(t *testing.T, db *DB, q string) *Explain {
	t.Helper()
	stmt, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := db.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestPlanUsesIndexForSelectivePredicate(t *testing.T) {
	db := newTestDB(t, MySQL())
	ex := explainOf(t, db, "SELECT * FROM wifi WHERE owner = 3")
	ta := ex.Tables[0]
	if ta.Kind != AccessIndex || ta.Index != "owner" {
		t.Fatalf("access = %+v, want index on owner", ta)
	}
	if ta.EstSel <= 0 || ta.EstSel > 0.5 {
		t.Errorf("EstSel = %v", ta.EstSel)
	}
}

func TestPlanSeqScanForUnselectivePredicate(t *testing.T) {
	db := newTestDB(t, MySQL())
	// ts_time >= 08:00 matches everything; a seq scan must win.
	ex := explainOf(t, db, "SELECT * FROM wifi WHERE ts_time >= TIME '08:00'")
	if ex.Tables[0].Kind != AccessSeq {
		t.Fatalf("access = %+v, want seq", ex.Tables[0])
	}
}

func TestForceIndexHonoredOnMySQLOnly(t *testing.T) {
	my := newTestDB(t, MySQL())
	// Force the bad index even though the predicate matches all rows.
	ex := explainOf(t, my, "SELECT * FROM wifi FORCE INDEX (ts_time) WHERE ts_time >= TIME '08:00'")
	if ex.Tables[0].Kind != AccessIndex || ex.Tables[0].Index != "ts_time" {
		t.Fatalf("mysql FORCE INDEX ignored: %+v", ex.Tables[0])
	}
	pg := newTestDB(t, Postgres())
	ex2 := explainOf(t, pg, "SELECT * FROM wifi FORCE INDEX (ts_time) WHERE ts_time >= TIME '08:00'")
	if ex2.Tables[0].Kind != AccessSeq {
		t.Fatalf("postgres honoured hints: %+v", ex2.Tables[0])
	}
}

func TestUseIndexEmptyForcesSeqScan(t *testing.T) {
	db := newTestDB(t, MySQL())
	ex := explainOf(t, db, "SELECT * FROM wifi USE INDEX () WHERE owner = 3")
	if ex.Tables[0].Kind != AccessSeq {
		t.Fatalf("USE INDEX () ignored: %+v", ex.Tables[0])
	}
}

func TestBitmapOrOnPostgresOnly(t *testing.T) {
	pg := newTestDB(t, Postgres())
	q := "SELECT * FROM wifi WHERE owner = 1 OR owner = 2 OR wifiAP = 100"
	ex := explainOf(t, pg, q)
	if ex.Tables[0].Kind != AccessBitmapOr {
		t.Fatalf("postgres plan = %+v, want bitmap-or", ex.Tables[0])
	}
	if !strings.Contains(ex.Tables[0].Index, "owner") || !strings.Contains(ex.Tables[0].Index, "wifiAP") {
		t.Errorf("bitmap index list = %q", ex.Tables[0].Index)
	}
	my := newTestDB(t, MySQL())
	ex2 := explainOf(t, my, q)
	if ex2.Tables[0].Kind == AccessBitmapOr {
		t.Fatalf("mysql produced a bitmap-or plan without hints")
	}
	// Results must agree regardless of plan.
	rpg := mustQuery(t, pg, q)
	rmy := mustQuery(t, my, q)
	if len(rpg.Rows) != len(rmy.Rows) {
		t.Fatalf("dialect results differ: %d vs %d", len(rpg.Rows), len(rmy.Rows))
	}
}

func TestForcedIndexMergeOnMySQL(t *testing.T) {
	// §5.6: one WITH clause, FORCE INDEX over all guards, OR-ed guard
	// expression — mysql must use index_merge union over the listed indexes.
	db := newTestDB(t, MySQL())
	q := "SELECT * FROM wifi FORCE INDEX (owner, wifiAP) WHERE owner = 1 OR wifiAP = 100"
	ex := explainOf(t, db, q)
	if ex.Tables[0].Kind != AccessBitmapOr {
		t.Fatalf("plan = %+v, want forced index union", ex.Tables[0])
	}
	res := mustQuery(t, db, q)
	want := mustQuery(t, db, "SELECT * FROM wifi USE INDEX () WHERE owner = 1 OR wifiAP = 100")
	if len(res.Rows) != len(want.Rows) {
		t.Fatalf("index merge rows = %d, want %d", len(res.Rows), len(want.Rows))
	}
}

func TestExplainDerivedTables(t *testing.T) {
	db := newTestDB(t, MySQL())
	ex := explainOf(t, db, "WITH pol AS (SELECT * FROM wifi) SELECT * FROM pol, membership WHERE pol.owner = membership.uid")
	// In bind order: the WITH body's wifi, then the body's pol and membership.
	if len(ex.Tables) != 3 || ex.Tables[0].Kind == AccessDerived || ex.Tables[0].Table != "wifi" {
		t.Fatalf("WITH body's base table misreported: %+v", ex.Tables)
	}
	if ex.Tables[1].Kind != AccessDerived {
		t.Fatalf("CTE access = %+v", ex.Tables[1])
	}
	if ex.Tables[2].Kind == AccessDerived {
		t.Fatalf("base table misreported: %+v", ex.Tables[2])
	}
	if !slices.Equal(ex.With, []string{"pol"}) {
		t.Errorf("With = %v, want [pol]", ex.With)
	}
	if !strings.Contains(ex.String(), "derived") {
		t.Error("String() must mention derived")
	}
}

// TestExtractSargShapes binds each shape as a scan conjunct (scanFilter)
// and asks the conjunct for its sarg: the recogniser reads columns as the
// bind pass resolved them, so a name the pass gives another entry, or an
// enclosing row, is never a sarg of the entry.
func TestExtractSargShapes(t *testing.T) {
	db := New(MySQL())
	for name, cols := range map[string][]string{"t": {"a", "b"}, "t2": {"a", "c"}, "x": {"a"}} {
		var schema []storage.Column
		for _, c := range cols {
			schema = append(schema, storage.Column{Name: c, Type: storage.KindInt})
		}
		if _, err := db.CreateTable(name, storage.MustSchema(schema...)); err != nil {
			t.Fatal(err)
		}
	}
	// sargOn returns the sarg of entry t's one scan conjunct, found in the
	// statement's body or, with inSub, in its one expression subquery.
	sargOn := func(sql string, inSub bool) (sarg, bool) {
		t.Helper()
		sb, err := db.bind(sqlparser.MustParse(sql))
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if inSub {
			for _, sub := range sb.body.b.subs {
				sb = sub
			}
		}
		src := &sb.body.sources[0]
		if len(src.conjs) != 1 {
			return sarg{}, false
		}
		return src.conjs[0].sargable()
	}
	cases := []struct {
		expr string
		ok   bool
		col  string
	}{
		{"a = 5", true, "a"},
		{"5 = a", true, "a"},
		{"a > 5", true, "a"},
		{"5 > a", true, "a"}, // flipped to a < 5
		{"a BETWEEN 1 AND 5", true, "a"},
		{"a IN (1, 2, 3)", true, "a"},
		{"a != 5", false, ""},
		{"a NOT BETWEEN 1 AND 5", false, ""},
		{"a NOT IN (1, 2)", false, ""},
		{"a = b", false, ""},
		{"a + 1 = 5", false, ""},
		{"a IN (SELECT a FROM x)", false, ""},
		{"a IS NULL", false, ""},
	}
	for _, c := range cases {
		s, ok := scanFilter(t, db, "t", mustParseExpr(t, c.expr)).conjs[0].sargable()
		if ok != c.ok {
			t.Errorf("sarg of %q: ok = %v, want %v", c.expr, ok, c.ok)
			continue
		}
		if ok && s.col != c.col {
			t.Errorf("sarg of %q: col = %q, want %q", c.expr, s.col, c.col)
		}
	}
	// Names that are not the entry's own column: in a two-entry core the
	// pass places them on the other entry; in a subquery over t they name
	// the enclosing row.
	for _, c := range []struct {
		sql   string
		inSub bool
	}{
		{"SELECT * FROM t, t2 WHERE c = 5", false},    // t has no column c
		{"SELECT * FROM t, t2 WHERE t2.a = 5", false}, // the other entry's column
		{"SELECT * FROM t AS o WHERE EXISTS (SELECT * FROM t WHERE o.a = 5)", true},
		{"SELECT * FROM t WHERE EXISTS (SELECT * FROM t AS u WHERE t.a = 1)", true},
	} {
		if s, ok := sargOn(c.sql, c.inSub); ok {
			t.Errorf("%s: the entry's sarg is %+v, want none", c.sql, s)
		}
	}
	// Flipped inequality must invert the bound direction: 5 > a is a < 5,
	// hi = 5 strict, lo unbounded.
	s, ok := scanFilter(t, db, "t", mustParseExpr(t, "5 > a")).conjs[0].sargable()
	if !ok || !s.isRange || s.hi.I != 5 || !s.hiS || !s.lo.IsNull() || s.loS {
		t.Errorf("flipped sarg = %+v", s)
	}
}

func mustParseExpr(t *testing.T, e string) sqlparser.Expr {
	t.Helper()
	x, err := sqlparser.ParseExpr(e)
	if err != nil {
		t.Fatalf("%s: %v", e, err)
	}
	return x
}

// Property: for random predicates over an indexed table, the rows returned
// through the planner's chosen path equal the rows of a forced sequential
// scan, on both dialects. This is the engine-level soundness invariant the
// SIEVE-level property tests build on.
func TestAccessPathEquivalenceProperty(t *testing.T) {
	dialects := []Dialect{MySQL(), Postgres()}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		preds := []string{
			"owner = %d", "owner > %d", "owner <= %d",
			"wifiAP = %d", "wifiAP BETWEEN %d AND %d",
			"ts_date = DATE '2000-01-0%d'",
		}
		genPred := func() string {
			p := preds[r.Intn(len(preds))]
			switch strings.Count(p, "%d") {
			case 1:
				if strings.Contains(p, "DATE") {
					return strings.Replace(p, "%d", string(rune('1'+r.Intn(5))), 1)
				}
				n := r.Intn(10)
				if strings.Contains(p, "wifiAP") {
					n = 100 + r.Intn(4)
				}
				return strings.Replace(p, "%d", itoa(n), 1)
			default:
				lo := 100 + r.Intn(4)
				s := strings.Replace(p, "%d", itoa(lo), 1)
				return strings.Replace(s, "%d", itoa(lo+r.Intn(3)), 1)
			}
		}
		where := genPred()
		for i := 0; i < r.Intn(3); i++ {
			if r.Intn(2) == 0 {
				where += " AND " + genPred()
			} else {
				where += " OR " + genPred()
			}
		}
		var results [][]string
		for _, d := range dialects {
			db := newTestDB(t, d)
			planned, err := db.Query("SELECT id FROM wifi WHERE " + where)
			if err != nil {
				t.Logf("seed %d: %v (where=%s)", seed, err, where)
				return false
			}
			seq, err := db.Query("SELECT id FROM wifi USE INDEX () WHERE " + where)
			if err != nil {
				return false
			}
			a := idList(planned)
			b := idList(seq)
			if d.HonorsIndexHints() && !reflect.DeepEqual(a, b) {
				t.Logf("seed %d [%s]: planned %d rows vs seq %d rows (where=%s)", seed, d.Name(), len(a), len(b), where)
				return false
			}
			results = append(results, a)
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Logf("seed %d: dialects disagree (where=%s)", seed, where)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func idList(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[0].String()
	}
	sort.Strings(out)
	return out
}

func itoa(n int) string {
	return strings.TrimSpace(strings.Join([]string{string(rune('0' + n/100%10)), string(rune('0' + n/10%10)), string(rune('0' + n%10))}, ""))
}
