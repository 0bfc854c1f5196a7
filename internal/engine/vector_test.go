package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// vecTestDB builds a two-column table with clustered-but-scattered owners:
// each 64-row segment holds exactly the owners {base, base+10} so min/max
// hulls cover ids the segments do not contain — the shape zone maps cannot
// refute and the filter has to.
func vecTestDB(t *testing.T) (*DB, *storage.Table, []storage.Row) {
	t.Helper()
	schema := storage.MustSchema(
		storage.Column{Name: "owner", Type: storage.KindInt},
		storage.Column{Name: "x", Type: storage.KindInt},
	)
	db := New(MySQL())
	db.UDFOverheadIters = 0
	tbl, err := db.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	var rows []storage.Row
	for i := 0; i < 1024; i++ {
		owner := int64((i/64)%3) + int64(i%2)*10 // {0,10},{1,11},{2,12} per segment
		rows = append(rows, storage.Row{storage.NewInt(owner), storage.NewInt(int64(i))})
	}
	if err := tbl.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	tbl.SetSegmentSize(64)
	return db, tbl, rows
}

// runCounted executes sql materialising and returns the result plus the
// query's counter delta.
func runCounted(t *testing.T, db *DB, sql string) (*Result, Counters) {
	t.Helper()
	db.ResetCounters()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res, db.CountersSnapshot()
}

// runReference is runCounted with every sequential scan filtering through
// rowPasses, the test-only reference (export_test.go).
func runReference(t *testing.T, db *DB, sql string) (*Result, Counters) {
	t.Helper()
	defer db.UseRowReference()()
	return runCounted(t, db, sql)
}

// TestZoneMapsPruneScatteredOwners pins what segment pruning is on the
// scattered-owner fixture: a guard-shaped disjunction skips exactly the
// segments whose owner hull misses every probed id — owners the hull covers
// but the segment does not hold cost a scan — and the rows equal the row
// reference's either way.
func TestZoneMapsPruneScatteredOwners(t *testing.T) {
	db, tbl, _ := vecTestDB(t)
	total := tbl.SegmentCount()
	for _, tc := range []struct {
		sql  string
		pts  []int64
		rows int
	}{
		// 5 and 7 sit inside every hull and in no segment.
		{"SELECT * FROM t WHERE (owner = 5 AND x > 10) OR (owner = 7 AND x < 2000)", []int64{5, 7}, 0},
		// 11 and 12 miss the {0,10} hulls only: the odd rows of the 10
		// {1,11} and {2,12} segments match.
		{"SELECT * FROM t WHERE (owner = 11 AND x >= 0) OR (owner = 12 AND x >= 0)", []int64{11, 12}, 10 * 32},
		// Outside every hull.
		{"SELECT * FROM t WHERE (owner = 20 AND x >= 0) OR (owner = 30 AND x >= 0)", []int64{20, 30}, 0},
	} {
		wantPruned := 0
		for seg := 0; seg < total; seg++ {
			z, ok := tbl.SegmentZone(seg, "owner")
			if !ok {
				t.Fatalf("segment %d has no owner zone", seg)
			}
			hit := false
			for _, p := range tc.pts {
				hit = hit || z.MayContainValue(storage.NewInt(p))
			}
			if !hit {
				wantPruned++
			}
		}
		res, c := runCounted(t, db, tc.sql)
		ref, refC := runReference(t, db, tc.sql)
		if !reflect.DeepEqual(res, ref) || c != refC {
			t.Fatalf("%s: diverges from the row reference: %d vs %d rows, %+v vs %+v", tc.sql, len(res.Rows), len(ref.Rows), c, refC)
		}
		if len(res.Rows) != tc.rows {
			t.Fatalf("%s: got %d rows, want %d", tc.sql, len(res.Rows), tc.rows)
		}
		if int(c.SegmentsPruned) != wantPruned || int(c.SegmentsScanned) != total-wantPruned {
			t.Fatalf("%s: pruned=%d scanned=%d, want %d/%d", tc.sql, c.SegmentsPruned, c.SegmentsScanned, wantPruned, total-wantPruned)
		}
		if c.TuplesRead != int64((total-wantPruned)*64) {
			t.Fatalf("%s: tuples read %d, want %d (surviving segments only)", tc.sql, c.TuplesRead, (total-wantPruned)*64)
		}
	}
}

// TestVectorRowCounterParity runs the same guard-shaped queries through the
// compiled filter and through the rowPasses reference and demands identical
// rows and identical work counters.
func TestVectorRowCounterParity(t *testing.T) {
	db, _, _ := vecTestDB(t)
	queries := []string{
		"SELECT * FROM t WHERE (owner = 0 AND x BETWEEN 5 AND 500) OR (owner = 11 AND x > 100)",
		"SELECT * FROM t WHERE owner IN (1, 12) AND x < 900",
		"SELECT count(*), min(x) FROM t WHERE (owner = 10 AND x > 3) OR FALSE",
		"SELECT * FROM t WHERE FALSE",
		"SELECT owner, count(*) AS n FROM t WHERE x >= 0 GROUP BY owner ORDER BY n DESC",
	}
	for _, q := range queries {
		rowRes, rowC := runReference(t, db, q)
		vecRes, vecC := runCounted(t, db, q)
		if !reflect.DeepEqual(rowRes, vecRes) {
			t.Fatalf("%s: results diverge:\nrow: %v\nvec: %v", q, rowRes.Rows, vecRes.Rows)
		}
		if rowC != vecC {
			t.Fatalf("%s: counters diverge:\nrow: %+v\nvec: %+v", q, rowC, vecC)
		}
	}
}

// TestVectorUDFParity proves the lazy-leaf fallback invokes side-effecting
// expressions for exactly the rows the row-at-a-time path does: a UDF in
// one arm of a disjunction (the Δ operator's position) must be called the
// same number of times either way, and only for rows surviving the arm's
// cheaper conjuncts.
func TestVectorUDFParity(t *testing.T) {
	db, _, _ := vecTestDB(t)
	db.RegisterUDF("is_even", func(ctx *UDFContext, args []storage.Value) (storage.Value, error) {
		if len(args) != 1 || args[0].IsNull() {
			return storage.Null, nil
		}
		return storage.NewBool(args[0].I%2 == 0), nil
	})
	q := "SELECT count(*) FROM t WHERE (owner = 0 AND is_even(x) = TRUE) OR (owner = 11 AND x < 100)"

	rowRes, rowC := runReference(t, db, q)
	vecRes, vecC := runCounted(t, db, q)

	if !reflect.DeepEqual(rowRes.Rows, vecRes.Rows) {
		t.Fatalf("results diverge: %v vs %v", rowRes.Rows, vecRes.Rows)
	}
	if rowC.UDFInvocations == 0 {
		t.Fatal("fixture broken: UDF never ran")
	}
	if rowC.UDFInvocations != vecC.UDFInvocations {
		t.Fatalf("UDF invocation counts diverge: row %d vs vec %d", rowC.UDFInvocations, vecC.UDFInvocations)
	}
	if vecC.BatchesVectorised == 0 {
		t.Fatal("vector path did not engage on the mixed UDF disjunction")
	}
	// The owner=0 arm only holds in 1/3 of segments; the UDF must not have
	// run for every tuple of the relation.
	if rowC.UDFInvocations >= rowC.TuplesRead {
		t.Fatalf("UDF ran for %d of %d tuples; arm short-circuit lost", rowC.UDFInvocations, rowC.TuplesRead)
	}
}

// TestVectorArmSkipRespectsEvaluationOrder pins the soundness restriction
// on arm-skipping: an owner equality that the row evaluator
// only reaches AFTER a UDF call must not license skipping the arm — the
// UDF's invocations (and potential errors) happen first in row order, so
// the vector path must perform them too. The guard rewrite always puts
// the owner predicate first, where skipping stays legal; this test writes
// the adversarial order by hand.
func TestVectorArmSkipRespectsEvaluationOrder(t *testing.T) {
	db, _, _ := vecTestDB(t)
	db.RegisterUDF("probe", func(ctx *UDFContext, args []storage.Value) (storage.Value, error) {
		return storage.NewBool(true), nil
	})
	// owner = 5 appears in no segment (no tuple matches it), but the
	// UDF precedes it inside the arm.
	q := "SELECT count(*) FROM t WHERE (probe(x) = TRUE AND owner = 5) OR (owner = 11 AND x < 100)"

	rowRes, rowC := runReference(t, db, q)
	vecRes, vecC := runCounted(t, db, q)
	if !reflect.DeepEqual(rowRes.Rows, vecRes.Rows) {
		t.Fatalf("results diverge: %v vs %v", rowRes.Rows, vecRes.Rows)
	}
	if rowC.UDFInvocations == 0 || rowC.UDFInvocations != vecC.UDFInvocations {
		t.Fatalf("UDF invocation counts diverge: row %d vs vec %d (arm wrongly skipped?)", rowC.UDFInvocations, vecC.UDFInvocations)
	}

	// With the owner equality first, the row path short-circuits the UDF
	// away on every row, so the arm skip is free to fire — and the
	// UDF must run zero times on both paths.
	q = "SELECT count(*) FROM t WHERE (owner = 5 AND probe(x) = TRUE) OR (owner = 11 AND x < 100)"
	_, rowC = runReference(t, db, q)
	_, vecC = runCounted(t, db, q)
	if rowC.UDFInvocations != 0 || vecC.UDFInvocations != 0 {
		t.Fatalf("owner-first arm must short-circuit the UDF on both paths: row %d, vec %d", rowC.UDFInvocations, vecC.UDFInvocations)
	}
}

// TestVectorNullHeavyFuzz fuzzes random guard-shaped predicates over
// NULL-riddled data through three evaluators: the rowPasses reference, the
// compiled filter, and an independent three-valued-logic reference. All three must
// select exactly the same rows.
func TestVectorNullHeavyFuzz(t *testing.T) {
	schema := storage.MustSchema(
		storage.Column{Name: "owner", Type: storage.KindInt},
		storage.Column{Name: "x", Type: storage.KindInt},
	)
	db := New(MySQL())
	db.UDFOverheadIters = 0
	tbl, err := db.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	var rows []storage.Row
	for i := 0; i < 300; i++ {
		mk := func() storage.Value {
			if r.Intn(3) == 0 {
				return storage.Null
			}
			return storage.NewInt(int64(r.Intn(6)))
		}
		rows = append(rows, storage.Row{mk(), mk()})
	}
	if err := tbl.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	tbl.SetSegmentSize(32)

	lit := func() sqlparser.Expr {
		if r.Intn(8) == 0 {
			return sqlparser.Lit(storage.Null)
		}
		return sqlparser.Lit(storage.NewInt(int64(r.Intn(6))))
	}
	col := func() sqlparser.Expr {
		if r.Intn(2) == 0 {
			return sqlparser.Col("", "owner")
		}
		return sqlparser.Col("", "x")
	}
	var gen func(depth int) sqlparser.Expr
	gen = func(depth int) sqlparser.Expr {
		if depth <= 0 {
			switch r.Intn(5) {
			case 0:
				return &sqlparser.CompareExpr{Op: sqlparser.CmpOp(r.Intn(6)), L: col(), R: lit()}
			case 1:
				return &sqlparser.BetweenExpr{E: col(), Lo: lit(), Hi: lit(), Not: r.Intn(2) == 0}
			case 2:
				return &sqlparser.InExpr{E: col(), List: []sqlparser.Expr{lit(), lit(), lit()}, Not: r.Intn(2) == 0}
			case 3:
				return &sqlparser.IsNullExpr{E: col(), Not: r.Intn(2) == 0}
			default:
				return sqlparser.Lit(storage.NewBool(r.Intn(2) == 0))
			}
		}
		switch r.Intn(4) {
		case 0:
			return &sqlparser.BinaryExpr{Op: sqlparser.OpAnd, L: gen(depth - 1), R: gen(depth - 1)}
		case 1:
			return &sqlparser.BinaryExpr{Op: sqlparser.OpOr, L: gen(depth - 1), R: gen(depth - 1)}
		case 2:
			return &sqlparser.NotExpr{E: gen(depth - 1)}
		default:
			return gen(depth - 1)
		}
	}

	for trial := 0; trial < 4000; trial++ {
		e := gen(3)
		stmt := &sqlparser.SelectStmt{Body: &sqlparser.SelectCore{
			Items: []sqlparser.SelectItem{{Expr: sqlparser.Col("", "owner")}, {Expr: sqlparser.Col("", "x")}},
			From:  []sqlparser.TableRef{{Name: "t"}},
			Where: e,
			Limit: -1,
		}}
		restore := db.UseRowReference()
		rowRes, err := db.QueryStmt(stmt)
		restore()
		if err != nil {
			t.Fatalf("trial %d row: %s: %v", trial, sqlparser.PrintExpr(e), err)
		}
		vecRes, err := db.QueryStmt(stmt)
		if err != nil {
			t.Fatalf("trial %d vec: %s: %v", trial, sqlparser.PrintExpr(e), err)
		}
		if !reflect.DeepEqual(rowRes.Rows, vecRes.Rows) {
			t.Fatalf("trial %d: %s: row path %d rows, vector path %d rows",
				trial, sqlparser.PrintExpr(e), len(rowRes.Rows), len(vecRes.Rows))
		}
		want := 0
		for _, row := range rows {
			if refTri(e, row) == triTrue {
				want++
			}
		}
		if len(rowRes.Rows) != want {
			t.Fatalf("trial %d: %s: engine %d rows, 3VL reference %d", trial, sqlparser.PrintExpr(e), len(rowRes.Rows), want)
		}
	}
}

// triOr is or3 over tri, for refTri alone: the dispatch operator folds an
// arm's result into a row that is known not to be TRUE yet.
func triOr(l, r tri) tri {
	switch {
	case l == triTrue || r == triTrue:
		return triTrue
	case l == triNull || r == triNull:
		return triNull
	default:
		return triFalse
	}
}

// refTri is an independent three-valued reference evaluator over the fuzz
// fixture's (owner, x) rows — deliberately written against the SQL spec,
// not against the engine's code, so both evaluation paths are checked for
// absolute correctness, not just mutual agreement.
func refTri(e sqlparser.Expr, row storage.Row) tri {
	val := func(x sqlparser.Expr) storage.Value {
		switch v := x.(type) {
		case *sqlparser.Literal:
			return v.Val
		case *sqlparser.ColRef:
			if v.Column == "owner" {
				return row[0]
			}
			return row[1]
		}
		panic(fmt.Sprintf("refTri: unexpected value node %T", e))
	}
	cmp := func(op sqlparser.CmpOp, l, r storage.Value) tri {
		c, ok := storage.Compare(l, r)
		if !ok {
			return triNull
		}
		var b bool
		switch op {
		case sqlparser.CmpEq:
			b = c == 0
		case sqlparser.CmpNe:
			b = c != 0
		case sqlparser.CmpLt:
			b = c < 0
		case sqlparser.CmpLe:
			b = c <= 0
		case sqlparser.CmpGt:
			b = c > 0
		case sqlparser.CmpGe:
			b = c >= 0
		}
		if b {
			return triTrue
		}
		return triFalse
	}
	switch x := e.(type) {
	case *sqlparser.Literal:
		return triOf(x.Val)
	case *sqlparser.CompareExpr:
		return cmp(x.Op, val(x.L), val(x.R))
	case *sqlparser.BinaryExpr:
		if x.Op == sqlparser.OpAnd {
			return triAnd(refTri(x.L, row), refTri(x.R, row))
		}
		return triOr(refTri(x.L, row), refTri(x.R, row))
	case *sqlparser.NotExpr:
		return triNot(refTri(x.E, row))
	case *sqlparser.BetweenExpr:
		res := triAnd(cmp(sqlparser.CmpGe, val(x.E), val(x.Lo)), cmp(sqlparser.CmpLe, val(x.E), val(x.Hi)))
		if x.Not {
			res = triNot(res)
		}
		return res
	case *sqlparser.InExpr:
		v := val(x.E)
		if v.IsNull() {
			return triNull
		}
		res := triFalse
		for _, item := range x.List {
			m := val(item)
			switch {
			case m.IsNull():
				if res == triFalse {
					res = triNull
				}
			case storage.Equal(v, m):
				res = triTrue
			}
		}
		if x.Not {
			res = triNot(res)
		}
		return res
	case *sqlparser.IsNullExpr:
		if val(x.E).IsNull() != x.Not {
			return triTrue
		}
		return triFalse
	}
	panic(fmt.Sprintf("refTri: unexpected predicate node %T", e))
}

// TestVectorParallelParity: one goroutine or a fan-out, compiled filter or
// rowPasses reference, must all agree on rows and tuple counters.
func TestVectorParallelParity(t *testing.T) {
	db, _, _ := vecTestDB(t)
	q := "SELECT owner, count(*) AS n FROM t WHERE (owner = 0 AND x > 4) OR (owner = 12 AND x < 800) GROUP BY owner ORDER BY owner"

	type mode struct {
		workers int
		rowRef  bool
	}
	var base *Result
	var baseC Counters
	for _, m := range []mode{{1, true}, {1, false}, {4, true}, {4, false}} {
		db.ScanWorkers = m.workers
		run := runCounted
		if m.rowRef {
			run = runReference
		}
		res, c := run(t, db, q)
		c.ParallelScans = 0
		if base == nil {
			base, baseC = res, c
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("workers=%d rowRef=%v: rows diverge", m.workers, m.rowRef)
		}
		if baseC != c {
			t.Fatalf("workers=%d rowRef=%v: counters diverge:\nbase %+v\ngot  %+v", m.workers, m.rowRef, baseC, c)
		}
	}
}
