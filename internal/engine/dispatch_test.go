package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// dispatchFixture builds t(owner, x, tag, name) over 40-row segments with an
// index on x, so the same WHERE runs as a sequential scan (USE INDEX ()) and
// as an index fetch list (FORCE INDEX (x)). ownerKind decides what the
// dispatch column holds: INT with every fifth owner NULL, or a kind that is
// never an INT — TIME compares equal to an INT literal on its payload, FLOAT
// by coercion — so every tuple must take every arm.
func dispatchFixture(t *testing.T, ownerKind storage.Kind) *DB {
	t.Helper()
	db := New(MySQL())
	db.UDFOverheadIters = 0
	schema := storage.MustSchema(
		storage.Column{Name: "owner", Type: ownerKind},
		storage.Column{Name: "x", Type: storage.KindInt},
		storage.Column{Name: "tag", Type: storage.KindInt},
		storage.Column{Name: "name", Type: storage.KindString},
	)
	tbl, err := db.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	tbl.SetSegmentSize(40)
	r := rand.New(rand.NewSource(5))
	var rows []storage.Row
	for i := 0; i < 600; i++ {
		o := int64((i / 7) % 10) // runs of one owner, like data stored by owner
		owner := storage.Null
		if ownerKind != storage.KindInt || r.Intn(5) != 0 {
			switch ownerKind {
			case storage.KindTime:
				owner = storage.NewTime(o)
			case storage.KindFloat:
				owner = storage.NewFloat(float64(o))
			default:
				owner = storage.NewInt(o)
			}
		}
		tag := storage.Null
		if r.Intn(4) != 0 {
			tag = storage.NewInt(int64(r.Intn(3)))
		}
		rows = append(rows, storage.Row{owner, storage.NewInt(int64(r.Intn(100))), tag, storage.NewString("n")})
	}
	if err := db.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("t", "x"); err != nil {
		t.Fatal(err)
	}
	// probe stands in for Δ: it tallies PolicyEvals beside UDFInvocations.
	db.RegisterUDF("probe", func(ctx *UDFContext, args []storage.Value) (storage.Value, error) {
		ctx.Counters.PolicyEvals++
		if args[0].IsNull() {
			return storage.Null, nil
		}
		return storage.NewBool(args[0].I%3 != 0), nil
	})
	return db
}

// guardShapedWhere generates a disjunction of the shapes the rewrite injects
// and the ones that must defeat dispatch: owner equalities and IN lists
// (either way round, keys repeating across arms), a guard on another column
// over a nested disjunction of owner arms, keyless arms in between, a UDF
// before and after the equality, and arithmetic that errors when reached.
// Keys run past the owners present (0–9) so some arms select nothing.
func guardShapedWhere(r *rand.Rand) string {
	key := func() int { return r.Intn(14) }
	residual := func() string {
		switch r.Intn(4) {
		case 0:
			return fmt.Sprintf("x < %d", r.Intn(100))
		case 1:
			lo := r.Intn(80)
			return fmt.Sprintf("x BETWEEN %d AND %d", lo, lo+r.Intn(30))
		case 2:
			return fmt.Sprintf("tag = %d", r.Intn(3))
		default:
			return "tag IS NOT NULL"
		}
	}
	ownerArm := func() string {
		switch r.Intn(4) {
		case 0:
			return fmt.Sprintf("owner = %d AND %s", key(), residual())
		case 1:
			return fmt.Sprintf("%d = owner AND %s", key(), residual())
		case 2:
			return fmt.Sprintf("owner IN (%d, %d) AND %s", key(), key(), residual())
		default:
			return fmt.Sprintf("owner = %d", key())
		}
	}
	arm := func() string {
		switch r.Intn(12) {
		case 0, 1, 2, 3:
			return ownerArm()
		case 4: // a guard on another column over a partition of owner arms
			return fmt.Sprintf("x >= %d AND (%s OR %s OR %s)", r.Intn(50), ownerArm(), ownerArm(), ownerArm())
		case 5: // one disjunct without a key: the whole arm is keyless
			return fmt.Sprintf("x >= %d AND (%s OR tag = 1)", r.Intn(50), ownerArm())
		case 6: // keyless
			return fmt.Sprintf("x = %d", r.Intn(100))
		case 7: // keyless, NULL-valued on most rows
			return fmt.Sprintf("tag > %d", r.Intn(3))
		case 8: // the equality licenses skipping the UDF
			return fmt.Sprintf("owner = %d AND probe(x) = TRUE", key())
		case 9: // it does not license skipping what precedes it
			return fmt.Sprintf("probe(x) = TRUE AND owner = %d", key())
		case 10: // NULL and non-INT literals key nothing
			return fmt.Sprintf("owner = NULL OR owner = %d.5 AND x < 50", key())
		default: // errors for the rows that reach it
			if r.Intn(2) == 0 {
				return fmt.Sprintf("owner = %d AND name + 1 > 0", 9+r.Intn(5))
			}
			return fmt.Sprintf("owner = %d AND x + tag > %d", key(), r.Intn(60))
		}
	}
	arms := make([]string, 2+r.Intn(7))
	for i := range arms {
		arms[i] = "(" + arm() + ")"
	}
	return strings.Join(arms, " OR ")
}

// TestVectorDispatchFuzz holds the dispatch operator to the rowPasses
// reference on generated guard-shaped disjunctions: same rows, same error
// or none, and — when there is no error — the same counters, UDFInvocations
// and PolicyEvals included. Every disjunction runs as a sequential scan and
// as an index fetch list, on one goroutine and with a fan-out of four,
// unprepared and twice through one Prepared (the second execution runs the
// cached binding, arms compiled by the first).
func TestVectorDispatchFuzz(t *testing.T) {
	type outcome struct {
		rows [][]storage.Row
		c    Counters
		err  bool
	}
	run := func(db *DB, exec func() (*Result, error)) outcome {
		db.ResetCounters()
		res, err := exec()
		if err != nil {
			return outcome{err: true}
		}
		return outcome{rows: [][]storage.Row{res.Rows}, c: db.CountersSnapshot()}
	}
	for _, kind := range []storage.Kind{storage.KindInt, storage.KindTime, storage.KindFloat} {
		db := dispatchFixture(t, kind)
		r := rand.New(rand.NewSource(int64(kind)))
		sawDispatch, sawError := false, false
		for trial := 0; trial < 100; trial++ {
			where := guardShapedWhere(r)
			for _, path := range []struct{ name, from, lead string }{
				{"seq", "t USE INDEX ()", ""},
				{"fetch", "t FORCE INDEX (x)", fmt.Sprintf("x >= %d AND ", r.Intn(40))},
			} {
				sql := fmt.Sprintf("SELECT owner, x, tag FROM %s WHERE %s(%s)", path.from, path.lead, where)
				stmt, err := sqlparser.Parse(sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				for _, workers := range []int{1, 4} {
					db.ScanWorkers = workers
					name := fmt.Sprintf("%s owners, trial %d, %s, workers=%d: %s", kind, trial, path.name, workers, sql)
					restore := db.UseRowReference()
					want := run(db, func() (*Result, error) { return db.QueryStmt(stmt) })
					restore()
					prep := db.Prepare(stmt)
					for _, got := range []outcome{
						run(db, func() (*Result, error) { return db.QueryStmt(stmt) }),
						run(db, func() (*Result, error) { return Collect(prep.Stream(context.Background())) }),
						run(db, func() (*Result, error) { return Collect(prep.Stream(context.Background())) }),
					} {
						if got.err != want.err {
							t.Fatalf("%s: compiled errored %v, reference %v", name, got.err, want.err)
						}
						if !reflect.DeepEqual(got.rows, want.rows) {
							t.Fatalf("%s: rows diverge", name)
						}
						if got.c != want.c {
							t.Fatalf("%s: counters diverge:\ncompiled:  %+v\nreference: %+v", name, got.c, want.c)
						}
					}
					sawError = sawError || want.err
					if want.c.BatchesVectorised == 0 && !want.err && want.c.SegmentsScanned+want.c.IndexScans > 0 {
						t.Fatalf("%s: the filter did not run as a batch program", name)
					}
				}
			}
			or := mustParseWhere(t, where)
			if p, ok := compileVecProgram(scanFilter(t, db, "t", or)).preds[0].(*dispatchOr); ok && p.col >= 0 {
				sawDispatch = true
			}
		}
		if !sawDispatch || !sawError {
			t.Fatalf("%s owners: fixture is broken: dispatched %v, errored %v", kind, sawDispatch, sawError)
		}
	}
}

// TestDispatchKeysRespectEvaluationOrder pins what may key an arm: the
// points are those of the first equality the row evaluator reaches, through
// a nested disjunction only when every disjunct has them, and never past a
// conjunct that can fail or have an effect.
func TestDispatchKeysRespectEvaluationOrder(t *testing.T) {
	db := dispatchFixture(t, storage.KindInt)
	for _, tc := range []struct {
		arm  string
		want []int64 // nil: keyless
	}{
		{"owner = 3 AND x < 5", []int64{3}},
		{"4 = owner", []int64{4}},
		{"x < 5 AND owner IN (1, 2)", []int64{1, 2}},
		{"x < 5 AND (owner = 1 AND tag = 0 OR owner = 6)", []int64{1, 6}},
		{"owner = 3 AND probe(x) = TRUE", []int64{3}},
		{"tag = 1 AND (owner = 2 AND probe(x) = TRUE OR owner = 7 AND name + 1 > 0)", []int64{2, 7}},
		{"x < 5 AND (owner = 1 OR tag = 0)", nil},
		{"probe(x) = TRUE AND owner = 3", nil},
		{"x + tag > 1 AND owner = 3", nil},
		{"(x < 2 OR probe(x) = TRUE) AND owner = 3", nil},
		{"owner = 2.5 AND x < 5", nil},
		{"owner = NULL", nil},
		{"owner <> 3", nil},
		{"owner NOT IN (1, 2)", nil},
	} {
		arm := mustParseWhere(t, tc.arm)
		tb := scanFilter(t, db, "t", arm)
		vc := &vecCompiler{b: tb.b, frame: tb.schema}
		pairs, ok := vc.keysOn(arm, 0, 0, nil)
		var got []int64
		for _, p := range pairs {
			got = append(got, p.key)
		}
		if ok != (tc.want != nil) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: keys %v (keyed %v), want %v", tc.arm, got, ok, tc.want)
		}
	}
}

// TestVectorPreparedShared runs one Prepared from eight goroutines at once,
// on both access paths with a fan-out of four: the plan cache fills, and the
// shared program's arms compile, under concurrent first use, and every
// execution returns what an unprepared one does. Run under -race.
func TestVectorPreparedShared(t *testing.T) {
	db := dispatchFixture(t, storage.KindInt)
	db.ScanWorkers = 4
	where := guardShapedWhere(rand.New(rand.NewSource(99)))
	for _, from := range []string{"t USE INDEX ()", "t FORCE INDEX (x)"} {
		stmt := sqlparser.MustParse(fmt.Sprintf(
			"WITH g AS (SELECT * FROM %s WHERE x >= 5 AND (%s) AND (owner = 1 OR owner = 2 AND tag = 0 OR x > 3)) SELECT owner, x FROM g", from, where))
		want, err := db.QueryStmt(stmt)
		if err != nil || len(want.Rows) == 0 {
			t.Fatalf("%s: %d rows, err %v", from, len(want.Rows), err)
		}
		prep := db.Prepare(stmt)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					got, err := Collect(prep.Stream(context.Background()))
					if err != nil || !reflect.DeepEqual(got.Rows, want.Rows) {
						t.Errorf("%s: concurrent execution diverged (err %v)", from, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
