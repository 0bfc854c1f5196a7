package engine

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// boundPlanOf returns the access plan p's single-table core has memoized,
// nil before its first execution.
func boundPlanOf(p *Prepared) *boundPlan {
	if p.cache.bound == nil {
		return nil
	}
	return p.cache.bound.body.sources[0].planned.Load()
}

// TestAccessPlanFollowsTableEpoch: one prepared statement re-plans its access
// path after a bulk insert makes its index lose to a scan, after an index is
// created on its filtered column, and after Analyze replaces the statistics
// — and plans nothing while none of them happens.
func TestAccessPlanFollowsTableEpoch(t *testing.T) {
	db := New(MySQL())
	db.ScanWorkers = 1
	schema := storage.MustSchema(
		storage.Column{Name: "x", Type: storage.KindInt},
		storage.Column{Name: "y", Type: storage.KindInt},
		storage.Column{Name: "z", Type: storage.KindInt},
	)
	if _, err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	flag := func(hit bool, v int64) storage.Value {
		if hit {
			return storage.NewInt(v)
		}
		return storage.NewInt(0)
	}
	rows := make([]storage.Row, 0, 1000)
	for i := 0; i < 1000; i++ {
		rows = append(rows, storage.Row{storage.NewInt(int64(i)), flag(i%100 == 0, 1), flag(i%50 == 0, 7)})
	}
	if err := db.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("t", "y"); err != nil {
		t.Fatal(err)
	}
	p := db.Prepare(sqlparser.MustParse("SELECT x FROM t WHERE y = 1 AND z = 7"))

	// run executes p twice and returns the path the executions took and the
	// plan they share: the second must not have planned again.
	run := func(step string) (string, *boundPlan) {
		t.Helper()
		var bp *boundPlan
		for i := 0; i < 2; i++ {
			db.ResetCounters()
			res, err := Collect(p.Stream(context.Background()))
			if err != nil || len(res.Rows) != 10 {
				t.Fatalf("%s: %d rows, err %v; want 10", step, len(res.Rows), err)
			}
			if i == 0 {
				bp = boundPlanOf(p)
			} else if again := boundPlanOf(p); again != bp {
				t.Fatalf("%s: planned again with nothing changed", step)
			}
		}
		c := db.CountersSnapshot()
		switch {
		case c.IndexScans == 1 && c.BitmapOrScans == 0 && c.SegmentsScanned == 0:
			return "index " + bp.plan.Index, bp
		case c.IndexScans == 0 && c.BitmapOrScans == 1 && c.SegmentsScanned == 0:
			return "bitmap-or " + bp.plan.Index, bp
		case c.IndexScans == 0 && c.BitmapOrScans == 0 && c.SegmentsScanned > 0:
			return "seq", bp
		}
		t.Fatalf("%s: counters name no single path: %+v", step, c)
		return "", nil
	}
	steps := []struct {
		name   string
		change func() error
		want   string
	}{
		{"y = 1 selective", func() error { return nil }, "index y"},
		{"bulk insert of y = 1", func() error {
			more := make([]storage.Row, 0, 2000)
			for i := 0; i < 2000; i++ {
				more = append(more, storage.Row{storage.NewInt(int64(1000 + i)), storage.NewInt(1), storage.NewInt(0)})
			}
			return db.BulkInsert("t", more)
		}, "seq"},
		{"index on z", func() error { return db.CreateIndex("t", "z") }, "index z"},
		// Two distinct values each: the histograms price y = 1 and z = 7 at
		// one half, where the index probes counted 2010 and 20 of 3000.
		{"analyze", func() error { return db.Analyze("t") }, "seq"},
	}
	var last *boundPlan
	for _, s := range steps {
		if err := s.change(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		path, bp := run(s.name)
		if path != s.want {
			t.Errorf("after %s: %s, want %s", s.name, path, s.want)
		}
		if bp == last {
			t.Errorf("after %s: the plan of the step before was kept", s.name)
		}
		last = bp
	}
}

// guardedDispatch returns the dispatch fixture's guarded CTE statement over
// arms owner-keyed arms, its guard disjunction registered as a shared filter
// as the middleware registers a guard state's.
func guardedDispatch(t testing.TB, arms int) (*DB, *sqlparser.SelectStmt, sqlparser.Expr) {
	db, where := dispatchBenchDB(t, arms)
	stmt := sqlparser.MustParse("WITH g AS (SELECT * FROM t FORCE INDEX (owner) WHERE owner = 5 AND x < 700 AND (" + where + ")) SELECT x FROM g")
	conjs := sqlparser.Conjuncts(stmt.With[0].Select.Body.Where)
	guard := conjs[len(conjs)-1]
	if len(sqlparser.Disjuncts(guard)) != arms {
		t.Fatalf("the guard conjunct has %d disjuncts, want %d", len(sqlparser.Disjuncts(guard)), arms)
	}
	sf := db.ShareFilter("t", guard)
	t.Cleanup(sf.Release)
	return db, stmt, guard
}

// TestPreparedGuardedPlanningFlatInArms: a warmed prepared execution over a
// shared guard filter of 300 owner arms allocates, in count and in bytes, no
// more than one over 10 arms plus a small constant — planning reads the
// memoized access path instead of pricing every arm again.
func TestPreparedGuardedPlanningFlatInArms(t *testing.T) {
	measure := func(arms int) (allocs, bytes float64) {
		db, stmt, _ := guardedDispatch(t, arms)
		prep := db.Prepare(stmt)
		query := func() {
			res, err := Collect(prep.Stream(context.Background()))
			if err != nil || len(res.Rows) != 64 {
				t.Fatalf("%d arms: %d rows, err %v", arms, len(res.Rows), err)
			}
		}
		query()
		allocs = testing.AllocsPerRun(20, query)
		// Bytes are the fewest one execution allocated: sync.Pool drops
		// items at random under the race detector, and an execution that
		// finds its pooled scan state gone allocates it again.
		bytes = math.Inf(1)
		var before, after runtime.MemStats
		for i := 0; i < 50; i++ {
			runtime.ReadMemStats(&before)
			query()
			runtime.ReadMemStats(&after)
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
		}
		return allocs, bytes
	}
	fewAllocs, fewBytes := measure(10)
	manyAllocs, manyBytes := measure(300)
	t.Logf("per execution: %.0f allocs, %.0f B at 10 arms; %.0f allocs, %.0f B at 300", fewAllocs, fewBytes, manyAllocs, manyBytes)
	// The count's slack is for the same pool drops. Pricing the 290 more arms
	// at every execution would cost about 40 KB.
	if manyAllocs > fewAllocs+16 {
		t.Errorf("a warmed execution makes %.0f allocations at 300 arms against %.0f at 10", manyAllocs, fewAllocs)
	}
	if manyBytes > fewBytes+4096 {
		t.Errorf("a warmed execution allocates %.0f B at 300 arms against %.0f B at 10", manyBytes, fewBytes)
	}
}

// TestUnpreparedGuardedPlanningFlatInArms: an unprepared execution — a new
// binding, planned afresh — over a shared guard filter of 300 owner arms
// whose index union loses to the owner index allocates, in count and in
// bytes, what one over 10 arms does plus a small constant: pricing records
// each arm's pick as an index and builds no branch list for a union it does
// not keep.
func TestUnpreparedGuardedPlanningFlatInArms(t *testing.T) {
	measure := func(arms int) (allocs, bytes float64) {
		db, stmt, _ := guardedDispatch(t, arms)
		query := func() {
			res, err := db.QueryStmt(stmt)
			if err != nil || len(res.Rows) != 64 {
				t.Fatalf("%d arms: %d rows, err %v", arms, len(res.Rows), err)
			}
		}
		db.ResetCounters()
		query()
		if c := db.CountersSnapshot(); c.IndexScans != 1 || c.BitmapOrScans != 0 {
			t.Fatalf("%d arms: the owner index does not win the access path: %+v", arms, c)
		}
		allocs = testing.AllocsPerRun(20, query)
		bytes = math.Inf(1)
		var before, after runtime.MemStats
		for i := 0; i < 50; i++ {
			runtime.ReadMemStats(&before)
			query()
			runtime.ReadMemStats(&after)
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
		}
		return allocs, bytes
	}
	fewAllocs, fewBytes := measure(10)
	manyAllocs, manyBytes := measure(300)
	t.Logf("per execution: %.0f allocs, %.0f B at 10 arms; %.0f allocs, %.0f B at 300", fewAllocs, fewBytes, manyAllocs, manyBytes)
	// The 290 more picks cost 2.3 KB; a branch list for each pricing would
	// cost about 39 KB.
	if manyAllocs > fewAllocs+16 {
		t.Errorf("an unprepared execution makes %.0f allocations at 300 arms against %.0f at 10", manyAllocs, fewAllocs)
	}
	if manyBytes > fewBytes+4096 {
		t.Errorf("an unprepared execution allocates %.0f B at 300 arms against %.0f B at 10", manyBytes, fewBytes)
	}
}

// TestAccessPlanMemoUnderWrites: 8 goroutines run one prepared guarded
// statement and one unprepared statement over the same shared guard filter
// while a writer inserts rows and re-analyzes — moving the table's epoch
// under the prepared binding's memoized plan, while each unprepared
// execution plans afresh. The inserted rows never pass either filter, so
// every result must equal the row-evaluator reference taken before the
// writes.
func TestAccessPlanMemoUnderWrites(t *testing.T) {
	db, prepared, guard := guardedDispatch(t, 40)
	unprepared := sqlparser.MustParse("SELECT owner, x FROM t FORCE INDEX (owner) WHERE x < 700")
	unprepared.Body.Where = sqlparser.And(unprepared.Body.Where, guard)

	sorted := func(rows []storage.Row) []string {
		keys := make([]string, len(rows))
		for i, r := range rows {
			keys[i] = rowKey(r)
		}
		slices.Sort(keys)
		return keys
	}
	want := make([][]string, 2)
	restore := db.UseRowReference()
	for i, stmt := range []*sqlparser.SelectStmt{prepared, unprepared} {
		res, err := db.QueryStmt(stmt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sorted(res.Rows)
	}
	restore()
	if len(want[0]) != 64 || len(want[1]) != 700 {
		t.Fatalf("reference: %d and %d rows, want 64 and 700", len(want[0]), len(want[1]))
	}
	prep := db.Prepare(prepared)

	done := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		defer close(done)
		next := int64(1 << 20)
		for batch := 0; batch < 8; batch++ {
			rows := make([]storage.Row, 0, 1024)
			for i := 0; i < cap(rows); i++ {
				rows = append(rows, storage.Row{storage.NewInt(5), storage.NewInt(next)})
				next++
			}
			if err := db.BulkInsert("t", rows); err != nil {
				t.Error(err)
				return
			}
			if batch%2 == 1 {
				if err := db.Analyze("t"); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for round := 0; ; round++ {
				select {
				case <-done:
					if round > 2 {
						return
					}
				default:
				}
				var res *Result
				var err error
				which := (g + round) % 2
				if which == 0 {
					res, err = Collect(prep.Stream(context.Background()))
				} else {
					res, err = db.QueryStmt(unprepared)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if got := sorted(res.Rows); !slices.Equal(got, want[which]) {
					t.Errorf("goroutine %d round %d, statement %d: %d rows, want %d", g, round, which, len(got), len(want[which]))
					return
				}
			}
		}()
	}
	writer.Wait()
	readers.Wait()
	if c := db.CountersSnapshot(); c.IndexScans == 0 || c.BitmapOrScans == 0 {
		t.Errorf("the readers took no index scan or no bitmap OR scan: %+v", c)
	}
}
