package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// buildSegDB creates a table "p" of n rows with a small segment size so
// tests exercise many segments cheaply. id is clustered (heap order), grp
// cycles 0..9, val scatters.
func buildSegDB(t testing.TB, n, segSize int) *DB {
	t.Helper()
	db := New(MySQL())
	db.UDFOverheadIters = 0
	schema := storage.MustSchema(
		storage.Column{Name: "id", Type: storage.KindInt},
		storage.Column{Name: "grp", Type: storage.KindInt},
		storage.Column{Name: "val", Type: storage.KindInt},
	)
	if _, err := db.CreateTable("p", schema); err != nil {
		t.Fatal(err)
	}
	tab := db.MustTable("p")
	tab.SetSegmentSize(segSize)
	rows := make([]storage.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, storage.Row{
			storage.NewInt(int64(i)),
			storage.NewInt(int64(i % 10)),
			storage.NewInt(int64((i * 7919) % 1000)),
		})
	}
	if err := db.BulkInsert("p", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestParallelSerialEquivalence checks the parallel guarded scan returns
// byte-identical results to the serial scan, with and without ORDER BY,
// across worker counts.
func TestParallelSerialEquivalence(t *testing.T) {
	db := buildSegDB(t, 10000, 64)
	queries := []string{
		"SELECT id FROM p WHERE grp = 3",
		"SELECT id, val FROM p WHERE val < 500 AND grp > 1",
		"SELECT id FROM p WHERE grp = 3 ORDER BY val DESC",
		"SELECT grp, count(*) FROM p WHERE val < 900 GROUP BY grp",
		"SELECT id FROM p WHERE id BETWEEN 100 AND 200 OR id BETWEEN 9000 AND 9100",
	}
	for _, q := range queries {
		db.ScanWorkers = 1
		want, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s (serial): %v", q, err)
		}
		for _, workers := range []int{2, 4, 8} {
			db.ScanWorkers = workers
			got, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", q, workers, err)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s (workers=%d): %d rows vs serial %d", q, workers, len(got.Rows), len(want.Rows))
			}
			for i := range got.Rows {
				if rowKey(got.Rows[i]) != rowKey(want.Rows[i]) {
					t.Fatalf("%s (workers=%d): row %d diverges: %v vs %v", q, workers, i, got.Rows[i], want.Rows[i])
				}
			}
		}
	}
}

// TestParallelScanEngages proves by the ParallelScans counter that the
// fan-out runs when — and only when — the consumer pulls past the first
// scanned segment and more than one worker is allowed.
func TestParallelScanEngages(t *testing.T) {
	db := buildSegDB(t, 10000, 64)
	db.ScanWorkers = 4
	db.ResetCounters()
	if _, err := db.Query("SELECT count(*) FROM p WHERE grp < 5"); err != nil {
		t.Fatal(err)
	}
	c := db.CountersSnapshot()
	if c.ParallelScans != 1 {
		t.Fatalf("ParallelScans = %d, want 1", c.ParallelScans)
	}
	if c.TuplesRead != 10000 {
		t.Fatalf("parallel full scan read %d tuples, want 10000", c.TuplesRead)
	}

	// A consumer that stops inside the first segment never starts a worker
	// and pays for one batch; one that drains the same stream fans out.
	for _, tc := range []struct{ pull, parallel, tuples int64 }{
		{pull: 3, parallel: 0, tuples: 64},
		{pull: 1 << 30, parallel: 1, tuples: 10000},
	} {
		db.ResetCounters()
		rows, err := db.Stream(context.Background(), "SELECT id FROM p WHERE grp < 5")
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < tc.pull && rows.Next(); i++ {
		}
		rows.Close()
		if c = db.CountersSnapshot(); c.ParallelScans != tc.parallel || c.TuplesRead != tc.tuples {
			t.Fatalf("stream pulling %d rows: ParallelScans=%d TuplesRead=%d, want %d and %d",
				tc.pull, c.ParallelScans, c.TuplesRead, tc.parallel, tc.tuples)
		}
	}

	db.ScanWorkers = 1
	db.ResetCounters()
	if _, err := db.Query("SELECT count(*) FROM p WHERE grp < 5"); err != nil {
		t.Fatal(err)
	}
	if c := db.CountersSnapshot(); c.ParallelScans != 0 {
		t.Fatalf("workers=1 still ran parallel (ParallelScans=%d)", c.ParallelScans)
	}
}

// TestZoneMapPruning checks that segments refuted by zone maps contribute
// zero tuple reads, for plain sargs and for the guard-shaped OR-of-ANDs
// disjunction SIEVE rewrites produce.
func TestZoneMapPruning(t *testing.T) {
	const n, segSize = 10000, 64 // ~157 segments, id clustered
	for _, workers := range []int{1, 4} {
		db := buildSegDB(t, n, segSize)
		db.ScanWorkers = workers

		db.ResetCounters()
		res, err := db.Query("SELECT count(*) FROM p WHERE id BETWEEN 128 AND 191")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I != 64 {
			t.Fatalf("workers=%d: count = %d, want 64", workers, res.Rows[0][0].I)
		}
		c := db.CountersSnapshot()
		if c.SegmentsScanned != 1 {
			t.Errorf("workers=%d: range sarg scanned %d segments, want 1", workers, c.SegmentsScanned)
		}
		if total := int64((n + segSize - 1) / segSize); c.SegmentsPruned+c.SegmentsScanned != total {
			t.Errorf("workers=%d: pruned+scanned = %d+%d, want %d total",
				workers, c.SegmentsPruned, c.SegmentsScanned, total)
		}
		if c.TuplesRead != 64 {
			t.Errorf("workers=%d: pruned segments contributed tuple reads: TuplesRead = %d, want 64", workers, c.TuplesRead)
		}

		// Guard-shaped disjunction: (id range AND grp) OR (id range AND grp).
		db.ResetCounters()
		res, err = db.Query("SELECT count(*) FROM p WHERE (id BETWEEN 0 AND 63 AND grp = 1) OR (id BETWEEN 640 AND 703 AND grp = 2)")
		if err != nil {
			t.Fatal(err)
		}
		c = db.CountersSnapshot()
		if c.SegmentsScanned != 2 {
			t.Errorf("workers=%d: guard disjunction scanned %d segments, want 2", workers, c.SegmentsScanned)
		}
		if c.TuplesRead != 128 {
			t.Errorf("workers=%d: guard disjunction read %d tuples, want 128", workers, c.TuplesRead)
		}
		if res.Rows[0][0].I == 0 {
			t.Errorf("workers=%d: disjunction matched nothing", workers)
		}

		// Default-deny shape: constant FALSE refutes every segment.
		db.ResetCounters()
		res, err = db.Query("SELECT count(*) FROM p WHERE FALSE")
		if err != nil {
			t.Fatal(err)
		}
		c = db.CountersSnapshot()
		if res.Rows[0][0].I != 0 || c.TuplesRead != 0 || c.SegmentsScanned != 0 {
			t.Errorf("workers=%d: default deny read %d tuples over %d segments", workers, c.TuplesRead, c.SegmentsScanned)
		}
	}
}

// TestExplainReportsSegmentPruning checks the plan-time estimate EXPLAIN
// surfaces.
func TestExplainReportsSegmentPruning(t *testing.T) {
	db := buildSegDB(t, 10000, 64)
	stmt, err := sqlparser.Parse("SELECT * FROM p WHERE id BETWEEN 128 AND 191")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := db.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	ta := ex.Tables[0]
	if ta.Kind != AccessSeq {
		t.Skipf("planner chose %s; pruning estimate applies to seq scans", ta.Kind)
	}
	total := (10000 + 63) / 64
	if ta.Segments != total {
		t.Fatalf("Segments = %d, want %d", ta.Segments, total)
	}
	if ta.SegmentsPruned != total-1 {
		t.Fatalf("SegmentsPruned = %d, want %d", ta.SegmentsPruned, total-1)
	}
}

// TestExplainMatchesExecutedPruning: EXPLAIN assigns WHERE conjuncts to a
// table as execution does, constant ones included, so the pruning it
// predicts is the pruning the scan performs.
func TestExplainMatchesExecutedPruning(t *testing.T) {
	db := buildSegDB(t, 10000, 64)
	db.ScanWorkers = 1
	for _, q := range []string{
		"SELECT * FROM p WHERE FALSE",
		"SELECT * FROM p WHERE id BETWEEN 128 AND 191",
		"SELECT * FROM p WHERE id < 640 AND 1 = 2",
	} {
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := db.Explain(stmt)
		if err != nil {
			t.Fatal(err)
		}
		ta := ex.Tables[0]
		db.ResetCounters()
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
		c := db.CountersSnapshot()
		if ta.Kind != AccessSeq || int64(ta.SegmentsPruned) != c.SegmentsPruned || !ta.Vectorised {
			t.Errorf("%s: EXPLAIN %s prunes %d of %d segments (vectorised %v); the scan pruned %d and read %d tuples",
				q, ta.Kind, ta.SegmentsPruned, ta.Segments, ta.Vectorised, c.SegmentsPruned, c.TuplesRead)
		}
	}
}

// TestParallelScanCancellation cancels the context from inside the scan (a
// UDF side effect, so the trigger point is deterministic) and checks the
// error surfaces and the workers stop well short of the full heap.
func TestParallelScanCancellation(t *testing.T) {
	const n = 50000
	db := buildSegDB(t, n, 64)
	db.ScanWorkers = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	db.RegisterUDF("tick", func(_ *UDFContext, args []storage.Value) (storage.Value, error) {
		if calls.Add(1) == 500 {
			cancel()
		}
		return storage.NewBool(true), nil
	})
	db.ResetCounters()
	_, err := db.QueryCtx(ctx, "SELECT count(*) FROM p WHERE tick(val) = TRUE")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	c := db.CountersSnapshot()
	if c.TuplesRead >= n/2 {
		t.Fatalf("workers read %d of %d tuples after cancellation", c.TuplesRead, n)
	}
}

// TestParallelEarlyCloseStopsWorkers drives the operator directly: pull
// past the first segment so the workers are running, Close, and verify that
// Close waited for them — the merged counters are within the reorder window
// of what was handed out and do not move afterwards.
func TestParallelEarlyCloseStopsWorkers(t *testing.T) {
	const n, segRows, workers = 50000, 64, 4
	db := buildSegDB(t, n, segRows)
	db.ScanWorkers = workers
	tab := db.MustTable("p")
	ex := db.newExecutor(context.Background())
	tb := scanFilter(t, db, "p", mustParseWhere(t, "grp < 9"))
	plan := tb.access(db, tab, nil)
	if plan.fetch != nil {
		t.Fatal("expected a sequential plan")
	}
	it := &scanIter{ex: ex, t: tab, plan: plan, tb: tb}
	var last storage.Row
	for i := 0; i < 200; i++ {
		row, err := it.Next()
		if err != nil || row == nil {
			t.Fatalf("Next %d = %v, %v", i, row, err)
		}
		last = row
	}
	it.Close()
	read := ex.local.TuplesRead
	if ex.local.ParallelScans != 1 {
		t.Fatalf("ParallelScans = %d after pulling past the first segment", ex.local.ParallelScans)
	}
	if bound := last[0].I + (2*workers+1)*segRows; read > bound {
		t.Fatalf("early Close: workers read %d tuples, bound %d", read, bound)
	}
	// All workers have exited (Close waits); counters must not move.
	if again := ex.local.TuplesRead; again != read {
		t.Fatalf("counters moved after Close: %d -> %d", read, again)
	}
	if row, err := it.Next(); row != nil || err != nil {
		t.Fatalf("Next after Close = %v, %v", row, err)
	}
}

// TestIndexScanAcrossCompact pins the View consistency contract for index
// scans: the fetch list and the heap are captured together, so a Compact
// landing mid-scan (shifting every row id) must not drop or corrupt rows.
func TestIndexScanAcrossCompact(t *testing.T) {
	db := buildSegDB(t, 5000, 64)
	if err := db.CreateIndex("p", "grp"); err != nil {
		t.Fatal(err)
	}
	tab := db.MustTable("p")
	for i := 0; i < 300; i++ {
		if err := tab.Delete(storage.RowID(i * 7)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := db.Query("SELECT id FROM p WHERE grp = 3")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.Stream(context.Background(), "SELECT id FROM p WHERE grp = 3")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no first row")
	}
	got := []int64{rows.Row()[0].I}
	// Compact shifts every surviving row down; the open scan must not care.
	if err := db.Compact("p"); err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
		got = append(got, rows.Row()[0].I)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Rows) {
		t.Fatalf("index scan across Compact returned %d rows, want %d", len(got), len(want.Rows))
	}
	for i, id := range got {
		if id != want.Rows[i][0].I {
			t.Fatalf("row %d: id %d, want %d", i, id, want.Rows[i][0].I)
		}
	}
}

func mustParseWhere(t *testing.T, cond string) sqlparser.Expr {
	t.Helper()
	stmt, err := sqlparser.Parse("SELECT * FROM p WHERE " + cond)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.Body.Where
}

// TestAutoAnalyzeRefreshesStats verifies statistics and zone maps rebuild
// after threshold mutations, on the next planner use.
func TestAutoAnalyzeRefreshesStats(t *testing.T) {
	db := buildSegDB(t, 1000, 64)
	db.AutoAnalyzeThreshold = 500
	if err := db.CreateIndex("p", "id"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze("p"); err != nil {
		t.Fatal(err)
	}
	s0, _ := db.Stats("p")
	if s0.RowCount != 1000 {
		t.Fatalf("RowCount = %d", s0.RowCount)
	}

	// A bulk load past the threshold goes stale until the next use.
	var rows []storage.Row
	for i := 1000; i < 3000; i++ {
		rows = append(rows, storage.Row{storage.NewInt(int64(i)), storage.NewInt(0), storage.NewInt(0)})
	}
	if err := db.BulkInsert("p", rows); err != nil {
		t.Fatal(err)
	}
	s1, _ := db.StatsRefreshed("p")
	if s1.RowCount != 3000 {
		t.Fatalf("StatsRefreshed RowCount = %d, want 3000 after auto-analyze", s1.RowCount)
	}

	// Below the threshold nothing rebuilds.
	if err := db.Insert("p", storage.Row{storage.NewInt(3000), storage.NewInt(0), storage.NewInt(0)}); err != nil {
		t.Fatal(err)
	}
	s2, _ := db.StatsRefreshed("p")
	if s2.RowCount != 3000 {
		t.Fatalf("stats rebuilt below threshold: RowCount = %d", s2.RowCount)
	}

	// Disabled threshold never rebuilds.
	db.AutoAnalyzeThreshold = 0
	for i := 0; i < 600; i++ {
		if err := db.Insert("p", storage.Row{storage.NewInt(int64(4000 + i)), storage.NewInt(0), storage.NewInt(0)}); err != nil {
			t.Fatal(err)
		}
	}
	s3, _ := db.StatsRefreshed("p")
	if s3.RowCount != 3000 {
		t.Fatalf("auto-analyze ran while disabled: RowCount = %d", s3.RowCount)
	}
}

// TestCompactDuringParallelScan runs Compact concurrently with parallel
// scans: the copy-on-write swap must leave in-flight scans consistent
// (correct row counts, no duplicates) and the race detector quiet.
func TestCompactDuringParallelScan(t *testing.T) {
	db := buildSegDB(t, 20000, 64)
	db.ScanWorkers = 4
	tab := db.MustTable("p")
	for i := 0; i < 1000; i++ {
		if err := tab.Delete(storage.RowID(i * 2)); err != nil {
			t.Fatal(err)
		}
	}
	const wantLive = 19000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			if err := db.Compact("p"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		res, err := db.Query("SELECT count(*) FROM p WHERE grp >= 0")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].I; got != wantLive {
			t.Fatalf("scan during compact counted %d rows, want %d", got, wantLive)
		}
	}
	<-done
}
