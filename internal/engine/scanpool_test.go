package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// A scan's working memory — its batch filter's row batch and scratch stacks
// — comes from a pool and goes back when the operator that took it is done.
// These tests hold the operators to taking and releasing each filter exactly
// once, to releasing it holding nothing, and to filtering correctly whatever
// table the pooled state last served.

// poolDB builds two tables of different widths over 64-slot segments, so
// scans fan out, each with an index on grp: "w" (id, grp, val and four
// string columns) of 3000 rows and "n" (id, grp, val) of 5000.
func poolDB(t testing.TB) *DB {
	t.Helper()
	db := New(MySQL())
	db.UDFOverheadIters = 0
	for _, tc := range []struct {
		name  string
		n     int
		extra int
	}{{"w", 3000, 4}, {"n", 5000, 0}} {
		cols := []storage.Column{
			{Name: "id", Type: storage.KindInt},
			{Name: "grp", Type: storage.KindInt},
			{Name: "val", Type: storage.KindInt},
		}
		for c := 0; c < tc.extra; c++ {
			cols = append(cols, storage.Column{Name: fmt.Sprintf("s%d", c), Type: storage.KindString})
		}
		if _, err := db.CreateTable(tc.name, storage.MustSchema(cols...)); err != nil {
			t.Fatal(err)
		}
		db.MustTable(tc.name).SetSegmentSize(64)
		rows := make([]storage.Row, tc.n)
		for i := range rows {
			row := storage.Row{
				storage.NewInt(int64(i)),
				storage.NewInt(int64(i % 10)),
				storage.NewInt(int64((i * 7919) % 1000)),
			}
			for c := 0; c < tc.extra; c++ {
				row = append(row, storage.NewString(fmt.Sprintf("%s-%d-%d", tc.name, i, c)))
			}
			rows[i] = row
		}
		if err := db.BulkInsert(tc.name, rows); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateIndex(tc.name, "grp"); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// poolQueries are scans and fetches, drained and stopped early by LIMIT,
// over both tables; the filters do arithmetic, so the value stack is used.
func poolQueries() []string {
	var qs []string
	for _, tbl := range []string{"w", "n"} {
		qs = append(qs,
			"SELECT * FROM "+tbl+" USE INDEX () WHERE grp = 3 OR val + 1 < 100",
			"SELECT * FROM "+tbl+" USE INDEX () WHERE grp = 3 OR val + 1 < 100 LIMIT 5",
			"SELECT count(*) FROM "+tbl+" USE INDEX () WHERE grp < 7 AND val * 2 > 300",
			"SELECT * FROM "+tbl+" FORCE INDEX (grp) WHERE grp = 4 AND val - 1 < 700",
			"SELECT * FROM "+tbl+" FORCE INDEX (grp) WHERE grp IN (2, 5, 8) AND (val < 500 OR id > 2000)",
			"SELECT * FROM "+tbl+" FORCE INDEX (grp) WHERE grp IN (2, 5, 8) AND val < 900 LIMIT 7",
		)
	}
	return qs
}

// referenceResults runs every query with the rowPasses reference filtering.
func referenceResults(t *testing.T, db *DB, qs []string) map[string][]storage.Row {
	t.Helper()
	defer db.UseRowReference()()
	want := make(map[string][]storage.Row, len(qs))
	for _, q := range qs {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s (reference): %v", q, err)
		}
		want[q] = res.Rows
	}
	return want
}

// sameRows reports how got differs from want, or "" when they are equal.
func sameRows(got, want []storage.Row) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if rowKey(got[i]) != rowKey(want[i]) {
			return fmt.Sprintf("row %d is %v, want %v", i, got[i], want[i])
		}
	}
	return ""
}

// filterLedger follows watched filters: each must be released exactly once
// after being taken, and must be released holding nothing.
type filterLedger struct {
	t     *testing.T
	mu    sync.Mutex
	out   map[*batchFilter]bool
	taken []*batchFilter // in take order
}

func watchLedger(t *testing.T, db *DB) *filterLedger {
	l := &filterLedger{t: t, out: make(map[*batchFilter]bool)}
	t.Cleanup(db.watchFilters(l.event))
	return l
}

func (l *filterLedger) event(f *batchFilter, taken bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case taken && l.out[f]:
		l.t.Errorf("filter %p taken while out", f)
	case taken:
		l.out[f] = true
		l.taken = append(l.taken, f)
	case !l.out[f]:
		l.t.Errorf("filter %p released without being out: released twice", f)
	default:
		delete(l.out, f)
		if what := f.pinned(); what != "" {
			l.t.Errorf("released filter %p still reaches %s", f, what)
		}
	}
}

// settle returns how many filters were taken since the last settle, and
// fails if any of them is still out.
func (l *filterLedger) settle(what string) int {
	l.t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.out) != 0 {
		l.t.Fatalf("%s: %d filters never released", what, len(l.out))
	}
	n := len(l.taken)
	l.taken = l.taken[:0]
	return n
}

// TestAccessOperatorsReleaseStateOnceAfterClose drives the index fetch and
// the sequential scan — serial, and with the fan-out running — through early
// Close, exhaustion and Close before the first row: after Close, Next
// returns (nil, nil), a second Close does nothing, and every filter the
// operator took (one, or one per worker more) went back exactly once.
func TestAccessOperatorsReleaseStateOnceAfterClose(t *testing.T) {
	const workers = 4
	db := poolDB(t)
	db.ScanWorkers = workers
	ledger := watchLedger(t, db)
	for _, tc := range []struct {
		name, sql string
		pull      int // rows to pull before Close; -1 drains
		op        string
		filters   int
	}{
		{"fetch, early Close", "SELECT * FROM w FORCE INDEX (grp) WHERE grp IN (2, 5) AND val < 900", 3, "fetch", 1},
		{"fetch, drained", "SELECT * FROM w FORCE INDEX (grp) WHERE grp IN (2, 5) AND val < 900", -1, "fetch", 1},
		{"fetch, Close first", "SELECT * FROM w FORCE INDEX (grp) WHERE grp = 2", 0, "fetch", 0},
		{"scan, early Close", "SELECT * FROM w USE INDEX () WHERE val < 900", 3, "scan", 1},
		{"scan with fan-out, early Close", "SELECT * FROM w USE INDEX () WHERE val < 900", 200, "scan", 1 + workers},
		{"scan with fan-out, drained", "SELECT * FROM n USE INDEX () WHERE val < 900", -1, "scan", 1 + workers},
		{"scan, Close first", "SELECT * FROM n USE INDEX () WHERE val < 900", 0, "scan", 0},
	} {
		rows, err := db.Stream(context.Background(), tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		it := rows.access()
		if _, ok := it.(*fetchIter); ok != (tc.op == "fetch") {
			t.Fatalf("%s: access operator is %T", tc.name, it)
		}
		for i := 0; tc.pull < 0 || i < tc.pull; i++ {
			if !rows.Next() {
				if tc.pull >= 0 {
					t.Fatalf("%s: stream ended after %d rows", tc.name, i)
				}
				break
			}
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rows.Close()
		if row, err := it.Next(); row != nil || err != nil {
			t.Fatalf("%s: Next after Close = %v, %v", tc.name, row, err)
		}
		it.Close()
		if got := ledger.settle(tc.name); got != tc.filters {
			t.Fatalf("%s: %d filters taken, want %d", tc.name, got, tc.filters)
		}
	}
}

// TestPooledFilterAcrossTableWidths interleaves scans and fetches over the
// wide table, the narrow one and the wide one again on one goroutine, so the
// pool hands the same state from table to table. Under the column-checked
// reference every column vector of every batch must be the current table's,
// and the compiled filter's rows must equal the reference's.
func TestPooledFilterAcrossTableWidths(t *testing.T) {
	db := poolDB(t)
	db.ScanWorkers = 1
	ledger := watchLedger(t, db)
	var prev *batchFilter
	reused := 0
	query := func(q string) []storage.Row {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		ledger.mu.Lock()
		if len(ledger.taken) > 0 {
			if ledger.taken[0] == prev {
				reused++
			}
			prev = ledger.taken[len(ledger.taken)-1]
		}
		ledger.mu.Unlock()
		ledger.settle(q)
		return res.Rows
	}
	for round := 0; round < 5; round++ {
		for _, tbl := range []string{"w", "n", "w"} {
			for _, q := range []string{
				"SELECT * FROM " + tbl + " USE INDEX () WHERE grp = 3 OR val + 1 < 100",
				"SELECT * FROM " + tbl + " FORCE INDEX (grp) WHERE grp IN (2, 5, 8) AND (val < 500 OR id > 2000)",
			} {
				got := query(q)
				restore := db.useColumnCheckedReference()
				want := query(q)
				restore()
				if diff := sameRows(got, want); diff != "" {
					t.Fatalf("round %d, %s: compiled filter %s", round, q, diff)
				}
			}
		}
	}
	t.Logf("%d of %d executions took the state the one before released", reused, 5*3*2*2)
	if reused == 0 {
		t.Fatal("no execution reused a pooled filter state")
	}
}

// TestPreparedScanAllocsBelowOneBatch: a warmed prepared guard-shaped
// sequential scan allocates less per execution than one segment's row
// slice — the batch and the scratch stacks come from the pool, not from
// growing them afresh up to a segment. The median of single executions is
// held to the bound because a pool may drop what is put in it (the race
// detector drops a quarter on purpose).
func TestPreparedScanAllocsBelowOneBatch(t *testing.T) {
	db := benchGuardDB(t)
	if segs := db.MustTable("t").SegmentCount(); segs < 4 {
		t.Fatalf("table has %d segments, want at least 4", segs)
	}
	prep := db.Prepare(sqlparser.MustParse("SELECT count(*) FROM t WHERE " + guardDisjunction(25)))
	query := func() {
		if _, err := Collect(prep.Stream(context.Background())); err != nil {
			t.Fatal(err)
		}
	}
	query()
	query()
	const runs = 41
	per := make([]uint64, runs)
	var ms runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		query()
		runtime.ReadMemStats(&ms)
		per[i] = ms.TotalAlloc - before
	}
	slices.Sort(per)
	median := per[runs/2]
	bound := uint64(storage.SegmentSize) * uint64(unsafe.Sizeof(storage.Row{}))
	t.Logf("bytes per execution: median %d, min %d, max %d; bound %d", median, per[0], per[runs-1], bound)
	if median >= bound {
		t.Fatalf("a warmed prepared scan allocates %d bytes per execution, not below one segment's row slice (%d)", median, bound)
	}
}

// TestConcurrentPooledScansMatchReference: 8 goroutines run drained and
// early-closed scans and fetches over the two tables with 4 scan workers,
// taking and releasing pooled state concurrently, and every result equals
// the rowPasses reference's.
func TestConcurrentPooledScansMatchReference(t *testing.T) {
	db := poolDB(t)
	db.ScanWorkers = 4
	qs := poolQueries()
	want := referenceResults(t, db, qs)
	ledger := watchLedger(t, db)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range qs {
					q := qs[(k+g*5+round)%len(qs)]
					if g%2 == 0 {
						res, err := db.Query(q)
						if err != nil {
							t.Errorf("%s: %v", q, err)
							return
						}
						if diff := sameRows(res.Rows, want[q]); diff != "" {
							t.Errorf("%s: %s", q, diff)
							return
						}
						continue
					}
					// Stop after a few rows: the operator is closed early.
					rows, err := db.Stream(context.Background(), q)
					if err != nil {
						t.Errorf("%s: %v", q, err)
						return
					}
					var got []storage.Row
					for len(got) < 3 && rows.Next() {
						got = append(got, rows.Row())
					}
					rows.Close()
					if err := rows.Err(); err != nil {
						t.Errorf("%s: %v", q, err)
						return
					}
					if diff := sameRows(got, want[q][:min(3, len(want[q]))]); diff != "" {
						t.Errorf("%s, first rows: %s", q, diff)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	ledger.settle("concurrent scans")
}
