package engine

import (
	"context"
	"errors"
	"testing"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

func buildStreamDB(t *testing.T, n int) *DB {
	t.Helper()
	db := New(MySQL())
	schema := storage.MustSchema(
		storage.Column{Name: "id", Type: storage.KindInt},
		storage.Column{Name: "grp", Type: storage.KindInt},
	)
	if _, err := db.CreateTable("s", schema); err != nil {
		t.Fatal(err)
	}
	rows := make([]storage.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, storage.Row{storage.NewInt(int64(i)), storage.NewInt(int64(i % 7))})
	}
	if err := db.BulkInsert("s", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestStreamMatchesQuery checks the streaming surface returns exactly the
// materialised result, across plain scans, projections, DISTINCT, LIMIT,
// aggregation and set operations.
func TestStreamMatchesQuery(t *testing.T) {
	db := buildStreamDB(t, 500)
	queries := []string{
		"SELECT * FROM s",
		"SELECT id FROM s WHERE grp = 3",
		"SELECT DISTINCT grp FROM s",
		"SELECT id FROM s LIMIT 17",
		"SELECT grp, count(*) FROM s GROUP BY grp",
		"SELECT id FROM s ORDER BY id DESC LIMIT 3",
		"SELECT id FROM s WHERE grp = 1 UNION SELECT id FROM s WHERE grp = 2",
		"WITH w AS (SELECT id FROM s WHERE grp = 4) SELECT id FROM w WHERE id > 100",
	}
	ctx := context.Background()
	for _, q := range queries {
		want, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		rows, err := db.Stream(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var got []storage.Row
		for rows.Next() {
			got = append(got, rows.Row())
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		rows.Close()
		if len(got) != len(want.Rows) {
			t.Fatalf("%s: stream %d rows, query %d rows", q, len(got), len(want.Rows))
		}
		for i := range got {
			if rowKey(got[i]) != rowKey(want.Rows[i]) {
				t.Fatalf("%s: row %d differs: %v vs %v", q, i, got[i], want.Rows[i])
			}
		}
		if len(rows.Columns()) != len(want.Columns) {
			t.Fatalf("%s: column count %d vs %d", q, len(rows.Columns()), len(want.Columns))
		}
	}
}

// TestStreamLazyCTETermination verifies a single-use WITH body streams:
// a LIMIT on the outer query terminates the CTE's base-table scan early.
func TestStreamLazyCTETermination(t *testing.T) {
	const n = 10000
	db := buildStreamDB(t, n)
	db.Counters.Reset()
	res, err := db.Query("WITH w AS (SELECT * FROM s) SELECT id FROM w LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	if got := db.Counters.TuplesRead; got != scanFirstBatch {
		t.Fatalf("LIMIT 5 over lazy CTE read %d tuples, want the first batch (%d)", got, scanFirstBatch)
	}

	// A doubly-referenced CTE must still materialise (and be read fully).
	db.Counters.Reset()
	if _, err := db.Query("WITH w AS (SELECT * FROM s) SELECT a.id FROM w AS a, w AS b WHERE a.id = b.id LIMIT 5"); err != nil {
		t.Fatal(err)
	}
	if got := db.Counters.TuplesRead; got < n {
		t.Fatalf("multi-ref CTE read only %d of %d tuples; unsafe streaming?", got, n)
	}
}

// TestLazyCTEForwardReference pins the WITH scoping rule: a CTE body
// sees only earlier siblings, so a reference to a later CTE whose name
// shadows a base table must resolve to the base table even when the
// referencing CTE streams lazily.
func TestLazyCTEForwardReference(t *testing.T) {
	db := buildStreamDB(t, 3) // base table "s" with ids 0,1,2
	res, err := db.Query("WITH a AS (SELECT id FROM s), s AS (SELECT id + 99 AS id FROM s LIMIT 1) SELECT id FROM a")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("forward-shadowed CTE: got %d rows, want 3 (base table)", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[0].I >= 99 {
			t.Fatal("CTE body resolved a later sibling CTE instead of the base table")
		}
	}
	// The first body cannot see the clause's names, so its reference to "s"
	// does not count against the later CTE "s" streaming.
	stmt := sqlparser.MustParse("WITH a AS (SELECT id FROM s), s AS (SELECT id FROM a) SELECT id FROM s")
	sb, err := db.bind(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if lazy := sb.lazy; !lazy[0] || !lazy[1] {
		t.Fatalf("lazy WITH names = %v, want a and s", lazy)
	}
	// The later CTE itself is still usable from the statement body.
	res, err = db.Query("WITH a AS (SELECT id FROM s), b AS (SELECT id + 99 AS id FROM s LIMIT 1) SELECT id FROM b")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 99 {
		t.Fatalf("later CTE unusable: %v", res.Rows)
	}
}

// TestStreamScan exercises the typed Scan destinations: raw strings (not
// SQL-quoted literals), kind-mismatch errors instead of silent zeros, and
// arity checking.
func TestStreamScan(t *testing.T) {
	db := buildStreamDB(t, 10)
	schema := storage.MustSchema(
		storage.Column{Name: "name", Type: storage.KindString},
		storage.Column{Name: "f", Type: storage.KindFloat},
	)
	if _, err := db.CreateTable("names", schema); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("names", storage.Row{storage.NewString("o'brien"), storage.NewFloat(1.5)}); err != nil {
		t.Fatal(err)
	}

	rows, err := db.Stream(context.Background(), "SELECT id, grp FROM s LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no rows")
	}
	var id int64
	var grp storage.Value
	if err := rows.Scan(&id, &grp); err != nil {
		t.Fatal(err)
	}
	if id != 0 || grp.I != 0 {
		t.Fatalf("scanned id=%d grp=%v", id, grp)
	}
	if err := rows.Scan(&id); err == nil {
		t.Fatal("arity mismatch not caught")
	}

	nrows, err := db.Stream(context.Background(), "SELECT name, f FROM names")
	if err != nil {
		t.Fatal(err)
	}
	defer nrows.Close()
	if !nrows.Next() {
		t.Fatal("no name rows")
	}
	var name string
	var f float64
	if err := nrows.Scan(&name, &f); err != nil {
		t.Fatal(err)
	}
	if name != "o'brien" {
		t.Fatalf("string scan = %q, want the raw stored string", name)
	}
	if f != 1.5 {
		t.Fatalf("float scan = %v", f)
	}
	// Kind mismatch must error, not silently zero.
	var wrong int64
	if err := nrows.Scan(&name, &wrong); err == nil {
		t.Fatal("scanning FLOAT into *int64 did not error")
	}
	if err := nrows.Scan(&wrong, &f); err == nil {
		t.Fatal("scanning VARCHAR into *int64 did not error")
	}
}

// TestQueryCtxCancellation checks both the up-front rejection of a dead
// context and cancellation during iteration.
func TestQueryCtxCancellation(t *testing.T) {
	db := buildStreamDB(t, 5000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryCtx(ctx, "SELECT * FROM s"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled QueryCtx = %v", err)
	}
	if _, err := db.Stream(ctx, "SELECT * FROM s"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Stream = %v", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	rows, err := db.Stream(ctx2, "SELECT * FROM s")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no first row")
	}
	cancel2()
	n := 0
	for rows.Next() {
		n++
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want Canceled", rows.Err())
	}
	if n > 4*ctxCheckInterval {
		t.Fatalf("%d rows produced after cancellation (interval %d)", n, ctxCheckInterval)
	}
}

// TestConcurrentQueriesCounterMerge runs parallel queries and checks the
// DB counters equal the serial sum — the per-executor counters must not
// lose updates when merged.
func TestConcurrentQueriesCounterMerge(t *testing.T) {
	db := buildStreamDB(t, 1000)
	db.Counters.Reset()
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			_, err := db.Query("SELECT count(*) FROM s")
			errs <- err
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got, want := db.Counters.TuplesRead, int64(workers*1000); got != want {
		t.Fatalf("merged TuplesRead = %d, want %d", got, want)
	}
}
