package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// benchGuardDB builds a 64k-row relation whose owners are spread over 256
// ids, with default-size segments, for the guard-disjunction scan shape.
func benchGuardDB(b testing.TB) *DB {
	b.Helper()
	schema := storage.MustSchema(
		storage.Column{Name: "owner", Type: storage.KindInt},
		storage.Column{Name: "x", Type: storage.KindInt},
	)
	db := New(MySQL())
	db.UDFOverheadIters = 0
	db.ScanWorkers = 1 // measure evaluation, not fan-out
	tbl, err := db.CreateTable("t", schema)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]storage.Row, 0, 1<<16)
	for i := 0; i < 1<<16; i++ {
		rows = append(rows, storage.Row{storage.NewInt(int64(i % 256)), storage.NewInt(int64(i))})
	}
	if err := tbl.BulkInsert(rows); err != nil {
		b.Fatal(err)
	}
	return db
}

// guardDisjunction builds the §5.3 WHERE shape with n arms:
// (owner = k AND x BETWEEN lo AND hi) OR …
func guardDisjunction(n int) string {
	arms := make([]string, n)
	for i := range arms {
		arms[i] = fmt.Sprintf("(owner = %d AND x BETWEEN %d AND %d)", i*3%256, i*100, i*100+5000)
	}
	return strings.Join(arms, " OR ")
}

// BenchmarkVectorisedScan compares the rowPasses reference and the compiled
// batch filter on guard disjunctions at 1, 25 and 100 guards per query —
// the measurement behind the vectorised evaluator. Run with:
//
//	go test -run='^$' -bench BenchmarkVectorisedScan -benchtime=2s ./internal/engine
func BenchmarkVectorisedScan(b *testing.B) {
	db := benchGuardDB(b)
	for _, guards := range []int{1, 25, 100} {
		sql := "SELECT count(*) FROM t WHERE " + guardDisjunction(guards)
		for _, mode := range []struct {
			name   string
			rowRef bool
		}{{"row", true}, {"vector", false}} {
			b.Run(fmt.Sprintf("guards=%d/%s", guards, mode.name), func(b *testing.B) {
				if mode.rowRef {
					defer db.UseRowReference()()
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := db.Query(sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkInMembership measures a `col IN (…)` filter over the 64k-row
// relation at 3, 8, 32 and 256 integer members, through the compiled
// program (inConst) and through rowPasses (evalIn): the measurement behind
// memberSet and hashMinMembers. The members are the even owners from 0, so
// the bigger lists hit more rows. Run with:
//
//	go test -run='^$' -bench BenchmarkInMembership -benchtime=20x ./internal/engine
func BenchmarkInMembership(b *testing.B) {
	db := benchGuardDB(b)
	for _, n := range []int{3, 8, 32, 256} {
		members := make([]string, n)
		for i := range members {
			members[i] = fmt.Sprint(2 * i)
		}
		sql := "SELECT count(*) FROM t WHERE owner IN (" + strings.Join(members, ", ") + ")"
		for _, mode := range []struct {
			name   string
			rowRef bool
		}{{"row", true}, {"vector", false}} {
			b.Run(fmt.Sprintf("members=%d/%s", n, mode.name), func(b *testing.B) {
				if mode.rowRef {
					defer db.UseRowReference()()
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := db.Query(sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// dispatchBenchDB builds 64k rows over ten owners (stored in runs, like data
// clustered by owner) with indexes on x and owner, and returns it with a
// guard disjunction of the given number of owner-keyed arms. Only the first
// ten arms' owners exist, so every tuple selects exactly one arm whatever
// the arm count: what varies between sizes is the operator, not the data.
func dispatchBenchDB(tb testing.TB, arms int) (*DB, string) {
	tb.Helper()
	schema := storage.MustSchema(
		storage.Column{Name: "owner", Type: storage.KindInt},
		storage.Column{Name: "x", Type: storage.KindInt},
	)
	db := New(MySQL())
	db.UDFOverheadIters = 0
	db.ScanWorkers = 1 // measure evaluation, not fan-out
	if _, err := db.CreateTable("t", schema); err != nil {
		tb.Fatal(err)
	}
	rows := make([]storage.Row, 0, 1<<16)
	for i := 0; i < 1<<16; i++ {
		rows = append(rows, storage.Row{storage.NewInt(int64(i / 64 % 10)), storage.NewInt(int64(i))})
	}
	if err := db.BulkInsert("t", rows); err != nil {
		tb.Fatal(err)
	}
	for _, col := range []string{"x", "owner"} {
		if err := db.CreateIndex("t", col); err != nil {
			tb.Fatal(err)
		}
	}
	parts := make([]string, arms)
	for a := range parts {
		parts[a] = fmt.Sprintf("(owner = %d AND (owner = %d AND x BETWEEN 0 AND 40000 OR owner = %d AND x > 50000))", a, a, a)
	}
	return db, strings.Join(parts, " OR ")
}

// BenchmarkDispatch measures a prepared guarded access at 10, 100 and 1000
// owner-keyed arms on both access paths — an 8192-id index fetch list and a
// 64k-tuple sequential scan — reporting ns/tuple beside allocs/op: with
// dispatch neither follows the arm count. Run with:
//
//	go test -run='^$' -bench BenchmarkDispatch -benchtime=200x ./internal/engine
func BenchmarkDispatch(b *testing.B) {
	for _, arms := range []int{10, 100, 1000} {
		db, where := dispatchBenchDB(b, arms)
		for _, path := range []struct{ name, sql string }{
			{"fetch", "SELECT count(*) FROM t FORCE INDEX (x) WHERE x BETWEEN 0 AND 8191 AND (" + where + ")"},
			{"seq", "SELECT count(*) FROM t USE INDEX () WHERE " + where},
		} {
			b.Run(fmt.Sprintf("arms=%d/%s", arms, path.name), func(b *testing.B) {
				prep := db.Prepare(sqlparser.MustParse(path.sql))
				if _, err := Collect(prep.Stream(context.Background())); err != nil { // bind, compile the arms in use
					b.Fatal(err)
				}
				db.ResetCounters()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Collect(prep.Stream(context.Background())); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(db.CountersSnapshot().TuplesRead), "ns/tuple")
			})
		}
	}
}

// TestPreparedPointLookupAllocsFlatInArms: executing a cached prepared point
// lookup through a guarded CTE — probe, fetch, filter — allocates about the
// same at 1000 arms as at 10 (within 2x), because everything that grows with
// the expression was bound at the first execution.
func TestPreparedPointLookupAllocsFlatInArms(t *testing.T) {
	allocs := func(arms int) float64 {
		db, where := dispatchBenchDB(t, arms)
		prep := db.Prepare(sqlparser.MustParse(
			"WITH g AS (SELECT * FROM t FORCE INDEX (owner) WHERE owner = 5 AND x < 700 AND (" + where + ")) SELECT x FROM g"))
		query := func() {
			res, err := Collect(prep.Stream(context.Background()))
			if err != nil || len(res.Rows) != 64 {
				t.Fatalf("%d arms: %d rows, err %v", arms, len(res.Rows), err)
			}
		}
		query()
		return testing.AllocsPerRun(20, query)
	}
	few, many := allocs(10), allocs(1000)
	t.Logf("allocs per execution: %.0f at 10 arms, %.0f at 1000", few, many)
	if many > 2*few {
		t.Fatalf("a cached execution allocates %.0f times at 1000 arms against %.0f at 10", many, few)
	}
}
