package engine

import (
	"testing"

	"github.com/sieve-db/sieve/internal/storage"
)

// allocSlack is how many more allocations a query may make over a table ten
// times larger: the few a slice makes growing by doubling to a length that
// does not depend on the row count, or a map to a few more buckets.
const allocSlack = 4

// buildAllocDB is a table t of n rows (id, grp, val) with grp indexed: grp
// is id%7 and val is id%50, so each shape below reads the whole table or a
// seventh of it and returns the same few rows at every size.
func buildAllocDB(tb testing.TB, n int) *DB {
	tb.Helper()
	db := New(MySQL())
	db.ScanWorkers = 1
	schema := storage.MustSchema(
		storage.Column{Name: "id", Type: storage.KindInt},
		storage.Column{Name: "grp", Type: storage.KindInt},
		storage.Column{Name: "val", Type: storage.KindInt},
	)
	if _, err := db.CreateTable("t", schema); err != nil {
		tb.Fatal(err)
	}
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{storage.NewInt(int64(i)), storage.NewInt(int64(i % 7)), storage.NewInt(int64(i % 50))}
	}
	if err := db.BulkInsert("t", rows); err != nil {
		tb.Fatal(err)
	}
	if err := db.CreateIndex("t", "grp"); err != nil {
		tb.Fatal(err)
	}
	return db
}

// TestQueryAllocsDoNotGrowWithRows drains four shapes through DB.Query over
// 2,000 and 20,000 rows — an index fetch whose filter keeps a constant
// number of rows, a sequential scan likewise, ORDER BY ... LIMIT and a
// grouped aggregate — and holds the larger table's allocations per query to
// the smaller's plus allocSlack: the row pipeline allocates per operator,
// not per row or per batch.
func TestQueryAllocsDoNotGrowWithRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects on purpose")
	}
	small, large := buildAllocDB(t, 2000), buildAllocDB(t, 20000)
	for _, q := range []struct{ name, sql string }{
		{"index fetch", "SELECT * FROM t WHERE grp = 3 AND id < 100"},
		{"sequential scan", "SELECT * FROM t WHERE id < 100 AND val = 3"},
		{"order by limit", "SELECT id, val FROM t ORDER BY val DESC, id LIMIT 5"},
		{"grouped aggregate", "SELECT grp, count(*), sum(val), min(id), avg(val) FROM t GROUP BY grp"},
	} {
		allocs := func(db *DB) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := db.Query(q.sql); err != nil {
					t.Fatal(err)
				}
			})
		}
		s, l := allocs(small), allocs(large)
		t.Logf("%s: %.0f allocations over 2,000 rows, %.0f over 20,000", q.name, s, l)
		if l > s+allocSlack {
			t.Errorf("%s: %.0f allocations over 20,000 rows, %.0f over 2,000: more than %d more", q.name, l, s, allocSlack)
		}
	}
}
