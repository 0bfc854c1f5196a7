package engine

import (
	"fmt"
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/storage"
)

// benchGuardDB builds a 64k-row relation whose owners are spread over 256
// ids, with default-size segments, for the guard-disjunction scan shape.
func benchGuardDB(b *testing.B) *DB {
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
	if err := tbl.TrackOwners("owner"); err != nil {
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
					defer UseRowReference()()
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
