package engine

import (
	"context"
	"fmt"
	"testing"

	"github.com/sieve-db/sieve/internal/storage"
)

// TestEarlyStopReadBound is the operator's early-termination guarantee: a
// consumer that stops after k rows — a LIMIT running out or an early Close —
// has paid for at most one batch past the k-th row's heap position. Inside
// the first scanned segment that batch is a step of the doubling ramp;
// past it, a whole segment on one goroutine, or the fan-out's reorder
// window of 2×workers segments behind the one being consumed. Inline arms
// and Δ-style arms (a UDF per surviving row) are held to the same bound,
// the UDF's invocation count included.
func TestEarlyStopReadBound(t *testing.T) {
	const n, segRows = 20000, 256
	arms := []struct{ name, where string }{
		{"inline", "(grp = 3 AND val < 950) OR (grp = 7 AND id >= 0)"},
		{"delta", "(grp = 3 AND chk(val) = TRUE) OR (grp = 7 AND chk(id) = TRUE)"},
	}
	for _, workers := range []int{1, 4} {
		db := buildSegDB(t, n, segRows)
		db.ScanWorkers = workers
		db.RegisterUDF("chk", func(_ *UDFContext, args []storage.Value) (storage.Value, error) {
			return storage.NewBool(args[0].I != 999), nil
		})
		for _, arm := range arms {
			for _, k := range []int{1, 5, 40, 400} {
				for _, stop := range []string{"limit", "close"} {
					name := fmt.Sprintf("workers=%d/%s/k=%d/%s", workers, arm.name, k, stop)
					sql := "SELECT id FROM p WHERE " + arm.where
					if stop == "limit" {
						sql += fmt.Sprintf(" LIMIT %d", k)
					}
					rows, err := db.Stream(context.Background(), sql)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var pos int64 // id is the heap slot: clustered, no deletes
					got := 0
					for got < k && rows.Next() {
						pos = rows.Row()[0].I
						got++
					}
					if stop == "limit" && rows.Next() {
						t.Fatalf("%s: LIMIT let a row past", name)
					}
					rows.Close()
					if err := rows.Err(); err != nil || got != k {
						t.Fatalf("%s: %d rows, err %v", name, got, err)
					}
					c := rows.Counters()

					inFirst := pos < segRows
					bound := pos + segRows
					switch {
					case inFirst:
						bound = min(bound, 2*pos+scanFirstBatch)
					case workers > 1:
						bound = pos + int64(2*workers+1)*segRows
					}
					if c.TuplesRead > bound || c.UDFInvocations > 2*bound {
						t.Errorf("%s: k-th row at slot %d: TuplesRead=%d UDFInvocations=%d, bound %d",
							name, pos, c.TuplesRead, c.UDFInvocations, bound)
					}
					if fanned := c.ParallelScans == 1; fanned != (workers > 1 && !inFirst) {
						t.Errorf("%s: k-th row at slot %d: ParallelScans=%d", name, pos, c.ParallelScans)
					}
				}
			}
		}
	}
}
