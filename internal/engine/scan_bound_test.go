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
// the UDF's invocation count included. An index fetch list loads in the same
// ramp: stopping at the p-th fetched id has read at most min(2p+64, len(ids))
// tuples, on one goroutine whatever the worker budget. A union of lookups —
// a bitmap OR, or an IN list — is a heap-order bitmap walked in that ramp,
// under the same bound over the union's ids, and its id buffer never grows
// past one segment's worth.
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

		// The fetch list of grp = 3 is ids 3, 13, 23, …: n/10 of them, the
		// p-th (from 1) holding id 10(p-1)+3.
		if err := db.CreateIndex("p", "grp"); err != nil {
			t.Fatal(err)
		}
		for _, arm := range []struct{ name, where string }{
			{"inline", "grp = 3 AND (val < 950 OR id < 0)"},
			{"delta", "grp = 3 AND (val < 950 AND chk(val) = TRUE OR id < 0)"},
		} {
			for _, k := range []int{1, 5, 40, 400, n / 10} {
				for _, stop := range []string{"limit", "close"} {
					name := fmt.Sprintf("workers=%d/fetch/%s/k=%d/%s", workers, arm.name, k, stop)
					sql := "SELECT id FROM p FORCE INDEX (grp) WHERE " + arm.where
					if stop == "limit" {
						sql += fmt.Sprintf(" LIMIT %d", k)
					}
					rows, err := db.Stream(context.Background(), sql)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var p int64
					got := 0
					for got < k && rows.Next() {
						p = (rows.Row()[0].I-3)/10 + 1
						got++
					}
					rows.Close()
					if err := rows.Err(); err != nil || got == 0 {
						t.Fatalf("%s: %d rows, err %v", name, got, err)
					}
					c := rows.Counters()
					bound := min(2*p+scanFirstBatch, n/10)
					if c.IndexScans != 1 || c.ParallelScans != 0 || c.BatchesVectorised == 0 {
						t.Errorf("%s: not a batch-filtered fetch list on one goroutine: %+v", name, c)
					}
					if c.TuplesRead > bound || c.UDFInvocations > bound {
						t.Errorf("%s: stopped at fetched id %d: TuplesRead=%d UDFInvocations=%d, bound %d",
							name, p, c.TuplesRead, c.UDFInvocations, bound)
					}
				}
			}
		}

		// Unions: the fetch is the ascending ids the sequential scan returns.
		if err := db.CreateIndex("p", "val"); err != nil {
			t.Fatal(err)
		}
		for _, arm := range []struct {
			name, hint, where string
			bitmapOr          bool
		}{
			{"bitmap-or", "grp, val", "grp = 3 OR val = 7", true},
			{"in-list", "grp", "grp IN (3, 7)", false},
			{"wide", "grp, val", "grp IN (1, 3, 5, 7) OR val < 10", true},
		} {
			all, err := db.Query("SELECT id FROM p USE INDEX () WHERE " + arm.where)
			if err != nil {
				t.Fatal(err)
			}
			pos := make(map[int64]int64, len(all.Rows)) // id → 1-based place in the fetch
			for i, r := range all.Rows {
				pos[r[0].I] = int64(i + 1)
			}
			total := int64(len(all.Rows))
			for _, k := range []int{1, 5, 40, 400, len(all.Rows)} {
				for _, stop := range []string{"limit", "close"} {
					name := fmt.Sprintf("workers=%d/%s/k=%d/%s", workers, arm.name, k, stop)
					sql := fmt.Sprintf("SELECT id FROM p FORCE INDEX (%s) WHERE %s", arm.hint, arm.where)
					if stop == "limit" {
						sql += fmt.Sprintf(" LIMIT %d", k)
					}
					rows, err := db.Stream(context.Background(), sql)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var p int64
					got := 0
					for got < k && rows.Next() {
						p = pos[rows.Row()[0].I]
						if p != int64(got+1) {
							t.Fatalf("%s: row %d is fetched id %d: not the union in heap order", name, got+1, p)
						}
						got++
					}
					bufCap := rows.fetchBufCap()
					rows.Close()
					if err := rows.Err(); err != nil || got != k {
						t.Fatalf("%s: %d rows, err %v", name, got, err)
					}
					c := rows.Counters()
					if arm.bitmapOr != (c.BitmapOrScans == 1) || arm.bitmapOr == (c.IndexScans == 1) || c.ParallelScans != 0 {
						t.Errorf("%s: not the %s plan on one goroutine: %+v", name, arm.name, c)
					}
					if bound := min(2*p+scanFirstBatch, total); c.TuplesRead > bound {
						t.Errorf("%s: stopped at fetched id %d: TuplesRead=%d, bound %d", name, p, c.TuplesRead, bound)
					}
					if bufCap <= 0 || bufCap > storage.SegmentSize {
						t.Errorf("%s: fetch id buffer capacity %d of a %d-id union, want (0, %d]",
							name, bufCap, total, storage.SegmentSize)
					}
				}
			}
		}
	}
}
