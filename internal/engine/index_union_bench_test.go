package engine

import (
	"fmt"
	"testing"

	"github.com/sieve-db/sieve/internal/storage"
)

// BenchmarkIndexUnionFetch produces the ids of a union of index lookups
// over a 180k-row table (the size of the hospital workload's readings) and
// hands them out in the fetch's batch ramp. "bitmap" is the fetch cursor;
// "sorted" is the union as it was built before, appended to one list,
// sorted and compacted. Point branches are val = v (~180 ids each, spread
// over the heap); range branches are id BETWEEN a AND a+99 (100 adjacent
// ids each).
func BenchmarkIndexUnionFetch(b *testing.B) {
	const n = 180_000
	db := buildSegDB(b, n, storage.SegmentSize)
	for _, c := range []string{"id", "val"} {
		if err := db.CreateIndex("p", c); err != nil {
			b.Fatal(err)
		}
	}
	view := db.MustTable("p").View()
	for _, shape := range []string{"point", "range"} {
		for _, k := range []int{2, 16, 256} {
			sargs := make([]sarg, k)
			for i := range sargs {
				if shape == "point" {
					sargs[i] = sarg{col: "val", points: []storage.Value{storage.NewInt(int64(i * 997 % 1000))}}
					continue
				}
				lo := int64(i) * 7919 % (n - 100)
				sargs[i] = sarg{col: "id", isRange: true, lo: storage.NewInt(lo), hi: storage.NewInt(lo + 99)}
			}
			b.Run(fmt.Sprintf("%s/branches=%d/bitmap", shape, k), func(b *testing.B) {
				b.ReportAllocs()
				var c Counters
				for b.Loop() {
					cur := fetchSargs(view, &c, sargs)
					for size := scanFirstBatch; len(cur.next(size)) > 0; size = min(2*size, storage.SegmentSize) {
					}
				}
			})
			b.Run(fmt.Sprintf("%s/branches=%d/sorted", shape, k), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					ids := sortedUnion(view, sargs)
					for size := scanFirstBatch; len(ids) > 0; size = min(2*size, storage.SegmentSize) {
						ids = ids[min(size, len(ids)):]
					}
				}
			})
		}
	}
}
