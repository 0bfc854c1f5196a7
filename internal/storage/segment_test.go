package storage

import (
	"fmt"
	"testing"
)

func segTable(t *testing.T, segSize, n int) *Table {
	t.Helper()
	schema := MustSchema(
		Column{Name: "id", Type: KindInt},
		Column{Name: "grp", Type: KindInt},
	)
	tab := NewTable("seg", schema)
	tab.SetSegmentSize(segSize)
	rows := make([]Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, Row{NewInt(int64(i)), NewInt(int64(i % 5))})
	}
	if err := tab.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestSegmentZoneMapsAfterBulkInsert(t *testing.T) {
	tab := segTable(t, 16, 100) // 7 segments: 6 full + 4 rows
	if got, want := tab.SegmentCount(), 7; got != want {
		t.Fatalf("SegmentCount = %d, want %d", got, want)
	}
	for s := 0; s < tab.SegmentCount(); s++ {
		z, ok := tab.SegmentZone(s, "id")
		if !ok {
			t.Fatalf("no zone for segment %d", s)
		}
		wantLo, wantHi := int64(s*16), int64(s*16+15)
		if wantHi > 99 {
			wantHi = 99
		}
		if z.Min.I != wantLo || z.Max.I != wantHi {
			t.Errorf("segment %d id zone [%d,%d], want [%d,%d]", s, z.Min.I, z.Max.I, wantLo, wantHi)
		}
		if want := int(wantHi-wantLo) + 1; z.Distinct != want {
			t.Errorf("segment %d Distinct = %d, want %d", s, z.Distinct, want)
		}
		if live := tab.SegmentLive(s); live != int(wantHi-wantLo)+1 {
			t.Errorf("segment %d live = %d", s, live)
		}
	}
	// The clustered id column prunes; the cycling grp column does not.
	if frac := tab.PruneFracRange("id", NewInt(0), NewInt(15)); frac < 0.8 {
		t.Errorf("id prune fraction = %.2f, want most segments pruned", frac)
	}
	if frac := tab.PruneFracRange("grp", NewInt(2), NewInt(2)); frac != 0 {
		t.Errorf("grp prune fraction = %.2f, want 0 (value present everywhere)", frac)
	}
}

func TestSegmentWidenOnInsertAndUpdate(t *testing.T) {
	tab := segTable(t, 16, 16) // exactly one full segment
	if _, err := tab.Insert(Row{NewInt(1000), NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if got := tab.SegmentCount(); got != 2 {
		t.Fatalf("SegmentCount after overflow insert = %d, want 2", got)
	}
	z, _ := tab.SegmentZone(1, "id")
	if z.Min.I != 1000 || z.Max.I != 1000 {
		t.Fatalf("new segment zone [%d,%d], want [1000,1000]", z.Min.I, z.Max.I)
	}
	// Update widens conservatively.
	if err := tab.Update(3, Row{NewInt(-7), NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	z, _ = tab.SegmentZone(0, "id")
	if z.Min.I != -7 {
		t.Fatalf("zone min after update = %d, want -7", z.Min.I)
	}
	// RebuildSegments tightens back to exact bounds.
	if err := tab.Delete(3); err != nil {
		t.Fatal(err)
	}
	tab.RebuildSegments()
	z, _ = tab.SegmentZone(0, "id")
	if z.Min.I != 0 {
		t.Fatalf("zone min after rebuild = %d, want 0", z.Min.I)
	}
	if live := tab.SegmentLive(0); live != 15 {
		t.Fatalf("live after delete+rebuild = %d, want 15", live)
	}
}

func TestZoneMapMayContain(t *testing.T) {
	z := ZoneMap{Min: NewInt(10), Max: NewInt(20)}
	cases := []struct {
		lo, hi   Value
		loS, hiS bool
		want     bool
	}{
		{NewInt(15), NewInt(15), false, false, true},
		{NewInt(21), Null, false, false, false},
		{NewInt(20), Null, true, false, false},
		{NewInt(20), Null, false, false, true},
		{Null, NewInt(9), false, false, false},
		{Null, NewInt(10), false, true, false},
		{Null, NewInt(10), false, false, true},
		{NewInt(0), NewInt(100), false, false, true},
	}
	for i, c := range cases {
		if got := z.MayContain(c.lo, c.loS, c.hi, c.hiS); got != c.want {
			t.Errorf("case %d: MayContain = %v, want %v", i, got, c.want)
		}
	}
	empty := ZoneMap{}
	if empty.MayContainValue(NewInt(1)) {
		t.Error("all-NULL zone must refute equality predicates")
	}
	// Incomparable kinds stay conservative.
	if !z.MayContain(NewString("x"), false, Null, false) {
		t.Error("incomparable bound must not prune")
	}
}

func TestViewSurvivesCompact(t *testing.T) {
	tab := segTable(t, 16, 64)
	for i := 0; i < 32; i += 2 {
		if err := tab.Delete(RowID(i)); err != nil {
			t.Fatal(err)
		}
	}
	v := tab.View()
	// Read the first segment, then compact mid-scan.
	var b Batch
	v.ScanBatch(0, 16, &b)
	first := append([]Row(nil), b.Rows()...)
	tab.Compact()
	// The view keeps scanning the pre-compact heap: same live rows, same
	// positions, no re-reads of rows that moved during compaction.
	var got []int64
	for _, r := range first {
		got = append(got, r[0].I)
	}
	// Sub-segment ranges, one crossing the heap's end (clamped).
	for lo := 16; lo < v.NumSlots(); lo += 24 {
		v.ScanBatch(lo, lo+24, &b)
		for _, r := range b.Rows() {
			got = append(got, r[0].I)
		}
	}
	if len(got) != 48 {
		t.Fatalf("view scan found %d rows, want 48", len(got))
	}
	seen := make(map[int64]bool)
	for _, id := range got {
		if seen[id] {
			t.Fatalf("row %d observed twice across Compact", id)
		}
		seen[id] = true
	}
	// Post-compact state is tombstone-free with exact metadata.
	if tab.NumRows() != 48 || tab.NumSlots() != 48 {
		t.Fatalf("compacted table: live=%d heap=%d, want 48/48", tab.NumRows(), tab.NumSlots())
	}
	if got, want := tab.SegmentCount(), 3; got != want {
		t.Fatalf("compacted SegmentCount = %d, want %d", got, want)
	}
}

func TestViewGetConsistentAcrossCompact(t *testing.T) {
	tab := segTable(t, 16, 32)
	if err := tab.Delete(0); err != nil {
		t.Fatal(err)
	}
	v := tab.View()
	tab.Compact()
	// Id 5 in the captured view still names the row with id value 5, even
	// though the compacted heap shifted every row down by one.
	r, ok := v.Get(5)
	if !ok || r[0].I != 5 {
		t.Fatalf("view Get(5) = %v/%v, want row id 5", r, ok)
	}
	if r2, ok2 := tab.Get(5); !ok2 || r2[0].I != 6 {
		t.Fatalf("table Get(5) post-compact = %v/%v, want shifted row id 6", r2, ok2)
	}
}

func TestMutationCounter(t *testing.T) {
	tab := segTable(t, 16, 10)
	base := tab.Mutations()
	if base != 10 {
		t.Fatalf("Mutations after bulk load = %d, want 10", base)
	}
	if _, err := tab.Insert(Row{NewInt(100), NewInt(0)}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Update(0, Row{NewInt(-1), NewInt(0)}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Delete(1); err != nil {
		t.Fatal(err)
	}
	if got := tab.Mutations(); got != base+3 {
		t.Fatalf("Mutations = %d, want %d", got, base+3)
	}
}

func TestBuildSegmentsPartialRebuild(t *testing.T) {
	tab := segTable(t, 16, 24) // 2 segments, second half-full
	// A second bulk load must rebuild from the straddled segment onward.
	var rows []Row
	for i := 24; i < 40; i++ {
		rows = append(rows, Row{NewInt(int64(i)), NewInt(0)})
	}
	if err := tab.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	if got := tab.SegmentCount(); got != 3 {
		t.Fatalf("SegmentCount = %d, want 3", got)
	}
	for s := 0; s < 3; s++ {
		z, _ := tab.SegmentZone(s, "id")
		if z.Min.I != int64(s*16) {
			t.Errorf("segment %d min = %d, want %d", s, z.Min.I, s*16)
		}
		if live := tab.SegmentLive(s); live != 16 && !(s == 2 && live == 8) {
			t.Errorf("segment %d live = %d", s, live)
		}
	}
	// Sanity: zone strings render for debugging aids.
	_ = fmt.Sprintf("%v", tab.SegmentCount())
}
