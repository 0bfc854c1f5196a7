package storage

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "id", Type: KindInt},
		Column{Name: "owner", Type: KindInt},
		Column{Name: "name", Type: KindString},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaRejectsDuplicatesAndEmpty(t *testing.T) {
	if _, err := NewSchema(Column{Name: "a", Type: KindInt}, Column{Name: "a", Type: KindInt}); err == nil {
		t.Error("duplicate column names must be rejected")
	}
	if _, err := NewSchema(Column{Name: "", Type: KindInt}); err == nil {
		t.Error("empty column name must be rejected")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema(t)
	if s.ColumnIndex("owner") != 1 {
		t.Errorf("ColumnIndex(owner) = %d, want 1", s.ColumnIndex("owner"))
	}
	if s.ColumnIndex("missing") != -1 {
		t.Error("missing column must return -1")
	}
	if !s.HasColumn("name") || s.HasColumn("nope") {
		t.Error("HasColumn mismatch")
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

func TestSchemaValidate(t *testing.T) {
	s := testSchema(t)
	if err := s.Validate(Row{NewInt(1), NewInt(2), NewString("x")}); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if err := s.Validate(Row{NewInt(1), Null, NewString("x")}); err != nil {
		t.Errorf("NULL must be allowed: %v", err)
	}
	if err := s.Validate(Row{NewInt(1), NewInt(2)}); err == nil {
		t.Error("short row must be rejected")
	}
	if err := s.Validate(Row{NewInt(1), NewString("bad"), NewString("x")}); err == nil {
		t.Error("kind mismatch must be rejected")
	}
}

func TestTableInsertGetUpdateDelete(t *testing.T) {
	tb := NewTable("t", testSchema(t))
	id, err := tb.Insert(Row{NewInt(1), NewInt(10), NewString("a")})
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1 {
		t.Fatalf("NumRows = %d, want 1", tb.NumRows())
	}
	r, ok := tb.Get(id)
	if !ok || r[2].S != "a" {
		t.Fatalf("Get returned %v, %v", r, ok)
	}
	if err := tb.Update(id, Row{NewInt(1), NewInt(20), NewString("b")}); err != nil {
		t.Fatal(err)
	}
	r, _ = tb.Get(id)
	if r[1].I != 20 || r[2].S != "b" {
		t.Fatalf("update not applied: %v", r)
	}
	if err := tb.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Get(id); ok {
		t.Error("deleted row must not be gettable")
	}
	if tb.NumRows() != 0 {
		t.Errorf("NumRows after delete = %d, want 0", tb.NumRows())
	}
	if err := tb.Delete(id); err == nil {
		t.Error("double delete must error")
	}
	if err := tb.Update(id, Row{NewInt(1), NewInt(1), NewString("c")}); err == nil {
		t.Error("update of deleted row must error")
	}
}

func TestTableInsertValidates(t *testing.T) {
	tb := NewTable("t", testSchema(t))
	if _, err := tb.Insert(Row{NewInt(1)}); err == nil {
		t.Error("arity mismatch must be rejected")
	}
}

func TestTableInsertClonesRow(t *testing.T) {
	tb := NewTable("t", testSchema(t))
	buf := Row{NewInt(1), NewInt(2), NewString("a")}
	id, _ := tb.Insert(buf)
	buf[0] = NewInt(99)
	r, _ := tb.Get(id)
	if r[0].I != 1 {
		t.Error("Insert must clone the row")
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	tb := NewTable("t", testSchema(t))
	for i := 0; i < 5; i++ {
		if _, err := tb.Insert(Row{NewInt(int64(i)), NewInt(0), NewString("x")}); err != nil {
			t.Fatal(err)
		}
	}
	var seen []int64
	tb.Scan(func(_ RowID, r Row) bool {
		seen = append(seen, r[0].I)
		return len(seen) < 3
	})
	if len(seen) != 3 || seen[0] != 0 || seen[2] != 2 {
		t.Errorf("scan = %v, want first three in heap order", seen)
	}
}

func TestScanSkipsTombstones(t *testing.T) {
	tb := NewTable("t", testSchema(t))
	var ids []RowID
	for i := 0; i < 4; i++ {
		id, _ := tb.Insert(Row{NewInt(int64(i)), NewInt(0), NewString("x")})
		ids = append(ids, id)
	}
	if err := tb.Delete(ids[1]); err != nil {
		t.Fatal(err)
	}
	count := 0
	tb.Scan(func(_ RowID, r Row) bool {
		if r[0].I == 1 {
			t.Error("tombstoned row visited")
		}
		count++
		return true
	})
	if count != 3 {
		t.Errorf("scan visited %d rows, want 3", count)
	}
}

func TestBulkInsertAndCompact(t *testing.T) {
	tb := NewTable("t", testSchema(t))
	if _, err := tb.CreateIndex("owner"); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 100)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i)), NewInt(int64(i % 7)), NewString("r")}
	}
	if err := tb.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 100 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	idx, _ := tb.Index("owner")
	if got := len(idx.Eq(nil, NewInt(3))); got != 14 {
		t.Errorf("owner=3 count = %d, want 14", got)
	}
	// Delete a few and compact; index must survive.
	for id := RowID(0); id < 10; id++ {
		if err := tb.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	tb.Compact()
	if tb.NumRows() != 90 || tb.NumSlots() != 90 {
		t.Errorf("after compact: live=%d heap=%d, want 90/90", tb.NumRows(), tb.NumSlots())
	}
	idx, _ = tb.Index("owner")
	total := 0
	for o := int64(0); o < 7; o++ {
		total += len(idx.Eq(nil, NewInt(o)))
	}
	if total != 90 {
		t.Errorf("index entries after compact = %d, want 90", total)
	}
	// Compact relabels index entries instead of re-sorting them: a lookup
	// is still the scan's answer, in id order.
	for o := int64(0); o < 7; o++ {
		var want []RowID
		tb.Scan(func(id RowID, row Row) bool {
			if row[1].I == o {
				want = append(want, id)
			}
			return true
		})
		if got, _ := tb.Lookup(nil, "owner", NewInt(o)); !slices.Equal(got, want) {
			t.Errorf("after compact, owner = %d: index %v, scan %v", o, got, want)
		}
	}
	if _, ok := tb.Lookup(nil, "id", NewInt(1)); ok {
		t.Error("Lookup on an unindexed column reported an index")
	}
}

func TestBulkInsertValidatesAll(t *testing.T) {
	tb := NewTable("t", testSchema(t))
	err := tb.BulkInsert([]Row{
		{NewInt(1), NewInt(1), NewString("ok")},
		{NewInt(2), NewString("bad"), NewString("x")},
	})
	if err == nil {
		t.Fatal("BulkInsert must validate every row")
	}
	if tb.NumRows() != 0 {
		t.Error("failed BulkInsert must not partially apply")
	}
}

func TestCreateIndexIdempotentAndErrors(t *testing.T) {
	tb := NewTable("t", testSchema(t))
	a, err := tb.CreateIndex("owner")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tb.CreateIndex("owner")
	if err != nil || a != b {
		t.Error("CreateIndex must be idempotent")
	}
	if _, err := tb.CreateIndex("ghost"); err == nil {
		t.Error("indexing a missing column must error")
	}
	cols := tb.IndexedColumns()
	if len(cols) != 1 || cols[0] != "owner" {
		t.Errorf("IndexedColumns = %v", cols)
	}
}

// Property: after a random sequence of inserts/updates/deletes, an index
// equality scan returns exactly the rows a full scan filter returns.
func TestIndexMatchesScanProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb := NewTable("t", MustSchema(
			Column{Name: "k", Type: KindInt},
			Column{Name: "v", Type: KindInt},
		))
		if _, err := tb.CreateIndex("k"); err != nil {
			return false
		}
		var ids []RowID
		for op := 0; op < 200; op++ {
			switch {
			case len(ids) == 0 || r.Intn(10) < 6:
				id, err := tb.Insert(Row{NewInt(int64(r.Intn(20))), NewInt(int64(op))})
				if err != nil {
					return false
				}
				ids = append(ids, id)
			case r.Intn(2) == 0:
				i := r.Intn(len(ids))
				_ = tb.Update(ids[i], Row{NewInt(int64(r.Intn(20))), NewInt(int64(op))})
			default:
				i := r.Intn(len(ids))
				if err := tb.Delete(ids[i]); err == nil {
					ids = append(ids[:i], ids[i+1:]...)
				}
			}
		}
		idx, _ := tb.Index("k")
		for key := int64(0); key < 20; key++ {
			want := map[RowID]bool{}
			tb.Scan(func(id RowID, row Row) bool {
				if row[0].I == key {
					want[id] = true
				}
				return true
			})
			got := idx.Eq(nil, NewInt(key))
			if len(got) != len(want) {
				return false
			}
			for _, id := range got {
				if !want[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
