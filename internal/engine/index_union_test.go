package engine

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// queryIDs runs sql on db and returns the first column of its rows and the
// execution's counters.
func queryIDs(t *testing.T, db *DB, sql string) ([]int64, Counters) {
	t.Helper()
	db.ResetCounters()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rowIDs(res.Rows), db.CountersSnapshot()
}

func rowIDs(rows []storage.Row) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].I
	}
	return out
}

// TestIndexInListRepeatedPoint: an IN list that repeats a value — in the
// same kind or another numeric one — returns each row once through the
// index, exactly as the sequential scan does, inline and prepared.
func TestIndexInListRepeatedPoint(t *testing.T) {
	db := buildSegDB(t, 200, 64)
	if err := db.CreateIndex("p", "grp"); err != nil {
		t.Fatal(err)
	}
	for _, where := range []string{
		"grp IN (3, 3)",
		"grp IN (3, 3) AND val >= 0",
		"grp IN (3, 3.0)",
		"grp IN (3, 7, 3)",
	} {
		got, c := queryIDs(t, db, "SELECT id FROM p WHERE "+where)
		want, _ := queryIDs(t, db, "SELECT id FROM p USE INDEX () WHERE "+where)
		if c.IndexScans != 1 {
			t.Fatalf("%s: not an index plan: %+v", where, c)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: index %v, sequential scan %v", where, got, want)
		}
	}

	want, _ := queryIDs(t, db, "SELECT id FROM p USE INDEX () WHERE grp = 3")
	stmt, err := sqlparser.BindStmt(sqlparser.MustParse("SELECT id FROM p WHERE grp IN (?, ?)"),
		[]storage.Value{storage.NewInt(3), storage.NewInt(3)})
	if err != nil {
		t.Fatal(err)
	}
	prep := db.Prepare(stmt)
	for run := range 2 {
		db.ResetCounters()
		res, err := Collect(prep.Stream(context.Background()))
		if err != nil {
			t.Fatal(err)
		}
		if got := rowIDs(res.Rows); !reflect.DeepEqual(got, want) {
			t.Errorf("prepared, execution %d: %v, want %v", run+1, got, want)
		}
		if c := db.CountersSnapshot(); c.IndexScans != 1 {
			t.Fatalf("prepared, execution %d: not an index plan: %+v", run+1, c)
		}
	}
}

// unionFixture is a table whose index union the property test and the
// fuzz target probe: segments of 100 slots, so ids 63/64/65 straddle a
// bitmap word and 99/100/101 a segment; some rows deleted; and a view
// captured before more rows were inserted, so the shared indexes hold ids
// at and past the view's NumSlots.
type unionFixture struct {
	view *storage.View
	cols []string // indexed columns
}

const unionRows, unionLate = 600, 40

func newUnionFixture(t testing.TB) unionFixture {
	t.Helper()
	db := buildSegDB(t, unionRows, 100)
	cols := []string{"id", "grp", "val"}
	for _, c := range cols {
		if err := db.CreateIndex("p", c); err != nil {
			t.Fatal(err)
		}
	}
	for id := 5; id < unionRows; id += 37 {
		if err := db.Delete("p", storage.RowID(id)); err != nil {
			t.Fatal(err)
		}
	}
	view := db.MustTable("p").View()
	for i := range unionLate {
		id := int64(unionRows + i)
		row := storage.Row{storage.NewInt(id), storage.NewInt(id % 10), storage.NewInt(int64(i % 5))}
		if err := db.Insert("p", row); err != nil {
			t.Fatal(err)
		}
	}
	return unionFixture{view: view, cols: cols}
}

// sortedUnion is the union as the index fetch once built it: every
// lookup's ids appended to one list, sorted and compacted.
func sortedUnion(v *storage.View, sargs []sarg) []storage.RowID {
	var ids []storage.RowID
	for _, s := range sargs {
		idx, _ := v.Index(s.col)
		if s.isRange {
			ids = idx.Range(ids, s.lo, s.loS, s.hi, s.hiS)
			continue
		}
		for _, p := range s.points {
			ids = idx.Eq(ids, p)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// sortedUnion is the oracle cut to the ids the view can resolve, as
// FetchBatch did when loading that list.
func (f unionFixture) sortedUnion(sargs []sarg) []storage.RowID {
	return slices.DeleteFunc(sortedUnion(f.view, sargs), func(id storage.RowID) bool { return int(id) >= f.view.NumSlots() })
}

// check drains the fetch of sargs in the batch ramp and compares it with
// sortedUnion: the same ids, in heap order when two or more lookups built a
// bitmap, which the walk hands back to the pool all zero.
func (f unionFixture) check(t *testing.T, sargs []sarg) {
	t.Helper()
	var c Counters
	cur := fetchSargs(f.view, &c, sargs)
	bitmapWalk := cur.bm != nil
	if multi := lookups(sargs) >= 2; multi != bitmapWalk {
		t.Fatalf("%d lookups, bitmap %v", lookups(sargs), bitmapWalk)
	}
	if c.IndexLookups != int64(lookups(sargs)) {
		t.Fatalf("IndexLookups=%d, want %d", c.IndexLookups, lookups(sargs))
	}
	var got []storage.RowID
	for size := scanFirstBatch; ; size = min(2*size, storage.SegmentSize) {
		ids := cur.next(size)
		if len(ids) == 0 {
			break
		}
		if len(ids) > size || cap(cur.buf) > storage.SegmentSize {
			t.Fatalf("batch of %d ids (buffer capacity %d) for a ramp step of %d", len(ids), cap(cur.buf), size)
		}
		got = append(got, ids...)
	}
	want := f.sortedUnion(sargs)
	if !bitmapWalk {
		got = slices.DeleteFunc(got, func(id storage.RowID) bool { return int(id) >= f.view.NumSlots() })
		slices.Sort(got)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("fetch %v\nsorted union %v", got, want)
	}
	if cur.bm != nil {
		t.Fatal("a walked bitmap was not handed back to the pool")
	}
	bm := getBitmap(0)
	defer bitmapPool.Put(bm)
	for i, w := range bm.words[:cap(bm.words)] {
		if w != 0 {
			t.Fatalf("pooled bitmap word %d = %#x", i, w)
		}
	}
}

// branch decodes one sarg from four bytes: a column, a shape (0–1 point,
// 2 a range, 3 a two-point IN) and two operands.
func (f unionFixture) branch(b [4]byte) sarg {
	col := f.cols[int(b[0])%len(f.cols)]
	a := storage.NewInt(int64(b[2]) * 3 % (unionRows + unionLate + 10))
	z := storage.NewInt(int64(b[3]) * 3 % (unionRows + unionLate + 10))
	if col == "grp" {
		a, z = storage.NewInt(int64(b[2]%12)), storage.NewInt(int64(b[3]%12))
	}
	switch b[1] % 4 {
	case 2:
		lo, hi := a, z
		if b[3]%5 == 0 {
			lo = storage.Null
		}
		return sarg{col: col, isRange: true, lo: lo, loS: b[1]&4 != 0, hi: hi, hiS: b[1]&8 != 0}
	case 3:
		return sarg{col: col, points: []storage.Value{a, z}}
	}
	return sarg{col: col, points: []storage.Value{a}}
}

func (f unionFixture) decode(data []byte) []sarg {
	var sargs []sarg
	for ; len(data) >= 4; data = data[4:] {
		sargs = append(sargs, f.branch([4]byte(data)))
	}
	return sargs
}

// TestIndexUnionMatchesSortedUnion: the bitmap union of random branch
// sets — overlapping points and ranges, ids at word and segment edges,
// deleted rows, ids past the view — is the sorted, compacted union of the
// branch lookups, and a single lookup fetches what it always did. The
// random cases run in parallel, drawing on one bitmap pool.
func TestIndexUnionMatchesSortedUnion(t *testing.T) {
	f := newUnionFixture(t)
	pt := func(col string, vs ...int64) sarg {
		s := sarg{col: col}
		for _, v := range vs {
			s.points = append(s.points, storage.NewInt(v))
		}
		return s
	}
	rng := func(col string, lo, hi int64) sarg {
		return sarg{col: col, isRange: true, lo: storage.NewInt(lo), hi: storage.NewInt(hi)}
	}
	for i, sargs := range [][]sarg{
		{pt("id", 63, 64, 65)},
		{pt("id", 99, 100, 101), pt("id", 100)},
		{pt("grp", 3), pt("grp", 3)},
		{pt("grp", 3, 7), rng("id", 60, 130)},
		{rng("id", 0, 63), rng("id", 64, 127), rng("val", 990, 1000)},
		{rng("id", 590, 700), pt("val", 2)}, // ids past the view
		{pt("id", 5, 42, 79)},               // deleted rows
		{pt("grp", 1), pt("val", 1), rng("id", 128, 128)},
		{rng("id", 0, 10)},
		{rng("id", 0, 700), pt("grp", 0)}, // several ramp steps
		{pt("grp", 11), pt("val", 5000)},
	} {
		t.Run(fmt.Sprint("case", i), func(t *testing.T) { f.check(t, sargs) })
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := range 300 {
		data := make([]byte, 4*(1+r.IntN(8)))
		for j := range data {
			data[j] = byte(r.IntN(256))
		}
		t.Run(fmt.Sprint("random", i), func(t *testing.T) {
			t.Parallel() // the cursors share the bitmap pool
			f.check(t, f.decode(data))
		})
	}
}

// FuzzIndexUnion: every four bytes are one branch (unionFixture.branch).
func FuzzIndexUnion(f *testing.F) {
	fx := newUnionFixture(f)
	enc := func(bs ...[4]byte) []byte {
		var out []byte
		for _, b := range bs {
			out = append(out, b[:]...)
		}
		return out
	}
	f.Add(enc([4]byte{0, 3, 21, 22}))                        // ids 63 and 66: one word, the next
	f.Add(enc([4]byte{0, 0, 33, 0}, [4]byte{0, 0, 34, 0}))   // ids 99 and 102 across a segment edge
	f.Add(enc([4]byte{1, 0, 3, 0}, [4]byte{1, 0, 3, 0}))     // a repeated point
	f.Add(enc([4]byte{1, 3, 3, 7}, [4]byte{0, 2, 20, 43}))   // an IN beside a range
	f.Add(enc([4]byte{0, 2, 196, 230}, [4]byte{2, 0, 2, 0})) // ids past the view
	f.Add(enc([4]byte{0, 3, 5, 42}))                         // a deleted row
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			return
		}
		fx.check(t, fx.decode(data))
	})
}
