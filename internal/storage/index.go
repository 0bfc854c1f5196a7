package storage

import (
	"slices"
	"sort"
)

// Index is an ordered secondary index over a single column: a sorted slice
// of (key, rowID) entries searched with binary search. It supports equality
// and range scans, the two access paths guards need (§3.2: a guard is a
// simple predicate over an indexed attribute).
//
// The sorted-slice representation favours the bulk-load-then-query pattern
// of the experiments; incremental inserts (policy tables, guard tables) use
// binary insertion which is O(n) per insert but those relations are small.
type Index struct {
	Table  string
	Column string

	col     int // column offset in the table schema
	entries []indexEntry
}

type indexEntry struct {
	key Value
	id  RowID
}

func newIndex(table, column string, col int) *Index {
	return &Index{Table: table, Column: column, col: col}
}

// Len returns the number of entries (live rows with non-NULL keys).
func (ix *Index) Len() int { return len(ix.entries) }

// entryLess orders entries by key then rowID. NULL keys are excluded at
// insert, so Compare is always defined for stored keys of one column.
func entryLess(a, b indexEntry) bool {
	if c, ok := Compare(a.key, b.key); ok && c != 0 {
		return c < 0
	}
	return a.id < b.id
}

func (ix *Index) rebuild(t *Table) {
	ix.entries = ix.entries[:0]
	for i, r := range t.rows {
		if t.deleted[i] {
			continue
		}
		if v := r[ix.col]; !v.IsNull() {
			ix.entries = append(ix.entries, indexEntry{key: v, id: RowID(i)})
		}
	}
	sort.Slice(ix.entries, func(i, j int) bool { return entryLess(ix.entries[i], ix.entries[j]) })
}

func (ix *Index) insert(key Value, id RowID) {
	if key.IsNull() {
		return
	}
	e := indexEntry{key: key, id: id}
	pos := sort.Search(len(ix.entries), func(i int) bool { return !entryLess(ix.entries[i], e) })
	ix.entries = append(ix.entries, indexEntry{})
	copy(ix.entries[pos+1:], ix.entries[pos:])
	ix.entries[pos] = e
}

func (ix *Index) remove(key Value, id RowID) {
	if key.IsNull() {
		return
	}
	e := indexEntry{key: key, id: id}
	pos := sort.Search(len(ix.entries), func(i int) bool { return !entryLess(ix.entries[i], e) })
	if pos < len(ix.entries) && Equal(ix.entries[pos].key, key) && ix.entries[pos].id == id {
		ix.entries = append(ix.entries[:pos], ix.entries[pos+1:]...)
	}
}

// lowerBound returns the first position whose key is >= key (or > key when
// strict). Positions run [0, Len()].
func (ix *Index) lowerBound(key Value, strict bool) int {
	return sort.Search(len(ix.entries), func(i int) bool {
		c, ok := Compare(ix.entries[i].key, key)
		if !ok {
			return true
		}
		if strict {
			return c > 0
		}
		return c >= 0
	})
}

// eqSpan returns the entry positions [lo, hi) whose key equals key; a NULL
// key matches nothing.
func (ix *Index) eqSpan(key Value) (lo, hi int) {
	if key.IsNull() {
		return 0, 0
	}
	return ix.lowerBound(key, false), ix.lowerBound(key, true)
}

// rangeSpan returns the entry positions [lo, hi) with lo ≤/< key ≤/< hi. A
// NULL lo means unbounded below; NULL hi unbounded above. loStrict/hiStrict
// select open bounds.
func (ix *Index) rangeSpan(lo Value, loStrict bool, hi Value, hiStrict bool) (start, end int) {
	if !lo.IsNull() {
		start = ix.lowerBound(lo, loStrict)
	}
	end = len(ix.entries)
	if !hi.IsNull() {
		end = ix.lowerBound(hi, !hiStrict)
	}
	return start, max(start, end)
}

// Eq appends to dst the row IDs whose key equals key and returns dst.
func (ix *Index) Eq(dst []RowID, key Value) []RowID {
	lo, hi := ix.eqSpan(key)
	return ix.appendIDs(dst, lo, hi)
}

// Range appends row IDs with lo ≤/< key ≤/< hi (see rangeSpan), in key
// order.
func (ix *Index) Range(dst []RowID, lo Value, loStrict bool, hi Value, hiStrict bool) []RowID {
	start, end := ix.rangeSpan(lo, loStrict, hi, hiStrict)
	return ix.appendIDs(dst, start, end)
}

// EqBits is Eq into a bitmap: it sets bit id of bits (bit id%64 of word
// id/64) for every row id whose key equals key, and skips ids at or past
// slots — a view's captured heap length, as FetchBatch does. A union of
// lookups marks one bitmap and is read back in heap order, with no
// duplicate and nothing to sort.
func (ix *Index) EqBits(bits []uint64, slots int, key Value) {
	lo, hi := ix.eqSpan(key)
	ix.setBits(bits, slots, lo, hi)
}

// RangeBits is Range into a bitmap, as EqBits is Eq.
func (ix *Index) RangeBits(bits []uint64, slots int, lo Value, loStrict bool, hi Value, hiStrict bool) {
	start, end := ix.rangeSpan(lo, loStrict, hi, hiStrict)
	ix.setBits(bits, slots, start, end)
}

func (ix *Index) appendIDs(dst []RowID, lo, hi int) []RowID {
	dst = slices.Grow(dst, hi-lo)
	for _, e := range ix.entries[lo:hi] {
		dst = append(dst, e.id)
	}
	return dst
}

func (ix *Index) setBits(bits []uint64, slots, lo, hi int) {
	for _, e := range ix.entries[lo:hi] {
		if int(e.id) < slots {
			bits[e.id>>6] |= 1 << (e.id & 63)
		}
	}
}

// CountRange returns the number of entries in the range without
// materialising row IDs; the planner uses it for exact index selectivity
// when a histogram is unavailable.
func (ix *Index) CountRange(lo Value, loStrict bool, hi Value, hiStrict bool) int {
	start, end := ix.rangeSpan(lo, loStrict, hi, hiStrict)
	return end - start
}

// MinMax returns the smallest and largest keys, with ok=false when empty.
func (ix *Index) MinMax() (min, max Value, ok bool) {
	if len(ix.entries) == 0 {
		return Null, Null, false
	}
	return ix.entries[0].key, ix.entries[len(ix.entries)-1].key, true
}
