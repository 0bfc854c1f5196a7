package storage

import "sort"

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

// Eq appends to dst the row IDs whose key equals key and returns dst.
func (ix *Index) Eq(dst []RowID, key Value) []RowID {
	if key.IsNull() {
		return dst
	}
	for i := ix.lowerBound(key, false); i < len(ix.entries); i++ {
		if !Equal(ix.entries[i].key, key) {
			break
		}
		dst = append(dst, ix.entries[i].id)
	}
	return dst
}

// Range appends row IDs with lo ≤/< key ≤/< hi. A NULL lo means unbounded
// below; NULL hi unbounded above. loStrict/hiStrict select open bounds.
func (ix *Index) Range(dst []RowID, lo Value, loStrict bool, hi Value, hiStrict bool) []RowID {
	start := 0
	if !lo.IsNull() {
		start = ix.lowerBound(lo, loStrict)
	}
	for i := start; i < len(ix.entries); i++ {
		if !hi.IsNull() {
			c, ok := Compare(ix.entries[i].key, hi)
			if !ok {
				break
			}
			if c > 0 || (hiStrict && c == 0) {
				break
			}
		}
		dst = append(dst, ix.entries[i].id)
	}
	return dst
}

// CountRange returns the number of entries in the range without
// materialising row IDs; the planner uses it for exact index selectivity
// when a histogram is unavailable.
func (ix *Index) CountRange(lo Value, loStrict bool, hi Value, hiStrict bool) int {
	start := 0
	if !lo.IsNull() {
		start = ix.lowerBound(lo, loStrict)
	}
	end := len(ix.entries)
	if !hi.IsNull() {
		end = ix.lowerBound(hi, !hiStrict)
	}
	if end < start {
		return 0
	}
	return end - start
}

// MinMax returns the smallest and largest keys, with ok=false when empty.
func (ix *Index) MinMax() (min, max Value, ok bool) {
	if len(ix.entries) == 0 {
		return Null, Null, false
	}
	return ix.entries[0].key, ix.entries[len(ix.entries)-1].key, true
}
