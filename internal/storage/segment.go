package storage

// SegmentSize is the default number of heap slots per segment. Segments are
// the pruning and parallelism granule of the engine: each carries per-column
// zone maps so a scan can skip whole segments whose value ranges cannot
// satisfy a predicate, and parallel scans hand out work segment by segment.
const SegmentSize = 4096

// ZoneMap summarises one column's values within one segment: the min/max of
// the non-NULL values, the NULL count, and a distinct-value count. Zone maps
// are conservative: incremental inserts and updates only widen them, and
// deletes leave them untouched, so they always cover every live value (they
// may cover more). Exact bounds are restored by segment rebuilds (bulk
// loads, Compact, RebuildSegments).
type ZoneMap struct {
	// Min and Max bound the non-NULL values; both are NULL while the
	// segment holds no non-NULL value in this column.
	Min, Max Value
	// Nulls counts NULL values observed (not decremented on delete).
	Nulls int
	// Distinct is the number of distinct non-NULL values: exact after a
	// rebuild, a lower bound after incremental widening.
	Distinct int
}

// widen grows the zone to cover v.
func (z *ZoneMap) widen(v Value) {
	if v.IsNull() {
		z.Nulls++
		return
	}
	if z.Min.IsNull() {
		z.Min, z.Max, z.Distinct = v, v, 1
		return
	}
	switch {
	case Less(v, z.Min):
		z.Min = v
		z.Distinct++
	case Less(z.Max, v):
		z.Max = v
		z.Distinct++
	}
	// Values inside the bounds cannot be distinguished from seen ones
	// without a set; Distinct stays a lower bound until the next rebuild.
}

// MayContain reports whether the zone could hold a value v with
// lo ≤/< v ≤/< hi (NULL bounds are unbounded, strict flags select open
// bounds). It answers true whenever it cannot prove otherwise, so a false
// return licenses skipping the segment for this predicate.
func (z ZoneMap) MayContain(lo Value, loStrict bool, hi Value, hiStrict bool) bool {
	if z.Min.IsNull() {
		return false // only NULLs here; range and equality predicates never match NULL
	}
	if !lo.IsNull() {
		c, ok := Compare(z.Max, lo)
		if ok && (c < 0 || (loStrict && c == 0)) {
			return false
		}
	}
	if !hi.IsNull() {
		c, ok := Compare(z.Min, hi)
		if ok && (c > 0 || (hiStrict && c == 0)) {
			return false
		}
	}
	return true
}

// MayContainValue reports whether the zone could hold the exact value v.
func (z ZoneMap) MayContainValue(v Value) bool {
	return z.MayContain(v, false, v, false)
}

// segment is the per-segment metadata: the live-row count and one zone map
// per schema column. Zone maps cover the rows in the segment's slot range
// [i*segSize, (i+1)*segSize).
type segment struct {
	live  int
	zones []ZoneMap
}

// buildSegments computes exact segment metadata for rows. deleted may be
// nil (all rows live). Deleted slots contribute to neither zones nor live
// counts.
func buildSegments(ncols int, rows []Row, deleted []bool, segSize int, from int) []segment {
	if segSize < 1 {
		segSize = SegmentSize
	}
	n := len(rows)
	nSegs := (n + segSize - 1) / segSize
	segs := make([]segment, nSegs-from)
	for s := range segs {
		seg := &segs[s]
		seg.zones = make([]ZoneMap, ncols)
		lo := (from + s) * segSize
		hi := lo + segSize
		if hi > n {
			hi = n
		}
		distinct := make([]map[Value]struct{}, ncols)
		for c := range distinct {
			distinct[c] = make(map[Value]struct{})
		}
		for i := lo; i < hi; i++ {
			if deleted != nil && deleted[i] {
				continue
			}
			seg.live++
			for c, v := range rows[i] {
				z := &seg.zones[c]
				if v.IsNull() {
					z.Nulls++
					continue
				}
				if z.Min.IsNull() || Less(v, z.Min) {
					z.Min = v
				}
				if z.Max.IsNull() || Less(z.Max, v) {
					z.Max = v
				}
				distinct[c][v] = struct{}{}
			}
		}
		for c := range seg.zones {
			seg.zones[c].Distinct = len(distinct[c])
		}
	}
	return segs
}

// View is a consistent point-in-time view of a table's heap, segments
// included. Reads synchronise with in-place mutators (Insert, Update,
// Delete) through the table lock, while Compact's copy-on-write swap leaves
// the captured slices frozen — a scan that started before a Compact
// finishes over the pre-compact heap instead of observing shifted row ids.
// Rows appended after capture fall outside the captured length and are not
// observed (read-committed scan, segment granularity).
type View struct {
	t       *Table
	rows    []Row
	deleted []bool
	segs    []segment
	segSize int
	indexes map[string]*Index
}

// View captures the current heap for scanning. The secondary indexes are
// captured in the same lock acquisition, so row ids fetched through
// View.Index resolve against the same heap View.Get reads — consistent
// even when a Compact swaps the table's heap and indexes in between.
func (t *Table) View() *View {
	t.mu.RLock()
	defer t.mu.RUnlock()
	indexes := make(map[string]*Index, len(t.indexes))
	for c, ix := range t.indexes {
		indexes[c] = ix
	}
	return &View{t: t, rows: t.rows, deleted: t.deleted, segs: t.segs, segSize: t.segSize, indexes: indexes}
}

// Index returns the captured index on col, if any. It belongs to the same
// heap generation as the view's rows.
func (v *View) Index(col string) (*Index, bool) {
	ix, ok := v.indexes[col]
	return ix, ok
}

// RLock holds the view's indexes still until RUnlock. A writer maintains
// the indexes in place under the table's write lock, so lookups through a
// view beside a concurrent writer are made between the two; nothing between
// them may take the table's lock again. Ids a lookup finds past the view's
// slots belong to rows inserted after it, which its fetches skip.
func (v *View) RLock() { v.t.mu.RLock() }

// RUnlock releases RLock.
func (v *View) RUnlock() { v.t.mu.RUnlock() }

// NumSegments returns the number of segments in the view.
func (v *View) NumSegments() int { return len(v.segs) }

// SegmentRows returns the view's segment size in heap slots.
func (v *View) SegmentRows() int { return v.segSize }

// Zones copies the zone maps of the requested columns in segment seg into
// out (which must have len(cols)) and returns the segment's live-row count,
// all under one lock acquisition.
func (v *View) Zones(seg int, cols []int, out []ZoneMap) (live int) {
	v.t.mu.RLock()
	defer v.t.mu.RUnlock()
	s := &v.segs[seg]
	for i, c := range cols {
		out[i] = s.zones[c]
	}
	return s.live
}

// NumSlots returns the captured heap length in slots, tombstones included.
// Together with SegmentSlots it lets a snapshot writer serialise the heap
// exactly — preserving slot numbering so row ids stay stable across a
// recovery replay.
func (v *View) NumSlots() int { return len(v.rows) }

// SegmentSlots calls fn for every heap slot of segment seg in slot order,
// tombstones included (live=false, r=nil). Returning false stops the
// iteration. The walk happens under the table's read lock, against the
// captured heap; rows must not be retained past a concurrent Compact
// unless cloned.
func (v *View) SegmentSlots(seg int, fn func(id RowID, r Row, live bool) bool) {
	v.t.mu.RLock()
	defer v.t.mu.RUnlock()
	lo := seg * v.segSize
	hi := lo + v.segSize
	if hi > len(v.rows) {
		hi = len(v.rows)
	}
	for i := lo; i < hi; i++ {
		if v.deleted[i] {
			if !fn(RowID(i), nil, false) {
				return
			}
			continue
		}
		if !fn(RowID(i), v.rows[i], true) {
			return
		}
	}
}

// Get returns the row for id within the view, ok=false for tombstoned or
// out-of-range ids. Ids refer to the captured heap, so index fetch lists
// resolved against the same view stay consistent across a concurrent
// Compact.
func (v *View) Get(id RowID) (Row, bool) {
	v.t.mu.RLock()
	defer v.t.mu.RUnlock()
	if id < 0 || int(id) >= len(v.rows) || v.deleted[id] {
		return nil, false
	}
	return v.rows[id], true
}

// segIndexFor returns the segment covering heap slot i; the table lock must
// be held.
func (t *Table) segIndexFor(i int) int { return i / t.segSize }

// widenSegment grows segment metadata to cover a row stored at heap slot i;
// the table write lock must be held. New trailing segments are created on
// demand.
func (t *Table) widenSegment(i int, r Row, countLive bool) {
	s := t.segIndexFor(i)
	for len(t.segs) <= s {
		t.segs = append(t.segs, segment{zones: make([]ZoneMap, t.Schema.Len())})
	}
	seg := &t.segs[s]
	if countLive {
		seg.live++
	}
	for c, v := range r {
		seg.zones[c].widen(v)
	}
}

// RebuildSegments recomputes exact segment metadata (zone maps, live
// counts) for the whole heap. The rebuild allocates fresh metadata and
// swaps it in under the write lock, so open Views keep their captured
// (conservative) metadata.
func (t *Table) RebuildSegments() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.segs = buildSegments(t.Schema.Len(), t.rows, t.deleted, t.segSize, 0)
}

// SetSegmentSize changes the table's segment granule (default SegmentSize)
// and rebuilds segment metadata. Intended for tests and benchmarks that
// need many segments from small corpora; n < 1 resets to the default.
func (t *Table) SetSegmentSize(n int) {
	if n < 1 {
		n = SegmentSize
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.segSize = n
	t.segs = buildSegments(t.Schema.Len(), t.rows, t.deleted, t.segSize, 0)
}

// SegmentCount returns the current number of segments.
func (t *Table) SegmentCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.segs)
}

// SegmentZone returns the zone map of column col in segment seg; ok is
// false when the column does not exist or seg is out of range.
func (t *Table) SegmentZone(seg int, col string) (ZoneMap, bool) {
	ci := t.Schema.ColumnIndex(col)
	t.mu.RLock()
	defer t.mu.RUnlock()
	if ci < 0 || seg < 0 || seg >= len(t.segs) {
		return ZoneMap{}, false
	}
	return t.segs[seg].zones[ci], true
}

// SegmentLive returns the live-row count of segment seg.
func (t *Table) SegmentLive(seg int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if seg < 0 || seg >= len(t.segs) {
		return 0
	}
	return t.segs[seg].live
}

// PruneFracRange returns the fraction of heap slots living in segments
// whose zone maps rule out every value in [lo, hi] of column col (NULL
// bounds unbounded) — the share of the relation a zone-mapped scan skips
// for that predicate. Unknown columns prune nothing.
func (t *Table) PruneFracRange(col string, lo, hi Value) float64 {
	ci := t.Schema.ColumnIndex(col)
	if ci < 0 {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.rows) == 0 {
		return 0
	}
	prunedSlots := 0
	for s := range t.segs {
		seg := &t.segs[s]
		if seg.live > 0 && seg.zones[ci].MayContain(lo, false, hi, false) {
			continue
		}
		slots := t.segSize
		if last := len(t.rows) - s*t.segSize; last < slots {
			slots = last
		}
		prunedSlots += slots
	}
	return float64(prunedSlots) / float64(len(t.rows))
}

// ZoneArm is one disjunct of a guarded expression reduced to its interval
// form: values of Col in [Lo, Hi] (NULL bounds unbounded).
type ZoneArm struct {
	Col    string
	Lo, Hi Value
}

// PrunableSegments counts the segments whose zone maps refute every arm —
// no arm's interval intersects the segment's zone for its column — under
// one lock acquisition. Empty segments are always prunable; an arm on an
// unknown column may match anywhere and keeps every segment alive. With no
// arms at all, nothing can match and every segment is prunable (the
// default-deny shape).
func (t *Table) PrunableSegments(arms []ZoneArm) (pruned, total int) {
	cols := make([]int, len(arms))
	for i, a := range arms {
		cols[i] = t.Schema.ColumnIndex(a.Col)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	total = len(t.segs)
	for s := range t.segs {
		seg := &t.segs[s]
		if seg.live == 0 {
			pruned++
			continue
		}
		survives := false
		for i, a := range arms {
			if cols[i] < 0 || seg.zones[cols[i]].MayContain(a.Lo, false, a.Hi, false) {
				survives = true
				break
			}
		}
		if !survives {
			pruned++
		}
	}
	return pruned, total
}

// Mutations returns the table's monotonically increasing mutation count
// (inserts, updates, deletes, bulk loads by row). Statistics record the
// count they were built at; auto-analyze compares against it to detect
// staleness.
func (t *Table) Mutations() int64 { return t.muts.Load() }
