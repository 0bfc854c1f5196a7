package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// RowID identifies a row within a table's heap. IDs are stable for the life
// of the row; deleted rows leave tombstones until Compact.
type RowID = int32

// Table is a heap-organised relation with optional secondary indexes.
// All methods are safe for concurrent readers with a single writer guarded
// by the embedding DB; Table itself serialises writes with a mutex because
// SIEVE's trigger path (policy insert → guard invalidation) may re-enter
// from executor goroutines in benchmarks.
type Table struct {
	Name   string
	Schema *Schema

	mu      sync.RWMutex
	rows    []Row
	deleted []bool
	live    int
	indexes map[string]*Index // keyed by column name
	segs    []segment         // fixed-size segment metadata (zone maps)
	segSize int
	muts    atomic.Int64 // monotonically increasing mutation count
	idxs    atomic.Int64 // index-set epoch: one per index created
}

// NewTable creates an empty table.
func NewTable(name string, schema *Schema) *Table {
	return &Table{Name: name, Schema: schema, indexes: make(map[string]*Index), segSize: SegmentSize}
}

// NumRows returns the number of live rows.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// Insert appends a row and maintains indexes. The row is cloned so callers
// may reuse their buffer.
func (t *Table) Insert(r Row) (RowID, error) {
	if err := t.Schema.Validate(r); err != nil {
		return -1, fmt.Errorf("table %s: %w", t.Name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := RowID(len(t.rows))
	t.rows = append(t.rows, r.Clone())
	t.deleted = append(t.deleted, false)
	t.live++
	t.widenSegment(int(id), r, true)
	for _, idx := range t.indexes {
		idx.insert(r[idx.col], id)
	}
	t.muts.Add(1)
	return id, nil
}

// BulkInsert appends many rows without per-row index maintenance and then
// rebuilds indexes once. It is the loading path for generated datasets.
func (t *Table) BulkInsert(rows []Row) error {
	for _, r := range rows {
		if err := t.Schema.Validate(r); err != nil {
			return fmt.Errorf("table %s: %w", t.Name, err)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	firstSeg := len(t.rows) / t.segSize
	for _, r := range rows {
		t.rows = append(t.rows, r.Clone())
		t.deleted = append(t.deleted, false)
	}
	t.live += len(rows)
	// Rebuild exact metadata for the segments the load touched, into a
	// fresh slice so open Views keep their captured metadata.
	segs := make([]segment, 0, (len(t.rows)+t.segSize-1)/t.segSize)
	segs = append(segs, t.segs[:firstSeg]...)
	segs = append(segs, buildSegments(t.Schema.Len(), t.rows, t.deleted, t.segSize, firstSeg)...)
	t.segs = segs
	for _, idx := range t.indexes {
		idx.rebuild(t)
	}
	t.muts.Add(int64(len(rows)))
	return nil
}

// Get returns the row for id. ok is false for tombstoned or out-of-range ids.
func (t *Table) Get(id RowID) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < 0 || int(id) >= len(t.rows) || t.deleted[id] {
		return nil, false
	}
	return t.rows[id], true
}

// Update replaces the row at id in place and fixes indexes.
func (t *Table) Update(id RowID, r Row) error {
	if err := t.Schema.Validate(r); err != nil {
		return fmt.Errorf("table %s: %w", t.Name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || int(id) >= len(t.rows) || t.deleted[id] {
		return fmt.Errorf("table %s: update of missing row %d", t.Name, id)
	}
	old := t.rows[id]
	for _, idx := range t.indexes {
		if !Equal(old[idx.col], r[idx.col]) {
			idx.remove(old[idx.col], id)
			idx.insert(r[idx.col], id)
		}
	}
	t.rows[id] = r.Clone()
	// Widen only: the old values stay inside the zone, keeping it
	// conservative until the next rebuild tightens it.
	t.widenSegment(int(id), r, false)
	t.muts.Add(1)
	return nil
}

// Delete tombstones the row at id.
func (t *Table) Delete(id RowID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || int(id) >= len(t.rows) || t.deleted[id] {
		return fmt.Errorf("table %s: delete of missing row %d", t.Name, id)
	}
	for _, idx := range t.indexes {
		idx.remove(t.rows[id][idx.col], id)
	}
	t.deleted[id] = true
	t.live--
	if s := t.segIndexFor(int(id)); s < len(t.segs) {
		t.segs[s].live--
	}
	t.muts.Add(1)
	return nil
}

// Lookup appends to dst the ids of the live rows whose col equals key,
// through the index on col, under the table's read lock — the index is
// maintained under the write lock, so this is the lookup that is safe
// beside concurrent writers. ok is false when col carries no index.
func (t *Table) Lookup(dst []RowID, col string, key Value) (ids []RowID, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.indexes[col]
	if !ok {
		return dst, false
	}
	return idx.Eq(dst, key), true
}

// CountRange counts the live rows whose col lies in the range (see
// Index.CountRange) through the index on col, under the table's read lock
// as Lookup is. ok is false when col carries no index.
func (t *Table) CountRange(col string, lo Value, loStrict bool, hi Value, hiStrict bool) (n int, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.indexes[col]
	if !ok {
		return 0, false
	}
	return idx.CountRange(lo, loStrict, hi, hiStrict), true
}

// NumSlots returns the heap length in slots, tombstones included; with
// NumRows it tells a caller that holds no row ids when Compact pays.
func (t *Table) NumSlots() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Scan calls fn for every live row in heap order. Returning false stops the
// scan. The callback must not mutate the row.
func (t *Table) Scan(fn func(id RowID, r Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i, r := range t.rows {
		if t.deleted[i] {
			continue
		}
		if !fn(RowID(i), r) {
			return
		}
	}
}

// CreateIndex builds an ordered secondary index over column col. Creating an
// index that already exists is a no-op. SIEVE assumes r.owner is always
// indexed (§3.1); the engine leaves that to the caller (engine.DB does it).
func (t *Table) CreateIndex(col string) (*Index, error) {
	ci := t.Schema.ColumnIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("table %s: no column %q to index", t.Name, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx, ok := t.indexes[col]; ok {
		return idx, nil
	}
	idx := newIndex(t.Name, col, ci)
	idx.rebuild(t)
	t.indexes[col] = idx
	t.idxs.Add(1)
	return idx, nil
}

// IndexEpoch returns the table's index-set epoch: it moves when an index is
// created and at no other time, so a plan priced against the indexes a table
// had holds while it stands. Compact rebuilds the indexes the table has
// without changing the set.
func (t *Table) IndexEpoch() int64 { return t.idxs.Load() }

// Index returns the index on col, if any.
func (t *Table) Index(col string) (*Index, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.indexes[col]
	return idx, ok
}

// IndexedColumns lists columns that currently carry an index.
func (t *Table) IndexedColumns() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.indexes))
	for c := range t.indexes {
		out = append(out, c)
	}
	return out
}

// SegmentRows returns the table's segment size in heap slots.
func (t *Table) SegmentRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.segSize
}

// RestoreHeap replaces the table's heap with exactly the given slots — a
// row per live slot, nil per tombstone — rebuilding segment metadata and
// every existing index from scratch. This is the recovery path: a snapshot
// serialises the heap tombstones included, so restored RowIDs are identical
// to the ones the WAL's update/delete records were logged against. The
// table takes ownership of both slices.
func (t *Table) RestoreHeap(rows []Row, deleted []bool) error {
	if len(rows) != len(deleted) {
		return fmt.Errorf("table %s: restore with %d rows but %d tombstone flags", t.Name, len(rows), len(deleted))
	}
	live := 0
	for i, r := range rows {
		if deleted[i] {
			continue
		}
		if err := t.Schema.Validate(r); err != nil {
			return fmt.Errorf("table %s: restore slot %d: %w", t.Name, i, err)
		}
		live++
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = rows
	t.deleted = deleted
	t.live = live
	t.segs = buildSegments(t.Schema.Len(), t.rows, t.deleted, t.segSize, 0)
	for _, idx := range t.indexes {
		idx.rebuild(t)
	}
	t.muts.Add(int64(live))
	return nil
}

// VacuumFloor is the number of tombstones Vacuum always tolerates, so that a
// tiny relation is not rewritten on every delete.
const VacuumFloor = 16

// Vacuum compacts the table once its tombstones outgrow half its live rows:
// heap, tombstone bitmap and index memory then stay within 1.5x of what the
// live rows need however many have been deleted, at an amortised cost of
// two row moves per delete. Compact renumbers rows, so Vacuum is for the
// relations whose writers address rows by a logical id through an index and
// hold no row id across calls (the policy relations); row-logged
// tables compact through engine.DB.Compact.
func (t *Table) Vacuum() {
	t.mu.RLock()
	sparse := len(t.rows)-t.live > t.live/2+VacuumFloor
	t.mu.RUnlock()
	if sparse {
		t.Compact()
	}
}

// Compact rewrites the heap without tombstones. The new heap, tombstone
// bitmap, segment metadata and indexes are all built aside and swapped in
// atomically under one write lock (copy-on-write), so a streaming scan that
// captured a View before the Compact finishes over the frozen pre-compact
// heap instead of observing shifted row ids. Row IDs change for rows read
// after the swap; raw RowIDs held across a Compact are stale.
func (t *Table) Compact() {
	t.mu.Lock()
	defer t.mu.Unlock()
	rows := make([]Row, 0, t.live)
	moved := make([]RowID, len(t.rows)) // old id → new id, for live rows
	for i, r := range t.rows {
		if !t.deleted[i] {
			moved[i] = RowID(len(rows))
			rows = append(rows, r)
		}
	}
	deleted := make([]bool, len(rows))
	// An index holds exactly the live rows, ordered by (key, id), and the
	// renumbering keeps the order of ids: relabelling the entries is the
	// rebuilt index, without the sort.
	indexes := make(map[string]*Index, len(t.indexes))
	for col, idx := range t.indexes {
		fresh := newIndex(t.Name, col, idx.col)
		fresh.entries = make([]indexEntry, len(idx.entries))
		for i, e := range idx.entries {
			fresh.entries[i] = indexEntry{key: e.key, id: moved[e.id]}
		}
		indexes[col] = fresh
	}
	segs := buildSegments(t.Schema.Len(), rows, deleted, t.segSize, 0)
	t.rows = rows
	t.deleted = deleted
	t.indexes = indexes
	t.segs = segs
}
