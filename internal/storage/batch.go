package storage

import "slices"

// Batch is a columnar view of the live rows in one heap-slot range (a whole
// segment, or a piece of one) or of one stretch of an index fetch list: the
// rows in load order, per-column value vectors materialised on demand, and a
// selection bitmap the evaluator narrows as predicates are applied. A Batch is the unit of vectorised
// guard evaluation — the engine runs each compiled conjunct
// column-at-a-time over the vectors instead of interpreting the expression
// tree once per row.
//
// A Batch is owned by one goroutine at a time — a scan cursor, an index
// fetch or one parallel-scan worker — and is reused batch after batch; it is
// not safe for concurrent use. The engine keeps batches across executions:
// Clear, when an owner is done, drops what it loaded so a kept batch pins no
// row. Rows are immutable once stored, so the vectors may be read without
// any lock after ScanBatch returns.
type Batch struct {
	rows  []Row
	cols  [][]Value
	built []bool
	hw    int // the most rows loaded at once since the last Clear
	// Sel is the selection bitmap: Sel[i] reports whether row i is still a
	// candidate. ScanBatch and FetchBatch reset every entry to true.
	Sel []bool
}

// Len returns the number of live rows in the batch.
func (b *Batch) Len() int { return len(b.rows) }

// Row returns row i (the full stored tuple, schema order).
func (b *Batch) Row(i int) Row { return b.rows[i] }

// Rows returns the underlying row slice, valid until the next load.
func (b *Batch) Rows() []Row { return b.rows }

// Col returns the value vector of schema column c, materialising and
// caching it on first use so only referenced columns pay the gather cost.
func (b *Batch) Col(c int) []Value {
	if !b.built[c] {
		vec := b.cols[c][:0]
		for _, r := range b.rows {
			vec = append(vec, r[c])
		}
		b.cols[c] = vec
		b.built[c] = true
	}
	return b.cols[c]
}

// reset prepares the batch for up to n ncols-wide rows, clearing cached
// vectors and the selection bitmap while keeping capacity — the column
// vectors' too, across tables of other widths.
func (b *Batch) reset(ncols, n int) {
	b.rows = slices.Grow(b.rows[:0], n)
	if more := ncols - cap(b.cols); more > 0 {
		b.cols = slices.Grow(b.cols[:cap(b.cols)], more)
	}
	b.cols = b.cols[:ncols]
	b.built = slices.Grow(b.built[:0], ncols)[:ncols]
	clear(b.built)
}

// Clear drops every row and column value loaded since the last Clear,
// keeping capacity, so a batch kept for a later owner pins nothing. It
// costs what was loaded, not what the batch could hold.
func (b *Batch) Clear() {
	clear(b.rows[:b.hw])
	for _, vec := range b.cols[:cap(b.cols)] {
		clear(vec[:min(b.hw, cap(vec))])
	}
	b.rows, b.hw = b.rows[:0], 0
	clear(b.built)
}

// finish sizes the selection bitmap to the loaded rows, all selected.
func (b *Batch) finish() {
	b.hw = max(b.hw, len(b.rows))
	if cap(b.Sel) < len(b.rows) {
		b.Sel = make([]bool, len(b.rows))
	} else {
		b.Sel = b.Sel[:len(b.rows)]
	}
	for i := range b.Sel {
		b.Sel[i] = true
	}
}

// ScanBatch loads the live rows in heap slots [lo, hi) — clamped to the
// captured heap — into b, resetting its vectors and selection bitmap. The
// row copy happens under the table's read lock; evaluation can then proceed
// without holding any lock (rows are immutable once stored), and vector
// materialisation is deferred to Col. It returns b.Len().
func (v *View) ScanBatch(lo, hi int, b *Batch) int {
	if hi > len(v.rows) {
		hi = len(v.rows)
	}
	b.reset(v.t.Schema.Len(), max(hi-lo, 0))
	v.t.mu.RLock()
	for i := lo; i < hi; i++ {
		if !v.deleted[i] {
			b.rows = append(b.rows, v.rows[i])
		}
	}
	v.t.mu.RUnlock()
	b.finish()
	return b.Len()
}

// FetchBatch loads the live rows among ids — an index fetch list, or a
// stretch of one — into b in list order, resetting its vectors and selection
// bitmap like ScanBatch. Ids refer to the captured heap, so a list resolved
// through the same view stays consistent across a concurrent Compact;
// tombstoned and out-of-range ids are skipped. It returns b.Len().
func (v *View) FetchBatch(ids []RowID, b *Batch) int {
	b.reset(v.t.Schema.Len(), len(ids))
	v.t.mu.RLock()
	for _, id := range ids {
		if id >= 0 && int(id) < len(v.rows) && !v.deleted[id] {
			b.rows = append(b.rows, v.rows[id])
		}
	}
	v.t.mu.RUnlock()
	b.finish()
	return b.Len()
}
