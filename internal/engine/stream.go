package engine

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// rowIter is the pull-based iterator the executor's streaming pipeline is
// built from. Next returns (nil, nil) once the stream is exhausted; any
// error (including context cancellation) terminates the stream. Close
// releases upstream resources and must be idempotent.
type rowIter interface {
	Next() (storage.Row, error)
	Close()
}

// Rows is a streaming query result: tuples are produced on demand as Next
// is called instead of being materialised up front. Closing early (or a
// LIMIT running out) stops the underlying scan, so abandoned queries do
// not pay for rows never read. A Rows is not safe for concurrent use; run
// concurrent queries through separate Rows.
//
// The usual loop:
//
//	rows, err := sess.Query(ctx, "SELECT id FROM t")
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		r := rows.Row()
//		...
//	}
//	if err := rows.Err(); err != nil { ... }
type Rows struct {
	cols   []string
	it     rowIter
	ex     executor
	cur    storage.Row
	err    error
	closed bool
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row. It returns false when the stream is
// exhausted, an error occurred (see Err), or the Rows was closed.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	var t0 time.Time
	if r.ex.span != nil {
		t0 = time.Now()
	}
	row, err := r.it.Next()
	if r.ex.span != nil {
		r.ex.span.AddSince(t0)
	}
	if err != nil {
		r.err = err
		r.release()
		return false
	}
	if row == nil {
		r.release()
		return false
	}
	r.cur = row
	return true
}

// Row returns the current row. Valid until the next call to Next; the
// caller must not mutate it.
func (r *Rows) Row() storage.Row { return r.cur }

// Scan copies the current row into dest, one destination per column.
// Destinations may be *storage.Value or *any (accept any column,
// including NULL), *int64 (INT, TIME, DATE), *float64 (any numeric),
// *string (VARCHAR, the raw stored string), or *bool (BOOL). A NULL or a
// kind the destination cannot hold is an error, never a silent zero.
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return fmt.Errorf("engine: Scan called without a successful Next")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("engine: Scan expects %d destinations, got %d", len(r.cur), len(dest))
	}
	for i, d := range dest {
		v := r.cur[i]
		switch p := d.(type) {
		case *storage.Value:
			*p = v
			continue
		case *any:
			*p = v
			continue
		}
		if v.IsNull() {
			return fmt.Errorf("engine: Scan: column %q is NULL; scan into *storage.Value to observe NULLs", r.cols[i])
		}
		mismatch := func() error {
			return fmt.Errorf("engine: Scan: cannot store %s column %q in %T", v.K, r.cols[i], d)
		}
		switch p := d.(type) {
		case *int64:
			switch v.K {
			case storage.KindInt, storage.KindTime, storage.KindDate:
				*p = v.I
			default:
				return mismatch()
			}
		case *float64:
			switch v.K {
			case storage.KindInt, storage.KindFloat, storage.KindTime, storage.KindDate:
				*p = v.Float()
			default:
				return mismatch()
			}
		case *string:
			if v.K != storage.KindString {
				return mismatch()
			}
			*p = v.S
		case *bool:
			if v.K != storage.KindBool {
				return mismatch()
			}
			*p = v.Bool()
		default:
			return fmt.Errorf("engine: unsupported Scan destination %T for column %q", d, r.cols[i])
		}
	}
	return nil
}

// Err returns the error that terminated iteration, if any. Context
// cancellation surfaces here as the context's error.
func (r *Rows) Err() error { return r.err }

// Counters returns a snapshot of this query's private work counters
// (tuples read, segments pruned, policy evaluations, …) accumulated so
// far. The same counters merge into the DB accumulators when the Rows is
// released, so the snapshot attributes work to one query without racing
// concurrent sessions.
func (r *Rows) Counters() Counters { return r.ex.local }

// AddCounters folds externally measured work into this query's private
// counters before they merge into the DB accumulators at release. The
// middleware uses it to attach rewrite-layer cache effectiveness (guard
// and plan cache hits/misses) to the query that experienced it. Call
// before iterating: the counters are owned by the query's goroutine.
func (r *Rows) AddCounters(c Counters) { r.ex.local.Add(c) }

// Close stops iteration and releases the underlying scan. It is
// idempotent and safe after exhaustion.
func (r *Rows) Close() error {
	r.release()
	return nil
}

// release tears the pipeline down exactly once and flushes the query's
// work counters into the database's accumulators.
func (r *Rows) release() {
	if r.closed {
		return
	}
	r.closed = true
	r.cur = nil
	r.it.Close()
	r.ex.flush(r.ex.db)
}

// Collect drains a stream opened by StreamStmt, Prepared.Stream or a
// middleware Query into a Result, closing it: the one materialising path,
// so a materialised call opens, times and counts exactly as a streamed
// one. err is the open's error, passed through, so Collect wraps an open
// call directly. A stream that fails mid-way returns its error and no
// partial Result.
func Collect(rows *Rows, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []storage.Row
	for rows.Next() {
		out = append(out, rows.cur)
	}
	if rows.err != nil {
		return nil, rows.err
	}
	return &Result{Columns: rows.cols, Rows: out}, nil
}

// drainIter consumes an iterator to completion, closing it.
func drainIter(it rowIter) ([]storage.Row, error) {
	defer it.Close()
	var rows []storage.Row
	for {
		row, err := it.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return rows, nil
		}
		rows = append(rows, row)
	}
}

// sliceIter yields from a materialised row slice.
type sliceIter struct {
	ex   *executor
	rows []storage.Row
	pos  int
}

func (it *sliceIter) Next() (storage.Row, error) {
	if err := it.ex.checkCtx(); err != nil {
		return nil, err
	}
	if it.pos >= len(it.rows) {
		return nil, nil
	}
	row := it.rows[it.pos]
	it.pos++
	return row, nil
}

func (it *sliceIter) Close() {}

// batchFilter is one goroutine's compiled filter at work: the shared
// program, and this goroutine's batch, scratch and evaluator, tallying into
// its own executor. An index fetch list has one; a sequential scan has one
// on the consumer's goroutine and one per fan-out worker. The batch, the
// scratch stacks and the selected-rows buffer are the scan's working memory
// and outlive the execution: a filter comes from filterPool and its owner
// releases it exactly once, when it is done with it, so the next scan on
// this P starts at the capacity the last one grew to. An owner that is never
// closed releases nothing; its filter is collected.
type batchFilter struct {
	ex    *executor
	prog  *vecProgram // nil: nothing to filter
	ve    vecEnv
	ev    evaluator
	batch storage.Batch
	sel   []storage.Row // the last batch's selected rows (selected)
	selHi int           // the most rows sel has held since the filter was taken
}

var filterPool = sync.Pool{New: func() any { return new(batchFilter) }}

// newBatchFilter takes a filter from the pool and sets it to run tb's
// program, tallying into ex; poll is threaded into the program for
// cancellation between conjuncts.
func newBatchFilter(ex *executor, tb *tableBinding, sc *scope, outer *env, poll func() error) *batchFilter {
	f := filterPool.Get().(*batchFilter)
	f.ex, f.prog = ex, tb.program(ex.db)
	f.ev = evaluator{ex: ex, scope: sc, b: tb.b}
	f.ve.b, f.ve.ev, f.ve.poll = &f.batch, &f.ev, poll
	f.ve.rowEnv.schema, f.ve.rowEnv.outer = tb.schema, outer
	if watch := ex.db.filterEvents.Load(); watch != nil {
		(*watch)(f, true)
	}
	return f
}

// release hands f back to the pool holding nothing of this execution — no
// row, value, executor, program or closure — at a cost in proportion to
// what the execution loaded. The caller must not touch f again.
func (f *batchFilter) release() {
	watch := f.ex.db.filterEvents.Load()
	f.batch.Clear()
	f.ve.s.clear()
	clear(f.sel[:f.selHi])
	f.sel, f.selHi = f.sel[:0], 0
	f.ex, f.prog, f.ev = nil, nil, evaluator{}
	f.ve.b, f.ve.ev, f.ve.poll = nil, nil, nil
	f.ve.rowEnv.schema, f.ve.rowEnv.row, f.ve.rowEnv.outer = nil, nil, nil
	if watch != nil {
		(*watch)(f, false)
	}
	filterPool.Put(f)
}

// selected runs the filter over the n rows just loaded into f.batch and
// returns the selected ones in f's own buffer, valid until the next call:
// the consumer goroutine's batches, which it has read before it loads the
// next.
func (f *batchFilter) selected(n int) ([]storage.Row, error) {
	var err error
	f.sel, err = f.apply(n, f.sel[:0])
	f.selHi = max(f.selHi, len(f.sel))
	return f.sel, err
}

// apply runs the filter over the n rows just loaded into f.batch and appends
// the selected ones to dst.
func (f *batchFilter) apply(n int, dst []storage.Row) ([]storage.Row, error) {
	if n == 0 {
		return dst, nil
	}
	f.ex.counters.TuplesRead += int64(n)
	if f.prog == nil {
		return append(dst, f.batch.Rows()...), nil
	}
	var t0 time.Time
	if f.ex.spVector != nil {
		t0 = time.Now()
	}
	f.ex.counters.BatchesVectorised++
	f.ex.counters.RowsVectorised += int64(n)
	err := f.prog.run(&f.ve)
	if f.ex.spVector != nil {
		f.ex.spVector.AddSince(t0)
		f.ex.spVector.Count("batches", 1)
	}
	if err != nil {
		return dst, err
	}
	for i, sel := range f.batch.Sel {
		if sel {
			dst = append(dst, f.batch.Row(i))
		}
	}
	return dst, nil
}

// fetchIter is the index access path: the plan's fetch cursor resolved
// through a copy-on-write heap View (so a concurrent Compact cannot shift
// the ids under it), loaded in batches that double from scanFirstBatch and
// filtered by the same compiled program a sequential scan runs — so a
// consumer that stops after the p-th fetched id has paid for at most
// min(2p+scanFirstBatch, len(ids)) tuples, and one that drains the fetch
// filters it a segment's worth at a time.
type fetchIter struct {
	ex    *executor
	t     *storage.Table
	plan  accessPlan
	tb    *tableBinding
	sc    *scope
	outer *env

	view   *storage.View
	filter *batchFilter
	ids    idCursor
	size   int           // next batch's length in ids
	buf    []storage.Row // the filter's selected rows
	pos    int
	closed bool
}

func (it *fetchIter) Next() (storage.Row, error) {
	if it.closed {
		return nil, nil
	}
	if it.view == nil {
		it.view = it.t.View()
		it.ids = it.plan.fetch(it.view, it.ex.counters)
		it.filter = newBatchFilter(it.ex, it.tb, it.sc, it.outer, it.ex.ctxErr)
		it.size = scanFirstBatch
	}
	for it.pos >= len(it.buf) {
		ids := it.ids.next(it.size)
		if len(ids) == 0 {
			it.Close()
			return nil, nil
		}
		n := it.view.FetchBatch(ids, &it.filter.batch)
		it.size = min(2*it.size, storage.SegmentSize)
		var err error
		it.buf, err = it.filter.selected(n)
		it.pos = 0
		if err != nil {
			return nil, err
		}
	}
	if err := it.ex.checkCtx(); err != nil {
		return nil, err
	}
	row := it.buf[it.pos]
	it.pos++
	return row, nil
}

// Close hands the cursor's bitmap back to its pool if the walk has zeroed
// it, and drops it otherwise: the pool holds only zeroed bitmaps. The
// filter goes back to its pool. Idempotent.
func (it *fetchIter) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.buf, it.pos = nil, 0
	it.ids.close()
	if it.filter != nil {
		it.filter.release()
		it.filter = nil
	}
}

// idCursor hands out an index fetch a batch at a time: the ids of one
// lookup in the order the index lists them, or the union of several as a
// bitmap over the view's heap slots, walked word by word in heap order. The
// walk zeroes each word it reads, so the full id list of a union is never
// built and a walked bitmap goes back to its pool clean. The walk's id
// buffer is sized once, for the largest batch the bitmap's unread ids can
// fill, and goes back to the pool with the bitmap however the walk ends.
type idCursor struct {
	list []storage.RowID // one lookup's ids not yet handed out
	bm   *bitmap         // a union; nil for one lookup and once closed
	word int             // next bitmap word to read
	cur  uint64          // the unread bits of word-1
	buf  []storage.RowID // the bitmap walk's batch, pooled with bm
}

// next returns the next at most n ids, none once the fetch is exhausted; the
// slice is valid until the next call.
func (c *idCursor) next(n int) []storage.RowID {
	if c.bm == nil {
		n = min(n, len(c.list))
		ids := c.list[:n]
		c.list = c.list[n:]
		return ids
	}
	ids, words := c.buf[:0], c.bm.words
	if cap(ids) < n {
		left := bits.OnesCount64(c.cur)
		for _, w := range words[c.word:] {
			left += bits.OnesCount64(w)
		}
		ids = make([]storage.RowID, 0, min(storage.SegmentSize, left))
	}
	for len(ids) < n {
		if c.cur == 0 {
			w := c.word
			for w+4 <= len(words) && words[w]|words[w+1]|words[w+2]|words[w+3] == 0 {
				w += 4
			}
			for w < len(words) && words[w] == 0 {
				w++
			}
			if w == len(words) {
				c.word = w
				break
			}
			c.cur, words[w] = words[w], 0
			c.word = w + 1
		}
		ids = append(ids, storage.RowID((c.word-1)<<6|bits.TrailingZeros64(c.cur)))
		c.cur &= c.cur - 1
	}
	c.buf = ids
	if len(ids) == 0 {
		c.close()
	}
	return ids
}

// close ends the cursor and hands the bitmap back to the pool with the id
// buffer: its words too when the walk has zeroed them, none when it was
// closed early. Idempotent.
func (c *idCursor) close() {
	if c.bm == nil {
		return
	}
	if c.cur != 0 || c.word != len(c.bm.words) {
		c.bm.words = nil
	}
	c.bm.ids = c.buf[:0]
	bitmapPool.Put(c.bm)
	c.bm = nil
}

// bitmap is a pooled row-id set over a view's heap slots — bit id%64 of
// words[id/64] — and the id buffer its walk fills. Every word of a pooled
// bitmap, up to its capacity, is zero.
type bitmap struct {
	words []uint64
	ids   []storage.RowID
}

var bitmapPool = sync.Pool{New: func() any { return new(bitmap) }}

// getBitmap returns an all-zero bitmap over slots heap slots.
func getBitmap(slots int) *bitmap {
	bm := bitmapPool.Get().(*bitmap)
	n := (slots + 63) >> 6
	if cap(bm.words) < n {
		bm.words = make([]uint64, n)
	}
	bm.words = bm.words[:n]
	return bm
}

// scanFirstBatch is the heap-slot length of a sequential scan's first
// batch. Each later batch of the first scanned segment is twice the one
// before, so a consumer that stops after a few rows (LIMIT, early Close) has
// paid for at most one batch past the rows it took, and one that keeps
// pulling is on whole segments — and the worker pool — one segment in.
const scanFirstBatch = 64

// scanIter is the sequential-scan operator, the same for every consumer:
// prune a segment by its zone maps, load a batch of its rows, run the
// binding's compiled filter over the batch, hand out the selected rows. It
// reads through a copy-on-write heap View, so an in-flight scan finishes
// over the heap it started on whatever Compact does meanwhile.
//
// Nothing tells the operator whether its consumer will drain it; it goes by
// what the consumer pulls. The first segment that survives pruning is read
// on the consumer's goroutine in batches that double from scanFirstBatch.
// When the consumer pulls past that segment, the rest go whole to the
// worker pool (parallel.go) if the filter may run off-goroutine and more
// than one worker has a segment to take; otherwise the same loop carries on,
// a segment per batch.
type scanIter struct {
	ex    *executor
	t     *storage.Table
	plan  accessPlan
	tb    *tableBinding
	sc    *scope
	outer *env

	view    *storage.View
	scan    *segScanner
	workers int // fan-out budget; ≤ 1 keeps the whole scan on this goroutine
	slot    int // next heap slot to load
	size    int // next batch's length in slots
	ramped  bool
	fan     *fanOut
	closed  bool
	buf     []storage.Row
	pos     int
}

func (it *scanIter) init() {
	it.view = it.t.View()
	it.scan = newSegScanner(it, it.ex, it.ex.ctxErr)
	it.size = scanFirstBatch
	if it.tb.parallelSafe() {
		it.workers = it.ex.db.EffectiveScanWorkers()
	}
	it.ex.counters.SeqScans++
}

func (it *scanIter) Next() (storage.Row, error) {
	if it.closed {
		return nil, nil
	}
	if it.view == nil {
		it.init()
	}
	for it.pos >= len(it.buf) {
		next := it.nextBatch
		if it.fan != nil {
			next = it.fan.next
		}
		var more bool
		var err error
		it.buf, more, err = next()
		it.pos = 0
		if err != nil || !more {
			it.Close()
			return nil, err
		}
	}
	if err := it.ex.checkCtx(); err != nil {
		return nil, err
	}
	row := it.buf[it.pos]
	it.pos++
	return row, nil
}

// nextBatch returns the next batch's selected rows (possibly none; the
// slice is the consumer filter's buffer), or starts the fan-out and returns
// none; more is false at heap end.
func (it *scanIter) nextBatch() (rows []storage.Row, more bool, err error) {
	if it.slot >= it.view.NumSlots() {
		return nil, false, nil
	}
	segRows := it.view.SegmentRows()
	seg := it.slot / segRows
	end := (seg + 1) * segRows
	if it.slot == seg*segRows { // entering a segment
		if w := min(it.workers, it.view.NumSegments()-seg); it.ramped && w > 1 {
			it.fan = startFanOut(it, seg, w)
			return nil, true, nil
		}
		if it.scan.refuted(seg) {
			it.slot = end
			return nil, true, nil
		}
	}
	hi := min(it.slot+it.size, end)
	rows, err = it.scan.selected(it.view.ScanBatch(it.slot, hi, &it.scan.batch))
	it.slot = hi
	it.ramped = it.ramped || hi == end
	if it.size < segRows {
		it.size *= 2
	}
	return rows, true, err
}

// Close stops the scan; with a fan-out running it stops the workers, waits
// for them and merges their counters. Then the consumer's filter goes back
// to its pool. Idempotent.
func (it *scanIter) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.buf, it.pos = nil, 0
	if it.fan != nil {
		it.fan.close()
	}
	if it.scan != nil {
		it.scan.release()
		it.scan = nil
	}
}

// segScanner is one goroutine's share of a sequential scan: its batch
// filter and zone-map scratch. The consumer's goroutine has one; every
// fan-out worker has its own, over the same program.
type segScanner struct {
	*batchFilter
	view *storage.View
	plan *accessPlan
	zbuf []storage.ZoneMap
}

// newSegScanner builds a scanner for its scan that tallies into ex; poll
// is threaded into the program for cancellation between conjuncts.
func newSegScanner(it *scanIter, ex *executor, poll func() error) *segScanner {
	return &segScanner{
		batchFilter: newBatchFilter(ex, it.tb, it.sc, it.outer, poll),
		view:        it.view,
		plan:        &it.plan,
		zbuf:        zoneBuf(it.plan.zoneCols),
	}
}

// refuted reports whether segment seg can be skipped without touching a
// tuple — only its zone maps are read — and tallies the segment as pruned
// or scanned.
func (s *segScanner) refuted(seg int) bool {
	var t0 time.Time
	if s.ex.spPrune != nil {
		t0 = time.Now()
	}
	refuted := segmentRefuted(s.view, seg, s.plan.zonePreds, s.plan.zoneCols, s.zbuf)
	if s.ex.spPrune != nil {
		s.ex.spPrune.AddSince(t0)
		if refuted {
			s.ex.spPrune.Count("segments", 1)
		}
	}
	if !refuted {
		s.ex.counters.SegmentsScanned++
		return false
	}
	s.ex.counters.SegmentsPruned++
	return true
}

// run loads heap slots [lo, hi) as a batch, runs the filter over it and
// returns the selected rows in a slice of their own: a fan-out worker's
// segment, which the consumer reads while the worker loads the next.
func (s *segScanner) run(lo, hi int) ([]storage.Row, error) {
	return s.apply(s.view.ScanBatch(lo, hi, &s.batch), nil)
}

// filterIter applies conjuncts to the rows of a derived source or a join,
// each row bound in turn to its one env.
type filterIter struct {
	src   rowIter
	conjs []sqlparser.Expr
	ev    evaluator
	en    env
}

func (it *filterIter) Next() (storage.Row, error) {
	for {
		row, err := it.src.Next()
		if err != nil || row == nil {
			return nil, err
		}
		it.en.row = row
		keep, err := rowPasses(&it.ev, &it.en, it.conjs)
		if err != nil {
			return nil, err
		}
		if keep {
			return row, nil
		}
	}
}

func (it *filterIter) Close() { it.src.Close() }

// projIter evaluates the select list per input row, each row bound in turn
// to its one env.
type projIter struct {
	src   rowIter
	items []sqlparser.SelectItem
	ev    evaluator
	en    env
}

func (it *projIter) Next() (storage.Row, error) {
	row, err := it.src.Next()
	if err != nil || row == nil {
		return nil, err
	}
	it.en.row = row
	out := make(storage.Row, len(it.items))
	for i, item := range it.items {
		v, err := it.ev.eval(item.Expr, &it.en)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (it *projIter) Close() { it.src.Close() }

// distinctIter passes each row of src the first time it occurs, keeping
// first occurrences in order: DISTINCT and UNION. With minus set it is
// MINUS: the rows of minus, drained into the set at the first Next, are
// never passed.
type distinctIter struct {
	src   rowIter
	minus rowIter
	seen  rowSet
}

func (it *distinctIter) Next() (storage.Row, error) {
	if it.minus != nil {
		rows, err := drainIter(it.minus)
		it.minus = nil
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			it.seen.add(row)
		}
	}
	for {
		row, err := it.src.Next()
		if err != nil || row == nil {
			return nil, err
		}
		if it.seen.add(row) {
			return row, nil
		}
	}
}

func (it *distinctIter) Close() {
	it.src.Close()
	if it.minus != nil {
		it.minus.Close()
	}
}

// concatIter streams its arms one after another, closing each as it runs
// out: a UNION's.
type concatIter struct{ arms []rowIter }

// appendArm is it followed by arm.
func appendArm(it, arm rowIter) rowIter {
	if c, ok := it.(*concatIter); ok {
		c.arms = append(c.arms, arm)
		return c
	}
	return &concatIter{arms: []rowIter{it, arm}}
}

func (it *concatIter) Next() (storage.Row, error) {
	for len(it.arms) > 0 {
		row, err := it.arms[0].Next()
		if err != nil || row != nil {
			return row, err
		}
		it.arms[0].Close()
		it.arms = it.arms[1:]
	}
	return nil, nil
}

func (it *concatIter) Close() {
	for _, arm := range it.arms {
		arm.Close()
	}
}

// joinIter joins its probe side, streamed, with its build side, drained at
// the first Next: on the key offsets when it has any, as a hash join (a
// NULL key matches nothing), as a cross join otherwise. Rows come in the
// probe side's order and, for one probe row, in the build side's.
type joinIter struct {
	ex           *executor
	probe, build rowIter
	lkeys, rkeys []int

	built   bool
	inner   []storage.Row            // the cross join's build side
	table   map[string][]storage.Row // the hash join's build side
	lrow    storage.Row
	matches []storage.Row // lrow's build rows not yet joined
	kb      []byte        // the last key, encoded
}

func (it *joinIter) Next() (storage.Row, error) {
	if !it.built {
		if err := it.buildSide(); err != nil {
			return nil, err
		}
	}
	for len(it.matches) == 0 {
		lrow, err := it.probe.Next()
		if err != nil || lrow == nil {
			return nil, err
		}
		it.lrow, it.matches = lrow, it.inner
		if it.table != nil {
			it.matches = nil
			if it.key(lrow, it.lkeys) {
				it.matches = it.table[string(it.kb)]
			}
		}
	}
	// Per-output-row tick: a skewed key or a large inner must still honour
	// cancellation within the interval.
	if err := it.ex.checkCtx(); err != nil {
		return nil, err
	}
	rrow := it.matches[0]
	it.matches = it.matches[1:]
	return concatRows(it.lrow, rrow), nil
}

// buildSide drains the build side into inner or, keyed, into table.
func (it *joinIter) buildSide() error {
	it.built = true
	rows, err := drainIter(it.build)
	if err != nil {
		return err
	}
	if len(it.rkeys) == 0 {
		it.inner = rows
		return nil
	}
	it.table = make(map[string][]storage.Row, len(rows))
	for _, row := range rows {
		if it.key(row, it.rkeys) {
			it.table[string(it.kb)] = append(it.table[string(it.kb)], row)
		}
	}
	return nil
}

// key encodes row's values at keys into kb; false when one is NULL.
func (it *joinIter) key(row storage.Row, keys []int) bool {
	it.kb = it.kb[:0]
	for _, k := range keys {
		if row[k].IsNull() {
			return false
		}
		it.kb = appendValue(it.kb, row[k])
	}
	return true
}

func (it *joinIter) Close() {
	it.probe.Close()
	it.build.Close()
	it.inner, it.table, it.matches = nil, nil, nil
}

// projectIter is a grouped or ordered core's projection: at the first Next
// it runs its input through a projector, streamed, and then hands out the
// rows the projector kept, in order.
type projectIter struct {
	p    *projector
	src  rowIter
	rows []keyedRow
	pos  int
	done bool
}

func (it *projectIter) Next() (storage.Row, error) {
	if !it.done {
		it.done = true
		var err error
		it.rows, err = it.p.run(it.src)
		it.src.Close()
		if err != nil {
			return nil, err
		}
	}
	if err := it.p.ex.checkCtx(); err != nil {
		return nil, err
	}
	if it.pos >= len(it.rows) {
		return nil, nil
	}
	row := it.rows[it.pos].row
	it.pos++
	return row, nil
}

func (it *projectIter) Close() {
	it.src.Close()
	it.rows = nil
}

// offsetIter discards the first skip rows of the stream (LIMIT ... OFFSET).
// It sits upstream of limitIter so the limit counts delivered rows only.
type offsetIter struct {
	src  rowIter
	skip int64
}

func (it *offsetIter) Next() (storage.Row, error) {
	for it.skip > 0 {
		row, err := it.src.Next()
		if err != nil || row == nil {
			it.skip = 0
			return nil, err
		}
		it.skip--
	}
	return it.src.Next()
}

func (it *offsetIter) Close() { it.src.Close() }

// limitIter stops the stream after n rows, closing the upstream scan so a
// satisfied LIMIT terminates the query early (§5's amortisation carries to
// execution: work is proportional to rows delivered, not rows stored).
type limitIter struct {
	src  rowIter
	n    int64
	done bool
}

func (it *limitIter) Next() (storage.Row, error) {
	if it.done || it.n <= 0 {
		it.Close()
		return nil, nil
	}
	row, err := it.src.Next()
	if err != nil || row == nil {
		return nil, err
	}
	it.n--
	if it.n == 0 {
		it.Close()
	}
	return row, nil
}

func (it *limitIter) Close() {
	if !it.done {
		it.done = true
		it.src.Close()
	}
}

// cteIter wraps a lazily-streamed WITH body so its errors name the CTE.
type cteIter struct {
	src  rowIter
	name string
}

func (it *cteIter) Next() (storage.Row, error) {
	row, err := it.src.Next()
	if err != nil {
		return nil, fmt.Errorf("in WITH %s: %w", it.name, err)
	}
	return row, nil
}

func (it *cteIter) Close() { it.src.Close() }
