package engine

import (
	"errors"
	"sync"
	"time"

	"github.com/sieve-db/sieve/internal/storage"
)

// errScanClosed aborts a worker's in-flight segment when the operator is
// torn down; it never escapes the operator.
var errScanClosed = errors.New("engine: parallel scan closed")

// The fan-out half of the sequential-scan operator (scanIter, stream.go):
// once the consumer has pulled past the first scanned segment, the segments
// after it are handed, in heap order, to a worker pool. Each worker prunes,
// loads and filters whole segments (guards and Δ policy checks included)
// with its own segScanner, executor and counters over the scan's one
// compiled program, and a bounded reorder
// window hands the per-segment results back in heap order, so the stream
// is byte-identical to the single-goroutine scan's. The window is what
// bounds read-ahead: workers run at most 2×workers dispatched segments
// ahead of the one the consumer is on.
//
// Cancellation and teardown: workers poll the query context and the done
// channel between filter operators; close (reached, once, on early Close,
// LIMIT, error and exhaustion) closes done, waits for the pool, and
// only then merges the workers' counters into the query's — so counter
// totals are exact and race-free at flush time.
type fanOut struct {
	it      *scanIter
	done    chan struct{}
	ordered chan chan segResult
	wg      sync.WaitGroup
	pool    []*executor // per-worker executors, counters merged at close
}

// segTask is one segment handed to a worker; out is buffered (capacity 1)
// so workers never block delivering a finished segment.
type segTask struct {
	seg int
	out chan segResult
}

// segResult is one segment's matching rows, or the error that stopped its
// worker.
type segResult struct {
	rows []storage.Row
	err  error
}

// startFanOut spins up the feeder and the worker goroutines over segments
// [from, NumSegments).
func startFanOut(it *scanIter, from, workers int) *fanOut {
	f := &fanOut{
		it:   it,
		done: make(chan struct{}),
		// The reorder window: per-segment result channels in dispatch
		// (= heap) order; its capacity bounds how far workers may run
		// ahead of the consumer.
		ordered: make(chan chan segResult, 2*workers),
		pool:    make([]*executor, workers),
	}
	it.ex.counters.ParallelScans++
	work := make(chan segTask)
	for i := range f.pool {
		// Workers share the query's scan span (Span accumulation is
		// concurrency-safe): their aggregate busy time lands on a
		// "workers" child of it.
		child := &executor{db: it.ex.db, ctx: it.ex.ctx, span: it.ex.span}
		child.counters = &child.local
		f.pool[i] = child
		f.wg.Add(1)
		go f.worker(child, work)
	}
	f.wg.Add(1)
	go func() { // feeder: dispatches segments in heap order
		defer f.wg.Done()
		defer close(f.ordered)
		defer close(work)
		for seg := from; seg < it.view.NumSegments(); seg++ {
			tk := segTask{seg: seg, out: make(chan segResult, 1)}
			select {
			case f.ordered <- tk.out:
			case <-f.done:
				return
			}
			select {
			case work <- tk:
			case <-f.done:
				return
			}
		}
	}()
	return f
}

func (f *fanOut) worker(child *executor, work <-chan segTask) {
	defer f.wg.Done()
	scan := newSegScanner(f.it, child, func() error {
		select {
		case <-f.done:
			return errScanClosed
		default:
			return child.ctxErr()
		}
	})
	defer scan.release()
	segRows := f.it.view.SegmentRows()
	for {
		var tk segTask
		var ok bool
		select {
		case tk, ok = <-work:
			if !ok {
				return
			}
		case <-f.done:
			return
		}
		var t0 time.Time
		if child.span != nil {
			t0 = time.Now()
		}
		var res segResult
		if !scan.refuted(tk.seg) {
			res.rows, res.err = scan.run(tk.seg*segRows, (tk.seg+1)*segRows)
		}
		if child.span != nil {
			sp := child.span.Child("workers")
			sp.AddSince(t0)
			sp.Count("segments", 1)
		}
		if errors.Is(res.err, errScanClosed) {
			return // done closed mid-segment; the consumer is gone
		}
		tk.out <- res
		if res.err != nil {
			return
		}
	}
}

// next returns the next segment's selected rows in heap order; more is
// false once every segment has been handed back.
func (f *fanOut) next() (rows []storage.Row, more bool, err error) {
	ch, ok := <-f.ordered
	if !ok {
		return nil, false, nil
	}
	res := <-ch
	return res.rows, true, res.err
}

// close stops the feeder and every worker, waits for them to exit, and
// merges their counters into the query's. scanIter.Close calls it once.
func (f *fanOut) close() {
	close(f.done)
	f.wg.Wait()
	for _, child := range f.pool {
		f.it.ex.counters.Add(child.local)
	}
}
