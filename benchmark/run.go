package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sieve-db/sieve/internal/loadgen"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/storage"
	"github.com/sieve-db/sieve/internal/workload"
)

// numClients is the load: two closed-loop clients, each its own goroutine
// (and, over the wire, its own connection), on GOMAXPROCS = nproc.
const numClients = 2

// runOpts is one invocation's configuration.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	sz       sizes
	outDir   string
	// maxOps, when positive, ends the measured part after that many ops
	// instead of after seconds, so two builds do identical work.
	maxOps int
	// slices is how many stretches the measured part is cut into, with
	// one more set-up after each (default 3).
	slices int
	// tamper, when set, edits each op's rows before they are verified; the
	// tests use it to prove a wrong row is caught.
	tamper func([]storage.Row) []storage.Row
}

// system is a workload set up and ready to take ops.
type system struct {
	e       *env
	callers []caller
	oracle  *oracle // static workloads
	cols    []string
	tamper  func([]storage.Row) []storage.Row
	next    int // next unused op index
	// churners hold each client's policy-write state across phases.
	churners []churner
}

func (s *system) close() {
	for _, c := range s.callers {
		c.close()
	}
	s.e.close()
}

// setUp builds the workload, warms it and runs the warm-up ops, and reports
// how long that took. The benchmark's own oracle (or checker) is built in
// between — or, given an earlier build's oracle, rebound — and is not part of
// the time.
func setUp(ctx context.Context, o runOpts, built *oracle) (*system, float64, error) {
	t0 := time.Now()
	e, err := build(o.workload, o.seed, o.sz, o.outDir)
	if err != nil {
		return nil, 0, err
	}
	s := &system{e: e, churners: make([]churner, numClients)}
	fail := func(err error) (*system, float64, error) {
		s.close()
		return nil, 0, err
	}
	if err := e.warm(); err != nil {
		return fail(err)
	}
	for c := 0; c < numClients; c++ {
		var cl caller = newInproc(e, e.queriers)
		if e.srv != nil {
			if cl, err = newWire(ctx, e, nil, e.queriers, e.prepared); err != nil {
				return fail(err)
			}
		}
		s.callers = append(s.callers, cl)
	}
	setup := time.Since(t0)

	for _, col := range e.schema.Columns {
		s.cols = append(s.cols, col.Name)
	}
	switch {
	case e.corpus != nil:
		err = e.newChecker()
	case built != nil:
		s.oracle = built.rebind(e)
	default:
		s.oracle, err = newOracle(e)
	}
	if err != nil {
		return fail(err)
	}

	t0 = time.Now()
	s.next = -e.sz.warmOps
	ph, err := s.closedLoop(ctx, time.Time{}, e.sz.warmOps)
	if err != nil {
		return fail(fmt.Errorf("warm-up ops: %w", err))
	}
	setup += time.Since(t0)
	s.next = 0
	for i := range ph.recs {
		if ph.recs[i].bad {
			return fail(fmt.Errorf("warm-up op returned a row the oracle rejects (%s)", kindNames[ph.recs[i].kind]))
		}
	}
	s.tamper = o.tamper
	return s, setup.Seconds(), nil
}

// phase is what one measured stretch of ops produced.
type phase struct {
	recs   []rec
	wall   time.Duration
	heapMB []float64 // HeapInuse, sampled every heapSampleEvery
	mem0   runtime.MemStats
	mem1   runtime.MemStats
	cpuS   float64
}

// pooled is the phases of one run taken as one.
func pooled(phases []*phase) *phase {
	all := &phase{}
	for _, ph := range phases {
		all.recs = append(all.recs, ph.recs...)
		all.wall += ph.wall
		all.heapMB = append(all.heapMB, ph.heapMB...)
	}
	return all
}

// churner is one client's policy-write state on scale_churn: the grants it
// has added and not yet revoked.
type churner struct {
	writes int
	live   []grant
}

type grant struct {
	id      int64
	querier int32
	owner   int64
	revoked func() // stamps the grant's death on the checker's clock
}

const heapSampleEvery = 20 * time.Millisecond

// closedLoop runs ops from the sequence on numClients goroutines, each
// sending its next op only when the previous one returned, until deadline
// passes or maxOps ops are done (whichever is set). Before the oracle
// exists (warm-up) nothing is verified.
func (s *system) closedLoop(ctx context.Context, deadline time.Time, maxOps int) (*phase, error) {
	if deadline.IsZero() && maxOps <= 0 {
		return nil, errors.New("closed loop with neither a deadline nor an op count")
	}
	from := s.next
	var done atomic.Int64
	var firstErr atomic.Value
	perClient := make([][]rec, len(s.callers))
	ph := &phase{}

	stopHeap := make(chan struct{})
	var heapWG sync.WaitGroup
	heapWG.Add(1)
	go func() {
		defer heapWG.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		// The two classes add up to runtime.MemStats.HeapInuse; reading
		// them does not stop the world.
		m := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		for {
			metrics.Read(m)
			ph.heapMB = append(ph.heapMB, float64(m[0].Value.Uint64()+m[1].Value.Uint64())/(1<<20))
			select {
			case <-stopHeap:
				return
			case <-t.C:
			}
		}
	}()

	runtime.ReadMemStats(&ph.mem0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range s.callers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ch := &s.churners[c]
			for i := from + c; ctx.Err() == nil; i += len(s.callers) {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				if maxOps > 0 && done.Add(1) > int64(maxOps) {
					return
				}
				out, err := s.runOp(ctx, c, ch, s.e.opAt(i))
				perClient[c] = append(perClient[c], out...)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(t0)
	ph.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ph.mem1)
	close(stopHeap)
	heapWG.Wait()

	most := 0
	for _, rs := range perClient {
		ph.recs = append(ph.recs, rs...)
		if n := len(rs); n > most {
			most = n
		}
	}
	s.next = from + most*len(s.callers)
	if s.oracle != nil {
		for i := range ph.recs {
			s.oracle.settle(&ph.recs[i])
		}
	}
	err, _ := firstErr.Load().(error)
	return ph, err
}

// runOp executes one op of the sequence for client c and returns its
// records: one for a read, two for a write (the write, then the read after
// it). A failed op comes back marked bad with the error.
func (s *system) runOp(ctx context.Context, c int, ch *churner, o op) ([]rec, error) {
	if o.kind != kWrite {
		r, err := s.read(ctx, s.callers[c], o)
		return []rec{r}, err
	}
	w, after, err := s.write(ch, o)
	if err != nil {
		return []rec{w}, err
	}
	raw, err := s.read(ctx, s.callers[c], after)
	return []rec{w, raw}, err
}

// write does one policy write and returns the read that follows it: the
// prepared point lookup of the policy's owner, by the member of the touched
// group the write was drawn for.
func (s *system) write(ch *churner, o op) (w rec, after op, err error) {
	e := s.e
	w = rec{kind: kWrite, querier: o.querier, query: o.query}
	var g grant
	ch.writes++
	// Two grants, then one revocation of the oldest live grant: the store
	// drifts by a third of a policy per write (under 1% over a run) and the
	// median write sits inside the AddPolicy mode, not on the boundary
	// between it and the ten times dearer RevokePolicy.
	if ch.writes%3 != 0 {
		g = grant{querier: o.querier, owner: e.churnOwners[o.query]}
		group := workload.ScaleGroupName(e.groupOf[o.querier])
		p := &policy.Policy{
			Owner: g.owner, Querier: group, Purpose: e.purpose,
			Relation: e.relation, Action: policy.Allow,
		}
		entry := e.checker.WillGrant(group, g.owner)
		g.revoked = func() { e.checker.DidRevoke(entry) }
		t0 := time.Now()
		err = e.m.AddPolicy(p)
		w.lat = time.Since(t0)
		if err != nil {
			w.bad = true
			return w, op{}, fmt.Errorf("AddPolicy: %w", err)
		}
		g.id = p.ID
		ch.live = append(ch.live, g)
	} else {
		g, ch.live = ch.live[0], ch.live[1:]
		w.revoke = true
		t0 := time.Now()
		err = e.m.RevokePolicy(g.id)
		w.lat = time.Since(t0)
		if err != nil {
			w.bad = true
			return w, op{}, fmt.Errorf("RevokePolicy: %w", err)
		}
		g.revoked()
	}
	return w, op{kind: kRAW, querier: g.querier, query: e.ownerQuery[g.owner]}, nil
}

// read runs one read op through cl and verifies its rows.
func (s *system) read(ctx context.Context, cl caller, o op) (rec, error) {
	e := s.e
	r := rec{kind: o.kind, querier: o.querier, query: o.query}
	var qStart int64
	if e.checker != nil {
		qStart = e.checker.Clock()
	}
	rows, lat, first, err := cl.read(ctx, o)
	r.lat, r.first = lat, first
	if err != nil {
		r.bad = true
		return r, fmt.Errorf("%s %s as %s: %w", kindNames[o.kind], e.queries[o.query].name, e.queriers[o.querier], err)
	}
	s.verify(&r, rows, qStart)
	return r, nil
}

// verify holds an op's rows to the oracle (the part that needs the rows; see
// oracle.settle for the rest) or, on scale_churn, to the checker's
// two-legal-worlds bound. qStart is the checker's clock before the op began.
func (s *system) verify(r *rec, rows []storage.Row, qStart int64) {
	e := s.e
	if s.tamper != nil {
		rows = s.tamper(rows)
	}
	r.rows = int32(len(rows))
	switch {
	case e.checker != nil:
		e.checker.CheckRows(e.checkAs[r.querier], qStart,
			loadgen.Query{Name: e.queries[r.query].name, RowCheck: true}, rows, s.cols)
	case s.oracle != nil:
		s.oracle.check(r, rows)
	}
}

// denyProbe runs every row-checkable query as each default-deny querier,
// through the same path the workload uses, and returns how many probes ran
// and how many came back with rows.
func (s *system) denyProbe(ctx context.Context) (attempted, leaked int, err error) {
	e := s.e
	var cl caller = newInproc(e, e.deny)
	if e.srv != nil {
		if cl, err = newWire(ctx, e, nil, e.deny, nil); err != nil {
			return 0, 0, err
		}
	}
	defer cl.close()
	for qi := range e.deny {
		for k, q := range e.queries {
			if q.check == checkNone {
				continue
			}
			rows, _, _, rerr := cl.read(ctx, op{kind: kExhaust, querier: int32(qi), query: int32(k)})
			attempted++
			if rerr != nil || len(rows) > 0 {
				leaked++
			}
		}
	}
	return attempted, leaked, nil
}

// latencies returns the latencies (µs, ascending) of the good records keep
// selects.
func latencies(recs []rec, keep func(*rec) bool, field func(*rec) time.Duration) []float64 {
	var out []float64
	for i := range recs {
		r := &recs[i]
		if !r.bad && keep(r) {
			out = append(out, float64(field(r))/float64(time.Microsecond))
		}
	}
	return sorted(out)
}

func byKind(k opKind) func(*rec) bool { return func(r *rec) bool { return r.kind == k } }
func anyKind(*rec) bool               { return true }
func opLat(r *rec) time.Duration      { return r.lat }
func firstRow(r *rec) time.Duration   { return r.first }

// endToEndOf turns a measured phase into the end-to-end metrics, noting the
// sample count of every percentile and which percentiles the sample does not
// support.
func endToEndOf(ph *phase, setupS float64, out series, rep *report) {
	secs := ph.wall.Seconds()
	var rows int64
	good := 0
	for i := range ph.recs {
		if !ph.recs[i].bad {
			good++
			rows += int64(ph.recs[i].rows)
		}
	}
	out.set("setup_s", setupS)
	out.set("ops_per_s", float64(good)/secs)
	out.set("rows_per_s", float64(rows)/secs)
	// The sustained peak: the level HeapInuse stays under for nine tenths of
	// the run. The single highest sample is one coincidence of two scans'
	// transient buffers and moved by a quarter between runs of hospital_scan.
	out.set("peak_heap_mb", percentile(sorted(ph.heapMB), 90))

	pct := func(name string, asc []float64, p float64) {
		out.set(name, percentile(asc, p))
		rep.Samples[name] = len(asc)
		if !supported(len(asc), p) {
			rep.LowN = append(rep.LowN, name)
		}
	}
	all := latencies(ph.recs, anyKind, opLat)
	pct("op_p50_us", all, 50)
	pct("op_p95_us", all, 95)
	pct("op_p99_us", all, 99)
	pct("stream_p50_us", latencies(ph.recs, byKind(kStream), opLat), 50)
	pct("exhaust_p50_us", latencies(ph.recs, byKind(kExhaust), opLat), 50)
	pct("prepared_p50_us", latencies(ph.recs, byKind(kPrepared), opLat), 50)
	pct("first_row_p50_us", latencies(ph.recs, byKind(kStream), firstRow), 50)
}

// tally counts a phase's ops into the report: attempted, and failed —
// errors, refusals, and ops with a row the oracle rejects.
func tally(ph *phase, rep *report) {
	rep.Attempted += len(ph.recs)
	for i := range ph.recs {
		if ph.recs[i].bad {
			rep.Failed++
		}
	}
}

// openStats is one open-loop rate's outcome.
type openStats struct {
	rate       float64
	latsUS     []float64 // from the scheduled send time, ascending
	lagsUS     []float64 // how late each send was, ascending
	attempted  int       // ops sent
	failed     int       // of those, the ones that came back with an error
	shed       int       // ops never sent: still queued when the loop gave up
	backlogMax int
	backlogEnd int // ops due inside the window but unsent when it closed
}

// openLoop sends total ops on a fixed schedule — op i is due at start +
// i/rate — from `workers` senders. A sender that falls behind sends at once;
// latency always counts from the due time, so a stall shows as latency on
// every op queued behind it, not as a lower send rate. The window is the
// total/rate seconds the schedule spans; ops still unsent when it has been
// over for as long again are shed, not sent.
func openLoop(ctx context.Context, rate float64, total, workers int, exec func(worker, i int) error) openStats {
	st := openStats{rate: rate}
	if total < 1 {
		total = 1
	}
	dur := time.Duration(float64(total) / rate * float64(time.Second))
	start := time.Now()
	giveUp := start.Add(2 * dur)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				if sent.After(giveUp) {
					mu.Lock()
					st.shed++
					mu.Unlock()
					continue
				}
				backlog := int(sent.Sub(start).Seconds()*rate) - i
				err := exec(w, i)
				lat := time.Since(due)
				mu.Lock()
				st.attempted++
				if err != nil {
					st.failed++
				} else {
					st.latsUS = append(st.latsUS, float64(lat)/float64(time.Microsecond))
				}
				st.lagsUS = append(st.lagsUS, float64(sent.Sub(due))/float64(time.Microsecond))
				if backlog > st.backlogMax {
					st.backlogMax = backlog
				}
				if sent.After(start.Add(dur)) {
					st.backlogEnd++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	st.latsUS = sorted(st.latsUS)
	st.lagsUS = sorted(st.lagsUS)
	return st
}

// holds reports whether the rate met the latency limit without a growing
// backlog: a failed or shed op counts as over the limit, and the queue must
// have been drained when the window closed.
func (st *openStats) holds(limitUS float64) bool {
	if len(st.latsUS) == 0 {
		return false
	}
	overLimit := st.failed + st.shed
	for _, l := range st.latsUS {
		if l > limitUS {
			overLimit++
		}
	}
	return float64(overLimit) <= 0.05*float64(st.attempted+st.shed) && st.backlogEnd <= 2*numClients
}

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}
