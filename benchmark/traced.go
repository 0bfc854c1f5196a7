package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/sieve-db/sieve/client"
	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/guard"
	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// span is one stage of one traced op, recorded by the benchmark around a
// call into a layer's public functions. Times are nanoseconds since the
// replay began.
type span struct {
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// traceLog holds the spans in memory until the run ends.
type traceLog struct {
	t0    time.Time
	spans []span
}

func (t *traceLog) add(op int, name, parent string, start time.Time, d time.Duration) {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, StartNS: s, EndNS: s + d.Nanoseconds()})
}

func (t *traceLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// obsPhases are the span names of the program's own trace tree that the
// obs.*_self_us metrics record.
var obsPhases = []string{"parse", "rewrite", "guard-resolve", "plan", "scan", "prune", "vector", "workers", "emit", "stream"}

// replay is the single-threaded traced pass over the op sequence. Each
// sampled op runs staged — one benchmark span around each call into a layer —
// and then direct, once plainly and once with the program's own span tree
// attached. Nothing here feeds an end-to-end metric.
type replay struct {
	s    *system
	e    *env
	out  series
	tl   *traceLog
	in   *inproc
	wire *wire
	rt   *countingRT
	op   int

	mysql, postgres engine.Emitter

	// sums behind the derived metrics; directNS is the time of every op
	// as a client sends it, policy writes and the reads after them included
	execNS, directNS   time.Duration
	tuples, rowsOut    int64
	segPruned, segSeen int64
	dictPruned         int64
	rowsVec            int64
	drainNS            time.Duration
	drainRows          int64
	wireBytes          int64
	wireRows           int64
	conns, reused      int64
	guards, deltaArms  int64
	writes             int
	plainUS, wireUS    []float64 // direct op in process; the same op over the wire
	// spannedUS are ops run with the program's span tree attached, baseUS
	// the same ops without it (over the wire on mall_wire).
	spannedUS, baseUS []float64
}

func (s *system) newReplay(ctx context.Context, out series, tl *traceLog) (*replay, error) {
	r := &replay{
		s: s, e: s.e, out: out, tl: tl, in: newInproc(s.e, s.e.queriers),
		mysql: engine.MySQLEmitter(), postgres: engine.PostgresEmitter(),
	}
	if s.e.srv != nil {
		r.rt = &countingRT{base: &http.Transport{MaxIdleConnsPerHost: 1}}
		w, err := newWire(ctx, s.e, r.rt, s.e.queriers, s.e.prepared)
		if err != nil {
			return nil, err
		}
		r.wire = w
	}
	return r, nil
}

func (r *replay) close() {
	if r.wire != nil {
		r.wire.close()
	}
}

// timed runs fn, records it as a span of the current op, and returns how
// long it took.
func (r *replay) timed(name, parent string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.tl.add(r.op, name, parent, t0, d)
	return d
}

// run replays ops until the deadline passes or maxOps are done.
func (r *replay) run(ctx context.Context, deadline time.Time, maxOps int) error {
	e := r.e
	stats0 := e.m.CacheStats()
	rewrites0 := r.stmtRewrites()
	var wal0 map[string]int64
	var walNS0 int64
	if e.walMgr != nil {
		wal0, walNS0 = e.walMgr.Varz(), e.walMgr.AppendNanos()
	}
	var scrape0 *scrape
	if e.srv != nil {
		var err error
		if scrape0, err = scrapeMetrics(e.baseURL); err != nil {
			return err
		}
	}

	ch := &r.s.churners[0]
	for n := 0; ctx.Err() == nil; n++ {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		if maxOps > 0 && n >= maxOps {
			break
		}
		r.op = n
		o := e.opAt(r.s.next)
		r.s.next++
		var err error
		if o.kind == kWrite {
			err = r.write(ctx, ch, o)
		} else {
			err = r.read(ctx, o)
		}
		if err != nil {
			return err
		}
	}

	// Counters and derived values over the whole replay.
	out := r.out
	stats1 := e.m.CacheStats()
	out.set("core.guard_cache_hit_rate", ratio(float64(stats1.GuardCacheHits-stats0.GuardCacheHits),
		float64(stats1.GuardCacheHits-stats0.GuardCacheHits+stats1.GuardCacheMisses-stats0.GuardCacheMisses)))
	out.set("core.plan_cache_hit_rate", ratio(float64(stats1.PlanCacheHits-stats0.PlanCacheHits),
		float64(stats1.PlanCacheHits-stats0.PlanCacheHits+stats1.PlanCacheMisses-stats0.PlanCacheMisses)))
	out.set("core.guard_regens", float64(stats1.GuardRegens-stats0.GuardRegens))
	out.set("core.guard_shares", float64(stats1.GuardShares-stats0.GuardShares))
	out.set("core.guard_states", float64(stats1.GuardStates))
	out.set("core.claims_invalidated_per_write", ratio(float64(stats1.ClaimsInvalidated-stats0.ClaimsInvalidated), float64(r.writes)))
	out.set("core.plans_rebuilt_per_write", ratio(float64(r.stmtRewrites()-rewrites0), float64(r.writes)))
	out.set("core.delta_arm_frac", ratio(float64(r.deltaArms), float64(r.guards)))

	out.set("engine.exec_share", ratio(float64(r.execNS), float64(r.directNS)))
	out.set("engine.us_per_ktuple", ratio(us(r.execNS), float64(r.tuples)/1000))
	out.set("engine.tuples_read_per_row", ratio(float64(r.tuples), float64(r.rowsOut)))
	out.set("engine.segments_pruned_frac", ratio(float64(r.segPruned), float64(r.segSeen)))
	out.set("engine.owner_dict_pruned_frac", ratio(float64(r.dictPruned), float64(r.segSeen)))
	out.set("engine.rows_vectorised_frac", ratio(float64(r.rowsVec), float64(r.tuples)))
	out.set("engine.scan_workers", float64(e.m.DB().EffectiveScanWorkers()))
	out.set("obs.trace_overhead_ratio", ratio(median(r.spannedUS), median(r.baseUS)))

	if e.walMgr != nil {
		wal1 := e.walMgr.Varz()
		recs := float64(wal1["wal_appends"] - wal0["wal_appends"])
		out.set("wal.append_us_per_rec", ratio(float64(e.walMgr.AppendNanos()-walNS0)/1e3, recs))
		out.set("wal.bytes_per_write", ratio(float64(wal1["wal_bytes"]-wal0["wal_bytes"]), float64(r.writes)))
		out.set("wal.fsyncs", float64(wal1["wal_fsyncs"]-wal0["wal_fsyncs"]))
	}
	if e.srv != nil {
		scrape1, err := scrapeMetrics(e.baseURL)
		if err != nil {
			return err
		}
		out.set("server.query_duration_p50_us", scrape1.durationP50Since(scrape0))
		out.set("server.rows_streamed", scrape1.values["sieve_rows_streamed_total"]-scrape0.values["sieve_rows_streamed_total"])
		out.set("server.rejected", scrape1.values["sieve_rejected_limit_total"]+scrape1.values["sieve_rejected_draining_total"]-
			scrape0.values["sieve_rejected_limit_total"]-scrape0.values["sieve_rejected_draining_total"])
		out.set("server.bytes_per_row", ratio(float64(r.wireBytes), float64(r.wireRows)))
		out.set("server.wire_over_inproc_p50", ratio(median(r.wireUS), median(r.plainUS)))
		out.set("client.drain_us_per_row", ratio(us(r.drainNS), float64(r.drainRows)))
		out.set("client.conn_reuse_frac", ratio(float64(r.reused), float64(r.conns)))
	}
	return nil
}

// stmtRewrites sums the policy rewrites the prepared statements have done.
func (r *replay) stmtRewrites() int64 {
	var n int64
	for _, st := range r.e.stmts {
		n += st.Rewrites()
	}
	return n
}

// write replays one policy write and the read after it. AddPolicy is
// Store.Insert (the invalidation runs inside it, on the rP trigger);
// RevokePolicy is Store.Revoke plus retiring the states that held the
// policy. The read after it is staged only: its first stage, the plan
// lookup, is where the touched signature regenerates, so there is no second,
// equal run to compare it with.
func (r *replay) write(ctx context.Context, ch *churner, o op) error {
	e := r.e
	t0 := time.Now()
	w, after, err := r.s.write(ch, o)
	if err != nil {
		return err
	}
	r.writes++
	r.tl.add(r.op, "write", "op", t0, w.lat)
	name := "policy.insert_us"
	if w.revoke {
		name = "policy.revoke_us"
	}
	r.out.add(name, us(w.lat))

	sess, st := r.in.sess[after.querier], e.stmts[after.query]
	qStart := e.checker.Clock()
	plan := r.timed("plan", "op", func() { _, err = st.Report(sess) })
	if err != nil {
		return err
	}
	var res *engine.Result
	exec := r.timed("exec", "op", func() { res, err = st.Execute(ctx, sess) })
	if err != nil {
		return err
	}
	raw := rec{kind: kRAW, querier: after.querier, query: after.query}
	r.s.verify(&raw, res.Rows, qStart)
	r.tl.add(r.op, "op", "", t0, time.Since(t0))
	r.execNS += exec
	r.directNS += w.lat + plan + exec
	return nil
}

// read replays one read op: staged, then direct.
func (r *replay) read(ctx context.Context, o op) error {
	e := r.e
	db := e.m.DB()
	q := &e.queries[o.query]
	sess := r.in.sess[o.querier]
	qm := sess.Metadata()
	out := r.out
	opStart := time.Now()

	var staged, exec time.Duration
	var execErr error
	c0 := db.CountersSnapshot()
	if o.kind == kPrepared {
		staged = r.timed("plan", "op", func() { _, execErr = e.stmts[o.query].Report(sess) })
		if execErr != nil {
			return execErr
		}
		c0 = db.CountersSnapshot()
		exec = r.timed("exec", "op", func() { _, execErr = e.stmts[o.query].Execute(ctx, sess) })
	} else {
		parse := r.timed("parse", "op", func() { _, execErr = sqlparser.Parse(q.sql) })
		out.add("sqlparser.parse_us", us(parse))
		var ps []*policy.Policy
		pf := r.timed("policies_for", "op", func() { ps = e.m.Store().PoliciesFor(qm, e.relation, e.groups) })
		out.add("policy.policies_for_us", us(pf))
		out.add("policy.applicable_per_op", float64(len(ps)))

		var stmt *sqlparser.SelectStmt
		var rep *core.Report
		rw := r.timed("rewrite", "op", func() { stmt, rep, execErr = e.m.RewriteQuery(q.sql, qm) })
		if execErr != nil {
			return execErr
		}
		out.add("core.rewrite_us", us(rw-parse))
		for _, d := range rep.Decisions {
			out.add("core.strategy_linear_frac", b2f(d.Strategy == core.LinearScan))
			out.add("core.strategy_indexquery_frac", b2f(d.Strategy == core.IndexQuery))
			out.add("core.strategy_indexguards_frac", b2f(d.Strategy == core.IndexGuards))
			r.guards += int64(d.Guards)
			r.deltaArms += int64(d.DeltaGuards)
		}
		out.add("engine.explain_us", us(r.timed("explain", "op", func() { _, execErr = db.Explain(stmt) })))
		if execErr != nil {
			return execErr
		}

		c0 = db.CountersSnapshot()
		if o.kind == kStream {
			exec = r.timed("exec", "op", func() {
				var rows *engine.Rows
				if rows, execErr = db.StreamStmt(ctx, stmt); execErr != nil {
					return
				}
				t0 := time.Now()
				more := rows.Next()
				first := time.Since(t0)
				r.tl.add(r.op, "first_row", "exec", t0, first)
				out.add("engine.first_row_us", us(first))
				for n := 1; more && n < streamLimit; n++ {
					more = rows.Next()
				}
				execErr = rows.Err()
				_ = rows.Close()
			})
		} else {
			exec = r.timed("exec", "op", func() { _, execErr = db.QueryStmtCtx(ctx, stmt) })
		}
		staged = rw
		if execErr == nil {
			out.add("engine.emit_mysql_us", us(r.timed("emit_mysql", "op", func() { _, execErr = r.mysql.Emit(stmt, rep.GuardedCTEs) })))
		}
		if execErr == nil {
			out.add("engine.emit_postgres_us", us(r.timed("emit_postgres", "op", func() { _, execErr = r.postgres.Emit(stmt, rep.GuardedCTEs) })))
		}
	}
	if execErr != nil {
		return execErr
	}
	staged += exec
	r.tl.add(r.op, "op", "", opStart, time.Since(opStart))
	c1 := db.CountersSnapshot()
	out.add("engine.exec_us", us(exec))
	out.add("engine.parallel_scans_per_op", float64(c1.ParallelScans-c0.ParallelScans))
	out.add("engine.index_lookups_per_op", float64(c1.IndexLookups-c0.IndexLookups))
	out.add("engine.udf_invocations_per_op", float64(c1.UDFInvocations-c0.UDFInvocations))
	out.add("engine.policy_evals_per_op", float64(c1.PolicyEvals-c0.PolicyEvals))
	if o.kind == kStream {
		out.add("engine.stream_tuples_read_per_op", float64(c1.TuplesRead-c0.TuplesRead))
	}
	r.tuples += c1.TuplesRead - c0.TuplesRead
	r.segPruned += c1.SegmentsPruned - c0.SegmentsPruned
	r.segSeen += c1.SegmentsPruned - c0.SegmentsPruned + c1.SegmentsScanned - c0.SegmentsScanned
	r.dictPruned += c1.OwnerDictPruned - c0.OwnerDictPruned
	r.rowsVec += c1.RowsVectorised - c0.RowsVectorised

	// Direct: the same op as a client sends it, verified like any other.
	rec, err := r.s.read(ctx, r.in, o)
	if err != nil {
		return err
	}
	if r.s.oracle != nil {
		r.s.oracle.settle(&rec)
	}
	if rec.bad {
		return fmt.Errorf("traced %s %s as %s returned a row the oracle rejects", kindNames[o.kind], q.name, qm.Querier)
	}
	direct := rec.lat
	r.execNS += exec
	r.directNS += direct
	r.rowsOut += int64(rec.rows)
	r.plainUS = append(r.plainUS, us(direct))
	out.add("bench.direct_p50_us", us(direct))
	out.add("bench.staged_over_direct_p50", ratio(float64(staged), float64(direct)))
	if e.srv != nil {
		out.add("server.inproc_p50_us", us(direct))
		return r.wireRead(ctx, o)
	}

	// Direct again, with the program's own span tree attached.
	root := obs.NewTrace("op")
	_, lat, _, err := readInproc(obs.WithSpan(ctx, root), e, sess, o)
	root.Finish()
	if err != nil {
		return err
	}
	r.baseUS = append(r.baseUS, us(direct))
	r.spannedUS = append(r.spannedUS, us(lat))
	r.recordTree(root.Node())
	return nil
}

// recordTree adds one op's self time per obs phase (0 for a phase the op
// did not enter).
func (r *replay) recordTree(n *obs.SpanNode) {
	self := make(map[string]int64)
	var walk func(*obs.SpanNode)
	walk = func(x *obs.SpanNode) {
		self[x.Name] += x.SelfUS
		for _, c := range x.Children {
			walk(c)
		}
	}
	if n != nil {
		walk(n)
	}
	for _, name := range obsPhases {
		r.out.add("obs."+name+"_self_us", float64(self[name]))
	}
}

// wireRead sends the op through client and server: staged by the client's
// own calls (Query returns, first row, drain), then once more with the
// server's trace on the done line.
func (r *replay) wireRead(ctx context.Context, o op) error {
	e, w, out := r.e, r.wire, r.out
	if r.op%32 == 0 {
		var s *client.Session
		var err error
		out.add("client.open_session_us", us(r.timed("wire.open_session", "", func() { s, err = w.openSession(ctx, e.queriers[o.querier]) })))
		if err != nil {
			return err
		}
		_ = s.Close(ctx)
	}
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{GotConn: func(i httptrace.GotConnInfo) {
		r.conns++
		if i.Reused {
			r.reused++
		}
	}})
	query := func(traced bool) (*client.Rows, error) {
		switch {
		case o.kind == kPrepared && traced:
			return w.stmts[o.querier][o.query].QueryTrace(ctx)
		case o.kind == kPrepared:
			return w.stmts[o.querier][o.query].Query(ctx)
		case traced:
			return w.sess[o.querier].QueryTrace(ctx, e.queries[o.query].sql)
		}
		return w.sess[o.querier].Query(ctx, e.queries[o.query].sql)
	}
	drain := func(rs *client.Rows) (n int64) {
		for (o.kind != kStream || n < streamLimit) && rs.Next() {
			n++
		}
		return n
	}

	bytes0 := r.rt.bytes.Load()
	t0 := time.Now()
	var rs *client.Rows
	var err error
	ttfb := r.timed("wire.query", "", func() { rs, err = query(false) })
	if err != nil {
		return err
	}
	out.add("client.ttfb_us", us(ttfb))
	more := false
	r.timed("wire.first_row", "", func() { more = rs.Next() })
	var rows int64
	if more {
		rows = 1
		d := r.timed("wire.drain", "", func() {
			for (o.kind != kStream || rows < streamLimit) && rs.Next() {
				rows++
			}
		})
		r.drainNS += d
		r.drainRows += rows - 1
	}
	err = rs.Err()
	_ = rs.Close()
	if err != nil {
		return err
	}
	plain := us(time.Since(t0))
	r.wireUS = append(r.wireUS, plain)
	if o.kind == kStream {
		return nil // an early Close never reads the done line, so no trace
	}
	r.baseUS = append(r.baseUS, plain)
	r.wireBytes += r.rt.bytes.Load() - bytes0
	r.wireRows += rows

	t0 = time.Now()
	if rs, err = query(true); err != nil {
		return err
	}
	drain(rs)
	err = rs.Err()
	lat := time.Since(t0)
	tree := rs.Trace()
	_ = rs.Close()
	if err != nil {
		return err
	}
	r.spannedUS = append(r.spannedUS, us(lat))
	if tree != nil {
		out.add("client.minus_server_p50_us", us(lat)-float64(tree.DurUS))
		r.recordTree(tree)
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// layerProbes measures what needs no op sequence: guard generation over the
// distinct policy profiles, the storage floor, and the timings set-up took
// in passing.
func (s *system) layerProbes(out series) error {
	e := s.e
	db := e.m.DB()
	t := db.MustTable(e.relation)
	out.set("storage.rows", float64(t.NumRows()))
	out.set("storage.segments", float64(t.SegmentCount()))
	for _, v := range e.prepareUS {
		out.add("core.prepare_us", v)
	}
	for _, v := range e.coldUS {
		out.add("core.rewrite_cold_us", v)
	}

	// guard.Generate on each distinct applicable policy set among (up to)
	// the first 64 queriers.
	stats, ok := db.Stats(e.relation)
	if !ok {
		return fmt.Errorf("no statistics for %s", e.relation)
	}
	indexed := make(map[string]bool)
	for _, c := range t.IndexedColumns() {
		indexed[c] = true
	}
	sel := &guard.TableSelectivity{Stats: stats, IndexedCols: indexed, Table: t}
	seen := make(map[string]bool)
	for i, name := range e.queriers {
		if i >= 64 {
			break
		}
		qm := policy.Metadata{Querier: name, Purpose: e.purpose}
		ps := e.m.Store().PoliciesFor(qm, e.relation, e.groups)
		var sig strings.Builder
		for _, p := range ps {
			sig.WriteString(strconv.FormatInt(p.ID, 36))
			sig.WriteByte(',')
		}
		if len(ps) == 0 || seen[sig.String()] {
			continue
		}
		seen[sig.String()] = true
		t0 := time.Now()
		ge, err := guard.Generate(ps, e.relation, name, e.purpose, sel, e.m.CostModel())
		if err != nil {
			return err
		}
		out.add("guard.generate_us", us(time.Since(t0)))
		out.add("guard.guards_per_expr", float64(len(ge.Guards)))
		out.add("guard.policies_per_guard", ratio(float64(ge.PolicyCount()), float64(len(ge.Guards))))
	}

	// The floor under engine.us_per_ktuple: an unfiltered heap scan.
	var rows []storage.Row
	for rep := 0; rep < 5; rep++ {
		rows = rows[:0]
		t0 := time.Now()
		t.Scan(func(_ storage.RowID, r storage.Row) bool {
			rows = append(rows, r)
			return true
		})
		out.add("storage.raw_scan_us_per_krow", ratio(us(time.Since(t0)), float64(len(rows))/1000))
	}
	for rep := 0; rep < 3; rep++ {
		scratch := engine.New(engine.MySQL())
		if _, err := scratch.CreateTable("bulk", t.Schema); err != nil {
			return err
		}
		t0 := time.Now()
		if err := scratch.BulkInsert("bulk", rows); err != nil {
			return err
		}
		out.add("storage.bulk_insert_rows_per_s", ratio(float64(len(rows)), time.Since(t0).Seconds()))
	}
	return nil
}

// countingRT counts response-body bytes; the traced replay passes it to the
// client through client.WithHTTPClient.
type countingRT struct {
	base  http.RoundTripper
	bytes atomic.Int64
}

func (c *countingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// scrape is one reading of the server's /metrics page: the plain samples,
// and the per-bucket counts of the query-duration histogram.
type scrape struct {
	values  map[string]float64
	buckets map[float64]float64 // upper bound (µs) → count in that bucket
}

func scrapeMetrics(baseURL string) (*scrape, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("metrics scrape: %w", err)
	}
	defer resp.Body.Close()
	sc := &scrape{values: map[string]float64{}, buckets: map[float64]float64{}}
	const bucket = `sieve_query_duration_us_bucket{le="`
	var prevCum float64
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for lines.Scan() {
		line := lines.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		if strings.HasPrefix(line, bucket) {
			le := line[len(bucket) : strings.IndexByte(line, '}')-1]
			if le == "+Inf" {
				continue
			}
			up, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			sc.buckets[up] = v - prevCum
			prevCum = v
			continue
		}
		sc.values[line[:i]] = v
	}
	return sc, lines.Err()
}

// durationP50Since is the median server-side query duration between two
// scrapes, read off the histogram's bucket upper bounds.
func (sc *scrape) durationP50Since(prev *scrape) float64 {
	type b struct{ up, n float64 }
	var bs []b
	total := 0.0
	for up, n := range sc.buckets {
		if d := n - prev.buckets[up]; d > 0 {
			bs = append(bs, b{up, d})
			total += d
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].up < bs[j].up })
	cum := 0.0
	for _, x := range bs {
		cum += x.n
		if cum >= total/2 {
			return x.up
		}
	}
	return 0
}
