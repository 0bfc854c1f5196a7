package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"github.com/sieve-db/sieve/internal/obs"
)

// serverMetrics is the server's operational counter set, registered on
// the obs registry that GET /metrics renders. SessionsOpen is the one
// true gauge in the set — it goes down on close.
type serverMetrics struct {
	Requests         *obs.Counter
	AuthFailures     *obs.Counter
	Queries          *obs.Counter
	RowsStreamed     *obs.Counter
	EarlyDisconnects *obs.Counter
	RejectedDraining *obs.Counter
	RejectedLimit    *obs.Counter
	SessionsOpened   *obs.Counter
	SessionsOpen     *obs.Gauge
	StmtsPrepared    *obs.Counter
	PolicyChanges    *obs.Counter
	RowChanges       *obs.Counter

	// Per-query distributions, observed at the end of each stream.
	QueryDurationUS *obs.Histogram
	QueryRows       *obs.Histogram
}

// newServerMetrics registers the server's counters on reg. The
// Prometheus names are stable API.
func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		Requests:         reg.Counter("sieve_requests_total"),
		AuthFailures:     reg.Counter("sieve_auth_failures_total"),
		Queries:          reg.Counter("sieve_queries_total"),
		RowsStreamed:     reg.Counter("sieve_rows_streamed_total"),
		EarlyDisconnects: reg.Counter("sieve_early_disconnects_total"),
		RejectedDraining: reg.Counter("sieve_rejected_draining_total"),
		RejectedLimit:    reg.Counter("sieve_rejected_limit_total"),
		SessionsOpened:   reg.Counter("sieve_sessions_opened_total"),
		SessionsOpen:     reg.Gauge("sieve_sessions_open"),
		StmtsPrepared:    reg.Counter("sieve_stmts_prepared_total"),
		PolicyChanges:    reg.Counter("sieve_policy_changes_total"),
		RowChanges:       reg.Counter("sieve_row_changes_total"),
		QueryDurationUS:  reg.Histogram("sieve_query_duration_us"),
		QueryRows:        reg.Histogram("sieve_query_rows"),
	}
}

// tracedPhases are the lifecycle phase names whose per-phase duration
// histograms are pre-registered, so a scrape sees the full family even
// before the first traced query populates it.
var tracedPhases = []string{
	"parse", "guard-resolve", "rewrite", "plan", "scan",
	"prune", "vector", "workers", "emit", "stream", "query",
}

// registerBridges exposes the middleware's existing accumulators —
// engine counters, guard/plan cache stats, the policy epoch — as
// scrape-time gauges. The values already live in their own structures;
// the registry only samples them when rendering.
func (s *Server) registerBridges() {
	m := s.m
	s.reg.GaugeFunc("sieve_policy_epoch", func() int64 { return int64(m.Epoch()) })

	engineGauges := map[string]func() int64{
		"sieve_engine_tuples_read":     func() int64 { return m.DB().CountersSnapshot().TuplesRead },
		"sieve_engine_segments_pruned": func() int64 { return m.DB().CountersSnapshot().SegmentsPruned },
		"sieve_engine_policy_evals":    func() int64 { return m.DB().CountersSnapshot().PolicyEvals },
	}
	for name, fn := range engineGauges {
		s.reg.GaugeFunc(name, fn)
	}
	cacheGauges := map[string]func() int64{
		"sieve_guard_cache_hits":     func() int64 { return m.CacheStats().GuardCacheHits },
		"sieve_guard_cache_misses":   func() int64 { return m.CacheStats().GuardCacheMisses },
		"sieve_guard_regens":         func() int64 { return m.CacheStats().GuardRegens },
		"sieve_guard_patches":        func() int64 { return m.CacheStats().GuardPatches },
		"sieve_guard_shares":         func() int64 { return m.CacheStats().GuardShares },
		"sieve_guard_states":         func() int64 { return m.CacheStats().GuardStates },
		"sieve_guard_claims":         func() int64 { return m.CacheStats().Claims },
		"sieve_scoped_invalidations": func() int64 { return m.CacheStats().ScopedInvalidations },
		"sieve_claims_invalidated":   func() int64 { return m.CacheStats().ClaimsInvalidated },
		"sieve_plan_cache_hits":      func() int64 { return m.CacheStats().PlanCacheHits },
		"sieve_plan_cache_misses":    func() int64 { return m.CacheStats().PlanCacheMisses },
	}
	for name, fn := range cacheGauges {
		s.reg.GaugeFunc(name, fn)
	}
	for _, phase := range tracedPhases {
		s.reg.Histogram("sieve_phase_duration_us", "phase", phase)
	}
}

// handleMetrics renders the registry in Prometheus text exposition
// format. Unauthenticated, like /healthz: it exposes operational totals,
// never row data.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// recordPhases feeds one finished trace into the per-phase duration
// histograms. Self time is observed (not total), so the phases of one
// query partition its wall time instead of double-counting nesting.
func (s *Server) recordPhases(n *obs.SpanNode) {
	if n == nil {
		return
	}
	s.reg.Histogram("sieve_phase_duration_us", "phase", n.Name).Observe(n.SelfUS)
	for _, c := range n.Children {
		s.recordPhases(c)
	}
}

// phaseBreakdown renders a finished trace as one compact "phase=dur"
// list for the slow-query log line, sorted by descending self time.
func phaseBreakdown(n *obs.SpanNode) string {
	type item struct {
		name   string
		selfUS int64
	}
	var items []item
	var walk func(*obs.SpanNode)
	walk = func(x *obs.SpanNode) {
		if x == nil {
			return
		}
		items = append(items, item{x.Name, x.SelfUS})
		for _, c := range x.Children {
			walk(c)
		}
	}
	walk(n)
	sort.SliceStable(items, func(i, j int) bool { return items[i].selfUS > items[j].selfUS })
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = fmt.Sprintf("%s=%s", it.name, time.Duration(it.selfUS)*time.Microsecond)
	}
	return strings.Join(parts, " ")
}

// ridCtxKey keys the per-request id in a request's context.
type ridCtxKey struct{}

// newRequestID returns a 16-hex-digit random id, stamped on every
// authenticated request: the same id appears in the X-Request-Id
// response header, the request and query log lines, the NDJSON done
// line, and the trace root — one handle to grep a request across all
// four surfaces.
func newRequestID() string { return randomHex() }

// withRequestID stores rid in ctx.
func withRequestID(ctx context.Context, rid string) context.Context {
	return context.WithValue(ctx, ridCtxKey{}, rid)
}

// requestIDFrom returns the request id carried by ctx, or "".
func requestIDFrom(ctx context.Context) string {
	rid, _ := ctx.Value(ridCtxKey{}).(string)
	return rid
}
