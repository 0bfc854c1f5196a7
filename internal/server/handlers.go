package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// routes wires the protocol onto the mux (Go 1.22 method+wildcard
// patterns).
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Profiling stays behind bearer auth: a CPU profile or heap dump is
	// operational data no anonymous caller should pull.
	s.mux.HandleFunc("GET /debug/pprof/", s.auth(pprofHandler(pprof.Index)))
	s.mux.HandleFunc("GET /debug/pprof/cmdline", s.auth(pprofHandler(pprof.Cmdline)))
	s.mux.HandleFunc("GET /debug/pprof/profile", s.auth(pprofHandler(pprof.Profile)))
	s.mux.HandleFunc("GET /debug/pprof/symbol", s.auth(pprofHandler(pprof.Symbol)))
	s.mux.HandleFunc("POST /debug/pprof/symbol", s.auth(pprofHandler(pprof.Symbol)))
	s.mux.HandleFunc("GET /debug/pprof/trace", s.auth(pprofHandler(pprof.Trace)))
	s.mux.HandleFunc("POST /v1/sessions", s.auth(s.handleOpenSession))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.auth(s.withSession(s.handleCloseSession)))
	s.mux.HandleFunc("POST /v1/sessions/{id}/query", s.auth(s.withSession(s.handleQuery)))
	s.mux.HandleFunc("POST /v1/sessions/{id}/rewrite", s.auth(s.withSession(s.handleRewrite)))
	s.mux.HandleFunc("POST /v1/sessions/{id}/prepare", s.auth(s.withSession(s.handlePrepare)))
	s.mux.HandleFunc("POST /v1/sessions/{id}/stmts/{sid}/query", s.auth(s.withSession(s.handleStmtQuery)))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}/stmts/{sid}", s.auth(s.withSession(s.handleStmtClose)))
	s.mux.HandleFunc("POST /v1/policies", s.auth(s.handleAddPolicy))
	s.mux.HandleFunc("DELETE /v1/policies/{id}", s.auth(s.handleRevokePolicy))
	s.mux.HandleFunc("POST /v1/tables/{table}/rows", s.auth(s.handleInsertRow))
	s.mux.HandleFunc("PUT /v1/tables/{table}/rows/{rid}", s.auth(s.handleUpdateRow))
	s.mux.HandleFunc("DELETE /v1/tables/{table}/rows/{rid}", s.auth(s.handleDeleteRow))
}

// jsonError writes the protocol's uniform error body.
func jsonError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// jsonOK writes a 200 JSON body.
func jsonOK(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(body)
}

// readJSON decodes a request body, rejecting trailing garbage and bodies
// over 1 MiB (policies and statements are small; row data never flows
// client→server).
func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		jsonError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// authedHandler is a handler that has passed bearer authentication.
type authedHandler func(w http.ResponseWriter, r *http.Request, prin Principal)

// pprofHandler adapts a net/http/pprof handler to sit behind auth.
func pprofHandler(h http.HandlerFunc) authedHandler {
	return func(w http.ResponseWriter, r *http.Request, _ Principal) { h(w, r) }
}

// auth authenticates the request, assigns its request id, counts it, and
// logs its completion.
func (s *Server) auth(h authedHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.met.Requests.Add(1)
		prin, ok := s.authenticate(r)
		if !ok {
			s.met.AuthFailures.Add(1)
			jsonError(w, http.StatusUnauthorized, "missing or unknown bearer token")
			return
		}
		rid := newRequestID()
		w.Header().Set("X-Request-Id", rid)
		r = r.WithContext(withRequestID(r.Context(), rid))
		start := time.Now()
		h(w, r, prin)
		s.log.Info("request",
			"method", r.Method, "path", r.URL.Path,
			"querier", prin.Querier, "req_id", rid, "dur", time.Since(start))
	}
}

// withSession resolves the {id} path wildcard to the caller's live
// session.
func (s *Server) withSession(h func(http.ResponseWriter, *http.Request, *liveSession)) authedHandler {
	return func(w http.ResponseWriter, r *http.Request, prin Principal) {
		ls, ok := s.lookupSession(r.PathValue("id"), prin)
		if !ok {
			jsonError(w, http.StatusNotFound, "no such session")
			return
		}
		h(w, r, ls)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := HealthResponse{Status: "ok", Sessions: s.met.SessionsOpen.Value()}
	if s.draining.Load() {
		body.Status = "draining"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(body)
		return
	}
	jsonOK(w, body)
}

func (s *Server) handleOpenSession(w http.ResponseWriter, r *http.Request, prin Principal) {
	if s.draining.Load() {
		s.met.RejectedDraining.Add(1)
		jsonError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req OpenSessionRequest
	if !readJSON(w, r, &req) {
		return
	}
	ls, err := s.openSession(prin, req.Purpose)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errSessionLimit) {
			code = http.StatusTooManyRequests
			s.met.RejectedLimit.Add(1)
		}
		jsonError(w, code, "%v", err)
		return
	}
	md := ls.sess.Metadata()
	jsonOK(w, OpenSessionResponse{SessionID: ls.id, Querier: md.Querier, Purpose: md.Purpose})
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request, ls *liveSession) {
	s.closeSession(ls)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, ls *liveSession) {
	var req QueryRequest
	if !readJSON(w, r, &req) {
		return
	}
	args, err := DecodeArgs(req.Args)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.streamQuery(w, r, func(ctx context.Context) (*engine.Rows, error) {
		return ls.sess.Query(ctx, req.SQL, args...)
	})
}

func (s *Server) handleRewrite(w http.ResponseWriter, r *http.Request, ls *liveSession) {
	var req RewriteRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Dialect == "" || req.Dialect == "sieve" {
		sql, _, err := ls.sess.Rewrite(req.SQL)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "%v", err)
			return
		}
		jsonOK(w, RewriteResponse{SQL: sql})
		return
	}
	em, err := ls.sess.RewriteSQL(req.SQL, req.Dialect)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	out := RewriteResponse{SQL: em.SQL}
	for _, a := range em.Args {
		out.Args = append(out.Args, EncodeValue(a))
	}
	jsonOK(w, out)
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request, ls *liveSession) {
	if s.draining.Load() {
		s.met.RejectedDraining.Add(1)
		jsonError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req PrepareRequest
	if !readJSON(w, r, &req) {
		return
	}
	st, err := ls.sess.Prepare(req.SQL)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := ls.prepare(st)
	s.met.StmtsPrepared.Add(1)
	jsonOK(w, PrepareResponse{StmtID: id, NumInput: st.NumInput()})
}

func (s *Server) handleStmtQuery(w http.ResponseWriter, r *http.Request, ls *liveSession) {
	st, ok := ls.stmt(r.PathValue("sid"))
	if !ok {
		jsonError(w, http.StatusNotFound, "no such prepared statement")
		return
	}
	var req StmtQueryRequest
	if !readJSON(w, r, &req) {
		return
	}
	args, err := DecodeArgs(req.Args)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.streamQuery(w, r, func(ctx context.Context) (*engine.Rows, error) {
		return st.Query(ctx, ls.sess, args...)
	})
}

func (s *Server) handleStmtClose(w http.ResponseWriter, r *http.Request, ls *liveSession) {
	if !ls.dropStmt(r.PathValue("sid")) {
		jsonError(w, http.StatusNotFound, "no such prepared statement")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// lineBufs holds streamQuery's per-request line buffers.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledLineBuf caps the buffer a request returns to lineBufs: a window
// of huge rows should not stay pinned for every later query.
const maxPooledLineBuf = 64 << 10

// timeoutReportGrace is how long past its RequestTimeout a query may
// still write: the 503, 400 or in-band error line that reports the
// timeout is written after the deadline and must still reach a client
// that is reading.
const timeoutReportGrace = time.Second

// streamQuery runs one query and streams its result as NDJSON: a columns
// line, one line per row, then a terminal done/error line. Lines are
// encoded into one buffer that goes out in one Write per flush window so
// a large result does not pay a syscall per row — after rows 1, 2, 4, …
// 64, then every 64 — and the columns line flushes immediately: a client
// learns its query was accepted before the first row materialises, and
// sees the first row as soon as there is one.
//
// With ?trace=1 (or a configured SlowQuery threshold) the query runs
// under a span tree: the engine phases accumulate through the context,
// the server adds emit (encoding lines into the buffer) and stream (each
// window's Write and Flush), and the finished tree rides the done line as
// `trace` and feeds the per-phase duration histograms on /metrics.
func (s *Server) streamQuery(w http.ResponseWriter, r *http.Request, run func(ctx context.Context) (*engine.Rows, error)) {
	if s.draining.Load() {
		s.met.RejectedDraining.Add(1)
		jsonError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	ctx := r.Context()
	rid := requestIDFrom(ctx)
	wantTrace := r.URL.Query().Get("trace") == "1"
	var tr *obs.Span
	if wantTrace || s.cfg.SlowQuery > 0 {
		tr = obs.NewTrace("query")
		if rid != "" {
			tr.Attr("req_id", rid)
		}
		ctx = obs.WithSpan(ctx, tr)
	}
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
		// A handler blocked in Write never observes ctx: only a write
		// deadline frees the query slot of a client that stopped reading.
		// A ResponseWriter without deadlines stays unbounded, as before.
		dl, _ := ctx.Deadline()
		_ = http.NewResponseController(w).SetWriteDeadline(dl.Add(timeoutReportGrace))
	}
	release, ok := s.acquireQuerySlot(ctx)
	if !ok {
		s.met.RejectedLimit.Add(1)
		jsonError(w, http.StatusServiceUnavailable, "query queue wait exceeded the request deadline")
		return
	}
	defer release()
	s.met.Queries.Add(1)
	start := time.Now()
	defer func() { s.met.QueryDurationUS.Observe(time.Since(start).Microseconds()) }()

	rows, err := run(ctx)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer rows.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	bufp := lineBufs.Get().(*[]byte)
	buf := (*bufp)[:0]
	defer func() {
		if cap(buf) <= maxPooledLineBuf {
			*bufp = buf[:0]
			lineBufs.Put(bufp)
		}
	}()
	flusher, _ := w.(http.Flusher)
	spEmit := tr.Child("emit")     // nil-safe: both stay nil when
	spStream := tr.Child("stream") // tracing is off
	// send writes the lines buffered since the last window and flushes;
	// its Write is where a client that went away shows up.
	send := func() error {
		var t0 time.Time
		if spStream != nil {
			t0 = time.Now()
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		if err == nil && flusher != nil {
			flusher.Flush()
		}
		if spStream != nil {
			spStream.AddSince(t0)
			spStream.Count("flushes", 1)
		}
		return err
	}
	// emit buffers a columns, done or error line.
	emit := func(line StreamLine) {
		var t0 time.Time
		if spEmit != nil {
			t0 = time.Now()
		}
		b, _ := json.Marshal(line) // a StreamLine always marshals
		buf = append(append(buf, b...), '\n')
		if spEmit != nil {
			spEmit.AddSince(t0)
			spEmit.Count("lines", 1)
		}
	}
	emit(StreamLine{Columns: rows.Columns()})
	if err := send(); err != nil {
		s.met.EarlyDisconnects.Add(1)
		return
	}

	var n int64
	for rows.Next() {
		var t0 time.Time
		if spEmit != nil {
			t0 = time.Now()
		}
		buf = AppendRowLine(buf, rows.Row())
		if spEmit != nil {
			spEmit.AddSince(t0)
			spEmit.Count("lines", 1)
		}
		n++
		// Send after rows 1, 2, 4, … 64 and every 64th after: the first
		// row of a slow stream reaches the client when it exists, and a
		// long result still pays a syscall per 64 rows, not per row.
		if n%64 == 0 || n&(n-1) == 0 {
			if err := send(); err != nil {
				// The client went away. Closing rows stops the scan so
				// abandoned queries do not finish for an audience of
				// nobody.
				s.met.EarlyDisconnects.Add(1)
				return
			}
		}
	}
	err = rows.Err()
	if err != nil && ctx.Err() != nil && r.Context().Err() != nil {
		// The request context died first: a disconnect, not a query error
		// worth a terminal line nobody will read, and like a failed send
		// no rows streamed.
		s.met.EarlyDisconnects.Add(1)
		return
	}
	s.met.RowsStreamed.Add(n)
	s.met.QueryRows.Observe(n)
	if err != nil {
		emit(StreamLine{Error: err.Error(), RequestID: rid})
		_ = send() // the stream ends here either way
		return
	}
	c := rows.Counters()
	done := StreamLine{Done: true, Rows: n, RequestID: rid, Counters: &StreamCounters{
		TuplesRead:       c.TuplesRead,
		SegmentsScanned:  c.SegmentsScanned,
		SegmentsPruned:   c.SegmentsPruned,
		PolicyEvals:      c.PolicyEvals,
		UDFInvocations:   c.UDFInvocations,
		GuardCacheHits:   c.GuardCacheHits,
		GuardCacheMisses: c.GuardCacheMisses,
		PlanCacheHits:    c.PlanCacheHits,
		PlanCacheMisses:  c.PlanCacheMisses,
	}}
	s.log.Info("query",
		"req_id", rid, "rows", n, "tuples_read", c.TuplesRead,
		"segments_pruned", c.SegmentsPruned, "policy_evals", c.PolicyEvals)
	if tr != nil {
		tr.Count("rows", n)
		tr.Finish()
		node := tr.Node()
		s.recordPhases(node)
		if wantTrace {
			done.Trace = node
		}
		if dur := time.Since(start); s.cfg.SlowQuery > 0 && dur >= s.cfg.SlowQuery {
			s.log.Warn("slow query",
				"req_id", rid, "dur", dur, "rows", n,
				"phases", phaseBreakdown(node))
		}
	}
	emit(done)
	_ = send() // the stream ends here either way
}

// cmpOps maps the protocol's condition operators to the parser's.
var cmpOps = map[string]sqlparser.CmpOp{
	"=": sqlparser.CmpEq, "!=": sqlparser.CmpNe,
	"<": sqlparser.CmpLt, "<=": sqlparser.CmpLe,
	">": sqlparser.CmpGt, ">=": sqlparser.CmpGe,
}

func (s *Server) handleAddPolicy(w http.ResponseWriter, r *http.Request, prin Principal) {
	if !prin.Admin {
		jsonError(w, http.StatusForbidden, "policy administration needs an admin token")
		return
	}
	var req PolicyRequest
	if !readJSON(w, r, &req) {
		return
	}
	action := policy.Allow
	if req.Action != "" {
		action = policy.Action(req.Action)
	}
	p := &policy.Policy{
		Owner: req.Owner, Querier: req.Querier, Purpose: req.Purpose,
		Relation: req.Relation, Action: action,
	}
	for i, c := range req.Conditions {
		op, ok := cmpOps[c.Op]
		if !ok {
			jsonError(w, http.StatusBadRequest, "condition %d: unknown operator %q", i+1, c.Op)
			return
		}
		v, err := DecodeValue(c.Value)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "condition %d: %v", i+1, err)
			return
		}
		p.Conditions = append(p.Conditions, policy.Compare(c.Attr, op, v))
	}
	if err := s.m.AddPolicy(p); err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.PolicyChanges.Add(1)
	jsonOK(w, PolicyResponse{ID: p.ID})
}

// resolveRowTarget validates an admin row-mutation request: admin token,
// not draining, and a plain data table — the middleware's own relations
// (rP, rOC, guard cache) are managed through the policy endpoints and
// internal machinery, never raw row writes.
func (s *Server) resolveRowTarget(w http.ResponseWriter, r *http.Request, prin Principal) (string, bool) {
	if !prin.Admin {
		jsonError(w, http.StatusForbidden, "row administration needs an admin token")
		return "", false
	}
	if s.draining.Load() {
		s.met.RejectedDraining.Add(1)
		jsonError(w, http.StatusServiceUnavailable, "server is draining")
		return "", false
	}
	table := r.PathValue("table")
	if strings.HasPrefix(table, "sieve_") {
		jsonError(w, http.StatusForbidden, "%s is a middleware-internal relation; use the policy endpoints", table)
		return "", false
	}
	if _, ok := s.m.DB().Table(table); !ok {
		jsonError(w, http.StatusNotFound, "no such table %q", table)
		return "", false
	}
	return table, true
}

// parseRowID resolves the {rid} wildcard.
func parseRowID(w http.ResponseWriter, r *http.Request) (storage.RowID, bool) {
	id, err := strconv.ParseInt(r.PathValue("rid"), 10, 64)
	if err != nil || id < 0 {
		jsonError(w, http.StatusBadRequest, "bad row id %q", r.PathValue("rid"))
		return 0, false
	}
	return storage.RowID(id), true
}

func (s *Server) handleInsertRow(w http.ResponseWriter, r *http.Request, prin Principal) {
	table, ok := s.resolveRowTarget(w, r, prin)
	if !ok {
		return
	}
	var req RowRequest
	if !readJSON(w, r, &req) {
		return
	}
	row, err := DecodeArgs(req.Values)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := s.m.DB().InsertRow(table, storage.Row(row))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.RowChanges.Add(1)
	jsonOK(w, RowResponse{RowID: int64(id)})
}

func (s *Server) handleUpdateRow(w http.ResponseWriter, r *http.Request, prin Principal) {
	table, ok := s.resolveRowTarget(w, r, prin)
	if !ok {
		return
	}
	id, ok := parseRowID(w, r)
	if !ok {
		return
	}
	var req RowRequest
	if !readJSON(w, r, &req) {
		return
	}
	row, err := DecodeArgs(req.Values)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.m.DB().Update(table, id, storage.Row(row)); err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.RowChanges.Add(1)
	jsonOK(w, RowResponse{RowID: int64(id)})
}

func (s *Server) handleDeleteRow(w http.ResponseWriter, r *http.Request, prin Principal) {
	table, ok := s.resolveRowTarget(w, r, prin)
	if !ok {
		return
	}
	id, ok := parseRowID(w, r)
	if !ok {
		return
	}
	if err := s.m.DB().Delete(table, id); err != nil {
		jsonError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.met.RowChanges.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRevokePolicy(w http.ResponseWriter, r *http.Request, prin Principal) {
	if !prin.Admin {
		jsonError(w, http.StatusForbidden, "policy administration needs an admin token")
		return
	}
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad policy id %q", r.PathValue("id"))
		return
	}
	if err := s.m.RevokePolicy(id); err != nil {
		jsonError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.met.PolicyChanges.Add(1)
	w.WriteHeader(http.StatusNoContent)
}
