package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/client"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/server"
	"github.com/sieve-db/sieve/internal/storage"
	"github.com/sieve-db/sieve/internal/wal"
	"github.com/sieve-db/sieve/internal/workload"
)

func TestMetricsExposition(t *testing.T) {
	f := newFixture(t, 64, nil)
	ctx := context.Background()
	sess, err := f.client("tok-alice").OpenSession(ctx, "audit")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.QueryTrace(ctx, "SELECT id, owner FROM events")
	if err != nil {
		t.Fatal(err)
	}
	collect(t, rows)

	// The latency observation lands when the handler returns, which can
	// trail the client seeing the done line — poll the scrape briefly.
	var fams map[string]*obs.ExpositionFamily
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(f.ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("content type %q", ct)
		}
		fams, err = obs.ParseExposition(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("exposition does not parse: %v", err)
		}
		if f := fams["sieve_query_duration_us"]; f != nil && f.HistogramCount >= 1 {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	wantType := map[string]string{
		"sieve_requests_total":      "counter",
		"sieve_queries_total":       "counter",
		"sieve_rows_streamed_total": "counter",
		"sieve_sessions_open":       "gauge",
		"sieve_guard_cache_hits":    "gauge",
		"sieve_claims_derived":      "gauge",
		"sieve_goroutines":          "gauge",
		"sieve_query_duration_us":   "histogram",
		"sieve_query_rows":          "histogram",
		"sieve_phase_duration_us":   "histogram",
	}
	for name, typ := range wantType {
		fam, ok := fams[name]
		if !ok {
			t.Errorf("family %s missing from /metrics", name)
			continue
		}
		if fam.Type != typ {
			t.Errorf("family %s has type %s, want %s", name, fam.Type, typ)
		}
	}
	// The traced query must have landed one observation in the latency
	// histogram and in each pre-registered phase histogram family.
	if fams["sieve_query_duration_us"].HistogramCount < 1 {
		t.Error("sieve_query_duration_us observed nothing")
	}
	if !fams["sieve_query_duration_us"].SawInf {
		t.Error("latency histogram has no +Inf bucket")
	}
}

// tracePhases is the golden set of lifecycle phase names a traced SELECT
// over a protected relation produces on the streaming path. Stability
// matters: dashboards and the phase-duration metric key on these names.
var tracePhases = []string{
	"query", "parse", "rewrite", "guard-resolve",
	"scan", "prune", "vector", "emit", "stream",
}

func TestTraceSpanTreeGolden(t *testing.T) {
	f := newFixture(t, 256, nil)
	ctx := context.Background()
	sess, err := f.client("tok-alice").OpenSession(ctx, "audit")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.QueryTrace(ctx, "SELECT id, owner, note FROM events")
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, rows)
	if len(got) != 128 {
		t.Fatalf("policy filter returned %d rows, want 128", len(got))
	}

	tr := rows.Trace()
	if tr == nil {
		t.Fatal("done line carried no trace despite ?trace=1")
	}
	if tr.Name != "query" {
		t.Fatalf("root span %q, want query", tr.Name)
	}
	phases := tr.Phases()
	have := map[string]bool{}
	for _, p := range phases {
		have[p] = true
	}
	for _, want := range tracePhases {
		if !have[want] {
			t.Errorf("trace lost phase %q (got %v)", want, phases)
		}
	}
	if len(phases) < 8 {
		t.Errorf("trace has %d distinct phases, want >= 8: %v", len(phases), phases)
	}

	// Self times partition the tree: summing SelfUS over every node must
	// land within 20% of the root's wall time.
	var selfSum int64
	var walk func(*obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		selfSum += n.SelfUS
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tr)
	if tr.DurUS > 0 {
		ratio := float64(selfSum) / float64(tr.DurUS)
		if ratio < 0.8 || ratio > 1.2 {
			t.Errorf("self-time sum %dus vs wall %dus (ratio %.2f)", selfSum, tr.DurUS, ratio)
		}
	}

	// The trace is annotated with the request id, which also arrives as
	// its own done-line field.
	if rid := rows.RequestID(); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(rid) {
		t.Errorf("request id %q is not 16 hex digits", rid)
	}
	if tr.Attrs["req_id"] != rows.RequestID() {
		t.Errorf("trace req_id %q != done-line req_id %q", tr.Attrs["req_id"], rows.RequestID())
	}

	// The tree renders; the text form is what sieve-explain and the repl
	// print.
	var buf bytes.Buffer
	tr.Format(&buf)
	if !strings.Contains(buf.String(), "scan") {
		t.Errorf("formatted trace missing scan:\n%s", buf.String())
	}

	// An untraced query must not carry a tree.
	rows2, err := sess.Query(ctx, "SELECT id FROM events")
	if err != nil {
		t.Fatal(err)
	}
	collect(t, rows2)
	if rows2.Trace() != nil {
		t.Error("untraced query carried a span tree")
	}
}

func TestRequestIDPropagation(t *testing.T) {
	f := newFixture(t, 10, nil)

	// Raw request, so the response header is visible next to the body.
	body := `{"sql":"SELECT id FROM events"}`
	req, err := http.NewRequest(http.MethodPost,
		fmt.Sprintf("%s/v1/sessions/%s/query", f.ts.URL, sessionID(t, f)),
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer tok-alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	hdr := resp.Header.Get("X-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(hdr) {
		t.Fatalf("X-Request-Id %q is not 16 hex digits", hdr)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var done server.StreamLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &done); err != nil {
		t.Fatal(err)
	}
	if !done.Done {
		t.Fatalf("last line is not a done line: %s", lines[len(lines)-1])
	}
	if done.RequestID != hdr {
		t.Errorf("done line req_id %q != header %q", done.RequestID, hdr)
	}
}

// sessionID opens a session with a raw request so the id is visible to
// the test (the client type keeps its id private).
func sessionID(t testing.TB, f *fixture) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, f.ts.URL+"/v1/sessions", strings.NewReader(`{"purpose":"audit"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer tok-alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out server.OpenSessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.SessionID
}

// syncBuffer makes a bytes.Buffer safe to share between the server's
// logging goroutines and the test's reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	f := newFixture(t, 64, func(cfg *server.Config) {
		cfg.SlowQuery = time.Nanosecond // everything is slow
		cfg.Logger = slog.New(slog.NewTextHandler(&buf, nil))
	})
	ctx := context.Background()
	sess, err := f.client("tok-alice").OpenSession(ctx, "audit")
	if err != nil {
		t.Fatal(err)
	}
	// No ?trace=1: the SlowQuery threshold alone must enable the span
	// tree the breakdown needs.
	rows, err := sess.Query(ctx, "SELECT id FROM events")
	if err != nil {
		t.Fatal(err)
	}
	collect(t, rows)
	if rows.Trace() != nil {
		t.Error("slow-query tracing leaked the tree onto the wire without ?trace=1")
	}
	log := buf.String()
	if !strings.Contains(log, "slow query") {
		t.Fatalf("no slow-query line in log:\n%s", log)
	}
	for _, phase := range []string{"scan=", "parse=", "req_id="} {
		if !strings.Contains(log, phase) {
			t.Errorf("slow-query line missing %s:\n%s", phase, log)
		}
	}
}

func TestPprofBehindAuth(t *testing.T) {
	f := newFixture(t, 4, nil)
	// Unauthenticated: 401, never a profile.
	resp, err := http.Get(f.ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated pprof: %d, want 401", resp.StatusCode)
	}
	// Authenticated: the index renders.
	req, err := http.NewRequest(http.MethodGet, f.ts.URL+"/debug/pprof/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer tok-alice")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authed pprof: %d, want 200", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}

// TestTracedQueryHasNoWALPhase: a traced SELECT's span tree holds only
// the query's own phases. The fixture is the durable demo wired as
// cmd/sieve-server wires it; while the traced query is held open by a
// gate UDF, an admin row insert commits through the WAL — work the query
// never waited on, so it must not surface as a "wal" phase of its trace.
func TestTracedQueryHasNoWALPhase(t *testing.T) {
	dd, err := workload.NewDurableDemo(sieve.MySQL(), t.TempDir(), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer dd.Manager.Close()
	cfg := server.Config{Middleware: dd.M, AllowDemoTokens: true, Registry: obs.NewRegistry()}
	dd.Manager.SetRegistry(cfg.Registry)
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	defer open()
	var calls atomic.Int64
	dd.M.DB().RegisterUDF("gate", func(_ *engine.UDFContext, args []storage.Value) (storage.Value, error) {
		if calls.Add(1) > 64 { // past the scan's first batch
			<-release
		}
		return storage.NewBool(args[0].I%16 == 0), nil
	})
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	sess, err := client.New(ts.URL, "demo:anyone|analytics").OpenSession(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.QueryTrace(ctx, "SELECT id FROM "+workload.TableUsers+" WHERE gate(id) = TRUE")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}

	appended := dd.Manager.AppendNanos()
	body := `{"values":[{"t":"int","v":"999999"},{"t":"str","v":"dev"},{"t":"int","v":"1"}]}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/tables/"+workload.TableUsers+"/rows", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer demo:root|admin")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || dd.Manager.AppendNanos() == appended {
		t.Fatalf("the admin insert did not commit through the WAL: %s", resp.Status)
	}

	open()
	for rows.Next() {
	}
	if err := rows.Err(); err != nil || rows.Trace() == nil {
		t.Fatalf("traced stream: err %v, trace %v", err, rows.Trace())
	}
	if phases := rows.Trace().Phases(); slices.Contains(phases, "wal") {
		t.Fatalf("the query's trace reports another client's WAL append as its own phase: %v", phases)
	}
}
