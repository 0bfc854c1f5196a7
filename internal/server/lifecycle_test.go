package server_test

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/client"
	"github.com/sieve-db/sieve/internal/server"
)

// TestConcurrentClientsWithLivePolicyWriter is the wire-level race
// exercise (run under -race in CI): several clients stream queries and
// re-execute a shared-shape prepared statement while an admin keeps
// adding and revoking a policy, moving the epoch under every cached
// rewrite. Row counts must always be one of the two legal worlds — never
// an error, never a torn result.
func TestConcurrentClientsWithLivePolicyWriter(t *testing.T) {
	f := newFixture(t, 40, nil)
	ctx := context.Background()
	const clients = 4
	const iters = 25

	var wg sync.WaitGroup
	errs := make(chan error, clients+1)

	// The policy writer toggles bob's grant over owner 8.
	wg.Add(1)
	go func() {
		defer wg.Done()
		admin := f.client("tok-admin")
		for i := 0; i < iters; i++ {
			id, err := admin.AddPolicy(ctx, client.Policy{
				Owner: 8, Querier: "bob", Purpose: "audit", Relation: "events",
			})
			if err != nil {
				errs <- fmt.Errorf("writer add: %w", err)
				return
			}
			if err := admin.RevokePolicy(ctx, id); err != nil {
				errs <- fmt.Errorf("writer revoke: %w", err)
				return
			}
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			sess, err := f.client("tok-bob").OpenSession(ctx, "audit")
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close(ctx)
			st, err := sess.Prepare(ctx, "SELECT id FROM events ORDER BY id")
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < iters; i++ {
				rows, err := st.Query(ctx)
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", n, err)
					return
				}
				got := len(collect(t, rows))
				if got != 0 && got != 20 { // denied, or granted owner 8's half
					errs <- fmt.Errorf("client %d saw %d rows (want 0 or 20)", n, got)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEarlyDisconnectStopsTheScan closes each stream after one row of a
// large result: the server must notice the dead connection, count the
// disconnect, and abandon the scan instead of streaming to nobody —
// rows_streamed stays a tiny fraction of what completing every query
// would have produced.
func TestEarlyDisconnectStopsTheScan(t *testing.T) {
	// Large enough that a stream cannot fit into loopback socket buffers:
	// the handler is guaranteed to still be mid-scan when the client hangs
	// up, whatever the kernel's autotuned window.
	const rows = 200000
	f := newFixture(t, rows, nil)
	ctx := context.Background()
	const n = 6

	for i := 0; i < n; i++ {
		sess, err := f.client("tok-alice").OpenSession(ctx, "audit")
		if err != nil {
			t.Fatal(err)
		}
		rs, err := sess.Query(ctx, "SELECT * FROM events")
		if err != nil {
			t.Fatal(err)
		}
		if !rs.Next() {
			t.Fatalf("query %d: no first row: %v", i, rs.Err())
		}
		rs.Close() // hang up mid-stream
		sess.Close(ctx)
	}

	// The handlers notice asynchronously; poll until the counters settle.
	deadline := time.Now().Add(5 * time.Second)
	var m map[string]int64
	for {
		m = f.scrape(t)
		if m["sieve_early_disconnects_total"] >= n || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if m["sieve_early_disconnects_total"] < n {
		t.Fatalf("want %d early disconnects, got %d", n, m["sieve_early_disconnects_total"])
	}
	// Completed streams would have tallied n*rows/2 (alice's half);
	// abandoned ones tally nothing, so anything close to that means the
	// server kept streaming into the void.
	if m["sieve_rows_streamed_total"] >= int64(n*rows/2)/10 {
		t.Fatalf("rows_streamed=%d: abandoned queries were run to completion", m["sieve_rows_streamed_total"])
	}
}

// TestStalledReaderReleasesSlotAtRequestTimeout: a client that stops
// reading mid-result wedges its handler in Write, where the request
// context cannot reach it. The RequestTimeout (plus the second a timed-out
// query keeps to report its timeout) must still end that handler and free
// its query slot, so with a single slot a second query soon runs instead
// of queueing into a 503 — and each 503 until then reaches its client.
func TestStalledReaderReleasesSlotAtRequestTimeout(t *testing.T) {
	// As in TestEarlyDisconnectStopsTheScan: the result must overflow the
	// socket buffers so the handler blocks on a write nobody drains.
	const timeout = 300 * time.Millisecond
	f := newFixture(t, 200000, func(c *server.Config) {
		c.RequestTimeout = timeout
		c.MaxConcurrentQueries = 1
	})
	ctx := context.Background()
	sess, err := f.client("tok-alice").OpenSession(ctx, "audit")
	if err != nil {
		t.Fatal(err)
	}
	const probe = "SELECT id FROM events LIMIT 1"
	// A cold middleware spends about a third of a second on its first
	// query under -race: pay that in process, outside the wire deadline.
	warm, err := f.m.NewSession(sieve.Metadata{Querier: "alice", Purpose: "audit"}).Query(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	for warm.Next() {
	}
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}
	stalled, err := sess.Query(ctx, "SELECT * FROM events")
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if !stalled.Next() {
		t.Fatalf("no first row: %v", stalled.Err())
	}
	// ...and never read again.

	// Each attempt waits up to its own RequestTimeout for the slot; the
	// stalled handler must give it up well within a few of them.
	deadline := time.Now().Add(10 * timeout)
	for {
		rows, err := sess.Query(ctx, probe)
		if err == nil {
			if got := collect(t, rows); len(got) != 1 {
				t.Fatalf("second query returned %d rows, want 1", len(got))
			}
			return
		}
		if !strings.Contains(err.Error(), "query queue wait exceeded the request deadline") {
			t.Fatalf("a query refused its slot must get the 503, got: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled reader still holds the only query slot %v after its %v RequestTimeout: %v",
				10*timeout, timeout, err)
		}
	}
}

// TestRequestTimeoutReachesTheClient: a query past its RequestTimeout is
// reported as such — as a 400 or an in-band error line — although the
// report is written after the deadline, not cut off by the write deadline
// that bounds stalled readers.
func TestRequestTimeoutReachesTheClient(t *testing.T) {
	f := newFixture(t, 10, func(c *server.Config) { c.RequestTimeout = time.Nanosecond })
	ctx := context.Background()
	sess, err := f.client("tok-alice").OpenSession(ctx, "audit")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query(ctx, "SELECT id FROM events")
	if err == nil {
		for rows.Next() {
		}
		err = rows.Err()
	}
	if err == nil || !strings.Contains(err.Error(), "deadline exceeded") {
		t.Fatalf("a query past its RequestTimeout must report the deadline, got: %v", err)
	}
}

// TestDrainRejectsNewWork flips the server into draining (Shutdown with
// no managed listener only changes state, so the httptest transport stays
// up to observe it): /healthz turns 503, and new sessions, queries and
// prepares are refused.
func TestDrainRejectsNewWork(t *testing.T) {
	f := newFixture(t, 10, nil)
	ctx := context.Background()
	sess, err := f.client("tok-alice").OpenSession(ctx, "audit")
	if err != nil {
		t.Fatal(err)
	}

	if err := f.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ok, err := f.client("tok-alice").Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("healthz must report draining")
	}
	if _, err := f.client("tok-alice").OpenSession(ctx, "audit"); err == nil ||
		!strings.Contains(err.Error(), "draining") {
		t.Fatalf("open while draining: %v", err)
	}
	if _, err := sess.Query(ctx, "SELECT id FROM events"); err == nil ||
		!strings.Contains(err.Error(), "draining") {
		t.Fatalf("query while draining: %v", err)
	}
	if _, err := sess.Prepare(ctx, "SELECT id FROM events"); err == nil ||
		!strings.Contains(err.Error(), "draining") {
		t.Fatalf("prepare while draining: %v", err)
	}
	if got := f.scrape(t)["sieve_rejected_draining_total"]; got < 3 {
		t.Fatalf("rejected_draining = %d, want >= 3", got)
	}
}

// serveFixture runs the fixture's handler on a managed listener so
// Shutdown exercises the real drain path.
func serveFixture(t *testing.T, rows int) (*fixture, string, chan error) {
	t.Helper()
	f := newFixture(t, rows, nil)
	f.ts.Close() // replace the httptest transport with a managed listener
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.srv.Serve(l) }()
	return f, "http://" + l.Addr().String(), done
}

// TestGracefulDrainCompletesInFlight starts a slow-consuming stream,
// shuts the server down mid-flight with a generous deadline, and
// verifies the stream still delivers every row and its done line — the
// drain waits for in-flight work — while Serve returns cleanly and the
// listener stops accepting.
func TestGracefulDrainCompletesInFlight(t *testing.T) {
	f, url, done := serveFixture(t, 2000)
	ctx := context.Background()

	sess, err := client.New(url, "tok-alice").OpenSession(ctx, "audit")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sess.Query(ctx, "SELECT * FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Next() {
		t.Fatalf("no first row: %v", rs.Err())
	}

	shutdownErr := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- f.srv.Shutdown(sctx)
	}()

	// Consume slowly enough that the drain demonstrably overlaps the
	// stream, then fully.
	n := int64(1)
	for rs.Next() {
		if n < 5 {
			time.Sleep(10 * time.Millisecond)
		}
		n++
	}
	if err := rs.Err(); err != nil {
		t.Fatalf("in-flight stream was cut during graceful drain: %v", err)
	}
	if n != 1000 { // alice's half of 2000
		t.Fatalf("in-flight stream delivered %d rows, want 1000", n)
	}
	if rs.N() != 1000 {
		t.Fatal("stream ended without its done line")
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful shutdown errored: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after clean shutdown", err)
	}
	// The listener is gone: new work has nowhere to connect.
	if _, err := client.New(url, "tok-alice").OpenSession(ctx, "audit"); err == nil {
		t.Fatal("post-drain connection must fail")
	}
}

// TestDrainDeadlineCutsStalledStreams is the other half of the drain
// contract: a client that stops reading cannot hold the server open past
// the deadline. Shutdown returns the deadline error and the stalled
// stream is cut, surfacing as an error (not a silent short result) on
// the client.
func TestDrainDeadlineCutsStalledStreams(t *testing.T) {
	// As above: the result must overflow the socket buffers so the
	// handler is provably wedged on a write the client will never drain.
	f, url, done := serveFixture(t, 200000)
	ctx := context.Background()

	sess, err := client.New(url, "tok-alice").OpenSession(ctx, "audit")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sess.Query(ctx, "SELECT * FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Next() {
		t.Fatalf("no first row: %v", rs.Err())
	}
	// ...and never read again: the server's writes back up.

	sctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = f.srv.Shutdown(sctx)
	if err == nil {
		t.Fatal("Shutdown must report the missed deadline")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("Shutdown took %v, the deadline did not bound the drain", waited)
	}
	<-done

	// The cut stream must not read as a complete result: draining it now
	// hits the missing done line (or the raw connection error).
	for rs.Next() {
	}
	if rs.Err() == nil {
		t.Fatal("stalled stream ended looking complete after a forced cut")
	}
}
