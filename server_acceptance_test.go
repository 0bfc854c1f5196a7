package sieve_test

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/client"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/server"
	"github.com/sieve-db/sieve/internal/storage"
	"github.com/sieve-db/sieve/internal/workload"
)

// wireRowCount reads a wire stream to completion and counts its rows.
func wireRowCount(t *testing.T, rows *client.Rows, err error) int {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestServerAcceptance is the acceptance gate for the networked
// middleware's policy paths over TCP: default deny, and a grant then a
// revocation taking effect on one open prepared statement, finishing
// with a clean drain. That the wire returns what the middleware returns
// in process, query by query, is the corpus harness's job
// (internal/loadgen TestCorpusDoors).
func TestServerAcceptance(t *testing.T) {
	demo, err := workload.NewDemo(sieve.MySQL())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Middleware: demo.M, AllowDemoTokens: true})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	url := "http://" + l.Addr().String()
	ctx := context.Background()

	// Default deny: a querier with no policies gets a clean
	// empty result, not an error and not someone else's rows.
	nobody, err := client.New(url, "demo:nobody|analytics").OpenSession(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	st, err := nobody.Prepare(ctx, "SELECT id, owner FROM "+workload.TableWiFi+" ORDER BY id LIMIT 50")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query(ctx)
	if n := wireRowCount(t, rows, err); n != 0 {
		t.Fatalf("default deny leaked %d rows over the wire", n)
	}

	// A policy granted through the wire takes effect on the SAME prepared
	// statement — the epoch bump invalidates its cached rewrite, no
	// reconnect, no re-prepare. Campus owners are generated, so probe the
	// policy corpus for one that owns rows.
	admin := client.New(url, "demo:root|admin")
	grantID := int64(-1)
	for i := 0; i < len(demo.Policies) && i < 16; i++ {
		id, err := admin.AddPolicy(ctx, client.Policy{
			Owner:    demo.Policies[i].Owner,
			Querier:  "nobody",
			Purpose:  "analytics",
			Relation: workload.TableWiFi,
		})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := st.Query(ctx)
		if wireRowCount(t, rows, err) > 0 {
			grantID = id
			break
		}
		if err := admin.RevokePolicy(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if grantID < 0 {
		t.Fatal("no probed owner had wifi rows; cannot prove the grant path")
	}

	// Revocation flows back through the same statement.
	if err := admin.RevokePolicy(ctx, grantID); err != nil {
		t.Fatal(err)
	}
	rows, err = st.Query(ctx)
	if n := wireRowCount(t, rows, err); n != 0 {
		t.Fatalf("revoked grant still returns %d rows", n)
	}

	// Finally the lifecycle: a quiet server drains promptly and cleanly.
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if _, err := client.New(url, "demo:nobody|analytics").OpenSession(ctx, ""); err == nil {
		t.Fatal("server still accepting sessions after drain")
	}
}

// TestServerFirstRowBeforeQueryEnds: the first row of a slow, multi-row
// stream reaches the client while the query is still running — the server
// flushes after rows 1, 2, 4, … 64, not only every 64th. The query's filter
// passes a few rows of the scan's first batch and then stalls inside the
// second until the client has read a row; had that row waited in the
// server's buffer for 63 more (or for the done line), neither side would
// move.
func TestServerFirstRowBeforeQueryEnds(t *testing.T) {
	demo, err := workload.NewDemo(sieve.MySQL())
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	defer open()
	var calls atomic.Int64
	demo.Campus.DB.RegisterUDF("gate", func(_ *engine.UDFContext, args []storage.Value) (storage.Value, error) {
		if calls.Add(1) > 64 { // past the scan's first batch
			<-release
		}
		return storage.NewBool(args[0].I%16 == 0), nil
	})
	srv, err := server.New(server.Config{Middleware: demo.M, AllowDemoTokens: true})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	ctx := context.Background()
	sess, err := client.New("http://"+l.Addr().String(), "demo:anyone|analytics").OpenSession(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query(ctx, "SELECT id FROM "+workload.TableUsers+" WHERE gate(id) = TRUE")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	first := make(chan bool, 1)
	go func() { first <- rows.Next() }()
	select {
	case ok := <-first:
		if !ok {
			t.Fatalf("no first row: %v", rows.Err())
		}
	case <-time.After(10 * time.Second):
		open()
		t.Fatal("the first row did not reach the client while the query was still running")
	}
	// The row arrived with the gate shut, so the query could not have
	// finished — provided it had a second batch to stall in.
	open()
	n := 1
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil || n < 3 {
		t.Fatalf("stream after the stall: %d rows, err %v", n, err)
	}
	if calls.Load() <= 64 {
		t.Fatalf("the filter ran %d times: no second batch to stall in, the fixture proves nothing", calls.Load())
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}
