package sieve_test

import (
	"context"
	"net"
	"reflect"
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

// drainWire reads a wire stream to completion as [][]any.
func drainWire(t *testing.T, rows *client.Rows, err error) [][]any {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var out [][]any
	for rows.Next() {
		r := rows.Row()
		cp := make([]any, len(r))
		copy(cp, r)
		out = append(out, cp)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerAcceptance is the acceptance gate for the networked
// middleware: the demo campus served over TCP must be indistinguishable —
// row for row, value for value — from holding the middleware in process,
// for the whole examples corpus and for the default-deny and
// policy-change paths, finishing with a clean drain.
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

	// The examples corpus over the wire vs the same session shape in
	// process. The wire decodes into Go values; client.FromValue is the
	// documented mapping, so applying it to the in-process rows is the
	// exact parity oracle.
	querier := demo.Querier("auto")
	inSess := demo.M.NewSession(sieve.Metadata{Querier: querier, Purpose: "analytics"})
	wireSess, err := client.New(url, "demo:"+querier+"|analytics").OpenSession(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, q := range demo.Campus.CorpusQueries() {
		rows, err := inSess.Query(ctx, q.SQL)
		if err != nil {
			t.Fatalf("%s: in-process: %v", q.Name, err)
		}
		var want [][]any
		cols := rows.Columns()
		for rows.Next() {
			r := rows.Row()
			conv := make([]any, len(r))
			for i, v := range r {
				conv[i] = client.FromValue(v)
			}
			want = append(want, conv)
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("%s: in-process: %v", q.Name, err)
		}
		rows.Close()

		wrows, err := wireSess.Query(ctx, q.SQL)
		if err != nil {
			t.Fatalf("%s: wire: %v", q.Name, err)
		}
		if got := wrows.Columns(); !reflect.DeepEqual(got, cols) {
			t.Fatalf("%s: columns %v over the wire, %v in process", q.Name, got, cols)
		}
		got := drainWire(t, wrows, nil)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s: wire result diverges from in-process (%d vs %d rows)",
				q.Name, len(got), len(want))
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every corpus query came back empty; the parity check proved nothing")
	}

	// Default deny travels too: a querier with no policies gets a clean
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
	if got := drainWire(t, rows, err); len(got) != 0 {
		t.Fatalf("default deny leaked %d rows over the wire", len(got))
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
		if got := drainWire(t, rows, err); len(got) > 0 {
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
	if got := drainWire(t, rows, err); len(got) != 0 {
		t.Fatalf("revoked grant still returns %d rows", len(got))
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
