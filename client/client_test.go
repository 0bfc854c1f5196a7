package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/sieve-db/sieve/internal/server"
	"github.com/sieve-db/sieve/internal/storage"
)

// fakeServer answers session opens and streams, for each query, the lines
// its SQL names in streams; "endless" streams rows until the client goes
// away and then closes gone.
func fakeServer(t *testing.T, streams map[string][]string) (sess *Session, gone chan struct{}) {
	t.Helper()
	gone = make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sessions" {
			json.NewEncoder(w).Encode(server.OpenSessionResponse{SessionID: "s1", Querier: "q", Purpose: "p"})
			return
		}
		var req server.QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fl := w.(http.Flusher)
		if req.SQL == "endless" {
			fmt.Fprintln(w, `{"columns":["id"]}`)
			deadline := time.Now().Add(10 * time.Second)
			for i := int64(0); time.Now().Before(deadline); i++ {
				select {
				case <-r.Context().Done():
					close(gone)
					return
				default:
				}
				w.Write(server.AppendRowLine(nil, storage.Row{storage.NewInt(i)}))
				fl.Flush()
				time.Sleep(time.Millisecond)
			}
			return
		}
		for _, line := range streams[req.SQL] {
			fmt.Fprintln(w, line)
		}
	}))
	t.Cleanup(srv.Close)
	sess, err := New(srv.URL, "token").OpenSession(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	return sess, gone
}

// rowLine is the server's canonical row line, without its newline.
func rowLine(r storage.Row) string {
	return strings.TrimSuffix(string(server.AppendRowLine(nil, r)), "\n")
}

// TestRowsReuseOneSlice: every row, canonical or decoded as JSON, lands in
// the slice the first row did — Row is valid until the next Next — and
// each holds its own line's values.
func TestRowsReuseOneSlice(t *testing.T) {
	sess, _ := fakeServer(t, map[string][]string{"q": {
		`{"columns":["id","name"]}`,
		rowLine(storage.Row{storage.NewInt(1), storage.NewString("a")}),
		rowLine(storage.Row{storage.NewInt(2), storage.Null}),
		`{"row": [{"t":"int","v":"3"}, {"t":"str","v":"c"}]}`,
		`{"done":true,"rows":3}`,
	}})
	rows, err := sess.Query(context.Background(), "q")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := fmt.Sprint(rows.Columns()); got != "[id name]" {
		t.Fatalf("columns %s", got)
	}
	want := []string{"[1 a]", "[2 <nil>]", "[3 c]"}
	var first []any
	for i := 0; rows.Next(); i++ {
		row := rows.Row()
		if got := fmt.Sprint(row); i >= len(want) || got != want[i] {
			t.Fatalf("row %d is %s, want %v", i, got, want)
		}
		if first == nil {
			first = row
		} else if &row[0] != &first[0] {
			t.Fatalf("row %d is decoded into a new slice", i)
		}
	}
	if err := rows.Err(); err != nil || rows.N() != 3 {
		t.Fatalf("err %v, N %d", err, rows.N())
	}
	if got := fmt.Sprint(first); got != want[2] {
		t.Fatalf("the first row's slice holds %s after the last Next, want the last row %s", got, want[2])
	}
}

// TestRowsJSONFallbackLine: a row line the fast parser declines (spaces,
// keys reordered) decodes as JSON into the client's Go values.
func TestRowsJSONFallbackLine(t *testing.T) {
	sess, _ := fakeServer(t, map[string][]string{"q": {
		`{"columns":["i","f","s","b","n","d"]}`,
		`{ "row" : [ {"v":"-4","t":"int"}, {"t":"float","v":"2.5"}, {"t":"str","v":"xé"}, {"t":"bool","v":"t"}, {"t":"null"}, {"t":"date","v":"18263"} ] }`,
		`{"done":true,"rows":1}`,
	}})
	rows, err := sess.Query(context.Background(), "q")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no row: %v", rows.Err())
	}
	want := []any{int64(-4), 2.5, "xé", true, nil, Date(18263)}
	if got := rows.Row(); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
		t.Fatalf("row %#v, want %#v", got, want)
	}
	if rows.Next() || rows.Err() != nil {
		t.Fatalf("after the row: Next true or err %v", rows.Err())
	}
}

// TestRowsDoneLine: the done line's row count, counters and request id are
// the Rows' once the stream ends, and none before.
func TestRowsDoneLine(t *testing.T) {
	sess, _ := fakeServer(t, map[string][]string{"q": {
		`{"columns":["id"]}`,
		rowLine(storage.Row{storage.NewInt(7)}),
		`{"done":true,"rows":1,"counters":{"tuples_read":40,"segments_scanned":2,"segments_pruned":3,"policy_evals":5,"udf_invocations":6,"plan_cache_hits":1},"req_id":"req-9"}`,
	}})
	rows, err := sess.Query(context.Background(), "q")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for rows.Next() {
		if rows.Counters() != nil || rows.RequestID() != "" {
			t.Fatal("done line's fields set before the stream ended")
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	want := server.StreamCounters{TuplesRead: 40, SegmentsScanned: 2, SegmentsPruned: 3, PolicyEvals: 5, UDFInvocations: 6, PlanCacheHits: 1}
	if c := rows.Counters(); c == nil || *c != want {
		t.Fatalf("counters %+v, want %+v", c, want)
	}
	if rows.RequestID() != "req-9" || rows.N() != 1 {
		t.Fatalf("request id %q, N %d", rows.RequestID(), rows.N())
	}
}

// TestRowsEarlyClose: closing mid-stream ends iteration without an error
// and disconnects, which the server sees.
func TestRowsEarlyClose(t *testing.T) {
	sess, gone := fakeServer(t, nil)
	rows, err := sess.Query(context.Background(), "endless")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("row %d: %v", i, rows.Err())
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() || rows.Err() != nil || rows.Row() != nil {
		t.Fatalf("after Close: a row, or err %v", rows.Err())
	}
	rows.Close() // idempotent
	select {
	case <-gone:
	case <-time.After(5 * time.Second):
		t.Fatal("the server did not see the client go away")
	}
}

// TestRowsCutStream: a stream that ends without a done line — or with an
// error line — fails Err after the rows that did arrive.
func TestRowsCutStream(t *testing.T) {
	sess, _ := fakeServer(t, map[string][]string{
		"cut": {`{"columns":["id"]}`, rowLine(storage.Row{storage.NewInt(1)})},
		"err": {`{"columns":["id"]}`, rowLine(storage.Row{storage.NewInt(1)}), `{"error":"engine: boom"}`},
	})
	for q, want := range map[string]string{
		"cut": "stream ended without a done line",
		"err": "sieve-server: engine: boom",
	} {
		rows, err := sess.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); n != 1 || err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %d rows, err %v; want 1 row and an error containing %q", q, n, err, want)
		}
		rows.Close()
	}
}
