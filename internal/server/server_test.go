package server_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/client"
	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/server"
)

// fixture is one test server: a protected relation with rows split
// between owner 7 (granted to alice for purpose audit) and owner 8
// (granted to nobody), fronted by the HTTP handler.
type fixture struct {
	m   *sieve.Middleware
	srv *server.Server
	ts  *httptest.Server
}

// tokens used by every test: alice pinned to audit, bob unpinned, root
// an admin without data grants.
var testTokens = map[string]server.Principal{
	"tok-alice": {Querier: "alice", Purpose: "audit"},
	"tok-bob":   {Querier: "bob"},
	"tok-admin": {Querier: "root", Admin: true},
}

func newFixture(t testing.TB, rows int, mutate func(*server.Config)) *fixture {
	t.Helper()
	db := sieve.NewDB(sieve.MySQL())
	schema := sieve.MustSchema(
		sieve.Column{Name: "id", Type: sieve.KindInt},
		sieve.Column{Name: "owner", Type: sieve.KindInt},
		sieve.Column{Name: "day", Type: sieve.KindDate},
		sieve.Column{Name: "note", Type: sieve.KindString},
	)
	if _, err := db.CreateTable("events", schema); err != nil {
		t.Fatal(err)
	}
	data := make([]sieve.Row, 0, rows)
	for i := 0; i < rows; i++ {
		owner := int64(7)
		if i >= rows/2 {
			owner = 8
		}
		note := sieve.Str("n")
		if i%5 == 0 {
			note = sieve.Value{} // NULL
		}
		data = append(data, sieve.Row{
			sieve.Int(int64(i)), sieve.Int(owner), sieve.DateOf("2000-01-02"), note,
		})
	}
	if err := db.BulkInsert("events", data); err != nil {
		t.Fatal(err)
	}
	store, err := sieve.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sieve.New(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Protect("events"); err != nil {
		t.Fatal(err)
	}
	if err := store.Insert(&sieve.Policy{
		Owner: 7, Querier: "alice", Purpose: "audit", Relation: "events", Action: sieve.Allow,
	}); err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{Middleware: m, Tokens: testTokens}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &fixture{m: m, srv: srv, ts: ts}
}

func (f *fixture) client(token string) *client.Client {
	return client.New(f.ts.URL, token)
}

// scrape reads GET /metrics through the exposition parser and returns
// every counter and gauge family's value by name.
func (f *fixture) scrape(t testing.TB) map[string]int64 {
	t.Helper()
	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	out := map[string]int64{}
	for name, fam := range fams {
		if fam.Type != "histogram" {
			out[name] = int64(fam.Value)
		}
	}
	return out
}

// collect drains a wire result into ([][]any, error already checked).
func collect(t testing.TB, rows *client.Rows) [][]any {
	t.Helper()
	defer rows.Close()
	var out [][]any
	for rows.Next() {
		row := rows.Row()
		cp := make([]any, len(row))
		copy(cp, row)
		out = append(out, cp)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// inProcessRows runs the same query in process and converts it with the
// client's value mapping, the parity oracle every wire test compares
// against.
func (f *fixture) inProcessRows(t testing.TB, querier, purpose, sql string) [][]any {
	t.Helper()
	sess := f.m.NewSession(sieve.Metadata{Querier: querier, Purpose: purpose})
	res, err := sess.Execute(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]any, 0, len(res.Rows))
	for _, r := range res.Rows {
		row := make([]any, len(r))
		for i, v := range r {
			row[i] = client.FromValue(v)
		}
		out = append(out, row)
	}
	return out
}

func TestAuthAndSessionScope(t *testing.T) {
	f := newFixture(t, 10, nil)
	ctx := context.Background()

	// No token, unknown token, and (with the demo scheme disabled) a demo
	// token are all the same 401.
	for _, tok := range []string{"", "no-such-token", "demo:alice"} {
		if _, err := f.client(tok).OpenSession(ctx, "audit"); err == nil ||
			!strings.Contains(err.Error(), "401") {
			t.Fatalf("token %q: want 401, got %v", tok, err)
		}
	}

	// The token pins audit; asking for another purpose is refused, asking
	// for none inherits the pin.
	if _, err := f.client("tok-alice").OpenSession(ctx, "marketing"); err == nil {
		t.Fatal("conflicting purpose must be refused")
	}
	sess, err := f.client("tok-alice").OpenSession(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Querier() != "alice" || sess.Purpose() != "audit" {
		t.Fatalf("session bound to %s/%s", sess.Querier(), sess.Purpose())
	}

	// An unpinned token must name a purpose.
	if _, err := f.client("tok-bob").OpenSession(ctx, ""); err == nil {
		t.Fatal("no purpose anywhere must be refused")
	}

	rows, err := sess.Query(ctx, "SELECT id FROM events")
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Closed sessions are gone.
	if _, err := sess.Query(ctx, "SELECT id FROM events"); err == nil ||
		!strings.Contains(err.Error(), "no such session") {
		t.Fatalf("query on closed session: %v", err)
	}
}

func TestQueryStreamParity(t *testing.T) {
	f := newFixture(t, 10, nil)
	ctx := context.Background()
	sess, err := f.client("tok-alice").OpenSession(ctx, "audit")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)

	const q = "SELECT id, owner, day, note FROM events ORDER BY id"
	rows, err := sess.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rows.Columns(), []string{"id", "owner", "day", "note"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("columns %v, want %v", got, want)
	}
	got := collect(t, rows)
	want := f.inProcessRows(t, "alice", "audit", q)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wire rows diverge from in-process:\n got %v\nwant %v", got, want)
	}
	if len(got) != 5 {
		t.Fatalf("alice owns 5 rows, got %d", len(got))
	}
	if rows.N() != 5 {
		t.Fatalf("done line reported %d rows", rows.N())
	}
	if c := rows.Counters(); c == nil || c.TuplesRead == 0 {
		t.Fatalf("stream must carry engine counters, got %+v", c)
	}

	// Default deny over the wire: bob has no policies and sees nothing —
	// a clean empty result, not an error.
	bsess, err := f.client("tok-bob").OpenSession(ctx, "audit")
	if err != nil {
		t.Fatal(err)
	}
	defer bsess.Close(ctx)
	brows, err := bsess.Query(ctx, "SELECT * FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, brows); len(got) != 0 {
		t.Fatalf("default deny leaked %d rows", len(got))
	}
}

func TestPlaceholdersOverWire(t *testing.T) {
	f := newFixture(t, 10, nil)
	ctx := context.Background()
	sess, err := f.client("tok-alice").OpenSession(ctx, "audit")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)

	rows, err := sess.Query(ctx, "SELECT id FROM events WHERE id < ? ORDER BY id", int64(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, rows); len(got) != 3 {
		t.Fatalf("got %d rows, want 3", len(got))
	}

	st, err := sess.Prepare(ctx, "SELECT id FROM events WHERE id BETWEEN ? AND ? ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if st.NumInput() != 2 {
		t.Fatalf("NumInput = %d, want 2", st.NumInput())
	}
	for _, tc := range []struct {
		lo, hi int64
		want   int
	}{{0, 4, 5}, {1, 2, 2}, {4, 9, 1}} {
		rows, err := st.Query(ctx, tc.lo, tc.hi)
		if err != nil {
			t.Fatal(err)
		}
		if got := collect(t, rows); len(got) != tc.want {
			t.Fatalf("[%d,%d]: got %d rows, want %d", tc.lo, tc.hi, len(got), tc.want)
		}
	}
	// Wrong arity is a protocol-level error before any execution.
	if _, err := st.Query(ctx, int64(1)); err == nil {
		t.Fatal("missing argument must error")
	}
	if err := st.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(ctx, int64(1), int64(2)); err == nil ||
		!strings.Contains(err.Error(), "no such prepared statement") {
		t.Fatalf("query on deallocated statement: %v", err)
	}
}

func TestPolicyAdminOverWire(t *testing.T) {
	f := newFixture(t, 10, nil)
	ctx := context.Background()

	// Data tokens cannot administer policies.
	if _, err := f.client("tok-alice").AddPolicy(ctx, client.Policy{
		Owner: 8, Querier: "alice", Purpose: "audit", Relation: "events",
	}); err == nil || !strings.Contains(err.Error(), "admin") {
		t.Fatalf("non-admin policy write: %v", err)
	}

	// A prepared statement made while bob is denied everything...
	bsess, err := f.client("tok-bob").OpenSession(ctx, "audit")
	if err != nil {
		t.Fatal(err)
	}
	defer bsess.Close(ctx)
	st, err := bsess.Prepare(ctx, "SELECT id FROM events ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, rows); len(got) != 0 {
		t.Fatalf("bob pre-grant: %d rows", len(got))
	}

	// ...observes a policy added through the wire on its next execution:
	// the epoch invalidates the cached rewrite, no reconnect, no
	// re-prepare.
	admin := f.client("tok-admin")
	id, err := admin.AddPolicy(ctx, client.Policy{
		Owner: 8, Querier: "bob", Purpose: "audit", Relation: "events",
		Conditions: []client.Condition{{Attr: "id", Op: "<", Value: int64(8)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err = st.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, rows)
	if len(got) != 3 { // owner 8 holds ids 5..9; the condition keeps 5,6,7
		t.Fatalf("bob post-grant: %d rows, want 3", len(got))
	}

	// Revocation flows the same way.
	if err := admin.RevokePolicy(ctx, id); err != nil {
		t.Fatal(err)
	}
	rows, err = st.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, rows); len(got) != 0 {
		t.Fatalf("bob post-revoke: %d rows", len(got))
	}
	if err := admin.RevokePolicy(ctx, id); err == nil {
		t.Fatal("double revoke must error")
	}
}

func TestRewriteEndpoint(t *testing.T) {
	f := newFixture(t, 10, nil)
	ctx := context.Background()
	sess, err := f.client("tok-alice").OpenSession(ctx, "audit")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)

	sql, _, err := sess.Rewrite(ctx, "SELECT id FROM events", "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "owner") {
		t.Fatalf("sieve rewrite lacks a guard: %q", sql)
	}
	msql, args, err := sess.Rewrite(ctx, "SELECT id FROM events WHERE id < 3", "mysql")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msql, "?") || len(args) == 0 {
		t.Fatalf("mysql emission should lift constants: %q / %v", msql, args)
	}
}

func TestSessionLimitAndDemoTokens(t *testing.T) {
	f := newFixture(t, 4, func(c *server.Config) {
		c.MaxSessionsPerTenant = 1
		c.AllowDemoTokens = true
	})
	ctx := context.Background()

	s1, err := f.client("tok-alice").OpenSession(ctx, "audit")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.client("tok-alice").OpenSession(ctx, "audit"); err == nil ||
		!strings.Contains(err.Error(), "429") {
		t.Fatalf("second session must hit the tenant cap: %v", err)
	}
	// A request that is wrong in itself is answered 400 and is no cap
	// rejection, even from a tenant sitting at its cap.
	limited := f.scrape(t)["sieve_rejected_limit_total"]
	if _, err := f.client("tok-alice").OpenSession(ctx, "billing"); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Fatalf("a purpose the token does not pin must be a 400 at the cap too: %v", err)
	}
	if got := f.scrape(t)["sieve_rejected_limit_total"]; got != limited || got != 1 {
		t.Fatalf("rejected_limit = %d after one cap rejection and one bad request, want 1", got)
	}
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Closing released the slot.
	s2, err := f.client("tok-alice").OpenSession(ctx, "audit")
	if err != nil {
		t.Fatalf("slot not released: %v", err)
	}
	s2.Close(ctx)

	// A cap rejection is a 429 whatever the tenant's count is by the time
	// it is answered: four clients race open-then-close for the one slot.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := f.client("tok-alice")
			for i := 0; i < 100; i++ {
				s, err := c.OpenSession(ctx, "audit")
				if err == nil {
					err = s.Close(ctx)
				} else if strings.Contains(err.Error(), "429") {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// The demo scheme asserts identity without a token entry, and rides
	// the same enforcement: alice's grant, bob's default deny.
	ds, err := f.client("demo:alice|audit").OpenSession(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close(ctx)
	rows, err := ds.Query(ctx, "SELECT id FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, rows); len(got) != 2 {
		t.Fatalf("demo-token alice sees %d rows, want 2", len(got))
	}
}

func TestParseTokens(t *testing.T) {
	in := `
# static grants
tok-a alice audit
tok-b bob -
tok-c carol
tok-r root - admin
`
	toks, err := server.ParseTokens(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]server.Principal{
		"tok-a": {Querier: "alice", Purpose: "audit"},
		"tok-b": {Querier: "bob"},
		"tok-c": {Querier: "carol"},
		"tok-r": {Querier: "root", Admin: true},
	}
	if !reflect.DeepEqual(toks, want) {
		t.Fatalf("got %+v, want %+v", toks, want)
	}
	for _, bad := range []string{
		"tok-a alice\ntok-a bob", // duplicate
		"just-a-token",           // missing querier
		"t q p admin extra",      // too many fields
		"t q extra admin2",       // trailing non-admin field
	} {
		if _, err := server.ParseTokens(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseTokens(%q) must error", bad)
		}
	}
}

func TestHealthAndMetrics(t *testing.T) {
	f := newFixture(t, 4, nil)
	ctx := context.Background()
	c := f.client("tok-alice")
	ok, err := c.Health(ctx)
	if err != nil || !ok {
		t.Fatalf("healthz: ok=%v err=%v", ok, err)
	}
	sess, err := c.OpenSession(ctx, "audit")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query(ctx, "SELECT id FROM events")
	if err != nil {
		t.Fatal(err)
	}
	collect(t, rows)
	m := f.scrape(t)
	if m["sieve_queries_total"] < 1 || m["sieve_sessions_opened_total"] < 1 || m["sieve_rows_streamed_total"] < 1 {
		t.Fatalf("/metrics did not move: %+v", m)
	}
	if m["sieve_sessions_open"] != 1 {
		t.Fatalf("sieve_sessions_open = %d, want 1", m["sieve_sessions_open"])
	}
	if m["sieve_engine_tuples_read"] < 1 {
		t.Fatalf("/metrics lacks engine counters: %+v", m)
	}
}
