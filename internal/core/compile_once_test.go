package core_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sieve-db/sieve/client"
	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/server"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// These tests pin where a guard disjunction is compiled: once per guard
// state, by whichever execution over the state first runs it, and never
// again while the state lives — whatever door the query came in by, and
// whether or not it was prepared. They count through
// engine.DB.SharedFilters, whose compile counter moves only when a
// registered disjunction compiles.

// groupFixture is one access group of queriers sharing one signature on a
// protected relation, behind both the middleware and the HTTP server.
type groupFixture struct {
	db       *engine.DB
	m        *core.Middleware
	queriers []string
	ts       *httptest.Server
}

const (
	groupName   = "grp"
	groupOwners = 40
)

func newGroupFixture(t *testing.T, members int, opts ...core.Option) *groupFixture {
	t.Helper()
	db := engine.New(engine.MySQL())
	db.UDFOverheadIters = 0
	schema := storage.MustSchema(
		storage.Column{Name: "id", Type: storage.KindInt},
		storage.Column{Name: "owner", Type: storage.KindInt},
		storage.Column{Name: "wifiAP", Type: storage.KindInt},
	)
	if _, err := db.CreateTable("wifi", schema); err != nil {
		t.Fatal(err)
	}
	var rows []storage.Row
	for i := int64(0); i < groupOwners*50; i++ {
		rows = append(rows, storage.Row{storage.NewInt(i), storage.NewInt(i % groupOwners), storage.NewInt(100 + i%6)})
	}
	if err := db.BulkInsert("wifi", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("wifi", "wifiAP"); err != nil {
		t.Fatal(err)
	}
	store, err := policy.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	f := &groupFixture{db: db}
	groups := policy.StaticGroups{}
	for i := 0; i < members; i++ {
		q := fmt.Sprintf("member%d", i)
		groups[q] = []string{groupName}
		f.queriers = append(f.queriers, q)
	}
	var ps []*policy.Policy
	for o := int64(0); o < 12; o++ {
		p := groupGrant(o)
		if o%2 == 0 {
			p.Conditions = []policy.ObjectCondition{policy.Compare("wifiAP", sqlparser.CmpEq, storage.NewInt(100+o%6))}
		}
		ps = append(ps, p)
	}
	if err := store.BulkLoad(ps); err != nil {
		t.Fatal(err)
	}
	if f.m, err = core.New(store, append([]core.Option{core.WithGroups(groups)}, opts...)...); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Protect("wifi"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze("wifi"); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Middleware: f.m, AllowDemoTokens: true})
	if err != nil {
		t.Fatal(err)
	}
	f.ts = httptest.NewServer(srv.Handler())
	t.Cleanup(f.ts.Close)
	return f
}

func groupGrant(owner int64) *policy.Policy {
	return &policy.Policy{Owner: owner, Querier: groupName, Purpose: policy.AnyPurpose, Relation: "wifi", Action: policy.Allow}
}

func metadata(q string) policy.Metadata {
	return policy.Metadata{Querier: q, Purpose: "attendance"}
}

// sorted orders rows by their values, so results of different access
// paths compare as multisets.
func sorted(rows []storage.Row) []storage.Row {
	return slices.SortedFunc(slices.Values(rows), func(a, b storage.Row) int {
		for i := range min(len(a), len(b)) {
			if c, _ := storage.Compare(a[i], b[i]); c != 0 {
				return c
			}
		}
		return len(a) - len(b)
	})
}

// doors runs sql for querier q through Session.Query, Session.Execute and
// the server's /query, and returns each door's rows.
func (f *groupFixture) doors(t *testing.T, q, sql string) map[string][]storage.Row {
	t.Helper()
	ctx := t.Context()
	out := map[string][]storage.Row{}
	sess := f.m.NewSession(metadata(q))
	rows, err := sess.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
		out["Session.Query"] = append(out["Session.Query"], rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	res, err := sess.Execute(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	out["Session.Execute"] = res.Rows

	ws, err := client.New(f.ts.URL, "demo:"+q+"|attendance").OpenSession(ctx, "attendance")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close(ctx)
	wr, err := ws.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	defer wr.Close()
	for wr.Next() {
		var row storage.Row
		for _, v := range wr.Row() {
			row = append(row, storage.NewInt(v.(int64)))
		}
		out["/query"] = append(out["/query"], row)
	}
	if err := wr.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// baseline is BaselineP's answer to sql for q.
func (f *groupFixture) baseline(t *testing.T, q, sql string) []storage.Row {
	t.Helper()
	res, err := f.m.ExecuteBaseline(t.Context(), core.BaselineP, sql, metadata(q))
	if err != nil {
		t.Fatal(err)
	}
	return sorted(res.Rows)
}

// TestGuardFilterCompiledOncePerState: the members of one group share one
// guard state. One query through Session.Query, Session.Execute and /query
// for every member, and a prepared statement of a second query for every
// member, compile the state's guard disjunction exactly once between them,
// and every door returns BaselineP's rows. A policy write retires the state;
// the next round compiles exactly once more, and the engine's registry
// holds one entry per live state throughout.
func TestGuardFilterCompiledOncePerState(t *testing.T) {
	f := newGroupFixture(t, 4)
	const unprepared = "SELECT id, owner FROM wifi WHERE wifiAP = 102"
	const prepared = "SELECT owner, count(*) AS n FROM wifi GROUP BY owner"
	st, err := f.m.Prepare(prepared)
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		t.Helper()
		for _, q := range f.queriers {
			want := f.baseline(t, q, unprepared)
			if len(want) == 0 {
				t.Fatalf("%s: BaselineP returns no rows; the fixture proves nothing", q)
			}
			for door, got := range f.doors(t, q, unprepared) {
				if !slices.EqualFunc(sorted(got), want, slices.Equal) {
					t.Errorf("%s via %s: %d rows, BaselineP %d", q, door, len(got), len(want))
				}
			}
			res, err := st.Execute(t.Context(), f.m.NewSession(metadata(q)))
			if err != nil {
				t.Fatal(err)
			}
			if want := f.baseline(t, q, prepared); !slices.EqualFunc(sorted(res.Rows), want, slices.Equal) {
				t.Errorf("%s via Stmt.Execute: %d rows, BaselineP %d", q, len(res.Rows), len(want))
			}
		}
	}
	check := func(when string, wantCompiled int64) {
		t.Helper()
		cs := f.m.CacheStats()
		live, compiled := f.db.SharedFilters()
		if compiled != wantCompiled {
			t.Errorf("%s: %d guard disjunctions compiled, want %d", when, compiled, wantCompiled)
		}
		if int64(live) != cs.GuardStates {
			t.Errorf("%s: %d shared filters registered for %d live guard states", when, live, cs.GuardStates)
		}
	}

	round()
	if cs := f.m.CacheStats(); cs.GuardStates != 1 || cs.GuardShares == 0 {
		t.Fatalf("guard states %d, shares %d: the members do not share one state", cs.GuardStates, cs.GuardShares)
	}
	check("first state", 1)

	if err := f.m.AddPolicy(groupGrant(20)); err != nil {
		t.Fatal(err)
	}
	round()
	if cs := f.m.CacheStats(); cs.GuardRegens != 2 {
		t.Fatalf("%d guard generations, want 2: the write did not replace the state", cs.GuardRegens)
	}
	check("after the write", 2)
}

// TestSharedGuardFilterUnderChurn runs unprepared and prepared executions
// over one shared state from several goroutines while a writer keeps
// retiring it — a grant, then its revocation — so registrations, releases,
// lazy arm compiles and their first runs interleave. Under -race with
// -cpu=1,4 that is the check that the shared filter is safe to build and
// run concurrently; afterwards every member reads BaselineP's rows and the
// registry holds exactly the live states. In the Δ input half the owners
// hold a second grant, so their guards check a two-policy partition through
// the Δ UDF (threshold 1), beside inlined ones: each retirement then lands
// on Δ calls that readers may still be running, and each patched state
// takes its base's Δ arms.
func TestSharedGuardFilterUnderChurn(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  []core.Option
		delta bool
	}{
		{"inline", nil, false},
		{"delta", []core.Option{core.WithDeltaThreshold(1)}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newGroupFixture(t, 4, tc.opts...)
			if tc.delta {
				for o := int64(0); o < 12; o += 2 {
					p := groupGrant(o)
					p.Conditions = []policy.ObjectCondition{policy.Compare("wifiAP", sqlparser.CmpEq, storage.NewInt(101+o%6))}
					if err := f.m.AddPolicy(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			churnSharedGuardFilter(t, f, tc.delta)
		})
	}
}

func churnSharedGuardFilter(t *testing.T, f *groupFixture, delta bool) {
	const unprepared = "SELECT id, owner FROM wifi WHERE wifiAP = 102"
	st, err := f.m.Prepare("SELECT * FROM wifi")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.Report(f.m.NewSession(metadata(f.queriers[0])))
	if err != nil {
		t.Fatal(err)
	}
	if d := rep.Decisions[0]; (d.DeltaGuards > 0) != delta || d.DeltaGuards == d.Guards {
		t.Fatalf("%d of %d guards via Δ; the input wants Δ: %v, beside inlined guards", d.DeltaGuards, d.Guards, delta)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	var reads atomic.Int64
	errs := make(chan error, len(f.queriers))
	stop := make(chan struct{})
	for _, q := range f.queriers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := f.m.NewSession(metadata(q))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sess.Execute(ctx, unprepared); err != nil {
					errs <- err
					return
				}
				if _, err := st.Execute(ctx, sess); err != nil {
					errs <- err
					return
				}
				reads.Add(1)
			}
		}()
	}
	deadline := time.Now().Add(30 * time.Second) // a failure deadline, not a synchronisation
	for i := int64(0); i < 20; i++ {
		// Let every reader get a round in against the last write's state.
		for start := reads.Load(); reads.Load() < start+int64(len(f.queriers)) && len(errs) == 0 && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		p := groupGrant(20 + i)
		if err := f.m.AddPolicy(p); err != nil {
			t.Fatal(err)
		}
		if err := f.m.RevokePolicy(p.ID); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, q := range f.queriers {
		res, err := f.m.NewSession(metadata(q)).Execute(ctx, unprepared)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.baseline(t, q, unprepared); !slices.EqualFunc(sorted(res.Rows), want, slices.Equal) {
			t.Errorf("%s: %d rows after the churn, BaselineP %d", q, len(res.Rows), len(want))
		}
	}
	if live, _ := f.db.SharedFilters(); int64(live) != f.m.CacheStats().GuardStates {
		t.Errorf("%d shared filters registered for %d live guard states", live, f.m.CacheStats().GuardStates)
	}
}
