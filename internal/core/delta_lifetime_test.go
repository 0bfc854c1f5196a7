package core

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/sqlparser"
)

// These tests pin how long a Δ check set lives: exactly as long as the
// sieve_delta call that names it (newDeltaCall). An execution opened over a
// guard state keeps the state's calls, so a retirement that lands while it
// runs cannot take a set from under it, and once nothing holds a call any
// more, a collection deletes its set.

// liveCheckSets counts the registered check sets.
func liveCheckSets(m *Middleware) int {
	n := 0
	m.registry.Range(func(_, _ any) bool { n++; return true })
	return n
}

// waitCheckSets collects garbage until the registry holds want() sets,
// failing after a deadline: a set is deleted by a cleanup that runs after
// the collection that finds its call unreachable, not during it.
func waitCheckSets(t *testing.T, m *Middleware, want func() int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		got, w := liveCheckSets(m), want()
		if got == w {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d check sets registered, want %d", got, w)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// deltaCalls returns the distinct sieve_delta call nodes in arms.
func deltaCalls(arms []engine.GuardArm) []*sqlparser.FuncCall {
	var out []*sqlparser.FuncCall
	for _, a := range arms {
		sqlparser.Walk(a.Expr, false, func(e sqlparser.Expr) {
			if fc, ok := e.(*sqlparser.FuncCall); ok && fc.Name == DeltaUDFName && !slices.Contains(out, fc) {
				out = append(out, fc)
			}
		})
	}
	return out
}

// liveStateCalls returns the distinct Δ calls the live guard states hold.
func liveStateCalls(m *Middleware) []*sqlparser.FuncCall {
	m.mu.Lock()
	defer m.mu.Unlock()
	var arms []engine.GuardArm
	for _, bucket := range m.states {
		for _, st := range bucket {
			arms = append(arms, st.arms...)
		}
	}
	return deltaCalls(arms)
}

// deltaFixture is a campus fixture in which every guard of the querier's
// with more than one policy checks its partition through the Δ UDF, and the
// ids of the rows Session.Execute returns it before anything retires.
func deltaFixture(t *testing.T) (*fixture, []int64) {
	t.Helper()
	f := newFixture(t, engine.MySQL(), 40, WithDeltaThreshold(1))
	_, rep, err := f.m.RewriteQuery(selectAll, f.qm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decisions[0].DeltaGuards == 0 {
		t.Fatal("no guard checks its partition through Δ; the fixture proves nothing")
	}
	want, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) <= 2*64 {
		t.Fatalf("%d rows fit in the stream's first batches; the fixture proves nothing", len(want.Rows))
	}
	return f, slices.Sorted(slices.Values(idsOf(want, 0)))
}

// TestDeltaStreamOutlivesRetirement: a stream that has read one row when
// its guard state retires drains to the rows the state grants, with no
// error — the retirement and a collection after it leave every check set
// the stream calls registered.
func TestDeltaStreamOutlivesRetirement(t *testing.T) {
	f, want := deltaFixture(t)
	rows, err := f.m.NewSession(f.qm).Query(t.Context(), selectAll)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	got := []int64{rows.Row()[0].I}
	f.m.InvalidateAll()
	runtime.GC()
	runtime.GC()
	for rows.Next() {
		got = append(got, rows.Row()[0].I)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("after %d of %d rows: %v", len(got), len(want), err)
	}
	if slices.Sort(got); !slices.Equal(got, want) {
		t.Fatalf("%d rows after the retirement, %d before it", len(got), len(want))
	}
}

// TestDeltaPlanOutlivesRetirement: a prepared statement whose guard state
// retires between its resolution and the rewrite built from it runs the
// plan of the state it resolved, with no error.
func TestDeltaPlanOutlivesRetirement(t *testing.T) {
	f, want := deltaFixture(t)
	st, err := f.m.Prepare(selectAll)
	if err != nil {
		t.Fatal(err)
	}
	st.hookAfterResolve = func() {
		f.m.InvalidateAll()
		runtime.GC()
		runtime.GC()
	}
	res, err := st.Execute(t.Context(), f.m.NewSession(f.qm))
	if err != nil {
		t.Fatal(err)
	}
	if got := slices.Sorted(slices.Values(idsOf(res, 0))); !slices.Equal(got, want) {
		t.Fatalf("%d rows from the plan over the retired state, %d before it retired", len(got), len(want))
	}
}

// TestDeltaSetsLiveAsLongAsTheirCalls: fifty administrative resets, each
// followed by unprepared and prepared reads, retire fifty generations of
// states with their Δ calls. Once the statement and its plans are dropped,
// collections bring the registry down to exactly the live states' calls,
// each of which still finds its set.
func TestDeltaSetsLiveAsLongAsTheirCalls(t *testing.T) {
	f, _ := deltaFixture(t)
	ctx := context.Background()
	sess := f.m.NewSession(f.qm)
	st, err := f.m.Prepare(selectAll)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		f.m.InvalidateAll()
		if _, err := sess.Execute(ctx, selectAll); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Execute(ctx, sess); err != nil {
			t.Fatal(err)
		}
	}
	if f.m.nextSetID.Load() <= int64(len(liveStateCalls(f.m))) {
		t.Fatal("the resets retired no Δ calls; the test proves nothing")
	}
	runtime.KeepAlive(st)
	waitCheckSets(t, f.m, func() int { return len(liveStateCalls(f.m)) })
	live := liveStateCalls(f.m)
	if len(live) == 0 {
		t.Fatal("the live state holds no Δ call")
	}
	for _, call := range live {
		id := call.Args[0].(*sqlparser.Literal).Val.I
		if _, ok := f.m.lookupCheckSet(id); !ok {
			t.Errorf("the live state's Δ call names set %d, which is not registered", id)
		}
	}
}

// TestPatchKeepsBaseDeltaArm: a state patched from one whose Δ guard the
// patch keeps unchanged takes the base's arm — the same call node, so the
// same check set — and registers no set for it.
func TestPatchKeepsBaseDeltaArm(t *testing.T) {
	f := newSigFixture(t, 1, 2)
	f.m.deltaThreshold = 1
	ctx := context.Background()
	qm := f.metadata("member0_0")
	sess := f.m.NewSession(qm)
	state := func() *geState {
		f.m.mu.Lock()
		defer f.m.mu.Unlock()
		return f.m.claims[geKey{querier: qm.Querier, purpose: qm.Purpose, relation: "wifi"}].state
	}
	read := func() {
		t.Helper()
		if _, err := sess.Execute(ctx, selectAll); err != nil {
			t.Fatal(err)
		}
	}
	read()
	// A second grant to owner 2 joins its guard: two policies, so Δ.
	if err := f.m.AddPolicy(groupGrant("grp0", 2)); err != nil {
		t.Fatal(err)
	}
	read()
	base := state()
	calls := deltaCalls(base.arms)
	if len(calls) != 1 {
		t.Fatalf("%d Δ calls after the joining grant, want 1", len(calls))
	}
	sets := f.m.nextSetID.Load()
	patches := f.m.CacheStats().GuardPatches
	// A grant to a new owner adds a guard and keeps every other one.
	if err := f.m.AddPolicy(groupGrant("grp0", 7)); err != nil {
		t.Fatal(err)
	}
	read()
	st := state()
	if st == base || f.m.CacheStats().GuardPatches != patches+1 {
		t.Fatal("the write's state was not patched")
	}
	if got := deltaCalls(st.arms); len(got) != 1 || got[0] != calls[0] {
		t.Errorf("the patched state's Δ calls %p, its base's %p", got, calls)
	}
	if n := f.m.nextSetID.Load(); n != sets {
		t.Errorf("the patch registered %d check sets", n-sets)
	}
}
