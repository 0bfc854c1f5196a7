package core

import (
	"context"
	"slices"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/storage"
)

// TestEveryDoorAddsCacheCounts: whichever door a statement comes in by —
// Session.Query or Execute, Stmt.Query or Execute, with placeholders or
// without — its guard-cache and plan-cache counts reach
// DB.CountersSnapshot, and a door's Execute adds exactly what its Query
// adds: one guard-cache hit for the one protected relation of a warm
// claim, and a plan-cache hit where a prepared plan served the statement.
func TestEveryDoorAddsCacheCounts(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 30)
	ctx := context.Background()
	sess := f.m.NewSession(f.qm)
	const q = "SELECT id FROM wifi WHERE wifiAP = 101"
	const qArg = "SELECT id FROM wifi WHERE wifiAP = ?"
	arg := storage.NewInt(101)
	st, err := f.m.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	stArg, err := f.m.Prepare(qArg)
	if err != nil {
		t.Fatal(err)
	}
	drain := func(rows *engine.Rows, err error) error {
		if err != nil {
			return err
		}
		for rows.Next() {
		}
		rows.Close()
		return rows.Err()
	}
	discard := func(_ *engine.Result, err error) error { return err }
	doors := []struct {
		name     string
		query    func() error
		execute  func() error
		planHits int64
	}{
		{"Session",
			func() error { return drain(sess.Query(ctx, q)) },
			func() error { return discard(sess.Execute(ctx, q)) }, 0},
		{"Session with placeholders",
			func() error { return drain(sess.Query(ctx, qArg, arg)) },
			func() error { return discard(sess.Execute(ctx, qArg, arg)) }, 0},
		{"Stmt",
			func() error { return drain(st.Query(ctx, sess)) },
			func() error { return discard(st.Execute(ctx, sess)) }, 1},
		{"Stmt with placeholders",
			func() error { return drain(stArg.Query(ctx, sess, arg)) },
			func() error { return discard(stArg.Execute(ctx, sess, arg)) }, 0},
	}
	// added runs one call and returns the cache counts it added.
	added := func(call func() error) engine.Counters {
		before := f.db.CountersSnapshot()
		if err := call(); err != nil {
			t.Fatal(err)
		}
		after := f.db.CountersSnapshot()
		return engine.Counters{
			GuardCacheHits:   after.GuardCacheHits - before.GuardCacheHits,
			GuardCacheMisses: after.GuardCacheMisses - before.GuardCacheMisses,
			PlanCacheHits:    after.PlanCacheHits - before.PlanCacheHits,
			PlanCacheMisses:  after.PlanCacheMisses - before.PlanCacheMisses,
		}
	}
	for _, d := range doors {
		if err := d.query(); err != nil { // warm the claim and any plan
			t.Fatalf("%s: %v", d.name, err)
		}
		want := engine.Counters{GuardCacheHits: 1, PlanCacheHits: d.planHits}
		if got := added(d.query); got != want {
			t.Errorf("%s.Query added guard hits/misses %d/%d, plan hits/misses %d/%d; want %d/0, %d/0",
				d.name, got.GuardCacheHits, got.GuardCacheMisses, got.PlanCacheHits, got.PlanCacheMisses, want.GuardCacheHits, want.PlanCacheHits)
		}
		if got := added(d.execute); got != want {
			t.Errorf("%s.Execute added guard hits/misses %d/%d, plan hits/misses %d/%d; want %d/0, %d/0 as Query does",
				d.name, got.GuardCacheHits, got.GuardCacheMisses, got.PlanCacheHits, got.PlanCacheMisses, want.GuardCacheHits, want.PlanCacheHits)
		}
	}
}

// TestEveryDoorTracesOneLayout: every door plans a statement through one
// builder, so its trace has one layout under the span it runs in. The
// protected relation is resolved on "guard-resolve", always; the argument-
// free Stmt probes its plans on "plan" after that; and "rewrite" follows
// wherever a rewrite ran, so not on a plan-cache hit. Each door's Rows
// carries the same guard-cache counts: one hit for the warm claim.
func TestEveryDoorTracesOneLayout(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 30)
	ctx := context.Background()
	sess := f.m.NewSession(f.qm)
	const q = "SELECT id FROM wifi WHERE wifiAP = 101"
	st, err := f.m.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	stArg, err := f.m.Prepare("SELECT id FROM wifi WHERE wifiAP = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute(ctx, q); err != nil { // warm the claim
		t.Fatal(err)
	}
	doors := []struct {
		name  string
		query func(context.Context) (*engine.Rows, error)
		want  []string
	}{
		{"Session.Query", func(ctx context.Context) (*engine.Rows, error) { return sess.Query(ctx, q) },
			[]string{"guard-resolve", "rewrite"}},
		{"Stmt.Query on a plan miss", func(ctx context.Context) (*engine.Rows, error) { return st.Query(ctx, sess) },
			[]string{"guard-resolve", "plan", "rewrite"}},
		{"Stmt.Query on a plan hit", func(ctx context.Context) (*engine.Rows, error) { return st.Query(ctx, sess) },
			[]string{"guard-resolve", "plan"}},
		{"Stmt.Query with a placeholder", func(ctx context.Context) (*engine.Rows, error) {
			return stArg.Query(ctx, sess, storage.NewInt(101))
		}, []string{"guard-resolve", "rewrite"}},
	}
	for _, d := range doors {
		root := obs.NewTrace("query")
		rows, err := d.query(obs.WithSpan(ctx, root))
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		c := rows.Counters()
		for rows.Next() {
		}
		rows.Close()
		if err := rows.Err(); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		root.Finish()
		var got []string
		for _, child := range root.Node().Children {
			if slices.Contains([]string{"guard-resolve", "plan", "rewrite"}, child.Name) {
				got = append(got, child.Name)
			}
		}
		if !slices.Equal(got, d.want) {
			t.Errorf("%s: planning spans under the query span %v, want %v", d.name, got, d.want)
		}
		if c.GuardCacheHits != 1 || c.GuardCacheMisses != 0 {
			t.Errorf("%s: Rows carries guard hits/misses %d/%d, want 1/0", d.name, c.GuardCacheHits, c.GuardCacheMisses)
		}
	}
}
