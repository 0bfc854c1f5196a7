package core

import (
	"context"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
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
