package core

import (
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
)

func TestRevokePolicyRemovesAccess(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 0)
	p := newPolicy(5, 101) // querier "prof", owner 5, AP 101
	p.Conditions = nil     // unconditional grant on owner 5
	if err := f.m.AddPolicy(p); err != nil {
		t.Fatal(err)
	}
	res, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("grant not visible before revocation")
	}
	if err := f.m.RevokePolicy(p.ID); err != nil {
		t.Fatal(err)
	}
	res2, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 0 {
		t.Fatalf("revoked policy still grants %d rows", len(res2.Rows))
	}
	// Baselines agree (store-level removal).
	for _, kind := range []BaselineKind{BaselineP, BaselineI, BaselineU} {
		bres, err := f.m.ExecuteBaseline(t.Context(), kind, selectAll, f.qm)
		if err != nil {
			t.Fatal(err)
		}
		if len(bres.Rows) != 0 {
			t.Errorf("%s still grants after revocation", kind)
		}
	}
	// The persisted relations no longer carry the policy.
	cnt, err := f.db.Query("SELECT count(*) FROM " + policy.TableP)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Rows[0][0].I != 0 {
		t.Fatalf("rP rows after revocation = %v", cnt.Rows[0][0])
	}
	oc, err := f.db.Query("SELECT count(*) FROM " + policy.TableOC)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Rows[0][0].I != 0 {
		t.Fatalf("rOC rows after revocation = %v", oc.Rows[0][0])
	}
}

func TestRevokeUnknownPolicyErrors(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 5)
	if err := f.m.RevokePolicy(99999); err == nil {
		t.Fatal("revoking unknown policy must error")
	}
}

// TestRevokeTakesEffectWhenPatched: with k̃ pinned large, the state that
// serves the read after a revocation is patched from the one it retires
// (one patch, no full generation), and the revoked owner's tuples are gone
// on that very read.
func TestRevokeTakesEffectWhenPatched(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 0)
	f.m.regen = regenConfig{CG: 1e12, Rpq: 1, MinK: 100, MaxK: 1000}
	keep := newPolicy(3, 100)
	keep.Conditions = nil
	drop := newPolicy(5, 100)
	drop.Conditions = nil
	for _, p := range []*policy.Policy{keep, drop} {
		if err := f.m.AddPolicy(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll); err != nil {
		t.Fatal(err)
	}
	before := f.m.CacheStats()
	if err := f.m.RevokePolicy(drop.ID); err != nil {
		t.Fatal(err)
	}
	res, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll)
	if err != nil {
		t.Fatal(err)
	}
	after := f.m.CacheStats()
	if got := after.GuardPatches - before.GuardPatches; got != 1 {
		t.Errorf("revocation then read patched %d states, want 1", got)
	}
	for _, r := range res.Rows {
		if r[1].I == drop.Owner {
			t.Fatal("revoked owner's tuples leaked from the patched state")
		}
	}
	if len(res.Rows) == 0 {
		t.Fatal("surviving grant lost")
	}
}
