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

func TestRevokeForcesRegenUnderDeferral(t *testing.T) {
	// Even in §6 deferred mode, a revocation must take effect on the very
	// next query — appended arms can add grants but never remove them.
	cfg := RegenConfig{CG: 1e12, Rpq: 1, MinK: 100, MaxK: 1000}
	f := newFixture(t, engine.MySQL(), 0, WithRegenInterval(cfg))
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
	if err := f.m.RevokePolicy(drop.ID); err != nil {
		t.Fatal(err)
	}
	res, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r[1].I == 5 {
			t.Fatal("revoked owner's tuples leaked in deferred mode")
		}
	}
	if len(res.Rows) == 0 {
		t.Fatal("surviving grant lost")
	}
}
