package core

import (
	"math"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

func newPolicy(owner int64, ap int64) *policy.Policy {
	return &policy.Policy{
		Owner: owner, Querier: "prof", Purpose: "attendance",
		Relation: "wifi", Action: policy.Allow,
		Conditions: []policy.ObjectCondition{
			policy.Compare("wifiAP", sqlparser.CmpEq, storage.NewInt(ap)),
		},
	}
}

func TestTriggerMarksOutdatedAndEagerRegen(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 20)
	if _, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll); err != nil {
		t.Fatal(err)
	}
	if f.m.Regens(f.qm, "wifi") != 1 {
		t.Fatalf("initial regens = %d, want 1", f.m.Regens(f.qm, "wifi"))
	}
	// Inserting a policy for this querier must fire the rP trigger.
	if err := f.m.AddPolicy(newPolicy(5, 101)); err != nil {
		t.Fatal(err)
	}
	if _, valid := boundIDs(f.m, f.qm); valid {
		t.Fatal("claim still valid after a policy insert for its querier")
	}
	// The next query builds a new state for the grown signature.
	res, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll)
	if err != nil {
		t.Fatal(err)
	}
	if f.m.Regens(f.qm, "wifi") != 2 {
		t.Fatalf("regens after outdated query = %d, want 2", f.m.Regens(f.qm, "wifi"))
	}
	want := keysOf(f.allowedIDs(t))
	if !equalIDs(idsOf(res, 0), want) {
		t.Fatal("post-regeneration result diverges from ground truth")
	}
	// A policy for an unrelated querier must not invalidate.
	other := newPolicy(5, 101)
	other.Querier = "someone-else"
	if err := f.m.AddPolicy(other); err != nil {
		t.Fatal(err)
	}
	if _, valid := boundIDs(f.m, f.qm); !valid {
		t.Fatal("unrelated policy invalidated the claim")
	}
}

func TestOptimalKFormula(t *testing.T) {
	// Eq. 19: k̃ = sqrt(4·CG/(ρ·α·ce·rpq)).
	got := OptimalK(1000, 50, 0.5, 2, 4)
	want := math.Sqrt(4 * 1000 / (50 * 0.5 * 2 * 4))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("OptimalK = %v, want %v", got, want)
	}
	if OptimalK(1000, 0, 0.5, 2, 4) != 1 {
		t.Error("degenerate denominator must fall back to 1")
	}
}

// TestEq19MinimisesTotalCost checks numerically that k̃ minimises the §6
// total cost N/k·(Σ query-eval + CG) over integer k, using the paper's
// uniformity assumptions (Eq. 16–18).
func TestEq19MinimisesTotalCost(t *testing.T) {
	const (
		cg    = 5000.0
		rho   = 40.0
		alpha = 0.6
		ce    = 1.5
		cr    = 4.0
		rpq   = 2.0
		nIns  = 400
		pn    = 100.0
		q     = 3.0
	)
	total := func(k int) float64 {
		// Per interval of k insertions (Eq. 17/18): queries see Pn + j
		// policies for j = 0..k-1, rpq queries per insertion.
		evalCost := float64(k)*rpq*rho*cr +
			rpq*rho*ce*alpha*(float64(k)*q+float64(k)*pn+float64(k)*(float64(k)-1)/2)
		return float64(nIns) / float64(k) * (evalCost + cg)
	}
	kOpt := OptimalK(cg, rho, alpha, ce, rpq)
	bestK, bestCost := 1, math.Inf(1)
	for k := 1; k <= nIns; k++ {
		if c := total(k); c < bestCost {
			bestK, bestCost = k, c
		}
	}
	// The paper derives k̃ under simplifying assumptions and states it is
	// an upper bound on the optimal insertion count (§6.2). Check both the
	// bound and near-optimality of the total cost at k̃ (the cost curve is
	// flat around its minimum).
	if kOpt+1e-9 < float64(bestK) {
		t.Fatalf("Eq.19 k̃ = %.2f below numeric optimum %d", kOpt, bestK)
	}
	atK := total(int(math.Round(kOpt)))
	if atK > 1.15*bestCost {
		t.Fatalf("total(k̃)=%.1f more than 15%% above optimum %.1f (k*=%d, k̃=%.1f)",
			atK, bestCost, bestK, kOpt)
	}
}

func TestInvalidateAllForcesRegeneration(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 15)
	if _, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll); err != nil {
		t.Fatal(err)
	}
	before := f.m.Regens(f.qm, "wifi")
	f.m.InvalidateAll()
	if _, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll); err != nil {
		t.Fatal(err)
	}
	if got := f.m.Regens(f.qm, "wifi"); got != before+1 {
		t.Fatalf("regens = %d, want %d", got, before+1)
	}
}
