package core

import (
	"math"

	"github.com/sieve-db/sieve/internal/guard"
	"github.com/sieve-db/sieve/internal/policy"
)

// RegenConfig parameterises the §6 deferred-regeneration mode.
type RegenConfig struct {
	// CG is the guard-generation cost in the cost model's tuple units
	// (§6.2 treats it as a constant dominated by |Pn|).
	CG float64
	// Rpq is r_q/r_p: queries posed per policy insertion.
	Rpq float64
	// MinK and MaxK clamp the computed k̃ to a sane operational range.
	MinK, MaxK int
}

// DefaultRegenConfig mirrors a workload with one query per policy
// insertion and a guard-generation cost of ~10k tuple-reads.
func DefaultRegenConfig() RegenConfig {
	return RegenConfig{CG: 10_000, Rpq: 1, MinK: 1, MaxK: 10_000}
}

// OptimalK computes k̃ = sqrt(4·CG / (ρ(oc_G)·α·ce·r_pq)) (Eq. 19): the
// optimal number of policy insertions between guard regenerations. rho is
// the guard cardinality in tuples.
func OptimalK(cg, rho, alpha, ce, rpq float64) float64 {
	den := rho * alpha * ce * rpq
	if den <= 0 {
		return 1
	}
	return math.Sqrt(4 * cg / den)
}

// optimalK instantiates Eq. 19 for a cached expression: ρ(oc_G) is the
// average guard cardinality of the current expression. Caller holds m.mu.
func (m *Middleware) optimalK(ge *guard.GuardedExpression) int {
	rows := 0
	if t, ok := m.db.Table(ge.Relation); ok {
		rows = t.NumRows()
	}
	rho := 0.0
	if n := len(ge.Guards); n > 0 {
		rho = ge.TotalSel() / float64(n) * float64(rows)
	}
	if rho < 1 {
		rho = 1
	}
	k := OptimalK(m.regen.CG, rho, m.cm.Alpha, m.cm.Ce, m.regen.Rpq)
	ki := int(math.Ceil(k))
	if ki < m.regen.MinK {
		ki = m.regen.MinK
	}
	if m.regen.MaxK > 0 && ki > m.regen.MaxK {
		ki = m.regen.MaxK
	}
	return ki
}

// PendingPolicies reports how many policies are queued against the key's
// guard state awaiting regeneration. For an invalidated claim the delta
// is computed on demand against the store (pending ids are no longer
// accumulated by the trigger — invalidation is just a flag), so the count
// reflects exactly the insert-only difference a §6 deferral would append.
func (m *Middleware) PendingPolicies(qm policy.Metadata, relation string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.claims[geKey{querier: qm.Querier, purpose: qm.Purpose, relation: relation}]
	if !ok || c.state == nil {
		return 0
	}
	if c.valid {
		return len(c.pendingIDs)
	}
	if c.forceRegen {
		return 0
	}
	ps := m.store.PoliciesFor(policy.Metadata{Querier: qm.Querier, Purpose: qm.Purpose}, relation, m.groups)
	pend, ok := diffSuperset(policyIDs(ps), c.state.ids)
	if !ok {
		return 0
	}
	return len(pend)
}
