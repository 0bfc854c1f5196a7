package core

import (
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/guard"
)

// patchBase is what a patch reads of the state it starts from: its
// expression, its signature ids, its drift and its arms. A policy write records one per scope, never the geState
// itself, so a record pins an expression and its arm ASTs — the check sets
// of its Δ calls with them, which a patch may take over — but no claims or
// compiled filter.
type patchBase struct {
	ge    *guard.GuardedExpression
	ids   []int64
	drift int
	arms  []engine.GuardArm
}

// baseOf captures what a patch from st reads.
func baseOf(st *geState) *patchBase {
	return &patchBase{ge: st.ge, ids: st.ids, drift: st.drift, arms: st.arms}
}

// mostBound returns whichever of two states more claims are bound to; either
// may be nil. A policy write records the one of the states it supersedes
// that the most claims will re-resolve from.
func mostBound(a, b *geState) *geState {
	if a == nil || b != nil && len(b.claims) > len(a.claims) {
		return b
	}
	return a
}

// recordPatchBaseLocked remembers st, a state a policy write to scope rp
// supersedes, as the base the scope's claims patch their next states from.
// A scope keeps one record, the last write's, until its claims have all
// rebound; a write that supersedes no state (st nil) keeps the one before
// it. Caller holds m.mu.
func (m *Middleware) recordPatchBaseLocked(rp relPrincipal, st *geState) {
	if st != nil {
		m.patchBases[rp] = baseOf(st)
	}
}

// releasePatchBasesLocked drops the patch-base record of each of c's scopes
// under which no claim is still invalid: every claim the write invalidated
// there has rebound, so no claim will patch from the record, and keeping it
// would pin the superseded expression until the scope's next write. Caller
// holds m.mu, with c just bound.
func (m *Middleware) releasePatchBasesLocked(c *claim) {
	for _, rp := range c.principals {
		if m.patchBases[rp] == nil {
			continue
		}
		pending := false
		for other := range m.byPrincipal[rp] {
			if !other.valid {
				pending = true
				break
			}
		}
		if !pending {
			delete(m.patchBases, rp)
		}
	}
}

// choosePatchBaseLocked picks the base a claim's missing state for ids is
// patched from: the claim's own state or the record of one of its scopes,
// whichever is nearer in ids, as long as the drift it would reach stays
// within §6's k̃ (Eq. 19, optimalK). Past that bound, or with no base at
// all, it returns nil and the state is generated in full, at drift 0.
// Caller holds m.mu.
func (m *Middleware) choosePatchBaseLocked(c *claim, ids []int64) *patchBase {
	var best *patchBase
	bestDist := 0
	consider := func(b *patchBase) {
		if d := idsDistance(b.ids, ids); best == nil || d < bestDist {
			best, bestDist = b, d
		}
	}
	if c.state != nil {
		consider(baseOf(c.state))
	}
	for _, rp := range c.principals {
		if b := m.patchBases[rp]; b != nil {
			consider(b)
		}
	}
	if best == nil || best.drift+bestDist > m.optimalK(best.ge) {
		return nil
	}
	return best
}

// idsDistance is |a Δ b| for two sorted id lists.
func idsDistance(a, b []int64) int {
	i, j, d := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			d++
			i++
		default:
			d++
			j++
		}
	}
	return d + len(a) - i + len(b) - j
}
