package core

import (
	"fmt"
	"slices"
	"strings"

	"github.com/sieve-db/sieve/internal/policy"
)

// This file implements signature-shared guard states and scoped
// invalidation. The middleware separates WHO asks (a claim, one per
// (querier, purpose, relation)) from WHAT they are allowed to see (a
// geState, one per distinct applicable policy set per relation). Queriers
// whose metadata resolves to the same canonical policy-id set — the
// *signature* — share a single generated guarded expression, one set of Δ
// check sets, and (through the plan tokens below) one rewritten plan per
// prepared statement. Policy churn invalidates only the claims registered
// under the affected (relation, principal) scope, so an AddPolicy for one
// tenant leaves every other tenant's guards and prepared plans untouched.

// relPrincipal is one invalidation scope: a policy naming this
// (relation, principal) pair can change the signatures of exactly the
// claims registered under it (the principal is the claim's querier or one
// of its groups).
type relPrincipal struct {
	relation  string
	principal string
}

// stateKey buckets shared guard states by (relation, signature hash).
// Buckets hold slices because a 64-bit hash is an index, not an identity:
// lookup always verifies the full id set before sharing a state — serving
// another signature's guards on a hash collision would be a policy breach.
type stateKey struct {
	relation string
	hash     uint64
}

// claim is one (querier, purpose, relation) binding onto a shared guard
// state. All fields are guarded by Middleware.mu.
type claim struct {
	key   geKey
	state *geState
	// valid means state (plus pendingIDs) reflects the store: the claim's
	// resolution can be served without consulting the policy store.
	valid bool
	// forceRegen overrides §6 deferral: set on revocation (and
	// InvalidateAll), which appended arms cannot compensate.
	forceRegen bool
	// pendingIDs are policies inserted since state was generated, served
	// as appended owner arms under §6 deferred regeneration.
	pendingIDs []int64
	// gens counts how many distinct guard generations this claim has been
	// bound to (Regens reports it).
	gens int
	// principals are the invalidation scopes the claim registered under.
	principals []relPrincipal
}

// cacheStats holds the middleware-wide signature-sharing counters.
// Atomics: the plan counters are bumped from Stmt without m.mu.
type cacheStats struct {
	guardHits           int64
	guardMisses         int64
	guardRegens         int64
	guardPatches        int64
	guardShares         int64
	scopedInvalidations int64
	claimsInvalidated   int64
}

// CacheStats is a snapshot of the middleware's cache-effectiveness
// counters (exposed via /metrics, sieve-explain, and the experiments).
type CacheStats struct {
	// GuardCacheHits / GuardCacheMisses count claim resolutions served
	// from a valid claim vs. resolutions that had to consult the store.
	GuardCacheHits   int64 `json:"guard_cache_hits"`
	GuardCacheMisses int64 `json:"guard_cache_misses"`
	// GuardRegens counts guard generations actually performed;
	// GuardShares counts claim (re)bindings onto an existing shared state
	// — work the signature avoided.
	GuardRegens int64 `json:"guard_regens"`
	GuardShares int64 `json:"guard_shares"`
	// GuardPatches counts the generations among GuardRegens that patched
	// a nearby state's expression (guard.Patch) instead of running the §4
	// pipeline in full.
	GuardPatches int64 `json:"guard_patches"`
	// GuardStates / Claims are gauges: distinct live guard generations vs.
	// (querier, purpose, relation) bindings onto them. States = O(distinct
	// policy profiles), claims = O(queriers).
	GuardStates int64 `json:"guard_states"`
	Claims      int64 `json:"claims"`
	// ScopedInvalidations counts churn events (insert/revoke/invalidate);
	// ClaimsInvalidated counts claims actually flagged across them. Their
	// ratio is the blast radius per churn event.
	ScopedInvalidations int64 `json:"scoped_invalidations"`
	ClaimsInvalidated   int64 `json:"claims_invalidated"`
	// PlanCacheHits / PlanCacheMisses count prepared-statement plan
	// lookups by token (see resolutionToken).
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
}

// CacheStats snapshots the sharing counters.
func (m *Middleware) CacheStats() CacheStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	states := 0
	for _, bucket := range m.states {
		states += len(bucket)
	}
	return CacheStats{
		GuardCacheHits:      m.stats.guardHits,
		GuardCacheMisses:    m.stats.guardMisses,
		GuardRegens:         m.stats.guardRegens,
		GuardShares:         m.stats.guardShares,
		GuardPatches:        m.stats.guardPatches,
		GuardStates:         int64(states),
		Claims:              int64(len(m.claims)),
		ScopedInvalidations: m.stats.scopedInvalidations,
		ClaimsInvalidated:   m.stats.claimsInvalidated,
		PlanCacheHits:       m.planHits.Load(),
		PlanCacheMisses:     m.planMisses.Load(),
	}
}

// policyIDs extracts the canonical signature id list from a PoliciesFor
// result (already sorted by id — policy.Sort's order).
func policyIDs(ps []*policy.Policy) []int64 {
	ids := make([]int64, len(ps))
	for i, p := range ps {
		ids[i] = p.ID
	}
	return ids
}

// signatureHash folds a sorted policy-id list with FNV-64a over each id's
// little-endian bytes, inline: no hash.Hash, no allocation.
func signatureHash(ids []int64) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, id := range ids {
		v := uint64(id)
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= prime64
		}
	}
	return h
}

// diffSuperset returns newIDs \ oldIDs when oldIDs ⊆ newIDs (both sorted).
// ok is false when the change is not insert-only — a shrink cannot be
// expressed as appended arms and must regenerate.
func diffSuperset(newIDs, oldIDs []int64) (pending []int64, ok bool) {
	i, j := 0, 0
	for i < len(newIDs) && j < len(oldIDs) {
		switch {
		case newIDs[i] == oldIDs[j]:
			i++
			j++
		case newIDs[i] < oldIDs[j]:
			pending = append(pending, newIDs[i])
			i++
		default:
			return nil, false
		}
	}
	if j < len(oldIDs) {
		return nil, false
	}
	pending = append(pending, newIDs[i:]...)
	return pending, true
}

// principalsFor lists the invalidation scopes a claim depends on: its own
// querier plus each group the querier belongs to, all on the claim's
// relation. Resolved with the middleware-wide group resolver at claim
// creation; group-membership changes still require InvalidateAll (see the
// Session doc).
func (m *Middleware) principalsFor(key geKey) []relPrincipal {
	out := []relPrincipal{{relation: key.relation, principal: key.querier}}
	for _, g := range m.groups.GroupsOf(key.querier) {
		out = append(out, relPrincipal{relation: key.relation, principal: g})
	}
	return out
}

func (m *Middleware) registerClaimLocked(c *claim) {
	c.principals = m.principalsFor(c.key)
	for _, rp := range c.principals {
		set := m.byPrincipal[rp]
		if set == nil {
			set = make(map[*claim]struct{})
			m.byPrincipal[rp] = set
		}
		set[c] = struct{}{}
	}
}

func (m *Middleware) unregisterClaimLocked(c *claim) {
	for _, rp := range c.principals {
		if set := m.byPrincipal[rp]; set != nil {
			delete(set, c)
			if len(set) == 0 {
				delete(m.byPrincipal, rp)
			}
		}
	}
}

// invalidateClaimLocked flags a claim for re-resolution on its next query.
func (m *Middleware) invalidateClaimLocked(c *claim, force bool) {
	if force {
		c.forceRegen = true
	}
	if !c.valid {
		return
	}
	c.valid = false
	m.stats.claimsInvalidated++
}

// lookupStateLocked finds a live shared state for the exact id set.
func (m *Middleware) lookupStateLocked(sk stateKey, ids []int64) *geState {
	for _, st := range m.states[sk] {
		if slices.Equal(st.ids, ids) {
			return st
		}
	}
	return nil
}

// bindClaimLocked points a claim at a (possibly shared) state. gens
// advances only when the generation actually changed, so a spurious
// invalidation that re-resolves to the same signature keeps Regens flat.
func (m *Middleware) bindClaimLocked(c *claim, st *geState, shared bool) {
	if c.state != st {
		m.unbindClaimLocked(c)
		if st.claims == nil {
			st.claims = make(map[*claim]struct{})
		}
		st.claims[c] = struct{}{}
		c.state = st
		c.gens++
		if shared {
			m.stats.guardShares++
		}
	}
	c.valid = true
	c.forceRegen = false
	c.pendingIDs = nil
}

// unbindClaimLocked detaches a claim from its state, and retires the state
// by the event that superseded it: with no valid claim left on it, nobody
// can be served from it again without re-resolving, and the first claim to
// re-resolve elsewhere is the proof that its signature moved. Retiring it
// then, not when its last claim happens to read again, is what frees a
// written group's old expression after one read instead of one per member;
// if a straggler still resolves to the old set it pays one regeneration.
// Under a §6 regeneration interval an invalid claim's state is the base of
// its pending arms, so there a state lives until its last claim leaves.
func (m *Middleware) unbindClaimLocked(c *claim) {
	st := c.state
	if st == nil {
		return
	}
	c.state = nil
	delete(st.claims, c)
	for other := range st.claims {
		if other.valid || !m.eagerRegen {
			return
		}
	}
	m.removeStateLocked(st)
}

// removeStateLocked retires a shared state: it leaves the signature
// index (so it can never be re-bound), its Δ check sets and its engine
// filter registration are dropped, and every claim still bound to it is
// force-invalidated and unbound — they re-resolve on their next query, and a
// retired state's expression, arm ASTs and compiled filter are pinned by
// nothing but the plans a Stmt has yet to sweep.
func (m *Middleware) removeStateLocked(st *geState) {
	if st.gone.Swap(true) {
		return
	}
	st.filter.Load().Release()
	sk := stateKey{relation: st.relation, hash: st.hash}
	if bucket := slices.DeleteFunc(m.states[sk], func(o *geState) bool { return o == st }); len(bucket) == 0 {
		delete(m.states, sk)
	} else {
		m.states[sk] = bucket
	}
	m.dropCheckSetsLocked(st.setIDs)
	for c := range st.claims {
		m.invalidateClaimLocked(c, true)
		c.state = nil
	}
	st.claims = nil
}

// maxClaims bounds the claim index. Claims are small (a key, a pointer,
// a few ids), so the cap is generous; past it, invalid claims are evicted
// first. Evicting a claim only costs a re-resolution on its next query.
const maxClaims = 1 << 17

func (m *Middleware) evictClaimsLocked(keep *claim) {
	for _, validToo := range []bool{false, true} {
		for k, c := range m.claims {
			if len(m.claims) <= maxClaims {
				return
			}
			if c != keep && (validToo || !c.valid) {
				delete(m.claims, k)
				m.unregisterClaimLocked(c)
				m.unbindClaimLocked(c)
			}
		}
	}
}

// pendingPoliciesLocked resolves a claim's pending ids to policies for
// appended owner arms. The ids came from PoliciesFor, so they are already
// allow-policies on the claim's relation; ByID can only thin the list if
// a revocation raced in — and that revocation also invalidated the claim.
func (m *Middleware) pendingPoliciesLocked(c *claim) []*policy.Policy {
	if len(c.pendingIDs) == 0 {
		return nil
	}
	out := make([]*policy.Policy, 0, len(c.pendingIDs))
	for _, id := range c.pendingIDs {
		if p, ok := m.store.ByID(id); ok && p.Action == policy.Allow && p.Relation == c.key.relation {
			out = append(out, p)
		}
	}
	return out
}

// Signature returns the canonical policy-set signature of the claim's
// current guard state for display ("" when the claim has no state yet).
func (st *geState) signature() string {
	return fmt.Sprintf("%016x", st.hash)
}

// resolutionToken is a prepared statement's plan-cache key for one
// resolution: "relation=stateID[,pendingID...];" per protected relation.
// The token IS the validation — any policy churn that could change this
// (querier, purpose)'s rewrite replaces a state (fresh stateID) or grows
// the pending set, producing a different token, so a cached plan is never
// served stale; and churn that leaves the signature untouched leaves the
// token untouched, so unrelated plans survive. Queriers sharing a
// signature produce identical tokens and share one plan per statement.
func resolutionToken(res []resolution) string {
	var tok strings.Builder
	for _, r := range res {
		fmt.Fprintf(&tok, "%s=%d", r.relation, r.state.stateID)
		for _, p := range r.pending {
			fmt.Fprintf(&tok, ",%d", p.ID)
		}
		tok.WriteByte(';')
	}
	return tok.String()
}
