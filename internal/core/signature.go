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
	// valid means state reflects the store: the claim's resolution can be
	// served without consulting the policy store.
	valid bool
	// gens counts how many distinct guard generations this claim has been
	// bound to (Regens reports it).
	gens int
	// principals are the invalidation scopes the claim registered under.
	principals []relPrincipal
	// ids and hash are the signature of the state the claim was last bound
	// to (that state's own slice), kept when the state retires. While the
	// claim is exact, deltas holds one entry per policy write to its scopes
	// since that bind that changed its applicable set: +id for a policy
	// that joined it, −id for one that left. The set is then ids with the
	// deltas applied (derivedSet), and a re-resolution that finds a live
	// state for it needs no store read. A bind makes a claim exact; an
	// invalidation the deltas cannot account for ends it (inexact) and
	// drops ids.
	ids    []int64
	hash   uint64
	exact  bool
	deltas []int64
}

// maxClaimDeltas caps a claim's delta chain: a claim written to more often
// than this between two reads re-reads the store instead.
const maxClaimDeltas = 8

// noteDelta records a policy write that changed c's applicable set: +id
// for a policy that joined it, −id for one that left.
func (c *claim) noteDelta(d int64) {
	if !c.exact {
		return
	}
	if len(c.deltas) == maxClaimDeltas {
		c.inexact()
		return
	}
	c.deltas = append(c.deltas, d)
}

// inexact marks c's deltas as no longer accounting for every change to its
// applicable set since its last bind: its next resolution reads the store.
// It drops its last ids, which only derivation reads, so they no longer
// pin a retired state's slice.
func (c *claim) inexact() {
	c.exact = false
	c.ids = nil
	c.deltas = c.deltas[:0]
}

// derivedSet is a claim's applicable set as base − rems + adds: for an
// exact claim, the ids of its last bound state with its deltas netted out
// (load); for any other, the store's ids with nothing to net. rems ⊆ base
// and adds ∩ base = ∅, both sorted; hash is the set's signatureHash. Fixed
// arrays keep it, and so a derived resolution, off the heap.
type derivedSet struct {
	base       []int64
	hash       uint64
	adds, rems [maxClaimDeltas]int64
	nAdd, nRem int
}

// load nets c's deltas against its last bound ids. A revocation is final:
// an id once removed is never re-added, since policy ids are not reused.
func (d *derivedSet) load(c *claim) {
	d.base, d.nAdd, d.nRem = c.ids, 0, 0
	for _, v := range c.deltas {
		id := max(v, -v)
		_, inBase := slices.BinarySearch(d.base, id)
		ai, inAdds := slices.BinarySearch(d.adds[:d.nAdd], id)
		switch {
		case v > 0 && !inBase && !inAdds:
			d.nAdd = len(slices.Insert(d.adds[:d.nAdd], ai, id))
		case v < 0 && inAdds:
			d.nAdd = len(slices.Delete(d.adds[:d.nAdd], ai, ai+1))
		case v < 0 && inBase:
			if ri, found := slices.BinarySearch(d.rems[:d.nRem], id); !found {
				d.nRem = len(slices.Insert(d.rems[:d.nRem], ri, id))
			}
		}
	}
	d.hash = c.hash
	for _, id := range d.adds[:d.nAdd] {
		d.hash += mix(uint64(id))
	}
	for _, id := range d.rems[:d.nRem] {
		d.hash -= mix(uint64(id))
	}
}

// equals reports whether ids (sorted) is exactly d's set, by one merge walk
// over base and adds that skips rems and allocates nothing.
func (d *derivedSet) equals(ids []int64) bool {
	if len(ids) != len(d.base)-d.nRem+d.nAdd {
		return false
	}
	adds, rems := d.adds[:d.nAdd], d.rems[:d.nRem]
	b, a, r, j := 0, 0, 0, 0
	for b < len(d.base) || a < len(adds) {
		var x int64
		if a < len(adds) && (b == len(d.base) || adds[a] < d.base[b]) {
			x = adds[a]
			a++
		} else {
			x = d.base[b]
			b++
			if r < len(rems) && rems[r] == x {
				r++
				continue
			}
		}
		if ids[j] != x {
			return false
		}
		j++
	}
	return true
}

// cacheStats holds the middleware-wide signature-sharing counters.
// Atomics: the plan counters are bumped from Stmt without m.mu.
type cacheStats struct {
	guardHits           int64
	guardMisses         int64
	guardRegens         int64
	guardPatches        int64
	claimsDerived       int64
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
	// ClaimsDerived counts the misses among GuardCacheMisses served without
	// a store read: the claim's signature derived from its last one plus
	// the policy writes since, and a live state found for it.
	ClaimsDerived int64 `json:"claims_derived"`
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
		ClaimsDerived:       m.stats.claimsDerived,
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

// signatureHash is a set hash of a policy-id list: the sum of mix over its
// ids. It ignores order, and adding or removing one id moves it by that
// id's mix, so a claim's derived signature is hashed in O(deltas)
// (derivedSet.load). It allocates nothing.
func signatureHash(ids []int64) uint64 {
	var h uint64
	for _, id := range ids {
		h += mix(uint64(id))
	}
	return h
}

// mix is splitmix64's finaliser: a bijection on 64 bits whose every output
// bit depends on every input bit.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
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
func (m *Middleware) invalidateClaimLocked(c *claim) {
	if !c.valid {
		return
	}
	c.valid = false
	m.stats.claimsInvalidated++
}

// lookupStateLocked finds a live shared state for exactly d's set.
func (m *Middleware) lookupStateLocked(sk stateKey, d *derivedSet) *geState {
	for _, st := range m.states[sk] {
		if d.equals(st.ids) {
			return st
		}
	}
	return nil
}

// bindClaimLocked points a claim at a (possibly shared) state whose ids are
// the claim's applicable set, and makes the claim exact from there. gens
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
	c.ids, c.hash, c.exact = st.ids, st.hash, true
	c.deltas = c.deltas[:0]
	m.releasePatchBasesLocked(c)
}

// unbindClaimLocked detaches a claim from its state, and retires the state
// by the event that superseded it: with no valid claim left on it, nobody
// can be served from it again without re-resolving, and the first claim to
// re-resolve elsewhere is the proof that its signature moved. Retiring it
// then, not when its last claim happens to read again, is what frees a
// written group's old expression after one read instead of one per member;
// if a straggler still resolves to the old set it pays one regeneration.
func (m *Middleware) unbindClaimLocked(c *claim) {
	st := c.state
	if st == nil {
		return
	}
	c.state = nil
	delete(st.claims, c)
	for other := range st.claims {
		if other.valid {
			return
		}
	}
	m.removeStateLocked(st)
}

// removeStateLocked retires a shared state: it leaves the signature
// index (so it can never be re-bound), its engine filter registration is
// dropped, and every claim still bound to it is invalidated and unbound —
// they re-resolve on their next query. A retired state's expression, arm
// ASTs (Δ calls and their check sets with them) and compiled filter stay
// reachable from the plans a Stmt has yet to sweep and from the executions
// still open over it, which therefore return the rows of the state they
// resolved; its expression and arms also from a written scope's patch-base
// record, until every claim under that scope has rebound
// (releasePatchBasesLocked). A claim still valid on it saw no delta for
// what retired it, so it stops being exact.
func (m *Middleware) removeStateLocked(st *geState) {
	if st.gone.Swap(true) {
		return
	}
	st.filter.Release()
	sk := stateKey{relation: st.relation, hash: st.hash}
	if bucket := slices.DeleteFunc(m.states[sk], func(o *geState) bool { return o == st }); len(bucket) == 0 {
		delete(m.states, sk)
	} else {
		m.states[sk] = bucket
	}
	for c := range st.claims {
		if c.valid {
			c.inexact()
		}
		m.invalidateClaimLocked(c)
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
				c.inexact()
				m.unregisterClaimLocked(c)
				m.unbindClaimLocked(c)
			}
		}
	}
}

// signature renders the state's policy-set signature for display: its set
// hash as 16 hex digits.
func (st *geState) signature() string {
	return fmt.Sprintf("%016x", st.hash)
}

// resolutionToken is a prepared statement's plan-cache key for one
// resolution: "relation=stateID;" per protected relation. The token IS the
// validation — any policy churn that could change this (querier, purpose)'s
// rewrite replaces a state (fresh stateID), producing a different token, so
// a cached plan is never served stale; and churn that leaves the signature
// untouched leaves the token untouched, so unrelated plans survive. Queriers
// sharing a signature produce identical tokens and share one plan per
// statement.
func resolutionToken(res []resolution) string {
	var tok strings.Builder
	for _, r := range res {
		fmt.Fprintf(&tok, "%s=%d;", r.relation, r.state.stateID)
	}
	return tok.String()
}
