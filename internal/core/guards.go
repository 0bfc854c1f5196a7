package core

import (
	"fmt"
	"slices"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/guard"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// resolution is one protected relation's guard state as one query sees it:
// the claim's shared state and whether the claim was served from the cache.
// A query resolves each of its protected relations once; its plan token, its
// rewrite and its cache counters all read that one resolution.
type resolution struct {
	relation string
	state    *geState
	hit      bool
}

// resolve keeps the protected relations among tables (distinct, in the
// order the rewrite visits them) and resolves the querier's claim on each,
// applying the §5.1/§6 freshness rules through the signature-sharing cache,
// in one m.mu critical section — which a generation inside
// resolveClaimLocked releases and retakes. That is all a plan token's
// soundness asks: each resolution names a state only when the
// querier's applicable set on that relation is exactly those policies.
func (m *Middleware) resolve(qm policy.Metadata, tables []string) ([]resolution, error) {
	if qm.Querier == "" {
		return nil, fmt.Errorf("sieve: query metadata must identify the querier")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []resolution
	for _, rel := range tables {
		if !m.protected[rel] {
			continue
		}
		st, hit, err := m.resolveClaimLocked(geKey{querier: qm.Querier, purpose: qm.Purpose, relation: rel})
		if err != nil {
			return nil, err
		}
		out = append(out, resolution{relation: rel, state: st, hit: hit})
	}
	return out, nil
}

// countHits splits a query's resolutions into guard-cache hits and misses.
func countHits(res []resolution) (hits, misses int) {
	for _, r := range res {
		if r.hit {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}

// resolveClaimLocked is the heart of signature sharing. The caller holds
// m.mu and holds it again on return, but a generation releases it in
// between.
//
//   - valid claim → serve its state with no store access at all;
//   - invalid but exact claim → derive its applicable set from the state it
//     was last bound to plus the policy writes to its scopes since
//     (derivedSet); if a live state has exactly that set, bind it, again
//     with no store access: one member of a written group reads the store
//     and builds, the others find its state;
//   - otherwise → recompute the applicable policy set, and in signature
//     order: share an existing state generated for the exact same id set;
//     else build a fresh state for the signature — patched from a nearby
//     state while its drift stays within k̃ (choosePatchBaseLocked),
//     generated in full otherwise — outside m.mu, once: the first reader to
//     miss registers the signature in m.flights and builds; readers of the
//     same signature wait for it and then share; readers of every other
//     signature never wait.
//
// One invariant carries the safety of all of it: a state is bound to a claim
// only if, under m.mu at bind time, the claim's applicable id set equals the
// state's ids — read from PoliciesFor, or derived from an exact claim. The
// derived set rests on what serving a valid claim already rests on: every
// policy write to a claim's scopes reaches it under m.mu, here carrying the
// id it adds or removes. So every pass through the lock derives or reads
// the set again — after waiting, and after generating: a policy write that
// lands while the state is being built cannot find it in m.states, so
// neither RevokePolicy's sweep nor the insert trigger protects it. A state
// generated for a set that has moved on is dropped unpublished, and its
// engine registration is released there.
//
// The corpus is always filtered with the middleware-wide group resolver:
// states are shared across sessions, so a session's pinned older
// resolution must never populate them.
func (m *Middleware) resolveClaimLocked(key geKey) (*geState, bool, error) {
	if c := m.claims[key]; c != nil && c.valid {
		m.stats.guardHits++
		return c.state, true, nil
	}
	m.stats.guardMisses++
	var fresh *geState // generated by this call, not yet published
	readStore := false
	policiesFor := func() []*policy.Policy {
		readStore = true
		if m.hookStoreRead != nil {
			m.hookStoreRead()
		}
		return m.store.PoliciesFor(policy.Metadata{Querier: key.querier, Purpose: key.purpose}, key.relation, m.groups)
	}
	for {
		c := m.claims[key]
		if c == nil {
			c = &claim{key: key}
			m.claims[key] = c
			m.registerClaimLocked(c)
			m.evictClaimsLocked(c)
		}
		// d is the claim's applicable set: derived while the claim is
		// exact, else read from the store (ps) with nothing to net out.
		var d derivedSet
		var ps []*policy.Policy
		if c.exact {
			d.load(c)
		} else {
			ps = policiesFor()
			d.base = policyIDs(ps)
			d.hash = signatureHash(d.base)
		}
		sk := stateKey{relation: key.relation, hash: d.hash}
		st := m.lookupStateLocked(sk, &d)
		shared := st != nil
		if fresh != nil {
			// Publish it unless the set moved on while it was built.
			if !shared && d.equals(fresh.ids) {
				m.publishStateLocked(fresh)
				st = fresh
			} else {
				fresh.filter.Release()
			}
			fresh = nil
		}
		if st != nil {
			m.bindClaimLocked(c, st, shared)
			if !readStore {
				m.stats.claimsDerived++
			}
			return st, false, nil
		}
		if done := m.flights[sk]; done != nil {
			// Someone is generating this signature (or, at 2⁻⁶⁴, one that
			// hashes like it): wait, then resolve again.
			m.mu.Unlock()
			<-done
			m.mu.Lock()
			continue
		}
		ids := d.base
		if c.exact {
			// No live state has the derived set, so this call builds one,
			// from the store's policies. The store is the authority: a
			// derived set that disagrees with it ends the claim's chain.
			ps = policiesFor()
			if ids = policyIDs(ps); !d.equals(ids) {
				c.inexact()
				continue
			}
		}
		base := m.choosePatchBaseLocked(c, ids)
		done := make(chan struct{})
		m.flights[sk] = done
		m.mu.Unlock()
		var err error
		fresh, err = m.buildState(key, ps, ids, sk.hash, base)
		m.mu.Lock()
		delete(m.flights, sk)
		close(done)
		if err != nil {
			return nil, false, err
		}
		m.stats.guardRegens++
		if base != nil {
			m.stats.guardPatches++
		}
	}
}

// buildState builds a new state for a signature, whole: patched from base
// (guard.Patch, which walks the difference between base.ids and ids — both
// in id order, as PoliciesFor returns ps) when there is one, generated by
// the full §4 pipeline when base is nil; then every guard's arm, the
// arms' disjunction with its engine registration, and the guards' zone
// arms. A guard the patch kept unchanged has its base's partition, so it
// takes its base's arm, inline or Δ, AST and all; every other guard whose
// partition exceeds the Δ threshold (§5.4) gets a Δ call and check set of
// its own, and the rest are inlined: the guard predicate conjoined with the
// policy partition. It runs outside m.mu; the state is visible to nobody
// until publishStateLocked, and one dropped unpublished is released where
// it is dropped (resolveClaimLocked), its check sets going with its arms.
// key only names the claim the expression is built for
// (ge.Querier/Purpose); the state itself is keyed by signature.
//
// The arms are shared read-only by every statement rewritten over the
// state: nothing downstream of the rewrite changes an expression in place,
// and the rewrite redirects only the references its EXPLAIN listed before
// any arm was prepended. A subquery in an arm (a derived-value condition)
// therefore reads base relations, as the Δ UDF's checks do. A disjunction
// of arms is registered with the engine as a shared filter, so the engine
// compiles it once per state rather than once per execution.
func (m *Middleware) buildState(key geKey, ps []*policy.Policy, ids []int64, hash uint64, base *patchBase) (*geState, error) {
	sel, err := m.selectivityFor(key.relation)
	if err != nil {
		return nil, err
	}
	st := &geState{relation: key.relation, ids: ids, hash: hash}
	var from []int
	if base != nil {
		st.ge, from, err = guard.Patch(base.ge, base.ids, ps, ids, sel, m.cm)
		if err != nil {
			return nil, err
		}
		st.ge.Querier, st.ge.Purpose = key.querier, key.purpose
		st.drift = base.drift + idsDistance(base.ids, ids)
	} else if st.ge, err = guard.GenerateWithOptions(ps, key.relation, key.querier, key.purpose, sel, m.cm, m.genOpts); err != nil {
		return nil, err
	}
	st.arms = make([]engine.GuardArm, len(st.ge.Guards))
	st.zoneArms = make([]storage.ZoneArm, len(st.ge.Guards))
	exprs := make([]sqlparser.Expr, len(st.ge.Guards))
	for gi := range st.ge.Guards {
		g := &st.ge.Guards[gi]
		switch {
		case base != nil && from[gi] >= 0:
			st.arms[gi] = base.arms[from[gi]]
		case m.deltaThreshold > 0 && len(g.Policies) > m.deltaThreshold:
			call, err := m.newDeltaCall(g.Policies, st.relation, st.relation)
			if err != nil {
				return nil, err
			}
			st.arms[gi] = engine.GuardArm{Col: g.Cond.Attr, Expr: sqlparser.And(g.Expr(st.relation), call), Delta: true}
		default:
			st.arms[gi] = engine.GuardArm{Col: g.Cond.Attr, Expr: sqlparser.And(g.Expr(st.relation), g.PartitionExpr(st.relation))}
		}
		exprs[gi] = st.arms[gi].Expr
		// An interval-free guard keeps its NULL (unbounded) bounds: it may
		// match anywhere.
		st.zoneArms[gi] = storage.ZoneArm{Col: g.Cond.Attr}
		if lo, hi, ok := g.Cond.Interval(); ok {
			st.zoneArms[gi].Lo, st.zoneArms[gi].Hi = lo, hi
		}
	}
	st.guardOr = sqlparser.Or(exprs...)
	if len(exprs) > 1 {
		st.filter = m.db.ShareFilter(st.relation, st.guardOr)
	}
	if m.hookGenerated != nil {
		m.hookGenerated()
	}
	return st, nil
}

// publishStateLocked makes a generated state shareable: a generation token
// and its place in the signature index. Caller holds m.mu.
func (m *Middleware) publishStateLocked(st *geState) {
	m.nextStateID++
	st.stateID = m.nextStateID
	sk := stateKey{relation: st.relation, hash: st.hash}
	m.states[sk] = append(m.states[sk], st)
}

// InvalidateAll retires every shared guard state and force-invalidates
// every claim; mainly for tests, administrative resets, and
// group-membership changes (the scoped index is built from membership at
// claim-creation time).
func (m *Middleware) InvalidateAll() {
	defer m.epoch.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.scopedInvalidations++
	clear(m.patchBases)
	for _, bucket := range m.states {
		for _, st := range slices.Clone(bucket) {
			m.removeStateLocked(st)
		}
	}
	for _, c := range m.claims {
		c.inexact()
		m.invalidateClaimLocked(c)
	}
}

// GuardedExpression exposes the key's current guarded expression for
// inspection (experiments, cmd/sieve-explain). It does not trigger
// regeneration. The expression may be shared: its Querier/Purpose fields
// name the claim that generated it, not necessarily the one asking.
func (m *Middleware) GuardedExpression(qm policy.Metadata, relation string) (*guard.GuardedExpression, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.claims[geKey{querier: qm.Querier, purpose: qm.Purpose, relation: relation}]
	if !ok || c.state == nil {
		return nil, false
	}
	return c.state.ge, true
}

// Regens reports how many distinct guard generations the key has been
// bound to — shared bindings count once, so queriers riding an existing
// signature see 1 without having paid a generation.
func (m *Middleware) Regens(qm policy.Metadata, relation string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.claims[geKey{querier: qm.Querier, purpose: qm.Purpose, relation: relation}]
	if !ok {
		return 0
	}
	return c.gens
}
