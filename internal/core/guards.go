package core

import (
	"fmt"
	"slices"
	"sync"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/guard"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Guard persistence tables (§5.1).
const (
	TableGE = "sieve_guard_expressions" // rGE
	TableGG = "sieve_guards"            // rGG
	TableGP = "sieve_guard_policies"    // rGP
)

// guardTables wraps the three guard relations. They are the durable form
// of the middleware's guard cache, one expression per live guard state: a
// state's rows are written when it is generated and deleted when it retires,
// the rP trigger flips its outdated flag, and a fresh middleware instance
// can reload its cache from them. Rows are found through the relations'
// indexes by the expression's id, never by row id, so the heaps can be
// compacted whenever tombstones pile up.
type guardTables struct {
	ge, gg, gp *storage.Table

	// mu serialises every write to the three relations and guards the
	// fields below. It is taken without Middleware.mu on every path a
	// query runs (generation saves before it re-locks, unlock flushes
	// after it released), so table work never extends the lock readers
	// share.
	mu          sync.Mutex
	nextGEID    int64
	nextGuardID int64
	clock       int64
	// owned holds the rGE ids of this instance's states: saved here, or
	// adopted by LoadPersistedGuards. Every other row is a previous
	// instance's, replaced by the first save under its key.
	owned map[int64]bool
}

// geRef names one persisted expression: its rGE id, and the querier its row
// is indexed under.
type geRef struct {
	id      int64
	querier string
}

func (st *geState) ref() geRef { return geRef{id: st.geID, querier: st.reprKey.querier} }

func newGuardTables(db *engine.DB) (*guardTables, error) {
	gt := &guardTables{nextGEID: 1, nextGuardID: 1, owned: make(map[int64]bool)}
	if t, ok := db.Table(TableGE); ok {
		gt.ge = t
		gt.gg = db.MustTable(TableGG)
		gt.gp = db.MustTable(TableGP)
		gt.recoverCounters()
		return gt, nil
	}
	geSchema := storage.MustSchema(
		storage.Column{Name: "id", Type: storage.KindInt},
		storage.Column{Name: "querier", Type: storage.KindString},
		storage.Column{Name: "associated_table", Type: storage.KindString},
		storage.Column{Name: "purpose", Type: storage.KindString},
		storage.Column{Name: "outdated", Type: storage.KindBool},
		storage.Column{Name: "inserted_at", Type: storage.KindInt},
	)
	ggSchema := storage.MustSchema(
		storage.Column{Name: "id", Type: storage.KindInt}, // guard id (ranges span two rows)
		storage.Column{Name: "guard_expression_id", Type: storage.KindInt},
		storage.Column{Name: "attr", Type: storage.KindString},
		storage.Column{Name: "op", Type: storage.KindString},
		storage.Column{Name: "val", Type: storage.KindString},
	)
	gpSchema := storage.MustSchema(
		storage.Column{Name: "guard_id", Type: storage.KindInt},
		storage.Column{Name: "policy_id", Type: storage.KindInt},
	)
	var err error
	if gt.ge, err = db.CreateTable(TableGE, geSchema); err != nil {
		return nil, err
	}
	if gt.gg, err = db.CreateTable(TableGG, ggSchema); err != nil {
		return nil, err
	}
	if gt.gp, err = db.CreateTable(TableGP, gpSchema); err != nil {
		return nil, err
	}
	for _, idx := range []struct{ t, c string }{
		{TableGE, "querier"}, {TableGG, "guard_expression_id"}, {TableGP, "guard_id"},
	} {
		if err := db.CreateIndex(idx.t, idx.c); err != nil {
			return nil, err
		}
	}
	return gt, nil
}

func (gt *guardTables) recoverCounters() {
	gt.ge.Scan(func(_ storage.RowID, r storage.Row) bool {
		if r[0].I >= gt.nextGEID {
			gt.nextGEID = r[0].I + 1
		}
		if r[5].I > gt.clock {
			gt.clock = r[5].I
		}
		return true
	})
	gt.gg.Scan(func(_ storage.RowID, r storage.Row) bool {
		if r[0].I >= gt.nextGuardID {
			gt.nextGuardID = r[0].I + 1
		}
		return true
	})
}

// save writes a freshly generated expression and returns its rGE id. An
// expression a previous instance left under the same key is replaced.
func (gt *guardTables) save(ge *guard.GuardedExpression) (int64, error) {
	for gi := range ge.Guards {
		if k := ge.Guards[gi].Cond.Kind; k != policy.CondCompare && k != policy.CondRange {
			return 0, fmt.Errorf("sieve: unsupported guard condition kind %d", k)
		}
	}
	gt.mu.Lock()
	defer gt.mu.Unlock()
	var stale []geRef
	for _, rid := range gt.lookup(gt.ge, "querier", storage.NewString(ge.Querier)) {
		if r, ok := gt.ge.Get(rid); ok && r[2].S == ge.Relation && r[3].S == ge.Purpose && !gt.owned[r[0].I] {
			stale = append(stale, geRef{id: r[0].I, querier: ge.Querier})
		}
	}
	gt.dropLocked(stale)

	geID := gt.nextGEID
	gt.nextGEID++
	gt.clock++
	gt.owned[geID] = true
	lit := func(v storage.Value) storage.Value { return storage.NewString(sqlparser.PrintExpr(sqlparser.Lit(v))) }
	var err error
	insert := func(t *storage.Table, r storage.Row) {
		if err == nil {
			_, err = t.Insert(r)
		}
	}
	insert(gt.ge, storage.Row{
		storage.NewInt(geID), storage.NewString(ge.Querier), storage.NewString(ge.Relation),
		storage.NewString(ge.Purpose), storage.NewBool(false), storage.NewInt(gt.clock),
	})
	for gi := range ge.Guards {
		g := &ge.Guards[gi]
		head := storage.Row{storage.NewInt(gt.nextGuardID), storage.NewInt(geID), storage.NewString(g.Cond.Attr)}
		gt.nextGuardID++
		if c := g.Cond; c.Kind == policy.CondCompare {
			insert(gt.gg, append(head, storage.NewString(c.Op.String()), lit(c.Val)))
		} else {
			if !c.Lo.IsNull() {
				insert(gt.gg, append(head, storage.NewString(c.LoOp.String()), lit(c.Lo)))
			}
			if !c.Hi.IsNull() {
				insert(gt.gg, append(head, storage.NewString(c.HiOp.String()), lit(c.Hi)))
			}
		}
		for _, p := range g.Policies {
			insert(gt.gp, storage.Row{head[0], storage.NewInt(p.ID)})
		}
	}
	if err != nil {
		gt.dropLocked([]geRef{{id: geID, querier: ge.Querier}})
		return 0, err
	}
	return geID, nil
}

// lookup returns the ids of t's rows whose indexed column col equals key.
func (gt *guardTables) lookup(t *storage.Table, col string, key storage.Value) []storage.RowID {
	ids, _ := t.Lookup(nil, col, key) // newGuardTables built the index
	return ids
}

// geRowLocked finds an expression's rGE row through the querier index.
func (gt *guardTables) geRowLocked(ref geRef) (storage.RowID, bool) {
	for _, rid := range gt.lookup(gt.ge, "querier", storage.NewString(ref.querier)) {
		if r, ok := gt.ge.Get(rid); ok && r[0].I == ref.id {
			return rid, true
		}
	}
	return -1, false
}

// flush applies what a Middleware.mu critical section queued: the §5.1
// outdated flag on the expressions it invalidated, and the deletion of the
// ones it retired.
func (gt *guardTables) flush(outdated, retired []geRef) {
	if len(outdated)+len(retired) == 0 {
		return
	}
	gt.mu.Lock()
	defer gt.mu.Unlock()
	for _, ref := range outdated {
		// Two flushes are not ordered: the expression may be retired and
		// gone already.
		if rid, ok := gt.geRowLocked(ref); ok {
			r, _ := gt.ge.Get(rid)
			nr := r.Clone()
			nr[4] = storage.NewBool(true)
			_ = gt.ge.Update(rid, nr) // rid was just resolved under gt.mu, the tables' only writer
		}
	}
	gt.dropLocked(retired)
}

// dropLocked deletes the named expressions with their guards and partitions:
// rows found through the three indexes, one batched delete per relation,
// then Vacuum — nothing here holds a row id across calls — which keeps heap
// and index memory proportional to the live expressions under unbounded
// churn.
func (gt *guardTables) dropLocked(refs []geRef) {
	var geRows, ggRows, gpRows []storage.RowID
	for _, ref := range refs {
		delete(gt.owned, ref.id)
		rid, ok := gt.geRowLocked(ref)
		if !ok {
			continue // replaced by a later instance over the same database
		}
		geRows = append(geRows, rid)
		lastGuard := int64(-1)
		for _, rid := range gt.lookup(gt.gg, "guard_expression_id", storage.NewInt(ref.id)) {
			ggRows = append(ggRows, rid)
			// A range guard's two rows are adjacent: same key, insertion order.
			if r, _ := gt.gg.Get(rid); r[0].I != lastGuard {
				lastGuard = r[0].I
				gpRows = append(gpRows, gt.lookup(gt.gp, "guard_id", r[0])...)
			}
		}
	}
	for _, d := range []struct {
		t    *storage.Table
		rows []storage.RowID
	}{{gt.ge, geRows}, {gt.gg, ggRows}, {gt.gp, gpRows}} {
		if len(d.rows) > 0 {
			_ = d.t.DeleteBatch(d.rows) // live rows, each once: just read from the indexes under gt.mu
			d.t.Vacuum()
		}
	}
}

// guardedExpressionFor returns the guard state for a key, applying the
// §5.1/§6 freshness rules through the signature-sharing cache. The bool
// reports whether the resolution was a cache hit (a valid claim).
func (m *Middleware) guardedExpressionFor(qm policy.Metadata, relation string) (*geState, []*policy.Policy, bool, error) {
	m.mu.Lock()
	defer m.unlock()
	return m.resolveClaimLocked(geKey{querier: qm.Querier, purpose: qm.Purpose, relation: relation})
}

// unlock releases m.mu and then applies the persistence work the critical
// section queued. Every section that can invalidate a claim or retire a
// state ends with it.
func (m *Middleware) unlock() {
	outdated, retired := m.outdatedQ, m.retiredQ
	m.outdatedQ, m.retiredQ = nil, nil
	m.mu.Unlock()
	m.persist.flush(outdated, retired)
}

// resolveClaimLocked is the heart of signature sharing. The caller holds
// m.mu and holds it again on return, but a generation releases it in
// between.
//
//   - valid claim → serve its state (plus §6 pending arms) with no store
//     access at all;
//   - invalid or missing claim → recompute the applicable policy set, and
//     in signature order: share an existing state generated for the exact
//     same id set; else, under a §6 regeneration interval, keep the
//     claim's stale state with the insert-only delta appended as pending
//     arms while it stays below k̃; else generate a fresh state for the
//     signature — outside m.mu, once: the first reader to miss registers
//     the signature in m.flights and generates; readers of the same
//     signature wait for it and then share; readers of every other
//     signature never wait.
//
// One invariant carries the safety of all of it: a state is bound to a claim
// only if, under m.mu at bind time, the store's applicable id set for that
// claim equals the state's ids. So every pass through the lock starts from
// PoliciesFor again — after waiting, and after generating: a policy write
// that lands while the state is being built cannot find it in m.states, so
// neither RevokePolicy's sweep nor the insert trigger protects it. A state
// generated for a set that has moved on is dropped unpublished.
//
// The corpus is always filtered with the middleware-wide group resolver:
// states are shared across sessions, so a session's pinned older
// resolution must never populate them.
func (m *Middleware) resolveClaimLocked(key geKey) (*geState, []*policy.Policy, bool, error) {
	if c := m.claims[key]; c != nil && c.valid {
		m.stats.guardHits++
		return c.state, m.pendingPoliciesLocked(c), true, nil
	}
	m.stats.guardMisses++
	var fresh *geState // generated by this call, not yet published
	for {
		ps := m.store.PoliciesFor(policy.Metadata{Querier: key.querier, Purpose: key.purpose}, key.relation, m.groups)
		ids := policyIDs(ps)
		sk := stateKey{relation: key.relation, hash: signatureHash(ids)}
		c := m.claims[key]
		if c == nil {
			c = &claim{key: key}
			m.claims[key] = c
			m.registerClaimLocked(c)
			m.evictClaimsLocked(c)
		}
		st := m.lookupStateLocked(sk, ids)
		shared := st != nil
		if fresh != nil {
			if !shared && slices.Equal(fresh.ids, ids) {
				if err := m.publishStateLocked(fresh); err != nil {
					return nil, nil, false, err
				}
				st = fresh
			} else {
				m.retiredQ = append(m.retiredQ, fresh.ref()) // the set moved on while it was built
			}
			fresh = nil
		}
		if st != nil {
			m.bindClaimLocked(c, st, shared)
			return st, nil, false, nil
		}
		// §6 deferred regeneration: reuse the stale expression with the new
		// grants appended as owner arms until the insertion count reaches k̃.
		// Only insert-only deltas qualify; revocation-shaped changes (or a
		// forced regen) fall through to generation.
		if c.state != nil && !m.eagerRegen && !c.forceRegen {
			if pend, ok := diffSuperset(ids, c.state.ids); ok && len(pend) < m.optimalK(c.state) {
				c.pendingIDs = pend
				c.valid = true
				return c.state, m.pendingPoliciesLocked(c), false, nil
			}
		}
		if done := m.flights[sk]; done != nil {
			// Someone is generating this signature (or, at 2⁻⁶⁴, one that
			// hashes like it): wait, then resolve again.
			m.unlock()
			<-done
			m.mu.Lock()
			continue
		}
		done := make(chan struct{})
		m.flights[sk] = done
		m.unlock()
		var err error
		fresh, err = m.generateState(key, ps, ids, sk.hash)
		m.mu.Lock()
		delete(m.flights, sk)
		close(done)
		if err != nil {
			return nil, nil, false, err
		}
		m.stats.guardRegens++
	}
}

// generateState builds and persists a fresh state for a signature. It runs
// outside m.mu; the state is visible to nobody until publishStateLocked. key
// is only the representative the rGE row is written under; the state itself
// is keyed by signature.
func (m *Middleware) generateState(key geKey, ps []*policy.Policy, ids []int64, hash uint64) (*geState, error) {
	sel, err := m.selectivityFor(key.relation)
	if err != nil {
		return nil, err
	}
	ge, err := guard.GenerateWithOptions(ps, key.relation, key.querier, key.purpose, sel, m.cm, m.genOpts)
	if err != nil {
		return nil, err
	}
	geID, err := m.persist.save(ge)
	if err != nil {
		return nil, err
	}
	if m.hookGenerated != nil {
		m.hookGenerated()
	}
	return &geState{
		ge: ge, relation: key.relation, ids: ids, hash: hash,
		geID: geID, reprKey: key, deltaSets: make(map[int]int64),
	}, nil
}

// publishStateLocked makes a generated (or loaded) state shareable: Δ check
// sets for guards above the threshold (§5.4), a generation token, and its
// place in the signature index. Caller holds m.mu.
func (m *Middleware) publishStateLocked(st *geState) error {
	schema := m.db.MustTable(st.relation).Schema
	for gi := range st.ge.Guards {
		g := &st.ge.Guards[gi]
		if m.deltaThreshold > 0 && len(g.Policies) > m.deltaThreshold {
			id, err := m.registerCheckSetLocked(g.Policies, st.relation, schema)
			if err != nil {
				m.dropCheckSetsLocked(st.setIDs)
				m.retiredQ = append(m.retiredQ, st.ref())
				return err
			}
			st.setIDs = append(st.setIDs, id)
			st.deltaSets[gi] = id
		}
	}
	m.nextStateID++
	st.stateID = m.nextStateID
	sk := stateKey{relation: st.relation, hash: st.hash}
	m.states[sk] = append(m.states[sk], st)
	return nil
}

// InvalidateAll retires every shared guard state and force-invalidates
// every claim; mainly for tests, administrative resets, and
// group-membership changes (the scoped index is built from membership at
// claim-creation time).
func (m *Middleware) InvalidateAll() {
	defer m.epoch.Add(1)
	m.mu.Lock()
	defer m.unlock()
	m.stats.scopedInvalidations++
	for _, bucket := range m.states {
		for _, st := range slices.Clone(bucket) {
			m.removeStateLocked(st)
		}
	}
	for _, c := range m.claims {
		m.invalidateClaimLocked(c, true)
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
