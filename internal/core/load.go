package core

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/sieve-db/sieve/internal/guard"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// LoadPersistedGuards reconstructs the middleware's guard cache from the
// rGE/rGG/rGP relations (§5.1): a re-attached instance resumes with the
// previous instance's guarded expressions instead of regenerating them on
// first query. An rGE row yields one state — found or created by its
// signature — and one claim, its representative's. The claim may be served
// without consulting the store only if the row is not flagged outdated;
// otherwise it re-resolves on its first query and re-binds the loaded state
// by signature, without regenerating, when the policies still agree. Rows
// this instance cannot adopt — their key already has a live claim or a
// newer row, or their signature a live state — are deleted: every row left
// belongs to exactly one live state. Returns the number of expressions
// loaded.
func (m *Middleware) LoadPersistedGuards() (int, error) {
	m.mu.Lock()
	defer m.unlock()
	gt := m.persist
	gt.mu.Lock()
	defer gt.mu.Unlock()

	type geHeader struct {
		id       int64
		key      geKey
		outdated bool
	}
	var headers []geHeader
	gt.ge.Scan(func(_ storage.RowID, r storage.Row) bool {
		if !gt.owned[r[0].I] {
			headers = append(headers, geHeader{
				id:       r[0].I,
				key:      geKey{querier: r[1].S, relation: r[2].S, purpose: r[3].S},
				outdated: r[4].Bool(),
			})
		}
		return true
	})
	// Newest first: where one key has several rows (its claim moved on while
	// others still shared the older state), the claim is the newest row's.
	slices.SortFunc(headers, func(a, b geHeader) int { return cmp.Compare(b.id, a.id) })

	loaded := 0
	for _, h := range headers {
		ref := geRef{id: h.id, querier: h.key.querier}
		if _, live := m.claims[h.key]; live {
			m.retiredQ = append(m.retiredQ, ref)
			continue
		}
		ge, err := m.loadExpressionLocked(h.id, h.key)
		if err != nil {
			return loaded, err
		}
		// The signature is the union of the partitions' surviving policy
		// ids; identical persisted expressions fold back onto one state.
		var ids []int64
		for gi := range ge.Guards {
			for _, p := range ge.Guards[gi].Policies {
				ids = append(ids, p.ID)
			}
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
		sk := stateKey{relation: h.key.relation, hash: signatureHash(ids)}
		st := m.lookupStateLocked(sk, ids)
		if st != nil {
			m.retiredQ = append(m.retiredQ, ref)
		} else {
			st = &geState{
				ge: ge, relation: h.key.relation, ids: ids, hash: sk.hash,
				geID: h.id, reprKey: h.key, outdated: h.outdated, deltaSets: map[int]int64{},
			}
			gt.owned[h.id] = true
			if err := m.publishStateLocked(st); err != nil {
				return loaded, err
			}
		}
		c := &claim{key: h.key}
		m.claims[h.key] = c
		m.registerClaimLocked(c)
		m.bindClaimLocked(c, st, false)
		c.valid = !h.outdated
		loaded++
	}
	return loaded, nil
}

// loadExpressionLocked rebuilds one persisted expression from its rGG and
// rGP rows, found through their indexes in insertion order — the order the
// guards were generated in. Policies that have left the store since thin
// their partitions; a guard left with none is dropped. Caller holds the
// guard tables' lock.
func (m *Middleware) loadExpressionLocked(geID int64, key geKey) (*guard.GuardedExpression, error) {
	gt := m.persist
	sel, err := m.selectivityFor(key.relation)
	if err != nil {
		return nil, err
	}
	ge := &guard.GuardedExpression{Relation: key.relation, Querier: key.querier, Purpose: key.purpose}
	rows := gt.lookup(gt.gg, "guard_expression_id", storage.NewInt(geID))
	for i := 0; i < len(rows); {
		r, _ := gt.gg.Get(rows[i])
		guardID, attr := r[0], r[2].S
		var ops, vals []string // a range guard spans two rows
		for ; i < len(rows); i++ {
			if r, _ = gt.gg.Get(rows[i]); r[0].I != guardID.I {
				break
			}
			ops, vals = append(ops, r[3].S), append(vals, r[4].S)
		}
		cond, err := condFromRows(attr, ops, vals)
		if err != nil {
			return nil, fmt.Errorf("sieve: guard %d: %w", guardID.I, err)
		}
		g := guard.Guard{Cond: cond}
		for _, rid := range gt.lookup(gt.gp, "guard_id", guardID) {
			pr, _ := gt.gp.Get(rid)
			if p, ok := m.store.ByID(pr[1].I); ok {
				g.Policies = append(g.Policies, p)
			}
		}
		if len(g.Policies) == 0 {
			continue
		}
		if cond.Kind == policy.CondRange {
			g.Sel = sel.EstimateRange(cond.Attr, cond.Lo, cond.Hi)
		} else {
			g.Sel = sel.EstimateEq(cond.Attr, cond.Val)
		}
		ge.Guards = append(ge.Guards, g)
	}
	return ge, nil
}

// condFromRows rebuilds a guard condition from its rGG rows: one row for an
// equality/one-sided comparison, two rows for a range.
func condFromRows(attr string, ops, vals []string) (policy.ObjectCondition, error) {
	parseVal := func(s string) (storage.Value, error) {
		e, err := sqlparser.ParseExpr(s)
		if err != nil {
			return storage.Null, err
		}
		lit, ok := e.(*sqlparser.Literal)
		if !ok {
			return storage.Null, fmt.Errorf("guard value %q is not a literal", s)
		}
		return lit.Val, nil
	}
	parseOp := func(s string) (sqlparser.CmpOp, error) {
		switch s {
		case "=":
			return sqlparser.CmpEq, nil
		case "<":
			return sqlparser.CmpLt, nil
		case "<=":
			return sqlparser.CmpLe, nil
		case ">":
			return sqlparser.CmpGt, nil
		case ">=":
			return sqlparser.CmpGe, nil
		}
		return 0, fmt.Errorf("unknown guard operator %q", s)
	}
	switch len(ops) {
	case 1:
		op, err := parseOp(ops[0])
		if err != nil {
			return policy.ObjectCondition{}, err
		}
		val, err := parseVal(vals[0])
		if err != nil {
			return policy.ObjectCondition{}, err
		}
		return policy.ObjectCondition{Attr: attr, Kind: policy.CondCompare, Op: op, Val: val}, nil
	case 2:
		loOp, err := parseOp(ops[0])
		if err != nil {
			return policy.ObjectCondition{}, err
		}
		hiOp, err := parseOp(ops[1])
		if err != nil {
			return policy.ObjectCondition{}, err
		}
		lo, err := parseVal(vals[0])
		if err != nil {
			return policy.ObjectCondition{}, err
		}
		hi, err := parseVal(vals[1])
		if err != nil {
			return policy.ObjectCondition{}, err
		}
		return policy.ObjectCondition{Attr: attr, Kind: policy.CondRange,
			LoOp: loOp, Lo: lo, HiOp: hiOp, Hi: hi}, nil
	}
	return policy.ObjectCondition{}, fmt.Errorf("guard with %d condition rows", len(ops))
}
