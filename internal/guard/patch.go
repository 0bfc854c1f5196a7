package guard

import (
	"cmp"
	"slices"

	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Patch derives the guarded expression of ps from base, the expression of a
// nearby policy set, instead of running the §4 pipeline again (the §6
// insert-adds-to-the-current-expression path, extended to revocations).
// baseIDs lists the ids of base's policies and ids those of ps, both in
// ascending order, ids[i] being ps[i].ID; Patch walks their difference:
//
//   - with no id revoked, every base guard is kept as it is, the same Guard
//     value sharing the same Policies slice, and only the added ids are
//     placed;
//   - a revoked id leaves its partition, and a guard left with none is
//     dropped; a guard that loses none is kept as it is;
//   - each added policy, in id order, joins the guard where its marginal
//     Eq. 3 cost is least: a guard it implies, at ρ(g)·α·ce, or a new guard
//     on its owner, at ρ(owner)·(cr+α·ce). Guards added earlier in the same
//     patch are candidates for the policies after them. A partition it joins
//     takes it at its id position, so every partition stays in id order.
//
// So a patched expression never costs more than the base with one owner arm
// per inserted policy, which is what §6's pending arms would have served.
// from reports, per output guard, the index of the base guard it is
// unchanged from, or −1 for a guard that is new or whose partition moved.
// The result is validated against ps in full, so lists that do not describe
// base and ps yield an error, never a wrong expression.
func Patch(base *GuardedExpression, baseIDs []int64, ps []*policy.Policy, ids []int64, sel Selectivity, cm CostModel) (ge *GuardedExpression, from []int, err error) {
	var revoked []int64        // in base, not in ps
	var added []*policy.Policy // in ps, not in base
	for i, j := 0, 0; i < len(baseIDs) || j < len(ids); {
		switch {
		case j == len(ids) || i < len(baseIDs) && baseIDs[i] < ids[j]:
			revoked = append(revoked, baseIDs[i])
			i++
		case i == len(baseIDs) || ids[j] < baseIDs[i]:
			added = append(added, ps[j])
			j++
		default:
			i++
			j++
		}
	}

	ge = &GuardedExpression{Relation: base.Relation, Querier: base.Querier, Purpose: base.Purpose,
		Guards: make([]Guard, 0, len(base.Guards)+len(added))}
	from = make([]int, 0, cap(ge.Guards))
	isRevoked := func(p *policy.Policy) bool {
		_, ok := slices.BinarySearch(revoked, p.ID)
		return ok
	}
	for gi, g := range base.Guards {
		kept := len(g.Policies)
		if len(revoked) > 0 {
			for _, p := range g.Policies {
				if isRevoked(p) {
					kept--
				}
			}
		}
		switch kept {
		case len(g.Policies):
			ge.Guards = append(ge.Guards, g)
			from = append(from, gi)
		case 0:
		default:
			g.Policies = slices.DeleteFunc(slices.Clone(g.Policies), isRevoked)
			ge.Guards = append(ge.Guards, g)
			from = append(from, -1)
		}
	}

	rows := sel.Rows()
	for _, p := range added {
		owner := storage.NewInt(p.Owner)
		best, bestCost := -1, cm.Cost(sel.EstimateEq(policy.OwnerAttr, owner), 1, rows)
		for gi := range ge.Guards {
			g := &ge.Guards[gi]
			// A tie with the new owner guard goes to the existing guard: one
			// arm fewer for the same cost.
			c := cm.Cost(g.Sel, 1, rows) - cm.Cost(g.Sel, 0, rows)
			if (c < bestCost || best < 0 && c == bestCost) && policyImpliesGuard(p, g.Cond) {
				best, bestCost = gi, c
			}
		}
		if best < 0 {
			ge.Guards = append(ge.Guards, Guard{
				Cond:     policy.Compare(policy.OwnerAttr, sqlparser.CmpEq, owner),
				Policies: []*policy.Policy{p},
				Sel:      sel.EstimateEq(policy.OwnerAttr, owner),
			})
			from = append(from, -1)
			continue
		}
		g := &ge.Guards[best]
		at, _ := slices.BinarySearchFunc(g.Policies, p.ID, func(q *policy.Policy, id int64) int { return cmp.Compare(q.ID, id) })
		if from[best] >= 0 {
			// The first change to a kept guard copies its partition: the
			// base still serves the old one.
			grown := make([]*policy.Policy, len(g.Policies), len(g.Policies)+1)
			copy(grown, g.Policies)
			g.Policies = grown
			from[best] = -1
		}
		g.Policies = slices.Insert(g.Policies, at, p)
	}

	if err := ge.Validate(ps); err != nil {
		return nil, nil, err
	}
	return ge, from, nil
}
