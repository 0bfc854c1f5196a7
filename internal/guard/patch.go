package guard

import (
	"slices"

	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Patch derives the guarded expression of ps from base, the expression of a
// nearby policy set, instead of running the §4 pipeline again (the §6
// insert-adds-to-the-current-expression path, extended to revocations):
//
//   - a base guard whose partition lies wholly in ps is kept as it is, the
//     same Guard value sharing the same Policies slice;
//   - policies missing from ps leave their partitions, and a guard left with
//     none is dropped;
//   - each policy of ps that no base guard covers joins the guard where its
//     marginal Eq. 3 cost is least: a guard it implies, at ρ(g)·α·ce, or a
//     new guard on its owner, at ρ(owner)·(cr+α·ce). Guards added earlier in
//     the same patch are candidates for the policies after them.
//
// So a patched expression never costs more than the base with one owner arm
// per inserted policy, which is what §6's pending arms would have served.
// from reports, per output guard, the index of the base guard it is
// unchanged from, or −1 for a guard that is new or whose partition moved.
func Patch(base *GuardedExpression, ps []*policy.Policy, sel Selectivity, cm CostModel) (ge *GuardedExpression, from []int, err error) {
	want := make([]int64, len(ps))
	for i, p := range ps {
		want[i] = p.ID
	}
	slices.Sort(want)
	covered := make([]bool, len(want)) // by position in want
	in := func(id int64) bool {
		_, ok := slices.BinarySearch(want, id)
		return ok
	}

	ge = &GuardedExpression{Relation: base.Relation, Querier: base.Querier, Purpose: base.Purpose,
		Guards: make([]Guard, 0, len(base.Guards))}
	from = make([]int, 0, len(base.Guards))
	for gi, g := range base.Guards {
		kept := 0
		for _, p := range g.Policies {
			if i, ok := slices.BinarySearch(want, p.ID); ok {
				kept++
				covered[i] = true
			}
		}
		switch kept {
		case len(g.Policies):
			ge.Guards = append(ge.Guards, g)
			from = append(from, gi)
		case 0:
		default:
			g.Policies = slices.DeleteFunc(slices.Clone(g.Policies), func(p *policy.Policy) bool { return !in(p.ID) })
			ge.Guards = append(ge.Guards, g)
			from = append(from, -1)
		}
	}

	rows := sel.Rows()
	for _, p := range ps {
		i, _ := slices.BinarySearch(want, p.ID)
		if covered[i] {
			continue
		}
		covered[i] = true
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
		if from[best] >= 0 {
			// The first change to a kept guard copies its partition: the
			// base still serves the old one.
			g.Policies = slices.Clone(g.Policies)
			from[best] = -1
		}
		g.Policies = append(g.Policies, p)
		policy.Sort(g.Policies)
	}

	if err := ge.Validate(ps); err != nil {
		return nil, nil, err
	}
	return ge, from, nil
}
