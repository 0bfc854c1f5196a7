// Package guard implements SIEVE's guarded policy expressions (§4): the
// translation of a DNF policy expression E(P) = OC1 ∨ … ∨ OC|P| into
// G(P) = G1 ∨ … ∨ Gn where each guarded expression Gi = oc_g^i ∧ PG_i pairs
// an index-supported guard predicate with a policy partition.
//
// The two steps are candidate generation (§4.1, with Theorem 1's
// overlap-benefit test and the Corollary 1.1/1.2 scan cut-offs) and cost
// optimal guard selection (§4.2, Algorithm 1: a utility-greedy weighted
// set cover).
package guard

import (
	"fmt"
	"slices"
	"strings"

	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// CostModel carries the experimentally determined constants of the paper's
// cost model (§4, §5.4). All costs are in abstract units; only ratios
// matter to the algorithms.
type CostModel struct {
	// Ce is the average cost of evaluating one tuple against one policy's
	// object conditions.
	Ce float64
	// Cr is the cost of reading a tuple from storage.
	Cr float64
	// Alpha is the average fraction of a partition's policies checked
	// before a tuple satisfies one (§5.4: "the percentage of policies that
	// have to be checked before one returns true").
	Alpha float64
}

// DefaultCostModel mirrors the classic 4:1 read-to-evaluate ratio. The
// paper measures its constants at start-up (§5.4); this reproduction runs
// on these.
func DefaultCostModel() CostModel { return CostModel{Ce: 1, Cr: 4, Alpha: 0.7} }

// mergeThreshold is ce/(cr+ce): merging two overlapping candidates is
// beneficial iff ρ(x∩y)/ρ(x∪y) exceeds it (Theorem 1, Eq. 8).
func (m CostModel) mergeThreshold() float64 { return m.Ce / (m.Cr + m.Ce) }

// Selectivity estimates predicate cardinalities (the paper's ρ, estimated
// from the DBMS's histograms) and reports which attributes carry indexes —
// the precondition for an object condition to serve as a guard (§3.2).
type Selectivity interface {
	// Rows is the relation's cardinality |r|.
	Rows() int
	// EstimateEq returns the fraction of rows with attr = v.
	EstimateEq(attr string, v storage.Value) float64
	// EstimateRange returns the fraction of rows with lo ≤ attr ≤ hi
	// (NULL bounds are unbounded).
	EstimateRange(attr string, lo, hi storage.Value) float64
	// Indexed reports whether attr has an index.
	Indexed(attr string) bool
}

// TableSelectivity adapts storage.TableStats to the Selectivity interface.
// When Table is set it also implements SegmentPruner, exposing the
// relation's zone maps to guard selection.
type TableSelectivity struct {
	Stats       *storage.TableStats
	IndexedCols map[string]bool
	Table       *storage.Table
}

// Rows implements Selectivity.
func (t *TableSelectivity) Rows() int { return t.Stats.RowCount }

// EstimateEq implements Selectivity.
func (t *TableSelectivity) EstimateEq(attr string, v storage.Value) float64 {
	return t.Stats.SelectivityEq(attr, v)
}

// EstimateRange implements Selectivity.
func (t *TableSelectivity) EstimateRange(attr string, lo, hi storage.Value) float64 {
	return t.Stats.SelectivityRange(attr, lo, hi)
}

// Indexed implements Selectivity.
func (t *TableSelectivity) Indexed(attr string) bool { return t.IndexedCols[attr] }

// SegmentPruner is an optional Selectivity extension reporting zone-map
// pruning power: the fraction of the relation's heap living in segments
// whose zone maps rule out every value in [lo, hi] of attr (NULL bounds
// unbounded). Selection uses it to credit guards whose predicates skip
// whole segments of storage, not just filter tuples.
type SegmentPruner interface {
	PruneFrac(attr string, lo, hi storage.Value) float64
}

// PruneFrac implements SegmentPruner when the selectivity carries its
// table (zero pruning otherwise).
func (t *TableSelectivity) PruneFrac(attr string, lo, hi storage.Value) float64 {
	if t.Table == nil {
		return 0
	}
	return t.Table.PruneFracRange(attr, lo, hi)
}

// pruneFracFor returns the segment prune fraction of a candidate guard
// condition under sel: the zone-map fraction of its interval. Zero when sel
// carries no segment information or the condition has no interval form.
func pruneFracFor(sel Selectivity, cond policy.ObjectCondition) float64 {
	if sp, ok := sel.(SegmentPruner); ok {
		if lo, hi, ok := cond.Interval(); ok {
			return sp.PruneFrac(cond.Attr, lo, hi)
		}
	}
	return 0
}

// Guard is one selected guarded expression Gi = oc_g ∧ PG_i.
type Guard struct {
	// Cond is the guard predicate oc_g: an equality or range condition on
	// an indexed attribute.
	Cond policy.ObjectCondition
	// Policies is the policy partition PG_i.
	Policies []*policy.Policy
	// Sel is ρ(oc_g) as a fraction of the relation.
	Sel float64
}

// Expr returns the guard predicate as a SQL expression over alias.
func (g *Guard) Expr(alias string) sqlparser.Expr { return g.Cond.Expr(alias) }

// PartitionExpr returns E(PG_i): the DNF of the partition's full object
// conditions. A tuple passing the guard is checked against this (or the Δ
// operator takes its place, §5.4).
func (g *Guard) PartitionExpr(alias string) sqlparser.Expr {
	return policy.Expression(g.Policies, alias)
}

// GuardedExpression is G(P): the disjunction of selected guards for one
// (querier, purpose, relation).
type GuardedExpression struct {
	Relation string
	Querier  string
	Purpose  string
	Guards   []Guard
}

// PolicyCount returns Σ|PG_i| = |P| (every policy covered exactly once).
func (ge *GuardedExpression) PolicyCount() int {
	n := 0
	for _, g := range ge.Guards {
		n += len(g.Policies)
	}
	return n
}

// TotalSel returns Σρ(Gi), the total guard cardinality fraction (may exceed
// 1 when guards overlap).
func (ge *GuardedExpression) TotalSel() float64 {
	s := 0.0
	for _, g := range ge.Guards {
		s += g.Sel
	}
	return s
}

// Validate checks the §3.2 invariants: the guards partition the policy set
// (every policy of ps exactly once, and no policy outside it) and every
// partition member has an object condition implying its guard. Each guard's
// interval is read once, and coverage is counted on one sorted id list, so
// the allocations do not grow with the policy count.
func (ge *GuardedExpression) Validate(ps []*policy.Policy) error {
	got := make([]int64, 0, ge.PolicyCount()+len(ps))
	for _, g := range ge.Guards {
		if len(g.Policies) == 0 {
			return fmt.Errorf("guard: empty partition for guard %s", g.Cond)
		}
		gLo, gHi, ok := g.Cond.Interval()
		for _, p := range g.Policies {
			if !ok || !impliesInterval(p, g.Cond.Attr, gLo, gHi) {
				return fmt.Errorf("guard: policy %d lacks a condition implying guard %s", p.ID, g.Cond)
			}
			got = append(got, p.ID)
		}
	}
	want := got[len(got):]
	for _, p := range ps {
		want = append(want, p.ID)
	}
	slices.Sort(got)
	slices.Sort(want)
	i := 0
	for j, id := range want {
		if j > 0 && want[j-1] == id {
			continue
		}
		if i < len(got) && got[i] < id {
			return fmt.Errorf("guard: policy %d is not in the policy set", got[i])
		}
		c := i
		for c < len(got) && got[c] == id {
			c++
		}
		switch c - i {
		case 0:
			return fmt.Errorf("guard: policy %d not covered", id)
		case 1:
		default:
			return fmt.Errorf("guard: policy %d covered %d times", id, c-i)
		}
		i = c
	}
	if i < len(got) {
		return fmt.Errorf("guard: policy %d is not in the policy set", got[i])
	}
	return nil
}

// policyImpliesGuard checks ∃ oc ∈ OC_l such that oc ⇒ guard.
func policyImpliesGuard(p *policy.Policy, g policy.ObjectCondition) bool {
	gLo, gHi, ok := g.Interval()
	return ok && impliesInterval(p, g.Attr, gLo, gHi)
}

// impliesInterval checks ∃ oc ∈ OC_l on attr whose interval lies within
// [gLo, gHi]: the owner condition first, then p.Conditions in place.
func impliesInterval(p *policy.Policy, attr string, gLo, gHi storage.Value) bool {
	if attr == policy.OwnerAttr {
		if owner := storage.NewInt(p.Owner); within(owner, owner, gLo, gHi) {
			return true
		}
	}
	for i := range p.Conditions {
		c := &p.Conditions[i]
		if c.Attr != attr {
			continue
		}
		if cLo, cHi, ok := c.Interval(); ok && within(cLo, cHi, gLo, gHi) {
			return true
		}
	}
	return false
}

// within conservatively tests [cLo, cHi] ⊆ [gLo, gHi]: gLo ≤ cLo and
// cHi ≤ gHi, NULL meaning unbounded.
func within(cLo, cHi, gLo, gHi storage.Value) bool {
	if !gLo.IsNull() && (cLo.IsNull() || storage.Less(cLo, gLo)) {
		return false
	}
	if !gHi.IsNull() && (cHi.IsNull() || storage.Less(gHi, cHi)) {
		return false
	}
	return true
}

// String renders a short summary of the guarded expression.
func (ge *GuardedExpression) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "G(P) for querier=%s purpose=%s on %s: %d guards / %d policies\n",
		ge.Querier, ge.Purpose, ge.Relation, len(ge.Guards), ge.PolicyCount())
	for _, g := range ge.Guards {
		fmt.Fprintf(&b, "  %-40s |PG|=%-4d ρ=%.4f\n", g.Cond.String(), len(g.Policies), g.Sel)
	}
	return b.String()
}
