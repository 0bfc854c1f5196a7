package guard

import (
	"slices"
	"sort"

	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Candidate is a candidate guard: a predicate plus the policies it can
// cover (the mapping structure of §4.1).
type Candidate struct {
	Cond     policy.ObjectCondition
	Policies []*policy.Policy
	Sel      float64
}

// rangeCand is a (possibly merged) range candidate during generation; NULL
// bounds are unbounded sides.
type rangeCand struct {
	lo, hi storage.Value
	pols   []*policy.Policy
}

// ownerOnlyCandidates builds only the per-owner equality guards (ablation).
func ownerOnlyCandidates(ps []*policy.Policy, sel Selectivity) []Candidate {
	byOwner := make(map[int64]*Candidate)
	var order []int64
	for _, p := range ps {
		c, ok := byOwner[p.Owner]
		if !ok {
			val := storage.NewInt(p.Owner)
			c = &Candidate{
				Cond: policy.Compare(policy.OwnerAttr, sqlparser.CmpEq, val),
				Sel:  sel.EstimateEq(policy.OwnerAttr, val),
			}
			byOwner[p.Owner] = c
			order = append(order, p.Owner)
		}
		c.Policies = append(c.Policies, p)
	}
	out := make([]Candidate, 0, len(order))
	for _, o := range order {
		out = append(out, *byOwner[o])
	}
	return out
}

// generateCandidates builds CG from the policies (§4.1):
//
//  1. every policy's owner equality condition (always a guard: constant on
//     an indexed attribute), grouped by owner;
//  2. every equality condition on an indexed attribute, grouped by
//     (attr, value);
//  3. merged range conditions per attribute: ranges sorted by left bound,
//     overlapping pairs merged when Theorem 1's benefit condition
//     ρ(x∩y)/ρ(x∪y) > ce/(cr+ce) holds, with the Corollary 1.1/1.2
//     cut-offs bounding the scan. Both the originals and the merges are
//     kept as candidates; selection picks the cost-optimal subset.
//
// With noMerge (an ablation) no range merges are proposed.
func generateCandidates(ps []*policy.Policy, sel Selectivity, cm CostModel, noMerge bool) []Candidate {
	var out []Candidate

	// 1+2: equality candidates grouped by (attr, value).
	type eqKey struct {
		attr string
		val  string
	}
	eqGroups := make(map[eqKey]*Candidate)
	var eqOrder []eqKey
	addEq := func(attr string, val storage.Value, p *policy.Policy) {
		k := eqKey{attr: attr, val: val.String()}
		c, ok := eqGroups[k]
		if !ok {
			c = &Candidate{
				Cond: policy.Compare(attr, sqlparser.CmpEq, val),
				Sel:  sel.EstimateEq(attr, val),
			}
			eqGroups[k] = c
			eqOrder = append(eqOrder, k)
		}
		c.Policies = append(c.Policies, p)
	}

	// range candidates per attribute.
	rangeGroups := make(map[string][]rangeCand)
	var rangeAttrs []string
	addRange := func(attr string, lo, hi storage.Value, p *policy.Policy) {
		if _, ok := rangeGroups[attr]; !ok {
			rangeAttrs = append(rangeAttrs, attr)
		}
		rangeGroups[attr] = append(rangeGroups[attr], rangeCand{lo: lo, hi: hi, pols: []*policy.Policy{p}})
	}

	for _, p := range ps {
		addEq(policy.OwnerAttr, storage.NewInt(p.Owner), p)
		for _, c := range p.Conditions {
			if !sel.Indexed(c.Attr) {
				continue
			}
			switch c.Kind {
			case policy.CondCompare:
				switch c.Op {
				case sqlparser.CmpEq:
					addEq(c.Attr, c.Val, p)
				case sqlparser.CmpLe, sqlparser.CmpLt:
					addRange(c.Attr, storage.Null, c.Val, p)
				case sqlparser.CmpGe, sqlparser.CmpGt:
					addRange(c.Attr, c.Val, storage.Null, p)
				}
			case policy.CondRange:
				addRange(c.Attr, c.Lo, c.Hi, p)
			}
		}
	}
	for _, k := range eqOrder {
		out = append(out, *eqGroups[k])
	}

	// 3: merge ranges per attribute.
	threshold := cm.mergeThreshold()
	for _, attr := range rangeAttrs {
		cands := rangeGroups[attr]
		// Sort by left bound ascending (unbounded-below first).
		sort.SliceStable(cands, func(i, j int) bool {
			li, lj := cands[i].lo, cands[j].lo
			switch {
			case li.IsNull() && lj.IsNull():
				return false
			case li.IsNull():
				return true
			case lj.IsNull():
				return false
			}
			return storage.Less(li, lj)
		})
		merged := make([]bool, len(cands))
		for i := 0; i < len(cands); i++ {
			cur := cands[i]
			curMerged := false
			for j := i + 1; j < len(cands) && !noMerge; j++ {
				if merged[j] {
					continue
				}
				if !intervalsOverlap(cur.lo, cur.hi, cands[j].lo, cands[j].hi) {
					// Corollary 1.1/1.2: sorted by left bound, no later
					// candidate can overlap either — stop scanning.
					break
				}
				if mergeBeneficial(sel, attr, cur, cands[j], threshold) {
					if !curMerged {
						// The run starts: copy once, so that growing it in
						// place never writes into cands[i]'s own list.
						cur.pols = slices.Clone(cur.pols)
						curMerged = true
					}
					cur.lo = minBound(cur.lo, cands[j].lo)
					cur.hi = maxBound(cur.hi, cands[j].hi)
					cur.pols = append(cur.pols, cands[j].pols...)
					merged[j] = true
				}
			}
			if curMerged {
				out = append(out, rangeToCandidate(sel, attr, cur))
			}
			// The original (unmerged) candidate also stays in CG.
			out = append(out, rangeToCandidate(sel, attr, cands[i]))
		}
	}
	return out
}

func rangeToCandidate(sel Selectivity, attr string, rc rangeCand) Candidate {
	cond := policy.ObjectCondition{
		Attr: attr, Kind: policy.CondRange,
		Lo: rc.lo, LoOp: sqlparser.CmpGe,
		Hi: rc.hi, HiOp: sqlparser.CmpLe,
	}
	// One-sided ranges collapse to a single comparison.
	switch {
	case rc.lo.IsNull() && rc.hi.IsNull():
		// Degenerate full-range guard; keep as range with both unbounded.
	case rc.lo.IsNull():
		cond = policy.Compare(attr, sqlparser.CmpLe, rc.hi)
	case rc.hi.IsNull():
		cond = policy.Compare(attr, sqlparser.CmpGe, rc.lo)
	}
	return Candidate{
		Cond:     cond,
		Policies: rc.pols,
		Sel:      sel.EstimateRange(attr, rc.lo, rc.hi),
	}
}

func intervalsOverlap(aLo, aHi, bLo, bHi storage.Value) bool {
	// [aLo,aHi] ∩ [bLo,bHi] ≠ ∅ with NULL = unbounded.
	if !aHi.IsNull() && !bLo.IsNull() && storage.Less(aHi, bLo) {
		return false
	}
	if !bHi.IsNull() && !aLo.IsNull() && storage.Less(bHi, aLo) {
		return false
	}
	return true
}

func minBound(a, b storage.Value) storage.Value {
	if a.IsNull() || b.IsNull() {
		return storage.Null
	}
	if storage.Less(b, a) {
		return b
	}
	return a
}

func maxBound(a, b storage.Value) storage.Value {
	if a.IsNull() || b.IsNull() {
		return storage.Null
	}
	if storage.Less(a, b) {
		return b
	}
	return a
}

// mergeBeneficial implements Theorem 1's test (Eq. 8):
// ρ(x∩y)/ρ(x∪y) > ce/(cr+ce). Non-overlapping candidates never merge.
func mergeBeneficial(sel Selectivity, attr string, a, b rangeCand, threshold float64) bool {
	if !intervalsOverlap(a.lo, a.hi, b.lo, b.hi) {
		return false
	}
	interLo := maxBound2(a.lo, b.lo)
	interHi := minBound2(a.hi, b.hi)
	unionLo := minBound(a.lo, b.lo)
	unionHi := maxBound(a.hi, b.hi)
	inter := sel.EstimateRange(attr, interLo, interHi)
	union := sel.EstimateRange(attr, unionLo, unionHi)
	if union <= 0 {
		return false
	}
	return inter/union > threshold
}

// maxBound2/minBound2 treat NULL as the identity (−∞ for lower bounds, +∞
// for upper bounds) — used for intersections, where the bounded side wins.
func maxBound2(a, b storage.Value) storage.Value {
	if a.IsNull() {
		return b
	}
	if b.IsNull() {
		return a
	}
	if storage.Less(a, b) {
		return b
	}
	return a
}

func minBound2(a, b storage.Value) storage.Value {
	if a.IsNull() {
		return b
	}
	if b.IsNull() {
		return a
	}
	if storage.Less(b, a) {
		return b
	}
	return a
}
