package guard

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"

	"github.com/sieve-db/sieve/internal/policy"
)

// Cost returns cost(Gi) = ρ(oc_g)·(cr + α·|PG_i|·ce) in tuples-worth of
// work (Eq. 3). rows is the relation cardinality.
func (m CostModel) Cost(selFrac float64, partitionSize int, rows int) float64 {
	card := selFrac * float64(rows)
	return card * (m.Cr + m.Alpha*float64(partitionSize)*m.Ce)
}

// Benefit returns benefit(Gi) = ce·|PG_i|·(|r| − ρ(oc_g)) (§4.2): the
// evaluation work the guard avoids versus a linear scan.
func (m CostModel) Benefit(selFrac float64, partitionSize int, rows int) float64 {
	card := selFrac * float64(rows)
	return m.Ce * float64(partitionSize) * (float64(rows) - card)
}

// ReadCost returns the guard's read cost ρ(oc_g)·cr. A one-tuple floor
// keeps the utility ratio finite for empty guards (an index probe is never
// free).
func (m CostModel) ReadCost(selFrac float64, rows int) float64 {
	card := selFrac * float64(rows)
	if card < 1 {
		card = 1
	}
	return card * m.Cr
}

// Utility is benefit per unit read cost — the greedy ranking of
// Algorithm 1 (after [20]'s ranking of expensive predicates).
func (m CostModel) Utility(selFrac float64, partitionSize int, rows int) float64 {
	return m.Benefit(selFrac, partitionSize, rows) / m.ReadCost(selFrac, rows)
}

// BenefitWithPruning extends Benefit with the read work a guard's zone-map
// pruning avoids on the linear-scan path: pruneFrac of the relation lives
// in segments the guard's interval refutes, and a zone-mapped scan skips a
// segment its arms all refute without reading a tuple. Attributing the
// skip to each refuting guard independently is an approximation (a segment
// is only skipped when every arm refutes it), but it correctly ranks
// clustered, selective guards above scattered ones of equal selectivity.
func (m CostModel) BenefitWithPruning(selFrac float64, partitionSize, rows int, pruneFrac float64) float64 {
	return m.Benefit(selFrac, partitionSize, rows) + m.Cr*pruneFrac*float64(rows)
}

// UtilityWithPruning ranks candidates by pruning-aware benefit per unit
// read cost; with pruneFrac 0 it degenerates to Utility.
func (m CostModel) UtilityWithPruning(selFrac float64, partitionSize, rows int, pruneFrac float64) float64 {
	return m.BenefitWithPruning(selFrac, partitionSize, rows, pruneFrac) / m.ReadCost(selFrac, rows)
}

// workCand is a mutable candidate during selection.
type workCand struct {
	idx      int // position in the candidate list
	cond     policy.ObjectCondition
	sel      float64
	prune    float64 // zone-map prune fraction of the guard's interval
	policies map[int64]*policy.Policy
	version  int
}

type pqItem struct {
	cand    *workCand
	utility float64
	version int
}

type priorityQueue []pqItem

func (q priorityQueue) Len() int           { return len(q) }
func (q priorityQueue) Less(i, j int) bool { return q[i].utility > q[j].utility }
func (q priorityQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *priorityQueue) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *priorityQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// SelectGuards implements Algorithm 1: candidates enter a priority queue
// ordered by utility; the maximum is selected; every remaining candidate
// sharing policies with the selection is shrunk by the intersection, its
// utility recomputed, and re-queued (implemented with lazy invalidation via
// version counters). The result covers every policy exactly once.
func SelectGuards(cands []Candidate, ps []*policy.Policy, sel Selectivity, cm CostModel) ([]Guard, error) {
	rows := sel.Rows()
	work := make([]*workCand, len(cands))
	byPolicy := make(map[int64][]*workCand)
	q := make(priorityQueue, 0, len(cands))
	for i, c := range cands {
		w := &workCand{idx: i, cond: c.Cond, sel: c.Sel, prune: pruneFracFor(sel, c.Cond), policies: make(map[int64]*policy.Policy, len(c.Policies))}
		for _, p := range c.Policies {
			w.policies[p.ID] = p
			byPolicy[p.ID] = append(byPolicy[p.ID], w)
		}
		work[i] = w
		q = append(q, pqItem{cand: w, utility: cm.UtilityWithPruning(w.sel, len(w.policies), rows, w.prune), version: 0})
	}
	heap.Init(&q)

	var out []Guard
	covered := make(map[int64]bool, len(ps))
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		w := it.cand
		if it.version != w.version || len(w.policies) == 0 {
			continue // stale entry
		}
		// Select w: freeze its partition.
		g := Guard{Cond: w.cond, Sel: w.sel}
		for _, p := range w.policies {
			g.Policies = append(g.Policies, p)
			covered[p.ID] = true
		}
		policy.Sort(g.Policies)
		out = append(out, g)
		// Remove the selected policies from every other candidate and
		// requeue with fresh utilities (lines 9–14 of Algorithm 1), in
		// candidate order: candidates of equal utility then pop in the same
		// order on every run, and so do the arms they become.
		touched := make(map[*workCand]bool)
		var requeue []*workCand
		for id := range w.policies {
			for _, other := range byPolicy[id] {
				if other == w || touched[other] {
					continue
				}
				touched[other] = true
				requeue = append(requeue, other)
			}
		}
		slices.SortFunc(requeue, func(a, b *workCand) int { return cmp.Compare(a.idx, b.idx) })
		for _, other := range requeue {
			before := len(other.policies)
			for id := range w.policies {
				delete(other.policies, id)
			}
			if len(other.policies) != before {
				other.version++
				if len(other.policies) > 0 {
					heap.Push(&q, pqItem{
						cand:    other,
						utility: cm.UtilityWithPruning(other.sel, len(other.policies), rows, other.prune),
						version: other.version,
					})
				}
			}
		}
		w.version++ // invalidate any remaining stale entries for w
		w.policies = nil
	}

	for _, p := range ps {
		if !covered[p.ID] {
			return nil, fmt.Errorf("guard: selection left policy %d uncovered", p.ID)
		}
	}
	return out, nil
}

// GenOptions disable parts of the §4 pipeline for ablation studies.
type GenOptions struct {
	// NoMerge disables Theorem 1 range merging: only exact-match groups and
	// owner guards become candidates.
	NoMerge bool
	// OwnerOnly restricts candidates to the per-owner equality guards — the
	// naive factorisation SIEVE's grouping is measured against.
	OwnerOnly bool
}

// Generate runs the full §4 pipeline: candidate generation then selection,
// returning a validated guarded expression for the policy set.
func Generate(ps []*policy.Policy, relation, querier, purpose string, sel Selectivity, cm CostModel) (*GuardedExpression, error) {
	return GenerateWithOptions(ps, relation, querier, purpose, sel, cm, GenOptions{})
}

// GenerateWithOptions is Generate with ablation switches.
func GenerateWithOptions(ps []*policy.Policy, relation, querier, purpose string, sel Selectivity, cm CostModel, opts GenOptions) (*GuardedExpression, error) {
	if len(ps) == 0 {
		return &GuardedExpression{Relation: relation, Querier: querier, Purpose: purpose}, nil
	}
	var cands []Candidate
	if opts.OwnerOnly {
		cands = ownerOnlyCandidates(ps, sel)
	} else {
		cands = generateCandidates(ps, sel, cm, opts.NoMerge)
	}
	guards, err := SelectGuards(cands, ps, sel, cm)
	if err != nil {
		return nil, err
	}
	ge := &GuardedExpression{Relation: relation, Querier: querier, Purpose: purpose, Guards: guards}
	if err := ge.Validate(ps); err != nil {
		return nil, err
	}
	return ge, nil
}
