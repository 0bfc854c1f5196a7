package engine

import (
	"slices"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Zone-map pruning: before a sequential scan touches a segment's tuples,
// the scan tests the filter conjuncts against the segment's per-column zone
// maps. A segment is skipped when the zones *refute* the predicate — prove
// no row in the segment can satisfy it. Refutation is conservative
// three-valued reasoning: anything the compiler cannot reason about
// (subqueries, UDF calls, NOT, non-literal comparisons) simply never
// refutes, so pruning can only skip work, never rows.
//
// The interesting case is SIEVE's guarded expressions: the rewrite produces
// WHERE (guard1 AND partition1) OR (guard2 AND Δ(...)) OR …, and each
// guard is an index-friendly equality or range on one column — exactly the
// shape zone maps refute. A disjunction is refuted when every arm is; an
// arm (conjunction) when any of its sargable parts is. This is how guard
// selectivity turns into skipped storage, not just filtered tuples.

// zoneOp discriminates compiled zone-predicate nodes.
type zoneOp uint8

const (
	zoneLeaf  zoneOp = iota // a sargable single-column predicate
	zoneAnd                 // refuted when any child is refuted
	zoneOr                  // refuted when every child is refuted
	zoneFalse               // constant FALSE/NULL: refutes every segment
)

// zoneNode is one node of a compiled zone-refutation predicate.
type zoneNode struct {
	op   zoneOp
	kids []zoneNode
	s    sarg // leaf: the predicate to test against column s.slot's zone
}

// zoneTree translates e into a refutation tree, its columns read through
// the compiler's resolver and added to cols, kept sorted and distinct; ok
// is false when no part of e can ever refute a segment.
func (vc *vecCompiler) zoneTree(e sqlparser.Expr, cols *[]int) (zoneNode, bool) {
	if disj := sqlparser.Disjuncts(e); len(disj) > 1 {
		kids := make([]zoneNode, 0, len(disj))
		for _, d := range disj {
			k, ok := vc.zoneTree(d, cols)
			if !ok {
				// One unrefutable arm makes the whole OR unrefutable.
				return zoneNode{}, false
			}
			kids = append(kids, k)
		}
		return zoneNode{op: zoneOr, kids: kids}, true
	}
	if conj := sqlparser.Conjuncts(e); len(conj) > 1 {
		kids := make([]zoneNode, 0, len(conj))
		for _, c := range conj {
			if k, ok := vc.zoneTree(c, cols); ok {
				kids = append(kids, k)
			}
			// Unrefutable conjuncts are dropped: refuting any remaining
			// one still refutes the conjunction.
		}
		if len(kids) == 0 {
			return zoneNode{}, false
		}
		return zoneNode{op: zoneAnd, kids: kids}, true
	}
	if lit, ok := e.(*sqlparser.Literal); ok {
		if t, _ := truth(lit.Val); !t {
			// Constant FALSE (or NULL): the default-deny rewrite. No
			// segment can satisfy it, so the scan reads nothing.
			return zoneNode{op: zoneFalse}, true
		}
		return zoneNode{}, false
	}
	if s, ok := vc.sargOf(e, nil); ok {
		if i, found := slices.BinarySearch(*cols, s.slot); !found {
			*cols = slices.Insert(*cols, i, s.slot)
		}
		return zoneNode{op: zoneLeaf, s: s}, true
	}
	return zoneNode{}, false
}

// refuted reports whether the segment's zone maps, indexed by schema
// column, prove no row satisfies the node's predicate.
func (n *zoneNode) refuted(zones []storage.ZoneMap) bool {
	switch n.op {
	case zoneFalse:
		return true
	case zoneLeaf:
		z := zones[n.s.slot]
		if n.s.isRange {
			return !z.MayContain(n.s.lo, n.s.loS, n.s.hi, n.s.hiS)
		}
		for _, p := range n.s.points {
			if z.MayContainValue(p) {
				return false
			}
		}
		return true
	case zoneAnd:
		for i := range n.kids {
			if n.kids[i].refuted(zones) {
				return true
			}
		}
		return false
	default: // zoneOr
		for i := range n.kids {
			if !n.kids[i].refuted(zones) {
				return false
			}
		}
		return true
	}
}

// zones gathers the scan's conjuncts' refutation trees and the sorted union
// of the columns they read. No tree means the scan cannot prune. Order does
// not matter: the trees combine with AND.
func (tb *tableBinding) zones() ([]*zoneNode, []int) {
	var nodes []*zoneNode
	var cols []int
	for _, c := range tb.conjs {
		n, ncols := c.zones()
		if n == nil {
			continue
		}
		nodes = append(nodes, n)
		for _, col := range ncols {
			if i, found := slices.BinarySearch(cols, col); !found {
				cols = slices.Insert(cols, i, col)
			}
		}
	}
	return nodes, cols
}

// zoneBuf returns a scan's zone buffer for cols: one entry per schema
// column up to the last one read.
func zoneBuf(cols []int) []storage.ZoneMap {
	if len(cols) == 0 {
		return nil
	}
	return make([]storage.ZoneMap, cols[len(cols)-1]+1)
}

// segmentRefuted tests one segment of a view against the compiled
// predicates, reusing zbuf (zoneBuf(cols)). Empty segments (live == 0) are
// refuted unconditionally. Conjuncts combine with AND: any refuted
// predicate kills the segment.
func segmentRefuted(v *storage.View, seg int, preds []*zoneNode, cols []int, zbuf []storage.ZoneMap) bool {
	if len(preds) == 0 {
		return v.Zones(seg, nil, nil) == 0
	}
	if v.Zones(seg, cols, zbuf) == 0 {
		return true
	}
	// Zones lays column cols[i]'s zone at i. cols is ascending and
	// distinct, so cols[i] >= i: moving them to their columns from the last
	// down overwrites only entries already moved.
	for i := len(cols) - 1; i >= 0; i-- {
		zbuf[cols[i]] = zbuf[i]
	}
	for _, p := range preds {
		if p.refuted(zbuf) {
			return true
		}
	}
	return false
}

// segmentStats counts, against the current heap, the segments the plan's
// zone predicates would prune versus scan — the planner-side estimate
// EXPLAIN reports before any tuple is touched.
func (p *accessPlan) segmentStats(t *storage.Table) (pruned, total int) {
	if p.Kind != AccessSeq {
		return 0, 0
	}
	v := t.View()
	total = v.NumSegments()
	zbuf := zoneBuf(p.zoneCols)
	for seg := 0; seg < total; seg++ {
		if segmentRefuted(v, seg, p.zonePreds, p.zoneCols, zbuf) {
			pruned++
		}
	}
	return pruned, total
}
