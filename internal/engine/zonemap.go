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
	slot int  // leaf: index into the compiled column-slot list
	s    sarg // leaf: the predicate to test against the zone
}

// zoneCompiler interns referenced columns into compact slots so the scan
// fetches each segment's zones with one lock acquisition.
type zoneCompiler struct {
	ref    string
	schema *storage.Schema
	cols   []int // schema column offsets, deduped
	slots  map[int]int
}

func newZoneCompiler(ref string, schema *storage.Schema) *zoneCompiler {
	return &zoneCompiler{ref: ref, schema: schema, slots: make(map[int]int)}
}

func (zc *zoneCompiler) slotFor(col string) int {
	ci := zc.schema.ColumnIndex(col)
	if s, ok := zc.slots[ci]; ok {
		return s
	}
	s := len(zc.cols)
	zc.cols = append(zc.cols, ci)
	zc.slots[ci] = s
	return s
}

// compile translates e into a refutation tree; ok is false when no part of
// e can ever refute a segment.
func (zc *zoneCompiler) compile(e sqlparser.Expr) (zoneNode, bool) {
	if disj := sqlparser.Disjuncts(e); len(disj) > 1 {
		kids := make([]zoneNode, 0, len(disj))
		for _, d := range disj {
			k, ok := zc.compile(d)
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
			if k, ok := zc.compile(c); ok {
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
	if s, ok := extractSarg(e, zc.ref, zc.schema); ok {
		return zoneNode{op: zoneLeaf, slot: zc.slotFor(s.col), s: s}, true
	}
	return zoneNode{}, false
}

// refuted reports whether the segment's interned zone maps prove no row
// satisfies the node's predicate.
func (n *zoneNode) refuted(zones []storage.ZoneMap) bool {
	switch n.op {
	case zoneFalse:
		return true
	case zoneLeaf:
		z := zones[n.slot]
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

// compileZonePreds compiles the scan's conjuncts into refutation trees plus
// the schema column offsets their leaves reference. An empty tree list
// means the scan cannot prune. A shared conjunct (shared.go) brings its
// tree compiled against slots of its own: the first such tree is placed
// first and its slots seed this compile's, so it is used as it is; the rest
// compile here. Order does not matter: the trees combine with AND.
func compileZonePreds(conjs []sqlparser.Expr, ref string, schema *storage.Schema, shared []*SharedFilter) ([]zoneNode, []int) {
	zc := newZoneCompiler(ref, schema)
	var nodes []zoneNode
	seeded := -1
	for i, sf := range shared {
		if sf == nil {
			continue
		}
		if n, cols, ok := sf.zones(); ok {
			nodes = append(nodes, n)
			zc.cols = slices.Clip(cols) // appending copies: the shared slice stays as it is
			for s, c := range cols {
				zc.slots[c] = s
			}
			seeded = i
			break
		}
	}
	for i, cj := range conjs {
		if i == seeded {
			continue
		}
		if sf := shared[i]; sf != nil {
			if _, _, ok := sf.zones(); !ok {
				continue // refutes nothing: compiled once already
			}
		}
		if n, ok := zc.compile(cj); ok {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		return nil, nil
	}
	return nodes, zc.cols
}

// segmentRefuted tests one segment of a view against the compiled
// predicates, reusing zbuf (len(cols)). Empty segments (live == 0) are
// refuted unconditionally. Conjuncts combine with AND: any refuted
// predicate kills the segment.
func segmentRefuted(v *storage.View, seg int, preds []zoneNode, cols []int, zbuf []storage.ZoneMap) bool {
	if len(preds) == 0 {
		return v.Zones(seg, nil, nil) == 0
	}
	if v.Zones(seg, cols, zbuf) == 0 {
		return true
	}
	for i := range preds {
		if preds[i].refuted(zbuf) {
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
	zbuf := make([]storage.ZoneMap, len(p.zoneCols))
	for seg := 0; seg < total; seg++ {
		if segmentRefuted(v, seg, p.zonePreds, p.zoneCols, zbuf) {
			pruned++
		}
	}
	return pruned, total
}
