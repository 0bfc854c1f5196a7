package engine

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Cost factors for access-path choice, in units of "sequential tuple
// reads". Random (index-driven) heap fetches cost more than sequential
// ones; bitmap scans read the heap in slot order and land in between. The
// ratios are the classic planner defaults, not measurements. The middleware
// prices its §5.5 index strategies with RandAccessFactor too.
const (
	RandAccessFactor   = 2.0
	bitmapAccessFactor = 1.4
)

// sarg is a sargable single-column predicate: either a set of equality
// points (col = v, col IN (...)) or a range. col names the column, slot is
// its offset in the table's schema.
type sarg struct {
	col      string
	slot     int
	points   []storage.Value
	lo, hi   storage.Value
	loS, hiS bool
	isRange  bool
}

// sargOf recognises an index-usable predicate over a column of the scan's
// own row, read through the compiler's resolver: col op literal (and
// flipped), col BETWEEN lit AND lit, col IN (literals). Points are cut from
// arena when it is given, so a pass over a guard disjunction allocates them
// once.
func (vc *vecCompiler) sargOf(e sqlparser.Expr, arena *[]storage.Value) (s sarg, ok bool) {
	switch x := e.(type) {
	case *sqlparser.CompareExpr:
		op := x.Op
		lit, okR := literal(x.R)
		if s.slot, ok = vc.column(x.L); !ok || !okR {
			// try the flipped orientation: literal op col
			op = x.Op.Flip()
			if lit, okR = literal(x.L); okR {
				s.slot, ok = vc.column(x.R)
			}
		}
		if !ok || !okR || lit.IsNull() {
			return sarg{}, false
		}
		switch op {
		case sqlparser.CmpEq:
			s.points = addPoint(arena, nil, lit)
		case sqlparser.CmpLt:
			s.isRange, s.lo, s.hi, s.hiS = true, storage.Null, lit, true
		case sqlparser.CmpLe:
			s.isRange, s.lo, s.hi = true, storage.Null, lit
		case sqlparser.CmpGt:
			s.isRange, s.lo, s.loS, s.hi = true, lit, true, storage.Null
		case sqlparser.CmpGe:
			s.isRange, s.lo, s.hi = true, lit, storage.Null
		default:
			return sarg{}, false
		}
	case *sqlparser.BetweenExpr:
		lo, okLo := literal(x.Lo)
		hi, okHi := literal(x.Hi)
		if s.slot, ok = vc.column(x.E); !ok || x.Not || !okLo || !okHi {
			return sarg{}, false
		}
		s.isRange, s.lo, s.hi = true, lo, hi
	case *sqlparser.InExpr:
		if s.slot, ok = vc.column(x.E); !ok || x.Not || x.Sub != nil {
			return sarg{}, false
		}
		for _, item := range x.List {
			if v, ok := literal(item); !ok || v.IsNull() {
				return sarg{}, false
			}
		}
		for _, item := range x.List {
			v, _ := literal(item)
			s.points = addPoint(arena, s.points, v)
		}
	default:
		return sarg{}, false
	}
	s.col = vc.frame.Cols[s.slot].Name
	return s, true
}

// addPoint appends v to pts, the points cut so far from the end of arena,
// or, with no arena, to pts itself.
func addPoint(arena *[]storage.Value, pts []storage.Value, v storage.Value) []storage.Value {
	if arena == nil {
		return append(pts, v)
	}
	start := len(*arena) - len(pts)
	*arena = append(*arena, v)
	return (*arena)[start:len(*arena):len(*arena)]
}

// estimator prices sargs against one table for one planning pass: the
// statistics are looked up (and refreshed when stale) at the first sarg
// priced, not at every one.
type estimator struct {
	db       *DB
	t        *storage.Table
	stats    *storage.TableStats
	analyzed bool
	looked   bool
}

// sel returns the selectivity of a sarg in [0,1], preferring the ANALYZE
// histogram (like the paper, §4 fn 5) and falling back to an exact index
// probe when statistics are absent.
func (e *estimator) sel(s sarg) float64 {
	n := e.t.NumRows()
	if n == 0 {
		return 0
	}
	if !e.looked {
		e.stats, e.analyzed = e.db.StatsRefreshed(e.t.Name)
		e.looked = true
	}
	if e.analyzed {
		if _, hasHist := e.stats.Histograms[s.col]; hasHist {
			if s.isRange {
				return e.stats.SelectivityRange(s.col, s.lo, s.hi)
			}
			sel := 0.0
			for _, p := range s.points {
				sel += e.stats.SelectivityEq(s.col, p)
			}
			return clampSel(sel)
		}
	}
	if _, ok := e.t.Index(s.col); ok {
		cnt := 0
		if s.isRange {
			cnt, _ = e.t.CountRange(s.col, s.lo, s.loS, s.hi, s.hiS)
		} else {
			for _, p := range s.points {
				c, _ := e.t.CountRange(s.col, p, false, p, false)
				cnt += c
			}
		}
		return clampSel(float64(cnt) / float64(n))
	}
	if s.isRange {
		return 1.0 / 3.0
	}
	return 0.1
}

func clampSel(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// fetchSargs resolves the union of the sargs' index lookups — one per
// point, one per range — through the view's captured indexes, so the ids stay
// resolvable against the same heap even if a Compact lands mid-query, and
// under the view's read lock, so a concurrent writer's in-place index
// maintenance lands before or after them. One
// lookup appends its ids, which arrive as one run in key order; two or more
// mark one bitmap over the view's heap slots, which the fetch walks in heap
// order with no duplicate and nothing to sort.
func fetchSargs(v *storage.View, c *Counters, sargs []sarg) idCursor {
	v.RLock()
	defer v.RUnlock()
	if lookups(sargs) < 2 {
		var ids []storage.RowID
		for _, s := range sargs {
			idx, ok := v.Index(s.col)
			if !ok {
				continue
			}
			c.IndexLookups++
			if s.isRange {
				ids = idx.Range(ids, s.lo, s.loS, s.hi, s.hiS)
			} else {
				ids = idx.Eq(ids, s.points[0])
			}
		}
		return idCursor{list: ids}
	}
	slots := v.NumSlots()
	bm := getBitmap(slots)
	for _, s := range sargs {
		idx, ok := v.Index(s.col)
		if !ok {
			continue
		}
		if s.isRange {
			c.IndexLookups++
			idx.RangeBits(bm.words, slots, s.lo, s.loS, s.hi, s.hiS)
			continue
		}
		for _, p := range s.points {
			c.IndexLookups++
			idx.EqBits(bm.words, slots, p)
		}
	}
	return idCursor{bm: bm, buf: bm.ids}
}

// lookups counts the index lookups fetchSargs makes for sargs.
func lookups(sargs []sarg) int {
	n := 0
	for _, s := range sargs {
		if s.isRange {
			n++
		} else {
			n += len(s.points)
		}
	}
	return n
}

// AccessKind labels the access path in EXPLAIN output.
type AccessKind string

// Access kinds reported by EXPLAIN.
const (
	AccessSeq      AccessKind = "seq"
	AccessIndex    AccessKind = "index"
	AccessBitmapOr AccessKind = "bitmap-or"
	AccessDerived  AccessKind = "derived"
)

// accessPlan is the planner's decision for one base-table FROM entry.
type accessPlan struct {
	Kind   AccessKind
	Index  string  // driving index column(s), comma-joined for bitmap OR
	EstSel float64 // estimated fraction of the table fetched
	// fetch opens a cursor over the candidate row ids resolved through the
	// scan's heap view; nil for sequential scans.
	fetch func(v *storage.View, c *Counters) idCursor
	// zonePreds are the conjuncts' zone-refutation trees a sequential scan
	// uses to skip whole segments, and zoneCols the sorted union of the
	// schema columns they read (nil when nothing in the conjuncts can
	// refute, and on every index plan).
	zonePreds []*zoneNode
	zoneCols  []int
}

// planEpoch is the state of a table that an access-path choice is priced
// against: its mutation count (which every insert, update and delete
// moves, and with it the row count), its index-set epoch (which
// CreateIndex moves), and the statistics Analyze last published for it.
// The table itself is not part of it: a binding is built over one table,
// which is never dropped or replaced. A choice made under one epoch is the
// choice planAccess makes again until one of them moves. Every choice is
// sound whatever the epoch — an index is never dropped, and a fetch
// resolves through the scan's own view — so a stale one costs time, never
// rows.
type planEpoch struct {
	muts  int64
	idxs  int64
	stats *storage.TableStats
}

// epochOf reads t's current epoch. It takes the statistics without the
// auto-analyze refresh: a refresh made while pricing publishes new
// statistics, so the choice stored under the old ones is priced again at
// the next execution.
func epochOf(db *DB, t *storage.Table) planEpoch {
	stats, _ := db.Stats(t.Name)
	return planEpoch{muts: t.Mutations(), idxs: t.IndexEpoch(), stats: stats}
}

// tableBinding is what filtering one FROM entry, and planning a base-table
// one, take from the statement and the schema alone: the entry's name, its
// binding and schema, the scan's conjuncts (Conjunct, shared.go), each of
// which derives its own sarg, union candidates, zone tree and compiled
// predicate, and the compiled filter. The bind pass builds it in the entry
// (boundSource); a prepared statement keeps it (planCache) and every
// execution, on any goroutine, shares it. What depends on statistics,
// indexes and data, the access-path choice, it memoizes under the table's
// epoch (planEpoch): an execution re-plans only after a write to the table,
// a new index or new statistics.
type tableBinding struct {
	name   string
	b      *binding
	schema *RelSchema
	// conjs are a base-table scan's conjuncts in placement order: a
	// registered one is its registration, the statement's own live in
	// their core's one slice (boundCore.own).
	conjs []*Conjunct

	progOnce sync.Once
	prog     *vecProgram // nil: nothing to filter

	planned atomic.Pointer[boundPlan]
}

// boundPlan is a binding's access-path choice and the epoch it was made
// under.
type boundPlan struct {
	epoch planEpoch
	plan  accessPlan
}

// access returns the binding's access path over t under hint: the memoized
// choice while t's epoch stands, planAccess's afresh otherwise. The hint is
// the FROM entry's own, as fixed as the binding. Two executions racing past
// a stale memo both plan, and store, the same choice.
func (tb *tableBinding) access(db *DB, t *storage.Table, hint *sqlparser.IndexHint) accessPlan {
	epoch := epochOf(db, t)
	if bp := tb.planned.Load(); bp != nil && bp.epoch == epoch {
		return bp.plan
	}
	plan := planAccess(db, t, tb, hint)
	tb.planned.Store(&boundPlan{epoch: epoch, plan: plan})
	return plan
}

// program returns the conjuncts' compiled vector filter, compiled by the
// first execution to filter a batch: Explain binds and plans but runs
// nothing.
func (tb *tableBinding) program(db *DB) *vecProgram {
	tb.progOnce.Do(func() { tb.prog = db.compileScanFilter(tb) })
	return tb.prog
}

// parallelSafe reports whether the filter may run on fan-out workers: a
// subquery reads and fills the executor's unsynchronised CTE scope and kept
// results, so a conjunct that holds one keeps the scan on the consumer's
// goroutine. A UDF call — the Δ path — may run on fan-out workers:
// registered UDFs must be safe for concurrent use.
func (tb *tableBinding) parallelSafe() bool {
	for _, c := range tb.conjs {
		if c.serial {
			return false
		}
	}
	return len(tb.conjs) > 0
}

// orClause is what a disjunctive conjunct offers an index union: for every
// disjunct, its conjuncts that are sargs, extracted once per Conjunct so
// that planAccess only prices them.
type orClause struct {
	sargs []sarg // disjunct by disjunct
	ends  []int  // disjunct i's candidates are sargs[ends[i-1]:ends[i]]
}

// orClause extracts the candidates of a conjunct's disjuncts, cutting every
// point from one arena.
func (vc *vecCompiler) orClause(disjuncts []sqlparser.Expr) orClause {
	oc := orClause{sargs: make([]sarg, 0, len(disjuncts)), ends: make([]int, len(disjuncts))}
	points := make([]storage.Value, 0, len(disjuncts))
	for i, d := range disjuncts {
		inOrder(d, sqlparser.OpAnd, func(conj sqlparser.Expr) bool {
			if s, ok := vc.sargOf(conj, &points); ok {
				oc.sargs = append(oc.sargs, s)
			}
			return true
		})
		oc.ends[i] = len(oc.sargs)
	}
	return oc
}

// orBranches prices a disjunctive conjunct as an index union in one pass:
// for each disjunct it records in picks (len(oc.ends) long) the position in
// oc.sargs of its most selective sarg on an indexed (and, when restricted,
// hinted) column, and sums their selectivities. ok is false if any disjunct
// lacks such a sarg — then the disjunction cannot drive an index union and
// must be a filter.
func orBranches(est *estimator, oc orClause, allowed map[string]bool, picks []int) (sel float64, ok bool) {
	t := est.t
	from := 0
	for i, end := range oc.ends {
		best, bestSel := -1, 2.0
		for j := from; j < end; j++ {
			s := &oc.sargs[j]
			if _, indexed := t.Index(s.col); !indexed {
				continue
			}
			if allowed != nil && !allowed[s.col] {
				continue
			}
			if sj := est.sel(*s); sj < bestSel {
				best, bestSel = j, sj
			}
		}
		if best < 0 {
			return 0, false
		}
		picks[i] = best
		sel += bestSel
		from = end
	}
	return sel, true
}

// orUnionPlan is the bitmap OR plan over the sargs of oc that picks names:
// the branch list is copied out here, for the one union planAccess keeps.
func orUnionPlan(oc orClause, picks []int, sel float64) accessPlan {
	branches := make([]sarg, len(picks))
	var names []string
	for i, j := range picks {
		branches[i] = oc.sargs[j]
		if !slices.Contains(names, branches[i].col) {
			names = append(names, branches[i].col)
		}
	}
	return accessPlan{
		Kind:   AccessBitmapOr,
		Index:  strings.Join(names, ","),
		EstSel: sel,
		fetch: func(v *storage.View, c *Counters) idCursor {
			c.BitmapOrScans++
			return fetchSargs(v, c, branches)
		},
	}
}

// planAccess chooses the access path for one base table given its binding.
// The hint is honoured only on dialects that honour hints (§5.3). Zone
// predicates are asked for on the sequential path alone. Execution reaches
// it through tableBinding.access, which keeps the choice per table epoch.
func planAccess(db *DB, t *storage.Table, tb *tableBinding, hint *sqlparser.IndexHint) accessPlan {
	n := float64(t.NumRows())
	seqPlan := func() accessPlan {
		seq := accessPlan{Kind: AccessSeq, EstSel: 1}
		seq.zonePreds, seq.zoneCols = tb.zones()
		return seq
	}
	if n == 0 {
		return seqPlan()
	}

	honored := hint != nil && db.dialect.HonorsIndexHints()
	if honored && hint.Kind == sqlparser.HintUse && len(hint.Indexes) == 0 {
		return seqPlan() // USE INDEX (): the LinearScan rewrite
	}
	var allowed map[string]bool
	forced := false
	if honored {
		allowed = make(map[string]bool, len(hint.Indexes))
		for _, ix := range hint.Indexes {
			allowed[ix] = true
		}
		forced = hint.Kind == sqlparser.HintForce
	}
	est := &estimator{db: db, t: t}

	// Candidate single-index sargs on indexed (and allowed) columns.
	type cand struct {
		s   sarg
		sel float64
	}
	var best *cand
	for _, c := range tb.conjs {
		s, ok := c.sargable()
		if !ok {
			continue
		}
		if _, indexed := t.Index(s.col); !indexed {
			continue
		}
		if allowed != nil && !allowed[s.col] {
			continue
		}
		sel := est.sel(s)
		if best == nil || sel < best.sel {
			best = &cand{s: s, sel: sel}
		}
	}

	// Disjunction candidates: index-union of the branches of an OR. Used by
	// the postgres dialect's bitmap OR scan, and by the mysql dialect when
	// FORCE INDEX lists the branch indexes (index_merge union, the §5.6
	// combined rewrite form). Each clause is priced into a picks buffer; the
	// cheapest clause's picks are kept, and its plan — the branch list — is
	// built only if the union is chosen.
	var orBest orClause
	var orPicks []int // the kept union's picks; nil: no union
	orSel := 0.0
	if db.dialect.SupportsBitmapOr() || forced {
		width := 0
		for _, c := range tb.conjs {
			width = max(width, len(c.orClause().ends))
		}
		var picks []int
		for _, c := range tb.conjs {
			oc := c.orClause()
			if len(oc.ends) < 2 {
				continue
			}
			if picks == nil {
				picks = make([]int, width)
			}
			sel, ok := orBranches(est, oc, allowed, picks[:len(oc.ends)])
			if !ok || orPicks != nil && clampSel(sel) >= orSel {
				continue
			}
			// The next clause prices into the other buffer.
			orBest, orSel = oc, clampSel(sel)
			orPicks, picks = picks[:len(oc.ends)], orPicks[:cap(orPicks)]
		}
	}

	mkIndexPlan := func(c cand) accessPlan {
		ss := []sarg{c.s}
		return accessPlan{
			Kind:   AccessIndex,
			Index:  c.s.col,
			EstSel: c.sel,
			fetch: func(v *storage.View, cn *Counters) idCursor {
				cn.IndexScans++
				return fetchSargs(v, cn, ss)
			},
		}
	}

	if forced {
		// The optimizer must use one of the listed indexes if at all possible.
		if best != nil && orPicks != nil {
			if best.sel*RandAccessFactor <= orSel*bitmapAccessFactor {
				return mkIndexPlan(*best)
			}
			return orUnionPlan(orBest, orPicks, orSel)
		}
		if best != nil {
			return mkIndexPlan(*best)
		}
		if orPicks != nil {
			return orUnionPlan(orBest, orPicks, orSel)
		}
		return seqPlan() // nothing sargable on the forced indexes; degenerate to scan
	}

	// Cost-based choice.
	cost := n
	useIndex, useOr := false, false
	if best != nil {
		if c := best.sel * n * RandAccessFactor; c < cost {
			cost, useIndex = c, true
		}
	}
	if orPicks != nil {
		useOr = orSel*n*bitmapAccessFactor < cost
	}
	switch {
	case useOr:
		return orUnionPlan(orBest, orPicks, orSel)
	case useIndex:
		return mkIndexPlan(*best)
	}
	return seqPlan()
}
