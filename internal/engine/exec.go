package engine

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Result is a materialised query result: a thin wrapper that collects the
// streaming executor's output. Callers that do not need every row at once
// should prefer the streaming surface (DB.StreamStmt and Rows).
type Result struct {
	Columns []string
	Rows    []storage.Row
}

// cteEntry is one WITH-clause relation visible in a scope. An entry is
// either materialised (res set) or lazy (stmt set): a lazy entry is
// registered when the CTE is referenced exactly once and outside any
// expression subquery, and is opened as a stream by that single consumer.
// LIMIT satisfaction and early Rows.Close then terminate the CTE body's
// scan instead of paying to materialise it — the §5.3 guarded projections
// are exactly such single-use CTEs.
type cteEntry struct {
	res      *Result
	stmt     *sqlparser.SelectStmt
	sc       *scope
	outer    *env
	streamed bool
}

// scope tracks the relations visible by name beyond the catalog: WITH
// clauses, nested per statement.
type scope struct {
	parent *scope
	rels   map[string]*cteEntry
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, rels: make(map[string]*cteEntry)}
}

func (sc *scope) lookup(name string) (*cteEntry, bool) {
	for cur := sc; cur != nil; cur = cur.parent {
		if e, ok := cur.rels[name]; ok {
			return e, true
		}
	}
	return nil, false
}

// ctxCheckInterval is how many executor ticks (roughly, per-row
// operations) pass between context polls: cancellation and deadlines are
// honoured within this many rows of work.
const ctxCheckInterval = 64

// executor runs one statement tree. It is not safe for concurrent use;
// every query gets its own executor with its own work counters, merged
// into the DB's accumulators when the query finishes (flush), so
// concurrent sessions never contend on counter updates mid-query.
type executor struct {
	db       *DB
	ctx      context.Context
	counters *Counters // points at local
	local    Counters
	tick     int
	flushed  bool
	// cache is the Prepared's plan cache when the statement is one; nil
	// when every binding is derived for this execution alone.
	cache *planCache
	// lists and subqs are what the row evaluator keeps for the rest of
	// the execution: literal IN lists as sets (nil for a list with an
	// expression in it), and expression subqueries' outcomes (subquery).
	lists map[*sqlparser.InExpr]*memberSet
	subqs map[subqKey]*subqResult

	// Trace spans, resolved once from ctx at construction; all nil when
	// tracing is off, so the scan hot paths pay a single nil check.
	// span is the engine's "scan" phase; spPrune and spVector are its
	// zone-refutation and vectorised-batch sub-phases. Pre-resolving
	// avoids a name lookup per segment.
	span     *obs.Span
	spPrune  *obs.Span
	spVector *obs.Span
}

// newExecutor builds a per-query executor bound to ctx.
func (db *DB) newExecutor(ctx context.Context) *executor {
	return new(executor).init(ctx, db)
}

// init binds a zero executor to ctx and db and returns it; a Rows holds
// its executor inline, so a query allocates the two as one. When ctx
// carries a trace span, the executor's work is attributed to a "scan"
// child.
func (ex *executor) init(ctx context.Context, db *DB) *executor {
	ex.db, ex.ctx = db, ctx
	ex.counters = &ex.local
	if sp := obs.SpanFrom(ctx); sp != nil {
		ex.span = sp.Child("scan")
		ex.spPrune = ex.span.Child("prune")
		ex.spVector = ex.span.Child("vector")
	}
	return ex
}

// checkCtx polls the context every ctxCheckInterval ticks.
func (ex *executor) checkCtx() error {
	ex.tick++
	if ex.tick%ctxCheckInterval != 0 {
		return nil
	}
	return ex.ctxErr()
}

// ctxErr polls the context now: the per-batch check of the scan operator,
// where a tick is hundreds of rows of work.
func (ex *executor) ctxErr() error {
	if ex.ctx == nil {
		return nil
	}
	return ex.ctx.Err()
}

// flush merges the executor's work counters into the DB's accumulators;
// idempotent, so a Rows may release more than once.
func (ex *executor) flush(db *DB) {
	if ex.flushed {
		return
	}
	ex.flushed = true
	db.countersMu.Lock()
	db.Counters.Add(ex.local)
	db.countersMu.Unlock()
}

// selectStmt materialises a statement's full result.
func (ex *executor) selectStmt(s *sqlparser.SelectStmt, sc *scope, outer *env) (*Result, error) {
	cols, it, err := ex.stmtIter(s, sc, outer)
	if err != nil {
		return nil, err
	}
	rows, err := drainIter(it)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: cols, Rows: rows}, nil
}

// subqKey names an expression subquery evaluated in one scope. The same node
// in another scope is another subquery: one nested in a correlated subquery
// with a WITH clause sees that clause bound afresh on every run.
type subqKey struct {
	stmt *sqlparser.SelectStmt
	sc   *scope
}

// subqResult is an uncorrelated subquery's result, kept for the rest of the
// execution, with its IN set once one is built; a nil *subqResult records
// that the subquery is correlated.
type subqResult struct {
	res *Result
	set *memberSet
}

// subquery runs an expression subquery — IN, EXISTS, scalar, and with the
// last the §3.1 derived-value conditions of inlined guard arms — as seen
// from the row env outer, running it once per execution when its result
// cannot depend on that row. Correlation is observed, not inferred: the
// first run goes through a boundary env (no schema), and its result is kept
// (and returned as kept) only if no column lookup resolved past the
// boundary — a run that read nothing of the enclosing rows computes the
// same result for every one of them. Otherwise the subquery runs again for
// every row, as SQL defines it. One execution is one read: a kept result
// does not see rows inserted while the statement runs, and its work is
// counted once.
func (ex *executor) subquery(s *sqlparser.SelectStmt, sc *scope, outer *env) (res *Result, kept *subqResult, err error) {
	k := subqKey{s, sc}
	if prior, seen := ex.subqs[k]; seen {
		if prior != nil {
			return prior.res, prior, nil
		}
		res, err = ex.selectStmt(s, sc, outer)
		return res, nil, err
	}
	boundary := &env{outer: outer}
	if res, err = ex.selectStmt(s, sc, boundary); err != nil {
		return nil, nil, err
	}
	if !boundary.reached.Load() {
		kept = &subqResult{res: res}
	}
	if ex.subqs == nil {
		ex.subqs = make(map[subqKey]*subqResult)
	}
	ex.subqs[k] = kept
	return res, kept, nil
}

// literalSet returns x's list as a set when every member is a literal,
// built at the executor's first use of it; nil otherwise.
func (ex *executor) literalSet(x *sqlparser.InExpr) *memberSet {
	set, seen := ex.lists[x]
	if seen {
		return set
	}
	if vals, ok := literals(x.List); ok {
		set = newMemberSet(vals)
	}
	if ex.lists == nil {
		ex.lists = make(map[*sqlparser.InExpr]*memberSet)
	}
	ex.lists[x] = set
	return set
}

// stmtIter opens a statement as a stream of rows: its select cores through
// coreIter, chained by its set operations. UNION [ALL] streams the arms one
// after another, UNION deduping them; MINUS streams its left side, deduped,
// past the set of its right arm's rows, drained at the first Next.
func (ex *executor) stmtIter(s *sqlparser.SelectStmt, sc *scope, outer *env) ([]string, rowIter, error) {
	lazy := ex.lazyCTEs(s)
	// Each CTE gets its own scope link whose parent holds only the
	// *earlier* CTEs: a body's reference to a later sibling must resolve
	// past the WITH clause (to a base table, or fail) exactly as under
	// eager in-order evaluation, even when the body runs lazily later.
	for _, cte := range s.With {
		entry := &cteEntry{}
		if lazy[cte.Name] {
			entry.stmt, entry.sc, entry.outer = cte.Select, sc, outer
		} else {
			res, err := ex.selectStmt(cte.Select, sc, outer)
			if err != nil {
				return nil, nil, fmt.Errorf("in WITH %s: %w", cte.Name, err)
			}
			entry.res = res
		}
		next := newScope(sc)
		next.rels[cte.Name] = entry
		sc = next
	}
	cols, it, err := ex.coreIter(s.Body, sc, outer)
	if err != nil {
		return nil, nil, err
	}
	for _, op := range s.Ops {
		armCols, arm, err := ex.coreIter(op.Core, sc, outer)
		if err == nil && len(armCols) != len(cols) {
			arm.Close()
			err = fmt.Errorf("engine: set operation arms have %d vs %d columns", len(cols), len(armCols))
		}
		if err != nil {
			it.Close()
			return nil, nil, err
		}
		switch {
		case op.Kind == sqlparser.SetMinus:
			it = &distinctIter{src: it, minus: arm}
		case op.All:
			it = appendArm(it, arm)
		default:
			// distinct(distinct(x) ++ y) is distinct(x ++ y): a UNION chain
			// is one dedupe over one concatenation.
			if d, ok := it.(*distinctIter); ok && d.minus == nil {
				d.src = appendArm(d.src, arm)
			} else {
				it = &distinctIter{src: appendArm(it, arm)}
			}
		}
	}
	return cols, it, nil
}

// lazyCTENames reports which WITH names may stream: referenced exactly
// once across the whole statement, with that reference in a FROM clause
// rather than inside an expression subquery (a correlated one re-executes
// per outer row and would consume a stream repeatedly).
// Anything else keeps the materialise-up-front semantics.
func lazyCTENames(s *sqlparser.SelectStmt) map[string]bool {
	if len(s.With) == 0 {
		return nil
	}
	total := make(map[string]int)
	inExpr := make(map[string]int)
	// A WITH body sees only the entries before it, so the first body can
	// reference none of this clause's names — and it is the one the policy
	// rewrite fills with the whole guard expression: not walked.
	rest := *s
	rest.With = s.With[1:]
	sqlparser.WalkCores(&rest, func(c *sqlparser.SelectCore, underExpr bool) {
		for _, ref := range c.From {
			if ref.Subquery == nil {
				total[ref.Name]++
				if underExpr {
					inExpr[ref.Name]++
				}
			}
		}
	})
	out := make(map[string]bool, len(s.With))
	for _, cte := range s.With {
		if total[cte.Name] == 1 && inExpr[cte.Name] == 0 {
			out[cte.Name] = true
		}
	}
	return out
}

// rowSet is the executor's one dedupe — DISTINCT's, UNION's and MINUS's:
// the rows seen so far, by their encoding. The zero rowSet is empty.
type rowSet struct {
	seen map[string]struct{}
	kb   []byte // the last row's encoding
}

// add records row and reports whether it was new to s. Only a new row's
// encoding is copied into a key.
func (s *rowSet) add(row storage.Row) bool {
	s.kb = s.kb[:0]
	for _, v := range row {
		s.kb = appendValue(s.kb, v)
	}
	if _, dup := s.seen[string(s.kb)]; dup {
		return false
	}
	if s.seen == nil {
		s.seen = make(map[string]struct{})
	}
	s.seen[string(s.kb)] = struct{}{}
	return true
}

// appendValue appends v's encoding to b: its kind, its payload and a 0, so
// a run of encodings identifies a run of values.
func appendValue(b []byte, v storage.Value) []byte {
	b = append(b, byte(v.K))
	switch v.K {
	case storage.KindString:
		b = append(b, v.S...)
	case storage.KindFloat:
		b = strconv.AppendFloat(b, v.F, 'b', -1, 64)
	case storage.KindNull:
	default:
		b = strconv.AppendInt(b, v.I, 10)
	}
	return append(b, 0)
}

// sourceInfo is a resolved FROM entry: a base table, or the opened stream
// of a derived table or WITH entry.
type sourceInfo struct {
	ref        sqlparser.TableRef
	name       string
	tbl        *storage.Table // base table, or nil
	stream     rowIter        // derived entry's rows, or nil
	streamCols []string
	cols       map[string]bool
}

// resolveSources binds the FROM entries, opening every derived one. Opening
// only builds the pipeline; no rows are read yet.
func (ex *executor) resolveSources(core *sqlparser.SelectCore, sc *scope, outer *env) ([]*sourceInfo, error) {
	sources := make([]*sourceInfo, 0, len(core.From))
	for _, ref := range core.From {
		src := &sourceInfo{ref: ref, name: ref.RefName(), cols: make(map[string]bool)}
		var err error
		switch e, isCTE := sc.lookup(ref.Name); {
		case ref.Subquery != nil:
			src.streamCols, src.stream, err = ex.stmtIter(ref.Subquery, sc, outer)
		case isCTE:
			src.streamCols, src.stream, err = ex.cteStream(e, ref.Name)
		default:
			t, ok := ex.db.Table(ref.Name)
			if !ok {
				err = fmt.Errorf("engine: unknown table %q", ref.Name)
				break
			}
			src.tbl = t
			for _, c := range t.Schema.Columns {
				src.cols[c.Name] = true
			}
		}
		if err != nil {
			for _, s := range sources {
				if s.stream != nil {
					s.stream.Close()
				}
			}
			return nil, err
		}
		for _, c := range src.streamCols {
			src.cols[c] = true
		}
		sources = append(sources, src)
	}
	return sources, nil
}

// cteStream opens the WITH entry e for its reference name: a materialised
// body over its rows, a single-use one as its body's stream.
func (ex *executor) cteStream(e *cteEntry, name string) ([]string, rowIter, error) {
	if e.res != nil {
		return e.res.Columns, &sliceIter{ex: ex, rows: e.res.Rows}, nil
	}
	if e.streamed {
		return nil, nil, fmt.Errorf("engine: internal error: WITH %s stream consumed twice", name)
	}
	cols, it, err := ex.stmtIter(e.stmt, e.sc, e.outer)
	if err != nil {
		return nil, nil, fmt.Errorf("in WITH %s: %w", name, err)
	}
	e.streamed = true
	return cols, &cteIter{src: it, name: name}, nil
}

// refSet computes which local sources an expression references. Qualified
// references match source names; unqualified ones match any source exposing
// the column. References that match nothing are correlated or constant.
func refSet(e sqlparser.Expr, sources []*sourceInfo) map[int]bool {
	set := make(map[int]bool)
	sqlparser.Walk(e, true, func(x sqlparser.Expr) {
		c, ok := x.(*sqlparser.ColRef)
		if !ok {
			return
		}
		for i, s := range sources {
			if c.Table != "" {
				if c.Table == s.name {
					set[i] = true
				}
			} else if s.cols[c.Column] {
				set[i] = true
			}
		}
	})
	return set
}

func qualifySchema(name string, s *storage.Schema) *RelSchema {
	cols := make([]RelCol, s.Len())
	for i, c := range s.Columns {
		cols[i] = RelCol{Table: name, Name: c.Name}
	}
	return &RelSchema{Cols: cols}
}

func qualifyCols(name string, cols []string) *RelSchema {
	out := make([]RelCol, len(cols))
	for i, c := range cols {
		out[i] = RelCol{Table: name, Name: c}
	}
	return &RelSchema{Cols: out}
}

// rowPasses evaluates conjuncts against the row bound to en, rejecting on
// the first conjunct that is not true: the WHERE semantics of filters over
// derived and joined relations, and the reference base tables' compiled
// filters are tested against.
func rowPasses(ev *evaluator, en *env, conjs []sqlparser.Expr) (bool, error) {
	for _, cj := range conjs {
		v, err := ev.eval(cj, en)
		if err != nil {
			return false, err
		}
		if t, _ := truth(v); !t {
			return false, nil
		}
	}
	return true, nil
}

// where filters it, laid out as schema, by conjs row by row; it itself when
// there are none.
func (ex *executor) where(it rowIter, schema *RelSchema, conjs []sqlparser.Expr, sc *scope, outer *env) rowIter {
	if len(conjs) == 0 {
		return it
	}
	return &filterIter{src: it, conjs: conjs, ev: evaluator{ex: ex, scope: sc}, en: env{schema: schema, outer: outer}}
}

// scanSourceIter opens one FROM entry as a stream with its single-source
// conjuncts applied: through the chosen access path and the binding's
// compiled filter for a base table (tb), row by row for a derived one.
func (ex *executor) scanSourceIter(src *sourceInfo, conjs []sqlparser.Expr, tb *tableBinding, sc *scope, outer *env) (*RelSchema, rowIter) {
	if src.stream != nil {
		schema := qualifyCols(src.name, src.streamCols)
		return schema, ex.where(src.stream, schema, conjs, sc, outer)
	}
	plan := tb.access(ex.db, src.tbl, src.ref.Hint)
	if plan.fetch != nil {
		return tb.schema, &fetchIter{ex: ex, t: src.tbl, plan: plan, tb: tb, sc: sc, outer: outer}
	}
	return tb.schema, &scanIter{ex: ex, t: src.tbl, plan: plan, tb: tb, sc: sc, outer: outer}
}

// asEquiJoin recognises cur.col = next.col conjuncts usable as hash-join
// keys, returning the column offsets on each side.
func asEquiJoin(e sqlparser.Expr, cur, next *RelSchema) (int, int, bool) {
	cmp, ok := e.(*sqlparser.CompareExpr)
	if !ok || cmp.Op != sqlparser.CmpEq {
		return 0, 0, false
	}
	lc, lok := cmp.L.(*sqlparser.ColRef)
	rc, rok := cmp.R.(*sqlparser.ColRef)
	if !lok || !rok {
		return 0, 0, false
	}
	if li, err := cur.Resolve(lc.Table, lc.Column); err == nil {
		if ri, err := next.Resolve(rc.Table, rc.Column); err == nil {
			return li, ri, true
		}
	}
	if li, err := cur.Resolve(rc.Table, rc.Column); err == nil {
		if ri, err := next.Resolve(lc.Table, lc.Column); err == nil {
			return li, ri, true
		}
	}
	return 0, 0, false
}

func concatSchemas(a, b *RelSchema) *RelSchema {
	cols := make([]RelCol, 0, len(a.Cols)+len(b.Cols))
	cols = append(cols, a.Cols...)
	cols = append(cols, b.Cols...)
	return &RelSchema{Cols: cols}
}

func concatRows(a, b storage.Row) storage.Row {
	out := make(storage.Row, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// classified is one WHERE conjunct with the set of local sources it
// touches and whether it has been applied somewhere in the pipeline.
type classified struct {
	expr    sqlparser.Expr
	refs    map[int]bool
	applied bool
}

// classifyConjuncts assigns WHERE conjuncts to the sources they can be
// pushed into: constant/correlated conjuncts evaluate with the first
// scan; single-source conjuncts push into their source's scan; the rest
// wait for the join that binds them.
func classifyConjuncts(core *sqlparser.SelectCore, sources []*sourceInfo) ([]classified, [][]sqlparser.Expr) {
	conjuncts := sqlparser.Conjuncts(core.Where)
	perSource := make([][]sqlparser.Expr, len(sources))
	if len(sources) == 1 {
		// Everything lands on the one source, whatever it references; only
		// a join reads the classification.
		perSource[0] = conjuncts
		return nil, perSource
	}
	classifieds := make([]classified, len(conjuncts))
	for i, cj := range conjuncts {
		cl := &classifieds[i]
		cl.expr, cl.refs = cj, refSet(cj, sources)
		switch len(cl.refs) {
		case 0:
			perSource[0] = append(perSource[0], cj)
			cl.applied = true
		case 1:
			for s := range cl.refs {
				perSource[s] = append(perSource[s], cj)
			}
			cl.applied = true
		}
	}
	return classifieds, perSource
}

// joinSources opens the FROM entries as one stream, joined left to right:
// the first entry streams as the probe side of every join and each later
// one is a join's build side, and a multi-source conjunct filters the
// stream as soon as the join that binds it has.
func (ex *executor) joinSources(sources []*sourceInfo, cb *coreBinding, sc *scope, outer *env) (*RelSchema, rowIter) {
	cur, it := ex.scanSourceIter(sources[0], cb.perSource[0], cb.tables[0], sc, outer)
	if len(sources) == 1 {
		return cur, it
	}
	classifieds := slices.Clone(cb.classifieds) // applied is this execution's
	joined := map[int]bool{0: true}
	for i := 1; i < len(sources); i++ {
		next, build := ex.scanSourceIter(sources[i], cb.perSource[i], cb.tables[i], sc, outer)
		joined[i] = true
		join := &joinIter{ex: ex, probe: it, build: build}
		var pending []sqlparser.Expr
		for k := range classifieds {
			cl := &classifieds[k]
			if cl.applied || !subset(cl.refs, joined) {
				continue
			}
			cl.applied = true
			if li, ri, ok := asEquiJoin(cl.expr, cur, next); ok {
				join.lkeys = append(join.lkeys, li)
				join.rkeys = append(join.rkeys, ri)
			} else {
				pending = append(pending, cl.expr)
			}
		}
		cur = concatSchemas(cur, next)
		it = ex.where(join, cur, pending, sc, outer)
	}
	return cur, it
}

// coreIter opens one select core as a stream: scan or join → filter →
// project → [distinct] → [offset] → [limit], producing tuples on demand. A
// grouped or ordered core projects through projectIter, which reads its
// whole input at the first Next.
func (ex *executor) coreIter(core *sqlparser.SelectCore, sc *scope, outer *env) ([]string, rowIter, error) {
	grouped := coreIsGrouped(core)
	sources, err := ex.resolveSources(core, sc, outer)
	if err != nil {
		return nil, nil, err
	}
	schema, it := ex.joinSources(sources, ex.bindCore(core, sources), sc, outer)

	var columns []string
	switch {
	case grouped && core.Star:
		it.Close()
		return nil, nil, fmt.Errorf("engine: SELECT * is not valid with GROUP BY or aggregates")
	case core.Star:
		columns = schema.ColumnNames()
	default:
		columns = ex.outputColumns(core)
	}
	switch {
	case grouped || len(core.OrderBy) > 0:
		it = &projectIter{p: newProjector(ex, core, schema, sc, outer), src: it}
	case !core.Star:
		it = &projIter{src: it, items: core.Items, ev: evaluator{ex: ex, scope: sc}, en: env{schema: schema, outer: outer}}
	}
	if core.Distinct && len(core.OrderBy) == 0 {
		it = &distinctIter{src: it}
	}
	if core.Limit >= 0 {
		if core.Offset > 0 {
			it = &offsetIter{src: it, skip: core.Offset}
		}
		it = &limitIter{src: it, n: core.Limit}
	}
	return columns, it, nil
}

func subset(a, b map[int]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// coreIsGrouped reports whether the core needs grouping semantics: an
// explicit GROUP BY, or aggregates in the select list or HAVING. coreIter
// and the projector both route on this one predicate.
func coreIsGrouped(core *sqlparser.SelectCore) bool {
	if len(core.GroupBy) > 0 {
		return true
	}
	for _, it := range core.Items {
		if containsAggregate(it.Expr) {
			return true
		}
	}
	return core.Having != nil && containsAggregate(core.Having)
}

func (ex *executor) outputColumns(core *sqlparser.SelectCore) []string {
	cols := make([]string, len(core.Items))
	for i, it := range core.Items {
		switch {
		case it.Alias != "":
			cols[i] = it.Alias
		default:
			if c, ok := it.Expr.(*sqlparser.ColRef); ok {
				cols[i] = c.Column
			} else {
				cols[i] = sqlparser.PrintExpr(it.Expr)
			}
		}
	}
	return cols
}
