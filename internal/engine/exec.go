package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

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

// rel is an intermediate relation during execution.
type rel struct {
	schema *RelSchema
	rows   []storage.Row
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

// stmtIter opens a statement as a stream of rows. Set operations (UNION /
// MINUS) materialise their arms; plain selects stream through coreIter.
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
	if len(s.Ops) == 0 {
		return ex.coreIter(s.Body, sc, outer)
	}
	res, err := ex.coreResult(s.Body, sc, outer)
	if err != nil {
		return nil, nil, err
	}
	for _, op := range s.Ops {
		arm, err := ex.coreResult(op.Core, sc, outer)
		if err != nil {
			return nil, nil, err
		}
		if len(arm.Columns) != len(res.Columns) {
			return nil, nil, fmt.Errorf("engine: set operation arms have %d vs %d columns", len(res.Columns), len(arm.Columns))
		}
		switch op.Kind {
		case sqlparser.SetUnion:
			res = unionResults(res, arm, op.All)
		case sqlparser.SetMinus:
			res = minusResults(res, arm)
		}
	}
	return res.Columns, &sliceIter{ex: ex, rows: res.Rows}, nil
}

// coreResult materialises one select core.
func (ex *executor) coreResult(core *sqlparser.SelectCore, sc *scope, outer *env) (*Result, error) {
	cols, it, err := ex.coreIter(core, sc, outer)
	if err != nil {
		return nil, err
	}
	rows, err := drainIter(it)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: cols, Rows: rows}, nil
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

func unionResults(l, r *Result, all bool) *Result {
	out := &Result{Columns: l.Columns}
	if all {
		out.Rows = append(append(out.Rows, l.Rows...), r.Rows...)
		return out
	}
	seen := make(map[string]struct{}, len(l.Rows)+len(r.Rows))
	for _, rows := range [][]storage.Row{l.Rows, r.Rows} {
		for _, row := range rows {
			k := rowKey(row)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

func minusResults(l, r *Result) *Result {
	drop := make(map[string]struct{}, len(r.Rows))
	for _, row := range r.Rows {
		drop[rowKey(row)] = struct{}{}
	}
	out := &Result{Columns: l.Columns}
	seen := make(map[string]struct{}, len(l.Rows))
	for _, row := range l.Rows {
		k := rowKey(row)
		if _, d := drop[k]; d {
			continue
		}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out.Rows = append(out.Rows, row)
	}
	return out
}

func rowKey(r storage.Row) string {
	var b strings.Builder
	for _, v := range r {
		encodeValue(&b, v)
	}
	return b.String()
}

func encodeValue(b *strings.Builder, v storage.Value) {
	b.WriteByte(byte(v.K))
	switch v.K {
	case storage.KindString:
		b.WriteString(v.S)
	case storage.KindFloat:
		b.WriteString(strconv.FormatFloat(v.F, 'b', -1, 64))
	case storage.KindNull:
	default:
		b.WriteString(strconv.FormatInt(v.I, 10))
	}
	b.WriteByte(0)
}

// sourceInfo is a resolved FROM entry.
type sourceInfo struct {
	ref        sqlparser.TableRef
	name       string
	tbl        *storage.Table // base table, or nil
	res        *Result        // materialised derived table / CTE, or nil
	stream     rowIter        // opened single-use CTE stream, or nil
	streamCols []string
	cols       map[string]bool
}

// resolveSources binds the FROM entries.
func (ex *executor) resolveSources(core *sqlparser.SelectCore, sc *scope, outer *env) ([]*sourceInfo, error) {
	sources := make([]*sourceInfo, 0, len(core.From))
	for _, ref := range core.From {
		src := &sourceInfo{ref: ref, name: ref.RefName(), cols: make(map[string]bool)}
		switch {
		case ref.Subquery != nil:
			res, err := ex.selectStmt(ref.Subquery, sc, outer)
			if err != nil {
				return nil, err
			}
			src.res = res
			for _, c := range res.Columns {
				src.cols[c] = true
			}
		default:
			if e, ok := sc.lookup(ref.Name); ok {
				if e.res == nil && !e.streamed {
					// Single-use CTE: open its body as a stream. Opening
					// only builds the pipeline; no rows are read yet.
					cols, it, err := ex.stmtIter(e.stmt, e.sc, e.outer)
					if err != nil {
						return nil, fmt.Errorf("in WITH %s: %w", ref.Name, err)
					}
					e.streamed = true
					src.stream = &cteIter{src: it, name: ref.Name}
					src.streamCols = cols
					for _, c := range cols {
						src.cols[c] = true
					}
					break
				}
				res, err := ex.materializeCTE(e, ref.Name)
				if err != nil {
					return nil, err
				}
				src.res = res
				for _, c := range res.Columns {
					src.cols[c] = true
				}
				break
			}
			t, ok := ex.db.Table(ref.Name)
			if !ok {
				return nil, fmt.Errorf("engine: unknown table %q", ref.Name)
			}
			src.tbl = t
			for _, c := range t.Schema.Columns {
				src.cols[c.Name] = true
			}
		}
		sources = append(sources, src)
	}
	return sources, nil
}

// materializeCTE runs a lazy WITH body to completion and caches the
// result for further references.
func (ex *executor) materializeCTE(e *cteEntry, name string) (*Result, error) {
	if e.res != nil {
		return e.res, nil
	}
	if e.streamed {
		return nil, fmt.Errorf("engine: internal error: WITH %s stream consumed twice", name)
	}
	res, err := ex.selectStmt(e.stmt, e.sc, e.outer)
	if err != nil {
		return nil, fmt.Errorf("in WITH %s: %w", name, err)
	}
	e.res = res
	return res, nil
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

func qualifyResult(name string, res *Result) *rel {
	return &rel{schema: qualifyCols(name, res.Columns), rows: res.Rows}
}

// rowPasses evaluates conjuncts against one row laid out as schema,
// rejecting on the first conjunct that is not true: the WHERE semantics of
// filters over derived and joined relations, and the reference base tables'
// compiled filters are tested against.
func rowPasses(ev *evaluator, schema *RelSchema, row storage.Row, conjs []sqlparser.Expr, outer *env) (bool, error) {
	en := &env{schema: schema, row: row, outer: outer}
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

// filterRel keeps rows satisfying every conjunct.
func (ex *executor) filterRel(r *rel, conjs []sqlparser.Expr, sc *scope, outer *env) (*rel, error) {
	if len(conjs) == 0 {
		return r, nil
	}
	ev := &evaluator{ex: ex, scope: sc}
	out := &rel{schema: r.schema}
	for _, row := range r.rows {
		if err := ex.checkCtx(); err != nil {
			return nil, err
		}
		keep, err := rowPasses(ev, r.schema, row, conjs, outer)
		if err != nil {
			return nil, err
		}
		if keep {
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// scanSourceIter opens one FROM entry as a stream with its single-source
// conjuncts applied: through the chosen access path and the binding's
// compiled filter for a base table (tb), row by row for a derived one.
func (ex *executor) scanSourceIter(src *sourceInfo, conjs []sqlparser.Expr, tb *tableBinding, sc *scope, outer *env) (*RelSchema, rowIter, error) {
	ev := &evaluator{ex: ex, scope: sc}
	switch {
	case src.stream != nil:
		schema := qualifyCols(src.name, src.streamCols)
		var it rowIter = src.stream
		if len(conjs) > 0 {
			it = &filterIter{ex: ex, src: it, schema: schema, conjs: conjs, ev: ev, outer: outer}
		}
		return schema, it, nil
	case src.res != nil:
		r := qualifyResult(src.name, src.res)
		var it rowIter = &sliceIter{ex: ex, rows: r.rows}
		if len(conjs) > 0 {
			it = &filterIter{ex: ex, src: it, schema: r.schema, conjs: conjs, ev: ev, outer: outer}
		}
		return r.schema, it, nil
	default:
		plan := tb.access(ex.db, src.tbl, src.ref.Hint)
		if plan.fetch != nil {
			return tb.schema, &fetchIter{ex: ex, t: src.tbl, plan: plan, tb: tb, sc: sc, outer: outer}, nil
		}
		return tb.schema, &scanIter{ex: ex, t: src.tbl, plan: plan, tb: tb, sc: sc, outer: outer}, nil
	}
}

// scanSource materialises one FROM entry (the join path's build input).
func (ex *executor) scanSource(src *sourceInfo, conjs []sqlparser.Expr, tb *tableBinding, sc *scope, outer *env) (*rel, error) {
	schema, it, err := ex.scanSourceIter(src, conjs, tb, sc, outer)
	if err != nil {
		return nil, err
	}
	rows, err := drainIter(it)
	if err != nil {
		return nil, err
	}
	return &rel{schema: schema, rows: rows}, nil
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

// hashJoin joins cur and next on the given key offsets. The hash table is
// built on next (typically the smaller, later FROM entry) and probed with
// cur, preserving cur's row order.
func (ex *executor) hashJoin(cur, next *rel, lkeys, rkeys []int) (*rel, error) {
	out := &rel{schema: concatSchemas(cur.schema, next.schema)}
	table := make(map[string][]storage.Row, len(next.rows))
	var b strings.Builder
	for _, row := range next.rows {
		if err := ex.checkCtx(); err != nil {
			return nil, err
		}
		b.Reset()
		null := false
		for _, k := range rkeys {
			if row[k].IsNull() {
				null = true
				break
			}
			encodeValue(&b, row[k])
		}
		if null {
			continue
		}
		table[b.String()] = append(table[b.String()], row)
	}
	for _, lrow := range cur.rows {
		if err := ex.checkCtx(); err != nil {
			return nil, err
		}
		b.Reset()
		null := false
		for _, k := range lkeys {
			if lrow[k].IsNull() {
				null = true
				break
			}
			encodeValue(&b, lrow[k])
		}
		if null {
			continue
		}
		for _, rrow := range table[b.String()] {
			// Inner-loop tick: a skewed key matching millions of build
			// rows must still honour cancellation within the interval.
			if err := ex.checkCtx(); err != nil {
				return nil, err
			}
			out.rows = append(out.rows, concatRows(lrow, rrow))
		}
	}
	return out, nil
}

func (ex *executor) crossJoin(cur, next *rel) (*rel, error) {
	out := &rel{schema: concatSchemas(cur.schema, next.schema)}
	for _, l := range cur.rows {
		for _, r := range next.rows {
			// Per-output-row tick: cancellation latency must not scale
			// with the inner relation's size.
			if err := ex.checkCtx(); err != nil {
				return nil, err
			}
			out.rows = append(out.rows, concatRows(l, r))
		}
	}
	return out, nil
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

// joinSources scans and joins all FROM entries left to right, applying
// multi-source conjuncts as soon as the join binds them.
func (ex *executor) joinSources(sources []*sourceInfo, cb *coreBinding, sc *scope, outer *env) (*rel, error) {
	classifieds := slices.Clone(cb.classifieds) // applied is this execution's
	cur, err := ex.scanSource(sources[0], cb.perSource[0], cb.tables[0], sc, outer)
	if err != nil {
		return nil, err
	}
	joined := map[int]bool{0: true}
	for i := 1; i < len(sources); i++ {
		next, err := ex.scanSource(sources[i], cb.perSource[i], cb.tables[i], sc, outer)
		if err != nil {
			return nil, err
		}
		joined[i] = true
		var lkeys, rkeys []int
		for k := range classifieds {
			cl := &classifieds[k]
			if cl.applied || !subset(cl.refs, joined) {
				continue
			}
			if li, ri, ok := asEquiJoin(cl.expr, cur.schema, next.schema); ok {
				lkeys = append(lkeys, li)
				rkeys = append(rkeys, ri)
				cl.applied = true
			}
		}
		if len(lkeys) > 0 {
			cur, err = ex.hashJoin(cur, next, lkeys, rkeys)
		} else {
			cur, err = ex.crossJoin(cur, next)
		}
		if err != nil {
			return nil, err
		}
		// Apply any remaining conjuncts that became fully bound.
		var pending []sqlparser.Expr
		for k := range classifieds {
			if cl := &classifieds[k]; !cl.applied && subset(cl.refs, joined) {
				pending = append(pending, cl.expr)
				cl.applied = true
			}
		}
		if cur, err = ex.filterRel(cur, pending, sc, outer); err != nil {
			return nil, err
		}
	}
	// Safety net: anything unapplied (should not happen) filters here.
	var leftovers []sqlparser.Expr
	for _, cl := range classifieds {
		if !cl.applied {
			leftovers = append(leftovers, cl.expr)
		}
	}
	return ex.filterRel(cur, leftovers, sc, outer)
}

// coreIter opens one select core as a stream. Single-source cores without
// grouping or ordering stream end to end: scan → filter → project →
// [distinct] → [limit], producing tuples on demand. Joins, aggregation
// and ORDER BY materialise at the stage that requires it and stream from
// there on.
func (ex *executor) coreIter(core *sqlparser.SelectCore, sc *scope, outer *env) ([]string, rowIter, error) {
	grouped := coreIsGrouped(core)
	sources, err := ex.resolveSources(core, sc, outer)
	if err != nil {
		return nil, nil, err
	}
	cb := ex.bindCore(core, sources)

	var cur *rel // set when the join path materialised the input
	var schema *RelSchema
	var it rowIter
	if len(sources) == 1 {
		schema, it, err = ex.scanSourceIter(sources[0], cb.perSource[0], cb.tables[0], sc, outer)
		if err != nil {
			return nil, nil, err
		}
	} else {
		cur, err = ex.joinSources(sources, cb, sc, outer)
		if err != nil {
			return nil, nil, err
		}
		schema, it = cur.schema, &sliceIter{ex: ex, rows: cur.rows}
	}

	if grouped || len(core.OrderBy) > 0 {
		if cur == nil {
			rows, err := drainIter(it)
			if err != nil {
				return nil, nil, err
			}
			cur = &rel{schema: schema, rows: rows}
		}
		res, err := ex.project(core, cur, sc, outer)
		if err != nil {
			return nil, nil, err
		}
		return res.Columns, &sliceIter{ex: ex, rows: res.Rows}, nil
	}

	// Streaming projection: no grouping, no ordering.
	var columns []string
	if core.Star {
		columns = schema.ColumnNames()
	} else {
		columns = ex.outputColumns(core)
		it = &projIter{src: it, items: core.Items, schema: schema, ev: &evaluator{ex: ex, scope: sc}, outer: outer}
	}
	if core.Distinct {
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
// explicit GROUP BY, or aggregates in the select list or HAVING. Both
// the streaming and materialising paths route on this single predicate.
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

// project evaluates GROUP BY / aggregation, the select list, DISTINCT,
// ORDER BY and LIMIT over the joined relation (the materialising path;
// cores without grouping or ordering stream through coreIter instead).
func (ex *executor) project(core *sqlparser.SelectCore, cur *rel, sc *scope, outer *env) (*Result, error) {
	grouped := coreIsGrouped(core)

	columns := ex.outputColumns(core)

	var outRows []storage.Row
	var orderKeys [][]storage.Value

	evalRowItems := func(ev *evaluator, en *env) (storage.Row, error) {
		row := make(storage.Row, len(core.Items))
		for i, it := range core.Items {
			v, err := ev.eval(it.Expr, en)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		return row, nil
	}
	// ORDER BY may name a select-list alias (ORDER BY visits DESC): such
	// keys read the already-computed output row, where the alias exists,
	// instead of re-evaluating in the source scope, where it does not.
	// When an alias shadows a source column the alias wins, matching
	// MySQL's resolution order.
	aliasIdx := make(map[string]int, len(core.Items))
	for i, it := range core.Items {
		if it.Alias != "" {
			aliasIdx[it.Alias] = i
		}
	}
	evalOrderKeys := func(ev *evaluator, en *env, out storage.Row) ([]storage.Value, error) {
		if len(core.OrderBy) == 0 {
			return nil, nil
		}
		keys := make([]storage.Value, len(core.OrderBy))
		for i, o := range core.OrderBy {
			if cr, ok := o.Expr.(*sqlparser.ColRef); ok && cr.Table == "" && out != nil {
				if j, ok := aliasIdx[cr.Column]; ok {
					keys[i] = out[j]
					continue
				}
			}
			v, err := ev.eval(o.Expr, en)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
		return keys, nil
	}

	if !grouped {
		if core.Star {
			outRows = cur.rows
			columns = cur.schema.ColumnNames()
			if len(core.OrderBy) > 0 {
				ev := &evaluator{ex: ex, scope: sc}
				orderKeys = make([][]storage.Value, len(outRows))
				for i, row := range cur.rows {
					if err := ex.checkCtx(); err != nil {
						return nil, err
					}
					en := &env{schema: cur.schema, row: row, outer: outer}
					keys, err := evalOrderKeys(ev, en, nil)
					if err != nil {
						return nil, err
					}
					orderKeys[i] = keys
				}
			}
		} else {
			ev := &evaluator{ex: ex, scope: sc}
			for _, row := range cur.rows {
				if err := ex.checkCtx(); err != nil {
					return nil, err
				}
				en := &env{schema: cur.schema, row: row, outer: outer}
				out, err := evalRowItems(ev, en)
				if err != nil {
					return nil, err
				}
				outRows = append(outRows, out)
				if len(core.OrderBy) > 0 {
					keys, err := evalOrderKeys(ev, en, out)
					if err != nil {
						return nil, err
					}
					orderKeys = append(orderKeys, keys)
				}
			}
		}
	} else {
		if core.Star {
			return nil, fmt.Errorf("engine: SELECT * is not valid with GROUP BY or aggregates")
		}
		groups, order, err := ex.buildGroups(core, cur, sc, outer)
		if err != nil {
			return nil, err
		}
		aggNodes := collectAggregates(core)
		for _, gk := range order {
			g := groups[gk]
			aggVals, err := ex.computeAggregates(aggNodes, g, cur.schema, sc, outer)
			if err != nil {
				return nil, err
			}
			ev := &evaluator{ex: ex, scope: sc, aggValues: aggVals}
			rep := g.representative(cur.schema)
			en := &env{schema: cur.schema, row: rep, outer: outer}
			if core.Having != nil {
				hv, err := ev.eval(core.Having, en)
				if err != nil {
					return nil, err
				}
				if t, _ := truth(hv); !t {
					continue
				}
			}
			out, err := evalRowItems(ev, en)
			if err != nil {
				return nil, err
			}
			outRows = append(outRows, out)
			if len(core.OrderBy) > 0 {
				keys, err := evalOrderKeys(ev, en, out)
				if err != nil {
					return nil, err
				}
				orderKeys = append(orderKeys, keys)
			}
		}
	}

	if core.Distinct {
		seen := make(map[string]struct{}, len(outRows))
		dedupRows := outRows[:0:0]
		var dedupKeys [][]storage.Value
		for i, row := range outRows {
			k := rowKey(row)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			dedupRows = append(dedupRows, row)
			if orderKeys != nil {
				dedupKeys = append(dedupKeys, orderKeys[i])
			}
		}
		outRows = dedupRows
		if orderKeys != nil {
			orderKeys = dedupKeys
		}
	}

	if len(core.OrderBy) > 0 {
		idx := make([]int, len(outRows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := orderKeys[idx[a]], orderKeys[idx[b]]
			for i, o := range core.OrderBy {
				c, ok := storage.Compare(ka[i], kb[i])
				if !ok {
					// NULLs (and incomparables) first on ASC, last on DESC.
					an, bn := ka[i].IsNull(), kb[i].IsNull()
					if an == bn {
						continue
					}
					return an != o.Desc
				}
				if c == 0 {
					continue
				}
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		sorted := make([]storage.Row, len(outRows))
		for i, j := range idx {
			sorted[i] = outRows[j]
		}
		outRows = sorted
	}

	if core.Limit >= 0 {
		if off := core.Offset; off > 0 {
			if off >= int64(len(outRows)) {
				outRows = outRows[:0]
			} else {
				outRows = outRows[off:]
			}
		}
		if int64(len(outRows)) > core.Limit {
			outRows = outRows[:core.Limit]
		}
	}
	return &Result{Columns: columns, Rows: outRows}, nil
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

// group is one GROUP BY bucket.
type group struct {
	rows []storage.Row
}

func (g *group) representative(schema *RelSchema) storage.Row {
	if len(g.rows) > 0 {
		return g.rows[0]
	}
	return make(storage.Row, len(schema.Cols))
}

func (ex *executor) buildGroups(core *sqlparser.SelectCore, cur *rel, sc *scope, outer *env) (map[string]*group, []string, error) {
	groups := make(map[string]*group)
	var order []string
	ev := &evaluator{ex: ex, scope: sc}
	if len(core.GroupBy) == 0 {
		// A single group over all rows (aggregates without GROUP BY).
		groups[""] = &group{rows: cur.rows}
		return groups, []string{""}, nil
	}
	var b strings.Builder
	for _, row := range cur.rows {
		if err := ex.checkCtx(); err != nil {
			return nil, nil, err
		}
		en := &env{schema: cur.schema, row: row, outer: outer}
		b.Reset()
		for _, gexpr := range core.GroupBy {
			v, err := ev.eval(gexpr, en)
			if err != nil {
				return nil, nil, err
			}
			encodeValue(&b, v)
		}
		k := b.String()
		g, ok := groups[k]
		if !ok {
			g = &group{}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, row)
	}
	return groups, order, nil
}

func collectAggregates(core *sqlparser.SelectCore) []*sqlparser.FuncCall {
	var aggs []*sqlparser.FuncCall
	visit := func(e sqlparser.Expr) {
		sqlparser.Walk(e, false, func(x sqlparser.Expr) {
			if fc, ok := x.(*sqlparser.FuncCall); ok && (fc.Star || isAggregateName(fc.Name)) {
				aggs = append(aggs, fc)
			}
		})
	}
	for _, it := range core.Items {
		visit(it.Expr)
	}
	if core.Having != nil {
		visit(core.Having)
	}
	for _, o := range core.OrderBy {
		visit(o.Expr)
	}
	return aggs
}

func (ex *executor) computeAggregates(nodes []*sqlparser.FuncCall, g *group, schema *RelSchema, sc *scope, outer *env) (map[sqlparser.Expr]storage.Value, error) {
	out := make(map[sqlparser.Expr]storage.Value, len(nodes))
	ev := &evaluator{ex: ex, scope: sc}
	for _, fc := range nodes {
		if _, done := out[fc]; done {
			continue
		}
		name := strings.ToLower(fc.Name)
		if fc.Star {
			out[fc] = storage.NewInt(int64(len(g.rows)))
			continue
		}
		if len(fc.Args) != 1 {
			return nil, fmt.Errorf("engine: aggregate %s expects one argument", fc.Name)
		}
		var (
			count    int64
			sumF     float64
			sumI     int64
			anyFloat bool
			minV     = storage.Null
			maxV     = storage.Null
			distinct map[string]struct{}
		)
		if fc.Distinct {
			distinct = make(map[string]struct{})
		}
		for _, row := range g.rows {
			if err := ex.checkCtx(); err != nil {
				return nil, err
			}
			en := &env{schema: schema, row: row, outer: outer}
			v, err := ev.eval(fc.Args[0], en)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue
			}
			if distinct != nil {
				var b strings.Builder
				encodeValue(&b, v)
				if _, dup := distinct[b.String()]; dup {
					continue
				}
				distinct[b.String()] = struct{}{}
			}
			count++
			switch v.K {
			case storage.KindFloat:
				anyFloat = true
				sumF += v.F
			default:
				sumI += v.I
				sumF += float64(v.I)
			}
			if minV.IsNull() || storage.Less(v, minV) {
				minV = v
			}
			if maxV.IsNull() || storage.Less(maxV, v) {
				maxV = v
			}
		}
		switch name {
		case "count":
			out[fc] = storage.NewInt(count)
		case "sum":
			if count == 0 {
				out[fc] = storage.Null
			} else if anyFloat {
				out[fc] = storage.NewFloat(sumF)
			} else {
				out[fc] = storage.NewInt(sumI)
			}
		case "avg":
			if count == 0 {
				out[fc] = storage.Null
			} else {
				out[fc] = storage.NewFloat(sumF / float64(count))
			}
		case "min":
			out[fc] = minV
		case "max":
			out[fc] = maxV
		default:
			return nil, fmt.Errorf("engine: unknown aggregate %q", fc.Name)
		}
	}
	return out, nil
}
