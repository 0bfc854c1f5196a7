package engine

import (
	"context"
	"fmt"
	"math"
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

// scope is one WITH entry visible in an execution, linked to the entries
// visible where it is defined: those before it in its clause and those of
// the enclosing statements. A nil scope has none in sight. An entry is
// either materialised (res set) or lazy (sb set): a lazy entry is
// registered when the CTE is referenced exactly once and outside any
// expression subquery, and is opened as a stream, in its parent scope, by
// that single consumer. LIMIT satisfaction and early Rows.Close then
// terminate the CTE body's scan instead of paying to materialise it — the
// §5.3 guarded projections are exactly such single-use CTEs.
type scope struct {
	parent   *scope
	name     string
	res      *Result
	sb       *boundStmt
	outer    *env
	streamed bool
}

func (sc *scope) lookup(name string) *scope {
	for ; sc != nil; sc = sc.parent {
		if sc.name == name {
			return sc
		}
	}
	return nil
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
func (ex *executor) selectStmt(sb *boundStmt, sc *scope, outer *env) (*Result, error) {
	it, err := ex.stmtIter(sb, sc, outer)
	if err != nil {
		return nil, err
	}
	rows, err := drainIter(it)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: sb.body.cols, Rows: rows}, nil
}

// subqKey names an expression subquery evaluated in one scope. The same node
// in another scope is another subquery: one nested in a correlated subquery
// with a WITH clause sees that clause bound afresh on every run.
type subqKey struct {
	sb *boundStmt
	sc *scope
}

// subqResult is an uncorrelated subquery's result, kept for the rest of the
// execution, with its IN set once one is built.
type subqResult struct {
	res *Result
	set *memberSet
}

// subquery runs an expression subquery — IN, EXISTS, scalar, and with the
// last the §3.1 derived-value conditions of inlined guard arms — as seen
// from the row env outer. A subquery the bind pass found correlated runs
// for every row, as SQL defines it; any other reads nothing of the
// enclosing rows and computes the same result for every one of them, so it
// runs once per execution and its result is kept (and returned as kept).
// One execution is one read: a kept result does not see rows inserted
// while the statement runs, and its work is counted once.
func (ex *executor) subquery(sb *boundStmt, sc *scope, outer *env) (res *Result, kept *subqResult, err error) {
	if sb.correlated {
		res, err = ex.selectStmt(sb, sc, outer)
		return res, nil, err
	}
	k := subqKey{sb, sc}
	if kept := ex.subqs[k]; kept != nil {
		return kept.res, kept, nil
	}
	if res, err = ex.selectStmt(sb, sc, outer); err != nil {
		return nil, nil, err
	}
	kept = &subqResult{res: res}
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
func (ex *executor) stmtIter(sb *boundStmt, sc *scope, outer *env) (rowIter, error) {
	// Each CTE gets its own scope link whose parent holds only the
	// *earlier* CTEs: a body's reference to a later sibling must resolve
	// past the WITH clause (to a base table, or fail) exactly as under
	// eager in-order evaluation, even when the body runs lazily later.
	for i, cte := range sb.stmt.With {
		entry := &scope{parent: sc, name: cte.Name}
		if sb.lazy[i] {
			entry.sb, entry.outer = sb.ctes[i], outer
		} else {
			res, err := ex.selectStmt(sb.ctes[i], sc, outer)
			if err != nil {
				return nil, fmt.Errorf("in WITH %s: %w", cte.Name, err)
			}
			entry.res = res
		}
		sc = entry
	}
	it, err := ex.coreIter(sb.body, sc, outer)
	if err != nil {
		return nil, err
	}
	for i, op := range sb.stmt.Ops {
		arm, err := ex.coreIter(sb.ops[i], sc, outer)
		if err != nil {
			it.Close()
			return nil, err
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
	return it, nil
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

// appendValue appends v's encoding to b: a tag, a payload and a 0, a
// string's payload led by its length, so a run of encodings identifies a
// run of values whatever bytes a string holds. Values that = finds equal
// (storage.Compare) encode alike: every numeric kind by its number, so an
// integral FLOAT, -0.0 included, encodes as the INT it equals.
func appendValue(b []byte, v storage.Value) []byte {
	switch v.K {
	case storage.KindNull:
		b = append(b, 'n')
	case storage.KindString:
		b = strconv.AppendInt(append(b, 's'), int64(len(v.S)), 10)
		b = append(append(b, ':'), v.S...)
	case storage.KindFloat:
		if v.F != math.Trunc(v.F) || v.F < -(1<<63) || v.F >= 1<<63 {
			b = strconv.AppendFloat(append(b, 'f'), v.F, 'b', -1, 64)
			break
		}
		b = strconv.AppendInt(append(b, 'i'), int64(v.F), 10)
	default:
		b = strconv.AppendInt(append(b, 'i'), v.I, 10)
	}
	return append(b, 0)
}

// cteStream opens the WITH entry named name, in sight in sc: a materialised
// body over its rows, a single-use one as its body's stream.
func (ex *executor) cteStream(sc *scope, name string) (rowIter, error) {
	e := sc.lookup(name)
	switch {
	case e == nil:
		return nil, fmt.Errorf("engine: internal error: WITH %s not in scope", name)
	case e.res != nil:
		return &sliceIter{ex: ex, rows: e.res.Rows}, nil
	case e.streamed:
		return nil, fmt.Errorf("engine: internal error: WITH %s stream consumed twice", name)
	}
	it, err := ex.stmtIter(e.sb, e.parent, e.outer)
	if err != nil {
		return nil, fmt.Errorf("in WITH %s: %w", name, err)
	}
	e.streamed = true
	return &cteIter{src: it, name: name}, nil
}

// QualifiedSchema builds the RelSchema of a base table's rows, with every
// column qualified by the given name: how a scan lays out its rows, and how
// the Δ operator lays out the tuple whose derived-value conditions (§5.2) it
// evaluates (EvalPredicateWith).
func QualifiedSchema(name string, s *storage.Schema) *RelSchema {
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
func (ex *executor) where(it rowIter, bc *boundCore, schema *RelSchema, conjs []sqlparser.Expr, sc *scope, outer *env) rowIter {
	if len(conjs) == 0 {
		return it
	}
	return &filterIter{src: it, conjs: conjs, ev: evaluator{ex: ex, scope: sc, b: bc.b}, en: env{schema: schema, outer: outer}}
}

// sourceIter opens FROM entry i of bc as a stream with its own conjuncts
// applied: through the chosen access path and the binding's compiled
// filter for a base table, row by row over its body's stream for a derived
// table or a WITH entry. Opening only builds the pipeline; no rows are read
// yet.
func (ex *executor) sourceIter(bc *boundCore, i int, sc *scope, outer *env) (rowIter, error) {
	src := &bc.sources[i]
	var it rowIter
	var err error
	switch {
	case src.sub != nil:
		it, err = ex.stmtIter(src.sub, sc, outer)
	case src.cte:
		it, err = ex.cteStream(sc, src.ref.Name)
	default:
		plan := src.access(ex.db, src.t, src.ref.Hint)
		if plan.fetch != nil {
			return &fetchIter{ex: ex, t: src.t, plan: plan, tb: &src.tableBinding, sc: sc, outer: outer}, nil
		}
		return &scanIter{ex: ex, t: src.t, plan: plan, tb: &src.tableBinding, sc: sc, outer: outer}, nil
	}
	if err != nil {
		return nil, err
	}
	return ex.where(it, bc, src.schema, src.where, sc, outer), nil
}

func concatRows(a, b storage.Row) storage.Row {
	out := make(storage.Row, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// coreIter opens one select core as a stream: scan or join → filter →
// project → [distinct] → [offset] → [limit], producing tuples on demand. The
// FROM entries are joined left to right: the first streams as the probe
// side of every join and each later one is a join's build side, and a
// conjunct that reads several entries filters the stream as soon as the
// join that binds them has. A grouped or ordered core projects through
// projectIter, which reads its whole input at the first Next.
func (ex *executor) coreIter(bc *boundCore, sc *scope, outer *env) (rowIter, error) {
	it, err := ex.sourceIter(bc, 0, sc, outer)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(bc.sources); i++ {
		build, err := ex.sourceIter(bc, i, sc, outer)
		if err != nil {
			it.Close()
			return nil, err
		}
		src := &bc.sources[i]
		join := &joinIter{ex: ex, probe: it, build: build, lkeys: src.lkeys, rkeys: src.rkeys}
		it = ex.where(join, bc, src.joined, src.after, sc, outer)
	}
	core := bc.core
	switch {
	case bc.grouped || len(core.OrderBy) > 0:
		it = &projectIter{p: newProjector(ex, bc, sc, outer), src: it}
	case !core.Star:
		it = &projIter{src: it, items: core.Items, ev: evaluator{ex: ex, scope: sc, b: bc.b}, en: env{schema: bc.schema, outer: outer}}
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
	return it, nil
}

// outputColumns names the select list's columns: an item's alias, a
// column's name, or the expression's text.
func outputColumns(core *sqlparser.SelectCore) []string {
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
