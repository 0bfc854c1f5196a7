package engine

import (
	"fmt"
	"slices"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// The bind pass. Between the parse (and the policy rewrite) and execution,
// one walk over a statement resolves every name in it, as a DBMS does when
// it prepares a statement: each FROM entry to a base table, a WITH entry or
// a derived table; each column reference to the row it reads and its slot
// there; each unqualified ORDER BY name that is a select-list alias to that
// item. It marks every expression subquery correlated or not, places every
// WHERE conjunct on the scan or the join that first has all the FROM
// entries it reads, and counts the placeholders left. A name that resolves
// to nothing, or to two columns, fails the open, the same for every row and
// every querier; execution resolves nothing by name.
//
// The AST is not changed: a Prepared's statement and a registered guard
// disjunction are shared read-only across goroutines, so what the pass
// resolves lives in a side table keyed by the AST's own nodes (binding) and
// in the boundStmt/boundCore tree the executor runs. A statement's pass does
// not walk a registered guard disjunction (Conjunct, shared.go): its names
// resolve against its table as its parts are built, arm by arm, so a guarded
// statement binds at the cost of its own text.

// colRef is where a bound column reference reads: in the row up enclosing
// rows out from the one its expression is evaluated on (0: that row), at
// slot.
type colRef struct{ up, slot int32 }

// binding is one bind pass's side table: every column reference it
// resolved, and the bound statement of every expression subquery it met.
// Immutable once the pass is over.
type binding struct {
	cols map[*sqlparser.ColRef]colRef
	subs map[*sqlparser.SelectStmt]*boundStmt
}

// boundStmt is a bound statement: its WITH bodies, its body core and its
// set-operation arms.
type boundStmt struct {
	stmt *sqlparser.SelectStmt
	ctes []*boundStmt // the WITH bodies, in order
	lazy []bool       // per WITH body, whether it may stream
	body *boundCore
	ops  []*boundCore // the set-operation arms' cores, in order
	// correlated is set on an expression subquery that reads a row outside
	// itself, anywhere in it, whether or not a run reaches that reference.
	correlated bool
}

// boundCore is a bound select core: its FROM entries, its input row's
// layout, its output columns, and what its projection needs.
type boundCore struct {
	b       *binding
	core    *sqlparser.SelectCore
	schema  *RelSchema // the input row: every FROM entry's columns, in FROM order
	cols    []string   // the output columns
	sources []boundSource
	grouped bool                  // GROUP BY, or aggregates in the select list or HAVING
	aggs    []*sqlparser.FuncCall // a grouped core's aggregates, each node once
	order   []int                 // per ORDER BY item, the select-list item it names as an alias, or -1
	// own are the core's WHERE conjuncts placed on base-table scans, one
	// slice as long as the WHERE, which the scans' conjs point into.
	own []Conjunct
}

// boundSource is one FROM entry — a base table, a derived table or a WITH
// entry — with what filtering its own rows, and planning a base table's,
// take (tableBinding): the WHERE conjuncts that read it alone, and on the
// first entry those that read none.
type boundSource struct {
	tableBinding
	ref *sqlparser.TableRef
	t   *storage.Table // a base table; nil otherwise
	sub *boundStmt     // a derived table
	cte bool           // a WITH entry, found by name at execution
	// where are a derived table's or WITH entry's conjuncts, which filter
	// its rows one by one; a base table's are its scan's (tableBinding).
	where []sqlparser.Expr
	// The join that adds this entry to the ones before it, on every entry
	// but the first: its hash keys (lkeys are slots of the rows joined so
	// far, rkeys of this entry's), the conjuncts it binds that are not keys,
	// and the joined rows' layout.
	lkeys, rkeys []int
	after        []sqlparser.Expr
	joined       *RelSchema
}

// binder is one bind pass at work.
type binder struct {
	db    *DB
	b     *binding
	open  []openSub // the expression subqueries being bound, innermost last
	subs  int       // expression subqueries met, a node met twice counted twice
	holes int       // placeholders met
	err   error     // the first error met
	// aggs are the aggregates of the core being bound met so far, collected
	// while collect is set.
	aggs    []*sqlparser.FuncCall
	collect bool
	// listing, set by DB.Explain, lists every core as the pass finishes it
	// (cores) and every WITH name the statement defines at any depth (withs).
	listing bool
	cores   []*boundCore
	withs   []string
}

// openSub is an expression subquery being bound: level is the number of
// frames outside it, and correlated is set once a reference inside it
// resolves to one of them.
type openSub struct {
	level      int
	correlated bool
}

// frame is a core being bound, as its column references see it: its input
// row's layout, the slot where each FROM entry starts in it, and, while one
// of its WHERE conjuncts is being placed, every reference resolved to it,
// with its slot, and whether the conjunct itself reads an enclosing row.
type frame struct {
	schema  *RelSchema
	starts  []int // entry i's columns are slots starts[i] to starts[i+1]
	placing bool
	hits    []hit
	outer   bool
}

type hit struct {
	c    *sqlparser.ColRef
	slot int
}

// withScope is the WITH names visible at a point of a statement, innermost
// first, with each body's output columns, the FROM references to it, and
// whether one sits in an expression subquery opened after the entry's
// definition (open counts those open there), which may run once per row.
type withScope struct {
	parent *withScope
	name   string
	cols   []string
	open   int
	refs   int
	inExpr bool
}

func (w *withScope) lookup(name string) *withScope {
	for ; w != nil; w = w.parent {
		if w.name == name {
			return w
		}
	}
	return nil
}

func newBinder(db *DB) *binder {
	return &binder{db: db, b: &binding{cols: make(map[*sqlparser.ColRef]colRef)}}
}

// bind binds s for execution on db: the open's one walk over the statement.
func (db *DB) bind(s *sqlparser.SelectStmt) (*boundStmt, error) {
	bd := newBinder(db)
	sb := bd.stmt(s, nil, nil)
	return sb, bd.result()
}

// bindExpr binds e, evaluated on rows laid out as schema, with no
// enclosing row and no WITH entry in sight.
func (db *DB) bindExpr(e sqlparser.Expr, schema *RelSchema) (*binding, error) {
	bd := newBinder(db)
	bd.expr(e, []*frame{{schema: schema}}, nil)
	return bd.b, bd.result()
}

// result is the pass's error: a placeholder left in the statement first,
// as BindStmt reports it for no arguments, then the first name that did not
// resolve.
func (bd *binder) result() error {
	if bd.holes > 0 {
		return sqlparser.ArgCountError(bd.holes, 0)
	}
	return bd.err
}

func (bd *binder) fail(err error) {
	if bd.err == nil {
		bd.err = err
	}
}

// stmt binds s inside the frames outer, with the WITH names of with in
// sight. Each WITH body sees the entries before it.
func (bd *binder) stmt(s *sqlparser.SelectStmt, outer []*frame, with *withScope) *boundStmt {
	sb := &boundStmt{stmt: s}
	entries := make([]*withScope, len(s.With))
	for i, cte := range s.With {
		failed := bd.err != nil
		sb.ctes = append(sb.ctes, bd.stmt(cte.Select, outer, with))
		if !failed && bd.err != nil {
			bd.err = fmt.Errorf("in WITH %s: %w", cte.Name, bd.err)
		}
		if bd.listing {
			bd.withs = append(bd.withs, cte.Name)
		}
		with = &withScope{parent: with, name: cte.Name, cols: sb.ctes[i].body.cols, open: len(bd.open)}
		entries[i] = with
	}
	sb.body = bd.core(s.Body, outer, with)
	for _, op := range s.Ops {
		arm := bd.core(op.Core, outer, with)
		if n, m := len(sb.body.cols), len(arm.cols); n != m {
			bd.fail(fmt.Errorf("engine: set operation arms have %d vs %d columns", n, m))
		}
		sb.ops = append(sb.ops, arm)
	}
	// An entry referenced once, from a FROM clause outside any expression
	// subquery, may stream; any other materialises up front.
	for _, w := range entries {
		sb.lazy = append(sb.lazy, w.refs == 1 && !w.inExpr)
	}
	return sb
}

// core binds c inside the frames outer: its FROM entries first (a derived
// table sees outer, not c), then its expressions against c's input row.
// The aggregates of its select list, HAVING and ORDER BY are collected on
// the way, each node once; those of the first two make c grouped.
func (bd *binder) core(c *sqlparser.SelectCore, outer []*frame, with *withScope) *boundCore {
	aggs, collect := bd.aggs, bd.collect
	bd.aggs, bd.collect = nil, false
	bc := &boundCore{b: bd.b, core: c, sources: make([]boundSource, len(c.From))}
	fr := &frame{starts: make([]int, len(c.From)+1)}
	for i := range c.From {
		src := &bc.sources[i]
		src.ref, src.b, src.name = &c.From[i], bd.b, c.From[i].RefName()
		switch w := with.lookup(src.ref.Name); {
		case src.ref.Subquery != nil:
			src.sub = bd.stmt(src.ref.Subquery, outer, with)
			src.schema = qualifyCols(src.name, src.sub.body.cols)
		case w != nil:
			src.cte, src.schema = true, qualifyCols(src.name, w.cols)
			w.refs++
			w.inExpr = w.inExpr || len(bd.open) > w.open
		default:
			t, ok := bd.db.Table(src.ref.Name)
			if !ok {
				bd.fail(fmt.Errorf("engine: unknown table %q", src.ref.Name))
				src.schema = &RelSchema{}
				break
			}
			src.t, src.schema = t, QualifiedSchema(src.name, t.Schema)
		}
		fr.starts[i+1] = fr.starts[i] + len(src.schema.Cols)
	}
	bc.schema = bc.sources[0].schema
	if len(c.From) > 1 {
		bc.schema = &RelSchema{Cols: make([]RelCol, 0, fr.starts[len(c.From)])}
		for i := range bc.sources {
			bc.schema.Cols = append(bc.schema.Cols, bc.sources[i].schema.Cols...)
		}
	}
	fr.schema = bc.schema
	frames := append(slices.Clip(outer), fr)

	where := sqlparser.Conjuncts(c.Where)
	for i := range bc.sources {
		if bc.sources[i].t != nil && len(where) > 0 {
			bc.own = make([]Conjunct, 0, len(where))
			break
		}
	}
	for _, cj := range where {
		bd.place(bc, fr, frames, with, cj)
	}
	bd.collect = true
	for _, it := range c.Items {
		bd.expr(it.Expr, frames, with)
	}
	bd.expr(c.Having, frames, with)
	bc.grouped = len(c.GroupBy) > 0 || len(bd.aggs) > 0
	bd.collect = false
	for _, g := range c.GroupBy {
		bd.expr(g, frames, with)
	}
	bd.collect = true
	if len(c.OrderBy) > 0 {
		bc.order = make([]int, len(c.OrderBy))
	}
	for i, o := range c.OrderBy {
		// An unqualified name some select-list item is aliased to names the
		// last such item's output value, not an input column: an alias
		// shadows a column, as in MySQL.
		bc.order[i] = -1
		if cr, ok := o.Expr.(*sqlparser.ColRef); ok && cr.Table == "" {
			for j := len(c.Items) - 1; j >= 0 && bc.order[i] < 0; j-- {
				if c.Items[j].Alias == cr.Column {
					bc.order[i] = j
				}
			}
		}
		if bc.order[i] < 0 {
			bd.expr(o.Expr, frames, with)
		}
	}
	switch {
	case bc.grouped && c.Star:
		bd.fail(fmt.Errorf("engine: SELECT * is not valid with GROUP BY or aggregates"))
	case c.Star:
		bc.cols = make([]string, len(bc.schema.Cols))
		for i, col := range bc.schema.Cols {
			bc.cols[i] = col.Name
		}
	default:
		bc.cols = outputColumns(c)
	}
	if bc.grouped {
		bc.aggs = bd.aggs
	}
	for i := range bc.sources {
		src := &bc.sources[i]
		if i > 0 {
			src.joined = &RelSchema{Cols: bc.schema.Cols[:fr.starts[i+1]]}
		}
	}
	bd.aggs, bd.collect = aggs, collect
	if bd.listing {
		bd.cores = append(bd.cores, bc)
	}
	return bc
}

// place binds the WHERE conjunct cj of the core bc and puts it where its
// FROM entries are first all joined: on the scan of the one entry it reads
// (the first entry's when it reads none), or on the join of the last entry
// it reads. A conjunct on one entry's scan reads that entry's row alone, so
// the references it makes to bc's row, at any depth, are re-slotted into
// that row. A conjunct that is a registered guard disjunction over an entry
// that is its table under its own name is not walked: its registration goes
// on that entry's scan.
func (bd *binder) place(bc *boundCore, fr *frame, frames []*frame, with *withScope, cj sqlparser.Expr) {
	if i, c := bd.sharedOn(bc, cj); c != nil {
		src := &bc.sources[i]
		src.conjs = append(src.conjs, c)
		return
	}
	mark, subs := len(fr.hits), bd.subs
	fr.placing, fr.outer = true, false
	bd.expr(cj, frames, with)
	fr.placing = false
	hits := fr.hits[mark:]
	lo, hi := 0, 0
	for k, h := range hits {
		// h's entry is the last one whose columns start at or before it.
		i, _ := slices.BinarySearch(fr.starts, h.slot+1)
		i--
		if k == 0 {
			lo, hi = i, i
		}
		lo, hi = min(lo, i), max(hi, i)
	}
	fr.hits = fr.hits[:mark]
	src := &bc.sources[hi]
	if lo == hi {
		for _, h := range hits {
			if fr.starts[lo] > 0 {
				r := bd.b.cols[h.c]
				r.slot = int32(h.slot - fr.starts[lo])
				bd.b.cols[h.c] = r
			}
		}
		if src.t == nil {
			src.where = append(src.where, cj)
			return
		}
		serial := bd.subs > subs
		bc.own = append(bc.own, Conjunct{
			expr:   cj,
			vc:     vecCompiler{b: bd.b, frame: src.schema},
			serial: serial,
			local:  !serial && !fr.outer,
		}) // within its capacity: no pointer into it moves
		src.conjs = append(src.conjs, &bc.own[len(bc.own)-1])
		return
	}
	if l, r, ok := bd.equiJoin(cj, fr.starts[hi], fr.starts[hi+1]); ok {
		src.lkeys, src.rkeys = append(src.lkeys, l), append(src.rkeys, r-fr.starts[hi])
		return
	}
	src.after = append(src.after, cj)
}

// equiJoin recognises a = b over two columns of the core's row, one before
// slot lo and one in [lo, hi): a hash key of the join of the entry whose
// columns those are. It returns the two slots, the earlier entry's first.
func (bd *binder) equiJoin(cj sqlparser.Expr, lo, hi int) (int, int, bool) {
	cmp, ok := cj.(*sqlparser.CompareExpr)
	if !ok || cmp.Op != sqlparser.CmpEq {
		return 0, 0, false
	}
	lc, lok := cmp.L.(*sqlparser.ColRef)
	rc, rok := cmp.R.(*sqlparser.ColRef)
	if !lok || !rok {
		return 0, 0, false
	}
	lr, rr := bd.b.cols[lc], bd.b.cols[rc]
	if lr.up != 0 || rr.up != 0 {
		return 0, 0, false
	}
	l, r := int(lr.slot), int(rr.slot)
	if l >= lo {
		l, r = r, l
	}
	return l, r, l < lo && r >= lo && r < hi
}

// sharedOn returns the FROM entry of bc that cj, a registered guard
// disjunction, filters, with its registration: the entry must be the
// registration's table under its own name. -1 and nil otherwise.
func (bd *binder) sharedOn(bc *boundCore, cj sqlparser.Expr) (int, *Conjunct) {
	if or, ok := cj.(*sqlparser.BinaryExpr); !ok || or.Op != sqlparser.OpOr {
		return -1, nil
	}
	v, ok := bd.db.shared.Load(cj)
	if !ok {
		return -1, nil
	}
	c := v.(*Conjunct)
	for i := range bc.sources {
		if src := &bc.sources[i]; src.t == c.t && src.name == c.t.Name {
			return i, c
		}
	}
	return -1, nil
}

// expr binds the column references, placeholders and subqueries of e,
// evaluated in the innermost of frames.
func (bd *binder) expr(e sqlparser.Expr, frames []*frame, with *withScope) {
	sqlparser.Walk(e, false, func(x sqlparser.Expr) {
		switch x := x.(type) {
		case *sqlparser.ColRef:
			bd.column(x, frames)
		case *sqlparser.Placeholder:
			bd.holes++
		case *sqlparser.FuncCall:
			if bd.collect && (x.Star || isAggregateName(x.Name)) && !slices.Contains(bd.aggs, x) {
				bd.aggs = append(bd.aggs, x)
			}
		case *sqlparser.InExpr:
			if x.Sub != nil {
				bd.sub(x.Sub, frames, with)
			}
		case *sqlparser.SubqueryExpr:
			bd.sub(x.Select, frames, with)
		case *sqlparser.ExistsExpr:
			bd.sub(x.Select, frames, with)
		}
	})
}

// sub binds an expression subquery evaluated in the innermost of frames.
func (bd *binder) sub(s *sqlparser.SelectStmt, frames []*frame, with *withScope) {
	bd.subs++
	bd.open = append(bd.open, openSub{level: len(frames)})
	sb := bd.stmt(s, frames, with)
	sb.correlated = bd.open[len(bd.open)-1].correlated
	bd.open = bd.open[:len(bd.open)-1]
	if bd.b.subs == nil {
		bd.b.subs = make(map[*sqlparser.SelectStmt]*boundStmt)
	}
	bd.b.subs[s] = sb
}

// column resolves c in the innermost frame that has it, as SQL scopes
// names: every open subquery that frame is outside of is correlated.
func (bd *binder) column(c *sqlparser.ColRef, frames []*frame) {
	for k := len(frames) - 1; k >= 0; k-- {
		slot, err := frames[k].schema.Resolve(c.Table, c.Column)
		if err == errColNotFound {
			continue
		}
		if err != nil {
			bd.fail(err)
			return
		}
		bd.b.cols[c] = colRef{up: int32(len(frames) - 1 - k), slot: int32(slot)}
		if in := frames[len(frames)-1]; in.placing && k < len(frames)-1 {
			in.outer = true
		}
		if frames[k].placing {
			frames[k].hits = append(frames[k].hits, hit{c, slot})
		}
		for j := len(bd.open) - 1; j >= 0 && bd.open[j].level > k; j-- {
			bd.open[j].correlated = true
		}
		return
	}
	bd.fail(fmt.Errorf("engine: unknown column %s", formatColRef(c.Table, c.Column)))
}
