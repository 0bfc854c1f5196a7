package sqlparser

// WalkCores is the one traversal of a statement tree. It calls fn for every
// select core of s: the body and set-operation arms, CTE bodies, FROM-clause
// derived tables, and the statements of IN, EXISTS and scalar subqueries in
// every expression slot (items, WHERE, GROUP BY, HAVING, ORDER BY),
// recursively. inExpr reports whether the core is reached through an
// expression subquery, which may run once per outer row; CTEs and derived
// tables below one inherit it. A core is reported after everything nested in
// it, so fn may rewrite the core's WHERE and what it adds is not visited.
func WalkCores(s *SelectStmt, fn func(c *SelectCore, inExpr bool)) {
	w := walker{core: fn, descend: true}
	w.stmt(s, false)
}

// Walk calls fn for every expression node in e, depth-first. With descend
// it also visits every node of the subqueries nested in e, as WalkCores
// reaches them: their CTEs, set-operation arms and derived tables included.
func Walk(e Expr, descend bool, fn func(Expr)) {
	w := walker{node: fn, descend: descend}
	w.expr(e)
}

// HasSubquery reports whether e holds an IN, EXISTS or scalar subquery.
func HasSubquery(e Expr) bool {
	found := false
	Walk(e, false, func(x Expr) { found = found || subqueryOf(x) != nil })
	return found
}

// subqueryOf returns the statement of an IN, EXISTS or scalar subquery
// node; nil for any other expression.
func subqueryOf(e Expr) *SelectStmt {
	switch x := e.(type) {
	case *SubqueryExpr:
		return x.Select
	case *ExistsExpr:
		return x.Select
	case *InExpr:
		return x.Sub
	}
	return nil
}

// walker is the traversal behind Walk and WalkCores: node, when set, sees
// every expression node before its children; core, when set, sees every
// select core after everything nested in it. descend enters the statements
// of expression subqueries. The callbacks live in a struct, not in closures
// built during the walk, so they stay on the caller's stack.
type walker struct {
	node    func(Expr)
	core    func(*SelectCore, bool)
	descend bool
}

func (w *walker) stmt(s *SelectStmt, inExpr bool) {
	if s == nil {
		return
	}
	for _, cte := range s.With {
		w.stmt(cte.Select, inExpr)
	}
	w.selectCore(s.Body, inExpr)
	for _, op := range s.Ops {
		w.selectCore(op.Core, inExpr)
	}
}

func (w *walker) selectCore(c *SelectCore, inExpr bool) {
	if c == nil {
		return
	}
	for i := range c.From {
		w.stmt(c.From[i].Subquery, inExpr)
	}
	for _, it := range c.Items {
		w.expr(it.Expr)
	}
	w.expr(c.Where)
	for _, g := range c.GroupBy {
		w.expr(g)
	}
	w.expr(c.Having)
	for _, o := range c.OrderBy {
		w.expr(o.Expr)
	}
	if w.core != nil {
		w.core(c, inExpr)
	}
}

func (w *walker) expr(e Expr) {
	if e == nil {
		return
	}
	if w.node != nil {
		w.node(e)
	}
	switch x := e.(type) {
	case *BinaryExpr:
		w.expr(x.L)
		w.expr(x.R)
	case *CompareExpr:
		w.expr(x.L)
		w.expr(x.R)
	case *NotExpr:
		w.expr(x.E)
	case *BetweenExpr:
		w.expr(x.E)
		w.expr(x.Lo)
		w.expr(x.Hi)
	case *InExpr:
		w.expr(x.E)
		for _, it := range x.List {
			w.expr(it)
		}
	case *IsNullExpr:
		w.expr(x.E)
	case *FuncCall:
		for _, a := range x.Args {
			w.expr(a)
		}
	}
	if w.descend {
		w.stmt(subqueryOf(e), true)
	}
}
