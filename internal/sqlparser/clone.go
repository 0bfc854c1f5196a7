package sqlparser

import (
	"fmt"

	"github.com/sieve-db/sieve/internal/storage"
)

// CloneExpr deep-copies an expression tree.
func CloneExpr(e Expr) Expr {
	var cl cloner
	return cl.expr(e)
}

// CloneStmt deep-copies a statement tree.
func CloneStmt(s *SelectStmt) *SelectStmt {
	var cl cloner
	return cl.stmt(s)
}

// CloneCore deep-copies one select core.
func CloneCore(c *SelectCore) *SelectCore {
	var cl cloner
	return cl.core(c)
}

// cloner deep-copies trees. With args set it binds as it copies: placeholder
// i becomes a literal of args[i-1] (BindStmt), and the first placeholder out
// of range is kept in err.
type cloner struct {
	args []storage.Value
	err  error
}

func (cl *cloner) expr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Literal:
		c := *x
		return &c
	case *ColRef:
		c := *x
		return &c
	case *Placeholder:
		if cl.args == nil {
			c := *x
			return &c
		}
		if x.Idx < 1 || x.Idx > len(cl.args) {
			if cl.err == nil {
				cl.err = fmt.Errorf("sql: placeholder %d out of range for %d argument(s)", x.Idx, len(cl.args))
			}
			return nil
		}
		return Lit(cl.args[x.Idx-1])
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, L: cl.expr(x.L), R: cl.expr(x.R)}
	case *CompareExpr:
		return &CompareExpr{Op: x.Op, L: cl.expr(x.L), R: cl.expr(x.R)}
	case *NotExpr:
		return &NotExpr{E: cl.expr(x.E)}
	case *BetweenExpr:
		return &BetweenExpr{E: cl.expr(x.E), Lo: cl.expr(x.Lo), Hi: cl.expr(x.Hi), Not: x.Not}
	case *InExpr:
		c := &InExpr{E: cl.expr(x.E), Not: x.Not, Sub: cl.stmt(x.Sub)}
		for _, it := range x.List {
			c.List = append(c.List, cl.expr(it))
		}
		return c
	case *IsNullExpr:
		return &IsNullExpr{E: cl.expr(x.E), Not: x.Not}
	case *FuncCall:
		c := &FuncCall{Name: x.Name, Star: x.Star, Distinct: x.Distinct}
		for _, a := range x.Args {
			c.Args = append(c.Args, cl.expr(a))
		}
		return c
	case *SubqueryExpr:
		return &SubqueryExpr{Select: cl.stmt(x.Select)}
	case *ExistsExpr:
		return &ExistsExpr{Select: cl.stmt(x.Select)}
	}
	return e
}

func (cl *cloner) stmt(s *SelectStmt) *SelectStmt {
	if s == nil {
		return nil
	}
	out := &SelectStmt{}
	for _, cte := range s.With {
		out.With = append(out.With, CTE{Name: cte.Name, Select: cl.stmt(cte.Select)})
	}
	out.Body = cl.core(s.Body)
	for _, op := range s.Ops {
		out.Ops = append(out.Ops, SetOp{Kind: op.Kind, All: op.All, Core: cl.core(op.Core)})
	}
	return out
}

func (cl *cloner) core(c *SelectCore) *SelectCore {
	if c == nil {
		return nil
	}
	out := &SelectCore{Distinct: c.Distinct, Star: c.Star, Limit: c.Limit, Offset: c.Offset}
	for _, it := range c.Items {
		out.Items = append(out.Items, SelectItem{Expr: cl.expr(it.Expr), Alias: it.Alias})
	}
	for _, t := range c.From {
		ref := TableRef{Name: t.Name, Alias: t.Alias, Subquery: cl.stmt(t.Subquery)}
		if t.Hint != nil {
			h := &IndexHint{Kind: t.Hint.Kind}
			if t.Hint.Indexes != nil {
				h.Indexes = append([]string{}, t.Hint.Indexes...)
			}
			ref.Hint = h
		}
		out.From = append(out.From, ref)
	}
	out.Where = cl.expr(c.Where)
	for _, g := range c.GroupBy {
		out.GroupBy = append(out.GroupBy, cl.expr(g))
	}
	out.Having = cl.expr(c.Having)
	for _, o := range c.OrderBy {
		out.OrderBy = append(out.OrderBy, OrderItem{Expr: cl.expr(o.Expr), Desc: o.Desc})
	}
	return out
}

// RequalifyExpr returns a deep copy of e with every column qualifier equal
// to from replaced by to (from == "" rewrites unqualified references). The
// rewrite descends into subqueries, where references to the outer alias may
// appear as correlations.
func RequalifyExpr(e Expr, from, to string) Expr {
	c := CloneExpr(e)
	Walk(c, true, func(x Expr) {
		if col, ok := x.(*ColRef); ok && col.Table == from {
			col.Table = to
		}
	})
	return c
}
