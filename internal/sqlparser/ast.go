package sqlparser

import (
	"github.com/sieve-db/sieve/internal/storage"
)

// SelectStmt is a full statement: optional WITH prologue, a first select
// core, and any number of UNION arms. MINUS/EXCEPT arms model the paper's
// §3.1 non-monotonic example.
type SelectStmt struct {
	With []CTE
	Body *SelectCore
	Ops  []SetOp
}

// SetOpKind distinguishes UNION from MINUS/EXCEPT set operations.
type SetOpKind int

const (
	// SetUnion is UNION / UNION ALL.
	SetUnion SetOpKind = iota
	// SetMinus is MINUS (printed as EXCEPT on re-parse-compatible output).
	SetMinus
)

// SetOp is one set-operation arm of a statement.
type SetOp struct {
	Kind SetOpKind
	All  bool // UNION ALL keeps duplicates
	Core *SelectCore
}

// CTE is one WITH-clause entry: name AS (select).
type CTE struct {
	Name   string
	Select *SelectStmt
}

// SelectCore is a single SELECT ... FROM ... WHERE ... block.
type SelectCore struct {
	Distinct bool
	Star     bool // SELECT *
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent
	Offset   int64 // rows skipped before Limit counts; <= 0 means absent
}

// SelectItem is one projection expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// TableRef is one FROM entry: a base table or a derived table, with an
// optional alias and optional index usage hint.
type TableRef struct {
	Name     string
	Alias    string
	Subquery *SelectStmt
	Hint     *IndexHint
}

// RefName returns the name the rest of the query uses for this table.
func (t TableRef) RefName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// HintKind distinguishes FORCE INDEX from USE INDEX.
type HintKind int

const (
	// HintForce is MySQL's FORCE INDEX (...): treat a table scan as very
	// expensive, use one of the listed indexes.
	HintForce HintKind = iota
	// HintUse is USE INDEX (...); with an empty list it tells the optimizer
	// to ignore all indexes (the paper's LinearScan rewrite, §5.5).
	HintUse
)

// IndexHint is an index usage hint attached to a table reference.
type IndexHint struct {
	Kind    HintKind
	Indexes []string // column names; empty with HintUse means "no indexes"
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Expr is a SQL expression node.
type Expr interface{ exprNode() }

// Literal is a constant value.
type Literal struct {
	Val storage.Value
}

// ColRef is a possibly table-qualified column reference.
type ColRef struct {
	Table  string
	Column string
}

// BinOp enumerates binary operators carried by BinaryExpr.
type BinOp int

// Binary operators. OpAnd/OpOr are logical; the rest arithmetic.
const (
	OpAnd BinOp = iota
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
)

// BinaryExpr is a logical or arithmetic binary expression.
type BinaryExpr struct {
	Op   BinOp
	L, R Expr
}

// CmpOp enumerates comparison operators.
type CmpOp int

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String returns the SQL spelling of the comparison operator.
func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	}
	return "?"
}

// Negate returns the complementary operator (< becomes >=, etc.).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case CmpEq:
		return CmpNe
	case CmpNe:
		return CmpEq
	case CmpLt:
		return CmpGe
	case CmpLe:
		return CmpGt
	case CmpGt:
		return CmpLe
	case CmpGe:
		return CmpLt
	}
	return op
}

// Flip returns the operator with sides swapped (a < b ⇔ b > a).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	}
	return op
}

// CompareExpr is a comparison between two expressions.
type CompareExpr struct {
	Op   CmpOp
	L, R Expr
}

// NotExpr is logical negation.
type NotExpr struct {
	E Expr
}

// BetweenExpr is e [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Not       bool
}

// InExpr is e [NOT] IN (list) or e [NOT] IN (subquery).
type InExpr struct {
	E    Expr
	List []Expr
	Sub  *SelectStmt
	Not  bool
}

// IsNullExpr is e IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

// FuncCall is a function or aggregate invocation. Star marks COUNT(*).
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
}

// Placeholder is an inbound bind parameter (`?`). Idx is the 1-based
// ordinal in lexical order across the whole statement. Placeholders exist
// only between Parse and BindStmt: the policy rewrite and the engine both
// require literal values (pushable conjuncts and sargs are extracted from
// constants), so binding happens before rewriting and an unbound
// placeholder reaching evaluation is an error.
type Placeholder struct {
	Idx int
}

// SubqueryExpr is a scalar subquery used as a value.
type SubqueryExpr struct {
	Select *SelectStmt
}

// ExistsExpr is EXISTS (subquery).
type ExistsExpr struct {
	Select *SelectStmt
}

func (*Literal) exprNode()      {}
func (*Placeholder) exprNode()  {}
func (*ColRef) exprNode()       {}
func (*BinaryExpr) exprNode()   {}
func (*CompareExpr) exprNode()  {}
func (*NotExpr) exprNode()      {}
func (*BetweenExpr) exprNode()  {}
func (*InExpr) exprNode()       {}
func (*IsNullExpr) exprNode()   {}
func (*FuncCall) exprNode()     {}
func (*SubqueryExpr) exprNode() {}
func (*ExistsExpr) exprNode()   {}

// And conjoins non-nil expressions; returns nil when all are nil.
func And(exprs ...Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &BinaryExpr{Op: OpAnd, L: out, R: e}
		}
	}
	return out
}

// Or disjoins non-nil expressions; returns nil when all are nil.
func Or(exprs ...Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &BinaryExpr{Op: OpOr, L: out, R: e}
		}
	}
	return out
}

// Guarded conjoins conjs with an access check, guard, so that no conjunct
// that can raise runs on a tuple the check denies: the leakproof conjuncts,
// then guard, then the rest, each in the order given. The row evaluator and
// the compiled filter both stop at a row's first conjunct that is not true,
// so an error raised by the rest comes from an allowed tuple; raised on a
// denied one, it would tell the querier the tuple exists, and might print
// its values.
func Guarded(conjs []Expr, guard Expr) Expr {
	var safe, rest []Expr
	for _, c := range conjs {
		if Leakproof(c) {
			safe = append(safe, c)
		} else {
			rest = append(rest, c)
		}
	}
	return And(append([]Expr{And(safe...), guard}, rest...)...)
}

// Leakproof reports whether e is built only from column references,
// literals, comparisons, BETWEEN, IN over a literal list, IS [NOT] NULL and
// AND/OR/NOT: whether evaluating it on a row can never raise.
func Leakproof(e Expr) bool {
	switch x := e.(type) {
	case *ColRef, *Literal:
		return true
	case *CompareExpr:
		return Leakproof(x.L) && Leakproof(x.R)
	case *BetweenExpr:
		return Leakproof(x.E) && Leakproof(x.Lo) && Leakproof(x.Hi)
	case *InExpr:
		for _, it := range x.List {
			if _, ok := it.(*Literal); !ok {
				return false
			}
		}
		return x.Sub == nil && Leakproof(x.E)
	case *IsNullExpr:
		return Leakproof(x.E)
	case *NotExpr:
		return Leakproof(x.E)
	case *BinaryExpr:
		return (x.Op == OpAnd || x.Op == OpOr) && Leakproof(x.L) && Leakproof(x.R)
	}
	return false
}

// Col is shorthand for a column reference expression.
func Col(table, column string) *ColRef { return &ColRef{Table: table, Column: column} }

// Lit is shorthand for a literal expression.
func Lit(v storage.Value) *Literal { return &Literal{Val: v} }

// Eq builds column = value.
func Eq(l, r Expr) *CompareExpr { return &CompareExpr{Op: CmpEq, L: l, R: r} }

// Conjuncts flattens nested ANDs into a list of conjuncts.
func Conjuncts(e Expr) []Expr { return operands(e, OpAnd, nil) }

// Disjuncts flattens nested ORs into a list of disjuncts.
func Disjuncts(e Expr) []Expr { return operands(e, OpOr, nil) }

// operands appends the operands of e's chain of op to out, left to right:
// one slice for the whole chain, however deep the guard rewrite nests it.
func operands(e Expr, op BinOp, out []Expr) []Expr {
	if e == nil {
		return out
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == op {
		return operands(b.R, op, operands(b.L, op, out))
	}
	return append(out, e)
}
