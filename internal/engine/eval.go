package engine

import (
	"fmt"
	"strings"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// RelCol is one column of an intermediate relation: the table (alias) it
// came from plus its name.
type RelCol struct {
	Table string
	Name  string
}

// RelSchema names the columns of an intermediate relation (a scan result, a
// join, a derived table) and resolves possibly-qualified references.
type RelSchema struct {
	Cols []RelCol
}

// Resolve returns the position of the referenced column. Unqualified names
// must be unambiguous. The error distinguishes "not found" so the bind pass
// can go on to an enclosing query's row for a correlated subquery.
func (s *RelSchema) Resolve(table, col string) (int, error) {
	found := -1
	for i, c := range s.Cols {
		if c.Name != col {
			continue
		}
		if table != "" && c.Table != table {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("engine: ambiguous column %q", col)
		}
		found = i
	}
	if found < 0 {
		return -1, errColNotFound
	}
	return found, nil
}

var errColNotFound = fmt.Errorf("engine: column not found")

// env is the row an operator evaluates its expressions on, with a link to
// the enclosing query's row for correlated subqueries. An operator keeps one
// env and binds each of its rows to it in turn. schema lays the row out for
// a UDF (UDFContext.Columns); evaluation reads the row by the slots the bind
// pass resolved.
type env struct {
	schema *RelSchema
	row    storage.Row
	outer  *env
}

// value is the value a bound column reference reads.
func (e *env) value(r colRef) storage.Value {
	for range r.up {
		e = e.outer
	}
	return e.row[r.slot]
}

func formatColRef(table, col string) string {
	if table != "" {
		return table + "." + col
	}
	return col
}

// aggregateNames are the built-in aggregate functions; FuncCalls with other
// names dispatch to the UDF registry.
var aggregateNames = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

func isAggregateName(name string) bool { return aggregateNames[strings.ToLower(name)] }

// evaluator interprets expressions over tuples, reading their names as b
// bound them. aggValues, when set, carries the precomputed aggregate
// results for the current group keyed by AST node.
type evaluator struct {
	ex        *executor
	scope     *scope
	b         *binding
	aggValues map[sqlparser.Expr]storage.Value
}

// truth converts a value to three-valued logic: (isTrue, isNull).
func truth(v storage.Value) (bool, bool) {
	if v.IsNull() {
		return false, true
	}
	return v.Bool(), false
}

func boolVal(b bool) storage.Value { return storage.NewBool(b) }

func (ev *evaluator) eval(e sqlparser.Expr, en *env) (storage.Value, error) {
	if ev.aggValues != nil {
		if v, ok := ev.aggValues[e]; ok {
			return v, nil
		}
	}
	switch x := e.(type) {
	case *sqlparser.Literal:
		return x.Val, nil
	case *sqlparser.ColRef:
		r, ok := ev.b.cols[x]
		if !ok {
			return storage.Null, fmt.Errorf("engine: internal error: column %s is not bound", formatColRef(x.Table, x.Column))
		}
		return en.value(r), nil
	case *sqlparser.BinaryExpr:
		return ev.evalBinary(x, en)
	case *sqlparser.CompareExpr:
		l, err := ev.eval(x.L, en)
		if err != nil {
			return storage.Null, err
		}
		r, err := ev.eval(x.R, en)
		if err != nil {
			return storage.Null, err
		}
		return compareValues(x.Op, l, r), nil
	case *sqlparser.NotExpr:
		v, err := ev.eval(x.E, en)
		if err != nil {
			return storage.Null, err
		}
		t, null := truth(v)
		if null {
			return storage.Null, nil
		}
		return boolVal(!t), nil
	case *sqlparser.BetweenExpr:
		v, err := ev.eval(x.E, en)
		if err != nil {
			return storage.Null, err
		}
		lo, err := ev.eval(x.Lo, en)
		if err != nil {
			return storage.Null, err
		}
		hi, err := ev.eval(x.Hi, en)
		if err != nil {
			return storage.Null, err
		}
		res := and3(compareValues(sqlparser.CmpGe, v, lo), compareValues(sqlparser.CmpLe, v, hi))
		if x.Not {
			return not3(res), nil
		}
		return res, nil
	case *sqlparser.InExpr:
		return ev.evalIn(x, en)
	case *sqlparser.IsNullExpr:
		v, err := ev.eval(x.E, en)
		if err != nil {
			return storage.Null, err
		}
		return boolVal(v.IsNull() != x.Not), nil
	case *sqlparser.FuncCall:
		return ev.evalFunc(x, en)
	case *sqlparser.SubqueryExpr:
		return ev.evalScalarSubquery(x.Select, en)
	case *sqlparser.ExistsExpr:
		res, _, err := ev.ex.subquery(ev.b.subs[x.Select], ev.scope, en)
		if err != nil {
			return storage.Null, err
		}
		return boolVal(len(res.Rows) > 0), nil
	default:
		return storage.Null, fmt.Errorf("engine: cannot evaluate %T", e)
	}
}

func (ev *evaluator) evalBinary(x *sqlparser.BinaryExpr, en *env) (storage.Value, error) {
	switch x.Op {
	case sqlparser.OpAnd:
		l, err := ev.eval(x.L, en)
		if err != nil {
			return storage.Null, err
		}
		if t, null := truth(l); !t && !null {
			return boolVal(false), nil // short-circuit, like the paper's
		} // DNF evaluation stopping at the first satisfied policy (§4 fn 4)
		r, err := ev.eval(x.R, en)
		if err != nil {
			return storage.Null, err
		}
		return and3(l, r), nil
	case sqlparser.OpOr:
		l, err := ev.eval(x.L, en)
		if err != nil {
			return storage.Null, err
		}
		if t, _ := truth(l); t {
			return boolVal(true), nil
		}
		r, err := ev.eval(x.R, en)
		if err != nil {
			return storage.Null, err
		}
		return or3(l, r), nil
	}
	l, err := ev.eval(x.L, en)
	if err != nil {
		return storage.Null, err
	}
	r, err := ev.eval(x.R, en)
	if err != nil {
		return storage.Null, err
	}
	return arith(x.Op, l, r)
}

// evalIn tests the probe against the executor's set for a literal list or a
// subquery (memberSet.has). A list with an expression in it is evaluated
// per row, and not at all for a NULL probe: being non-empty, it makes
// that NULL whatever its members.
func (ev *evaluator) evalIn(x *sqlparser.InExpr, en *env) (storage.Value, error) {
	v, err := ev.eval(x.E, en)
	if err != nil {
		return storage.Null, err
	}
	set, err := ev.inSet(x, en)
	if err != nil {
		return storage.Null, err
	}
	t := triNull
	switch {
	case set != nil:
		t = set.has(v)
	case !v.IsNull():
		members := make([]storage.Value, len(x.List))
		for i, item := range x.List {
			if members[i], err = ev.eval(item, en); err != nil {
				return storage.Null, err
			}
		}
		t = inList(v, members)
	}
	if x.Not {
		t = triNot(t)
	}
	return triValue(t), nil
}

// inSet returns the set x's probe is tested against: a literal list's,
// built once per executor; an uncorrelated subquery's, built once per
// execution; a correlated subquery's, this row's result unhashed. nil for a
// list of expressions.
func (ev *evaluator) inSet(x *sqlparser.InExpr, en *env) (*memberSet, error) {
	if x.Sub == nil {
		return ev.ex.literalSet(x), nil
	}
	res, once, err := ev.ex.subquery(ev.b.subs[x.Sub], ev.scope, en)
	if err != nil {
		return nil, err
	}
	if once != nil && once.set != nil {
		return once.set, nil
	}
	if len(res.Columns) != 1 {
		return nil, fmt.Errorf("engine: IN subquery must return one column, got %d", len(res.Columns))
	}
	members := make([]storage.Value, len(res.Rows))
	for i, r := range res.Rows {
		members[i] = r[0]
	}
	if once == nil {
		return &memberSet{members: members}, nil
	}
	once.set = newMemberSet(members)
	return once.set, nil
}

// triValue is t as a SQL value.
func triValue(t tri) storage.Value {
	switch t {
	case triTrue:
		return boolVal(true)
	case triFalse:
		return boolVal(false)
	}
	return storage.Null
}

func (ev *evaluator) evalFunc(x *sqlparser.FuncCall, en *env) (storage.Value, error) {
	if x.Star || isAggregateName(x.Name) {
		return storage.Null, fmt.Errorf("engine: aggregate %s outside GROUP BY context", x.Name)
	}
	fn, ok := ev.ex.db.udf(x.Name)
	if !ok {
		return storage.Null, fmt.Errorf("engine: unknown function %q", x.Name)
	}
	args := make([]storage.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := ev.eval(a, en)
		if err != nil {
			return storage.Null, err
		}
		args[i] = v
	}
	ev.ex.counters.UDFInvocations++
	ev.ex.db.simulateUDFOverhead()
	ctx := &UDFContext{DB: ev.ex.db, Row: en.row, Columns: en.schema, Counters: ev.ex.counters}
	return fn(ctx, args)
}

// evalScalarSubquery runs a subquery expected to produce a single value.
// Zero rows yield NULL; with more than one row the first is used (the
// engine documents MySQL-with-LIMIT-1 semantics; the paper's derived-value
// conditions, §3.1, select a single attribute of a single matching tuple).
func (ev *evaluator) evalScalarSubquery(s *sqlparser.SelectStmt, en *env) (storage.Value, error) {
	res, _, err := ev.ex.subquery(ev.b.subs[s], ev.scope, en)
	if err != nil {
		return storage.Null, err
	}
	if len(res.Columns) != 1 {
		return storage.Null, fmt.Errorf("engine: scalar subquery must return one column, got %d", len(res.Columns))
	}
	if len(res.Rows) == 0 {
		return storage.Null, nil
	}
	return res.Rows[0][0], nil
}

// compareValues applies op with SQL three-valued semantics.
func compareValues(op sqlparser.CmpOp, l, r storage.Value) storage.Value {
	c, ok := storage.Compare(l, r)
	if !ok {
		return storage.Null
	}
	switch op {
	case sqlparser.CmpEq:
		return boolVal(c == 0)
	case sqlparser.CmpNe:
		return boolVal(c != 0)
	case sqlparser.CmpLt:
		return boolVal(c < 0)
	case sqlparser.CmpLe:
		return boolVal(c <= 0)
	case sqlparser.CmpGt:
		return boolVal(c > 0)
	case sqlparser.CmpGe:
		return boolVal(c >= 0)
	}
	return storage.Null
}

func and3(l, r storage.Value) storage.Value {
	lt, ln := truth(l)
	rt, rn := truth(r)
	switch {
	case (!lt && !ln) || (!rt && !rn):
		return boolVal(false)
	case ln || rn:
		return storage.Null
	default:
		return boolVal(true)
	}
}

func or3(l, r storage.Value) storage.Value {
	lt, ln := truth(l)
	rt, rn := truth(r)
	switch {
	case lt || rt:
		return boolVal(true)
	case ln || rn:
		return storage.Null
	default:
		return boolVal(false)
	}
}

func not3(v storage.Value) storage.Value {
	t, null := truth(v)
	if null {
		return storage.Null
	}
	return boolVal(!t)
}

// arith applies +,-,*,/ with INT/FLOAT coercion. Division always yields
// FLOAT; dividing by zero yields NULL (PostgreSQL raises, MySQL yields
// NULL; the permissive choice keeps generated workloads total).
func arith(op sqlparser.BinOp, l, r storage.Value) (storage.Value, error) {
	if l.IsNull() || r.IsNull() {
		return storage.Null, nil
	}
	numeric := func(v storage.Value) bool {
		switch v.K {
		case storage.KindInt, storage.KindFloat, storage.KindTime, storage.KindDate:
			return true
		}
		return false
	}
	if !numeric(l) || !numeric(r) {
		return storage.Null, fmt.Errorf("engine: arithmetic on non-numeric values %v, %v", l, r)
	}
	if op == sqlparser.OpDiv {
		if r.Float() == 0 {
			return storage.Null, nil
		}
		return storage.NewFloat(l.Float() / r.Float()), nil
	}
	if l.K == storage.KindFloat || r.K == storage.KindFloat {
		a, b := l.Float(), r.Float()
		switch op {
		case sqlparser.OpAdd:
			return storage.NewFloat(a + b), nil
		case sqlparser.OpSub:
			return storage.NewFloat(a - b), nil
		case sqlparser.OpMul:
			return storage.NewFloat(a * b), nil
		}
	}
	a, b := l.I, r.I
	switch op {
	case sqlparser.OpAdd:
		return storage.NewInt(a + b), nil
	case sqlparser.OpSub:
		return storage.NewInt(a - b), nil
	case sqlparser.OpMul:
		return storage.NewInt(a * b), nil
	}
	return storage.Null, fmt.Errorf("engine: unsupported arithmetic op %d", op)
}
