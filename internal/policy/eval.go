package policy

import (
	"fmt"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Matches evaluates the condition against a tuple value. CondSubquery
// conditions need a query engine and return an error here; callers route
// them through a SubqueryEvaluator.
func (c ObjectCondition) Matches(v storage.Value) (bool, error) {
	switch c.Kind {
	case CondCompare:
		return applyCmp(c.Op, v, c.Val), nil
	case CondRange:
		// NULL bounds are unbounded sides (possible after guard merging).
		if !c.Lo.IsNull() && !applyCmp(c.LoOp, v, c.Lo) {
			return false, nil
		}
		if !c.Hi.IsNull() && !applyCmp(c.HiOp, v, c.Hi) {
			return false, nil
		}
		return !v.IsNull(), nil
	case CondIn:
		for _, m := range c.Vals {
			if storage.Equal(v, m) {
				return true, nil
			}
		}
		return false, nil
	case CondNotIn:
		if v.IsNull() {
			return false, nil
		}
		for _, m := range c.Vals {
			if m.IsNull() || storage.Equal(v, m) {
				return false, nil
			}
		}
		return true, nil
	case CondSubquery:
		return false, fmt.Errorf("policy: derived-value condition on %s requires engine evaluation", c.Attr)
	}
	return false, fmt.Errorf("policy: unknown condition kind %d", c.Kind)
}

func applyCmp(op sqlparser.CmpOp, l, r storage.Value) bool {
	cmp, ok := storage.Compare(l, r)
	if !ok {
		return false // NULL or incomparable never satisfies (§3.1 eval)
	}
	switch op {
	case sqlparser.CmpEq:
		return cmp == 0
	case sqlparser.CmpNe:
		return cmp != 0
	case sqlparser.CmpLt:
		return cmp < 0
	case sqlparser.CmpLe:
		return cmp <= 0
	case sqlparser.CmpGt:
		return cmp > 0
	case sqlparser.CmpGe:
		return cmp >= 0
	}
	return false
}

// SubqueryEvaluator evaluates a derived-value condition against a tuple
// using a query engine; the core package supplies one backed by the
// embedded engine.
type SubqueryEvaluator func(cond ObjectCondition, row storage.Row) (bool, error)

// ErrNoSubqueryEvaluator is returned when a derived-value condition is met
// without an engine-backed evaluator.
var ErrNoSubqueryEvaluator = fmt.Errorf("policy: no subquery evaluator provided")

// compiledCheck binds a condition to a column offset in the relation
// schema. Conditions on attributes absent from the schema are dropped at
// compile time, implementing the paper's "tt.attr = oc.attr ⇒ …" semantics
// (conditions on other attributes do not constrain the tuple).
type compiledCheck struct {
	col  int
	cond ObjectCondition
}

// CompiledSet is a policy set compiled against one relation schema for fast
// per-tuple evaluation: the hot path of the Δ operator and of the baseline
// UDF, and the ground-truth evaluator used by tests.
type CompiledSet struct {
	Policies []*Policy
	checks   [][]compiledCheck
	byOwner  map[int64][]int
}

// CompileSet compiles policies for rows laid out as schema.
func CompileSet(ps []*Policy, schema *storage.Schema) (*CompiledSet, error) {
	cs := &CompiledSet{
		Policies: ps,
		checks:   make([][]compiledCheck, len(ps)),
		byOwner:  make(map[int64][]int),
	}
	for i, p := range ps {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		var row []compiledCheck
		for _, c := range p.AllConditions() {
			col := schema.ColumnIndex(c.Attr)
			if col < 0 {
				continue
			}
			row = append(row, compiledCheck{col: col, cond: c})
		}
		cs.checks[i] = row
		cs.byOwner[p.Owner] = append(cs.byOwner[p.Owner], i)
	}
	return cs, nil
}

// HasSubqueryConditions reports whether any compiled policy carries a
// derived-value condition, i.e. whether evaluation can ever need a
// SubqueryEvaluator. Hot paths use it to skip building one.
func (cs *CompiledSet) HasSubqueryConditions() bool {
	for _, row := range cs.checks {
		for _, ch := range row {
			if ch.cond.Kind == CondSubquery {
				return true
			}
		}
	}
	return false
}

// evalPolicy evaluates one compiled policy against a row.
func (cs *CompiledSet) evalPolicy(i int, row storage.Row, sub SubqueryEvaluator) (bool, error) {
	for _, ch := range cs.checks[i] {
		if ch.cond.Kind == CondSubquery {
			if sub == nil {
				return false, ErrNoSubqueryEvaluator
			}
			ok, err := sub(ch.cond, row)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
			continue
		}
		ok, err := ch.cond.Matches(row[ch.col])
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// EvalFirstMatch evaluates the disjunction of all policies against a tuple,
// stopping at the first satisfied policy (§4 footnote 4). checked reports
// how many policies were evaluated — the experimental α statistic.
func (cs *CompiledSet) EvalFirstMatch(row storage.Row, sub SubqueryEvaluator) (matched bool, checked int, err error) {
	for i := range cs.Policies {
		checked++
		ok, err := cs.evalPolicy(i, row, sub)
		if err != nil {
			return false, checked, err
		}
		if ok {
			return true, checked, nil
		}
	}
	return false, checked, nil
}

// EvalOwnerFirstMatch is EvalFirstMatch restricted to policies whose owner
// matches the tuple's owner — the Δ operator's context-based filtering
// (§3.2): the tuple's owner attribute prunes the policies to check.
func (cs *CompiledSet) EvalOwnerFirstMatch(owner int64, row storage.Row, sub SubqueryEvaluator) (matched bool, checked int, err error) {
	for _, i := range cs.byOwner[owner] {
		checked++
		ok, err := cs.evalPolicy(i, row, sub)
		if err != nil {
			return false, checked, err
		}
		if ok {
			return true, checked, nil
		}
	}
	return false, checked, nil
}
