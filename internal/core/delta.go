package core

import (
	"fmt"
	"iter"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// checkSet is one registered policy set evaluated by the Δ UDF: the
// partition of a guard (Guard&Δ, §5.4) or a querier's entire policy set
// (BaselineU). The compiled form binds conditions to the relation's column
// offsets; the tuple arrives as UDF arguments in schema order, mirroring
// the paper's UDF signature ([policy], querier, purpose, [attrs]).
type checkSet struct {
	relation string
	schema   *storage.Schema
	// qualified lays the relation's tuple out under its own name for
	// derived-value conditions that re-enter the engine (§3.1's
	// documented correlation convention).
	qualified *engine.RelSchema
	compiled  *policy.CompiledSet
	ownerIdx  int
	// hasDerived caches compiled.HasSubqueryConditions so the per-tuple
	// Δ path only builds a sub-evaluator when one can actually be called.
	hasDerived bool
}

// registerCheckSetLocked compiles and registers a policy set; caller holds
// m.mu. The returned id is the Δ UDF's first argument.
func (m *Middleware) registerCheckSetLocked(ps []*policy.Policy, relation string, schema *storage.Schema) (int64, error) {
	compiled, err := policy.CompileSet(ps, schema)
	if err != nil {
		return 0, err
	}
	ownerIdx := schema.ColumnIndex(policy.OwnerAttr)
	if ownerIdx < 0 {
		return 0, fmt.Errorf("sieve: relation %q lacks owner attribute", relation)
	}
	cs := &checkSet{
		relation:   relation,
		schema:     schema,
		qualified:  engine.QualifiedSchema(relation, schema),
		compiled:   compiled,
		ownerIdx:   ownerIdx,
		hasDerived: compiled.HasSubqueryConditions(),
	}
	m.nextSetID++
	id := m.nextSetID
	m.registry.Store(id, cs)
	return id, nil
}

// dropCheckSetsLocked forgets stale check sets; caller holds m.mu.
func (m *Middleware) dropCheckSetsLocked(ids iter.Seq[int64]) {
	for id := range ids {
		m.registry.Delete(id)
	}
}

// lookupCheckSet fetches a registered set without taking m.mu: the Δ UDF
// calls it per tuple from scan workers, which must never wait behind a
// rewrite or a policy write.
func (m *Middleware) lookupCheckSet(id int64) (*checkSet, bool) {
	v, ok := m.registry.Load(id)
	if !ok {
		return nil, false
	}
	return v.(*checkSet), true
}

// registerDeltaUDF installs the Δ operator (§5.2) in the engine. Arguments:
// set id followed by the relation's attributes in schema order. The UDF
// filters the set's policies by the tuple's owner (the context-based
// policy filtering of §3.2) and evaluates only those, stopping at the
// first match.
func (m *Middleware) registerDeltaUDF() {
	m.db.RegisterUDF(DeltaUDFName, func(ctx *engine.UDFContext, args []storage.Value) (storage.Value, error) {
		if len(args) < 1 || args[0].K != storage.KindInt {
			return storage.Null, fmt.Errorf("%s: first argument must be a check-set id", DeltaUDFName)
		}
		cs, ok := m.lookupCheckSet(args[0].I)
		if !ok {
			return storage.Null, fmt.Errorf("%s: unknown check set %d", DeltaUDFName, args[0].I)
		}
		row := storage.Row(args[1:])
		if len(row) != cs.schema.Len() {
			return storage.Null, fmt.Errorf("%s: got %d attributes, schema has %d", DeltaUDFName, len(row), cs.schema.Len())
		}
		owner := row[cs.ownerIdx]
		if owner.IsNull() {
			return storage.NewBool(false), nil // unowned tuples are denied by default
		}
		// Derived-value conditions re-enter the engine; their work tallies
		// into the invoking query's own counters, so no global merge lock
		// is taken on this per-tuple path. The closure is only built when
		// the set actually contains such conditions.
		var sub policy.SubqueryEvaluator
		if cs.hasDerived {
			sub = func(cond policy.ObjectCondition, row storage.Row) (bool, error) {
				v, err := m.db.EvalPredicateWith(ctx.Counters, cond.Expr(cs.relation), cs.qualified, row)
				if err != nil {
					return false, err
				}
				return engine.Truthy(v), nil
			}
		}
		matched, checked, err := cs.compiled.EvalOwnerFirstMatch(owner.I, row, sub)
		ctx.Counters.PolicyEvals += int64(checked)
		if err != nil {
			return storage.Null, err
		}
		return storage.NewBool(matched), nil
	})
}

// deltaCall builds the SQL invocation sieve_delta(id, q.col1, …) = TRUE
// with the tuple's attributes qualified by qualifier, in schema order.
func deltaCall(id int64, qualifier string, schema *storage.Schema) sqlparser.Expr {
	args := []sqlparser.Expr{sqlparser.Lit(storage.NewInt(id))}
	for _, c := range schema.Columns {
		args = append(args, sqlparser.Col(qualifier, c.Name))
	}
	return &sqlparser.CompareExpr{
		Op: sqlparser.CmpEq,
		L:  &sqlparser.FuncCall{Name: DeltaUDFName, Args: args},
		R:  sqlparser.Lit(storage.NewBool(true)),
	}
}
