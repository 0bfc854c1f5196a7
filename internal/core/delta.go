package core

import (
	"fmt"
	"runtime"

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

// newDeltaCall is the one constructor of a Δ check set (§5.2, §5.4): it
// compiles ps over the relation's schema, registers the set under a fresh
// id and returns the call sieve_delta(id, qualifier.col1, …) = TRUE, with
// the tuple's attributes in schema order. The set lives exactly as long as
// the call's FuncCall node: a cleanup attached to the node deletes the id
// once nothing that can evaluate the call — a rewritten statement, a
// prepared plan, a shared filter, a patch-base record, a guard state — still
// holds it, and nothing else deletes it. So a query opened over a state
// that has since retired still finds every set it calls. Every path that
// runs a Δ call runs this node: a statement is cloned before its rewrite
// (sqlparser.BindStmt), never after, and an emitter's clone only becomes
// text.
func (m *Middleware) newDeltaCall(ps []*policy.Policy, relation, qualifier string) (sqlparser.Expr, error) {
	schema := m.db.MustTable(relation).Schema
	compiled, err := policy.CompileSet(ps, schema)
	if err != nil {
		return nil, err
	}
	ownerIdx := schema.ColumnIndex(policy.OwnerAttr)
	if ownerIdx < 0 {
		return nil, fmt.Errorf("sieve: relation %q lacks owner attribute", relation)
	}
	id := m.nextSetID.Add(1)
	m.registry.Store(id, &checkSet{
		relation:   relation,
		schema:     schema,
		qualified:  engine.QualifiedSchema(relation, schema),
		compiled:   compiled,
		ownerIdx:   ownerIdx,
		hasDerived: compiled.HasSubqueryConditions(),
	})
	args := []sqlparser.Expr{sqlparser.Lit(storage.NewInt(id))}
	for _, c := range schema.Columns {
		args = append(args, sqlparser.Col(qualifier, c.Name))
	}
	call := &sqlparser.FuncCall{Name: DeltaUDFName, Args: args}
	runtime.AddCleanup(call, func(id int64) { m.registry.Delete(id) }, id)
	return &sqlparser.CompareExpr{Op: sqlparser.CmpEq, L: call, R: sqlparser.Lit(storage.NewBool(true))}, nil
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
