package core

import (
	"context"
	"fmt"
	"slices"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// BaselineKind selects one of the evaluation's reference strategies (§7.2
// Experiment 3).
type BaselineKind string

// The three baselines.
const (
	// BaselineP appends the querier's policies to the WHERE clause as one
	// DNF expression — the classic policy-as-data query rewrite.
	BaselineP BaselineKind = "BaselineP"
	// BaselineI performs one forced index scan per policy and UNIONs the
	// results.
	BaselineI BaselineKind = "BaselineI"
	// BaselineU evaluates the policies with a per-tuple UDF over all the
	// tuple's attributes.
	BaselineU BaselineKind = "BaselineU"
)

// ExecuteBaseline rewrites with the chosen baseline and runs the query
// under ctx: cancellation aborts the baseline's scan like any other
// query.
func (m *Middleware) ExecuteBaseline(ctx context.Context, kind BaselineKind, sql string, qm policy.Metadata) (*engine.Result, error) {
	stmt, err := m.rewriteBaseline(kind, sql, qm)
	if err != nil {
		return nil, err
	}
	return m.db.QueryStmtCtx(ctx, stmt)
}

// rewriteBaseline parses and rewrites a query with one of the baseline
// strategies; like RewriteQuery it binds no arguments, so a placeholder is
// an error, raised before anything is registered. BaselineU's Δ calls, one
// per reference to a protected relation, each register a check set that
// lives as long as the call (newDeltaCall).
func (m *Middleware) rewriteBaseline(kind BaselineKind, sql string, qm policy.Metadata) (*sqlparser.SelectStmt, error) {
	stmt, err := parseUnbound(sql)
	if err != nil {
		return nil, err
	}
	if qm.Querier == "" {
		return nil, fmt.Errorf("sieve: query metadata must identify the querier")
	}
	relations := slices.DeleteFunc(referencedTables(stmt), func(r string) bool { return !m.Protected(r) })
	if len(relations) == 0 {
		return stmt, nil
	}
	ex, err := m.db.Explain(stmt) // every base reference, before any changes
	if err != nil {
		return nil, err
	}
	fresh := cteNamer(ex.With)
	var ctes []sqlparser.CTE
	for _, relation := range relations {
		ps := m.store.PoliciesFor(qm, relation, m.groups)
		var err error
		switch kind {
		case BaselineP:
			err = appendPerCore(ex, relation, func(refName string) (sqlparser.Expr, error) {
				if e := policy.Expression(ps, refName); e != nil {
					return e, nil
				}
				return sqlparser.Lit(storage.NewBool(false)), nil
			})
		case BaselineU:
			err = appendPerCore(ex, relation, func(refName string) (sqlparser.Expr, error) {
				if len(ps) == 0 {
					return sqlparser.Lit(storage.NewBool(false)), nil
				}
				return m.newDeltaCall(ps, relation, refName)
			})
		case BaselineI:
			name := fresh(relation) // one CTE per relation: BaselineI pushes nothing
			for _, ta := range ex.Tables {
				if ta.Ref != nil && ta.Ref.Name == relation {
					redirect(ta.Ref, name)
				}
			}
			ctes = append(ctes, sqlparser.CTE{Name: name, Select: m.buildBaselineICTE(relation, ps)})
		default:
			err = fmt.Errorf("sieve: unknown baseline %q", kind)
		}
		if err != nil {
			return nil, err
		}
	}
	stmt.With = append(ctes, stmt.With...)
	return stmt, nil
}

// appendPerCore conjoins mk(refName) to the WHERE clause of the core of
// every base reference to the relation, for each reference, wherever the
// core sits — expression subqueries included (policy checks precede any
// non-monotonic set operation, §3.1), and ahead of every conjunct that can
// raise (sqlparser.Guarded).
func appendPerCore(ex *engine.Explain, relation string, mk func(refName string) (sqlparser.Expr, error)) error {
	for _, ta := range ex.Tables {
		if ta.Ref != nil && ta.Ref.Name == relation {
			check, err := mk(ta.Ref.RefName())
			if err != nil {
				return err
			}
			ta.Core.Where = sqlparser.Guarded(sqlparser.Conjuncts(ta.Core.Where), check)
		}
	}
	return nil
}

// buildBaselineICTE constructs BaselineI's projection: one forced
// owner-index scan per policy, UNIONed.
func (m *Middleware) buildBaselineICTE(relation string, ps []*policy.Policy) *sqlparser.SelectStmt {
	mkCore := func(where sqlparser.Expr) *sqlparser.SelectCore {
		ref := sqlparser.TableRef{Name: relation}
		if m.db.Dialect().HonorsIndexHints() {
			ref.Hint = &sqlparser.IndexHint{Kind: sqlparser.HintForce, Indexes: []string{policy.OwnerAttr}}
		}
		return &sqlparser.SelectCore{Star: true, From: []sqlparser.TableRef{ref}, Where: where, Limit: -1}
	}
	if len(ps) == 0 {
		return &sqlparser.SelectStmt{Body: mkCore(sqlparser.Lit(storage.NewBool(false)))}
	}
	out := &sqlparser.SelectStmt{Body: mkCore(ps[0].Expr(relation))}
	for _, p := range ps[1:] {
		out.Ops = append(out.Ops, sqlparser.SetOp{Kind: sqlparser.SetUnion, Core: mkCore(p.Expr(relation))})
	}
	return out
}
