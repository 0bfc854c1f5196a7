package core

import (
	"fmt"
	"slices"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
)

// RewriteQuery parses and rewrites a query without running it: every
// reference to a protected relation is replaced by a WITH-clause projection
// of its own that satisfies the querier's guarded policy expression (§5.3),
// with strategy-specific index hints on hint-honouring dialects (§5.5) and Δ
// calls for large partitions (§5.4). It is the one door from SQL text to a
// rewrite that binds no arguments, so a placeholder is an error here, as it
// is for a Query given no args.
func (m *Middleware) RewriteQuery(sql string, qm policy.Metadata) (*sqlparser.SelectStmt, *Report, error) {
	stmt, err := parseUnbound(sql)
	if err != nil {
		return nil, nil, err
	}
	return m.rewriteSpan(stmt, qm, nil)
}

// parseUnbound parses sql for a rewrite that binds no arguments: a
// statement with a placeholder is rejected.
func parseUnbound(sql string) (*sqlparser.SelectStmt, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return sqlparser.BindStmt(stmt, nil)
}

// rewriteSpan is the rewrite of every statement that is not a prepared
// plan: it lists the tables stmt references, resolves the protected ones
// once (resolve) on a "guard-resolve" child of sp with hit/regen counts, and
// rewrites stmt in place from that resolution on sp itself. Callers that
// keep the original AST must pass a clone. sp may be nil (tracing off).
func (m *Middleware) rewriteSpan(stmt *sqlparser.SelectStmt, qm policy.Metadata, sp *obs.Span) (*sqlparser.SelectStmt, *Report, error) {
	tables := referencedTables(stmt)
	gsp := sp.StartChild("guard-resolve")
	res, err := m.resolve(qm, tables)
	gsp.End()
	if err != nil {
		return nil, nil, err
	}
	hits, regens := countHits(res)
	if hits > 0 {
		gsp.Count("hits", int64(hits))
	}
	if regens > 0 {
		gsp.Count("regens", int64(regens))
	}
	return stmt, m.rewriteResolved(stmt, qm, res), nil
}

// rewriteResolved rewrites stmt in place from one resolution of its
// protected relations, taking no lock, in one walk: every base reference to
// one, in whatever core it sits, gets a WITH entry of its own, priced (§5.5)
// and filtered by the single-table conjuncts that move in from its core. The
// entries are prepended after the walk, so it never enters a guard arm.
func (m *Middleware) rewriteResolved(stmt *sqlparser.SelectStmt, qm policy.Metadata, res []resolution) *Report {
	rep := &Report{}
	rep.GuardCacheHits, rep.GuardCacheMisses = countHits(res)
	if len(res) == 0 {
		return rep
	}
	fresh := cteNamer(stmt)
	hints := m.db.Dialect().HonorsIndexHints() && !m.noHints
	var ctes []sqlparser.CTE
	forEachBaseRef(stmt, func(c *sqlparser.SelectCore, ref *sqlparser.TableRef) {
		i := slices.IndexFunc(res, func(r resolution) bool { return r.relation == ref.Name })
		if i < 0 {
			return
		}
		r := &res[i]
		conjs := m.moveConjuncts(c, ref)
		dec := m.chooseStrategy(r.relation, m.accessFor(ref, conjs), r.state)
		dec.DeltaGuards = len(r.state.deltaSets)
		dec.Signature = r.state.signature()
		dec.SharedState = r.state.ge.Querier != qm.Querier || r.state.ge.Purpose != qm.Purpose
		arms, guardOr := r.state.guardArms(m.db)
		g := engine.GuardedCTE{
			Name:        fresh(r.relation),
			Relation:    r.relation,
			Strategy:    string(dec.Strategy),
			QueryIndex:  dec.QueryIndex,
			DefaultDeny: guardOr == nil,
			Arms:        arms,
			Guard:       guardOr,
			QueryConjs:  conjs,
		}
		redirect(ref, g.Name)
		ctes = append(ctes, sqlparser.CTE{Name: g.Name, Select: g.Frame(hints)})
		rep.GuardedCTEs = append(rep.GuardedCTEs, g)
		rep.Decisions = append(rep.Decisions, dec)
	})
	stmt.With = append(ctes, stmt.With...)
	return rep
}

// forEachBaseRef calls fn for every FROM entry naming a table rather than a
// derived table, with the core it belongs to, wherever sqlparser.WalkCores
// reaches: CTEs, set-operation arms, derived tables and expression
// subqueries.
func forEachBaseRef(stmt *sqlparser.SelectStmt, fn func(*sqlparser.SelectCore, *sqlparser.TableRef)) {
	sqlparser.WalkCores(stmt, func(c *sqlparser.SelectCore, _ bool) {
		for i := range c.From {
			if c.From[i].Subquery == nil {
				fn(c, &c.From[i])
			}
		}
	})
}

// cteNamer returns a source of WITH names unused in stmt:
// relation_sieve, relation_sieve2, … per relation.
func cteNamer(stmt *sqlparser.SelectStmt) func(relation string) string {
	used := make(map[string]bool, len(stmt.With))
	for _, cte := range stmt.With {
		used[cte.Name] = true
	}
	return func(relation string) string {
		name := relation + "_sieve"
		for i := 2; used[name]; i++ {
			name = fmt.Sprintf("%s_sieve%d", relation, i)
		}
		used[name] = true
		return name
	}
}

// redirect points a base reference at a WITH entry, keeping its alias (an
// unaliased reference gets the relation name as alias so qualified column
// references keep resolving, footnote 8 of §5.3).
func redirect(ref *sqlparser.TableRef, cteName string) {
	if ref.Alias == "" {
		ref.Alias = ref.Name
	}
	ref.Name = cteName
	ref.Hint = nil // hints are meaningless on a derived relation
}

// moveConjuncts removes from c's WHERE the conjuncts that read ref alone and
// returns them re-qualified to the relation's own name, for ref's guarded
// CTE (§5.5's selective query predicates). A conjunct reads ref alone when
// it holds no subquery and every column it reads is qualified with ref's
// name or — when ref is c's only FROM entry — unqualified and in the
// relation's schema. Comma joins are the only joins, so a WHERE conjunct
// filters its entry the same inside the CTE as outside it. A column the
// relation lacks fails the open wherever it sits (the engine binds every
// name before it reads a row), so it cannot tell a denied row from an
// absent one.
func (m *Middleware) moveConjuncts(c *sqlparser.SelectCore, ref *sqlparser.TableRef) []sqlparser.Expr {
	refName, schema, alone := ref.RefName(), m.db.MustTable(ref.Name).Schema, len(c.From) == 1
	var moved, kept []sqlparser.Expr
	for _, conj := range sqlparser.Conjuncts(c.Where) {
		own := !sqlparser.HasSubquery(conj)
		sqlparser.Walk(conj, false, func(x sqlparser.Expr) {
			if col, ok := x.(*sqlparser.ColRef); ok && col.Table != refName &&
				(col.Table != "" || !alone || !schema.HasColumn(col.Column)) {
				own = false
			}
		})
		if own {
			moved = append(moved, sqlparser.RequalifyExpr(sqlparser.RequalifyExpr(conj, refName, ref.Name), "", ref.Name))
		} else {
			kept = append(kept, conj)
		}
	}
	if len(moved) > 0 {
		c.Where = sqlparser.And(kept...)
	}
	return moved
}

// accessFor is the optimizer's EXPLAIN of the scan ref's guarded CTE runs:
// the relation under the reference's own hint, filtered by the conjuncts
// moved into it. It is the zero access (no usable index) if EXPLAIN fails.
func (m *Middleware) accessFor(ref *sqlparser.TableRef, conjs []sqlparser.Expr) engine.TableAccess {
	scan := &sqlparser.SelectCore{
		Star:  true,
		From:  []sqlparser.TableRef{{Name: ref.Name, Hint: ref.Hint}},
		Where: sqlparser.And(conjs...),
		Limit: -1,
	}
	if ex, err := m.db.Explain(&sqlparser.SelectStmt{Body: scan}); err == nil && len(ex.Tables) == 1 {
		return ex.Tables[0]
	}
	return engine.TableAccess{}
}

// guardArms returns the state's guard arms — per guard, the guard predicate
// conjoined with the inlined policy partition or a Δ call, plus the
// provenance the dialect emitters consume — and their disjunction. They
// depend on the state alone, so they are built at its first rewrite and
// shared read-only by every rewritten statement after it: nothing
// downstream of the rewrite changes an expression in place, and the
// rewrite's own walk is over before it prepends a guarded CTE, so it never
// redirects a reference inside an arm. A subquery in an arm (a
// derived-value condition) therefore reads base relations, as the Δ UDF's
// checks do. For the same reason a patched state takes its base's arm, AST
// and all, for every guard guard.Patch kept unchanged and that is not Δ,
// and builds only the rest.
//
// A disjunction of arms is registered with the engine as a shared filter,
// so the engine compiles it once per state rather than once per execution.
// A retirement may land while this runs outside m.mu: whichever of the two
// comes second sees the other (filter is stored before gone is read, gone
// is set before filter is read), so a retired state is never left
// registered.
func (st *geState) guardArms(db *engine.DB) ([]engine.GuardArm, sqlparser.Expr) {
	st.armsOnce.Do(func() {
		schema := db.MustTable(st.relation).Schema
		exprs := make([]sqlparser.Expr, len(st.ge.Guards))
		st.arms = make([]engine.GuardArm, len(st.ge.Guards))
		for gi := range st.ge.Guards {
			g := &st.ge.Guards[gi]
			setID, useDelta := st.deltaSets[gi]
			switch {
			case useDelta:
				st.arms[gi] = engine.GuardArm{Col: g.Cond.Attr, Expr: sqlparser.And(g.Expr(st.relation), deltaCall(setID, st.relation, schema)), Delta: true}
			case st.baseArms != nil && st.from[gi] >= 0:
				// A kept guard has its base's partition, so the base
				// inlined it too: Δ follows the partition's size.
				st.arms[gi] = st.baseArms[st.from[gi]]
			default:
				st.arms[gi] = engine.GuardArm{Col: g.Cond.Attr, Expr: sqlparser.And(g.Expr(st.relation), g.PartitionExpr(st.relation))}
			}
			exprs[gi] = st.arms[gi].Expr
		}
		st.from, st.baseArms = nil, nil
		st.armsBuilt.Store(true)
		st.guardOr = sqlparser.Or(exprs...)
		if len(exprs) > 1 {
			st.filter.Store(db.ShareFilter(st.relation, st.guardOr))
			if st.gone.Load() {
				st.filter.Load().Release()
			}
		}
	})
	return st.arms, st.guardOr
}
