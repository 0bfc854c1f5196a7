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
	rep, err := m.rewriteResolved(stmt, qm, res)
	return stmt, rep, err
}

// rewriteResolved rewrites stmt in place from one resolution of its
// protected relations, taking no lock: in the statement's one EXPLAIN,
// every base reference to a protected relation, in whatever core it sits,
// gets a WITH entry of its own, priced (§5.5) from its explained access and
// filtered by the conjuncts that move in from its core. The entries are
// prepended last, under names no WITH entry of stmt has at any depth.
func (m *Middleware) rewriteResolved(stmt *sqlparser.SelectStmt, qm policy.Metadata, res []resolution) (*Report, error) {
	rep := &Report{}
	rep.GuardCacheHits, rep.GuardCacheMisses = countHits(res)
	if len(res) == 0 {
		return rep, nil
	}
	ex, err := m.db.Explain(stmt)
	if err != nil {
		return nil, err
	}
	fresh := cteNamer(ex.With)
	hints := m.db.Dialect().HonorsIndexHints() && !m.noHints
	var ctes []sqlparser.CTE
	for _, ta := range ex.Tables {
		i := slices.IndexFunc(res, func(r resolution) bool { return ta.Ref != nil && r.relation == ta.Ref.Name })
		if i < 0 {
			continue
		}
		r := &res[i]
		dec := m.chooseStrategy(r.relation, ta, r.state)
		dec.Signature = r.state.signature()
		dec.SharedState = r.state.ge.Querier != qm.Querier || r.state.ge.Purpose != qm.Purpose
		arms, guardOr := r.state.guardArms(m.db)
		for _, a := range arms {
			if a.Delta {
				dec.DeltaGuards++
			}
		}
		g := engine.GuardedCTE{
			Name:        fresh(r.relation),
			Relation:    r.relation,
			Strategy:    string(dec.Strategy),
			QueryIndex:  dec.QueryIndex,
			DefaultDeny: guardOr == nil,
			Arms:        arms,
			Guard:       guardOr,
			QueryConjs:  moveConjuncts(ta),
		}
		redirect(ta.Ref, g.Name)
		ctes = append(ctes, sqlparser.CTE{Name: g.Name, Select: g.Frame(hints)})
		rep.GuardedCTEs = append(rep.GuardedCTEs, g)
		rep.Decisions = append(rep.Decisions, dec)
	}
	stmt.With = append(ctes, stmt.With...)
	return rep, nil
}

// cteNamer returns a source of WITH names not in used:
// relation_sieve, relation_sieve2, … per relation.
func cteNamer(used []string) func(relation string) string {
	used = slices.Clip(used) // names handed out are appended to a copy
	return func(relation string) string {
		name := relation + "_sieve"
		for i := 2; slices.Contains(used, name); i++ {
			name = fmt.Sprintf("%s_sieve%d", relation, i)
		}
		used = append(used, name)
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

// moveConjuncts removes ta.Conjs, the conjuncts on ta's scan that read its
// row alone and hold no subquery, from its core's WHERE and returns them
// re-qualified to the relation's own name, for the reference's guarded CTE
// (§5.5's selective query predicates). Comma joins are the only joins, so a
// WHERE conjunct filters its entry the same inside the CTE as outside it.
func moveConjuncts(ta engine.TableAccess) []sqlparser.Expr {
	var moved []sqlparser.Expr
	for _, conj := range ta.Conjs {
		moved = append(moved, sqlparser.RequalifyExpr(sqlparser.RequalifyExpr(conj, ta.Ref.RefName(), ta.Ref.Name), "", ta.Ref.Name))
	}
	if moved != nil {
		ta.Core.Where = sqlparser.And(slices.DeleteFunc(sqlparser.Conjuncts(ta.Core.Where), func(conj sqlparser.Expr) bool {
			return slices.Contains(ta.Conjs, conj)
		})...)
	}
	return moved
}

// guardArms returns the state's guard arms — per guard, the guard predicate
// conjoined with the inlined policy partition or a Δ call, plus the
// provenance the dialect emitters consume — and their disjunction. They
// depend on the state alone, so they are built at its first rewrite and
// shared read-only by every rewritten statement after it: nothing
// downstream of the rewrite changes an expression in place, and the
// rewrite redirects only the references its EXPLAIN listed before any arm
// was prepended. A subquery in an arm (a derived-value condition)
// therefore reads base relations, as the Δ UDF's checks do. For the same
// reason a patched state takes its base's arm, AST and all, for every guard
// guard.Patch kept unchanged, and buildState has already filled those and
// the Δ arms: this inlines only the rest.
//
// A disjunction of arms is registered with the engine as a shared filter,
// so the engine compiles it once per state rather than once per execution.
// A retirement may land while this runs outside m.mu: whichever of the two
// comes second sees the other (filter is stored before gone is read, gone
// is set before filter is read), so a retired state is never left
// registered.
func (st *geState) guardArms(db *engine.DB) ([]engine.GuardArm, sqlparser.Expr) {
	st.armsOnce.Do(func() {
		exprs := make([]sqlparser.Expr, len(st.ge.Guards))
		for gi := range st.ge.Guards {
			if st.arms[gi].Expr == nil {
				g := &st.ge.Guards[gi]
				st.arms[gi] = engine.GuardArm{Col: g.Cond.Attr, Expr: sqlparser.And(g.Expr(st.relation), g.PartitionExpr(st.relation))}
			}
			exprs[gi] = st.arms[gi].Expr
		}
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
