package core

import (
	"fmt"
	"slices"
	"sort"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// RewriteQuery parses and rewrites a query: every protected relation
// reference is replaced by a WITH-clause projection that satisfies the
// querier's guarded policy expression (§5.3), with strategy-specific index
// hints on hint-honouring dialects (§5.5) and Δ calls for large partitions
// (§5.4).
func (m *Middleware) RewriteQuery(sql string, qm policy.Metadata) (*sqlparser.SelectStmt, *Report, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	return m.rewriteSpan(stmt, qm, nil)
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
	for _, r := range res {
		if r.hit {
			gsp.Count("hits", 1)
		} else {
			gsp.Count("regens", 1)
		}
	}
	return stmt, m.rewriteResolved(stmt, qm, res), nil
}

// rewriteResolved rewrites stmt in place from one resolution of its
// protected relations, taking no lock: each relation's references are
// redirected to a WITH entry built from its resolved state and pending
// policies. The strategy choice reads one EXPLAIN of the statement as
// written, taken before any reference is replaced (§5.5).
func (m *Middleware) rewriteResolved(stmt *sqlparser.SelectStmt, qm policy.Metadata, res []resolution) *Report {
	rep := &Report{}
	rep.GuardCacheHits, rep.GuardCacheMisses = countHits(res)
	var access []engine.TableAccess
	if len(res) > 0 {
		if ex, err := m.db.Explain(stmt); err == nil {
			access = ex.Tables
		}
	}
	for _, r := range res {
		st := r.state
		refName := topLevelRefName(stmt, r.relation)
		var ta engine.TableAccess
		if i := slices.IndexFunc(access, func(a engine.TableAccess) bool { return a.Table == refName }); i >= 0 {
			ta = access[i]
		}
		dec := m.chooseStrategy(r.relation, ta, st, r.pending)
		dec.DeltaGuards = len(st.deltaSets)
		dec.Signature = st.signature()
		dec.SharedState = st.ge.Querier != qm.Querier || st.ge.Purpose != qm.Purpose
		queryConjs := m.pushableConjuncts(stmt, r.relation)
		cte, prov := m.buildGuardedCTE(r.relation, st, r.pending, queryConjs, dec)
		cteName := freshCTEName(stmt, r.relation)
		replaceTableRefs(stmt, r.relation, cteName)
		stmt.With = append([]sqlparser.CTE{{Name: cteName, Select: cte}}, stmt.With...)
		prov.Name = cteName
		rep.GuardedCTEs = append(rep.GuardedCTEs, prov)
		rep.Decisions = append(rep.Decisions, dec)
	}
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

// replaceTableRefs redirects every base reference to relation to the CTE,
// keeping aliases (an unaliased reference gets the relation name as alias
// so qualified column references keep resolving, footnote 8 of §5.3).
func replaceTableRefs(stmt *sqlparser.SelectStmt, relation, cteName string) {
	forEachBaseRef(stmt, func(_ *sqlparser.SelectCore, ref *sqlparser.TableRef) {
		if ref.Name != relation {
			return
		}
		if ref.Alias == "" {
			ref.Alias = relation
		}
		ref.Name = cteName
		ref.Hint = nil // hints are meaningless on a derived relation
	})
}

// freshCTEName picks an unused WITH name for the relation's projection.
func freshCTEName(stmt *sqlparser.SelectStmt, relation string) string {
	used := make(map[string]bool)
	for _, cte := range stmt.With {
		used[cte.Name] = true
	}
	name := relation + "_sieve"
	for i := 2; used[name]; i++ {
		name = fmt.Sprintf("%s_sieve%d", relation, i)
	}
	return name
}

// topLevelRefName returns how the outermost core refers to the relation
// ("" when absent or ambiguous). Used for EXPLAIN matching and predicate
// pushdown.
func topLevelRefName(stmt *sqlparser.SelectStmt, relation string) string {
	name := ""
	count := 0
	for i := range stmt.Body.From {
		ref := &stmt.Body.From[i]
		if ref.Subquery == nil && ref.Name == relation {
			name = ref.RefName()
			count++
		}
	}
	if count != 1 {
		return ""
	}
	return name
}

// pushableConjuncts extracts the outer query's single-table conjuncts on
// the relation, re-qualified to the relation's own name for inclusion in
// the WITH clause (§5.5's selective query predicates).
func (m *Middleware) pushableConjuncts(stmt *sqlparser.SelectStmt, relation string) []sqlparser.Expr {
	refName := topLevelRefName(stmt, relation)
	if refName == "" {
		return nil
	}
	t := m.db.MustTable(relation)
	var out []sqlparser.Expr
	for _, conj := range sqlparser.Conjuncts(stmt.Body.Where) {
		if sqlparser.HasSubquery(conj) {
			continue
		}
		onlyThisTable := true
		sqlparser.Walk(conj, false, func(x sqlparser.Expr) {
			c, ok := x.(*sqlparser.ColRef)
			if !ok {
				return
			}
			if c.Table != "" && c.Table != refName {
				onlyThisTable = false
			}
			if c.Table == "" && !t.Schema.HasColumn(c.Column) {
				onlyThisTable = false
			}
		})
		if !onlyThisTable {
			continue
		}
		out = append(out, sqlparser.RequalifyExpr(sqlparser.RequalifyExpr(conj, refName, relation), "", relation))
	}
	return out
}

// guardArms returns the state's guard arms — per guard, the guard predicate
// conjoined with the inlined policy partition or a Δ call, plus the
// provenance the dialect emitters consume — their disjunction, and the
// distinct guard columns, sorted. They depend on the state alone, so they
// are built at its first rewrite and shared read-only by every rewritten
// statement after it: nothing downstream of the rewrite changes an
// expression in place. The one thing the rewrite itself changes in place is
// a table reference — a later protected relation's references are
// redirected to its CTE, subqueries inside earlier CTE bodies included — so
// arms that carry a subquery are handed out as copies.
func (st *geState) guardArms(schema *storage.Schema) ([]engine.GuardArm, sqlparser.Expr, []string) {
	st.armsOnce.Do(func() {
		cols := map[string]bool{}
		exprs := make([]sqlparser.Expr, len(st.ge.Guards))
		st.arms = make([]engine.GuardArm, len(st.ge.Guards))
		for gi := range st.ge.Guards {
			g := &st.ge.Guards[gi]
			cols[g.Cond.Attr] = true
			setID, useDelta := st.deltaSets[gi]
			part := deltaCall(setID, st.relation, schema)
			if !useDelta {
				part = g.PartitionExpr(st.relation)
			}
			exprs[gi] = sqlparser.And(g.Expr(st.relation), part)
			st.arms[gi] = engine.GuardArm{Col: g.Cond.Attr, Expr: exprs[gi], Delta: useDelta}
		}
		st.guardOr = sqlparser.Or(exprs...)
		for c := range cols {
			st.guardCols = append(st.guardCols, c)
		}
		sort.Strings(st.guardCols)
		st.armsHoldSubquery = sqlparser.HasSubquery(st.guardOr)
	})
	if !st.armsHoldSubquery {
		return st.arms, st.guardOr, st.guardCols
	}
	arms := slices.Clone(st.arms)
	exprs := make([]sqlparser.Expr, len(arms))
	for i := range arms {
		arms[i].Expr = sqlparser.CloneExpr(arms[i].Expr)
		exprs[i] = arms[i].Expr
	}
	return arms, sqlparser.Or(exprs...), st.guardCols
}

// buildGuardedCTE constructs the §5.3/§5.6 WITH body:
//
//	SELECT * FROM rj [hint] WHERE G1 OR … OR Gn
//
// where each arm conjoins the guard predicate and either the inlined policy
// partition or a Δ call (the state's guardArms). Pending policies (§6
// deferred regeneration) contribute one owner-guarded arm each. Alongside
// the body it returns the guard provenance the dialect emitters consume
// (engine.GuardedCTE; Name is filled by the caller once the WITH name is
// chosen).
func (m *Middleware) buildGuardedCTE(relation string, st *geState, pending []*policy.Policy,
	queryConjs []sqlparser.Expr, dec TableDecision) (*sqlparser.SelectStmt, engine.GuardedCTE) {

	arms, where, guardCols := st.guardArms(m.db.MustTable(relation).Schema)
	prov := engine.GuardedCTE{
		Relation:   relation,
		Strategy:   string(dec.Strategy),
		QueryIndex: dec.QueryIndex,
		QueryConjs: queryConjs,
		Arms:       arms[:len(arms):len(arms)], // appending a pending arm copies
	}
	for _, p := range pending {
		arm := p.Expr(relation)
		where = sqlparser.Or(where, arm)
		prov.Arms = append(prov.Arms, engine.GuardArm{Col: policy.OwnerAttr, Expr: arm})
	}
	if len(pending) > 0 && !slices.Contains(guardCols, policy.OwnerAttr) {
		guardCols = append(slices.Clone(guardCols), policy.OwnerAttr)
		sort.Strings(guardCols)
	}
	if where == nil {
		// Default deny: no applicable policies.
		where = sqlparser.Lit(storage.NewBool(false))
		prov.DefaultDeny = true
	}
	// Query predicates sit in front of the guard disjunction as one
	// conjunct: under IndexQuery/LinearScan they drive (or stream through)
	// the scan; under IndexGuards the forced guard indexes drive the scan
	// and the predicates are evaluated once per surviving tuple rather
	// than once per arm (a strict improvement over inlining them into
	// every arm as the §5.6 listing shows — same semantics, fewer
	// per-tuple evaluations).
	if len(queryConjs) > 0 {
		all := append([]sqlparser.Expr{}, queryConjs...)
		all = append(all, where)
		where = sqlparser.And(all...)
	}

	ref := sqlparser.TableRef{Name: relation}
	if m.db.Dialect().HonorsIndexHints() && !m.noHints {
		switch dec.Strategy {
		case IndexGuards:
			if len(guardCols) > 0 {
				ref.Hint = &sqlparser.IndexHint{Kind: sqlparser.HintForce, Indexes: guardCols}
			}
		case IndexQuery:
			if dec.QueryIndex != "" {
				ref.Hint = &sqlparser.IndexHint{Kind: sqlparser.HintForce, Indexes: []string{dec.QueryIndex}}
			}
		case LinearScan:
			ref.Hint = &sqlparser.IndexHint{Kind: sqlparser.HintUse}
		}
	}

	return &sqlparser.SelectStmt{
		Body: &sqlparser.SelectCore{
			Star:  true,
			From:  []sqlparser.TableRef{ref},
			Where: where,
			Limit: -1,
		},
	}, prov
}
