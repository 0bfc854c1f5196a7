package core

import (
	"fmt"
	"slices"
	"sync"

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
	p, _, err := m.buildPlan(nil, stmt, referencedTables(stmt), qm, nil)
	if err != nil {
		return nil, nil, err
	}
	return p.stmt, p.rep, nil
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

// plan is what a statement runs: its rewrite, the report of that rewrite's
// decisions, the rewrite bound to the engine, and the resolution it was
// rewritten from. A Stmt keeps its plans; every other door builds one per
// call.
type plan struct {
	stmt *sqlparser.SelectStmt
	rep  *Report
	// res is the resolution the plan was rewritten from: a kept plan dies
	// with the first of its states to retire.
	res []resolution
	// exec is stmt bound to the engine: what the bind pass derives from the
	// rewritten statement alone (every name, conjunct placement, sargs, the
	// compiled filter) is derived once and lives as long as the plan. The
	// guard disjunction's parts are not the plan's: they belong to the
	// guard state (geState.filter) and every execution over it shares them.
	exec *engine.Prepared

	// emissions caches per-dialect SQL generated from a kept plan. It lives
	// on the plan, not the Stmt, so token invalidation discards emissions
	// and rewritten AST together.
	mu        sync.Mutex
	emissions map[string]*engine.Emission
}

// buildPlan is the one way a statement becomes what it runs, whatever door
// it came in by. It resolves the protected relations among tables (the
// ones stmt references) once, on a "guard-resolve" child of sp with
// hit/regen counts, and returns those counts for the query's Rows. memo,
// when not nil, is the Stmt that prepared stmt: it may serve a plan it kept
// for that resolution's token (probe, with its own "plan" child of sp);
// otherwise a clone of stmt is rewritten and memo keeps the plan. Without a
// memo stmt is the caller's own and is rewritten in place. The rewrite,
// from that same resolution, lands on a "rewrite" child of sp. sp may be
// nil (tracing off).
func (m *Middleware) buildPlan(sp *obs.Span, stmt *sqlparser.SelectStmt, tables []string, qm policy.Metadata, memo *Stmt) (*plan, engine.Counters, error) {
	var seed engine.Counters
	gsp := sp.StartChild("guard-resolve")
	res, err := m.resolve(qm, tables)
	gsp.End()
	if err != nil {
		return nil, seed, err
	}
	hits, regens := countHits(res)
	if hits > 0 {
		gsp.Count("hits", int64(hits))
	}
	if regens > 0 {
		gsp.Count("regens", int64(regens))
	}
	seed.GuardCacheHits, seed.GuardCacheMisses = int64(hits), int64(regens)
	var tok string
	if memo != nil {
		tok = resolutionToken(res)
		if p := memo.probe(sp, tok, &seed); p != nil {
			return p, seed, nil
		}
		stmt = sqlparser.CloneStmt(stmt)
	}
	rsp := sp.StartChild("rewrite")
	rep, err := m.rewriteResolved(stmt, qm, res)
	rsp.End()
	if err != nil {
		return nil, seed, err
	}
	p := &plan{stmt: stmt, rep: rep, res: res, exec: m.db.Prepare(stmt)}
	if memo != nil {
		memo.keep(tok, p)
	}
	return p, seed, nil
}

// rewriteResolved rewrites stmt in place from one resolution of its
// protected relations, taking no lock: in the statement's one EXPLAIN,
// every base reference to a protected relation, in whatever core it sits,
// gets a WITH entry of its own, priced (§5.5) from its explained access and
// filtered by the conjuncts that move in from its core. The entries are
// prepended last, under names no WITH entry of stmt has at any depth.
func (m *Middleware) rewriteResolved(stmt *sqlparser.SelectStmt, qm policy.Metadata, res []resolution) (*Report, error) {
	rep := &Report{}
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
		for _, a := range r.state.arms {
			if a.Delta {
				dec.DeltaGuards++
			}
		}
		g := engine.GuardedCTE{
			Name:        fresh(r.relation),
			Relation:    r.relation,
			Strategy:    string(dec.Strategy),
			QueryIndex:  dec.QueryIndex,
			DefaultDeny: r.state.guardOr == nil,
			Arms:        r.state.arms,
			Guard:       r.state.guardOr,
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
