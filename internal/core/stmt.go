package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Stmt is a prepared query: the SQL is parsed once, and the policy
// rewrite (guard lookup, strategy choice, CTE construction — the per-
// query work SIEVE amortises, §5) is cached per plan token: the
// signature-resolved guard states of the protected relations the
// statement touches (see resolutionToken). Queriers who share a policy
// profile therefore share one rewritten plan and one per-dialect
// emission, and policy churn invalidates only the plans whose signature
// actually changed — a cached plan can never serve rows under stale
// policies because any change to the querier's applicable set changes
// the token. A Stmt is safe for concurrent use by multiple Sessions.
type Stmt struct {
	m        *Middleware
	sql      string
	ast      *sqlparser.SelectStmt
	numInput int // placeholders in ast, counted once at Prepare
	// tables are the distinct base relations the statement references
	// (protected or not — protection is re-checked per call, so a later
	// Protect of a referenced relation takes effect immediately).
	tables []string

	mu    sync.Mutex
	plans map[string]*plan

	rewrites atomic.Int64

	// hookAfterResolve, when non-nil, runs on a plan-cache miss between the
	// resolution and the rewrite built from it. Tests use it to interleave
	// policy churn there.
	hookAfterResolve func()
}

// Prepare parses sql for repeated execution. The rewrite itself is
// deferred to the first Query/Execute per policy signature, since it
// depends on what the asking querier may see.
func (m *Middleware) Prepare(sql string) (*Stmt, error) {
	ast, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{
		m:        m,
		sql:      sql,
		ast:      ast,
		numInput: sqlparser.NumPlaceholders(ast),
		tables:   referencedTables(ast),
		plans:    make(map[string]*plan),
	}, nil
}

// referencedTables lists the distinct names a statement's FROM entries
// give anywhere (including subqueries and CTE bodies), sorted: its base
// tables, and any WITH entry's name, which costs a claim lookup when it is
// a protected relation's and never a row.
func referencedTables(ast *sqlparser.SelectStmt) []string {
	seen := make(map[string]bool)
	sqlparser.WalkCores(ast, func(c *sqlparser.SelectCore, _ bool) {
		for _, ref := range c.From {
			if ref.Subquery == nil {
				seen[ref.Name] = true
			}
		}
	})
	return slices.Sorted(maps.Keys(seen))
}

// SQL returns the statement's original text.
func (st *Stmt) SQL() string { return st.sql }

// NumInput returns the number of bind placeholders (`?`) the statement
// declares; Query and Execute take that many bind arguments.
func (st *Stmt) NumInput() int { return st.numInput }

// Query runs the prepared statement for the session, streaming the
// result. Without placeholders, the cached rewritten plan for the session's
// policy signature is reused while the signature holds. With placeholders,
// args are bound against the pristine parse before the policy rewrite, so
// each execution is rewritten with its literals in place: the parse is
// still amortised across calls, but the plan cache only serves
// placeholder-free statements — bound literals differ per call.
func (st *Stmt) Query(ctx context.Context, s *Session, args ...storage.Value) (*engine.Rows, error) {
	if st.numInput == 0 && len(args) == 0 {
		return st.m.run(ctx, st.ast, st.tables, s.qm, st)
	}
	bound, err := sqlparser.BindStmt(st.ast, args)
	if err != nil {
		return nil, err
	}
	rows, err := st.m.run(ctx, bound, st.tables, s.qm, nil)
	if err != nil {
		return nil, err
	}
	st.rewrites.Add(1)
	return rows, nil
}

// Execute is Query materialised: it drains the stream Query opens.
func (st *Stmt) Execute(ctx context.Context, s *Session, args ...storage.Value) (*engine.Result, error) {
	return engine.Collect(st.Query(ctx, s, args...))
}

// Report returns the decision report of the session's current cached
// plan, rewriting first if the cache is cold or stale.
func (st *Stmt) Report(s *Session) (*Report, error) {
	p, err := st.plan(s.qm)
	if err != nil {
		return nil, err
	}
	return p.rep, nil
}

// EmitSQL returns the prepared statement's emission for the dialect under
// the session's policy signature: executable backend SQL with bound args,
// generated from the cached rewritten plan. Emissions are cached per
// dialect alongside the plan and invalidated with it when the signature
// moves, so a prepared statement amortises parse, rewrite and emission
// across calls — and across every querier sharing the signature. Passing
// options bypasses the cache (the emission then differs from the
// canonical per-dialect form).
func (st *Stmt) EmitSQL(s *Session, dialect string, opts ...engine.EmitOption) (*engine.Emission, error) {
	e, err := engine.EmitterFor(dialect, opts...)
	if err != nil {
		return nil, err
	}
	p, err := st.plan(s.qm)
	if err != nil {
		return nil, err
	}
	if len(opts) > 0 {
		return e.Emit(p.stmt, p.rep.GuardedCTEs)
	}
	p.mu.Lock()
	em, ok := p.emissions[e.Name()]
	p.mu.Unlock()
	if ok {
		return em, nil
	}
	em, err = e.Emit(p.stmt, p.rep.GuardedCTEs)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.emissions == nil {
		p.emissions = make(map[string]*engine.Emission)
	}
	p.emissions[e.Name()] = em
	p.mu.Unlock()
	return em, nil
}

// Rewrites reports how many policy rewrites the statement has performed —
// the work a non-prepared Execute would have paid once per call.
func (st *Stmt) Rewrites() int64 { return st.rewrites.Load() }

// CachedPlans reports how many distinct signature plans are cached.
func (st *Stmt) CachedPlans() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.plans)
}

// plan returns the rewritten plan for the session's current plan token,
// for the doors that read a plan without running it (Report, EmitSQL).
func (st *Stmt) plan(qm policy.Metadata) (*plan, error) {
	if st.numInput > 0 {
		return nil, fmt.Errorf("core: statement has %d placeholder(s); bind them through Query/Execute", st.numInput)
	}
	p, _, err := st.m.buildPlan(nil, st.ast, st.tables, qm, st)
	return p, err
}

// probe is the Stmt's half of buildPlan: it returns the plan kept under
// tok, the token of the resolution buildPlan just made, or nil on a miss,
// on a "plan" child of sp with the hit or miss counted there and in seed.
// The token is built from the resolution the plan is then rewritten from,
// so a plan never carries a grant its token does not name, whatever
// policy churn does meanwhile.
func (st *Stmt) probe(sp *obs.Span, tok string, seed *engine.Counters) *plan {
	psp := sp.StartChild("plan")
	st.mu.Lock()
	p := st.plans[tok]
	st.mu.Unlock()
	psp.End()
	if p != nil {
		psp.Count("hits", 1)
		seed.PlanCacheHits++
		st.m.planHits.Add(1)
		return p
	}
	psp.Count("misses", 1)
	seed.PlanCacheMisses++
	st.m.planMisses.Add(1)
	if st.hookAfterResolve != nil {
		st.hookAfterResolve()
	}
	return nil
}

// keep caches p, just rewritten, under tok. A plan lives as long as every
// state in its token: a retired state's id is never resolved again, so
// the plans naming one are dropped here, on the statement's next miss —
// the same policy write that retired the state is what makes some reader
// miss — and there is no cap to tune.
func (st *Stmt) keep(tok string, p *plan) {
	st.rewrites.Add(1)
	st.mu.Lock()
	maps.DeleteFunc(st.plans, func(_ string, old *plan) bool {
		return slices.ContainsFunc(old.res, func(r resolution) bool { return r.state.gone.Load() })
	})
	st.plans[tok] = p
	st.mu.Unlock()
}
