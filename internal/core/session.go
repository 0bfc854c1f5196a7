package core

import (
	"context"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Session is the unit of per-user query state: it binds one querier
// identity and purpose (the paper's query metadata, §3.2), with the
// querier's group memberships resolved once at session creation for
// introspection. Sessions are cheap — a few words — and safe to use
// from one goroutine each; any number of Sessions may share one
// Middleware concurrently, which is how a server front end maps
// connections onto SIEVE.
//
// Group membership is assumed stable while guarded expressions stay
// cached: claims are indexed for scoped invalidation under the
// (relation, principal) scopes resolved at claim creation, and guard
// states are always regenerated from the middleware-wide resolver, so a
// membership change is not an invalidation event (policy inserts and
// revocations invalidate claims; membership edits never did). After
// changing a resolver's answers, call InvalidateAll.
type Session struct {
	m      *Middleware
	qm     policy.Metadata
	groups []string
}

// NewSession binds query metadata to the middleware, resolving the
// querier's group memberships now (see Groups).
func (m *Middleware) NewSession(qm policy.Metadata) *Session {
	return &Session{
		m:      m,
		qm:     qm,
		groups: m.groups.GroupsOf(qm.Querier),
	}
}

// Middleware returns the middleware the session runs against.
func (s *Session) Middleware() *Middleware { return s.m }

// Metadata returns the session's bound query metadata.
func (s *Session) Metadata() policy.Metadata { return s.qm }

// Groups returns the querier's group memberships as resolved at session
// creation. Informational: enforcement always uses the middleware's
// live resolver, so a session never sees more than the current
// membership grants.
func (s *Session) Groups() []string { return s.groups }

// Query rewrites sql under the session's policies and opens it as a
// streaming result. Rows are produced on demand; ctx cancellation or
// deadline expiry aborts the scan within the executor's check interval,
// and closing the Rows early releases the scan (LIMIT-style early
// termination without a LIMIT clause).
//
// Placeholders (`?`) in sql are resolved to args before the policy rewrite,
// so the conjuncts moved into guarded CTEs and index sargs see real
// literals — exactly as if the caller had inlined them. The argument count
// must match the placeholder count.
func (s *Session) Query(ctx context.Context, sql string, args ...storage.Value) (*engine.Rows, error) {
	psp := obs.SpanFrom(ctx).StartChild("parse")
	ast, err := sqlparser.Parse(sql)
	psp.End()
	if err != nil {
		return nil, err
	}
	bound, err := sqlparser.BindStmt(ast, args)
	if err != nil {
		return nil, err
	}
	return s.m.run(ctx, bound, referencedTables(bound), s.qm, nil)
}

// Execute is Query materialised: it drains the stream Query opens.
func (s *Session) Execute(ctx context.Context, sql string, args ...storage.Value) (*engine.Result, error) {
	return engine.Collect(s.Query(ctx, sql, args...))
}

// run plans stmt under qm (buildPlan, on the trace span ctx carries, if
// any) and opens the plan as a stream that carries the plan's cache counts:
// how every door that streams a statement runs it.
func (m *Middleware) run(ctx context.Context, stmt *sqlparser.SelectStmt, tables []string, qm policy.Metadata, memo *Stmt) (*engine.Rows, error) {
	p, seed, err := m.buildPlan(obs.SpanFrom(ctx), stmt, tables, qm, memo)
	if err != nil {
		return nil, err
	}
	rows, err := p.exec.Stream(ctx)
	if err != nil {
		return nil, err
	}
	rows.AddCounters(seed)
	return rows, nil
}

// Rewrite returns the rewritten SQL and decision report for sql under the
// session's metadata without executing it.
func (s *Session) Rewrite(sql string) (string, *Report, error) {
	stmt, rep, err := s.m.RewriteQuery(sql, s.qm)
	if err != nil {
		return "", nil, err
	}
	return sqlparser.Print(stmt), rep, nil
}

// RewriteSQL rewrites sql under the session's policies and emits it as
// executable SQL for the named backend dialect — "mysql", "postgres" or
// "sieve" (the internal round-trip form). The emission carries the SQL
// string plus the bound-args list its placeholders reference; the rewrite's
// guard provenance drives dialect-specific framing (MySQL UNION-per-guard
// with USE INDEX, PostgreSQL OR-of-ANDs for BitmapOr). Nothing is executed.
func (s *Session) RewriteSQL(sql, dialect string, opts ...engine.EmitOption) (*engine.Emission, error) {
	e, err := engine.EmitterFor(dialect, opts...)
	if err != nil {
		return nil, err
	}
	stmt, rep, err := s.m.RewriteQuery(sql, s.qm)
	if err != nil {
		return nil, err
	}
	return e.Emit(stmt, rep.GuardedCTEs)
}

// Prepare parses sql once for repeated execution through this session
// (or any other session on the same middleware).
func (s *Session) Prepare(sql string) (*Stmt, error) { return s.m.Prepare(sql) }
