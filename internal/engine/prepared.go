package engine

import (
	"context"
	"sync"

	"github.com/sieve-db/sieve/internal/sqlparser"
)

// Prepared is a parsed statement bound to a DB for repeated execution. What
// the executor derives from the statement and the schema alone — which WITH
// bodies may stream, which conjuncts belong to which FROM entry, each base
// table's sargs and compiled filter — is derived at the first execution that
// needs it and kept for the Prepared's lifetime, so a later execution plans
// against current statistics and goes straight to probe and scan. A Prepared
// is safe for concurrent use; the statement must not be modified after
// Prepare.
type Prepared struct {
	db      *DB
	stmt    *sqlparser.SelectStmt
	unbound error // DB.unbound's, checked once at Prepare
	cache   planCache
}

// Prepare binds a parsed statement for repeated execution.
func (db *DB) Prepare(stmt *sqlparser.SelectStmt) *Prepared {
	return &Prepared{db: db, stmt: stmt, unbound: db.unbound(stmt)}
}

// Stream opens the statement as a streaming result, like DB.StreamStmt.
func (p *Prepared) Stream(ctx context.Context) (*Rows, error) {
	if p.unbound != nil {
		return nil, p.unbound
	}
	return p.db.stream(ctx, p.stmt, &p.cache)
}

// Query executes the statement and materialises the result: Collect over
// Stream.
func (p *Prepared) Query(ctx context.Context) (*Result, error) {
	return Collect(p.Stream(ctx))
}

// planCache holds a Prepared's bindings, keyed by the statement's own AST
// nodes: it lives exactly as long as the statement it describes, and an
// executor without one (an unprepared execution) derives the same bindings
// afresh.
type planCache struct {
	mu    sync.Mutex
	cores map[*sqlparser.SelectCore]*coreBinding
	lazy  map[*sqlparser.SelectStmt]map[string]bool
}

// coreBinding is one select core's share of a plan: its WHERE conjuncts
// classified by the FROM entries they touch, and the binding of every entry
// that is a base table (nil for derived entries). Immutable once built.
type coreBinding struct {
	classifieds []classified
	perSource   [][]sqlparser.Expr
	tables      []*tableBinding
}

// bindCore returns core's binding over its resolved sources, from the
// executor's plan cache when it has one. Two executions may both build a
// missing binding; the first stored wins and both use it.
func (ex *executor) bindCore(core *sqlparser.SelectCore, sources []*sourceInfo) *coreBinding {
	pc := ex.cache
	if pc != nil {
		pc.mu.Lock()
		cb := pc.cores[core]
		pc.mu.Unlock()
		if cb != nil {
			return cb
		}
	}
	cb := &coreBinding{tables: make([]*tableBinding, len(sources))}
	cb.classifieds, cb.perSource = classifyConjuncts(core, sources)
	for i, src := range sources {
		if src.tbl != nil {
			cb.tables[i] = bindTable(ex.db, src.tbl, src.name, cb.perSource[i])
		}
	}
	if pc == nil {
		return cb
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if prior := pc.cores[core]; prior != nil {
		return prior
	}
	if pc.cores == nil {
		pc.cores = make(map[*sqlparser.SelectCore]*coreBinding)
	}
	pc.cores[core] = cb
	return cb
}

// lazyCTEs is lazyCTENames through the executor's plan cache.
func (ex *executor) lazyCTEs(s *sqlparser.SelectStmt) map[string]bool {
	pc := ex.cache
	if pc == nil || len(s.With) == 0 {
		return lazyCTENames(s)
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	lazy, ok := pc.lazy[s]
	if !ok {
		lazy = lazyCTENames(s)
		if pc.lazy == nil {
			pc.lazy = make(map[*sqlparser.SelectStmt]map[string]bool)
		}
		pc.lazy[s] = lazy
	}
	return lazy
}
