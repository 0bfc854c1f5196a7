package engine

import (
	"sync"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Shared filter conjuncts. The middleware's guard disjunction is one
// expression per guard state, and every statement rewritten over that state
// carries the same pointer as a conjunct of its guarded CTE's WHERE. What the
// engine derives from such a conjunct alone — the compiled dispatch operator
// with its lazily compiled arms, the arms' candidate sargs, the zone
// refutation tree, whether a fan-out worker may run it — is the same for
// every one of those statements, so it is built once, here, and lives as
// long as the state: from ShareFilter to Release. A binding uses it only
// where the FROM entry is the table under its own name, as in every guarded
// CTE body, so the columns resolve exactly as they did for the first
// statement that compiled it. Everything is built through the compiler every
// other conjunct goes through; this is memoisation, not a second compiler.
// A registered conjunct must hold no placeholder: the open's check that a
// statement is bound (DB.unbound) does not walk it.

// SharedFilter is one registered filter conjunct over one base table. Each
// of its parts is built at most once, by the first execution that needs it,
// and read concurrently after that.
type SharedFilter struct {
	db   *DB
	expr sqlparser.Expr
	t    *storage.Table

	predOnce sync.Once
	pred     vecPred

	orOnce sync.Once
	or     orClause

	zoneOnce sync.Once
	zone     zoneNode
	zoneCols []int
	zoneOK   bool

	safeOnce sync.Once
	safe     bool
}

// ShareFilter registers e, a conjunct of filters over the named table, so
// that every binding of the table under its own name shares what is derived
// from e until the returned handle is released. Registering the same e
// twice returns the first handle. nil when there is no such table or when
// e is registered over another table.
func (db *DB) ShareFilter(table string, e sqlparser.Expr) *SharedFilter {
	t, ok := db.Table(table)
	if !ok || e == nil {
		return nil
	}
	v, _ := db.shared.LoadOrStore(e, &SharedFilter{db: db, expr: e, t: t})
	if sf := v.(*SharedFilter); sf.t == t {
		return sf
	}
	return nil
}

// Release unregisters the filter: later bindings derive e's parts afresh,
// and bindings made before keep the parts they hold. Idempotent; a nil
// handle releases nothing.
func (sf *SharedFilter) Release() {
	if sf != nil {
		sf.db.shared.CompareAndDelete(sf.expr, sf)
	}
}

// SharedFilters reports how many filters are registered on db and how many
// dispatch operators registered filters have compiled since db was created:
// one per registered filter that some execution has run.
func (db *DB) SharedFilters() (live int, compiled int64) {
	db.shared.Range(func(_, _ any) bool {
		live++
		return true
	})
	return live, db.sharedCompiles.Load()
}

// sharedFilter returns the registration of conjunct e over t, or nil.
func (db *DB) sharedFilter(t *storage.Table, e sqlparser.Expr) *SharedFilter {
	if v, ok := db.shared.Load(e); ok {
		if sf := v.(*SharedFilter); sf.t == t {
			return sf
		}
	}
	return nil
}

// unbound is BindStmt's error for s run with no arguments, nil when s holds
// no placeholder: the open fails a statement with one left in it whatever
// its rows. A registered guard disjunction is not walked, so a guarded
// statement is checked at the cost of its own text, not of its guards. Only
// disjunctions are looked up: a lookup per node would cost more than the
// walk it saves.
func (db *DB) unbound(s *sqlparser.SelectStmt) error {
	return sqlparser.Unbound(s, func(e sqlparser.Expr) bool {
		if b, ok := e.(*sqlparser.BinaryExpr); !ok || b.Op != sqlparser.OpOr {
			return false
		}
		_, ok := db.shared.Load(e)
		return ok
	})
}

// program returns the conjunct's compiled operator.
func (sf *SharedFilter) program() vecPred {
	sf.predOnce.Do(func() {
		t := sf.t
		sf.pred = (&vecCompiler{schema: qualifySchema(t.Name, t.Schema)}).compilePred(sf.expr)
		sf.db.sharedCompiles.Add(1)
	})
	return sf.pred
}

// orClause returns the conjunct's index-union candidates (empty ends when it
// has fewer than two disjuncts).
func (sf *SharedFilter) orClause() orClause {
	sf.orOnce.Do(func() {
		if disjuncts := sqlparser.Disjuncts(sf.expr); len(disjuncts) >= 2 {
			sf.or = newOrClause(disjuncts, sf.t.Name, sf.t.Schema)
		}
	})
	return sf.or
}

// zones returns the conjunct's refutation tree, its leaves' slots indexing
// cols; ok is false when it can never refute a segment.
func (sf *SharedFilter) zones() (n zoneNode, cols []int, ok bool) {
	sf.zoneOnce.Do(func() {
		zc := newZoneCompiler(sf.t.Name, sf.t.Schema)
		sf.zone, sf.zoneOK = zc.compile(sf.expr)
		sf.zoneCols = zc.cols
	})
	return sf.zone, sf.zoneCols, sf.zoneOK
}

// parallelSafe reports whether the conjunct may run on fan-out workers.
func (sf *SharedFilter) parallelSafe() bool {
	sf.safeOnce.Do(func() { sf.safe = parallelSafeConjunct(sf.expr) })
	return sf.safe
}

// sharedAt is shared[i], or nil when shared is.
func sharedAt(shared []*SharedFilter, i int) *SharedFilter {
	if shared == nil {
		return nil
	}
	return shared[i]
}
