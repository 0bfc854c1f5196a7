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
// CTE body. No statement's bind pass walks the conjunct (bind.go): its
// names resolve against the table alone, as it compiles, and it must hold
// no placeholder, which the pass would not count. Everything is
// built through the compiler every other conjunct goes through; this is
// memoisation, not a second compiler.

// SharedFilter is one registered filter conjunct over one base table. Each
// of its parts is built at most once, by the first execution that needs it,
// and read concurrently after that.
type SharedFilter struct {
	db   *DB
	expr sqlparser.Expr
	t    *storage.Table

	// serial is set when the conjunct holds a subquery, which keeps a scan
	// it filters on the consumer's goroutine (tableBinding.serial).
	serial bool

	predOnce sync.Once
	pred     vecPred

	orOnce sync.Once
	or     orClause

	zoneOnce sync.Once
	zone     zoneNode
	zoneCols []int
	zoneOK   bool
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
	v, _ := db.shared.LoadOrStore(e, &SharedFilter{db: db, expr: e, t: t, serial: sqlparser.HasSubquery(e)})
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

// program returns the conjunct's compiled operator, its names resolved
// against its table as it compiles (vecCompiler).
func (sf *SharedFilter) program() vecPred {
	sf.predOnce.Do(func() {
		vc := &vecCompiler{db: sf.db, frame: QualifiedSchema(sf.t.Name, sf.t.Schema)}
		sf.pred = vc.compilePred(sf.expr)
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
