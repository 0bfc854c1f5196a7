package engine

import (
	"sync"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Scan conjuncts. Everything the engine derives from one WHERE conjunct on a
// base-table scan alone — the compiled vector predicate with its lazily
// compiled dispatch arms, the sarg it is, its disjuncts' index-union
// candidates, its zone-refutation tree, whether it holds a subquery — is
// derived by one Conjunct, each part at most once, by the first execution
// that needs it, and read concurrently after that. Every part reads columns
// through the one resolver the vector compiler uses (vecCompiler.column).
//
// A statement's own conjunct gets a Conjunct in its table binding, resolved
// by the statement's bind pass. The middleware's guard disjunction is one
// expression per guard state, and every statement rewritten over that state
// carries the same pointer as a conjunct of its guarded CTE's WHERE: that
// expression is registered (DB.ShareFilter), and the registration is the
// Conjunct every binding of the table under its own name places on its scan,
// so its parts are built once per state, from ShareFilter to Release. No
// statement's bind pass walks a registered conjunct (bind.go): its names
// resolve against the table's frame alone, as its parts are built, and it
// must hold no placeholder, which the pass would not count.

// Conjunct is one filter conjunct of a base-table scan and what is derived
// from it.
type Conjunct struct {
	expr sqlparser.Expr
	vc   vecCompiler
	// t is the table a registered conjunct filters; nil on a statement's
	// own.
	t *storage.Table
	// serial is set when the conjunct holds a subquery, which keeps a scan
	// it filters on the consumer's goroutine (tableBinding.parallelSafe).
	serial bool
	// local is set by the bind pass on a statement's own conjunct that holds
	// no subquery and reads no enclosing row: DB.Explain reports it.
	local bool

	predOnce sync.Once
	pred     vecPred

	sargOnce sync.Once
	sarg     sarg
	isSarg   bool

	orOnce sync.Once
	or     orClause

	zoneOnce sync.Once
	zone     *zoneNode // nil: refutes no segment
	zoneCols []int     // the schema columns its leaves read, ascending
}

// ShareFilter registers e, a conjunct of filters over the named table, so
// that every binding of the table under its own name shares what is derived
// from e until the returned handle is released. Registering the same e
// twice returns the first handle. nil when there is no such table or when
// e is registered over another table.
func (db *DB) ShareFilter(table string, e sqlparser.Expr) *Conjunct {
	t, ok := db.Table(table)
	if !ok || e == nil {
		return nil
	}
	v, ok := db.shared.Load(e)
	if !ok {
		v, _ = db.shared.LoadOrStore(e, &Conjunct{
			expr:   e,
			vc:     vecCompiler{db: db, frame: QualifiedSchema(t.Name, t.Schema)},
			t:      t,
			serial: sqlparser.HasSubquery(e),
		})
	}
	if c := v.(*Conjunct); c.t == t {
		return c
	}
	return nil
}

// Release unregisters the conjunct: later bindings derive e's parts afresh,
// and bindings made before keep the parts they hold. Idempotent; a nil
// handle releases nothing.
func (c *Conjunct) Release() {
	if c != nil {
		c.vc.db.shared.CompareAndDelete(c.expr, c)
	}
}

// SharedFilters reports how many conjuncts are registered on db and how
// many dispatch operators registered conjuncts have compiled since db was
// created: one per registered conjunct that some execution has run.
func (db *DB) SharedFilters() (live int, compiled int64) {
	db.shared.Range(func(_, _ any) bool {
		live++
		return true
	})
	return live, db.sharedCompiles.Load()
}

// program returns the conjunct's compiled predicate.
func (c *Conjunct) program() vecPred {
	c.predOnce.Do(func() {
		c.pred = c.vc.compilePred(c.expr)
		if c.t != nil {
			c.vc.db.sharedCompiles.Add(1)
		}
	})
	return c.pred
}

// sargable returns the sarg the conjunct is, if it is one.
func (c *Conjunct) sargable() (sarg, bool) {
	c.sargOnce.Do(func() { c.sarg, c.isSarg = c.vc.sargOf(c.expr, nil) })
	return c.sarg, c.isSarg
}

// orClause returns the conjunct's index-union candidates (empty ends when it
// has fewer than two disjuncts).
func (c *Conjunct) orClause() orClause {
	c.orOnce.Do(func() {
		if disjuncts := sqlparser.Disjuncts(c.expr); len(disjuncts) >= 2 {
			c.or = c.vc.orClause(disjuncts)
		}
	})
	return c.or
}

// zones returns the conjunct's refutation tree and the columns it reads;
// nil when it can never refute a segment.
func (c *Conjunct) zones() (*zoneNode, []int) {
	c.zoneOnce.Do(func() {
		if n, ok := c.vc.zoneTree(c.expr, &c.zoneCols); ok {
			c.zone = &n
		}
	})
	return c.zone, c.zoneCols
}
