package engine

import (
	"context"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// EvalPredicateWith binds e to rows laid out as schema, as the open binds a
// statement, and evaluates it against row; subqueries in e see the row as
// their outer correlation scope, as the paper's nested policy conditions
// (§3.1) see the tuple under evaluation. Callers decide on truthiness. Work
// tallies into c — a UDF passes its query's own (UDFContext.Counters), so
// no DB-wide merge lock is taken per tuple — or, when nil, into the DB's.
func (db *DB) EvalPredicateWith(c *Counters, e sqlparser.Expr, schema *RelSchema, row storage.Row) (storage.Value, error) {
	ex := db.newExecutor(context.Background())
	if c != nil {
		// The caller owns these counters and merges them itself;
		// suppress this executor's own flush.
		ex.counters = c
		ex.flushed = true
	} else {
		defer ex.flush(db)
	}
	b, err := db.bindExpr(e, schema)
	if err != nil {
		return storage.Null, err
	}
	ev := &evaluator{ex: ex, b: b}
	return ev.eval(e, &env{schema: schema, row: row})
}

// Truthy reports SQL truth of a value (NULL and FALSE are not true).
func Truthy(v storage.Value) bool {
	t, _ := truth(v)
	return t
}
