package engine

import "github.com/sieve-db/sieve/internal/sqlparser"

// The test-only row reference: base-table accesses — sequential scans and
// index fetch lists — bound while it is installed filter every batch through
// rowPasses — the row-at-a-time evaluator, one row at a time, in batch order
// — instead of a compiled vector program. Pruning, batching and fan-out are
// the operators' own either way, so the reference and the production filter
// can be compared row for row and counter for counter.

// UseRowReference installs the reference on db and returns the function that
// removes it. It is db's setting alone: other DBs, and tests running in
// parallel on them, keep compiled programs. A Prepared keeps whichever filter
// was in place when it first bound a table.
func (db *DB) UseRowReference() (restore func()) {
	ref := func(conjs []sqlparser.Expr, _ *RelSchema) *vecProgram {
		if len(conjs) == 0 {
			return nil
		}
		return &vecProgram{preds: []vecPred{rowReference(conjs)}}
	}
	db.rowReference.Store(&ref)
	return func() { db.rowReference.Store(nil) }
}

type rowReference []sqlparser.Expr

func (p rowReference) eval(ve *vecEnv, active []int, out []tri) error {
	for _, i := range active {
		keep, err := rowPasses(ve.ev, ve.rowEnv.schema, ve.b.Row(i), p, ve.rowEnv.outer)
		if err != nil {
			return err
		}
		out[i] = triFalse
		if keep {
			out[i] = triTrue
		}
	}
	return nil
}

// fetchBufCap returns the capacity of the id buffer of the index fetch at
// the bottom of r's operator chain (0 for a single lookup, which needs
// none), or -1 when r does not read through an index fetch.
func (r *Rows) fetchBufCap() int {
	it := r.it
	for {
		switch x := it.(type) {
		case *limitIter:
			it = x.src
		case *projIter:
			it = x.src
		case *fetchIter:
			return cap(x.ids.buf)
		default:
			return -1
		}
	}
}
