package engine

import (
	"fmt"
	"testing"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

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
	ref := func(tb *tableBinding) *vecProgram {
		if len(tb.conjs) == 0 {
			return nil
		}
		return &vecProgram{preds: []vecPred{newRowReference(db, tb)}}
	}
	db.rowReference.Store(&ref)
	return func() { db.rowReference.Store(nil) }
}

// rowReference runs a binding's conjuncts through rowPasses one at a time,
// each read as it was bound: by the statement or, for a registered
// conjunct, which no statement's pass walks, against the table alone.
type rowReference struct {
	tb    *tableBinding
	binds []*binding
}

func newRowReference(db *DB, tb *tableBinding) rowReference {
	p := rowReference{tb: tb, binds: make([]*binding, len(tb.conjs))}
	for j, c := range tb.conjs {
		p.binds[j] = c.vc.b
		if c.vc.b == nil {
			p.binds[j], _ = db.bindExpr(c.expr, tb.schema)
		}
	}
	return p
}

func (p rowReference) eval(ve *vecEnv, active []int, out []tri) error {
	for _, i := range active {
		ve.rowEnv.row = ve.b.Row(i)
		out[i] = triTrue
		for j, c := range p.tb.conjs {
			ve.ev.b = p.binds[j]
			keep, err := rowPasses(ve.ev, &ve.rowEnv, []sqlparser.Expr{c.expr})
			if err != nil {
				return err
			}
			if !keep {
				out[i] = triFalse
				break
			}
		}
	}
	return nil
}

// scanFilter binds where as the WHERE of a scan of table and returns the
// scan's table binding.
func scanFilter(t testing.TB, db *DB, table string, where sqlparser.Expr) *tableBinding {
	t.Helper()
	sb, err := db.bind(&sqlparser.SelectStmt{Body: &sqlparser.SelectCore{
		Star: true, From: []sqlparser.TableRef{{Name: table}}, Where: where, Limit: -1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return &sb.body.sources[0].tableBinding
}

// access returns the base-table operator at the bottom of r's operator
// chain, or nil when r does not read a base table through one.
func (r *Rows) access() rowIter {
	it := r.it
	for {
		switch x := it.(type) {
		case *limitIter:
			it = x.src
		case *projIter:
			it = x.src
		case *fetchIter, *scanIter:
			return x
		default:
			return nil
		}
	}
}

// fetchBufCap returns the capacity of the id buffer of the index fetch at
// the bottom of r's operator chain (0 for a single lookup, which needs
// none), or -1 when r does not read through an index fetch.
func (r *Rows) fetchBufCap() int {
	if f, ok := r.access().(*fetchIter); ok {
		return cap(f.ids.buf)
	}
	return -1
}

// rowKey is row's encoding, the key it has in a rowSet.
func rowKey(row storage.Row) string {
	var b []byte
	for _, v := range row {
		b = appendValue(b, v)
	}
	return string(b)
}

// watchFilters has watch called for every batch filter of db's executions as
// it is taken from its pool (taken) and as it goes back, cleared, and
// returns the function that stops watching. Fan-out workers call watch from
// their own goroutines. Install it while no query runs on db.
func (db *DB) watchFilters(watch func(f *batchFilter, taken bool)) (restore func()) {
	db.filterEvents.Store(&watch)
	return func() { db.filterEvents.Store(nil) }
}

// pinned reports what a released filter still reaches of the execution it
// served — a row, a value, the executor, the program, a closure — or ""
// when it reaches nothing.
func (f *batchFilter) pinned() string {
	switch {
	case f.ex != nil || f.ev.ex != nil || f.ve.ev != nil:
		return "an executor"
	case f.prog != nil:
		return "a program"
	case f.ev.scope != nil || f.ev.b != nil || f.ev.aggValues != nil:
		return "a scope"
	case f.ve.b != nil || f.ve.poll != nil:
		return "the batch or the poll closure"
	case f.ve.rowEnv.schema != nil || f.ve.rowEnv.row != nil || f.ve.rowEnv.outer != nil:
		return "a row env"
	case f.batch.Len() != 0:
		return "loaded rows"
	case len(f.sel) != 0 || f.selHi != 0:
		return "selected rows"
	case f.ve.s.nt != 0 || f.ve.s.ni != 0 || f.ve.s.nv != 0 || f.ve.s.hv != 0:
		return "scratch stack tops"
	}
	rows := f.batch.Rows()
	for _, r := range rows[:cap(rows)] {
		if r != nil {
			return "a row"
		}
	}
	for _, r := range f.sel[:cap(f.sel)] {
		if r != nil {
			return "a selected row"
		}
	}
	for _, v := range f.ve.s.vals {
		if v != (storage.Value{}) {
			return "a scratch value"
		}
	}
	return ""
}

// useColumnCheckedReference is UseRowReference with one more check before
// rowPasses: every column vector of every batch the filter sees must hold
// the batch's own rows' values, so a vector left over from another batch or
// another table fails the query.
func (db *DB) useColumnCheckedReference() (restore func()) {
	ref := func(tb *tableBinding) *vecProgram {
		if len(tb.conjs) == 0 {
			return nil
		}
		return &vecProgram{preds: []vecPred{columnCheck{}, newRowReference(db, tb)}}
	}
	db.rowReference.Store(&ref)
	return func() { db.rowReference.Store(nil) }
}

type columnCheck struct{}

func (columnCheck) eval(ve *vecEnv, active []int, out []tri) error {
	if ve.b.Len() == 0 {
		return nil
	}
	for c := range ve.b.Row(0) {
		vec := ve.b.Col(c)
		if len(vec) != ve.b.Len() {
			return fmt.Errorf("column %d: %d values for %d rows", c, len(vec), ve.b.Len())
		}
		for i, v := range vec {
			if v != ve.b.Row(i)[c] {
				return fmt.Errorf("column %d row %d: vector holds %v, row %v", c, i, v, ve.b.Row(i)[c])
			}
		}
	}
	for _, i := range active {
		out[i] = triTrue
	}
	return nil
}
