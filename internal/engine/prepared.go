package engine

import (
	"context"
	"sync"
	"time"

	"github.com/sieve-db/sieve/internal/sqlparser"
)

// Prepared is a parsed statement bound to a DB for repeated execution. The
// bind pass (bind.go) runs at its first execution and is kept: what it
// derives from the statement and the schema alone — every name resolved,
// which WITH bodies may stream, which conjuncts belong to which FROM entry,
// each base table's sargs and compiled filter — serves every execution
// after it, so a later execution plans against current statistics and goes
// straight to probe and scan. A Prepared is safe for concurrent use; the
// statement must not be modified after Prepare.
type Prepared struct {
	db    *DB
	stmt  *sqlparser.SelectStmt
	cache planCache
}

// Prepare binds a parsed statement for repeated execution.
func (db *DB) Prepare(stmt *sqlparser.SelectStmt) *Prepared {
	return &Prepared{db: db, stmt: stmt}
}

// Stream opens the statement as a streaming result: the one way a
// statement runs (DB.StreamStmt prepares it for one execution). The open —
// the bind pass at the first execution, then WITH bodies read more than
// once, which materialise here — is timed into the executor's "scan" span,
// as every later Rows.Next is.
func (p *Prepared) Stream(ctx context.Context) (*Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &Rows{}
	ex := r.ex.init(ctx, p.db)
	var t0 time.Time
	if ex.span != nil {
		t0 = time.Now()
	}
	sb, err := p.cache.bind(p.db, p.stmt)
	var it rowIter
	if err == nil {
		it, err = ex.stmtIter(sb, nil, nil)
	}
	if ex.span != nil {
		ex.span.AddSince(t0)
	}
	if err != nil {
		ex.flush(p.db)
		return nil, err
	}
	r.cols, r.it = sb.body.cols, it
	return r, nil
}

// planCache holds a Prepared's bound statement, or the error its bind pass
// failed on: the first execution binds, and every execution after it reuses
// what that pass found.
type planCache struct {
	once  sync.Once
	bound *boundStmt
	err   error
}

// bind returns s bound on db, binding it at the first call.
func (pc *planCache) bind(db *DB, s *sqlparser.SelectStmt) (*boundStmt, error) {
	pc.once.Do(func() { pc.bound, pc.err = db.bind(s) })
	return pc.bound, pc.err
}
