// Package backend is the middleware's execution layer: it takes the
// emitter's output — an engine.Emission, executable SQL plus its bound
// args — and actually runs it somewhere. This is the step the paper's
// deployment mode needs beyond SQL generation (§5.3): SIEVE fronts an
// *unmodified* DBMS, so the rewritten query has to travel to a live
// backend and its rows have to travel back.
//
// Remote is the backend: it ships mysql/postgres emissions over any
// *sql.DB — a real server when a driver is compiled in, or the
// backendtest fake driver in CI — converting storage.Value args to
// driver-native types on the way out and decoding result rows back on the
// way in. The in-process engine needs no backend: Session.Query runs the
// rewrite on it directly.
//
// Backends execute post-rewrite SQL: policy enforcement happened when the
// emission was produced (Session.RewriteSQL, Stmt.EmitSQL). The helpers
// SessionQuery and StmtQuery bundle rewrite + ship for the common case.
package backend

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/storage"
)

// Rows is a streaming result decoded from a backend, mirroring
// engine.Rows' pull surface: Next advances, Row is valid until the next
// call to Next, Err reports what terminated iteration, Close is
// idempotent. A Rows is not safe for concurrent use.
type Rows interface {
	Columns() []string
	Next() bool
	Row() storage.Row
	Err() error
	Close() error
}

// Backend executes emitted statements against one execution target.
// Implementations are safe for concurrent use; the Rows they return are
// not.
type Backend interface {
	// Name identifies the backend instance, e.g. "remote-mysql".
	Name() string
	// Dialect is the emission dialect this backend consumes: "mysql" or
	// "postgres". Pass it to Session.RewriteSQL / Stmt.EmitSQL.
	Dialect() string
	// Query runs the emission and streams its result. args overrides the
	// emission's own bound-args list when non-nil; pass nil to ship
	// em.Args (the usual case).
	Query(ctx context.Context, em *engine.Emission, args []storage.Value) (Rows, error)
	// Exec runs the emission, discards the rows, and reports how many the
	// backend returned.
	Exec(ctx context.Context, em *engine.Emission, args []storage.Value) (int64, error)
	// Ping verifies the backend is reachable.
	Ping(ctx context.Context) error
	// Close releases the backend's resources.
	Close() error
	// Counters snapshots the backend's work counters.
	Counters() Counters
}

// Counters are one backend's accumulated work tallies: unlike the
// engine's scan counters these count wire-level units — statements
// shipped, args bound, rows decoded — which is what a middleware operator
// watches per backend.
type Counters struct {
	Queries     int64 // Query calls accepted
	Execs       int64 // Exec calls accepted
	RowsDecoded int64 // result rows delivered to the caller
	ArgsBound   int64 // parameters shipped with statements
	Errors      int64 // Query/Exec calls rejected or failed to open
}

// counters is the atomic accumulator behind Counters snapshots.
type counters struct {
	queries, execs, rows, args, errs atomic.Int64
}

func (c *counters) snapshot() Counters {
	return Counters{
		Queries:     c.queries.Load(),
		Execs:       c.execs.Load(),
		RowsDecoded: c.rows.Load(),
		ArgsBound:   c.args.Load(),
		Errors:      c.errs.Load(),
	}
}

// SessionQuery rewrites sql under the session's policies for b's dialect
// and ships the emission to b — parse, rewrite, emit and execute in one
// call, the unprepared end-to-end path.
func SessionQuery(ctx context.Context, b Backend, sess *core.Session, sql string) (Rows, error) {
	em, err := sess.RewriteSQL(sql, b.Dialect())
	if err != nil {
		return nil, err
	}
	return b.Query(ctx, em, nil)
}

// StmtQuery runs a prepared statement on b for the session: the emission
// comes from Stmt.EmitSQL, so parse, rewrite and emission are all cached
// on the prepared plan (and invalidated with it by the policy epoch) —
// SIEVE's per-query amortisation carried through to the wire.
func StmtQuery(ctx context.Context, b Backend, sess *core.Session, st *core.Stmt) (Rows, error) {
	em, err := st.EmitSQL(sess, b.Dialect())
	if err != nil {
		return nil, err
	}
	return b.Query(ctx, em, nil)
}

// drain consumes r to exhaustion and closes it, returning the row count.
func drain(r Rows) (int64, error) {
	defer r.Close()
	var n int64
	for r.Next() {
		n++
	}
	return n, r.Err()
}

// TypedRows re-types each decoded row to the expected column kinds,
// undoing the representation loss of a wire round-trip (TIME travels as
// its clock string, BOOL may arrive as an integer). kinds must match the
// result arity; a payload that cannot carry its expected kind terminates
// iteration with an error rather than passing through mistyped.
func TypedRows(r Rows, kinds []storage.Kind) Rows {
	return &typedRows{Rows: r, kinds: kinds}
}

type typedRows struct {
	Rows
	kinds []storage.Kind
	cur   storage.Row
	err   error
}

func (t *typedRows) Next() bool {
	if t.err != nil {
		return false
	}
	if !t.Rows.Next() {
		return false
	}
	row := t.Rows.Row()
	if len(row) != len(t.kinds) {
		t.err = fmt.Errorf("backend: typed row has %d columns, want %d", len(row), len(t.kinds))
		t.Rows.Close()
		return false
	}
	out := make(storage.Row, len(row))
	for i, v := range row {
		cv, ok := storage.CoerceKind(v, t.kinds[i])
		if !ok {
			t.err = fmt.Errorf("backend: column %q: cannot coerce %s to %s",
				t.Columns()[i], v.K, t.kinds[i])
			t.Rows.Close()
			return false
		}
		out[i] = cv
	}
	t.cur = out
	return true
}

func (t *typedRows) Row() storage.Row { return t.cur }

func (t *typedRows) Err() error {
	if t.err != nil {
		return t.err
	}
	return t.Rows.Err()
}
