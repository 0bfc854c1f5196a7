package sievesql

import (
	"context"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"

	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/storage"
)

// errNoTransactions: SIEVE enforces read policies; there is nothing to
// commit.
var errNoTransactions = errors.New("sievesql: transactions are not supported (SIEVE is a read middleware)")

// bindArgs converts driver named values to engine scalars. Only ordinal
// (`?`) parameters exist in SIEVE's dialect, so named arguments are
// rejected; values convert through storage.FromNative, binding args
// *before* the policy rewrite so guards and sargs see real literals.
func bindArgs(args []driver.NamedValue) ([]storage.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]storage.Value, len(args))
	for i, a := range args {
		if a.Name != "" {
			return nil, fmt.Errorf("sievesql: named argument %q not supported; use ordinal ? placeholders", a.Name)
		}
		v, err := storage.FromNative(a.Value)
		if err != nil {
			return nil, fmt.Errorf("sievesql: argument %d: %w", a.Ordinal, err)
		}
		out[i] = v
	}
	return out, nil
}

// conn is one driver connection: one sieve session. database/sql
// serialises use of a connection, matching Session's one-goroutine
// contract; the pool maps many goroutines onto many conns, which is how a
// server front end maps connections onto SIEVE.
type conn struct {
	m      *core.Middleware
	qm     policy.Metadata
	sess   *core.Session
	closed bool
}

// session lazily binds the metadata (resolving group memberships once per
// connection).
func (c *conn) session() *core.Session {
	if c.sess == nil {
		c.sess = c.m.NewSession(c.qm)
	}
	return c.sess
}

// Prepare implements driver.Conn.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

// PrepareContext parses once; the policy rewrite is cached on the
// sieve.Stmt per (querier, purpose) and epoch-invalidated by policy
// changes.
func (c *conn) PrepareContext(ctx context.Context, query string) (driver.Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := c.m.Prepare(query)
	if err != nil {
		return nil, err
	}
	return &stmt{c: c, st: st}, nil
}

// Close implements driver.Conn.
func (c *conn) Close() error {
	c.closed = true
	c.sess = nil
	return nil
}

// Begin implements driver.Conn.
func (c *conn) Begin() (driver.Tx, error) { return nil, errNoTransactions }

// BeginTx implements driver.ConnBeginTx (the path database/sql actually
// takes), with the same answer.
func (c *conn) BeginTx(context.Context, driver.TxOptions) (driver.Tx, error) {
	return nil, errNoTransactions
}

// QueryContext implements driver.QueryerContext: statements run without a
// prepared-statement round trip, streaming under ctx.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	vals, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	r, err := c.session().Query(ctx, query, vals...)
	if err != nil {
		return nil, err
	}
	return &rows{r: r}, nil
}

// ExecContext implements driver.ExecerContext: the statement runs to
// exhaustion and reports the rows it produced as affected — useful for
// fire-and-count callers; SIEVE has no write path.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	vals, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	res, err := c.session().Execute(ctx, query, vals...)
	if err != nil {
		return nil, err
	}
	return driver.RowsAffected(len(res.Rows)), nil
}

// Ping implements driver.Pinger; the middleware is in-process.
func (c *conn) Ping(ctx context.Context) error { return ctx.Err() }

// IsValid implements driver.Validator for pool reuse.
func (c *conn) IsValid() bool { return !c.closed }

// ResetSession implements driver.SessionResetter: session state is the
// immutable metadata, so reuse is always clean.
func (c *conn) ResetSession(context.Context) error { return nil }

// CheckNamedValue implements driver.NamedValueChecker: arguments are
// accepted when they convert to an engine scalar, bypassing the default
// converter (which would reject time-of-day strings and flatten NULL
// handling we want storage.FromNative to own).
func (c *conn) CheckNamedValue(nv *driver.NamedValue) error {
	if nv.Name != "" {
		return fmt.Errorf("sievesql: named argument %q not supported; use ordinal ? placeholders", nv.Name)
	}
	if _, err := storage.FromNative(nv.Value); err != nil {
		return fmt.Errorf("sievesql: argument %d: %w", nv.Ordinal, err)
	}
	return nil
}

// stmt is a prepared statement: its sieve.Stmt caches the rewritten plan
// (and per-dialect emissions) per (querier, purpose) across executions
// and across the pool's connections to the same middleware.
type stmt struct {
	c  *conn
	st *core.Stmt
}

// Close implements driver.Stmt; the plan cache lives on the sieve.Stmt
// and is dropped with it.
func (s *stmt) Close() error { return nil }

// NumInput implements driver.Stmt: the placeholder count from the
// prepared parse, letting database/sql enforce argument arity.
func (s *stmt) NumInput() int { return s.st.NumInput() }

// namedValues adapts the positional driver.Value form (the non-Context
// driver.Stmt entry points) to named values.
func namedValues(args []driver.Value) []driver.NamedValue {
	if len(args) == 0 {
		return nil
	}
	out := make([]driver.NamedValue, len(args))
	for i, v := range args {
		out[i] = driver.NamedValue{Ordinal: i + 1, Value: v}
	}
	return out
}

// Exec implements driver.Stmt.
func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.ExecContext(context.Background(), namedValues(args))
}

// ExecContext implements driver.StmtExecContext.
func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	vals, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	res, err := s.st.Execute(ctx, s.c.session(), vals...)
	if err != nil {
		return nil, err
	}
	return driver.RowsAffected(len(res.Rows)), nil
}

// Query implements driver.Stmt.
func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.QueryContext(context.Background(), namedValues(args))
}

// QueryContext implements driver.StmtQueryContext: the cached plan
// streams under ctx (placeholder statements bind-then-rewrite per call).
func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	vals, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	r, err := s.st.Query(ctx, s.c.session(), vals...)
	if err != nil {
		return nil, err
	}
	return &rows{r: r}, nil
}

// rows adapts the engine's streaming result to driver.Rows: tuples are
// produced on demand, values cross as their native Go forms, and Close —
// from the caller or database/sql's context watchdog — releases the
// underlying guarded scan early.
type rows struct {
	r *engine.Rows
}

// Columns implements driver.Rows.
func (r *rows) Columns() []string { return r.r.Columns() }

// Close implements driver.Rows.
func (r *rows) Close() error { return r.r.Close() }

// Next implements driver.Rows.
func (r *rows) Next(dest []driver.Value) error {
	if !r.r.Next() {
		if err := r.r.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	row := r.r.Row()
	if len(row) != len(dest) {
		return fmt.Errorf("sievesql: row has %d values, result declares %d columns", len(row), len(dest))
	}
	for i, v := range row {
		dest[i] = v.Native()
	}
	return nil
}
