// Package backendtest provides a fake database/sql driver for exercising
// the Remote backend without a live server: every statement the pool
// ships is recorded — SQL text plus args in placeholder order — and
// answered with canned rows the test (or a loopback harness) seeded. It
// plugs in through sql.OpenDB(fake.Connector()), so no global
// sql.Register name is consumed.
package backendtest

import (
	"context"
	"database/sql/driver"
	"fmt"
	"io"
	"sync"

	"github.com/sieve-db/sieve/internal/storage"
)

// Call is one statement the fake received, args in placeholder order.
type Call struct {
	SQL  string
	Args []driver.Value
}

// Result is one canned result set: column names plus rows of
// driver-native values (the set a real driver would produce).
type Result struct {
	Cols []string
	Rows [][]driver.Value
}

// ResultFromRows converts engine rows to the canned form through the
// same Native binding the outbound arg path uses — the loopback seeding
// every fake-backed door needs (the corpus harness's fake remotes, the
// repl's \backend command).
func ResultFromRows(cols []string, rows []storage.Row) Result {
	out := Result{Cols: cols}
	for _, r := range rows {
		row := make([]driver.Value, len(r))
		for i, v := range r {
			row[i] = v.Native()
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Fake is a recording database/sql driver. Seed responses with Push (FIFO,
// consumed one per statement) or SetDefault (served whenever the queue is
// empty); inspect traffic with Calls. A Fake is safe for concurrent use —
// database/sql pools hand its connections to many goroutines.
type Fake struct {
	mu    sync.Mutex
	calls []Call
	queue []Result
	def   Result
	fail  error
}

// New returns an empty fake: every query answers the zero Result (no
// columns, no rows) until seeded.
func New() *Fake { return &Fake{} }

// Connector returns a driver.Connector for sql.OpenDB.
func (f *Fake) Connector() driver.Connector { return fakeConnector{f} }

// Push queues one canned result; each received statement consumes one.
func (f *Fake) Push(r Result) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.queue = append(f.queue, r)
}

// SetDefault sets the result served when the queue is empty.
func (f *Fake) SetDefault(r Result) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.def = r
}

// FailWith makes every subsequent statement fail with err (nil clears).
func (f *Fake) FailWith(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail = err
}

// Calls returns a copy of every statement received so far, in order.
func (f *Fake) Calls() []Call {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Call, len(f.calls))
	copy(out, f.calls)
	return out
}

// LastCall returns the most recent statement; ok is false when none
// arrived yet.
func (f *Fake) LastCall() (Call, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.calls) == 0 {
		return Call{}, false
	}
	return f.calls[len(f.calls)-1], true
}

// Reset clears the recorded calls and the result queue (the default result
// stays).
func (f *Fake) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = nil
	f.queue = nil
}

// serve records one statement and pops its response.
func (f *Fake) serve(query string, args []driver.Value) (Result, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail != nil {
		return Result{}, f.fail
	}
	cp := make([]driver.Value, len(args))
	copy(cp, args)
	f.calls = append(f.calls, Call{SQL: query, Args: cp})
	if len(f.queue) > 0 {
		r := f.queue[0]
		f.queue = f.queue[1:]
		return r, nil
	}
	return f.def, nil
}

// fakeConnector hands out connections sharing one Fake.
type fakeConnector struct{ f *Fake }

func (c fakeConnector) Connect(context.Context) (driver.Conn, error) { return &fakeConn{f: c.f}, nil }
func (c fakeConnector) Driver() driver.Driver                        { return fakeDriver{c.f} }

// fakeDriver supports the Driver() accessor; DSNs are meaningless here.
type fakeDriver struct{ f *Fake }

func (d fakeDriver) Open(string) (driver.Conn, error) { return &fakeConn{f: d.f}, nil }

// fakeConn is one pooled connection. database/sql serialises calls per
// connection, so no locking beyond the shared Fake's is needed.
type fakeConn struct{ f *Fake }

func (c *fakeConn) Prepare(query string) (driver.Stmt, error) {
	return &fakeStmt{c: c, query: query}, nil
}

func (c *fakeConn) Close() error { return nil }

func (c *fakeConn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("backendtest: transactions are not supported")
}

func (c *fakeConn) Ping(context.Context) error { return nil }

// QueryContext is the fast path database/sql prefers over Prepare.
func (c *fakeConn) QueryContext(_ context.Context, query string, named []driver.NamedValue) (driver.Rows, error) {
	res, err := c.f.serve(query, namedToValues(named))
	if err != nil {
		return nil, err
	}
	return &fakeRows{res: res}, nil
}

// ExecContext records the statement and reports the canned row count as
// affected.
func (c *fakeConn) ExecContext(_ context.Context, query string, named []driver.NamedValue) (driver.Result, error) {
	res, err := c.f.serve(query, namedToValues(named))
	if err != nil {
		return nil, err
	}
	return driver.RowsAffected(len(res.Rows)), nil
}

func namedToValues(named []driver.NamedValue) []driver.Value {
	out := make([]driver.Value, len(named))
	for i, nv := range named {
		out[i] = nv.Value
	}
	return out
}

// fakeStmt backs the Prepare path for completeness; database/sql uses the
// QueryerContext fast path when available.
type fakeStmt struct {
	c     *fakeConn
	query string
}

func (s *fakeStmt) Close() error  { return nil }
func (s *fakeStmt) NumInput() int { return -1 }

func (s *fakeStmt) Exec(args []driver.Value) (driver.Result, error) {
	res, err := s.c.f.serve(s.query, args)
	if err != nil {
		return nil, err
	}
	return driver.RowsAffected(len(res.Rows)), nil
}

func (s *fakeStmt) Query(args []driver.Value) (driver.Rows, error) {
	res, err := s.c.f.serve(s.query, args)
	if err != nil {
		return nil, err
	}
	return &fakeRows{res: res}, nil
}

// fakeRows replays one canned result set.
type fakeRows struct {
	res Result
	pos int
}

func (r *fakeRows) Columns() []string { return r.res.Cols }
func (r *fakeRows) Close() error      { return nil }

func (r *fakeRows) Next(dest []driver.Value) error {
	if r.pos >= len(r.res.Rows) {
		return io.EOF
	}
	row := r.res.Rows[r.pos]
	r.pos++
	if len(row) != len(dest) {
		return fmt.Errorf("backendtest: row has %d values, result declares %d columns", len(row), len(dest))
	}
	copy(dest, row)
	return nil
}
