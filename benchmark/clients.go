package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"github.com/sieve-db/sieve/client"
	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/storage"
)

// rec is one measured op.
type rec struct {
	kind    opKind
	querier int32
	query   int32
	rows    int32
	lat     time.Duration
	first   time.Duration // call → first row (or end of an empty stream); stream ops
	sum     uint64        // multiset hash of a full result
	bad     bool          // failed, or returned a row the oracle rejects
	revoke  bool          // a write that revoked (the others granted)
}

// caller runs read ops the way one client of the system would. It returns
// the rows for verification; whatever it does after the last row is in the
// caller's hands is outside the op's latency.
type caller interface {
	read(ctx context.Context, o op) (rows []storage.Row, lat, first time.Duration, err error)
	close()
}

// inproc calls the middleware as a library client: one core.Session per
// querier, the environment's shared prepared statements.
type inproc struct {
	e    *env
	sess []*core.Session
}

// newInproc opens a session per name; an op's querier indexes into names.
func newInproc(e *env, names []string) *inproc {
	c := &inproc{e: e, sess: make([]*core.Session, len(names))}
	for i, q := range names {
		c.sess[i] = e.m.NewSession(policy.Metadata{Querier: q, Purpose: e.purpose})
	}
	return c
}

func (c *inproc) close() {}

func (c *inproc) read(ctx context.Context, o op) ([]storage.Row, time.Duration, time.Duration, error) {
	return readInproc(ctx, c.e, c.sess[o.querier], o)
}

func readInproc(ctx context.Context, e *env, sess *core.Session, o op) (rows []storage.Row, lat, first time.Duration, err error) {
	t0 := time.Now()
	switch o.kind {
	case kStream:
		rs, qerr := sess.Query(ctx, e.queries[o.query].sql)
		if qerr != nil {
			return nil, 0, 0, qerr
		}
		for len(rows) < streamLimit && rs.Next() {
			if len(rows) == 0 {
				first = time.Since(t0)
			}
			rows = append(rows, append(storage.Row(nil), rs.Row()...))
		}
		if len(rows) == 0 {
			first = time.Since(t0)
		}
		err = rs.Err()
		_ = rs.Close()
	case kPrepared, kRAW:
		res, xerr := e.stmts[o.query].Execute(ctx, sess)
		if xerr != nil {
			return nil, 0, 0, xerr
		}
		rows = res.Rows
	default:
		res, xerr := sess.Execute(ctx, e.queries[o.query].sql)
		if xerr != nil {
			return nil, 0, 0, xerr
		}
		rows = res.Rows
	}
	return rows, time.Since(t0), first, err
}

// wire calls the same middleware through server + client over loopback: its
// own HTTP connection, one wire session per querier, and each session's
// server-side prepared statements.
type wire struct {
	e     *env
	hc    *http.Client
	sess  []*client.Session
	stmts [][]*client.Stmt // [querier][query]
}

// newWire opens a session per name and prepares the given queries on each;
// that is set-up a client pays once, so it is inside setup_s and outside
// every op.
func newWire(ctx context.Context, e *env, rt http.RoundTripper, names []string, prepared []int32) (*wire, error) {
	if rt == nil {
		rt = &http.Transport{MaxIdleConnsPerHost: 1}
	}
	c := &wire{e: e, hc: &http.Client{Transport: rt}}
	for qi, name := range names {
		s, err := c.openSession(ctx, name)
		if err != nil {
			c.close()
			return nil, err
		}
		c.sess = append(c.sess, s)
		c.stmts = append(c.stmts, make([]*client.Stmt, len(e.queries)))
		for _, k := range prepared {
			st, err := s.Prepare(ctx, e.queries[k].sql)
			if err != nil {
				c.close()
				return nil, fmt.Errorf("prepare %s for %s: %w", e.queries[k].name, name, err)
			}
			c.stmts[qi][k] = st
		}
	}
	return c, nil
}

func (c *wire) openSession(ctx context.Context, querier string) (*client.Session, error) {
	cl := client.New(c.e.baseURL, "demo:"+querier+"|"+c.e.purpose, client.WithHTTPClient(c.hc))
	s, err := cl.OpenSession(ctx, "")
	if err != nil {
		return nil, fmt.Errorf("open wire session for %s: %w", querier, err)
	}
	return s, nil
}

func (c *wire) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range c.sess {
		_ = s.Close(ctx)
	}
	c.hc.CloseIdleConnections()
}

func (c *wire) read(ctx context.Context, o op) (rows []storage.Row, lat, first time.Duration, err error) {
	t0 := time.Now()
	var rs *client.Rows
	if o.kind == kPrepared {
		rs, err = c.stmts[o.querier][o.query].Query(ctx)
	} else {
		rs, err = c.sess[o.querier].Query(ctx, c.e.queries[o.query].sql)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	// Turning each row back into engine values, for the oracle, stands in
	// for whatever a caller does with a row it has been handed.
	for (o.kind != kStream || len(rows) < streamLimit) && rs.Next() {
		if len(rows) == 0 {
			first = time.Since(t0)
		}
		rows = append(rows, fromWire(rs.Row()))
	}
	if len(rows) == 0 {
		first = time.Since(t0)
	}
	err = rs.Err()
	_ = rs.Close()
	return rows, time.Since(t0), first, err
}

// fromWire is the inverse of client.FromValue.
func fromWire(r []any) storage.Row {
	out := make(storage.Row, len(r))
	for i, a := range r {
		switch x := a.(type) {
		case int64:
			out[i] = storage.NewInt(x)
		case float64:
			out[i] = storage.NewFloat(x)
		case string:
			out[i] = storage.NewString(x)
		case bool:
			out[i] = storage.NewBool(x)
		case client.TimeOfDay:
			out[i] = storage.NewTime(int64(x))
		case client.Date:
			out[i] = storage.NewDate(int64(x))
		default:
			out[i] = storage.Null
		}
	}
	return out
}
