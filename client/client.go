// Package client is the Go client for sieve-server, the networked
// deployment of the SIEVE middleware. It wraps the versioned HTTP/JSON
// protocol in an API mirroring the in-process surface: a Session binds
// querier and purpose (fixed server-side by the bearer token), Query
// streams rows, Prepare returns a server-side prepared statement whose
// parse and policy rewrite are cached — and re-done transparently when
// the policy corpus changes.
//
//	c := client.New("http://127.0.0.1:8743", "demo:Prof. Smith|attendance")
//	sess, err := c.OpenSession(ctx, "")
//	defer sess.Close(ctx)
//	rows, err := sess.Query(ctx, "SELECT * FROM WiFi_Dataset")
//	defer rows.Close()
//	for rows.Next() {
//		r := rows.Row() // []any: nil, int64, float64, string, bool, TimeOfDay, Date
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Placeholder queries bind arguments per call:
//
//	st, err := sess.Prepare(ctx, "SELECT * FROM WiFi_Dataset WHERE wifiAP = ?")
//	rows, err := st.Query(ctx, int64(1200))
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/server"
	"github.com/sieve-db/sieve/internal/storage"
)

// TimeOfDay is a TIME column value: seconds since midnight. A distinct
// type so row comparisons cannot confuse it with a plain integer.
type TimeOfDay int64

// Date is a DATE column value: days since the epoch.
type Date int64

// Client speaks to one sieve-server with one bearer token.
type Client struct {
	base  string
	token string
	hc    *http.Client
}

// Option customises a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying HTTP client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New builds a client for the server at baseURL (scheme://host[:port])
// authenticating with token.
func New(baseURL, token string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), token: token, hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do issues one JSON request and decodes the 2xx response into out
// (unless nil). Non-2xx responses become errors carrying the server's
// message.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	resp, err := c.send(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// send issues the request without consuming the response.
func (c *Client) send(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.hc.Do(req)
}

// decodeError turns a non-2xx response into an error with the server's
// message.
func decodeError(resp *http.Response) error {
	var e server.ErrorResponse
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
		return fmt.Errorf("sieve-server: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("sieve-server: HTTP %d", resp.StatusCode)
}

// Health reports the server's /healthz state; err is non-nil when the
// server is unreachable, and ok is false while it drains.
func (c *Client) Health(ctx context.Context) (ok bool, err error) {
	resp, err := c.send(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	return resp.StatusCode == http.StatusOK, nil
}

// OpenSession opens a session. purpose may be empty when the token pins
// one; the server rejects a purpose conflicting with the token's.
func (c *Client) OpenSession(ctx context.Context, purpose string) (*Session, error) {
	var out server.OpenSessionResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions", server.OpenSessionRequest{Purpose: purpose}, &out)
	if err != nil {
		return nil, err
	}
	return &Session{c: c, id: out.SessionID, querier: out.Querier, purpose: out.Purpose}, nil
}

// Condition is one object condition of a policy: Attr Op Value, with Op
// one of = != < <= > >=.
type Condition struct {
	Attr  string
	Op    string
	Value any
}

// Policy is the client-side policy description for AddPolicy. Action ""
// means allow.
type Policy struct {
	Owner      int64
	Querier    string
	Purpose    string
	Relation   string
	Action     string
	Conditions []Condition
}

// AddPolicy inserts a policy (admin tokens only) and returns its id.
// Every session's prepared statements observe the change on their next
// execution — the policy epoch invalidates their cached rewrites.
func (c *Client) AddPolicy(ctx context.Context, p Policy) (int64, error) {
	req := server.PolicyRequest{
		Owner: p.Owner, Querier: p.Querier, Purpose: p.Purpose,
		Relation: p.Relation, Action: p.Action,
	}
	for _, cond := range p.Conditions {
		wv, err := encodeArg(cond.Value)
		if err != nil {
			return 0, fmt.Errorf("condition on %s: %w", cond.Attr, err)
		}
		req.Conditions = append(req.Conditions, server.ConditionRequest{Attr: cond.Attr, Op: cond.Op, Value: wv})
	}
	var out server.PolicyResponse
	if err := c.do(ctx, http.MethodPost, "/v1/policies", req, &out); err != nil {
		return 0, err
	}
	return out.ID, nil
}

// RevokePolicy deletes a policy by id (admin tokens only).
func (c *Client) RevokePolicy(ctx context.Context, id int64) error {
	return c.do(ctx, http.MethodDelete, fmt.Sprintf("/v1/policies/%d", id), nil, nil)
}

// Session is an open server-side session: all queries run under its
// (querier, purpose) metadata.
type Session struct {
	c       *Client
	id      string
	querier string
	purpose string
}

// Querier returns the identity the server bound this session to.
func (s *Session) Querier() string { return s.querier }

// Purpose returns the session's query purpose.
func (s *Session) Purpose() string { return s.purpose }

// Close releases the session and its prepared statements server-side.
func (s *Session) Close(ctx context.Context) error {
	return s.c.do(ctx, http.MethodDelete, "/v1/sessions/"+s.id, nil, nil)
}

// Query runs sql and streams the policy-filtered result. args bind `?`
// placeholders in lexical order; see Rows for the iteration contract.
func (s *Session) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	wargs, err := encodeArgs(args)
	if err != nil {
		return nil, err
	}
	return s.c.stream(ctx, "/v1/sessions/"+s.id+"/query", server.QueryRequest{SQL: sql, Args: wargs})
}

// QueryTrace is Query with server-side phase tracing enabled: the done
// line carries the query's span tree, available from Rows.Trace after
// iteration completes. Tracing costs a few clock reads per phase.
func (s *Session) QueryTrace(ctx context.Context, sql string, args ...any) (*Rows, error) {
	wargs, err := encodeArgs(args)
	if err != nil {
		return nil, err
	}
	return s.c.stream(ctx, "/v1/sessions/"+s.id+"/query?trace=1", server.QueryRequest{SQL: sql, Args: wargs})
}

// Rewrite returns the policy-rewritten form of sql without executing it.
// dialect "" (or "sieve") yields the middleware's own dialect; "mysql" /
// "postgres" yield emitted SQL plus its lifted bound args.
func (s *Session) Rewrite(ctx context.Context, sql, dialect string) (string, []any, error) {
	var out server.RewriteResponse
	err := s.c.do(ctx, http.MethodPost, "/v1/sessions/"+s.id+"/rewrite",
		server.RewriteRequest{SQL: sql, Dialect: dialect}, &out)
	if err != nil {
		return "", nil, err
	}
	args, err := decodeAnys(nil, out.Args)
	if err != nil {
		return "", nil, err
	}
	return out.SQL, args, nil
}

// Prepare registers a server-side prepared statement: parse and policy
// rewrite are paid once and cached until the policy corpus changes.
func (s *Session) Prepare(ctx context.Context, sql string) (*Stmt, error) {
	var out server.PrepareResponse
	err := s.c.do(ctx, http.MethodPost, "/v1/sessions/"+s.id+"/prepare", server.PrepareRequest{SQL: sql}, &out)
	if err != nil {
		return nil, err
	}
	return &Stmt{s: s, id: out.StmtID, numInput: out.NumInput}, nil
}

// Stmt is a server-side prepared statement.
type Stmt struct {
	s        *Session
	id       string
	numInput int
}

// NumInput reports how many `?` placeholders each execution must bind.
func (st *Stmt) NumInput() int { return st.numInput }

// Query executes the statement with args bound to its placeholders.
func (st *Stmt) Query(ctx context.Context, args ...any) (*Rows, error) {
	wargs, err := encodeArgs(args)
	if err != nil {
		return nil, err
	}
	return st.s.c.stream(ctx, "/v1/sessions/"+st.s.id+"/stmts/"+st.id+"/query",
		server.StmtQueryRequest{Args: wargs})
}

// QueryTrace is Query with server-side phase tracing enabled; see
// Session.QueryTrace.
func (st *Stmt) QueryTrace(ctx context.Context, args ...any) (*Rows, error) {
	wargs, err := encodeArgs(args)
	if err != nil {
		return nil, err
	}
	return st.s.c.stream(ctx, "/v1/sessions/"+st.s.id+"/stmts/"+st.id+"/query?trace=1",
		server.StmtQueryRequest{Args: wargs})
}

// Close deallocates the statement server-side.
func (st *Stmt) Close(ctx context.Context) error {
	return st.s.c.do(ctx, http.MethodDelete, "/v1/sessions/"+st.s.id+"/stmts/"+st.id, nil, nil)
}

// encodeArg converts a native Go argument to its wire form. Supported:
// nil, bool, int, int64, float64, string, time.Time (a DATE at UTC
// midnight, a TIME when only the clock is set), TimeOfDay, Date.
func encodeArg(a any) (server.WireValue, error) {
	v, err := toValue(a)
	if err != nil {
		return server.WireValue{}, err
	}
	return server.EncodeValue(v), nil
}

// toValue maps client argument types onto engine values, reusing the
// driver's conversion for the shared cases.
func toValue(a any) (storage.Value, error) {
	switch x := a.(type) {
	case TimeOfDay:
		return storage.NewTime(int64(x)), nil
	case Date:
		return storage.NewDate(int64(x)), nil
	case int:
		return storage.NewInt(int64(x)), nil
	case time.Time:
		return storage.FromNative(x)
	}
	return storage.FromNative(a)
}

func encodeArgs(args []any) ([]server.WireValue, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]server.WireValue, len(args))
	for i, a := range args {
		wv, err := encodeArg(a)
		if err != nil {
			return nil, fmt.Errorf("arg %d: %w", i+1, err)
		}
		out[i] = wv
	}
	return out, nil
}

// decodeAny maps a wire value to the client's Go representation: nil,
// int64, float64, string, bool, TimeOfDay, Date.
func decodeAny(w server.WireValue) (any, error) {
	v, err := server.DecodeValue(w)
	if err != nil {
		return nil, err
	}
	return FromValue(v), nil
}

// FromValue converts an engine value to the client's Go representation —
// exported so tests can compare in-process rows with wire rows under the
// same mapping.
func FromValue(v storage.Value) any {
	switch v.K {
	case storage.KindNull:
		return nil
	case storage.KindInt:
		return v.I
	case storage.KindFloat:
		return v.F
	case storage.KindString:
		return v.S
	case storage.KindBool:
		return v.I != 0
	case storage.KindTime:
		return TimeOfDay(v.I)
	case storage.KindDate:
		return Date(v.I)
	}
	return nil
}

// decodeAnys decodes ws into dst's storage, grown to hold them.
func decodeAnys(dst []any, ws []server.WireValue) ([]any, error) {
	if len(ws) == 0 {
		return dst[:0], nil
	}
	out := slices.Grow(dst[:0], len(ws))[:len(ws)]
	for i, w := range ws {
		v, err := decodeAny(w)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// stream opens a query response and wraps it as Rows.
func (c *Client) stream(ctx context.Context, path string, body any) (*Rows, error) {
	resp, err := c.send(ctx, http.MethodPost, path, body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	r := &Rows{body: resp.Body, sc: bufio.NewScanner(resp.Body)}
	// Row lines are ~100 bytes: start at the Scanner's 4 KiB default and
	// grow on demand, up to a 16 MiB line.
	r.sc.Buffer(nil, 16<<20)
	// The first line carries the column names; its arrival is the
	// server's acknowledgement that the query was accepted.
	if !r.sc.Scan() {
		resp.Body.Close()
		if err := r.sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("sieve-server: stream did not start with a columns line")
	}
	line, err := decodeLine(r.sc.Bytes())
	if err != nil {
		resp.Body.Close()
		return nil, err
	}
	if line.Columns == nil {
		resp.Body.Close()
		return nil, fmt.Errorf("sieve-server: stream did not start with a columns line")
	}
	r.cols = line.Columns
	return r, nil
}

// Rows streams a query result over the wire, mirroring the engine's pull
// surface: Next advances, Row is valid until the next call to Next — every
// row is decoded into the same slice, so a caller that keeps a row copies
// it — Err reports what terminated iteration, Close is idempotent and may
// be called early — the server observes the disconnect and stops the scan.
//
// A stream that dies mid-flight (network cut, server drain deadline)
// surfaces an error from Err: results are complete exactly when Err
// returns nil after Next returned false.
type Rows struct {
	body   io.ReadCloser
	sc     *bufio.Scanner
	cols   []string
	cur    []any       // the current row, reused by every row
	vals   storage.Row // ParseRowLine's reused scratch row
	n      int64
	done   bool
	closed bool
	err    error
	stats  *server.StreamCounters
	trace  *obs.SpanNode
	reqID  string
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.cols }

// decodeLine decodes one NDJSON line as JSON.
func decodeLine(b []byte) (*server.StreamLine, error) {
	var line server.StreamLine
	if err := json.Unmarshal(b, &line); err != nil {
		return nil, fmt.Errorf("sieve-server: bad stream line: %w", err)
	}
	return &line, nil
}

// Next advances to the next row; false on exhaustion, error, or after
// Close.
func (r *Rows) Next() bool {
	if r.closed || r.done || r.err != nil {
		return false
	}
	if !r.sc.Scan() {
		r.err = r.sc.Err()
		if r.err == nil {
			r.err = fmt.Errorf("sieve-server: stream ended without a done line (connection cut mid-result)")
		}
		r.release()
		return false
	}
	// A row line in the server's canonical form skips encoding/json;
	// anything else, including a row line it declines, is decoded below.
	if vals, ok := server.ParseRowLine(r.sc.Bytes(), r.vals); ok {
		r.vals = vals
		r.cur = slices.Grow(r.cur[:0], len(vals))[:len(vals)]
		for i, v := range vals {
			r.cur[i] = FromValue(v)
		}
		return true
	}
	line, err := decodeLine(r.sc.Bytes())
	if err != nil {
		r.err = err
		r.release()
		return false
	}
	switch {
	case line.Error != "":
		r.err = fmt.Errorf("sieve-server: %s", line.Error)
	case line.Done:
		r.done = true
		r.n = line.Rows
		r.stats = line.Counters
		r.trace = line.Trace
		r.reqID = line.RequestID
	case line.Row != nil:
		row, err := decodeAnys(r.cur, line.Row)
		if err != nil {
			r.err = err
			break
		}
		r.cur = row
		return true
	default:
		r.err = fmt.Errorf("sieve-server: unrecognised stream line")
	}
	r.release()
	return false
}

// Row returns the current row; valid until the next call to Next, which
// decodes the next row into the same slice.
func (r *Rows) Row() []any { return r.cur }

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// N reports the server's row count from the done line (0 until the
// stream completes).
func (r *Rows) N() int64 { return r.n }

// Counters returns the query's server-side work tally from the done line;
// nil until the stream completes.
func (r *Rows) Counters() *server.StreamCounters { return r.stats }

// Trace returns the query's server-side span tree when it ran with
// tracing (QueryTrace); nil otherwise. Populated once the stream
// completes — after Next returned false with a nil Err.
func (r *Rows) Trace() *obs.SpanNode { return r.trace }

// RequestID returns the id the server assigned this query's request —
// the same value in the server's log lines and X-Request-Id header.
// Populated once the stream completes.
func (r *Rows) RequestID() string { return r.reqID }

// Close stops iteration; closing before exhaustion disconnects the
// stream and the server abandons the scan.
func (r *Rows) Close() error {
	r.release()
	return nil
}

func (r *Rows) release() {
	if r.closed {
		return
	}
	r.closed = true
	r.cur = nil
	_ = r.body.Close()
}
