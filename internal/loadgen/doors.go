package loadgen

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"time"

	"github.com/sieve-db/sieve/client"
	"github.com/sieve-db/sieve/internal/backend"
	"github.com/sieve-db/sieve/internal/backend/backendtest"
	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
	"github.com/sieve-db/sieve/sievesql"
)

// SessionQuery is the streaming in-process door — and the reference every
// other door is held to.
func SessionQuery(m *core.Middleware) Runner {
	return Runner{Name: "Session.Query", Streams: true,
		Run: func(ctx context.Context, md policy.Metadata, sql string, limit int) (Result, error) {
			rows, err := m.NewSession(md).Query(ctx, sql)
			if err != nil {
				return Result{}, err
			}
			return readEngine(rows, limit)
		}}
}

// SessionExecute is the materialising in-process door.
func SessionExecute(m *core.Middleware) Runner {
	return Runner{Name: "Session.Execute",
		Run: func(ctx context.Context, md policy.Metadata, sql string, _ int) (Result, error) {
			res, err := m.NewSession(md).Execute(ctx, sql)
			if err != nil {
				return Result{}, err
			}
			return Result{Cols: res.Columns, Rows: res.Rows}, nil
		}}
}

// StmtQuery streams through prepared statements, one per SQL text shared
// by every querier: core.Stmt caches one plan per policy signature, so
// queriers of one profile take the shared-plan path.
func StmtQuery(m *core.Middleware) Runner {
	stmts := newStmtCache(m)
	return Runner{Name: "Stmt.Query", Streams: true,
		Run: func(ctx context.Context, md policy.Metadata, sql string, limit int) (Result, error) {
			st, err := stmts.get(sql)
			if err != nil {
				return Result{}, err
			}
			rows, err := st.Query(ctx, m.NewSession(md))
			if err != nil {
				return Result{}, err
			}
			return readEngine(rows, limit)
		}}
}

// StmtExecute materialises through prepared statements shared as in
// StmtQuery.
func StmtExecute(m *core.Middleware) Runner {
	stmts := newStmtCache(m)
	return Runner{Name: "Stmt.Execute",
		Run: func(ctx context.Context, md policy.Metadata, sql string, _ int) (Result, error) {
			st, err := stmts.get(sql)
			if err != nil {
				return Result{}, err
			}
			res, err := st.Execute(ctx, m.NewSession(md))
			if err != nil {
				return Result{}, err
			}
			return Result{Cols: res.Columns, Rows: res.Rows}, nil
		}}
}

// SieveSQL runs through database/sql over the sievesql driver, which
// carries a TIME as its clock string: each value is re-typed to its
// column's kind in Session.Query's result, as a client that knows the
// schema does.
func SieveSQL(m *core.Middleware) Runner {
	ref := SessionQuery(m)
	return Runner{Name: "sievesql", Streams: true,
		Run: func(ctx context.Context, md policy.Metadata, text string, limit int) (Result, error) {
			schema, err := ref.Run(ctx, md, text, -1)
			if err != nil {
				return Result{}, err
			}
			kinds := columnKinds(schema)
			db := sql.OpenDB(sievesql.NewConnector(m, md))
			defer db.Close()
			rows, err := db.QueryContext(ctx, text)
			if err != nil {
				return Result{}, err
			}
			defer rows.Close()
			cols, err := rows.Columns()
			if err != nil {
				return Result{}, err
			}
			if len(cols) != len(kinds) {
				return Result{}, fmt.Errorf("columns %v, Session.Query has %v", cols, schema.Cols)
			}
			vals := make([]sievesql.ScanValue, len(cols))
			dest := make([]any, len(cols))
			for i := range dest {
				dest[i] = &vals[i]
			}
			res := Result{Cols: cols}
			for (limit < 0 || len(res.Rows) < limit) && rows.Next() {
				if err := rows.Scan(dest...); err != nil {
					return Result{}, err
				}
				row := make(storage.Row, len(vals))
				for i := range vals {
					row[i] = vals[i].V
					if v, ok := storage.CoerceKind(row[i], kinds[i]); ok {
						row[i] = v
					}
				}
				res.Rows = append(res.Rows, row)
			}
			return res, rows.Err()
		}}
}

// FakeRemote ships each query to backend.Remote over the recording fake
// driver in dialect ("mysql" or "postgres"). The fake is seeded with
// Session.Query's rows, as a real server would compute them, and the
// decoded rows are re-typed to the seed's column kinds. The door fails
// when the statement on the wire is not the prepared statement's cached
// emission byte for byte, with its args native and in placeholder order,
// when that emission breaks its dialect's contract, or when the decoded
// rows are not the seed — so the soak, which has no reference, still
// catches a lossy decode. Not safe for concurrent use: the fake answers
// in FIFO order.
func FakeRemote(m *core.Middleware, dialect string) (Runner, error) {
	b, fake, err := backend.For("fake-" + dialect)
	if err != nil {
		return Runner{}, err
	}
	ref := SessionQuery(m)
	stmts := newStmtCache(m)
	return Runner{Name: b.Name(), Close: func() { _ = b.Close() },
		Run: func(ctx context.Context, md policy.Metadata, sql string, _ int) (Result, error) {
			seed, err := ref.Run(ctx, md, sql, -1)
			if err != nil {
				return Result{}, err
			}
			st, err := stmts.get(sql)
			if err != nil {
				return Result{}, err
			}
			sess := m.NewSession(md)
			em, err := st.EmitSQL(sess, dialect)
			if err != nil {
				return Result{}, err
			}
			if err := emissionContract(st, sess, em); err != nil {
				return Result{}, err
			}
			fake.Push(backendtest.ResultFromRows(seed.Cols, seed.Rows))
			raw, err := b.Query(ctx, em, nil)
			if err != nil {
				return Result{}, err
			}
			rows := backend.TypedRows(raw, columnKinds(seed))
			defer rows.Close()
			res := Result{Cols: rows.Columns()}
			for rows.Next() {
				res.Rows = append(res.Rows, rows.Row())
			}
			if err := rows.Err(); err != nil {
				return Result{}, err
			}
			call, _ := fake.LastCall()
			if call.SQL != em.SQL {
				return Result{}, fmt.Errorf("shipped SQL is not the emission:\nshipped %s\nemitted %s", call.SQL, em.SQL)
			}
			if len(call.Args) != len(em.Args) {
				return Result{}, fmt.Errorf("shipped %d args, the emission binds %d", len(call.Args), len(em.Args))
			}
			for i, a := range em.Args {
				if !reflect.DeepEqual(call.Args[i], driver.Value(a.Native())) {
					return Result{}, fmt.Errorf("shipped arg %d = %#v, want %#v", i+1, call.Args[i], a.Native())
				}
			}
			if err := Compare(seed, res); err != nil {
				return Result{}, fmt.Errorf("decoded rows are not the seed: %w", err)
			}
			return res, nil
		}}, nil
}

var pgArg = regexp.MustCompile(`\$\d+`)

// emissionContract is what a server of the emission's dialect needs of
// it: the rewrite carries guard provenance, each placeholder has one arg,
// the quoting is the dialect's own and no construct it lacks appears —
// and the plan's sieve form, which the embedded engine parses, re-parses
// and prints back to itself.
func emissionContract(st *core.Stmt, sess *core.Session, em *engine.Emission) error {
	rep, err := st.Report(sess)
	if err != nil {
		return err
	}
	if len(rep.GuardedCTEs) == 0 {
		return fmt.Errorf("no guard provenance for %q", st.SQL())
	}
	placeholders, banned := strings.Count(em.SQL, "?"), []string{`"`, "MINUS"}
	if em.Dialect == "postgres" {
		placeholders, banned = len(pgArg.FindAllString(em.SQL, -1)), []string{"`", "INDEX", "MINUS", "?"}
	}
	if placeholders != len(em.Args) {
		return fmt.Errorf("%s emission has %d placeholders for %d args:\n%s", em.Dialect, placeholders, len(em.Args), em.SQL)
	}
	for _, s := range banned {
		if strings.Contains(em.SQL, s) {
			return fmt.Errorf("%s emission must not contain %q:\n%s", em.Dialect, s, em.SQL)
		}
	}
	sv, err := st.EmitSQL(sess, "sieve")
	if err != nil {
		return err
	}
	back, err := sqlparser.Parse(sv.SQL)
	if err != nil {
		return fmt.Errorf("sieve emission does not re-parse: %v\n%s", err, sv.SQL)
	}
	if again := sqlparser.Print(back); again != sv.SQL {
		return fmt.Errorf("sieve emission does not print back to itself:\n%s\n%s", sv.SQL, again)
	}
	return nil
}

// Wire returns the two wire doors — a session's Query and a prepared
// statement's Query through the client package — against the sieve-server
// at baseURL. They share one wire session per querier and purpose (demo
// tokens) and one prepared statement per session and SQL text, and are
// not safe for concurrent use.
func Wire(baseURL string) (query, prepared Runner) {
	return newWireSessions(baseURL).doors()
}

// wireSessions opens client sessions and statements on first use. Not
// safe for concurrent use: each soak worker has its own.
type wireSessions struct {
	url   string
	sess  map[string]*client.Session
	stmts map[string]*client.Stmt
}

func newWireSessions(baseURL string) *wireSessions {
	return &wireSessions{url: baseURL, sess: map[string]*client.Session{}, stmts: map[string]*client.Stmt{}}
}

func (w *wireSessions) doors() (query, prepared Runner) {
	query = Runner{Name: "wire Query", Streams: true, Close: w.close,
		Run: func(ctx context.Context, md policy.Metadata, sql string, limit int) (Result, error) {
			sess, err := w.session(ctx, md)
			if err != nil {
				return Result{}, err
			}
			rows, err := sess.Query(ctx, sql)
			if err != nil {
				return Result{}, err
			}
			return readWire(rows, limit)
		}}
	prepared = Runner{Name: "wire Stmt.Query", Streams: true, Close: w.close,
		Run: func(ctx context.Context, md policy.Metadata, sql string, limit int) (Result, error) {
			st, err := w.stmt(ctx, md, sql)
			if err != nil {
				return Result{}, err
			}
			rows, err := st.Query(ctx)
			if err != nil {
				return Result{}, err
			}
			return readWire(rows, limit)
		}}
	return query, prepared
}

func (w *wireSessions) session(ctx context.Context, md policy.Metadata) (*client.Session, error) {
	token := "demo:" + md.Querier + "|" + md.Purpose
	if s, ok := w.sess[token]; ok {
		return s, nil
	}
	s, err := client.New(w.url, token).OpenSession(ctx, "")
	if err != nil {
		return nil, fmt.Errorf("open wire session for %s: %w", md.Querier, err)
	}
	w.sess[token] = s
	return s, nil
}

func (w *wireSessions) stmt(ctx context.Context, md policy.Metadata, sql string) (*client.Stmt, error) {
	key := md.Querier + "|" + md.Purpose + "|" + sql
	if st, ok := w.stmts[key]; ok {
		return st, nil
	}
	sess, err := w.session(ctx, md)
	if err != nil {
		return nil, err
	}
	st, err := sess.Prepare(ctx, sql)
	if err != nil {
		return nil, err
	}
	w.stmts[key] = st
	return st, nil
}

func (w *wireSessions) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for k, s := range w.sess {
		_ = s.Close(ctx)
		delete(w.sess, k)
	}
	clear(w.stmts)
}

// stmtCache shares prepared statements across callers: core.Stmt is
// concurrency-safe and caches one plan per guard signature, so hundreds
// of workers hitting the same SQL exercise the shared-plan path.
type stmtCache struct {
	m  *core.Middleware
	mu sync.Mutex
	st map[string]*core.Stmt
}

func newStmtCache(m *core.Middleware) *stmtCache {
	return &stmtCache{m: m, st: map[string]*core.Stmt{}}
}

func (c *stmtCache) get(sql string) (*core.Stmt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.st[sql]; ok {
		return st, nil
	}
	st, err := c.m.Prepare(sql)
	if err != nil {
		return nil, err
	}
	c.st[sql] = st
	return st, nil
}

// readEngine reads up to limit rows (limit < 0: all) and closes the
// stream.
func readEngine(rows *engine.Rows, limit int) (Result, error) {
	defer rows.Close()
	res := Result{Cols: rows.Columns()}
	for (limit < 0 || len(res.Rows) < limit) && rows.Next() {
		res.Rows = append(res.Rows, rows.Row().Clone())
	}
	return res, rows.Err()
}

// readWire reads up to limit rows (limit < 0: all), converting them back
// to engine values, and closes the stream.
func readWire(rows *client.Rows, limit int) (Result, error) {
	defer rows.Close()
	res := Result{Cols: rows.Columns()}
	for (limit < 0 || len(res.Rows) < limit) && rows.Next() {
		r := rows.Row()
		conv := make(storage.Row, len(r))
		for i, a := range r {
			conv[i] = valueFromWire(a)
		}
		res.Rows = append(res.Rows, conv)
	}
	return res, rows.Err()
}

// valueFromWire is the inverse of client.FromValue.
func valueFromWire(a any) storage.Value {
	switch x := a.(type) {
	case client.TimeOfDay:
		return storage.NewTime(int64(x))
	case client.Date:
		return storage.NewDate(int64(x))
	}
	v, _ := storage.FromNative(a)
	return v
}

// Executor is one worker's doors, indexed by op kind. OpStream's door is
// closed after Config.StreamLimit rows; every other op drains.
type Executor [numOpKinds]Runner

// ExecutorFactory builds the executor of one worker, which queries as md.
type ExecutorFactory func(md policy.Metadata) (Executor, error)

// NewInProcFactory builds executors on the middleware itself: streamed
// and drained Session queries, shared prepared statements, and a
// per-worker fake mysql backend for OpBackend.
func NewInProcFactory(m *core.Middleware) ExecutorFactory {
	prepared := StmtExecute(m)
	return func(policy.Metadata) (Executor, error) {
		fake, err := FakeRemote(m, "mysql")
		if err != nil {
			return Executor{}, err
		}
		return Executor{
			OpStream: SessionQuery(m), OpExhaust: SessionExecute(m),
			OpPrepared: prepared, OpBackend: fake,
		}, nil
	}
}

// NewWireFactory builds executors that talk to a sieve-server at baseURL,
// one wire session per worker, opened here so a server that refuses it
// fails the run's setup. Over the wire OpBackend is the rewrite endpoint:
// the emission plus its bound args, no rows.
func NewWireFactory(baseURL string) ExecutorFactory {
	return func(md policy.Metadata) (Executor, error) {
		w := newWireSessions(baseURL)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := w.session(ctx, md); err != nil {
			return Executor{}, err
		}
		query, prepared := w.doors()
		rewrite := Runner{Name: "wire Rewrite", Close: w.close,
			Run: func(ctx context.Context, md policy.Metadata, sql string, _ int) (Result, error) {
				sess, err := w.session(ctx, md)
				if err == nil {
					_, _, err = sess.Rewrite(ctx, sql, "mysql")
				}
				return Result{}, err
			}}
		return Executor{OpStream: query, OpExhaust: query, OpPrepared: prepared, OpBackend: rewrite}, nil
	}
}
