// Package server is the stand-alone deployment of the SIEVE middleware:
// a policy-enforcing proxy speaking a versioned HTTP/JSON protocol. The
// paper positions SIEVE between applications and an unmodified DBMS
// (§5.3); this package gives that position a network address. Clients
// authenticate with bearer tokens that resolve to query metadata
// (querier, purpose), open sessions mapping onto core.Session, and run
// queries whose results stream back as NDJSON — so enforcement, guard
// selection, and the Δ operator all happen server-side while the client
// stays a thin protocol wrapper (see the top-level client package).
//
// Endpoints (all under /v1 except the operational pair):
//
//	POST   /v1/sessions                    open a session
//	DELETE /v1/sessions/{id}               close it
//	POST   /v1/sessions/{id}/query         run SQL, stream rows (NDJSON)
//	POST   /v1/sessions/{id}/rewrite       rewrite only, no execution
//	POST   /v1/sessions/{id}/prepare       server-side prepared statement
//	POST   /v1/sessions/{id}/stmts/{sid}/query
//	DELETE /v1/sessions/{id}/stmts/{sid}
//	POST   /v1/policies                    add a policy (admin)
//	DELETE /v1/policies/{id}               revoke one (admin)
//	POST   /v1/tables/{table}/rows         insert a row (admin)
//	PUT    /v1/tables/{table}/rows/{id}    update a row in place (admin)
//	DELETE /v1/tables/{table}/rows/{id}    delete a row (admin)
//	GET    /healthz                        liveness (503 while draining)
//	GET    /metrics                        counters and histograms, Prometheus text
//
// Server-side prepared statements reuse core.Stmt, so the parse and the
// policy rewrite are cached per policy-set signature: queriers sharing a
// policy profile share one rewritten plan, and a policy added through
// POST /v1/policies invalidates only the plans whose signature it
// touched — every other tenant's prepared statements keep their plans,
// and the affected ones re-rewrite transparently on their next
// execution, with no reconnect.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/policy"
)

// Config assembles a Server. Middleware is the only mandatory field.
type Config struct {
	// Middleware enforces the policies; its embedded engine holds the
	// data.
	Middleware *core.Middleware
	// Tokens maps bearer tokens to principals (see ParseTokens).
	Tokens map[string]Principal
	// AllowDemoTokens additionally accepts `demo:<querier>[|<purpose>][|admin]`
	// bearer tokens — identity assertion for demos and tests only. The
	// separator is "|" because queriers may contain ":".
	AllowDemoTokens bool
	// MaxSessionsPerTenant caps concurrently open sessions per querier
	// (0 = unlimited). The 429 a capped tenant gets names the limit.
	MaxSessionsPerTenant int
	// MaxConcurrentQueries caps queries executing at once across all
	// sessions (0 = unlimited); excess requests wait, bounded by their
	// own context.
	MaxConcurrentQueries int
	// RequestTimeout bounds one query's execution, including streaming
	// its rows (0 = unbounded). Cancellation propagates into the engine
	// scan through the request context.
	RequestTimeout time.Duration
	// Logger receives one structured line per request; nil discards.
	Logger *slog.Logger
	// Registry receives the server's metrics (GET /metrics). Nil gets a
	// private registry; share one to merge in external families (the
	// WAL manager's gauges and histograms).
	Registry *obs.Registry
	// SlowQuery, when positive, logs a structured line with a per-phase
	// duration breakdown for every query at least this slow. Setting it
	// traces every query (the breakdown needs the span tree), which
	// costs a few time.Now calls per phase.
	SlowQuery time.Duration
}

// Server is the middleware with a listener in front. Create with New,
// mount Handler on any http.Server, or use Serve + Shutdown for the
// managed lifecycle.
type Server struct {
	cfg Config
	m   *core.Middleware
	mux *http.ServeMux
	log *slog.Logger

	// queryGate bounds concurrent query execution when configured.
	queryGate chan struct{}

	// draining rejects new work while Shutdown waits for in-flight
	// requests; /healthz flips to 503 so load balancers stop routing.
	draining atomic.Bool

	mu        sync.Mutex
	sessions  map[string]*liveSession
	perTenant map[string]int

	httpSrv *http.Server

	reg *obs.Registry
	met serverMetrics
}

// liveSession is one open wire session: the principal it authenticated
// as, the core session carrying its metadata, and its server-side
// prepared statements. stmts is guarded by mu; the core session itself is
// safe for the concurrent queries a client may multiplex.
type liveSession struct {
	id   string
	prin Principal
	sess *core.Session

	mu       sync.Mutex
	stmts    map[string]*core.Stmt
	nextStmt int
}

// New builds a Server. The handler is ready immediately; Serve adds the
// managed listener lifecycle.
func New(cfg Config) (*Server, error) {
	if cfg.Middleware == nil {
		return nil, fmt.Errorf("server: Config.Middleware is required")
	}
	if cfg.Tokens == nil && !cfg.AllowDemoTokens {
		return nil, fmt.Errorf("server: no authentication configured (set Tokens or AllowDemoTokens)")
	}
	s := &Server{
		cfg:       cfg,
		m:         cfg.Middleware,
		log:       cfg.Logger,
		reg:       cfg.Registry,
		sessions:  make(map[string]*liveSession),
		perTenant: make(map[string]int),
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.met = newServerMetrics(s.reg)
	s.registerBridges()
	obs.RegisterRuntimeGauges(s.reg)
	if cfg.MaxConcurrentQueries > 0 {
		s.queryGate = make(chan struct{}, cfg.MaxConcurrentQueries)
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Handler returns the server's routed handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown (or a listener error).
// The returned error is nil after a clean Shutdown.
func (s *Server) Serve(l net.Listener) error {
	hs := &http.Server{Handler: s.mux}
	s.mu.Lock()
	s.httpSrv = hs
	s.mu.Unlock()
	err := hs.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains the server: new sessions and queries are rejected with
// 503, /healthz reports draining, and in-flight requests — including row
// streams — get until ctx's deadline to finish before the remaining
// connections are closed. Safe to call without a Serve in flight (tests
// mounting Handler directly); then it only flips the draining state.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	hs := s.httpSrv
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	if err := hs.Shutdown(ctx); err != nil {
		// Deadline passed with streams still open: cut them.
		_ = hs.Close()
		return err
	}
	return nil
}

// randomHex returns 16 hex digits of crypto randomness — the shape of
// both session ids and request ids.
func randomHex() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: crypto/rand unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// newSessionID returns a 16-hex-digit random session id. Randomness here
// is capability-like: ids are bearer references within an authenticated
// token's scope, not secrets, but guessing another tenant's id must not
// be trivial.
func newSessionID() string { return randomHex() }

// Registry returns the server's metrics registry, for callers that want
// to add families of their own next to the server's.
func (s *Server) Registry() *obs.Registry { return s.reg }

// errSessionLimit is openSession's per-tenant cap rejection: the one failure
// that is the server's state (429), not the request's fault (400).
var errSessionLimit = errors.New("per-tenant session limit reached")

// openSession registers a live session for prin, enforcing the per-tenant
// cap. The error is user-facing.
func (s *Server) openSession(prin Principal, purpose string) (*liveSession, error) {
	if prin.Purpose != "" && purpose != "" && purpose != prin.Purpose {
		return nil, fmt.Errorf("token pins purpose %q; cannot open a session for %q", prin.Purpose, purpose)
	}
	if purpose == "" {
		purpose = prin.Purpose
	}
	if purpose == "" {
		return nil, fmt.Errorf("no purpose: token pins none and the request names none")
	}
	ls := &liveSession{
		id:    newSessionID(),
		prin:  prin,
		sess:  s.m.NewSession(policy.Metadata{Querier: prin.Querier, Purpose: purpose}),
		stmts: make(map[string]*core.Stmt),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if lim := s.cfg.MaxSessionsPerTenant; lim > 0 && s.perTenant[prin.Querier] >= lim {
		return nil, fmt.Errorf("querier %q already has %d open sessions: %w", prin.Querier, lim, errSessionLimit)
	}
	s.sessions[ls.id] = ls
	s.perTenant[prin.Querier]++
	s.met.SessionsOpened.Add(1)
	s.met.SessionsOpen.Add(1)
	return ls, nil
}

// lookupSession resolves a session id for the authenticated principal.
// A live id under a different querier is reported exactly like a missing
// one, so ids cannot be probed across tenants.
func (s *Server) lookupSession(id string, prin Principal) (*liveSession, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls, ok := s.sessions[id]
	if !ok || ls.prin.Querier != prin.Querier {
		return nil, false
	}
	return ls, true
}

// closeSession drops a session and its prepared statements.
func (s *Server) closeSession(ls *liveSession) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[ls.id]; !ok {
		return
	}
	delete(s.sessions, ls.id)
	if s.perTenant[ls.prin.Querier]--; s.perTenant[ls.prin.Querier] <= 0 {
		delete(s.perTenant, ls.prin.Querier)
	}
	s.met.SessionsOpen.Add(-1)
}

// prepare registers a prepared statement under the session and returns
// its id.
func (ls *liveSession) prepare(st *core.Stmt) string {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.nextStmt++
	id := fmt.Sprintf("s%d", ls.nextStmt)
	ls.stmts[id] = st
	return id
}

// stmt resolves a prepared-statement id.
func (ls *liveSession) stmt(id string) (*core.Stmt, bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	st, ok := ls.stmts[id]
	return st, ok
}

// dropStmt deallocates a prepared statement; ok is false if the id is
// unknown.
func (ls *liveSession) dropStmt(id string) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if _, ok := ls.stmts[id]; !ok {
		return false
	}
	delete(ls.stmts, id)
	return true
}

// acquireQuerySlot honours MaxConcurrentQueries, waiting within ctx.
// release is non-nil exactly when ok.
func (s *Server) acquireQuerySlot(ctx context.Context) (release func(), ok bool) {
	if s.queryGate == nil {
		return func() {}, true
	}
	select {
	case s.queryGate <- struct{}{}:
		return func() { <-s.queryGate }, true
	case <-ctx.Done():
		return nil, false
	}
}
