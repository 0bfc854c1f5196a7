// Package sieve is a middleware for scalable fine-grained access control
// over relational data, implementing the system of Pappachan, Yus,
// Mehrotra and Freytag, "SIEVE: A Middleware Approach to Scalable Access
// Control for Database Management Systems" (VLDB 2020, arXiv:2004.07498).
//
// SIEVE enforces large corpora of tuple-level allow policies at query time.
// Instead of appending thousands of policy predicates to the WHERE clause,
// it (1) filters the corpus by query metadata — who is asking, for what
// purpose —, (2) factors the surviving policies into guarded expressions
// whose guards are cheap index-backed predicates, and (3) evaluates large
// policy partitions through a Δ operator UDF that prunes policies by tuple
// context. A cost model picks, per query and per table, among a
// linear scan, an index scan on the query's own predicate, or index scans
// on the guards.
//
// The package embeds its own relational engine (see internal/engine) with
// two dialects reproducing the DBMS features SIEVE exploits: "mysql"
// honours FORCE INDEX/USE INDEX hints; "postgres" ignores hints but
// OR-combines index scans through bitmaps.
//
// Queries run through three types: a Session binds who is asking and for
// what purpose (plus that querier's group resolution) once; a Stmt is a
// prepared query whose parse and policy rewrite are cached and
// invalidated by policy changes; Rows streams results tuple-at-a-time
// with context cancellation and early Close. A minimal session:
//
//	db := sieve.NewDB(sieve.MySQL())
//	// ... create tables, load data, create indexes ...
//	store, _ := sieve.NewStore(db)
//	m, _ := sieve.New(store)
//	m.Protect("WiFi_Dataset")
//	store.Insert(&sieve.Policy{
//		Owner: 120, Querier: "Prof. Smith", Purpose: "Attendance",
//		Relation: "WiFi_Dataset", Action: sieve.Allow,
//		Conditions: []sieve.ObjectCondition{
//			sieve.RangeClosed("ts_time", sieve.Time("09:00"), sieve.Time("10:00")),
//			sieve.Compare("wifiAP", sieve.Eq, sieve.Int(1200)),
//		},
//	})
//	sess := m.NewSession(sieve.Metadata{Querier: "Prof. Smith", Purpose: "Attendance"})
//	rows, _ := sess.Query(ctx, "SELECT * FROM WiFi_Dataset")
//	defer rows.Close()
//	for rows.Next() {
//		r := rows.Row()
//		// ... r is visible to Prof. Smith under the policy corpus ...
//	}
//
// Repeated queries should be prepared once and executed per session:
//
//	stmt, _ := m.Prepare("SELECT * FROM WiFi_Dataset")
//	rows, _ := stmt.Query(ctx, sess) // parse + rewrite amortised
//
// The middleware can also front an external DBMS, the paper's deployment
// mode: Session.RewriteSQL (and Stmt.EmitSQL, cached per dialect) emit the
// rewritten statement as executable MySQL or PostgreSQL — quoted
// identifiers, "?" or "$n" placeholders with a bound-args list, and
// dialect-specific guard framing (MySQL UNION-per-guard with USE INDEX,
// PostgreSQL OR-of-ANDs for its bitmap-OR scan):
//
//	em, _ := sess.RewriteSQL("SELECT * FROM WiFi_Dataset", "postgres")
//	// em.SQL: WITH "WiFi_Dataset_sieve" AS (... WHERE ... $1 ... $2 ...) ...
//	// em.Args: the constants the placeholders bind
//
// Emissions execute on a RemoteBackend (docs/backends.md), which ships
// mysql/postgres emissions over any *sql.DB with args bound as
// driver-native values and rows decoded back. The inverse
// integration is the sievesql subpackage, which registers SIEVE as a
// standard database/sql driver:
//
//	sievesql.SetDefault(m)
//	db, _ := sql.Open("sieve", "querier=Prof. Smith&purpose=Attendance")
package sieve

import (
	"github.com/sieve-db/sieve/internal/backend"
	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/guard"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
	"github.com/sieve-db/sieve/internal/wal"
)

// Core re-exported types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// DB is the embedded relational engine instance SIEVE is layered on.
	DB = engine.DB
	// Dialect selects the engine's feature profile (MySQL or Postgres).
	Dialect = engine.Dialect
	// Result is a materialised query result.
	Result = engine.Result
	// Explain summarises the engine's plan for a statement.
	Explain = engine.Explain
	// Counters expose the engine's work counters.
	Counters = engine.Counters
	// Emitter serializes a rewritten statement into executable SQL for one
	// backend dialect ("sieve", "mysql", "postgres").
	Emitter = engine.Emitter
	// Emission is one rendered statement: SQL plus its bound-args list.
	Emission = engine.Emission
	// EmitOption configures an emitter (e.g. WithProvenanceComments).
	EmitOption = engine.EmitOption
	// GuardedCTE is the per-CTE guard provenance emitters frame per dialect.
	GuardedCTE = engine.GuardedCTE
	// GuardArm is one arm of a guarded disjunction.
	GuardArm = engine.GuardArm

	// Session binds query metadata (querier, purpose, group resolution)
	// once; it is the unit of per-user state. Create with
	// Middleware.NewSession. Any number of Sessions may share one
	// Middleware concurrently.
	Session = core.Session
	// Stmt is a prepared query: parsed once via Middleware.Prepare, its
	// rewritten plan cached per (querier, purpose) and invalidated by
	// policy inserts and revocations.
	Stmt = core.Stmt
	// Rows is a streaming query result with Next/Scan/Close; rows are
	// produced tuple-at-a-time and a context governs the scan.
	Rows = engine.Rows

	// Middleware is a SIEVE instance.
	Middleware = core.Middleware
	// Option configures a Middleware.
	Option = core.Option
	// Report describes one rewrite: per-table decisions and guard provenance.
	Report = core.Report
	// TableDecision is the per-table strategy choice of a rewrite.
	TableDecision = core.TableDecision
	// Strategy is a §5.5 execution strategy.
	Strategy = core.Strategy
	// BaselineKind selects one of the paper's baseline strategies.
	BaselineKind = core.BaselineKind
	// CacheStats snapshots the middleware's guard/plan cache
	// effectiveness: signature-cache hits and misses, guard
	// generations vs. shared bindings, live states and claims, and
	// scoped-invalidation churn.
	CacheStats = core.CacheStats

	// Store persists policies in the engine (rP/rOC).
	Store = policy.Store
	// Policy is one fine-grained access-control policy.
	Policy = policy.Policy
	// ObjectCondition is one conjunct of a policy's object conditions.
	ObjectCondition = policy.ObjectCondition
	// Metadata is query metadata: querier identity and purpose.
	Metadata = policy.Metadata
	// Groups resolves querier group memberships.
	Groups = policy.Groups
	// StaticGroups is a map-backed Groups.
	StaticGroups = policy.StaticGroups
	// Action is a policy action (Allow; Deny is factored away).
	Action = policy.Action

	// CostModel carries the guard cost-model constants.
	CostModel = guard.CostModel
	// GuardedExpression is a generated G(P) for one querier/purpose/relation.
	GuardedExpression = guard.GuardedExpression
	// Guard is one guarded expression Gi = oc_g ∧ PG_i.
	Guard = guard.Guard

	// Value is the engine's typed scalar.
	Value = storage.Value
	// Row is one tuple.
	Row = storage.Row
	// Schema describes a relation's columns.
	Schema = storage.Schema
	// Column is one schema column.
	Column = storage.Column
	// Kind is a scalar type tag.
	Kind = storage.Kind

	// CmpOp is a comparison operator in conditions.
	CmpOp = sqlparser.CmpOp

	// Backend executes emitted statements against one execution target:
	// any database/sql pool fronting a real server (RemoteBackend).
	Backend = backend.Backend
	// BackendRows is a streaming result decoded from a backend.
	BackendRows = backend.Rows
	// BackendCounters are one backend's wire-level work tallies.
	BackendCounters = backend.Counters
	// RemoteOption configures a RemoteBackend (e.g. WithDeltaHelper).
	RemoteOption = backend.RemoteOption
)

// Dialect constructors.
var (
	// MySQL returns the hint-honouring dialect.
	MySQL = engine.MySQL
	// Postgres returns the bitmap-OR dialect that ignores hints.
	Postgres = engine.Postgres
)

// SQL emitters: they serialize the rewritten AST into executable SQL for
// an external backend (Session.RewriteSQL and Stmt.EmitSQL are the usual
// entry points; these constructors serve direct use).
var (
	// SieveEmitter emits the internal round-trip dialect.
	SieveEmitter = engine.SieveEmitter
	// MySQLEmitter emits MySQL: backticks, "?" placeholders, UNION-per-guard.
	MySQLEmitter = engine.MySQLEmitter
	// PostgresEmitter emits PostgreSQL: double quotes, "$n" placeholders,
	// OR-of-ANDs for BitmapOr.
	PostgresEmitter = engine.PostgresEmitter
	// EmitterFor resolves a dialect name to its emitter.
	EmitterFor = engine.EmitterFor
	// WithProvenanceComments embeds /* sieve */ guard provenance in emitted
	// CTEs.
	WithProvenanceComments = engine.WithProvenanceComments
)

// Execution backends: they run emitted SQL somewhere — the middleware's
// data path to an actual DBMS (docs/backends.md). The sievesql package is
// the inverse door: it exposes SIEVE itself as a database/sql driver.
var (
	// RemoteBackend ships mysql/postgres emissions over any *sql.DB.
	RemoteBackend = backend.NewRemote
	// WithDeltaHelper declares the sieve_delta helper installed on a
	// remote server, letting Δ-bearing emissions through.
	WithDeltaHelper = backend.WithDeltaHelper
	// BackendQuery rewrites sql under a session for a backend's dialect
	// and ships the emission in one call.
	BackendQuery = backend.SessionQuery
	// BackendStmtQuery runs a prepared statement on a backend from its
	// cached per-dialect emission.
	BackendStmtQuery = backend.StmtQuery
	// BackendTypedRows re-types decoded rows to expected column kinds.
	BackendTypedRows = backend.TypedRows
)

// Durability: the write-ahead log + snapshot subsystem that makes an
// embedded deployment survive crashes (docs/durability.md). Wire it with
// DB.SetWAL, Store.SetDurability and Middleware.SetDurability after
// Manager.Start; cmd/sieve-server's -data-dir flag does all of this.
type (
	// WALManager owns one durability directory: the active log segment,
	// snapshots, and crash recovery.
	WALManager = wal.Manager
	// WALOptions configures a WALManager (sync policy, segment size,
	// checkpoint cadence).
	WALOptions = wal.Options
	// WALRecovered reports what a recovery restored and replayed.
	WALRecovered = wal.Recovered
	// WALSyncPolicy selects when appends reach stable storage.
	WALSyncPolicy = wal.SyncPolicy
)

var (
	// OpenWAL prepares a durability manager over a data directory.
	OpenWAL = wal.Open
	// ParseWALSyncPolicy maps the textual policies always|interval|none.
	ParseWALSyncPolicy = wal.ParseSyncPolicy
)

// WAL sync policies.
const (
	// WALSyncAlways fsyncs every append before it is acknowledged.
	WALSyncAlways = wal.SyncAlways
	// WALSyncInterval fsyncs on a background ticker.
	WALSyncInterval = wal.SyncInterval
	// WALSyncNever leaves flushing to the OS page cache.
	WALSyncNever = wal.SyncNever
)

// NewDB creates an empty embedded database.
func NewDB(d Dialect) *DB { return engine.New(d) }

// NewStore creates (or reattaches to) the policy relations in db.
func NewStore(db *DB) (*Store, error) { return policy.NewStore(db) }

// New builds a SIEVE middleware over a policy store's database. Its guard
// cache lives in process: a middleware attached to an existing database
// generates each guarded expression from rP on the first query that needs
// it, as after a crash recovery.
func New(store *Store, opts ...Option) (*Middleware, error) { return core.New(store, opts...) }

// Middleware options.
var (
	// WithGroups supplies the group-membership resolver.
	WithGroups = core.WithGroups
	// WithDeltaThreshold overrides the Inline-vs-Δ partition threshold.
	WithDeltaThreshold = core.WithDeltaThreshold
	// WithForcedStrategy pins the §5.5 strategy (ablations).
	WithForcedStrategy = core.WithForcedStrategy
)

// Policy actions.
const (
	// Allow grants access; the enforcement default is deny.
	Allow = policy.Allow
	// Deny policies are folded into allows with FactorDeny.
	Deny = policy.Deny
	// AnyPurpose matches every query purpose.
	AnyPurpose = policy.AnyPurpose
	// AnyQuerier (deny policies only) applies to every querier.
	AnyQuerier = policy.AnyQuerier
	// OwnerAttr is the mandatory indexed owner attribute of protected
	// relations.
	OwnerAttr = policy.OwnerAttr
)

// Baselines (for comparative evaluation).
const (
	BaselineP = core.BaselineP
	BaselineI = core.BaselineI
	BaselineU = core.BaselineU
)

// Strategies.
const (
	LinearScan  = core.LinearScan
	IndexQuery  = core.IndexQuery
	IndexGuards = core.IndexGuards
)

// Comparison operators for Compare and DerivedValue conditions.
const (
	Eq = sqlparser.CmpEq
	Ne = sqlparser.CmpNe
	Lt = sqlparser.CmpLt
	Le = sqlparser.CmpLe
	Gt = sqlparser.CmpGt
	Ge = sqlparser.CmpGe
)

// Scalar type tags for schema definitions.
const (
	KindInt    = storage.KindInt
	KindFloat  = storage.KindFloat
	KindString = storage.KindString
	KindBool   = storage.KindBool
	KindTime   = storage.KindTime
	KindDate   = storage.KindDate
)

// Value constructors.

// Int returns an INT value.
func Int(v int64) Value { return storage.NewInt(v) }

// Float returns a FLOAT value.
func Float(v float64) Value { return storage.NewFloat(v) }

// Str returns a VARCHAR value.
func Str(v string) Value { return storage.NewString(v) }

// Bool returns a BOOL value.
func Bool(v bool) Value { return storage.NewBool(v) }

// Time parses "HH:MM[:SS]" into a TIME value; it panics on malformed input
// (intended for literals).
func Time(s string) Value { return storage.MustTime(s) }

// DateOf parses "YYYY-MM-DD" into a DATE value; it panics on malformed
// input (intended for literals).
func DateOf(s string) Value { return storage.MustDate(s) }

// NewSchema builds a relation schema.
func NewSchema(cols ...Column) (*Schema, error) { return storage.NewSchema(cols...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(cols ...Column) *Schema { return storage.MustSchema(cols...) }

// Condition constructors.
var (
	// Compare builds attr op constant.
	Compare = policy.Compare
	// RangeClosed builds lo ≤ attr ≤ hi.
	RangeClosed = policy.RangeClosed
	// In builds attr IN (values…).
	In = policy.In
	// NotIn builds attr NOT IN (values…).
	NotIn = policy.NotIn
	// DerivedValue builds attr op (SELECT …), evaluated per tuple.
	DerivedValue = policy.DerivedValue
	// FactorDeny folds deny policies into the allow set (§3.1).
	FactorDeny = policy.FactorDeny
)
