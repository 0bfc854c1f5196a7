// Package engine implements the embedded relational engine SIEVE is layered
// on. It plays the role MySQL and PostgreSQL play in the paper: it parses
// the SQL SIEVE emits, plans access paths (honouring or ignoring index usage
// hints depending on the dialect), executes joins/aggregations/set
// operations, exposes EXPLAIN to the middleware (§5.5), runs UDFs (the Δ
// operator, §5.2), and fires insert triggers (guard invalidation, §5.1).
// Its dialect layer also runs the other direction: Emitter implementations
// (emit.go) serialize the rewritten AST into executable SQL for a *real*
// MySQL or PostgreSQL — quoting, placeholders with bound args, and
// dialect-specific guard framing — so the middleware can front an external
// DBMS as deployed in the paper.
package engine

// Dialect captures the DBMS feature differences the paper exploits (§5.3,
// Experiment 4): MySQL honours FORCE INDEX/USE INDEX hints but cannot
// OR-combine index scans; PostgreSQL ignores hints but combines multiple
// index scans through an in-memory bitmap.
type Dialect interface {
	// Name identifies the dialect in EXPLAIN output and experiment tables.
	Name() string
	// HonorsIndexHints reports whether FORCE INDEX / USE INDEX () hints
	// override the optimizer's access-path choice.
	HonorsIndexHints() bool
	// SupportsBitmapOr reports whether the planner may satisfy a disjunction
	// by OR-ing several index scans through an in-memory bitmap
	// (PostgreSQL's bitmap heap scan).
	SupportsBitmapOr() bool
}

type mysqlDialect struct{}

func (mysqlDialect) Name() string           { return "mysql" }
func (mysqlDialect) HonorsIndexHints() bool { return true }
func (mysqlDialect) SupportsBitmapOr() bool { return false }

type postgresDialect struct{}

func (postgresDialect) Name() string           { return "postgres" }
func (postgresDialect) HonorsIndexHints() bool { return false }
func (postgresDialect) SupportsBitmapOr() bool { return true }

// MySQL returns the hint-honouring dialect (no bitmap OR).
func MySQL() Dialect { return mysqlDialect{} }

// Postgres returns the hint-ignoring, bitmap-OR-capable dialect.
func Postgres() Dialect { return postgresDialect{} }

// Counters accumulate the engine's observable work. SIEVE's experiments use
// them to explain *why* a strategy wins (tuples read, policies evaluated,
// UDF invocations), complementing wall-clock time. Counters are owned by a
// single query execution at a time; they are not safe for concurrent use.
type Counters struct {
	TuplesRead      int64 // heap tuples fetched (seq or via index)
	IndexLookups    int64 // index probe operations
	SeqScans        int64 // sequential scans started
	IndexScans      int64 // index scans started
	BitmapOrScans   int64 // bitmap OR scans started
	ParallelScans   int64 // sequential scans executed by the parallel operator
	SegmentsScanned int64 // segments whose tuples were read by a seq scan
	SegmentsPruned  int64 // segments skipped entirely via their zone maps
	// OwnerDictPruned is always 0: nothing writes it. The field and its
	// line in Add stay only because benchmark/traced.go reads it and only
	// a [benchmark] PR may edit that module (see ROADMAP).
	OwnerDictPruned int64
	// BatchesVectorised counts segment batches whose filter ran on the
	// vectorised evaluator (column-at-a-time over storage.Batch vectors);
	// RowsVectorised counts the rows those batches held. Row-at-a-time
	// fallback scans contribute to neither.
	BatchesVectorised int64
	RowsVectorised    int64
	UDFInvocations    int64 // user-defined function calls
	PolicyEvals       int64 // policy object-condition set evaluations (set by UDFs)
	// Rewrite-layer cache effectiveness, seeded by the middleware into
	// every query it opens (Rows.AddCounters) — a materialising door
	// drains that same Rows, so every door adds them:
	// GuardCacheHits/GuardCacheMisses count protected-relation guard-state
	// resolutions served from a valid cached claim vs. recomputed;
	// PlanCacheHits/PlanCacheMisses count prepared-statement plan-token
	// lookups. They describe work *avoided* before execution started, not
	// engine work.
	GuardCacheHits   int64
	GuardCacheMisses int64
	PlanCacheHits    int64
	PlanCacheMisses  int64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.TuplesRead += other.TuplesRead
	c.IndexLookups += other.IndexLookups
	c.SeqScans += other.SeqScans
	c.IndexScans += other.IndexScans
	c.BitmapOrScans += other.BitmapOrScans
	c.ParallelScans += other.ParallelScans
	c.SegmentsScanned += other.SegmentsScanned
	c.SegmentsPruned += other.SegmentsPruned
	c.OwnerDictPruned += other.OwnerDictPruned
	c.BatchesVectorised += other.BatchesVectorised
	c.RowsVectorised += other.RowsVectorised
	c.UDFInvocations += other.UDFInvocations
	c.PolicyEvals += other.PolicyEvals
	c.GuardCacheHits += other.GuardCacheHits
	c.GuardCacheMisses += other.GuardCacheMisses
	c.PlanCacheHits += other.PlanCacheHits
	c.PlanCacheMisses += other.PlanCacheMisses
}

// Reset zeroes the counters.
func (c *Counters) Reset() { *c = Counters{} }
