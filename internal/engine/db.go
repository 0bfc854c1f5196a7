package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// UDFContext is the state a user-defined function sees during evaluation:
// the database (so the function may probe other relations the way the
// paper's Δ UDF cursors over rP/rOC), the current tuple with its resolved
// column names, and the per-query counters.
type UDFContext struct {
	DB       *DB
	Row      storage.Row
	Columns  *RelSchema
	Counters *Counters
}

// ColumnValue returns the current tuple's value for the named column, or
// NULL when the column does not exist in scope.
func (c *UDFContext) ColumnValue(name string) storage.Value {
	if c.Columns == nil {
		return storage.Null
	}
	if i, err := c.Columns.Resolve("", name); err == nil && i < len(c.Row) {
		return c.Row[i]
	}
	return storage.Null
}

// UDF is a scalar user-defined function invoked per tuple.
type UDF func(ctx *UDFContext, args []storage.Value) (storage.Value, error)

// InsertTrigger runs after a row is inserted into a table. SIEVE uses one on
// the policy table to invalidate the guarded expressions it affects (§5.1).
type InsertTrigger func(table string, row storage.Row)

// DB is the embedded database: a catalog of tables, statistics, UDFs and
// triggers plus a query front end. One DB models one DBMS instance of the
// configured dialect.
type DB struct {
	dialect Dialect

	mu       sync.RWMutex
	tables   map[string]*storage.Table
	stats    map[string]*storage.TableStats
	udfs     map[string]UDF
	triggers map[string][]InsertTrigger
	wal      WAL // durability hook (SetWAL); nil = in-memory only

	// analyzeMu single-flights auto-analyze: when concurrent queries all
	// notice stale statistics, one rebuilds while the rest keep planning
	// with the stale (still sound) estimates.
	analyzeMu sync.Mutex

	// UDFOverheadIters simulates the per-invocation cost of a real DBMS's
	// UDF bridge (the paper's UDFinv term, §5.4). A Go closure call costs
	// nanoseconds; MySQL/PostgreSQL pay function-call and value-marshalling
	// overheads orders of magnitude larger, which is exactly the tension
	// Experiment 2.1 measures. Each invocation spins this many iterations.
	UDFOverheadIters int

	// Counters accumulate work across queries. Each query tallies into a
	// private counter set merged here when its Rows is released (on
	// exhaustion, error or Close), so concurrent sessions do not contend
	// or race on per-row updates.
	// Direct field access is only safe while no query or open Rows is
	// live; concurrent readers must use CountersSnapshot, and
	// ResetCounters likewise takes the merge lock.
	countersMu sync.Mutex
	Counters   Counters

	// ScanWorkers is the worker budget of the sequential-scan operator:
	// once a consumer has pulled past the first scanned segment, the
	// remaining segments fan out across this many goroutines. Defaults to
	// runtime.NumCPU(); values ≤ 1 keep every scan serial; values above
	// MaxScanWorkers are clamped. Set it at configuration time, before
	// queries run concurrently.
	ScanWorkers int

	// AutoAnalyzeThreshold is the number of table mutations (inserts,
	// updates, deletes, bulk-loaded rows) after which previously built
	// statistics are considered stale and rebuilt — histograms and
	// segment zone maps both — on their next planner use. 0 disables
	// auto-refresh; tables never analyzed are never auto-analyzed.
	AutoAnalyzeThreshold int

	// rowReference, when set, compiles this DB's base-table filters in
	// compileVecProgram's place. Only the test-only UseRowReference
	// (export_test.go) sets it; it is nil in every other DB.
	rowReference atomic.Pointer[func(*tableBinding) *vecProgram]

	// filterEvents, when set, sees every batch filter of this DB's
	// executions as it is taken from its pool (taken) and as it goes back,
	// cleared. Only the test-only watchFilters (export_test.go) sets it.
	filterEvents atomic.Pointer[func(f *batchFilter, taken bool)]

	// shared maps a registered conjunct's expression to its *Conjunct
	// (shared.go); sharedCompiles counts the predicates they have compiled.
	shared         sync.Map
	sharedCompiles atomic.Int64
}

// MaxScanWorkers is the per-DB cap on parallel scan fan-out, bounding
// goroutines per query regardless of configuration.
const MaxScanWorkers = 64

// DefaultAutoAnalyzeThreshold re-analyzes a table after roughly one
// segment's worth of changes — frequent enough that guard selectivity
// estimates track bulk loads, rare enough to stay off the per-query path.
const DefaultAutoAnalyzeThreshold = storage.SegmentSize

// histogramBuckets is the resolution of the per-column histograms Analyze
// builds.
const histogramBuckets = 64

// DefaultUDFOverheadIters approximates a ~1µs per-invocation UDF bridge on
// contemporary hardware, the same order as MySQL's UDF dispatch.
const DefaultUDFOverheadIters = 400

// New creates an empty database with the given dialect.
func New(dialect Dialect) *DB {
	return &DB{
		dialect:              dialect,
		tables:               make(map[string]*storage.Table),
		stats:                make(map[string]*storage.TableStats),
		udfs:                 make(map[string]UDF),
		triggers:             make(map[string][]InsertTrigger),
		UDFOverheadIters:     DefaultUDFOverheadIters,
		ScanWorkers:          runtime.NumCPU(),
		AutoAnalyzeThreshold: DefaultAutoAnalyzeThreshold,
	}
}

// EffectiveScanWorkers returns the configured worker budget clamped to
// [1, MaxScanWorkers] — the fan-out a parallel scan actually uses (further
// bounded per scan by the number of segments).
func (db *DB) EffectiveScanWorkers() int {
	w := db.ScanWorkers
	if w < 1 {
		return 1
	}
	if w > MaxScanWorkers {
		return MaxScanWorkers
	}
	return w
}

// Dialect returns the DB's dialect.
func (db *DB) Dialect() Dialect { return db.dialect }

// CreateTable registers a new table, logging the DDL when a WAL is
// attached.
func (db *DB) CreateTable(name string, schema *storage.Schema) (*storage.Table, error) {
	if w := db.walFor(name); w != nil {
		commit, err := w.AppendCreateTable(name, schema, func() error {
			if _, exists := db.Table(name); exists {
				return fmt.Errorf("engine: table %q already exists", name)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		defer commit()
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("engine: table %q already exists", name)
	}
	t := storage.NewTable(name, schema)
	db.tables[name] = t
	return t, nil
}

// Table looks up a table by name.
func (db *DB) Table(name string) (*storage.Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// MustTable returns the named table or panics; for wiring code whose tables
// were created a few lines earlier.
func (db *DB) MustTable(name string) *storage.Table {
	t, ok := db.Table(name)
	if !ok {
		panic(fmt.Sprintf("engine: no table %q", name))
	}
	return t
}

// CreateIndex builds an index on table.col, logging the DDL when a WAL is
// attached.
func (db *DB) CreateIndex(table, col string) error {
	t, ok := db.Table(table)
	if !ok {
		return fmt.Errorf("engine: no table %q", table)
	}
	if w := db.walFor(table); w != nil {
		commit, err := w.AppendCreateIndex(table, col, func() error {
			if t.Schema.ColumnIndex(col) < 0 {
				return fmt.Errorf("table %s: no column %q to index", table, col)
			}
			return nil
		})
		if err != nil {
			return err
		}
		defer commit()
	}
	_, err := t.CreateIndex(col)
	return err
}

// Insert adds a row and fires the table's insert triggers.
func (db *DB) Insert(table string, row storage.Row) error {
	_, err := db.InsertRow(table, row)
	return err
}

// InsertRow adds a row, fires the table's insert triggers, and returns
// the assigned RowID. When a WAL is attached the row is logged (and
// synced) before the heap apply: the id stays deterministic under replay
// because the log's serialisation lock is held across append+apply.
func (db *DB) InsertRow(table string, row storage.Row) (storage.RowID, error) {
	t, ok := db.Table(table)
	if !ok {
		return -1, fmt.Errorf("engine: no table %q", table)
	}
	if w := db.walFor(table); w != nil {
		commit, err := w.AppendInsert(table, row, func() error {
			if err := t.Schema.Validate(row); err != nil {
				return fmt.Errorf("table %s: %w", table, err)
			}
			return nil
		})
		if err != nil {
			return -1, err
		}
		defer commit()
	}
	id, err := t.Insert(row)
	if err != nil {
		return -1, err
	}
	db.mu.RLock()
	trs := db.triggers[table]
	db.mu.RUnlock()
	for _, tr := range trs {
		tr(table, row)
	}
	return id, nil
}

// Update replaces the row at id in place, fixing indexes; logged when a
// WAL is attached.
func (db *DB) Update(table string, id storage.RowID, row storage.Row) error {
	t, ok := db.Table(table)
	if !ok {
		return fmt.Errorf("engine: no table %q", table)
	}
	if w := db.walFor(table); w != nil {
		commit, err := w.AppendUpdate(table, id, row, func() error {
			if err := t.Schema.Validate(row); err != nil {
				return fmt.Errorf("table %s: %w", table, err)
			}
			if _, live := t.Get(id); !live {
				return fmt.Errorf("table %s: update of missing row %d", table, id)
			}
			return nil
		})
		if err != nil {
			return err
		}
		defer commit()
	}
	return t.Update(id, row)
}

// Delete tombstones the row at id; logged when a WAL is attached.
func (db *DB) Delete(table string, id storage.RowID) error {
	t, ok := db.Table(table)
	if !ok {
		return fmt.Errorf("engine: no table %q", table)
	}
	if w := db.walFor(table); w != nil {
		commit, err := w.AppendDelete(table, id, func() error {
			if _, live := t.Get(id); !live {
				return fmt.Errorf("table %s: delete of missing row %d", table, id)
			}
			return nil
		})
		if err != nil {
			return err
		}
		defer commit()
	}
	return t.Delete(id)
}

// BulkInsert loads rows without firing triggers (bulk load path); logged
// as one record when a WAL is attached.
func (db *DB) BulkInsert(table string, rows []storage.Row) error {
	t, ok := db.Table(table)
	if !ok {
		return fmt.Errorf("engine: no table %q", table)
	}
	if w := db.walFor(table); w != nil {
		commit, err := w.AppendBulkInsert(table, rows, func() error {
			for _, r := range rows {
				if err := t.Schema.Validate(r); err != nil {
					return fmt.Errorf("table %s: %w", table, err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		defer commit()
	}
	return t.BulkInsert(rows)
}

// OnInsert registers an insert trigger for a table.
func (db *DB) OnInsert(table string, tr InsertTrigger) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.triggers[table] = append(db.triggers[table], tr)
}

// RegisterUDF installs (or replaces) a scalar UDF under name.
func (db *DB) RegisterUDF(name string, fn UDF) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.udfs[name] = fn
}

// udf looks up a UDF by name.
func (db *DB) udf(name string) (UDF, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f, ok := db.udfs[name]
	return f, ok
}

// Analyze (re)builds statistics for the table over its indexed columns,
// like ANALYZE TABLE. Segment zone maps are rebuilt to exact bounds at the
// same time, so guard selectivity estimates and scan pruning track the
// same snapshot of the data.
func (db *DB) Analyze(table string) error {
	return db.analyze(table, true)
}

// analyze optionally skips the segment rebuild for callers that just
// rebuilt them (Compact builds exact metadata as part of its swap).
func (db *DB) analyze(table string, rebuildSegs bool) error {
	t, ok := db.Table(table)
	if !ok {
		return fmt.Errorf("engine: no table %q", table)
	}
	if rebuildSegs {
		t.RebuildSegments()
	}
	s := storage.Analyze(t, t.IndexedColumns(), histogramBuckets)
	db.mu.Lock()
	db.stats[table] = s
	db.mu.Unlock()
	return nil
}

// Stats returns the most recent statistics for the table; ok is false when
// Analyze has never run.
func (db *DB) Stats(table string) (*storage.TableStats, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s, ok := db.stats[table]
	return s, ok
}

// StatsRefreshed returns current statistics for the table, transparently
// re-running Analyze (histograms + zone maps) when AutoAnalyzeThreshold
// mutations have accumulated since the last build. This is the planner's
// and the middleware's entry point, keeping selectivity estimates from
// going stale after bulk loads. ok is false when Analyze has never run.
func (db *DB) StatsRefreshed(table string) (*storage.TableStats, bool) {
	s, ok := db.Stats(table)
	if !ok {
		return nil, false
	}
	if db.AutoAnalyzeThreshold <= 0 {
		return s, true
	}
	t, ok := db.Table(table)
	if !ok {
		return s, true
	}
	if t.Mutations()-s.BuiltAtMutations <= int64(db.AutoAnalyzeThreshold) {
		return s, true
	}
	// Stale: rebuild, single-flight. Losers of the TryLock keep planning
	// with the stale (still sound) statistics instead of piling K
	// concurrent O(rows) rebuilds onto the query path.
	if !db.analyzeMu.TryLock() {
		return s, true
	}
	defer db.analyzeMu.Unlock()
	if s2, ok2 := db.Stats(table); ok2 {
		s = s2 // the flight we raced may have refreshed already
	}
	if t.Mutations()-s.BuiltAtMutations <= int64(db.AutoAnalyzeThreshold) {
		return s, true
	}
	if err := db.Analyze(table); err != nil {
		return s, true
	}
	if s2, ok2 := db.Stats(table); ok2 {
		return s2, true
	}
	return s, true
}

// Compact rewrites the table's heap without tombstones (copy-on-write, so
// in-flight scans finish on the old heap) and refreshes statistics when
// the table has been analyzed before. Compact renumbers RowIDs, so it is
// WAL-logged like any other mutation: replay renumbers at the same point
// in the record stream and later update/delete records resolve against
// the same ids they were logged with.
func (db *DB) Compact(table string) error {
	t, ok := db.Table(table)
	if !ok {
		return fmt.Errorf("engine: no table %q", table)
	}
	if w := db.walFor(table); w != nil {
		commit, err := w.AppendCompact(table, func() error { return nil })
		if err != nil {
			return err
		}
		defer commit()
	}
	t.Compact()
	if _, analyzed := db.Stats(table); analyzed {
		// Compact already built exact segment metadata during its swap;
		// only the histograms need recomputing.
		return db.analyze(table, false)
	}
	return nil
}

// CountersSnapshot returns the accumulated work counters under the merge
// lock — safe while queries are running (counters of still-open queries
// are not yet included).
func (db *DB) CountersSnapshot() Counters {
	db.countersMu.Lock()
	defer db.countersMu.Unlock()
	return db.Counters
}

// ResetCounters zeroes the accumulated counters under the merge lock.
func (db *DB) ResetCounters() {
	db.countersMu.Lock()
	defer db.countersMu.Unlock()
	db.Counters.Reset()
}

// simulateUDFOverhead burns the configured per-invocation work.
func (db *DB) simulateUDFOverhead() {
	acc := 0
	for i := 0; i < db.UDFOverheadIters; i++ {
		acc += i ^ (acc << 1)
	}
	// Keep the loop from being optimised away.
	if acc == -1 {
		panic("unreachable")
	}
}

// Query parses and executes a SQL statement, materialising the result.
func (db *DB) Query(sqlText string) (*Result, error) {
	return db.QueryCtx(context.Background(), sqlText)
}

// QueryCtx parses and executes a SQL statement under ctx: cancellation or
// deadline expiry aborts the scan within ctxCheckInterval rows.
func (db *DB) QueryCtx(ctx context.Context, sqlText string) (*Result, error) {
	stmt, err := sqlparser.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	return db.QueryStmtCtx(ctx, stmt)
}

// QueryStmt executes a parsed statement, materialising the result.
func (db *DB) QueryStmt(stmt *sqlparser.SelectStmt) (*Result, error) {
	return db.QueryStmtCtx(context.Background(), stmt)
}

// QueryStmtCtx executes a parsed statement under ctx and materialises the
// result: Collect over the stream StreamStmt opens.
func (db *DB) QueryStmtCtx(ctx context.Context, stmt *sqlparser.SelectStmt) (*Result, error) {
	return Collect(db.StreamStmt(ctx, stmt))
}

// Stream parses and opens a SQL statement as a streaming result.
func (db *DB) Stream(ctx context.Context, sqlText string) (*Rows, error) {
	stmt, err := sqlparser.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	return db.StreamStmt(ctx, stmt)
}

// StreamStmt opens a parsed statement as a streaming result: tuples are
// produced as Rows.Next is called, ctx is polled every ctxCheckInterval
// rows, and closing the Rows early releases the underlying scans.
func (db *DB) StreamStmt(ctx context.Context, stmt *sqlparser.SelectStmt) (*Rows, error) {
	return db.Prepare(stmt).Stream(ctx)
}
