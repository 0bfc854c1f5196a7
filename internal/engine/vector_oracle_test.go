// Package engine_test holds the differential oracle for the base-table
// filter: the full middleware stack (rewrite, guards, Δ, strategy choice) is
// run over the workload corpus twice — once on the production path, whose
// sequential scans and index fetch lists run compiled vector programs, once
// with both filtering through rowPasses (DB.UseRowReference, the
// test-only seam in export_test.go) — and the two executions must agree row
// for row and counter for counter. The oracle is what licenses compiled
// programs to be the only filter base tables have: any semantic drift from
// the row evaluator, in three-valued logic, in short-circuit-driven UDF
// invocation counts, in owner-keyed dispatch, or in segment pruning, fails
// it.
package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/loadgen"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
	"github.com/sieve-db/sieve/internal/workload"
)

// oracleEnv is one fully built middleware stack; rowRef makes its counted
// queries run with the rowPasses reference installed.
type oracleEnv struct {
	db     *engine.DB
	campus *workload.Campus // nil for the mall
	corpus []workload.NamedQuery
	m      *core.Middleware
	ps     []*policy.Policy
	rowRef bool
}

// buildOracleEnv constructs a campus with many small segments (so pruning,
// batching and the parallel operator all engage) and the standard policy
// corpus. Both oracle sides call it with the same seed-determined inputs;
// only rowRef differs.
func buildOracleEnv(t *testing.T, rowRef bool, opts ...core.Option) *oracleEnv {
	t.Helper()
	cfg := workload.TestCampusConfig()
	c, err := workload.BuildCampus(cfg, engine.MySQL())
	if err != nil {
		t.Fatal(err)
	}
	c.DB.UDFOverheadIters = 0
	ps := c.GeneratePolicies(workload.TestPolicyConfig())
	store, err := policy.NewStore(c.DB)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.BulkLoad(ps); err != nil {
		t.Fatal(err)
	}
	opts = append([]core.Option{core.WithGroups(c.Groups())}, opts...)
	m, err := core.New(store, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(workload.TableWiFi); err != nil {
		t.Fatal(err)
	}
	// Shrink the segment granule so the test corpus spans many segments.
	c.DB.MustTable(workload.TableWiFi).SetSegmentSize(256)
	return &oracleEnv{db: c.DB, campus: c, corpus: c.CorpusQueries(), m: m, ps: ps, rowRef: rowRef}
}

// buildMallOracleEnv is buildOracleEnv over the mall corpus: shops query
// their customers' connectivity, purpose "marketing".
func buildMallOracleEnv(t *testing.T, rowRef bool) *oracleEnv {
	t.Helper()
	ml, err := workload.BuildMall(workload.TestMallConfig(), engine.MySQL())
	if err != nil {
		t.Fatal(err)
	}
	ml.DB.UDFOverheadIters = 0
	ps := ml.GeneratePolicies(ml.Cfg.Seed+1, 3)
	store, err := policy.NewStore(ml.DB)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.BulkLoad(ps); err != nil {
		t.Fatal(err)
	}
	m, err := core.New(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(workload.TableMallWiFi); err != nil {
		t.Fatal(err)
	}
	ml.DB.MustTable(workload.TableMallWiFi).SetSegmentSize(256)
	return &oracleEnv{db: ml.DB, corpus: ml.CorpusQueries(), m: m, ps: ps, rowRef: rowRef}
}

// counted makes d carry the engine's work counters: zeroed before each
// query and read after it, on the reference filter when rowRef is set.
// Counters are exact only for drained scans: one a LIMIT cuts short has
// read ahead by however far the fan-out's workers got, so such queries
// run on one goroutine. Every counted run is reported to seen.
func (e *oracleEnv) counted(d loadgen.Runner, seen func(engine.Counters)) loadgen.Runner {
	run := d.Run
	d.Run = func(ctx context.Context, md policy.Metadata, sql string, limit int) (loadgen.Result, error) {
		if e.rowRef {
			defer e.db.UseRowReference()()
		}
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			return loadgen.Result{}, err
		}
		if b := stmt.Body; b.Limit >= 0 && len(b.OrderBy) == 0 && len(b.GroupBy) == 0 {
			defer func(w int) { e.db.ScanWorkers = w }(e.db.ScanWorkers)
			e.db.ScanWorkers = 1
		}
		e.db.ResetCounters()
		res, err := run(ctx, md, sql, limit)
		c := e.db.CountersSnapshot()
		res.Counters = &c
		seen(c)
		return res, err
	}
	return d
}

// randomGuardQueries generates deterministic guard-shaped probes beyond
// the corpus: OR-of-AND disjunctions over owner / wifiAP / time windows —
// the exact shapes the rewrite injects — including NULL literals, IN
// lists, negations, and aggregation heads.
func randomGuardQueries(n int, seed int64, cfg workload.CampusConfig) []string {
	r := rand.New(rand.NewSource(seed))
	arm := func() string {
		switch r.Intn(4) {
		case 0:
			return fmt.Sprintf("(owner = %d AND ts_time > TIME '%02d:00')", r.Intn(cfg.Devices), 6+r.Intn(12))
		case 1:
			ids := make([]string, 1+r.Intn(3))
			for i := range ids {
				ids[i] = fmt.Sprintf("%d", r.Intn(cfg.Devices))
			}
			return fmt.Sprintf("(owner IN (%s))", strings.Join(ids, ", "))
		case 2:
			ap := r.Intn(cfg.APs)
			return fmt.Sprintf("(wifiAP BETWEEN %d AND %d AND owner = %d)", ap, ap+2, r.Intn(cfg.Devices))
		default:
			return fmt.Sprintf("(wifiAP = %d AND NOT ts_time < TIME '%02d:00')", r.Intn(cfg.APs), 6+r.Intn(6))
		}
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		arms := make([]string, 1+r.Intn(3))
		for k := range arms {
			arms[k] = arm()
		}
		where := strings.Join(arms, " OR ")
		switch r.Intn(3) {
		case 0:
			out = append(out, fmt.Sprintf("SELECT * FROM %s WHERE %s", workload.TableWiFi, where))
		case 1:
			out = append(out, fmt.Sprintf("SELECT count(*), min(owner), max(wifiAP) FROM %s WHERE %s", workload.TableWiFi, where))
		default:
			out = append(out, fmt.Sprintf("SELECT owner, count(*) AS n FROM %s WHERE %s GROUP BY owner ORDER BY n DESC, owner LIMIT 20", workload.TableWiFi, where))
		}
	}
	return out
}

// TestVectorOracle is the differential oracle: through the corpus harness
// (loadgen.Replay), the corpus plus randomized guard probes, for several
// queriers and a default-deny one, must return identical rows and
// identical work counters from compiled programs and from the rowPasses
// reference, and a stream of each closed early must be a prefix of the
// drained rows. The "natural" variant lets the middleware pick strategies
// (mostly IndexGuards on this corpus: guarded index fetch lists); the
// "linearscan" variant forces the guarded sequential scan with every
// partition behind Δ. Each must have run the batch evaluator on its access
// path.
func TestVectorOracle(t *testing.T) {
	variants := []struct {
		name string
		opts []core.Option
		// ranOn reports whether the counters show a batch-filtered access
		// of the kind the variant is there for.
		ranOn func(c engine.Counters) bool
	}{
		{"natural", nil, func(c engine.Counters) bool { return c.IndexScans+c.BitmapOrScans > 0 && c.SeqScans == 0 }},
		{"linearscan", []core.Option{core.WithForcedStrategy(core.LinearScan), core.WithDeltaThreshold(1)},
			func(c engine.Counters) bool { return c.SeqScans > 0 }},
	}
	for _, variant := range variants {
		t.Run(variant.name, func(t *testing.T) {
			vec := buildOracleEnv(t, false, variant.opts...)
			row := buildOracleEnv(t, true, variant.opts...)

			queriers := workload.TopQueriers(vec.ps, 3, 1)
			if len(queriers) == 0 {
				t.Fatal("no queriers with policies in the corpus")
			}
			var queries []loadgen.Query
			for _, q := range vec.campus.CorpusQueries() {
				queries = append(queries, loadgen.Query{Name: q.Name, SQL: q.SQL})
			}
			for i, sql := range randomGuardQueries(40, 42, vec.campus.Cfg) {
				queries = append(queries, loadgen.Query{Name: fmt.Sprintf("rand_%02d", i), SQL: sql})
			}

			sawVectorised := false
			ref := vec.counted(loadgen.SessionQuery(vec.m), func(c engine.Counters) {
				sawVectorised = sawVectorised || c.BatchesVectorised > 0 && variant.ranOn(c)
			})
			rowRef := row.counted(loadgen.SessionQuery(row.m), func(engine.Counters) {})
			rowRef.Name = "row reference"
			if err := loadgen.Replay(t.Context(), "analytics", queriers, queries, ref, rowRef); err != nil {
				t.Fatal(err)
			}
			if !sawVectorised {
				t.Fatal("oracle never ran the batch evaluator on the variant's access path; fixture is broken")
			}
		})
	}
}

// TestVectorOracleSharedGuardFilter holds the guard filter a guard state
// shares across executions (its registered engine.Conjunct) to the rowPasses
// reference. The campus and mall corpora run unprepared twice on each side:
// the first run compiles every state's guard disjunction once, and the
// second compiles none — each execution takes the state's operator, arms
// compiled by earlier executions included — and must still agree with the
// reference row for row and counter for counter, UDFInvocations and
// PolicyEvals among them — "campus_delta" forces the guarded scan with
// every partition behind Δ, so there they are not zero. The reference side
// registers the same filters but never uses them: the row reference
// replaces the whole filter.
func TestVectorOracleSharedGuardFilter(t *testing.T) {
	corpora := []struct {
		name    string
		purpose string
		build   func(t *testing.T, rowRef bool) *oracleEnv
		delta   bool // every partition behind Δ
	}{
		{"campus", "analytics",
			func(t *testing.T, rowRef bool) *oracleEnv { return buildOracleEnv(t, rowRef) }, false},
		{"campus_delta", "analytics",
			func(t *testing.T, rowRef bool) *oracleEnv {
				return buildOracleEnv(t, rowRef, core.WithForcedStrategy(core.LinearScan), core.WithDeltaThreshold(1))
			}, true},
		{"mall", "marketing", buildMallOracleEnv, false},
	}
	for _, corpus := range corpora {
		t.Run(corpus.name, func(t *testing.T) {
			vec, row := corpus.build(t, false), corpus.build(t, true)
			queriers := workload.TopQueriers(vec.ps, 3, 1)
			var queries []loadgen.Query
			for _, q := range vec.corpus {
				queries = append(queries, loadgen.Query{Name: q.Name, SQL: q.SQL})
			}
			var udfs int64
			ref := vec.counted(loadgen.SessionQuery(vec.m), func(c engine.Counters) { udfs += c.UDFInvocations })
			rowRef := row.counted(loadgen.SessionQuery(row.m), func(engine.Counters) {})
			rowRef.Name = "row reference"
			var compiled [2]int64
			for run := range compiled {
				if err := loadgen.Replay(t.Context(), corpus.purpose, queriers, queries, ref, rowRef); err != nil {
					t.Fatalf("run %d: %v", run+1, err)
				}
				var live int
				live, compiled[run] = vec.db.SharedFilters()
				if live == 0 || compiled[run] == 0 {
					t.Fatalf("run %d: %d shared filters, %d compiled: the corpus never ran a shared guard filter", run+1, live, compiled[run])
				}
			}
			if corpus.delta && udfs == 0 {
				t.Fatal("no Δ invocation: the corpus never ran a Δ arm")
			}
			if compiled[1] != compiled[0] {
				t.Errorf("the second run compiled %d guard disjunctions again; it should take every one from its state", compiled[1]-compiled[0])
			}
			if _, refCompiled := row.db.SharedFilters(); refCompiled != 0 {
				t.Errorf("the row reference compiled %d shared guard disjunctions; it replaces the whole filter", refCompiled)
			}
		})
	}
}

// TestVectorOracleConcurrent runs corpus queries from several goroutines
// while a writer inserts policies, proving the scan operator race-clean
// under -race -cpu=1,4. (Result equivalence is
// TestVectorOracle's job; concurrent runs only assert successful,
// non-racing execution.)
func TestVectorOracleConcurrent(t *testing.T) {
	env := buildOracleEnv(t, false)
	queriers := workload.TopQueriers(env.ps, 3, 1)
	queries := env.campus.CorpusQueries()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			who := queriers[g%len(queriers)]
			sess := env.m.NewSession(policy.Metadata{Querier: who, Purpose: "analytics"})
			for rep := 0; rep < 2; rep++ {
				for _, q := range queries {
					if _, err := sess.Execute(context.Background(), q.SQL); err != nil {
						errs <- fmt.Errorf("%s / %s: %w", q.Name, who, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			p := &policy.Policy{
				Owner: int64(i), Querier: queriers[0], Purpose: "analytics",
				Relation: workload.TableWiFi, Action: policy.Allow,
			}
			if err := env.m.Store().Insert(p); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestOracleNullOwnerUnboundedRange is the oracle's probe for the NULL
// three-valued-logic edge PR 5 found: a both-sides-unbounded range condition
// (guard merging can produce one) over a relation with a NULL attribute and
// a NULL owner. The arm must deny both rows, inlined and behind Δ, and
// compiled programs must agree with the rowPasses reference on rows and
// counters — the case core's TestNullUnboundedRangeGuardArm leaves to this
// oracle.
func TestOracleNullOwnerUnboundedRange(t *testing.T) {
	unbounded := policy.ObjectCondition{
		Attr: "temp", Kind: policy.CondRange,
		Lo: storage.Null, Hi: storage.Null,
		LoOp: sqlparser.CmpGe, HiOp: sqlparser.CmpLe,
	}
	build := func(deltaThreshold int) (*engine.DB, *core.Middleware) {
		t.Helper()
		db := engine.New(engine.MySQL())
		db.UDFOverheadIters = 0
		schema := storage.MustSchema(
			storage.Column{Name: "owner", Type: storage.KindInt},
			storage.Column{Name: "temp", Type: storage.KindInt},
			storage.Column{Name: "id", Type: storage.KindInt},
		)
		if _, err := db.CreateTable("readings", schema); err != nil {
			t.Fatal(err)
		}
		if err := db.BulkInsert("readings", []storage.Row{
			{storage.NewInt(5), storage.NewInt(20), storage.NewInt(0)},
			{storage.NewInt(5), storage.Null, storage.NewInt(1)}, // NULL temp: denied
			{storage.NewInt(5), storage.NewInt(-3), storage.NewInt(2)},
			{storage.NewInt(6), storage.NewInt(9), storage.NewInt(3)}, // other owner: denied
			{storage.Null, storage.NewInt(4), storage.NewInt(4)},      // NULL owner: denied
		}); err != nil {
			t.Fatal(err)
		}
		store, err := policy.NewStore(db)
		if err != nil {
			t.Fatal(err)
		}
		// Two same-owner policies so the partition crosses a Δ threshold of 1.
		for i := 0; i < 2; i++ {
			if err := store.Insert(&policy.Policy{
				Owner: 5, Querier: "q", Purpose: "p", Relation: "readings", Action: policy.Allow,
				Conditions: []policy.ObjectCondition{unbounded, policy.Compare("id", sqlparser.CmpGe, storage.NewInt(int64(i)))},
			}); err != nil {
				t.Fatal(err)
			}
		}
		m, err := core.New(store, core.WithForcedStrategy(core.LinearScan), core.WithDeltaThreshold(deltaThreshold))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Protect("readings"); err != nil {
			t.Fatal(err)
		}
		return db, m
	}
	for _, deltaThreshold := range []int{0, 1} {
		var sides [2]loadgen.Result
		for side, rowRef := range []bool{false, true} {
			db, m := build(deltaThreshold)
			restore := func() {}
			if rowRef {
				restore = db.UseRowReference()
			}
			res, err := m.NewSession(policy.Metadata{Querier: "q", Purpose: "p"}).
				Execute(context.Background(), "SELECT id FROM readings ORDER BY id")
			restore()
			if err != nil {
				t.Fatalf("Δ threshold %d, rowRef %v: %v", deltaThreshold, rowRef, err)
			}
			c := db.CountersSnapshot()
			sides[side] = loadgen.Result{Cols: res.Columns, Rows: res.Rows, Counters: &c}
			if deltaThreshold > 0 && c.UDFInvocations == 0 {
				t.Fatalf("rowRef %v: Δ path not exercised (no UDF invocations)", rowRef)
			}
			if c.RowsVectorised == 0 {
				t.Fatalf("Δ threshold %d, rowRef %v: the guarded scan did not run on the scan operator", deltaThreshold, rowRef)
			}
		}
		want := loadgen.Result{Cols: []string{"id"}, Rows: []storage.Row{{storage.NewInt(0)}, {storage.NewInt(2)}}}
		if err := loadgen.Compare(want, sides[0]); err != nil {
			t.Fatalf("Δ threshold %d: compiled: %v (NULL temp or NULL owner leaked through a guard arm)", deltaThreshold, err)
		}
		if err := loadgen.Compare(sides[0], sides[1]); err != nil {
			t.Fatalf("Δ threshold %d: reference diverges from compiled: %v", deltaThreshold, err)
		}
	}
}
