// Package experiment regenerates every table and figure of the paper's
// evaluation (§7) on the embedded engine: Figure 2 / Table 6 / Table 7
// (guard generation and quality), Figure 3 (Inline vs Δ), Figure 4
// (IndexQuery vs IndexGuards), Table 8 and Tables 9–11 (overall comparison
// against the baselines), Figure 5 (PostgreSQL), Figure 6 (Mall
// scalability), plus ablations of SIEVE's design choices, the durability
// sweep (Recovery) and the invariant soak (Traffic). Each experiment
// returns a printable Table and writes nothing; cmd/sieve-bench assembles
// them into EXPERIMENTS.md-style output. Performance is measured by
// bash benchmark/run.sh, not here.
package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/workload"
)

// Table is one experiment's result in the paper's tabular layout.
type Table struct {
	ID      string // "Figure 2", "Table 8", …
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config scales an experiment run. Test configs finish in seconds; bench
// configs approximate the paper's corpus.
type Config struct {
	// Seed is the master seed every run is reproducible from. ApplySeed
	// rebases the per-generator seeds below on it.
	Seed            int64
	Campus          workload.CampusConfig
	Policy          workload.PolicyConfig
	Mall            workload.MallConfig
	Hospital        workload.HospitalConfig
	MallPerCustomer int
	// Reps is the measurement repetitions per query (paper: 5, warm).
	Reps int
	// QueriesPerCell is the number of query instances per (template,
	// class) cell.
	QueriesPerCell int
	// Timeout is the per-query budget; exceeding it records "TO" like the
	// paper's 30 s limit.
	Timeout time.Duration
	// Queriers is the number of measured queriers (paper: 5).
	Queriers int
	// SampleTuples bounds ground-truth sampling for quality metrics.
	SampleTuples int
	// Workers overrides the engine's parallel-scan worker budget for
	// every environment the experiment builds (0 keeps the engine
	// default, runtime.NumCPU()). The -workers flag of sieve-bench sets
	// it, adding a scaling dimension to the exp4/5 curves.
	Workers int
	// RecoveryRecords is the WAL-length sweep of the recovery
	// experiment: each entry is a record count to load, snapshot, and
	// cold-recover (paper-scale target: 10⁴–10⁶).
	RecoveryRecords []int
	// TrafficWorkers is the concurrent querier count of the traffic
	// harness; TrafficOps is each worker's closed-loop op count.
	TrafficWorkers int
	TrafficOps     int
	// TrafficStreamLimit is how many rows a streaming op drains before
	// its early Close.
	TrafficStreamLimit int
	// TrafficZipf skews querier and query selection (s > 1).
	TrafficZipf float64
	// TrafficChurnHold is a churn grant's lifetime before revocation.
	TrafficChurnHold time.Duration
	// TrafficDenyEvery makes every Nth worker a default-deny querier.
	TrafficDenyEvery int
}

// ApplySeed rebases every generator seed in the config on one master
// seed, making a whole run reproducible from a single -seed flag.
// Seed 1 reproduces the default configs exactly.
func (c *Config) ApplySeed(seed int64) {
	c.Seed = seed
	c.Campus.Seed = seed
	c.Policy.Seed = seed + 1
	c.Mall.Seed = seed + 2
	c.Hospital.Seed = seed + 3
}

// TestConfig finishes in a few seconds; used by unit tests.
func TestConfig() Config {
	return Config{
		Seed:            1,
		Campus:          workload.TestCampusConfig(),
		Policy:          workload.TestPolicyConfig(),
		Mall:            workload.TestMallConfig(),
		Hospital:        workload.TestHospitalConfig(),
		MallPerCustomer: 6,
		Reps:            1,
		QueriesPerCell:  2,
		Timeout:         10 * time.Second,
		Queriers:        3,
		SampleTuples:    400,

		RecoveryRecords: []int{1000, 5000},

		TrafficWorkers:     8,
		TrafficOps:         10,
		TrafficStreamLimit: 6,
		TrafficZipf:        1.3,
		TrafficChurnHold:   2 * time.Millisecond,
		TrafficDenyEvery:   4,
	}
}

// MediumConfig sits between TestConfig and BenchConfig: large enough for
// the paper's shapes to show, small enough for a full sweep in minutes.
func MediumConfig() Config {
	cfg := BenchConfig()
	cfg.Campus.Devices = 1500
	cfg.Campus.Days = 45
	cfg.Policy.AdvancedPolicies = 30
	cfg.Mall.Customers = 1200
	cfg.Mall.Days = 30
	cfg.Reps = 2
	cfg.QueriesPerCell = 2
	cfg.Queriers = 3
	cfg.Timeout = 20 * time.Second
	cfg.SampleTuples = 1500
	cfg.RecoveryRecords = []int{10000, 100000}
	cfg.Hospital.Patients = 1200
	cfg.Hospital.Days = 30
	cfg.TrafficWorkers = 64
	cfg.TrafficOps = 25
	return cfg
}

// BenchConfig approximates the paper's scale (≈1/8 of the TIPPERS corpus).
func BenchConfig() Config {
	return Config{
		Seed:            1,
		Campus:          workload.BenchCampusConfig(),
		Policy:          workload.BenchPolicyConfig(),
		Mall:            workload.BenchMallConfig(),
		Hospital:        workload.BenchHospitalConfig(),
		MallPerCustomer: 8,
		Reps:            3,
		QueriesPerCell:  3,
		Timeout:         30 * time.Second,
		Queriers:        5,
		SampleTuples:    3000,

		// The durability sweep: cold recovery at 10⁴–10⁶ logged records.
		RecoveryRecords: []int{10000, 100000, 1000000},

		// Hundreds of concurrent queriers per cell; 2 modes × 3
		// workloads puts the run into the thousands of sessions.
		TrafficWorkers:     320,
		TrafficOps:         40,
		TrafficStreamLimit: 8,
		TrafficZipf:        1.3,
		TrafficChurnHold:   time.Millisecond,
		TrafficDenyEvery:   8,
	}
}

// newEnv is what the three environments share: the workload's policies
// bulk-loaded into a store over db, and a middleware protecting table.
func newEnv(cfg Config, db *engine.DB, ps []*policy.Policy, groups policy.Groups, table string, opts []core.Option) (*policy.Store, *core.Middleware, error) {
	if cfg.Workers > 0 {
		db.ScanWorkers = cfg.Workers
	}
	store, err := policy.NewStore(db)
	if err != nil {
		return nil, nil, err
	}
	if err := store.BulkLoad(ps); err != nil {
		return nil, nil, err
	}
	m, err := core.New(store, append([]core.Option{core.WithGroups(groups)}, opts...)...)
	if err != nil {
		return nil, nil, err
	}
	return store, m, m.Protect(table)
}

// CampusEnv bundles a generated campus, its policy corpus, and a SIEVE
// middleware over it.
type CampusEnv struct {
	Campus   *workload.Campus
	Policies []*policy.Policy
	Store    *policy.Store
	M        *core.Middleware
}

// NewCampusEnv builds the standard experiment environment on a dialect.
func NewCampusEnv(cfg Config, dialect engine.Dialect, opts ...core.Option) (*CampusEnv, error) {
	c, err := workload.BuildCampus(cfg.Campus, dialect)
	if err != nil {
		return nil, err
	}
	ps := c.GeneratePolicies(cfg.Policy)
	store, m, err := newEnv(cfg, c.DB, ps, c.Groups(), workload.TableWiFi, opts)
	if err != nil {
		return nil, err
	}
	return &CampusEnv{Campus: c, Policies: ps, Store: store, M: m}, nil
}

// MallEnv bundles the mall equivalents.
type MallEnv struct {
	Mall     *workload.Mall
	Policies []*policy.Policy
	Store    *policy.Store
	M        *core.Middleware
}

// NewMallEnv builds the mall experiment environment.
func NewMallEnv(cfg Config, dialect engine.Dialect, opts ...core.Option) (*MallEnv, error) {
	ml, err := workload.BuildMall(cfg.Mall, dialect)
	if err != nil {
		return nil, err
	}
	ps := ml.GeneratePolicies(cfg.Mall.Seed+1, cfg.MallPerCustomer)
	store, m, err := newEnv(cfg, ml.DB, ps, policy.NoGroups, workload.TableMallWiFi, opts)
	if err != nil {
		return nil, err
	}
	return &MallEnv{Mall: ml, Policies: ps, Store: store, M: m}, nil
}

// HospitalEnv bundles the hospital equivalents.
type HospitalEnv struct {
	Hospital *workload.Hospital
	Policies []*policy.Policy
	Store    *policy.Store
	M        *core.Middleware
}

// NewHospitalEnv builds the hospital experiment environment: the deep
// group hierarchy (hospital → department → ward → role) resolves through
// the middleware's group support, and the vitals relation is protected.
func NewHospitalEnv(cfg Config, dialect engine.Dialect, opts ...core.Option) (*HospitalEnv, error) {
	h, err := workload.BuildHospital(cfg.Hospital, dialect)
	if err != nil {
		return nil, err
	}
	ps := h.GeneratePolicies(cfg.Hospital.Seed + 1)
	store, m, err := newEnv(cfg, h.DB, ps, h.Groups(), workload.TableVitals, opts)
	if err != nil {
		return nil, err
	}
	return &HospitalEnv{Hospital: h, Policies: ps, Store: store, M: m}, nil
}

// timed measures fn averaged over reps after one warm-up run, honouring the
// timeout ("TO" semantics: the paper reports TO when every query in a group
// timed out, t+ when some did).
func timed(reps int, timeout time.Duration, fn func() error) (avg time.Duration, timedOut bool, err error) {
	if reps < 1 {
		reps = 1
	}
	start := time.Now()
	if err := fn(); err != nil {
		return 0, false, err
	}
	if time.Since(start) > timeout {
		return time.Since(start), true, nil
	}
	var total time.Duration
	for i := 0; i < reps; i++ {
		s := time.Now()
		if err := fn(); err != nil {
			return 0, false, err
		}
		d := time.Since(s)
		total += d
		if d > timeout {
			return d, true, nil
		}
	}
	return total / time.Duration(reps), false, nil
}

// ms formats a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

// cell renders a timing cell with the paper's TO convention.
func cell(avg time.Duration, timedOut bool, anyTimedOut bool) string {
	switch {
	case timedOut:
		return "TO"
	case anyTimedOut:
		return ms(avg) + "+"
	default:
		return ms(avg)
	}
}
