// Package loadgen drives SIEVE under closed-loop concurrent load: many
// querier goroutines with Zipf-skewed querier and query selection run a
// configurable mix of streaming early-Close, exhaustive, prepared-
// statement, and fake-backend-shipped queries against one workload
// scenario, while a churn goroutine adds and revokes policies mid-flight.
// An embedded Checker holds every observed row to the enforcement
// invariants live (two-legal-worlds under churn, default-deny emptiness,
// no revocation resurfacing), which makes the generator double as the
// repo's largest concurrency test. The traffic experiment wires the
// campus, mall, and hospital workloads through it, in process and over
// the sieve-server wire path.
//
// The ops run through Runners — one per door a client can take into the
// middleware — and the same Runners are the corpus harness: Replay holds
// every door to Session.Query, query by query and querier by querier.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/storage"
)

// Query is one entry of a scenario's query pool.
type Query struct {
	Name string
	SQL  string
	// RowCheck marks a SELECT * over the protected relation: the checker
	// can justify its result rows policy by policy. Other shapes still
	// count toward load and the default-deny emptiness check.
	RowCheck bool
}

// Scenario binds one workload to the harness.
type Scenario struct {
	Name     string
	M        *core.Middleware
	Relation string
	// Schema is the protected relation's row layout; RowCheck queries
	// return rows in this shape.
	Schema  *storage.Schema
	Purpose string
	// Queriers are the policy-holding identities workers run as,
	// Zipf-ranked: rank 0 is hit most often.
	Queriers []string
	// DenyQueriers hold no policies and must always see empty results.
	DenyQueriers []string
	// ChurnQuerier is a dedicated identity holding no static policies;
	// the churn goroutine grants and revokes its access mid-run, and
	// worker 0 runs as it so the grants are observed.
	ChurnQuerier string
	// ChurnGroups are group principals churn grants may target instead
	// of ChurnQuerier directly, exercising group-scoped invalidation.
	ChurnGroups []string
	// ChurnOwners is the owner pool churn grants draw from.
	ChurnOwners []int64
	Groups      policy.Groups
	// BasePolicies is the static corpus loaded into the store; the
	// checker evaluates them as ground truth.
	BasePolicies []*policy.Policy
	Queries      []Query
}

// OpKind is one work shape in the mix.
type OpKind int

// The op kinds.
const (
	// OpStream opens a streaming query, drains a few rows, and Closes
	// early.
	OpStream OpKind = iota
	// OpExhaust materialises the full result.
	OpExhaust
	// OpPrepared executes through a prepared statement.
	OpPrepared
	// OpBackend ships the rewritten query to a fake backend and decodes
	// the wire result.
	OpBackend
	numOpKinds
)

// String names the kind for reports.
func (k OpKind) String() string {
	switch k {
	case OpStream:
		return "stream"
	case OpExhaust:
		return "exhaust"
	case OpPrepared:
		return "prepared"
	case OpBackend:
		return "backend"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Mix is the relative weight of each op kind.
type Mix struct {
	Stream   int `json:"stream"`
	Exhaust  int `json:"exhaust"`
	Prepared int `json:"prepared"`
	Backend  int `json:"backend"`
}

// DefaultMix leans on streaming reads with a tail of heavier shapes.
func DefaultMix() Mix { return Mix{Stream: 4, Exhaust: 3, Prepared: 2, Backend: 1} }

func (m Mix) weights() [numOpKinds]int {
	return [numOpKinds]int{m.Stream, m.Exhaust, m.Prepared, m.Backend}
}

// pick draws an op kind by weight.
func (m Mix) pick(r *rand.Rand) OpKind {
	w := m.weights()
	total := 0
	for _, x := range w {
		total += x
	}
	if total <= 0 {
		return OpExhaust
	}
	n := r.Intn(total)
	for k, x := range w {
		if n < x {
			return OpKind(k)
		}
		n -= x
	}
	return OpExhaust
}

// Config scales a run.
type Config struct {
	Seed int64
	// Workers is the number of concurrent querier goroutines.
	Workers int
	// Ops is the closed-loop op count per worker.
	Ops int
	// StreamLimit is how many rows OpStream drains before Closing early.
	StreamLimit int
	// ZipfQuerier / ZipfQuery skew identity and query selection (s > 1;
	// larger is more skewed).
	ZipfQuerier float64
	ZipfQuery   float64
	Mix         Mix
	// Churn enables the add/revoke goroutine.
	Churn bool
	// ChurnHold is how long a churn grant lives before revocation.
	ChurnHold time.Duration
	// DenyEvery makes every Nth worker run as a default-deny querier
	// (0 = none).
	DenyEvery int
}

// maxSamples bounds a run's retained violation and error samples.
const maxSamples = 10

// Report is what one Run observed.
type Report struct {
	Ops    int64 `json:"ops"`
	Rows   int64 `json:"rows"`
	Errors int64 `json:"errors"`

	P50us      float64 `json:"p50_us"`
	P95us      float64 `json:"p95_us"`
	P99us      float64 `json:"p99_us"`
	RowsPerSec float64 `json:"rows_per_sec"`

	ChurnAdds    int64 `json:"churn_adds"`
	ChurnRevokes int64 `json:"churn_revokes"`
	RowsChecked  int64 `json:"rows_checked"`

	Violations       ViolationCounts `json:"violations"`
	ViolationSamples []string        `json:"violation_samples,omitempty"`
	ErrorSamples     []string        `json:"error_samples,omitempty"`
}

// Failed reports whether the run breached an invariant or errored.
func (r *Report) Failed() bool { return r.Errors > 0 || r.Violations.Total() > 0 }

// workerStats accumulates one worker's measurements without locks.
type workerStats struct {
	durs       []time.Duration
	rows       int64
	errs       int64
	errSamples []string
}

// zipfIndex builds a Zipf sampler over [0, n). rand.NewZipf needs s > 1,
// so skews at or below 1 fall back to uniform.
func zipfIndex(r *rand.Rand, s float64, n int) func() int {
	if n <= 1 {
		return func() int { return 0 }
	}
	if s <= 1 {
		return func() int { return r.Intn(n) }
	}
	z := rand.NewZipf(r, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// Run drives the scenario: Workers goroutines, each bound to one querier
// drawn by Zipf rank, issue Ops mixed operations while (with Churn) a
// churn goroutine grants and revokes policies and probes after every
// revocation. The returned Report carries latency percentiles,
// throughput, churn counters, and the checker's verdicts; Run itself
// errors only on setup failure — op errors and violations land in the
// Report for the caller to gate on.
func Run(ctx context.Context, sc *Scenario, cfg Config, newExec ExecutorFactory) (*Report, error) {
	if cfg.Workers < 1 || cfg.Ops < 1 {
		return nil, fmt.Errorf("loadgen: Workers and Ops must be positive")
	}
	if len(sc.Queriers) == 0 || len(sc.Queries) == 0 {
		return nil, fmt.Errorf("loadgen: scenario %s has no queriers or queries", sc.Name)
	}
	if cfg.StreamLimit <= 0 {
		cfg.StreamLimit = 8
	}
	checker, err := NewChecker(sc, maxSamples)
	if err != nil {
		return nil, err
	}

	// Assign querier identities deterministically before spawning.
	assign := rand.New(rand.NewSource(cfg.Seed))
	zq := zipfIndex(assign, cfg.ZipfQuerier, len(sc.Queriers))
	queriers := make([]string, cfg.Workers)
	for w := range queriers {
		switch {
		case w == 0 && cfg.Churn && sc.ChurnQuerier != "":
			queriers[w] = sc.ChurnQuerier
		case cfg.DenyEvery > 0 && len(sc.DenyQueriers) > 0 && (w+1)%cfg.DenyEvery == 0:
			queriers[w] = sc.DenyQueriers[w%len(sc.DenyQueriers)]
		default:
			queriers[w] = sc.Queriers[zq()]
		}
	}

	denySet := make(map[string]bool, len(sc.DenyQueriers))
	for _, q := range sc.DenyQueriers {
		denySet[q] = true
	}
	// Default-deny workers only run RowCheck queries: aggregations
	// legitimately return a zero row, which is not a leak.
	var rowCheckPool []Query
	for _, q := range sc.Queries {
		if q.RowCheck {
			rowCheckPool = append(rowCheckPool, q)
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	res := &Report{}
	var churnWG sync.WaitGroup
	if cfg.Churn && sc.ChurnQuerier != "" && len(sc.ChurnOwners) > 0 {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			churnLoop(runCtx, sc, cfg, checker, res)
		}()
	}

	stats := make([]workerStats, cfg.Workers)
	var wg sync.WaitGroup
	var setupErr atomic.Value
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			md := policy.Metadata{Querier: queriers[w], Purpose: sc.Purpose}
			exec, err := newExec(md)
			if err != nil {
				setupErr.Store(fmt.Errorf("loadgen: worker %d executor: %w", w, err))
				return
			}
			for _, d := range exec {
				if d.Close != nil {
					defer d.Close()
				}
			}
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*104729 + 1))
			pool := sc.Queries
			if denySet[queriers[w]] && len(rowCheckPool) > 0 {
				pool = rowCheckPool
			}
			zQuery := zipfIndex(rng, cfg.ZipfQuery, len(pool))
			for op := 0; op < cfg.Ops; op++ {
				if runCtx.Err() != nil {
					return
				}
				kind := cfg.Mix.pick(rng)
				q := pool[zQuery()]
				limit := -1
				if kind == OpStream {
					limit = cfg.StreamLimit
				}
				qStart := checker.Clock()
				t0 := time.Now()
				res, err := exec[kind].Run(runCtx, md, q.SQL, limit)
				d := time.Since(t0)
				if err != nil {
					if errors.Is(err, context.Canceled) {
						return
					}
					st.errs++
					if len(st.errSamples) < 3 {
						st.errSamples = append(st.errSamples,
							fmt.Sprintf("worker %d (%s) %s/%s: %v", w, queriers[w], kind, q.Name, err))
					}
					continue
				}
				st.durs = append(st.durs, d)
				st.rows += int64(len(res.Rows))
				checker.CheckRows(queriers[w], qStart, q, res.Rows, res.Cols)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cancel()
	churnWG.Wait()
	if err, _ := setupErr.Load().(error); err != nil {
		return nil, err
	}

	// Merge worker stats.
	var all []time.Duration
	for i := range stats {
		all = append(all, stats[i].durs...)
		res.Rows += stats[i].rows
		res.Errors += stats[i].errs
		for _, s := range stats[i].errSamples {
			if len(res.ErrorSamples) < maxSamples {
				res.ErrorSamples = append(res.ErrorSamples, s)
			}
		}
	}
	res.Ops = int64(len(all))
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.P50us = percentileUS(all, 50)
	res.P95us = percentileUS(all, 95)
	res.P99us = percentileUS(all, 99)
	if secs := elapsed.Seconds(); secs > 0 {
		res.RowsPerSec = float64(res.Rows) / secs
	}
	res.RowsChecked = checker.RowsChecked()
	res.Violations, res.ViolationSamples = checker.Violations()
	return res, nil
}

// churnLoop grants and revokes policies against the live middleware for
// as long as the workers run. Every grant's liveness window is registered
// with the checker around the mutation (born before insert, died after
// revoke), and each revocation is followed by a targeted probe: the
// revoked owner's rows queried as the churn querier must be justified by
// something else or absent.
func churnLoop(ctx context.Context, sc *Scenario, cfg Config, checker *Checker, res *Report) {
	rng := rand.New(rand.NewSource(cfg.Seed + 7919))
	sess := sc.M.NewSession(policy.Metadata{Querier: sc.ChurnQuerier, Purpose: sc.Purpose})
	probe := Query{Name: "churn_probe", RowCheck: true}
	hold := cfg.ChurnHold
	if hold <= 0 {
		hold = time.Millisecond
	}
	for i := 0; ctx.Err() == nil; i++ {
		principal := sc.ChurnQuerier
		if len(sc.ChurnGroups) > 0 && i%2 == 1 {
			principal = sc.ChurnGroups[rng.Intn(len(sc.ChurnGroups))]
		}
		owner := sc.ChurnOwners[rng.Intn(len(sc.ChurnOwners))]
		e := checker.WillGrant(principal, owner)
		p := &policy.Policy{
			Owner: owner, Querier: principal, Purpose: sc.Purpose,
			Relation: sc.Relation, Action: policy.Allow,
		}
		if err := sc.M.AddPolicy(p); err != nil {
			checker.violation(func(v *ViolationCounts) { v.UnjustifiedRows++ }, "churn add failed: %v", err)
			return
		}
		atomic.AddInt64(&res.ChurnAdds, 1)
		sleepCtx(ctx, hold)
		if err := sc.M.RevokePolicy(p.ID); err != nil {
			checker.violation(func(v *ViolationCounts) { v.UnjustifiedRows++ }, "churn revoke failed: %v", err)
			return
		}
		checker.DidRevoke(e)
		atomic.AddInt64(&res.ChurnRevokes, 1)

		if ctx.Err() != nil {
			return
		}
		qStart := checker.Clock()
		probeSQL := fmt.Sprintf("SELECT * FROM %s WHERE %s = %d", sc.Relation, policy.OwnerAttr, owner)
		out, err := sess.Execute(ctx, probeSQL)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				checker.violation(func(v *ViolationCounts) { v.UnjustifiedRows++ }, "churn probe failed: %v", err)
			}
			return
		}
		checker.CheckRows(sc.ChurnQuerier, qStart, probe, out.Rows, out.Columns)
	}
}

// sleepCtx sleeps for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// percentileUS reads the p-th percentile of a sorted duration slice in
// microseconds.
func percentileUS(sorted []time.Duration, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Microsecond)
}
