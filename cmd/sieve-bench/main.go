// Command sieve-bench regenerates the paper's evaluation tables and
// figures (§7) on the embedded engine and prints them in the paper's
// layout. Use -list to see the experiment ids, -scale to pick corpus size.
//
//	sieve-bench -scale test -run all
//	sieve-bench -scale bench -run fig5,fig6
//	sieve-bench -run traffic -seed 1
//	sieve-bench -micro
//	sieve-bench -backend fake-postgres
//
// It writes no file and is not where performance is measured: that is
// bash benchmark/run.sh (BENCHMARK.json).
//
// -seed drives every workload generator and the traffic soak from one
// master seed.
//
// -run traffic is the invariant soak: concurrent Zipf-skewed queriers mix
// early-closed, drained, prepared, and backend-shipped queries over the
// campus, mall, and hospital workloads — in process and through a real
// sieve-server — under live policy churn, with every returned row
// invariant-checked. See docs/benchmarks.md.
//
// -micro measures the execution-surface amortisations instead: prepared
// statements (parse + rewrite paid once) versus per-call Execute, and
// streaming LIMIT termination versus full materialisation.
//
// -backend runs the examples corpus through an execution backend —
// embedded, fake-mysql / fake-postgres (the recording fake driver, seeded
// with the embedded engine's rows so the full encode → SQL → decode wire
// path is exercised and verified), or driver://dsn for a live server with
// a compiled-in driver — and reports per-query row parity plus the
// backend's wire counters.
package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/internal/backend"
	"github.com/sieve-db/sieve/internal/backend/backendtest"
	"github.com/sieve-db/sieve/internal/cli"
	"github.com/sieve-db/sieve/internal/experiment"
	"github.com/sieve-db/sieve/internal/workload"
)

type exp struct {
	id   string
	desc string
	run  func(experiment.Config) (*experiment.Table, error)
}

var experiments = []exp{
	{"fig2", "Figure 2: guard generation cost", experiment.GuardGenCost},
	{"table6", "Table 6: guard quality statistics", experiment.GuardQuality},
	{"table7", "Table 7: guard-count × cardinality quadrants", experiment.GuardQuadrants},
	{"fig3", "Figure 3: Inline vs Δ operator", experiment.InlineVsDelta},
	{"fig4", "Figure 4: IndexQuery vs IndexGuards", experiment.IndexChoice},
	{"table8", "Table 8: overall comparison (Q1–Q3)", experiment.OverallComparison},
	{"table9", "Table 9: Q1 by querier profile", func(c experiment.Config) (*experiment.Table, error) {
		return experiment.OverallByProfile(c, workload.Q1)
	}},
	{"table10", "Table 10: Q2 by querier profile", func(c experiment.Config) (*experiment.Table, error) {
		return experiment.OverallByProfile(c, workload.Q2)
	}},
	{"table11", "Table 11: Q3 by querier profile", func(c experiment.Config) (*experiment.Table, error) {
		return experiment.OverallByProfile(c, workload.Q3)
	}},
	{"fig5", "Figure 5: MySQL vs PostgreSQL dialects", experiment.PostgresComparison},
	{"fig6", "Figure 6: Mall scalability", experiment.MallScalability},
	{"ablation", "Ablations of SIEVE's design choices", experiment.Ablations},
	{"dynamic", "Section 6: eager vs deferred regeneration", func(c experiment.Config) (*experiment.Table, error) {
		return experiment.DynamicRegeneration(c, 10)
	}},
	{"workers", "Parallel guarded scan scaling (1..NumCPU workers)", experiment.WorkerScaling},
	{"recovery", "Durability: WAL append, snapshot MB/s, replay rec/s, cold recovery", experiment.Recovery},
	{"traffic", "Invariant soak: heavy-traffic mixed workload under churn", experiment.Traffic},
}

// selectExperiments resolves a -run value ("all" or comma-separated ids)
// against the table, in table order. An id the table does not hold is an
// error: a CI line naming a retired experiment must not pass by running
// nothing.
func selectExperiments(run string) ([]exp, error) {
	if run == "all" {
		return experiments, nil
	}
	valid := make([]string, len(experiments))
	known := map[string]bool{}
	for i, e := range experiments {
		valid[i] = e.id
		known[e.id] = true
	}
	wanted := map[string]bool{}
	for _, id := range strings.Split(run, ",") {
		id = strings.TrimSpace(id)
		if !known[id] {
			return nil, fmt.Errorf("sieve-bench: unknown experiment id %q; valid ids: all, %s", id, strings.Join(valid, ", "))
		}
		wanted[id] = true
	}
	var out []exp
	for _, e := range experiments {
		if wanted[e.id] {
			out = append(out, e)
		}
	}
	return out, nil
}

func main() {
	fs, opts := cli.BenchFlags()
	_ = fs.Parse(os.Args[1:])

	if opts.List {
		for _, e := range experiments {
			fmt.Printf("%-10s %s\n", e.id, e.desc)
		}
		return
	}
	if opts.Micro {
		if err := runMicro(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if opts.Backend != "" {
		if err := runBackendCorpus(opts.Backend); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	selected, err := selectExperiments(opts.Run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var cfg experiment.Config
	switch opts.Scale {
	case "test":
		cfg = experiment.TestConfig()
	case "medium":
		cfg = experiment.MediumConfig()
	case "bench":
		cfg = experiment.BenchConfig()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", opts.Scale)
		os.Exit(2)
	}
	cfg.Workers = opts.Workers
	cfg.ApplySeed(opts.Seed)

	fmt.Printf("sieve-bench scale=%s seed=%d (devices=%d days=%d)\n\n",
		opts.Scale, cfg.Seed, cfg.Campus.Devices, cfg.Campus.Days)
	failed := 0
	for _, e := range selected {
		start := time.Now()
		tab, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			failed++
			continue
		}
		fmt.Println(tab.String())
		fmt.Printf("(%s completed in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runMicro measures what the query execution surface amortises: the
// parse+rewrite per call that Stmt caches, and the scan work a streamed
// LIMIT avoids versus materialising the full result.
func runMicro() error {
	env, err := experiment.NewCampusEnv(experiment.TestConfig(), sieve.MySQL())
	if err != nil {
		return err
	}
	querier := workload.TopQueriers(env.Policies, 1, 1)[0]
	sess := env.M.NewSession(sieve.Metadata{Querier: querier, Purpose: "analytics"})
	q := "SELECT * FROM " + workload.TableWiFi
	ctx := context.Background()
	const iters = 200

	// Warm the guard cache so both paths measure rewrite+execute only.
	if _, err := sess.Execute(ctx, q); err != nil {
		return err
	}

	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := env.M.Execute(q, sess.Metadata()); err != nil {
			return err
		}
	}
	perExec := time.Since(start) / iters

	stmt, err := env.M.Prepare(q)
	if err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := stmt.Execute(ctx, sess); err != nil {
			return err
		}
	}
	perPrepared := time.Since(start) / iters

	fmt.Printf("execute (parse+rewrite per call) : %v/op\n", perExec)
	fmt.Printf("prepared (rewrite cached, %d uses): %v/op (%.2fx)\n",
		stmt.Rewrites(), perPrepared, float64(perExec)/float64(perPrepared))

	env.Campus.DB.Counters.Reset()
	rows, err := sess.Query(ctx, q)
	if err != nil {
		return err
	}
	for i := 0; i < 10 && rows.Next(); i++ {
	}
	if err := rows.Err(); err != nil {
		return err
	}
	rows.Close()
	streamed := env.Campus.DB.Counters.TuplesRead

	env.Campus.DB.Counters.Reset()
	if _, err := sess.Execute(ctx, q); err != nil {
		return err
	}
	full := env.Campus.DB.Counters.TuplesRead
	fmt.Printf("streaming 10 rows reads %d tuples; materialising reads %d\n", streamed, full)
	return nil
}

// runBackendCorpus ships the examples corpus through an execution
// backend and verifies row parity against the embedded engine. The fake
// backends are seeded with the embedded baseline converted to driver
// values, so the run exercises the complete wire path — arg binding,
// placeholder order, row decoding — with no live server.
func runBackendCorpus(spec string) error {
	demo, err := workload.NewDemo(sieve.MySQL())
	if err != nil {
		return err
	}
	b, fake, err := backend.For(spec, demo.Campus.DB)
	if err != nil {
		return err
	}
	defer b.Close()
	ctx := context.Background()
	if err := b.Ping(ctx); err != nil {
		return fmt.Errorf("backend %s unreachable: %v", b.Name(), err)
	}
	qm := sieve.Metadata{Querier: demo.Querier("auto"), Purpose: "analytics"}
	sess := demo.M.NewSession(qm)
	fmt.Printf("backend %s (dialect %s), querier %s\n\n", b.Name(), b.Dialect(), qm.Querier)
	fmt.Printf("%-22s %8s %8s %6s %10s\n", "query", "rows", "base", "match", "time")

	mismatches := 0
	for _, q := range demo.Campus.CorpusQueries() {
		base, err := sess.Execute(ctx, q.SQL)
		if err != nil {
			return fmt.Errorf("%s: embedded baseline: %v", q.Name, err)
		}
		if fake != nil {
			fake.Push(backendtest.ResultFromRows(base.Columns, base.Rows))
		}
		em, err := sess.RewriteSQL(q.SQL, b.Dialect())
		if err != nil {
			return fmt.Errorf("%s: emit: %v", q.Name, err)
		}
		start := time.Now()
		n, err := b.Exec(ctx, em, nil)
		if err != nil {
			return fmt.Errorf("%s: %s: %v", q.Name, b.Name(), err)
		}
		match := "ok"
		if n != int64(len(base.Rows)) {
			match = "DIFF"
			mismatches++
		}
		fmt.Printf("%-22s %8d %8d %6s %10v\n",
			q.Name, n, len(base.Rows), match, time.Since(start).Round(time.Microsecond))
	}
	c := b.Counters()
	fmt.Printf("\nwire counters: %d execs, %d rows decoded, %d args bound, %d errors\n",
		c.Execs, c.RowsDecoded, c.ArgsBound, c.Errors)
	if fake != nil {
		calls := fake.Calls()
		fmt.Printf("fake driver recorded %d statements; last:\n", len(calls))
		if len(calls) > 0 {
			fmt.Printf("  %s\n", calls[len(calls)-1].SQL)
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("%d corpus queries diverged from the embedded baseline", mismatches)
	}
	return nil
}
