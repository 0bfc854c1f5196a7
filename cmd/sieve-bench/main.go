// Command sieve-bench regenerates the paper's evaluation tables and
// figures (§7) on the embedded engine and prints them in the paper's
// layout. Use -list to see the experiment ids, -scale to pick corpus size.
//
//	sieve-bench -scale test -run all
//	sieve-bench -scale bench -run fig5,fig6
//	sieve-bench -run traffic -seed 1
//	sieve-bench -micro
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
package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	sieve "github.com/sieve-db/sieve"
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
	{"dynamic", "Section 6: full vs k̃-bounded patched regeneration", func(c experiment.Config) (*experiment.Table, error) {
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
		if _, err := sess.Execute(ctx, q); err != nil {
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
