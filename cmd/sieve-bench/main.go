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
// -seed drives every workload generator and the traffic harness from one
// master seed, recorded in the BENCH_*.json artifacts.
//
// -run traffic is the closed-loop load harness: concurrent Zipf-skewed
// queriers mix early-closed, drained, prepared, and backend-shipped
// queries over the campus, mall, and hospital workloads — in process and
// through a real sieve-server — under live policy churn, with every
// returned row invariant-checked. See docs/benchmarks.md.
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
//
// -server boots an in-process sieve-server on a loopback port and runs
// the examples corpus through the HTTP client against the same queries
// in process, verifying row parity and reporting per-query p50/p95 for
// both paths — the protocol's overhead, isolated. Results also land in
// BENCH_server.json.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"reflect"
	"sort"
	"strings"
	"time"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/client"
	"github.com/sieve-db/sieve/internal/backend"
	"github.com/sieve-db/sieve/internal/backend/backendtest"
	"github.com/sieve-db/sieve/internal/cli"
	"github.com/sieve-db/sieve/internal/experiment"
	"github.com/sieve-db/sieve/internal/server"
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
	{"policyscale", "Million-policy regime: signature-shared plans, scoped invalidation", experiment.PolicyScale},
	{"recovery", "Durability: WAL append, snapshot MB/s, replay rec/s, cold recovery", experiment.Recovery},
	{"latency", "Per-query latency over the examples corpus, tracing off vs on", experiment.Latency},
	{"traffic", "Heavy-traffic mixed workload under churn, invariant-checked", experiment.Traffic},
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
	if opts.Server {
		if err := runServerBench(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
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

	wanted := map[string]bool{}
	if opts.Run != "all" {
		for _, id := range strings.Split(opts.Run, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
	}

	fmt.Printf("sieve-bench scale=%s seed=%d (devices=%d days=%d)\n\n",
		opts.Scale, cfg.Seed, cfg.Campus.Devices, cfg.Campus.Days)
	failed := 0
	for _, e := range experiments {
		if len(wanted) > 0 && !wanted[e.id] {
			continue
		}
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

// serverBenchStat is one corpus query's wire-vs-in-process comparison in
// BENCH_server.json. Durations are microseconds.
type serverBenchStat struct {
	Name     string  `json:"name"`
	Rows     int     `json:"rows"`
	LocalP50 float64 `json:"local_p50_us"`
	LocalP95 float64 `json:"local_p95_us"`
	WireP50  float64 `json:"wire_p50_us"`
	WireP95  float64 `json:"wire_p95_us"`
	Parity   bool    `json:"parity"`
}

// percentileUS reads the p-th percentile (0..100) of a sorted duration
// slice in microseconds.
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

// runServerBench measures what the network hop costs: the examples
// corpus through a real sieve-server over loopback TCP — auth, NDJSON
// encode, HTTP framing, decode — against the identical queries executed
// in process on the same middleware, with row parity enforced between
// the two paths before any number is reported.
func runServerBench() error {
	demo, err := workload.NewDemo(sieve.MySQL())
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Middleware: demo.M, AllowDemoTokens: true})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}()

	ctx := context.Background()
	querier := demo.Querier("auto")
	inSess := demo.M.NewSession(sieve.Metadata{Querier: querier, Purpose: "analytics"})
	wireSess, err := client.New("http://"+l.Addr().String(), "demo:"+querier+"|analytics").
		OpenSession(ctx, "")
	if err != nil {
		return err
	}
	fmt.Printf("sieve-server on %s, querier %s\n\n", l.Addr(), querier)
	fmt.Printf("%-22s %6s %10s %10s %10s %10s %7s\n",
		"query", "rows", "local p50", "local p95", "wire p50", "wire p95", "parity")

	const iters = 15
	var stats []serverBenchStat
	parityFailures := 0
	for _, q := range demo.Campus.CorpusQueries() {
		base, err := inSess.Execute(ctx, q.SQL)
		if err != nil {
			return fmt.Errorf("%s: in-process: %v", q.Name, err)
		}
		var want [][]any // nil when empty, like the wire side
		for _, r := range base.Rows {
			conv := make([]any, len(r))
			for j, v := range r {
				conv[j] = client.FromValue(v)
			}
			want = append(want, conv)
		}

		var local, wire []time.Duration
		parity := true
		for i := 0; i < iters; i++ {
			start := time.Now()
			if _, err := inSess.Execute(ctx, q.SQL); err != nil {
				return fmt.Errorf("%s: in-process: %v", q.Name, err)
			}
			local = append(local, time.Since(start))

			start = time.Now()
			rows, err := wireSess.Query(ctx, q.SQL)
			if err != nil {
				return fmt.Errorf("%s: wire: %v", q.Name, err)
			}
			var got [][]any
			for rows.Next() {
				r := rows.Row()
				cp := make([]any, len(r))
				copy(cp, r)
				got = append(got, cp)
			}
			if err := rows.Err(); err != nil {
				return fmt.Errorf("%s: wire: %v", q.Name, err)
			}
			rows.Close()
			wire = append(wire, time.Since(start))
			if i == 0 && !reflect.DeepEqual(got, want) {
				parity = false
				parityFailures++
			}
		}
		sort.Slice(local, func(i, j int) bool { return local[i] < local[j] })
		sort.Slice(wire, func(i, j int) bool { return wire[i] < wire[j] })
		st := serverBenchStat{
			Name: q.Name, Rows: len(base.Rows),
			LocalP50: percentileUS(local, 50), LocalP95: percentileUS(local, 95),
			WireP50: percentileUS(wire, 50), WireP95: percentileUS(wire, 95),
			Parity: parity,
		}
		stats = append(stats, st)
		mark := "ok"
		if !parity {
			mark = "DIFF"
		}
		fmt.Printf("%-22s %6d %9.0fµ %9.0fµ %9.0fµ %9.0fµ %7s\n",
			st.Name, st.Rows, st.LocalP50, st.LocalP95, st.WireP50, st.WireP95, mark)
	}

	out, err := json.MarshalIndent(map[string]any{
		"iters":   iters,
		"querier": querier,
		"queries": stats,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_server.json", append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote BENCH_server.json (%d queries, %d iterations each)\n", len(stats), iters)
	if parityFailures > 0 {
		return fmt.Errorf("%d corpus queries diverged between wire and in-process", parityFailures)
	}
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
