package sieve_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§7), each delegating to the internal/experiment harness that
// regenerates the corresponding result, plus micro-benchmarks of SIEVE's
// building blocks (guard generation, rewriting, Δ evaluation, parsing).
//
// By default benchmarks run at test scale so `go test -bench=.` finishes
// quickly; set SIEVE_SCALE=bench for the paper-scaled corpora used in
// EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"os"
	"testing"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/internal/experiment"
	"github.com/sieve-db/sieve/internal/guard"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/workload"
)

func benchCfg() experiment.Config {
	if os.Getenv("SIEVE_SCALE") == "bench" {
		return experiment.BenchConfig()
	}
	return experiment.TestConfig()
}

func runExperiment(b *testing.B, fn func(experiment.Config) (*experiment.Table, error)) {
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := fn(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty experiment table")
		}
	}
}

// BenchmarkFigure2GuardGeneration regenerates Figure 2 (guard generation
// cost vs policy count).
func BenchmarkFigure2GuardGeneration(b *testing.B) {
	runExperiment(b, experiment.GuardGenCost)
}

// BenchmarkTable6GuardQuality regenerates Table 6 (guard quality stats).
func BenchmarkTable6GuardQuality(b *testing.B) {
	runExperiment(b, experiment.GuardQuality)
}

// BenchmarkTable7GuardQuadrants regenerates Table 7 (eval time by guard
// count × cardinality quadrant).
func BenchmarkTable7GuardQuadrants(b *testing.B) {
	runExperiment(b, experiment.GuardQuadrants)
}

// BenchmarkFigure3InlineVsDelta regenerates Figure 3 (Inline vs Δ).
func BenchmarkFigure3InlineVsDelta(b *testing.B) {
	runExperiment(b, experiment.InlineVsDelta)
}

// BenchmarkFigure4IndexChoice regenerates Figure 4 (IndexQuery vs
// IndexGuards).
func BenchmarkFigure4IndexChoice(b *testing.B) {
	runExperiment(b, experiment.IndexChoice)
}

// BenchmarkTable8Overall regenerates Table 8 (overall comparison).
func BenchmarkTable8Overall(b *testing.B) {
	runExperiment(b, experiment.OverallComparison)
}

// BenchmarkTable9Q1ByProfile regenerates Table 9.
func BenchmarkTable9Q1ByProfile(b *testing.B) {
	runExperiment(b, func(c experiment.Config) (*experiment.Table, error) {
		return experiment.OverallByProfile(c, workload.Q1)
	})
}

// BenchmarkTable10Q2ByProfile regenerates Table 10.
func BenchmarkTable10Q2ByProfile(b *testing.B) {
	runExperiment(b, func(c experiment.Config) (*experiment.Table, error) {
		return experiment.OverallByProfile(c, workload.Q2)
	})
}

// BenchmarkTable11Q3ByProfile regenerates Table 11.
func BenchmarkTable11Q3ByProfile(b *testing.B) {
	runExperiment(b, func(c experiment.Config) (*experiment.Table, error) {
		return experiment.OverallByProfile(c, workload.Q3)
	})
}

// BenchmarkFigure5Postgres regenerates Figure 5 (dialect comparison).
func BenchmarkFigure5Postgres(b *testing.B) {
	runExperiment(b, experiment.PostgresComparison)
}

// BenchmarkFigure6MallScalability regenerates Figure 6 (Mall speedup).
func BenchmarkFigure6MallScalability(b *testing.B) {
	runExperiment(b, experiment.MallScalability)
}

// BenchmarkAblationDesignChoices regenerates the design-choice ablations.
func BenchmarkAblationDesignChoices(b *testing.B) {
	runExperiment(b, experiment.Ablations)
}

// BenchmarkDynamicRegeneration regenerates the §6 full-vs-patched sweep.
func BenchmarkDynamicRegeneration(b *testing.B) {
	runExperiment(b, func(c experiment.Config) (*experiment.Table, error) {
		return experiment.DynamicRegeneration(c, 6)
	})
}

// --- micro-benchmarks -------------------------------------------------

// benchEnv builds one campus + middleware for micro-benchmarks.
func benchEnv(b *testing.B, d sieve.Dialect) (*experiment.CampusEnv, sieve.Metadata) {
	b.Helper()
	env, err := experiment.NewCampusEnv(benchCfg(), d)
	if err != nil {
		b.Fatal(err)
	}
	q := workload.TopQueriers(env.Policies, 1, 1)
	if len(q) == 0 {
		b.Fatal("no queriers")
	}
	qm := sieve.Metadata{Querier: q[0], Purpose: policy.AnyPurpose}
	// Pick the dominant concrete purpose instead of "any".
	for _, p := range env.Policies {
		if p.Querier == q[0] && p.Purpose != policy.AnyPurpose {
			qm.Purpose = p.Purpose
			break
		}
	}
	return env, qm
}

// BenchmarkGuardGenerationSingleQuerier measures §4's pipeline for one
// querier's policy set.
func BenchmarkGuardGenerationSingleQuerier(b *testing.B) {
	env, qm := benchEnv(b, sieve.MySQL())
	var ps []*policy.Policy
	for _, p := range env.Policies {
		if p.Querier == qm.Querier {
			ps = append(ps, p)
		}
	}
	stats, _ := env.Campus.DB.Stats(workload.TableWiFi)
	t := env.Campus.DB.MustTable(workload.TableWiFi)
	indexed := map[string]bool{}
	for _, c := range t.IndexedColumns() {
		indexed[c] = true
	}
	sel := &guard.TableSelectivity{Stats: stats, IndexedCols: indexed}
	cm := guard.DefaultCostModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := guard.Generate(ps, workload.TableWiFi, qm.Querier, qm.Purpose, sel, cm); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ps)), "policies")
}

// BenchmarkRewriteSelectAll measures the middleware's rewrite path alone
// (guards cached after the first iteration).
func BenchmarkRewriteSelectAll(b *testing.B) {
	env, qm := benchEnv(b, sieve.MySQL())
	q := "SELECT * FROM " + workload.TableWiFi
	if _, _, err := env.M.NewSession(qm).Rewrite(q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := env.M.NewSession(qm).Rewrite(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteSieveVsBaselineP reports both paths side by side.
func BenchmarkExecuteSieveVsBaselineP(b *testing.B) {
	for _, strat := range []string{"SIEVE", "BaselineP"} {
		b.Run(strat, func(b *testing.B) {
			env, qm := benchEnv(b, sieve.MySQL())
			q := "SELECT * FROM " + workload.TableWiFi
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if strat == "SIEVE" {
					_, err = env.M.NewSession(qm).Execute(context.Background(), q)
				} else {
					_, err = env.M.ExecuteBaseline(context.Background(), sieve.BaselineP, q, qm)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPreparedVsExecute quantifies what Stmt amortises: Execute
// parses and policy-rewrites on every call, while a prepared statement
// pays the parse once and reuses the rewritten plan per
// (querier, purpose) until a policy change invalidates it.
func BenchmarkPreparedVsExecute(b *testing.B) {
	env, qm := benchEnv(b, sieve.MySQL())
	q := "SELECT * FROM " + workload.TableWiFi
	ctx := context.Background()
	// Warm the guard cache so neither arm measures guard generation.
	if _, err := env.M.NewSession(qm).Execute(ctx, q); err != nil {
		b.Fatal(err)
	}

	b.Run("Execute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := env.M.NewSession(qm).Execute(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Prepared", func(b *testing.B) {
		sess := env.M.NewSession(qm)
		stmt, err := env.M.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Execute(ctx, sess); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if stmt.Rewrites() != 1 {
			b.Fatalf("prepared plan rewritten %d times, want 1", stmt.Rewrites())
		}
	})
	b.Run("PreparedStream10", func(b *testing.B) {
		// Streaming the first 10 rows then closing: the early-termination
		// path a paginating caller takes.
		sess := env.M.NewSession(qm)
		stmt, err := env.M.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := stmt.Query(ctx, sess)
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 10 && rows.Next(); j++ {
			}
			if err := rows.Err(); err != nil {
				b.Fatal(err)
			}
			rows.Close()
		}
	})
}

// BenchmarkDeltaOperator measures the Δ UDF's per-tuple evaluation.
func BenchmarkDeltaOperator(b *testing.B) {
	env, qm := benchEnv(b, sieve.MySQL())
	m, err := sieve.New(env.Store, sieve.WithGroups(env.Campus.Groups()), sieve.WithDeltaThreshold(1))
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Protect(workload.TableWiFi); err != nil {
		b.Fatal(err)
	}
	q := "SELECT * FROM " + workload.TableWiFi
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.NewSession(qm).Execute(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(env.Campus.DB.Counters.PolicyEvals)/float64(b.N), "policy-evals/op")
}

// BenchmarkParserCampusQueries measures the SQL front end on generated
// workload queries.
func BenchmarkParserCampusQueries(b *testing.B) {
	env, _ := benchEnv(b, sieve.MySQL())
	queries := env.Campus.Queries(workload.Q1, workload.Mid, 16, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparser.Parse(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineIndexScan measures the substrate's index path against its
// sequential path on the same predicate.
func BenchmarkEngineIndexScan(b *testing.B) {
	env, _ := benchEnv(b, sieve.MySQL())
	db := env.Campus.DB
	for _, mode := range []string{"index", "seq"} {
		q := fmt.Sprintf("SELECT count(*) FROM %s WHERE owner = 5", workload.TableWiFi)
		if mode == "seq" {
			q = fmt.Sprintf("SELECT count(*) FROM %s USE INDEX () WHERE owner = 5", workload.TableWiFi)
		}
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
