// Command sieve-explain shows what SIEVE does to a query: the guarded
// expression generated for the querier, the strategy decision with its
// modelled costs, the rewritten SQL, the per-dialect emitted SQL, and the
// engine's plan — over a generated demo campus.
//
//	sieve-explain -dialect mysql -query "SELECT * FROM WiFi_Dataset" -querier auto
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/internal/cli"
	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/workload"
)

func main() {
	fs, opts := cli.ExplainFlags("SELECT * FROM " + workload.TableWiFi)
	_ = fs.Parse(os.Args[1:])

	var d sieve.Dialect
	switch opts.Dialect {
	case "mysql":
		d = sieve.MySQL()
	case "postgres":
		d = sieve.Postgres()
	default:
		fmt.Fprintf(os.Stderr, "unknown dialect %q\n", opts.Dialect)
		os.Exit(2)
	}

	demo, err := workload.NewDemo(d)
	if err != nil {
		log.Fatal(err)
	}
	campus := demo.Campus
	if opts.Workers > 0 {
		campus.DB.ScanWorkers = opts.Workers
	}

	qm := sieve.Metadata{Querier: demo.Querier(opts.Querier), Purpose: opts.Purpose}
	sess := demo.M.NewSession(qm)
	fmt.Printf("dialect : %s\nquerier : %s (purpose %s)\nquery   : %s\n\n", d.Name(), qm.Querier, opts.Purpose, opts.Query)

	// One policy rewrite serves the rewritten text, both emissions, and
	// the engine plan below.
	stmt, report, err := demo.M.RewriteQuery(opts.Query, qm)
	if err != nil {
		log.Fatal(err)
	}
	rewritten := sqlparser.Print(stmt)
	for i, dec := range report.Decisions {
		fmt.Printf("table %s as %s:\n", dec.Relation, report.GuardedCTEs[i].Name)
		fmt.Printf("  strategy        : %s\n", dec.Strategy)
		fmt.Printf("  guards          : %d (%d via Δ)\n", dec.Guards, dec.DeltaGuards)
		fmt.Printf("  policies        : %d (+%d pending)\n", dec.Policies, dec.PendingPolicies)
		fmt.Printf("  segments        : %d/%d prunable by guard zone maps\n", dec.SegmentsPrunable, dec.SegmentsTotal)
		fmt.Printf("  cost LinearScan : %s\n", cost(dec.CostLinearScan))
		fmt.Printf("  cost IndexQuery : %s (index %s)\n", cost(dec.CostIndexQuery), orDash(dec.QueryIndex))
		fmt.Printf("  cost IndexGuards: %s\n", cost(dec.CostIndexGuards))
		shared := "generated for this querier"
		if dec.SharedState {
			shared = "shared from another querier's generation"
		}
		fmt.Printf("  signature       : %s (%s)\n", dec.Signature, shared)
	}
	if ge, ok := demo.M.GuardedExpression(qm, workload.TableWiFi); ok {
		fmt.Printf("\n%s\n", ge.String())
	}

	fmt.Println("rewritten SQL:")
	fmt.Println(" ", rewritten)

	fmt.Println("\nemitted SQL:")
	for _, dialect := range []string{"mysql", "postgres"} {
		e, err := sieve.EmitterFor(dialect)
		if err != nil {
			log.Fatal(err)
		}
		em, err := e.Emit(stmt, report.GuardedCTEs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  [%s] %s\n", em.Dialect, em.SQL)
		for i, a := range em.Args {
			fmt.Printf("    arg %d: %s\n", i+1, a.String())
		}
	}

	plan, err := campus.DB.Explain(stmt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nengine plan:\n%s", plan.String())

	// Execute to completion, so a scan of more than one segment reaches its
	// fan-out, and report the executor's actual segment accounting.
	campus.DB.ResetCounters()
	ctx := context.Background()
	var tr *obs.Span
	if opts.Trace {
		tr = obs.NewTrace("query")
		ctx = obs.WithSpan(ctx, tr)
	}
	res, err := sess.Execute(ctx, opts.Query)
	if err != nil {
		log.Fatal(err)
	}
	if tr != nil {
		tr.Finish()
		fmt.Println("\ntrace:")
		tr.Node().Format(os.Stdout)
	}
	c := campus.DB.CountersSnapshot()
	fmt.Printf("\nresult: %d rows\n", len(res.Rows))
	fmt.Printf("executor: %d tuples read, %d segments scanned, %d pruned (zero tuple reads), %d parallel scans (workers=%d)\n",
		c.TuplesRead, c.SegmentsScanned, c.SegmentsPruned, c.ParallelScans, campus.DB.EffectiveScanWorkers())
	fmt.Printf("vectorised: %d batches / %d rows batch-evaluated\n", c.BatchesVectorised, c.RowsVectorised)

	cs := demo.M.CacheStats()
	fmt.Printf("guard cache: %d hits / %d misses, %d generations (%d patched), %d shared bindings, %d live states for %d claims\n",
		cs.GuardCacheHits, cs.GuardCacheMisses, cs.GuardRegens, cs.GuardPatches, cs.GuardShares, cs.GuardStates, cs.Claims)
	fmt.Printf("invalidation: %d churn events touched %d claims; plan cache %d hits / %d misses\n",
		cs.ScopedInvalidations, cs.ClaimsInvalidated, cs.PlanCacheHits, cs.PlanCacheMisses)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func cost(c float64) string {
	if c >= 1e300 {
		return "∞ (no usable query index)"
	}
	return fmt.Sprintf("%.0f", c)
}
