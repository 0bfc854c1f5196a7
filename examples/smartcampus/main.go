// Command smartcampus runs the paper's §2.1 motivating scenario at small
// scale: a generated campus WiFi dataset, a profile-based policy corpus,
// and the professor's attendance analytics, comparing SIEVE's rewrite
// against the classic policy-as-predicates baseline.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/internal/workload"
)

func main() {
	cfg := workload.TestCampusConfig()
	cfg.Devices = 800
	cfg.Days = 30
	campus, err := workload.BuildCampus(cfg, sieve.MySQL())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campus: %d devices, %d APs, %d days, %d connectivity events\n",
		cfg.Devices, cfg.APs, cfg.Days, campus.NumEvents)

	pcfg := workload.TestPolicyConfig()
	pcfg.AdvancedPolicies = 20
	policies := campus.GeneratePolicies(pcfg)
	store, err := sieve.NewStore(campus.DB)
	if err != nil {
		log.Fatal(err)
	}
	if err := store.BulkLoad(policies); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("policies: %d total across %d queriers\n",
		len(policies), len(workload.QuerierCounts(policies)))

	m, err := sieve.New(store, sieve.WithGroups(campus.Groups()))
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Protect(workload.TableWiFi); err != nil {
		log.Fatal(err)
	}

	// The busiest querier plays Prof. Smith; the session binds their
	// identity, purpose, and group resolution once.
	prof := workload.TopQueriers(policies, 1, 1)[0]
	sess := m.NewSession(sieve.Metadata{Querier: prof, Purpose: "attendance"})
	fmt.Printf("querier: %s (%d policies)\n\n", prof, workload.QuerierCounts(policies)[prof])

	query := campus.StudentPerfQuery(1, 3)
	fmt.Println("attendance query:")
	fmt.Println(" ", query)

	ctx := context.Background()
	start := time.Now()
	res, err := sess.Execute(ctx, query)
	if err != nil {
		log.Fatal(err)
	}
	sieveTime := time.Since(start)

	start = time.Now()
	base, err := m.ExecuteBaseline(ctx, sieve.BaselineP, query, sess.Metadata())
	if err != nil {
		log.Fatal(err)
	}
	baseTime := time.Since(start)

	fmt.Printf("\nSIEVE:     %d result rows in %v\n", len(res.Rows), sieveTime)
	fmt.Printf("BaselineP: %d result rows in %v\n", len(base.Rows), baseTime)
	if len(res.Rows) != len(base.Rows) {
		log.Fatal("strategies disagree — soundness violation")
	}

	if ge, ok := m.GuardedExpression(sess.Metadata(), workload.TableWiFi); ok {
		fmt.Printf("\nguarded expression: %d guards over %d policies (Σρ=%.4f)\n",
			len(ge.Guards), ge.PolicyCount(), ge.TotalSel())
		for i, g := range ge.Guards {
			if i == 5 {
				fmt.Printf("  … %d more\n", len(ge.Guards)-5)
				break
			}
			fmt.Printf("  guard %-40s |PG|=%d ρ=%.4f\n", g.Cond.String(), len(g.Policies), g.Sel)
		}
	}
}
