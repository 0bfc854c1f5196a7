// Command mall runs the §7.1 Mall scenario on the postgres dialect: shops
// query customer connectivity under customer-defined policies, and the
// SIEVE-vs-baseline speedup is swept over growing policy counts
// (Experiment 5's shape at example scale).
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
	cfg := workload.TestMallConfig()
	cfg.Customers = 800
	cfg.Days = 30
	mall, err := workload.BuildMall(cfg, sieve.Postgres())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mall: %d customers, %d shops, %d events\n",
		cfg.Customers, cfg.Shops, mall.NumEvents)

	policies := mall.GeneratePolicies(7, 10)
	store, err := sieve.NewStore(mall.DB)
	if err != nil {
		log.Fatal(err)
	}
	if err := store.BulkLoad(policies); err != nil {
		log.Fatal(err)
	}
	m, err := sieve.New(store)
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Protect(workload.TableMallWiFi); err != nil {
		log.Fatal(err)
	}

	counts := workload.QuerierCounts(policies)
	shops := workload.TopQueriers(policies, 3, 10)
	if len(shops) == 0 {
		log.Fatal("no heavy shop queriers generated")
	}
	fmt.Printf("policies: %d total; measuring shops %v\n\n", len(policies), shops)

	// One prepared statement shared by every shop session: the parse is
	// paid once, the rewrite once per shop.
	query := mall.SelectAllQuery()
	stmt, err := m.Prepare(query)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	fmt.Printf("%-12s %-10s %-12s %-12s %s\n", "shop", "policies", "baseline", "sieve", "speedup")
	for _, shop := range shops {
		sess := m.NewSession(sieve.Metadata{Querier: shop, Purpose: "marketing"})
		start := time.Now()
		base, err := m.ExecuteBaseline(ctx, sieve.BaselineP, query, sess.Metadata())
		if err != nil {
			log.Fatal(err)
		}
		baseT := time.Since(start)
		start = time.Now()
		res, err := stmt.Execute(ctx, sess)
		if err != nil {
			log.Fatal(err)
		}
		sieveT := time.Since(start)
		if len(res.Rows) != len(base.Rows) {
			log.Fatalf("shop %s: row mismatch %d vs %d", shop, len(res.Rows), len(base.Rows))
		}
		fmt.Printf("%-12s %-10d %-12v %-12v %.2fx\n",
			shop, counts[shop], baseT, sieveT, float64(baseT)/float64(sieveT))
	}
}
