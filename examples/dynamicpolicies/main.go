// Command dynamicpolicies demonstrates §6: policy churn invalidates the
// affected guards through the rP insert trigger, and the middleware either
// regenerates guards eagerly or defers until the optimal insertion count k̃
// while answering from stale guards plus appended arms. The query runs
// through a prepared statement, so the same churn also exercises
// prepared-plan invalidation: every insert bumps the policy epoch and the
// next execution transparently re-rewrites.
package main

import (
	"context"
	"fmt"
	"log"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/internal/workload"
)

func run(mode string, opts ...sieve.Option) error {
	campus, err := workload.BuildCampus(workload.TestCampusConfig(), sieve.MySQL())
	if err != nil {
		return err
	}
	store, err := sieve.NewStore(campus.DB)
	if err != nil {
		return err
	}
	if err := store.BulkLoad(campus.GeneratePolicies(workload.TestPolicyConfig())); err != nil {
		return err
	}
	m, err := sieve.New(store, append([]sieve.Option{sieve.WithGroups(campus.Groups())}, opts...)...)
	if err != nil {
		return err
	}
	if err := m.Protect(workload.TableWiFi); err != nil {
		return err
	}
	prof := workload.TopQueriers(store.All(), 1, 1)[0]
	sess := m.NewSession(sieve.Metadata{Querier: prof, Purpose: "attendance"})
	qm := sess.Metadata()
	ctx := context.Background()

	stmt, err := m.Prepare("SELECT count(*) FROM " + workload.TableWiFi)
	if err != nil {
		return err
	}
	if _, err := stmt.Execute(ctx, sess); err != nil {
		return err
	}
	fmt.Printf("[%s] initial: regens=%d pending=%d rewrites=%d\n",
		mode, m.Regens(qm, workload.TableWiFi), m.PendingPolicies(qm, workload.TableWiFi),
		stmt.Rewrites())

	for i := 0; i < 8; i++ {
		p := &sieve.Policy{
			Owner: int64(i), Querier: prof, Purpose: "attendance",
			Relation: workload.TableWiFi, Action: sieve.Allow,
			Conditions: []sieve.ObjectCondition{
				sieve.Compare("wifiAP", sieve.Eq, sieve.Int(int64(i%4))),
			},
		}
		if err := m.AddPolicy(p); err != nil {
			return err
		}
		res, err := stmt.Execute(ctx, sess)
		if err != nil {
			return err
		}
		fmt.Printf("[%s] +policy %d: visible=%v regens=%d pending=%d rewrites=%d\n",
			mode, i+1, res.Rows[0][0].I, m.Regens(qm, workload.TableWiFi),
			m.PendingPolicies(qm, workload.TableWiFi), stmt.Rewrites())
	}
	return nil
}

func main() {
	fmt.Println("eager regeneration (§5.1 default): every outdated query regenerates")
	if err := run("eager"); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("deferred regeneration (§6): stale guards + pending arms until k̃")
	cfg := sieve.RegenConfig{CG: 1e9, Rpq: 1, MinK: 5, MaxK: 50}
	if err := run("deferred", sieve.WithRegenInterval(cfg)); err != nil {
		log.Fatal(err)
	}
}
