// Command dynamicpolicies demonstrates §6: each policy insert fires the rP
// trigger, which invalidates the affected querier's guard state, and the
// next query patches the new state from the one the write superseded
// instead of generating it from scratch (a full generation happens only
// once the drift passes k̃). The grants cover rows the querier could not
// see before, so the visible count grows with every write. The query runs
// through a prepared statement, so the same churn also exercises
// prepared-plan invalidation: every write changes the querier's signature
// and the next execution transparently re-rewrites.
package main

import (
	"context"
	"fmt"
	"log"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/internal/workload"
)

const grants = 8

// ownerAP is one (owner, wifiAP) pair of the WiFi relation.
type ownerAP struct{ owner, ap int64 }

// hiddenPairs returns up to n (owner, wifiAP) pairs that have rows in the
// relation but none the session can see, in (owner, wifiAP) order.
func hiddenPairs(campus *workload.Campus, sess *sieve.Session, n int) ([]ownerAP, error) {
	q := "SELECT owner, wifiAP, count(*) FROM " + workload.TableWiFi + " GROUP BY owner, wifiAP ORDER BY owner, wifiAP"
	all, err := campus.DB.Query(q)
	if err != nil {
		return nil, err
	}
	seen, err := sess.Execute(context.Background(), q)
	if err != nil {
		return nil, err
	}
	visible := make(map[ownerAP]bool, len(seen.Rows))
	for _, r := range seen.Rows {
		visible[ownerAP{r[0].I, r[1].I}] = true
	}
	var out []ownerAP
	for _, r := range all.Rows {
		if p := (ownerAP{r[0].I, r[1].I}); !visible[p] && len(out) < n {
			out = append(out, p)
		}
	}
	return out, nil
}

func run() error {
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
	m, err := sieve.New(store, sieve.WithGroups(campus.Groups()))
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

	pairs, err := hiddenPairs(campus, sess, grants)
	if err != nil {
		return err
	}
	stmt, err := m.Prepare("SELECT count(*) FROM " + workload.TableWiFi)
	if err != nil {
		return err
	}
	res, err := stmt.Execute(ctx, sess)
	if err != nil {
		return err
	}
	first := res.Rows[0][0].I
	cs := m.CacheStats()
	fmt.Printf("initial: visible=%d regens=%d states=%d patched=%d rewrites=%d\n",
		first, m.Regens(qm, workload.TableWiFi), cs.GuardStates, cs.GuardPatches, stmt.Rewrites())

	last := first
	for i, pr := range pairs {
		p := &sieve.Policy{
			Owner: pr.owner, Querier: prof, Purpose: "attendance",
			Relation: workload.TableWiFi, Action: sieve.Allow,
			Conditions: []sieve.ObjectCondition{
				sieve.Compare("wifiAP", sieve.Eq, sieve.Int(pr.ap)),
			},
		}
		if err := m.AddPolicy(p); err != nil {
			return err
		}
		res, err := stmt.Execute(ctx, sess)
		if err != nil {
			return err
		}
		last = res.Rows[0][0].I
		cs := m.CacheStats()
		fmt.Printf("+policy %d (owner %d, AP %d): visible=%d regens=%d states=%d patched=%d rewrites=%d\n",
			i+1, pr.owner, pr.ap, last, m.Regens(qm, workload.TableWiFi), cs.GuardStates, cs.GuardPatches, stmt.Rewrites())
	}
	if last <= first {
		return fmt.Errorf("visible never grew from %d across %d grants", first, len(pairs))
	}
	patched := m.CacheStats().GuardPatches
	if patched == 0 {
		return fmt.Errorf("no policy write was absorbed by patching")
	}
	fmt.Printf("visible grew %d -> %d; %d of %d writes absorbed by patching\n", first, last, patched, len(pairs))
	return nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}
