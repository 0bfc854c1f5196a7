package core_test

import (
	"slices"
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/workload"
)

// TestExplainShowsGuardedScan: EXPLAIN of a rewritten corpus statement
// lists the guarded CTE's base scan with the access path its strategy's
// hint forces: the guard columns' indexes under IndexGuards, a sequential
// scan with its segment accounting under LinearScan (USE INDEX ()), and
// the query's index under IndexQuery.
func TestExplainShowsGuardedScan(t *testing.T) {
	campus, err := workload.BuildCampus(workload.TestCampusConfig(), engine.MySQL())
	if err != nil {
		t.Fatal(err)
	}
	policies := campus.GeneratePolicies(workload.TestPolicyConfig())
	store, err := policy.NewStore(campus.DB)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.BulkLoad(policies); err != nil {
		t.Fatal(err)
	}
	qm := policy.Metadata{Querier: workload.TopQueriers(policies, 1, 1)[0], Purpose: "analytics"}
	q := campus.CorpusQueries()[0] // Q1_low: wifiAP, ts_time and ts_date predicates
	for _, s := range []core.Strategy{core.IndexGuards, core.LinearScan, core.IndexQuery} {
		t.Run(string(s), func(t *testing.T) {
			m, err := core.New(store, core.WithGroups(campus.Groups()), core.WithForcedStrategy(s))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Protect(workload.TableWiFi); err != nil {
				t.Fatal(err)
			}
			stmt, rep, err := m.RewriteQuery(q.SQL, qm)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Decisions) != 1 || rep.Decisions[0].Strategy != s {
				t.Fatalf("%s: decisions %+v, want one %s", q.Name, rep.Decisions, s)
			}
			ex, err := campus.DB.Explain(stmt)
			if err != nil {
				t.Fatal(err)
			}
			i := slices.IndexFunc(ex.Tables, func(ta engine.TableAccess) bool {
				return ta.Table == workload.TableWiFi && ta.Kind != engine.AccessDerived
			})
			if i < 0 {
				t.Fatalf("no guarded scan of %s in\n%s", workload.TableWiFi, ex)
			}
			scan := ex.Tables[i]
			switch s {
			case core.IndexGuards:
				if scan.Kind != engine.AccessIndex && scan.Kind != engine.AccessBitmapOr {
					t.Fatalf("scan %s, want an index fetch\n%s", scan.Kind, ex)
				}
				for _, col := range strings.Split(scan.Index, ",") {
					if !slices.ContainsFunc(rep.GuardedCTEs[0].Arms, func(a engine.GuardArm) bool { return a.Col == col }) {
						t.Errorf("fetch on %q, not a guard column\n%s", col, ex)
					}
				}
			case core.LinearScan:
				if scan.Kind != engine.AccessSeq || !strings.Contains(ex.String(), "segs=") {
					t.Fatalf("scan %s, want seq with segs=\n%s", scan.Kind, ex)
				}
			case core.IndexQuery:
				if scan.Kind != engine.AccessIndex || scan.Index == "" || scan.Index != rep.Decisions[0].QueryIndex ||
					!strings.Contains(q.SQL, "W."+scan.Index+" ") {
					t.Fatalf("scan %s on %q, want an index fetch on the query's column %q\n%s", scan.Kind, scan.Index, rep.Decisions[0].QueryIndex, ex)
				}
			}
		})
	}
}
