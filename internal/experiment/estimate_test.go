package experiment

import (
	"context"
	"fmt"
	"testing"

	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/workload"
)

// TestLinearScanEstimateIsConservative audits the model against execution
// in counters, not time: under a forced LinearScan, the segments the rewrite
// predicts the guarded scan will skip (TableDecision.SegmentsPrunable, the
// estimate behind CostLinearScan) never exceed the segments the executed
// query did skip. The estimate sees the guards alone; the scan also has the
// query's own predicates, so it may prune more and must never prune less.
func TestLinearScanEstimateIsConservative(t *testing.T) {
	cfg := TestConfig()
	forced := core.WithForcedStrategy(core.LinearScan)

	type world struct {
		name    string
		m       *core.Middleware
		table   string
		queries []workload.NamedQuery
		qms     []policy.Metadata
	}
	var worlds []world

	campus, err := NewCampusEnv(cfg, engine.MySQL(), forced)
	if err != nil {
		t.Fatal(err)
	}
	worlds = append(worlds, world{"campus", campus.M, workload.TableWiFi, campus.Campus.CorpusQueries(), pickQueriers(campus, 6)})

	mall, err := NewMallEnv(cfg, engine.MySQL(), forced)
	if err != nil {
		t.Fatal(err)
	}
	w := world{name: "mall", m: mall.M, table: workload.TableMallWiFi, queries: mall.Mall.CorpusQueries()}
	for _, q := range workload.TopQueriers(mall.Policies, 6, 1) {
		w.qms = append(w.qms, policy.Metadata{Querier: q, Purpose: "marketing"})
	}
	worlds = append(worlds, w)

	hospital, err := NewHospitalEnv(cfg, engine.MySQL(), forced)
	if err != nil {
		t.Fatal(err)
	}
	// Staff queriers, not group principals: access resolves through the
	// hospital → department → ward → role hierarchy.
	w = world{name: "hospital", m: hospital.M, table: workload.TableVitals, queries: hospital.Hospital.CorpusQueries()}
	for i := 0; i < 6 && i < len(hospital.Hospital.Staff); i++ {
		w.qms = append(w.qms, policy.Metadata{Querier: hospital.Hospital.Staff[i].Querier(), Purpose: "treatment"})
	}
	worlds = append(worlds, w)

	ctx := context.Background()
	var pairs, nonZero int
	var violations []string
	for _, w := range worlds {
		tbl := w.m.DB().MustTable(w.table)
		tbl.SetSegmentSize(tbl.NumRows()/12 + 1)
		if n := tbl.SegmentCount(); n < 8 {
			t.Fatalf("%s: %d segments, want at least 8", w.name, n)
		}
		if len(w.qms) == 0 {
			t.Fatalf("%s: no queriers", w.name)
		}
		for _, qm := range w.qms {
			sess := w.m.NewSession(qm)
			for _, q := range w.queries {
				pair := fmt.Sprintf("%s/%s/%s", w.name, qm.Querier, q.Name)
				_, rep, err := sess.Rewrite(q.SQL)
				if err != nil {
					t.Fatalf("%s: %v", pair, err)
				}
				est := 0
				for _, d := range rep.Decisions {
					if d.Strategy != core.LinearScan {
						t.Fatalf("%s: strategy %s under a forced LinearScan", pair, d.Strategy)
					}
					est += d.SegmentsPrunable
				}
				rows, err := sess.Query(ctx, q.SQL)
				if err != nil {
					t.Fatalf("%s: %v", pair, err)
				}
				for rows.Next() {
				}
				if err := rows.Err(); err != nil {
					t.Fatalf("%s: %v", pair, err)
				}
				rows.Close()
				actual := int(rows.Counters().SegmentsPruned)
				pairs++
				if est > 0 {
					nonZero++
				}
				if est > actual {
					violations = append(violations, fmt.Sprintf("%s: estimated %d prunable, scan pruned %d", pair, est, actual))
				}
			}
		}
	}
	for _, v := range violations {
		t.Error(v)
	}
	if nonZero*3 < pairs {
		t.Fatalf("the estimate is non-zero on %d of %d pairs, want at least a third", nonZero, pairs)
	}
	t.Logf("%d pairs, %d with a non-zero estimate, %d violations", pairs, nonZero, len(violations))
}
