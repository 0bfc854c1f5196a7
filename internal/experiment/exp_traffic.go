package experiment

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/loadgen"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/server"
	"github.com/sieve-db/sieve/internal/workload"
)

// trafficQueries maps a workload corpus onto the harness's query pool,
// marking the shapes the checker can justify row by row.
func trafficQueries(named []workload.NamedQuery, relation string) []loadgen.Query {
	var out []loadgen.Query
	for _, q := range named {
		out = append(out, loadgen.Query{
			Name: q.Name, SQL: q.SQL,
			RowCheck: strings.HasPrefix(q.SQL, "SELECT * FROM "+relation),
		})
	}
	return out
}

// TrafficScenario builds a fresh environment and scenario for one
// workload ("campus", "mall", or "hospital"); each caller gets its own so
// runs stay independent.
func TrafficScenario(cfg Config, name string) (*loadgen.Scenario, error) {
	switch name {
	case "campus":
		env, err := NewCampusEnv(cfg, engine.MySQL())
		if err != nil {
			return nil, err
		}
		queriers := workload.TopQueriers(env.Policies, 24, 1)
		var owners []int64
		for _, u := range env.Campus.ResidentUsers() {
			owners = append(owners, u.ID)
			if len(owners) == 16 {
				break
			}
		}
		return &loadgen.Scenario{
			Name: name, M: env.M, Relation: workload.TableWiFi,
			Schema:       env.Campus.DB.MustTable(workload.TableWiFi).Schema,
			Purpose:      "analytics",
			Queriers:     queriers,
			DenyQueriers: []string{"intruder:1", "intruder:2"},
			ChurnQuerier: "churn:campus",
			ChurnGroups:  []string{workload.GroupName(0), workload.GroupName(1)},
			ChurnOwners:  owners,
			Groups:       env.Campus.Groups(),
			BasePolicies: env.Policies,
			Queries:      trafficQueries(env.Campus.CorpusQueries(), workload.TableWiFi),
		}, nil
	case "mall":
		env, err := NewMallEnv(cfg, engine.MySQL())
		if err != nil {
			return nil, err
		}
		queriers := workload.TopQueriers(env.Policies, 24, 1)
		var owners []int64
		for i := 0; i < 16 && i < len(env.Mall.Customers); i++ {
			owners = append(owners, env.Mall.Customers[i].ID)
		}
		return &loadgen.Scenario{
			Name: name, M: env.M, Relation: workload.TableMallWiFi,
			Schema:       env.Mall.DB.MustTable(workload.TableMallWiFi).Schema,
			Purpose:      "marketing",
			Queriers:     queriers,
			DenyQueriers: []string{"intruder:1", "intruder:2"},
			ChurnQuerier: "churn:mall",
			ChurnOwners:  owners,
			Groups:       policy.NoGroups,
			BasePolicies: env.Policies,
			Queries:      trafficQueries(env.Mall.CorpusQueries(), workload.TableMallWiFi),
		}, nil
	case "hospital":
		env, err := NewHospitalEnv(cfg, engine.MySQL())
		if err != nil {
			return nil, err
		}
		// Staff queriers, not group principals: every access resolves
		// through the hospital → department → ward → role hierarchy.
		var queriers []string
		for _, s := range env.Hospital.Staff {
			queriers = append(queriers, s.Querier())
		}
		var owners []int64
		for i := 0; i < 16 && i < len(env.Hospital.Patients); i++ {
			owners = append(owners, env.Hospital.Patients[i].ID)
		}
		return &loadgen.Scenario{
			Name: name, M: env.M, Relation: workload.TableVitals,
			Schema:       env.Hospital.DB.MustTable(workload.TableVitals).Schema,
			Purpose:      "treatment",
			Queriers:     queriers,
			DenyQueriers: []string{"intruder:1", "intruder:2"},
			ChurnQuerier: "churn:hospital",
			ChurnGroups: []string{workload.WardGroup(0, 0), workload.DeptGroup(1),
				workload.RoleGroup("nurse")},
			ChurnOwners:  owners,
			Groups:       env.Hospital.Groups(),
			BasePolicies: env.Policies,
			Queries:      trafficQueries(env.Hospital.CorpusQueries(), workload.TableVitals),
		}, nil
	}
	return nil, fmt.Errorf("experiment: unknown traffic workload %q", name)
}

// Traffic is the invariant soak: for each of the campus, mall, and
// hospital workloads, in process and over the sieve-server wire path,
// concurrent Zipf-skewed queriers run a mixed op workload under policy
// churn while the two-legal-worlds checker watches every row. Any
// violation or op error — or a cell whose checker or churn never ran —
// fails the experiment. The latencies in the table are context for the
// soak, not measurements; bash benchmark/run.sh measures.
func Traffic(cfg Config) (*Table, error) {
	if cfg.TrafficWorkers < 1 || cfg.TrafficOps < 1 {
		return nil, fmt.Errorf("experiment: traffic worker/op counts are empty (set TrafficWorkers, TrafficOps)")
	}
	lcfg := loadgen.Config{
		// The driver seed is offset from the master seed so it never
		// collides with the generator seeds ApplySeed derives.
		Seed:        cfg.Seed + 4,
		Workers:     cfg.TrafficWorkers,
		Ops:         cfg.TrafficOps,
		StreamLimit: cfg.TrafficStreamLimit,
		ZipfQuerier: cfg.TrafficZipf,
		ZipfQuery:   cfg.TrafficZipf,
		Mix:         loadgen.DefaultMix(),
		Churn:       true,
		ChurnHold:   cfg.TrafficChurnHold,
		DenyEvery:   cfg.TrafficDenyEvery,
	}
	tab := &Table{
		ID:      "Traffic",
		Title:   "Heavy-traffic mixed workload under policy churn (µs)",
		Headers: []string{"workload", "mode", "ops", "rows", "err", "p50", "p95", "p99", "rows/s", "checked", "viol"},
		Notes: []string{
			fmt.Sprintf("seed %d: %d workers × %d ops, mix stream/exhaust/prepared/backend %d/%d/%d/%d, Zipf s=%.2f",
				cfg.Seed, lcfg.Workers, lcfg.Ops, lcfg.Mix.Stream, lcfg.Mix.Exhaust, lcfg.Mix.Prepared, lcfg.Mix.Backend, lcfg.ZipfQuerier),
			"every row is held live to the two-legal-worlds bound under churn; default-deny queriers must stay empty",
		},
	}
	ctx := context.Background()
	var failures []string
	for _, wl := range []string{"campus", "mall", "hospital"} {
		for _, mode := range []string{"inproc", "server"} {
			sc, err := TrafficScenario(cfg, wl)
			if err != nil {
				return nil, err
			}
			var run *loadgen.Report
			if mode == "inproc" {
				run, err = loadgen.Run(ctx, sc, lcfg, loadgen.NewInProcFactory(sc.M))
			} else {
				run, err = runTrafficServer(ctx, sc, lcfg)
			}
			if err != nil {
				return nil, fmt.Errorf("experiment: traffic %s/%s: %w", wl, mode, err)
			}
			if run.Failed() {
				failures = append(failures, fmt.Sprintf("%s/%s: %d violations, %d op errors: %s",
					wl, mode, run.Violations.Total(), run.Errors,
					strings.Join(append(run.ViolationSamples, run.ErrorSamples...), "; ")))
			} else if run.RowsChecked == 0 || run.ChurnAdds == 0 || run.ChurnRevokes == 0 {
				failures = append(failures, fmt.Sprintf("%s/%s: vacuous run: %d rows checked, %d grants, %d revokes",
					wl, mode, run.RowsChecked, run.ChurnAdds, run.ChurnRevokes))
			}
			tab.Rows = append(tab.Rows, []string{
				wl, mode,
				fmt.Sprintf("%d", run.Ops), fmt.Sprintf("%d", run.Rows), fmt.Sprintf("%d", run.Errors),
				fmt.Sprintf("%.0f", run.P50us), fmt.Sprintf("%.0f", run.P95us), fmt.Sprintf("%.0f", run.P99us),
				fmt.Sprintf("%.0f", run.RowsPerSec),
				fmt.Sprintf("%d", run.RowsChecked),
				fmt.Sprintf("%d", run.Violations.Total()),
			})
		}
	}
	if len(failures) > 0 {
		return nil, fmt.Errorf("experiment: traffic: %d of %d cells failed: %s", len(failures), len(tab.Rows), strings.Join(failures, "; "))
	}
	return tab, nil
}

// runTrafficServer boots an in-process sieve-server on the scenario's
// middleware and drives the same load over loopback HTTP. Policy churn
// keeps mutating the middleware directly, so the wire path runs under the
// same two-legal-worlds conditions.
func runTrafficServer(ctx context.Context, sc *loadgen.Scenario, lcfg loadgen.Config) (*loadgen.Report, error) {
	srv, err := server.New(server.Config{Middleware: sc.M, AllowDemoTokens: true})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
		<-done
	}()
	return loadgen.Run(ctx, sc, lcfg, loadgen.NewWireFactory("http://"+l.Addr().String()))
}
