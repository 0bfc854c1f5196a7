package experiment

import (
	"context"
	"fmt"
	"time"

	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/guard"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/workload"
)

// Ablations measures the contribution of SIEVE's individual design choices,
// as the paper introduces them: Theorem 1 range merging (§4.1),
// utility-greedy guard grouping versus naive per-owner guards (§4.2), index
// usage hints on the mysql dialect (§5.3, §5.5), and the Δ threshold
// (§5.4).
func Ablations(cfg Config) (*Table, error) {
	tab := &Table{
		ID:      "Ablation",
		Title:   "Design-choice ablations, SELECT-ALL averaged over heavy queriers (ms)",
		Headers: []string{"variant", "avg ms", "avg guards"},
	}
	variants := []struct {
		name string
		opts []core.Option
	}{
		{"SIEVE (full)", nil},
		{"no range merging", []core.Option{core.WithGuardGenOptions(guard.GenOptions{NoMerge: true})}},
		{"owner-only guards", []core.Option{core.WithGuardGenOptions(guard.GenOptions{OwnerOnly: true})}},
		{"no index hints", []core.Option{core.WithoutHints()}},
		{"no delta (inline only)", []core.Option{core.WithDeltaThreshold(0)}},
		{"always delta", []core.Option{core.WithDeltaThreshold(1)}},
		{"forced LinearScan", []core.Option{core.WithForcedStrategy(core.LinearScan)}},
	}
	for _, v := range variants {
		avg, guards, err := runAblationVariant(cfg, v.opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		tab.Rows = append(tab.Rows, []string{v.name, ms(avg), fmt.Sprintf("%.1f", guards)})
	}
	return tab, nil
}

func runAblationVariant(cfg Config, opts []core.Option) (time.Duration, float64, error) {
	env, err := NewCampusEnv(cfg, engine.MySQL(), opts...)
	if err != nil {
		return 0, 0, err
	}
	queriers := pickQueriers(env, cfg.Queriers)
	if len(queriers) == 0 {
		return 0, 0, fmt.Errorf("no queriers")
	}
	qAll := "SELECT * FROM " + workload.TableWiFi
	var total time.Duration
	var guards float64
	for _, qm := range queriers {
		sess := env.M.NewSession(qm)
		avg, _, err := timed(cfg.Reps, cfg.Timeout, func() error {
			_, err := sess.Execute(context.Background(), qAll)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		total += avg
		if ge, ok := env.M.GuardedExpression(qm, workload.TableWiFi); ok {
			guards += float64(len(ge.Guards))
		}
	}
	n := time.Duration(len(queriers))
	return total / n, guards / float64(len(queriers)), nil
}

// DynamicRegeneration measures §6 under policy churn: a mixed
// insert/query stream served by full generation on every write (full:
// InvalidateAll before each read drops the states a write would patch from)
// against the default, which patches each new state from the one the write
// superseded and generates in full only past k̃. It reports the total time,
// the guard states built and how many of them were full generations.
func DynamicRegeneration(cfg Config, inserts int) (*Table, error) {
	tab := &Table{
		ID:      "Section 6",
		Title:   "Full vs k̃-bounded patched guard regeneration under policy churn",
		Headers: []string{"mode", "total ms", "states built", "full generations"},
	}
	for _, mode := range []string{"full", "patched"} {
		env, err := NewCampusEnv(cfg, engine.MySQL())
		if err != nil {
			return nil, err
		}
		queriers := pickQueriers(env, 1)
		if len(queriers) == 0 {
			return nil, fmt.Errorf("no queriers")
		}
		qm := queriers[0]
		sess := env.M.NewSession(qm)
		qAll := "SELECT * FROM " + workload.TableWiFi
		read := func() error {
			if mode == "full" {
				env.M.InvalidateAll()
			}
			_, err := sess.Execute(context.Background(), qAll)
			return err
		}
		before := env.M.CacheStats()
		start := time.Now()
		if err := read(); err != nil {
			return nil, err
		}
		for i := 0; i < inserts; i++ {
			p := &policy.Policy{
				Owner: int64(i % cfg.Campus.Devices), Querier: qm.Querier, Purpose: qm.Purpose,
				Relation: workload.TableWiFi, Action: policy.Allow,
			}
			if err := env.M.AddPolicy(p); err != nil {
				return nil, err
			}
			if err := read(); err != nil {
				return nil, err
			}
		}
		total := time.Since(start)
		after := env.M.CacheStats()
		built := after.GuardRegens - before.GuardRegens
		full := built - (after.GuardPatches - before.GuardPatches)
		tab.Rows = append(tab.Rows, []string{mode, ms(total), fmt.Sprintf("%d", built), fmt.Sprintf("%d", full)})
	}
	return tab, nil
}
