package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/workload"
)

// strategies measured by Experiment 3, in the paper's column order.
var overallStrategies = []string{"BaselineP", "BaselineI", "BaselineU", "SIEVE"}

// runStrategy executes one query under one strategy label through a
// session bound outside the measured region, so the measurement covers
// the per-query pipeline (rewrite + execution) and not per-call identity
// setup.
func runStrategy(sess *core.Session, label, q string) error {
	var err error
	switch label {
	case "SIEVE":
		_, err = sess.Execute(context.Background(), q)
	default:
		_, err = sess.Middleware().ExecuteBaseline(context.Background(), core.BaselineKind(label), q, sess.Metadata())
	}
	return err
}

// pickQueriers selects the measured queriers: the most-targeted users
// (§7.2 uses five queriers across four profiles).
func pickQueriers(env *CampusEnv, n int) []policy.Metadata {
	var out []policy.Metadata
	for _, q := range workload.TopQueriers(env.Policies, n*3, 1) {
		if _, ok := env.Campus.UserByName(q); !ok {
			continue // group/profile queriers are not §7.2 subjects
		}
		purpose := dominantPurpose(env.Policies, q)
		out = append(out, policy.Metadata{Querier: q, Purpose: purpose})
		if len(out) == n {
			break
		}
	}
	return out
}

// dominantPurpose picks the purpose with the most policies for the querier
// so the measured query actually has a policy corpus behind it.
func dominantPurpose(ps []*policy.Policy, querier string) string {
	counts := map[string]int{}
	for _, p := range ps {
		if p.Querier == querier && p.Purpose != policy.AnyPurpose {
			counts[p.Purpose]++
		}
	}
	best, bestN := "analytics", -1
	for pu, n := range counts {
		if n > bestN || (n == bestN && pu < best) {
			best, bestN = pu, n
		}
	}
	return best
}

// OverallComparison reproduces Table 8: the average per-query time of the
// three baselines and SIEVE for Q1/Q2/Q3 at three selectivity classes.
func OverallComparison(cfg Config) (*Table, error) {
	env, err := NewCampusEnv(cfg, engine.MySQL())
	if err != nil {
		return nil, err
	}
	queriers := pickQueriers(env, cfg.Queriers)
	if len(queriers) == 0 {
		return nil, fmt.Errorf("experiment: no user queriers in the corpus")
	}
	tab := &Table{
		ID:      "Table 8",
		Title:   "Overall comparison for Q1, Q2, Q3 (ms)",
		Headers: append([]string{"query", "rho(Q)"}, overallStrategies...),
		Notes: []string{
			"paper shape: BaselineP/U degrade with cardinality; BaselineI flat; SIEVE flat and fastest",
		},
	}
	r := rand.New(rand.NewSource(cfg.Campus.Seed + 100))
	for _, tmpl := range workload.QueryTemplates {
		for _, class := range workload.SelectivityClasses {
			queries := env.Campus.Queries(tmpl, class, cfg.QueriesPerCell, r.Int63())
			row := []string{string(tmpl), string(class)}
			for _, strat := range overallStrategies {
				avg, s, err := timeCell(cfg, env.M, strat, queries, queriers)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", tmpl, class, strat, err)
				}
				row = append(row, cellString(avg, s))
			}
			tab.Rows = append(tab.Rows, row)
		}
	}
	return tab, nil
}

// cellStats tracks TO accounting per cell.
type cellStats struct {
	completed int
	timedOut  int
}

func cellString(avg time.Duration, s cellStats) string {
	switch {
	case s.completed == 0:
		return "TO"
	case s.timedOut > 0:
		return ms(avg) + "+"
	default:
		return ms(avg)
	}
}

// timeCell averages one strategy over queries × queriers with the paper's
// timeout conventions.
func timeCell(cfg Config, m *core.Middleware, strat string, queries []string, queriers []policy.Metadata) (time.Duration, cellStats, error) {
	var total time.Duration
	var s cellStats
	for _, q := range queries {
		for _, qm := range queriers {
			sess := m.NewSession(qm)
			avg, to, err := timed(cfg.Reps, cfg.Timeout, func() error {
				return runStrategy(sess, strat, q)
			})
			if err != nil {
				return 0, s, err
			}
			if to {
				s.timedOut++
				continue
			}
			s.completed++
			total += avg
		}
	}
	if s.completed == 0 {
		return 0, s, nil
	}
	return total / time.Duration(s.completed), s, nil
}

// OverallByProfile reproduces Tables 9, 10, 11: the Table 8 measurement for
// one template, broken down by the querier's profile (Faculty, Grad,
// Undergrad, Staff).
func OverallByProfile(cfg Config, tmpl workload.QueryTemplate) (*Table, error) {
	env, err := NewCampusEnv(cfg, engine.MySQL())
	if err != nil {
		return nil, err
	}
	id := map[workload.QueryTemplate]string{workload.Q1: "Table 9", workload.Q2: "Table 10", workload.Q3: "Table 11"}[tmpl]
	tab := &Table{
		ID:      id,
		Title:   fmt.Sprintf("Comparison for %s by querier profile (ms)", tmpl),
		Headers: append([]string{"profile", "rho(Q)"}, overallStrategies...),
	}
	profiles := []workload.Profile{workload.Faculty, workload.Grad, workload.Undergrad, workload.Staff}
	r := rand.New(rand.NewSource(cfg.Campus.Seed + 200))
	for _, prof := range profiles {
		qms := queriersOfProfile(env, prof, 2)
		if len(qms) == 0 {
			tab.Rows = append(tab.Rows, []string{string(prof), "-", "-", "-", "-", "-"})
			continue
		}
		for _, class := range workload.SelectivityClasses {
			queries := env.Campus.Queries(tmpl, class, cfg.QueriesPerCell, r.Int63())
			row := []string{string(prof), string(class)}
			for _, strat := range overallStrategies {
				avg, s, err := timeCell(cfg, env.M, strat, queries, qms)
				if err != nil {
					return nil, err
				}
				row = append(row, cellString(avg, s))
			}
			tab.Rows = append(tab.Rows, row)
		}
	}
	return tab, nil
}

// queriersOfProfile picks the most-targeted queriers of one profile.
func queriersOfProfile(env *CampusEnv, prof workload.Profile, n int) []policy.Metadata {
	var out []policy.Metadata
	for _, q := range workload.TopQueriers(env.Policies, len(env.Policies), 1) {
		u, ok := env.Campus.UserByName(q)
		if !ok || u.Profile != prof {
			continue
		}
		out = append(out, policy.Metadata{Querier: q, Purpose: dominantPurpose(env.Policies, q)})
		if len(out) == n {
			break
		}
	}
	return out
}
