package policy_test

import (
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/workload"
)

// BenchmarkPoliciesFor reads applicable sets at scale_churn's size: 20 000
// group grants over 2 000 queriers in 50 Zipf groups. "group" queriers hold
// only their group's list (one run, no merge); "personal+group" queriers
// also hold a personal grant, so their two lists are merged.
func BenchmarkPoliciesFor(b *testing.B) {
	cfg := workload.DefaultScaleConfig()
	cfg.Queriers, cfg.Policies, cfg.Groups = 2000, 20000, 50
	sc := workload.BuildScaleCorpus(cfg)
	db, err := sc.BuildScaleDB(engine.MySQL())
	if err != nil {
		b.Fatal(err)
	}
	s, err := policy.NewStore(db)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.BulkLoad(sc.Policies); err != nil {
		b.Fatal(err)
	}
	const personal = 200
	for _, q := range sc.Queriers[:personal] {
		p := &policy.Policy{Owner: 1, Querier: q, Purpose: policy.AnyPurpose, Relation: workload.TableTelemetry, Action: policy.Allow}
		if err := s.Insert(p); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name     string
		queriers []string
	}{{"group", sc.Queriers[personal:]}, {"personal+group", sc.Queriers[:personal]}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				qm := policy.Metadata{Querier: bc.queriers[i%len(bc.queriers)], Purpose: "any"}
				n += len(s.PoliciesFor(qm, workload.TableTelemetry, sc.Groups()))
			}
			b.ReportMetric(float64(n)/float64(b.N), "policies/op")
		})
	}
}
