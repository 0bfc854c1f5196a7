package guard

import "github.com/sieve-db/sieve/internal/policy"

// GenerateCandidates builds CG from the policies with range merging on
// (generateCandidates).
func GenerateCandidates(ps []*policy.Policy, sel Selectivity, cm CostModel) []Candidate {
	return generateCandidates(ps, sel, cm, false)
}
