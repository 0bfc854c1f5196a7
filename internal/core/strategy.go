package core

import "github.com/sieve-db/sieve/internal/engine"

// Strategy is SIEVE's per-table execution strategy (§5.5).
type Strategy string

// The three §5.5 strategies.
const (
	// LinearScan reads the relation sequentially and filters with the
	// guarded expression.
	LinearScan Strategy = "LinearScan"
	// IndexQuery drives the scan with an index on a selective query
	// predicate, then filters with the guarded expression.
	IndexQuery Strategy = "IndexQuery"
	// IndexGuards drives the scan with the guards' indexes, unioning their
	// matches, then evaluates the policy partitions.
	IndexGuards Strategy = "IndexGuards"
)

// TableDecision records the middleware's choices for one reference to a
// protected table in one query: the strategy, the per-guard Δ decisions, and
// the modelled costs that drove them (exposed for experiments and
// sieve-explain).
type TableDecision struct {
	Relation        string
	Strategy        Strategy
	Guards          int
	DeltaGuards     int
	Policies        int
	QueryIndex      string // driving column under IndexQuery
	CostLinearScan  float64
	CostIndexQuery  float64
	CostIndexGuards float64
	// SegmentsTotal/SegmentsPrunable report the zone-map estimate behind
	// CostLinearScan: of SegmentsTotal storage segments, SegmentsPrunable
	// are refuted by every guard interval, so the guarded linear scan skips
	// them without reading a tuple.
	SegmentsTotal    int
	SegmentsPrunable int
	// Signature is the canonical policy-set signature of the guard state
	// this decision used: the set hash of its applicable policy ids (the
	// sum of each id's splitmix64 mix, signatureHash), printed as 16 hex
	// digits. Queriers sharing it share the generation and the plan.
	Signature string
	// SharedState is true when the guard state was generated for a
	// different (querier, purpose) and reused here via the signature.
	SharedState bool
}

// Report describes one rewrite: per protected reference, in EXPLAIN order,
// its decision and the guard provenance of its WITH entry (the input the
// dialect emitters frame per backend), as parallel slices. The rewritten SQL text is
// what Rewrite returns beside it; a rewrite that is only executed is never
// printed.
type Report struct {
	Decisions []TableDecision
	// GuardedCTEs carries, per injected CTE, the guard arms, moved query
	// conjuncts and strategy that produced it — engine.Emitter implementations
	// consume it to reframe the disjunction for MySQL or PostgreSQL.
	GuardedCTEs []engine.GuardedCTE
}

// chooseStrategy implements §5.5: from ta, the optimizer's intended access
// path for one reference under its own conjuncts (EXPLAIN) and its estimated
// selectivity, price the three strategies and pick the cheapest.
func (m *Middleware) chooseStrategy(relation string, ta engine.TableAccess, st *geState) TableDecision {
	ge := st.ge
	t := m.db.MustTable(relation)
	n := float64(t.NumRows())

	dec := TableDecision{
		Relation: relation,
		Guards:   len(ge.Guards),
		Policies: ge.PolicyCount(),
	}

	// cost(IndexGuards) = Σ ρ(Gi)·cr (§5.5).
	dec.CostIndexGuards = min(ge.TotalSel(), 1) * n * engine.RandAccessFactor
	if len(ge.Guards) == 0 {
		// Default deny: an empty rewrite reads nothing.
		dec.CostIndexGuards = 0
	}

	// cost(IndexQuery): only when the optimizer would drive this table with
	// an index on a query predicate.
	dec.CostIndexQuery = inf
	if ta.Kind == engine.AccessIndex {
		dec.CostIndexQuery = ta.EstSel * n * engine.RandAccessFactor
		dec.QueryIndex = ta.Index
	}

	// cost(LinearScan): the zone-mapped scan never reads segments every
	// guard arm refutes, so pruning discounts the classic |r| cost. The
	// estimate mirrors the engine's refutation conservatively, using only
	// the guard intervals. With no guard at all (default deny) the scan
	// reads nothing, so every segment counts as prunable.
	dec.SegmentsPrunable, dec.SegmentsTotal = t.PrunableSegments(st.zoneArms)
	dec.CostLinearScan = n
	if dec.SegmentsTotal > 0 {
		dec.CostLinearScan = n * (1 - float64(dec.SegmentsPrunable)/float64(dec.SegmentsTotal))
	}

	switch {
	case dec.CostIndexGuards <= dec.CostIndexQuery && dec.CostIndexGuards <= dec.CostLinearScan:
		dec.Strategy = IndexGuards
	case dec.CostIndexQuery <= dec.CostLinearScan:
		dec.Strategy = IndexQuery
	default:
		dec.Strategy = LinearScan
	}
	if m.forced != "" {
		dec.Strategy = m.forced
		if dec.Strategy == IndexQuery && dec.QueryIndex == "" {
			// Forcing IndexQuery without a usable query index degenerates
			// to a linear scan.
			dec.Strategy = LinearScan
		}
	}
	return dec
}

const inf = 1e300
