package guard

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// fakeSel is a uniform-selectivity model over an integer domain [0, domain)
// per attribute, with a configurable row count. Point selectivity is
// 1/domain; range selectivity proportional to width.
type fakeSel struct {
	rows    int
	domain  map[string]float64
	indexed map[string]bool
}

func (f *fakeSel) Rows() int { return f.rows }

func (f *fakeSel) EstimateEq(attr string, v storage.Value) float64 {
	d := f.domain[attr]
	if d == 0 {
		return 0.1
	}
	return 1 / d
}

func (f *fakeSel) EstimateRange(attr string, lo, hi storage.Value) float64 {
	d := f.domain[attr]
	if d == 0 {
		return 1.0 / 3.0
	}
	l, h := 0.0, d-1
	if !lo.IsNull() {
		l = lo.Float()
	}
	if !hi.IsNull() {
		h = hi.Float()
	}
	if h < l {
		return 0
	}
	return math.Min(1, (h-l+1)/d)
}

func (f *fakeSel) Indexed(attr string) bool { return f.indexed[attr] }

func campusSel() *fakeSel {
	return &fakeSel{
		rows:    100000,
		domain:  map[string]float64{"owner": 1000, "wifiAP": 64, "ts_time": 86400, "ts_date": 90},
		indexed: map[string]bool{"owner": true, "wifiAP": true, "ts_time": true, "ts_date": true},
	}
}

var policySeq int64

func pol(owner int64, conds ...policy.ObjectCondition) *policy.Policy {
	policySeq++
	return &policy.Policy{
		ID: policySeq, Owner: owner, Querier: "Prof. Smith", Purpose: "Attendance",
		Relation: "wifi", Action: policy.Allow, Conditions: conds,
	}
}

func timeRange(lo, hi string) policy.ObjectCondition {
	return policy.RangeClosed("ts_time", storage.MustTime(lo), storage.MustTime(hi))
}

func apEq(ap int64) policy.ObjectCondition {
	return policy.Compare("wifiAP", sqlparser.CmpEq, storage.NewInt(ap))
}

func TestCandidatesIncludeOwnerGuards(t *testing.T) {
	ps := []*policy.Policy{pol(1), pol(1), pol(2)}
	cands := GenerateCandidates(ps, campusSel(), DefaultCostModel())
	owners := map[string]int{}
	for _, c := range cands {
		if c.Cond.Attr == policy.OwnerAttr {
			owners[c.Cond.Val.String()] = len(c.Policies)
		}
	}
	if owners["1"] != 2 || owners["2"] != 1 {
		t.Fatalf("owner candidates = %v, want owner 1 covering 2, owner 2 covering 1", owners)
	}
}

func TestCandidatesGroupEqualityConditions(t *testing.T) {
	// Many owners sharing wifiAP = 1200 must produce one candidate covering
	// all of them (the classroom example, §3.2).
	var ps []*policy.Policy
	for o := int64(1); o <= 5; o++ {
		ps = append(ps, pol(o, apEq(1200)))
	}
	cands := GenerateCandidates(ps, campusSel(), DefaultCostModel())
	found := false
	for _, c := range cands {
		if c.Cond.Attr == "wifiAP" && len(c.Policies) == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("no shared wifiAP=1200 candidate covering all 5 policies")
	}
}

func TestCandidatesSkipUnindexedAttributes(t *testing.T) {
	sel := campusSel()
	sel.indexed["wifiAP"] = false
	ps := []*policy.Policy{pol(1, apEq(1200))}
	cands := GenerateCandidates(ps, sel, DefaultCostModel())
	for _, c := range cands {
		if c.Cond.Attr == "wifiAP" {
			t.Fatal("guard candidate on unindexed attribute")
		}
	}
}

func TestTheorem1OverlapMerging(t *testing.T) {
	sel := campusSel()
	cm := DefaultCostModel() // threshold ce/(cr+ce) = 0.2
	// Two heavily-overlapping time ranges: [09:00,10:00] and [09:10,10:10].
	// intersection ≈ 50min, union ≈ 70min → ratio ≈ 0.71 > 0.2 → merge.
	p1 := pol(1, timeRange("09:00", "10:00"))
	p2 := pol(2, timeRange("09:10", "10:10"))
	cands := GenerateCandidates([]*policy.Policy{p1, p2}, sel, cm)
	var mergedFound bool
	for _, c := range cands {
		if c.Cond.Attr == "ts_time" && len(c.Policies) == 2 {
			mergedFound = true
			if c.Cond.Kind != policy.CondRange {
				t.Errorf("merged candidate kind = %v", c.Cond.Kind)
			}
			if c.Cond.Lo.I != 9*3600 || c.Cond.Hi.I != 10*3600+10*60 {
				t.Errorf("merged bounds = %v..%v", c.Cond.Lo, c.Cond.Hi)
			}
		}
	}
	if !mergedFound {
		t.Fatal("beneficial overlap not merged")
	}
}

func TestTheorem1NonOverlapNeverMerges(t *testing.T) {
	p1 := pol(1, timeRange("08:00", "09:00"))
	p2 := pol(2, timeRange("14:00", "15:00"))
	cands := GenerateCandidates([]*policy.Policy{p1, p2}, campusSel(), DefaultCostModel())
	for _, c := range cands {
		if c.Cond.Attr == "ts_time" && len(c.Policies) == 2 {
			t.Fatal("disjoint ranges merged, violating Theorem 1")
		}
	}
}

func TestMarginalOverlapNotMerged(t *testing.T) {
	// Tiny intersection relative to union: ratio below threshold → no merge.
	p1 := pol(1, timeRange("00:00", "10:00"))
	p2 := pol(2, timeRange("09:59", "23:59"))
	// intersection 1min; union ~24h → ratio ≈ 0.0007 < 0.2.
	cands := GenerateCandidates([]*policy.Policy{p1, p2}, campusSel(), DefaultCostModel())
	for _, c := range cands {
		if c.Cond.Attr == "ts_time" && len(c.Policies) == 2 {
			t.Fatal("non-beneficial overlap merged")
		}
	}
}

func TestSelectGuardsPartitionInvariant(t *testing.T) {
	sel := campusSel()
	cm := DefaultCostModel()
	var ps []*policy.Policy
	for o := int64(0); o < 30; o++ {
		conds := []policy.ObjectCondition{}
		if o%2 == 0 {
			conds = append(conds, apEq(1200))
		}
		if o%3 == 0 {
			conds = append(conds, timeRange("09:00", "10:00"))
		}
		ps = append(ps, pol(o, conds...))
	}
	ge, err := Generate(ps, "wifi", "Prof. Smith", "Attendance", sel, cm)
	if err != nil {
		t.Fatal(err)
	}
	if err := ge.Validate(ps); err != nil {
		t.Fatal(err)
	}
	if ge.PolicyCount() != len(ps) {
		t.Fatalf("PolicyCount = %d, want %d", ge.PolicyCount(), len(ps))
	}
	if len(ge.Guards) == 0 || len(ge.Guards) > len(ps) {
		t.Fatalf("guards = %d", len(ge.Guards))
	}
}

func TestSharedGuardBeatsPerOwnerGuards(t *testing.T) {
	// 50 owners all sharing wifiAP=1200 (sel 1/64): the shared guard has a
	// much higher utility than 50 per-owner guards — selection must group.
	var ps []*policy.Policy
	for o := int64(0); o < 50; o++ {
		ps = append(ps, pol(o, apEq(1200)))
	}
	ge, err := Generate(ps, "wifi", "q", "p", campusSel(), DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(ge.Guards) != 1 {
		t.Fatalf("guards = %d, want 1 shared guard\n%s", len(ge.Guards), ge)
	}
	if ge.Guards[0].Cond.Attr != "wifiAP" {
		t.Fatalf("selected guard on %s, want wifiAP", ge.Guards[0].Cond.Attr)
	}
}

func TestHighlySelectiveOwnersBeatBroadSharedGuard(t *testing.T) {
	// Two owners share a nearly-unselective range; their owner guards are
	// far cheaper to read. Selection must prefer the owner guards.
	sel := campusSel()
	sel.domain["owner"] = 100000 // owner sel = 1e-5
	ps := []*policy.Policy{
		pol(1, timeRange("00:00", "23:59")),
		pol(2, timeRange("00:00", "23:59")),
	}
	ge, err := Generate(ps, "wifi", "q", "p", sel, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range ge.Guards {
		if g.Cond.Attr == "ts_time" {
			t.Fatalf("selected the broad time guard:\n%s", ge)
		}
	}
	if len(ge.Guards) != 2 {
		t.Fatalf("guards = %d, want 2 owner guards", len(ge.Guards))
	}
}

func TestGenerateEmptyPolicySet(t *testing.T) {
	ge, err := Generate(nil, "wifi", "q", "p", campusSel(), DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(ge.Guards) != 0 || ge.PolicyCount() != 0 {
		t.Fatal("empty set must produce empty guarded expression")
	}
}

func TestGuardExprAndPartitionExpr(t *testing.T) {
	ps := []*policy.Policy{pol(1, apEq(1200)), pol(2, apEq(1200))}
	ge, err := Generate(ps, "wifi", "q", "p", campusSel(), DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range ge.Guards {
		gtext := sqlparser.PrintExpr(g.Expr("W"))
		if !strings.Contains(gtext, "W.") {
			t.Errorf("guard expr %q not qualified", gtext)
		}
		ptext := sqlparser.PrintExpr(g.PartitionExpr("W"))
		if !strings.Contains(ptext, "W.owner") {
			t.Errorf("partition expr %q missing owner conditions", ptext)
		}
	}
}

// TestValidateDetectsViolations: Validate accepts a partition of the set
// and names each way an expression can fail to be one.
func TestValidateDetectsViolations(t *testing.T) {
	ps := []*policy.Policy{pol(1), pol(2), pol(3, apEq(4))}
	ownerGuard := func(p *policy.Policy) Guard {
		return Guard{Cond: policy.Compare("owner", sqlparser.CmpEq, storage.NewInt(p.Owner)), Policies: []*policy.Policy{p}}
	}
	okGE := &GuardedExpression{Guards: []Guard{
		ownerGuard(ps[0]), ownerGuard(ps[1]),
		{Cond: apEq(4), Policies: ps[2:]},
	}}
	if err := okGE.Validate(ps); err != nil {
		t.Fatalf("valid expression rejected: %v", err)
	}
	outsider := pol(9)
	for _, tc := range []struct {
		name   string
		guards []Guard
		ps     []*policy.Policy
		want   string
	}{
		{"a policy that does not imply its guard", []Guard{
			{Cond: policy.Compare("owner", sqlparser.CmpEq, storage.NewInt(999)), Policies: ps[:1]},
			okGE.Guards[1], okGE.Guards[2],
		}, ps, "lacks a condition implying"},
		{"a policy whose condition is on another attribute", []Guard{
			okGE.Guards[0], okGE.Guards[1],
			{Cond: policy.RangeClosed("ts_time", storage.MustTime("09:00"), storage.MustTime("10:00")), Policies: ps[2:]},
		}, ps, "lacks a condition implying"},
		{"an uncovered policy", okGE.Guards[:2], ps, "not covered"},
		{"a policy covered twice", []Guard{okGE.Guards[0], okGE.Guards[0], okGE.Guards[1], okGE.Guards[2]}, ps, "covered 2 times"},
		{"an empty partition", []Guard{{Cond: okGE.Guards[0].Cond}}, nil, "empty partition"},
		{"a policy outside the set", append(slices.Clone(okGE.Guards), ownerGuard(outsider)), ps, "not in the policy set"},
		{"a policy outside an empty set", okGE.Guards[:1], nil, "not in the policy set"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ge := &GuardedExpression{Guards: tc.guards}
			if err := ge.Validate(tc.ps); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestPolicyImpliesGuardAllocatesNothing: the implication test reads the
// owner condition and the policy's conditions in place.
func TestPolicyImpliesGuardAllocatesNothing(t *testing.T) {
	p := pol(7, apEq(3), timeRange("09:00", "10:00"), policy.In("ts_date", storage.NewDate(4), storage.NewDate(9)))
	for _, tc := range []struct {
		g    policy.ObjectCondition
		want bool
	}{
		{policy.Compare("owner", sqlparser.CmpEq, storage.NewInt(7)), true},
		{policy.Compare("owner", sqlparser.CmpEq, storage.NewInt(8)), false},
		{apEq(3), true},
		{timeRange("08:00", "11:00"), true},
		{timeRange("09:30", "11:00"), false},
		{policy.RangeClosed("ts_date", storage.NewDate(0), storage.NewDate(10)), true},
	} {
		var got bool
		if allocs := testing.AllocsPerRun(100, func() { got = policyImpliesGuard(p, tc.g) }); allocs != 0 {
			t.Errorf("policyImpliesGuard(%s) allocates %.0f times", tc.g, allocs)
		}
		if got != tc.want {
			t.Errorf("policyImpliesGuard(%s) = %v, want %v", tc.g, got, tc.want)
		}
	}
}

// TestValidateAllocationsFlatInPolicies: validating an expression of 2 600
// policies allocates as often as validating one of 260, plus a constant.
func TestValidateAllocationsFlatInPolicies(t *testing.T) {
	measure := func(n int) float64 {
		ps := make([]*policy.Policy, 0, n)
		ge := &GuardedExpression{}
		for i := 0; i < n; i++ {
			ap := int64(i % 10)
			p := pol(int64(i), apEq(ap), timeRange("09:00", "10:00"))
			ps = append(ps, p)
			if int(ap) == len(ge.Guards) {
				ge.Guards = append(ge.Guards, Guard{Cond: apEq(ap)})
			}
			ge.Guards[ap].Policies = append(ge.Guards[ap].Policies, p)
		}
		return testing.AllocsPerRun(20, func() {
			if err := ge.Validate(ps); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := measure(260), measure(2600)
	t.Logf("Validate allocates %.0f times at 260 policies, %.0f at 2 600", few, many)
	if many > few+2 {
		t.Errorf("Validate allocates %.0f times at 2 600 policies against %.0f at 260", many, few)
	}
}

func TestCostModelFormulas(t *testing.T) {
	cm := CostModel{Ce: 2, Cr: 8, Alpha: 0.5}
	if got := cm.mergeThreshold(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("threshold = %v", got)
	}
	// Eq.3: card·(cr + α·|PG|·ce) with card = 0.1·1000 = 100.
	if got := cm.Cost(0.1, 10, 1000); math.Abs(got-100*(8+0.5*10*2)) > 1e-9 {
		t.Errorf("Cost = %v", got)
	}
	// benefit = ce·|PG|·(N − card).
	if got := cm.Benefit(0.1, 10, 1000); math.Abs(got-2*10*900) > 1e-9 {
		t.Errorf("Benefit = %v", got)
	}
	if got := cm.ReadCost(0, 1000); got != 8 { // floor of one tuple
		t.Errorf("ReadCost floor = %v", got)
	}
	u := cm.Utility(0.1, 10, 1000)
	if math.Abs(u-(2*10*900)/(100*8.0)) > 1e-9 {
		t.Errorf("Utility = %v", u)
	}
}

// Property: for random policy sets, Generate always yields a valid
// partition with Σ|PG_i| = |P| and every guard selective of its members.
func TestGeneratePartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sel := campusSel()
		n := 1 + r.Intn(60)
		var ps []*policy.Policy
		for i := 0; i < n; i++ {
			var conds []policy.ObjectCondition
			if r.Intn(2) == 0 {
				conds = append(conds, apEq(int64(r.Intn(8))))
			}
			if r.Intn(2) == 0 {
				lo := r.Intn(20)
				conds = append(conds, policy.RangeClosed("ts_time",
					storage.NewTime(int64(lo*3600/2)), storage.NewTime(int64((lo+1+r.Intn(10))*3600/2))))
			}
			if r.Intn(4) == 0 {
				conds = append(conds, policy.Compare("ts_date", sqlparser.CmpGe, storage.NewDate(int64(r.Intn(90)))))
			}
			ps = append(ps, pol(int64(r.Intn(25)), conds...))
		}
		ge, err := Generate(ps, "wifi", "q", "p", sel, DefaultCostModel())
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := ge.Validate(ps); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return ge.PolicyCount() == len(ps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Theorem 1's claim — when the benefit test holds, the modelled
// merged cost is below the sum of separate costs; when intervals are
// disjoint, merging never helps.
func TestTheorem1CostProperty(t *testing.T) {
	cm := DefaultCostModel()
	sel := campusSel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		aLo := float64(r.Intn(80000))
		aHi := aLo + float64(1+r.Intn(6000))
		bLo := float64(r.Intn(80000))
		bHi := bLo + float64(1+r.Intn(6000))
		a := rangeCand{lo: storage.NewTime(int64(aLo)), hi: storage.NewTime(int64(aHi))}
		b := rangeCand{lo: storage.NewTime(int64(bLo)), hi: storage.NewTime(int64(bHi))}
		overlap := intervalsOverlap(a.lo, a.hi, b.lo, b.hi)
		merged := mergeBeneficial(sel, "ts_time", a, b, cm.mergeThreshold())
		if !overlap && merged {
			return false // Theorem 1: disjoint never merges
		}
		if !overlap {
			return true
		}
		// Model costs per Eq. 4/6: separate = (ρa+ρb)(cr+ce);
		// merged = ρ(a∪b)(cr+2ce).
		rows := float64(sel.Rows())
		ra := sel.EstimateRange("ts_time", a.lo, a.hi) * rows
		rb := sel.EstimateRange("ts_time", b.lo, b.hi) * rows
		runion := sel.EstimateRange("ts_time", minBound(a.lo, b.lo), maxBound(a.hi, b.hi)) * rows
		costSeparate := (ra + rb) * (cm.Cr + cm.Ce)
		costMerged := runion * (cm.Cr + 2*cm.Ce)
		if merged && costMerged >= costSeparate+1e-6 {
			t.Logf("seed %d: merged but costMerged=%.1f ≥ separate=%.1f", seed, costMerged, costSeparate)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRangeMergeGrowsRunInPlace: the merge loop grows a run's policy list
// in place; the candidates must be exactly what the old construction — a
// fresh copy of the whole run at every merge — produced, originals
// included, on an input whose runs are hundreds of policies long.
func TestRangeMergeGrowsRunInPlace(t *testing.T) {
	sel, cm := campusSel(), DefaultCostModel()
	r := rand.New(rand.NewSource(5))
	var ps []*policy.Policy
	for i := 0; i < 2000; i++ {
		lo := int64(r.Intn(80000))
		ps = append(ps, pol(int64(i%300), policy.RangeClosed("ts_time", storage.NewInt(lo), storage.NewInt(lo+2000+int64(r.Intn(4000))))))
	}

	// The old construction, over the same sorted candidates.
	cands := make([]rangeCand, len(ps))
	for i, p := range ps {
		cands[i] = rangeCand{lo: p.Conditions[0].Lo, hi: p.Conditions[0].Hi, pols: []*policy.Policy{p}}
	}
	sort.SliceStable(cands, func(i, j int) bool { return storage.Less(cands[i].lo, cands[j].lo) })
	var want []Candidate
	merged := make([]bool, len(cands))
	longest := 0
	for i := range cands {
		cur, curMerged := cands[i], false
		for j := i + 1; j < len(cands); j++ {
			if merged[j] {
				continue
			}
			if !intervalsOverlap(cur.lo, cur.hi, cands[j].lo, cands[j].hi) {
				break
			}
			if mergeBeneficial(sel, "ts_time", cur, cands[j], cm.mergeThreshold()) {
				cur = rangeCand{
					lo:   minBound(cur.lo, cands[j].lo),
					hi:   maxBound(cur.hi, cands[j].hi),
					pols: append(append([]*policy.Policy{}, cur.pols...), cands[j].pols...),
				}
				merged[j], curMerged = true, true
			}
		}
		if curMerged {
			want = append(want, rangeToCandidate(sel, "ts_time", cur))
			longest = max(longest, len(cur.pols))
		}
		want = append(want, rangeToCandidate(sel, "ts_time", cands[i]))
	}
	if longest < 100 {
		t.Fatalf("longest merged run holds %d policies; the input should build runs of hundreds", longest)
	}

	var got []Candidate
	for _, c := range GenerateCandidates(ps, sel, cm) {
		if c.Cond.Attr == "ts_time" {
			got = append(got, c)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%d range candidates differ from the old construction's %d", len(got), len(want))
	}
}

// TestSelectGuardsOrderIsDeterministic: a selection re-queues the candidates
// it touched in candidate order, so candidates of equal utility pop in the
// same order and one policy set yields the same guards, in the same order
// with the same partitions, on every generation.
func TestSelectGuardsOrderIsDeterministic(t *testing.T) {
	// Each AP is granted by forty owners, twenty of them on one date. The
	// date's guard is selected first; it shrinks every AP candidate to the
	// same twenty policies, and the APs, tied, are selected next.
	var ps []*policy.Policy
	day0 := policy.Compare("ts_date", sqlparser.CmpEq, storage.NewDate(0))
	for a := int64(0); a < 8; a++ {
		for i := int64(0); i < 40; i++ {
			conds := []policy.ObjectCondition{apEq(a)}
			if i < 20 {
				conds = append(conds, day0)
			}
			ps = append(ps, pol(a*40+i, conds...))
		}
	}
	arms := func() string {
		ge, err := Generate(ps, "wifi", "q", "p", campusSel(), DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, g := range ge.Guards {
			b.WriteString(g.Cond.String())
			for _, p := range g.Policies {
				fmt.Fprintf(&b, " %d", p.ID)
			}
			b.WriteString("; ")
		}
		return b.String()
	}
	first := arms()
	for i := 0; i < 50; i++ {
		if got := arms(); got != first {
			t.Fatalf("generation %d differs from the first:\n got: %s\nwant: %s", i+2, got, first)
		}
	}
}
