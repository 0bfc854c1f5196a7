package loadgen_test

import (
	"context"
	"errors"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/experiment"
	"github.com/sieve-db/sieve/internal/loadgen"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/storage"
	"github.com/sieve-db/sieve/internal/workload"
)

// TestTrafficSoakHospital is the tier-1 concurrency soak: 16 queriers
// hammer the hospital workload (deepest group hierarchy) through the
// mixed op workload while churn adds and revokes policies, and the live
// invariant checker must stay silent. Run it with -race -cpu=1,4 for the
// full effect; plain go test ./... still exercises the whole path.
func TestTrafficSoakHospital(t *testing.T) {
	sc, err := experiment.TrafficScenario(experiment.TestConfig(), "hospital")
	if err != nil {
		t.Fatal(err)
	}
	cfg := loadgen.Config{
		Seed:        1,
		Workers:     16,
		Ops:         8,
		StreamLimit: 6,
		ZipfQuerier: 1.3,
		ZipfQuery:   1.3,
		Mix:         loadgen.DefaultMix(),
		Churn:       true,
		DenyEvery:   4,
	}
	res, err := loadgen.Run(context.Background(), sc, cfg, loadgen.NewInProcFactory(sc.M))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("soak failed: %d errors %v, violations %+v %v",
			res.Errors, res.ErrorSamples, res.Violations, res.ViolationSamples)
	}
	if res.Ops <= 0 || res.Rows <= 0 {
		t.Fatalf("soak did no work: ops=%d rows=%d", res.Ops, res.Rows)
	}
	if res.RowsChecked <= 0 {
		t.Fatal("invariant checker saw no rows")
	}
	if res.ChurnAdds <= 0 || res.ChurnRevokes <= 0 {
		t.Fatalf("churn did not run: adds=%d revokes=%d", res.ChurnAdds, res.ChurnRevokes)
	}
	if !(res.P50us <= res.P95us && res.P95us <= res.P99us) {
		t.Fatalf("percentiles not monotone: %v %v %v", res.P50us, res.P95us, res.P99us)
	}

	// A door's own check — the fake remote's decode-versus-seed parity
	// among them — fails the soak through its op error, sampled.
	var broken loadgen.Executor
	for k := range broken {
		broken[k].Run = func(context.Context, policy.Metadata, string, int) (loadgen.Result, error) {
			return loadgen.Result{}, errors.New("decoded rows are not the seed")
		}
	}
	res, err = loadgen.Run(t.Context(), sc, loadgen.Config{Workers: 2, Ops: 3}, func(policy.Metadata) (loadgen.Executor, error) { return broken, nil })
	if err != nil || !res.Failed() || res.Errors != 6 || len(res.ErrorSamples) == 0 {
		t.Fatalf("door errors not counted: %v, %+v", err, res)
	}
}

// vitalsRow fabricates one row of the vitals relation for owner.
func vitalsRow(owner int64) storage.Row {
	return storage.Row{
		storage.NewInt(1), storage.NewInt(0), storage.NewInt(owner),
		storage.NewInt(80), storage.NewTime(10 * 3600), storage.NewDate(10),
	}
}

// TestCheckerDetectsViolations feeds the checker rows it must reject —
// the soak proves silence on legal traffic, this proves the alarm works.
func TestCheckerDetectsViolations(t *testing.T) {
	sc, err := experiment.TrafficScenario(experiment.TestConfig(), "hospital")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := loadgen.NewChecker(sc, 10)
	if err != nil {
		t.Fatal(err)
	}
	q := loadgen.Query{Name: "probe", RowCheck: true}
	cols := make([]string, sc.Schema.Len())
	owner := sc.ChurnOwners[0]

	// A live churn grant justifies the churn querier's row.
	e := ck.WillGrant(sc.ChurnQuerier, owner)
	ck.CheckRows(sc.ChurnQuerier, ck.Clock(), q, []storage.Row{vitalsRow(owner)}, cols)
	if v, _ := ck.Violations(); v.Total() != 0 {
		t.Fatalf("live grant flagged: %+v", v)
	}

	// After revocation a query that starts later must not see the owner.
	ck.DidRevoke(e)
	ck.CheckRows(sc.ChurnQuerier, ck.Clock(), q, []storage.Row{vitalsRow(owner)}, cols)
	if v, _ := ck.Violations(); v.RevokedRows != 1 {
		t.Fatalf("revoked grant resurfacing not flagged: %+v", v)
	}

	// An owner never granted at all is unjustified.
	ck.CheckRows(sc.ChurnQuerier, ck.Clock(), q, []storage.Row{vitalsRow(owner + 1)}, cols)
	if v, _ := ck.Violations(); v.UnjustifiedRows != 1 {
		t.Fatalf("unjustified row not flagged: %+v", v)
	}

	// Any row reaching a default-deny querier is a leak.
	ck.CheckRows(sc.DenyQueriers[0], ck.Clock(), q, []storage.Row{vitalsRow(owner)}, cols)
	v, samples := ck.Violations()
	if v.DefaultDenyRows != 1 || v.Total() != 3 || len(samples) != 3 {
		t.Fatalf("default-deny leak not flagged, or bookkeeping off: %+v, %d samples", v, len(samples))
	}
}

// TestCheckerQueryWindow pins the two-legal-worlds window semantics: a
// grant justifies a row only for queries whose lifetime overlaps it.
func TestCheckerQueryWindow(t *testing.T) {
	sc, err := experiment.TrafficScenario(experiment.TestConfig(), "hospital")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := loadgen.NewChecker(sc, 10)
	if err != nil {
		t.Fatal(err)
	}
	q := loadgen.Query{Name: "probe", RowCheck: true}
	cols := make([]string, sc.Schema.Len())
	owner := sc.ChurnOwners[0]
	group := sc.ChurnGroups[0] // staff of ward 0-0 are members

	// Find a querier that is a member of the churn group.
	var member string
	for _, s := range sc.Queriers {
		for _, g := range sc.Groups.GroupsOf(s) {
			if g == group {
				member = s
				break
			}
		}
		if member != "" {
			break
		}
	}
	if member == "" {
		t.Fatalf("no scenario querier is a member of %s", group)
	}

	// Query started before the grant died: overlap, row is legal even
	// though the grant went to the group, not the member directly.
	qStart := ck.Clock()
	e := ck.WillGrant(group, owner)
	ck.DidRevoke(e)
	ck.CheckRows(member, qStart, q, []storage.Row{vitalsRow(owner)}, cols)
	if v, _ := ck.Violations(); v.Total() != 0 {
		t.Fatalf("overlapping group grant flagged: %+v", v)
	}

	// Query started after the death stamp: no overlap, row is a breach.
	ck.CheckRows(member, ck.Clock(), q, []storage.Row{vitalsRow(owner)}, cols)
	if v, _ := ck.Violations(); v.RevokedRows != 1 {
		t.Fatalf("post-revocation window not enforced: %+v", v)
	}
}

// TestHospitalHierarchy pins the deep group closure the hospital
// workload exists to exercise: staff resolve through ward, department,
// role, and hospital-wide principals.
func TestHospitalHierarchy(t *testing.T) {
	h, err := workload.BuildHospital(workload.TestHospitalConfig(), engine.MySQL())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Staff) == 0 || len(h.Patients) == 0 {
		t.Fatal("empty hospital")
	}
	s := h.Staff[0]
	groups := h.Groups().GroupsOf(s.Querier())
	want := map[string]bool{
		workload.WardGroup(s.Dept, s.Ward):     false,
		workload.DeptGroup(s.Dept):             false,
		workload.HospitalGroup:                 false,
		workload.RoleGroup(s.Role):             false,
		workload.DeptRoleGroup(s.Dept, s.Role): false,
	}
	for _, g := range groups {
		if _, ok := want[g]; ok {
			want[g] = true
		}
	}
	for g, seen := range want {
		if !seen {
			t.Errorf("staff %s missing group %s (got %v)", s.Querier(), g, groups)
		}
	}
}
