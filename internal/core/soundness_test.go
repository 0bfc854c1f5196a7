package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
)

// The central soundness/secureness property (§3.1, correctness criterion of
// Wang et al. [37]): for random policy corpora and random queries, every
// enforcement path — SIEVE on both dialects (with and without Δ) and the
// three baselines — returns exactly the rows the pure-Go ground-truth
// evaluator admits.
func TestEnforcementSoundnessProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	queries := []string{
		"SELECT * FROM wifi",
		"SELECT * FROM wifi WHERE wifiAP = 10%d",
		"SELECT * FROM wifi WHERE ts_time BETWEEN TIME '09:00' AND TIME '1%d:00'",
		"SELECT * FROM wifi AS W WHERE W.owner IN (%d, 7, 21)",
		"SELECT W.id FROM wifi AS W, membership AS M WHERE M.uid = W.owner AND M.gid = %d",
		"SELECT * FROM wifi WHERE wifiAP = 10%d OR ts_date = DATE '2000-01-02'",
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := queries[r.Intn(len(queries))]
		if strings.Contains(q, "%d") {
			q = fmt.Sprintf(q, r.Intn(5))
		}
		npol := 5 + r.Intn(100)
		var refIDs []int64
		for i, d := range []engine.Dialect{engine.MySQL(), engine.Postgres()} {
			opts := []Option{}
			if r.Intn(2) == 0 {
				opts = append(opts, WithDeltaThreshold(1+r.Intn(5))) // exercise Δ aggressively
			}
			fx := newFixtureSeeded(t, d, seed, npol, opts...)
			res, err := fx.m.NewSession(fx.qm).Execute(t.Context(), q)
			if err != nil {
				t.Logf("seed %d [%s]: sieve: %v", seed, d.Name(), err)
				return false
			}
			ids := idsOf(res, 0)
			if i == 0 {
				refIDs = ids
				// Ground truth on the first dialect only (policy corpus is
				// identical across dialects).
				base, err := fx.m.ExecuteBaseline(t.Context(), BaselineP, q, fx.qm)
				if err != nil {
					t.Logf("seed %d: baselineP: %v", seed, err)
					return false
				}
				if !equalIDs(ids, idsOf(base, 0)) {
					t.Logf("seed %d [%s]: sieve %d rows vs baselineP %d (q=%s)",
						seed, d.Name(), len(ids), len(base.Rows), q)
					return false
				}
				for _, kind := range []BaselineKind{BaselineI, BaselineU} {
					bres, err := fx.m.ExecuteBaseline(t.Context(), kind, q, fx.qm)
					if err != nil {
						t.Logf("seed %d: %s: %v", seed, kind, err)
						return false
					}
					if !equalIDs(ids, idsOf(bres, 0)) {
						t.Logf("seed %d: %s diverges (q=%s)", seed, kind, q)
						return false
					}
				}
			} else if !equalIDs(ids, refIDs) {
				t.Logf("seed %d: dialects diverge: %d vs %d rows (q=%s)", seed, len(ids), len(refIDs), q)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// newFixtureSeeded is newFixture with a caller-controlled policy seed.
func newFixtureSeeded(t *testing.T, d engine.Dialect, seed int64, npolicies int, opts ...Option) *fixture {
	t.Helper()
	db := engine.New(d)
	db.UDFOverheadIters = 0
	loadCampus(t, db)
	store, err := policy.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.BulkLoad(campusPolicies(seed, npolicies)); err != nil {
		t.Fatal(err)
	}
	m, err := New(store, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Protect("wifi"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze("wifi"); err != nil {
		t.Fatal(err)
	}
	return &fixture{m: m, db: db, qm: policy.Metadata{Querier: "prof", Purpose: "attendance"}}
}

// Group policies must grant through membership for SIEVE and baselines
// alike.
func TestGroupPoliciesEndToEnd(t *testing.T) {
	db := engine.New(engine.MySQL())
	db.UDFOverheadIters = 0
	loadCampus(t, db)
	store, err := policy.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	groups := policy.StaticGroups{"prof": {"faculty"}}
	m, err := New(store, WithGroups(groups))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Protect("wifi"); err != nil {
		t.Fatal(err)
	}
	grpPolicy := &policy.Policy{
		Owner: 11, Querier: "faculty", Purpose: "attendance",
		Relation: "wifi", Action: policy.Allow,
	}
	if err := m.AddPolicy(grpPolicy); err != nil {
		t.Fatal(err)
	}
	qm := policy.Metadata{Querier: "prof", Purpose: "attendance"}
	res, err := m.NewSession(qm).Execute(t.Context(), selectAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != days*hours {
		t.Fatalf("group policy rows = %d, want %d", len(res.Rows), days*hours)
	}
	for _, r := range res.Rows {
		if r[1].I != 11 {
			t.Fatalf("leaked tuple of owner %d", r[1].I)
		}
	}
	// A policy inserted for the group must invalidate the member's cache.
	grp2 := &policy.Policy{Owner: 12, Querier: "faculty", Purpose: "attendance",
		Relation: "wifi", Action: policy.Allow}
	if err := m.AddPolicy(grp2); err != nil {
		t.Fatal(err)
	}
	res2, err := m.NewSession(qm).Execute(t.Context(), selectAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 2*days*hours {
		t.Fatalf("after group policy insert: %d rows, want %d", len(res2.Rows), 2*days*hours)
	}
}
