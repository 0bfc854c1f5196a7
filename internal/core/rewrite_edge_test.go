package core

import (
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
)

func TestCTENameCollisionGetsFreshName(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 20)
	// The user query already defines a CTE named like SIEVE's choice.
	q := "WITH wifi_sieve AS (SELECT * FROM membership) SELECT count(*) FROM wifi, wifi_sieve WHERE wifi.owner = wifi_sieve.uid"
	text, _, err := f.m.NewSession(f.qm).Rewrite(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "wifi_sieve2") {
		t.Fatalf("collision not resolved: %s", text[:150])
	}
	if _, err := f.m.NewSession(f.qm).Execute(t.Context(), q); err != nil {
		t.Fatalf("collision query failed: %v", err)
	}
}

func TestSelfJoinOfProtectedRelation(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 25)
	// Both sides of the self-join must be policy-filtered: each reads a
	// guarded CTE of its own, and the join predicate stays outside both.
	q := "SELECT a.id FROM wifi AS a, wifi AS b WHERE a.id = b.id"
	res, err := f.m.NewSession(f.qm).Execute(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := keysOf(f.allowedIDs(t))
	if !equalIDs(idsOf(res, 0), want) {
		t.Fatalf("self-join rows = %d, want %d", len(res.Rows), len(want))
	}
}

func TestPushdownSkipsJoinPredicates(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 25)
	// The join predicate references both tables; it must not be pushed
	// into the wifi CTE (where membership is out of scope).
	q := "SELECT W.id FROM wifi AS W, membership AS M WHERE M.uid = W.owner AND W.wifiAP = 100"
	text, _, err := f.m.NewSession(f.qm).Rewrite(q)
	if err != nil {
		t.Fatal(err)
	}
	cte := text[:strings.Index(text, ") SELECT")]
	if strings.Contains(cte, "uid") {
		t.Fatalf("join predicate leaked into the CTE: %s", cte)
	}
	if !strings.Contains(cte, "wifiAP = 100") {
		t.Fatalf("single-table predicate not pushed: %s", cte)
	}
	if _, err := f.m.NewSession(f.qm).Execute(t.Context(), q); err != nil {
		t.Fatal(err)
	}
}

func TestPushdownSkipsSubqueryPredicates(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 25)
	q := "SELECT id FROM wifi WHERE owner IN (SELECT uid FROM membership WHERE gid = 1) AND wifiAP = 101"
	text, _, err := f.m.NewSession(f.qm).Rewrite(q)
	if err != nil {
		t.Fatal(err)
	}
	cte := text[:strings.Index(text, ") SELECT")]
	if strings.Contains(cte, "membership") {
		t.Fatalf("subquery predicate pushed into the CTE: %s", cte)
	}
	res, err := f.m.NewSession(f.qm).Execute(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	base, err := f.m.ExecuteBaseline(t.Context(), BaselineP, q, f.qm)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(idsOf(res, 0), idsOf(base, 0)) {
		t.Fatal("IN-subquery query diverges from baseline")
	}
}

func TestRewriteKeepsUserAliasWorking(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 20)
	// Qualified references through the user's alias must keep resolving
	// after the table is redirected to the CTE.
	q := "SELECT W.owner FROM wifi AS W WHERE W.wifiAP = 100 GROUP BY W.owner"
	if _, err := f.m.NewSession(f.qm).Execute(t.Context(), q); err != nil {
		t.Fatalf("aliased query failed after rewrite: %v", err)
	}
	// Unaliased references get the relation name as alias (footnote 8).
	q2 := "SELECT wifi.owner FROM wifi WHERE wifi.wifiAP = 100 GROUP BY wifi.owner"
	if _, err := f.m.NewSession(f.qm).Execute(t.Context(), q2); err != nil {
		t.Fatalf("name-qualified query failed after rewrite: %v", err)
	}
}

func TestRewriteAppliesInsideUserCTEs(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 30)
	q := "WITH mine AS (SELECT * FROM wifi WHERE wifiAP = 100) SELECT count(*) FROM mine"
	res, err := f.m.NewSession(f.qm).Execute(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	base, err := f.m.ExecuteBaseline(t.Context(), BaselineP, q, f.qm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != base.Rows[0][0].I {
		t.Fatalf("CTE-wrapped enforcement diverges: %v vs %v", res.Rows[0][0], base.Rows[0][0])
	}
	if res.Rows[0][0].I == 0 {
		t.Skip("corpus yields zero AP-100 rows for this querier")
	}
}
