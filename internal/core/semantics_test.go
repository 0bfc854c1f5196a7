package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/guard"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// TestNonMonotonicMinusSemantics reproduces the §3.1 argument: with a set
// difference r_j MINUS r_k, policies must be enforced on each arm BEFORE
// the difference. A tuple of r_k that the querier may NOT see must not
// cancel an identical, visible tuple of r_j.
func TestNonMonotonicMinusSemantics(t *testing.T) {
	db := engine.New(engine.MySQL())
	db.UDFOverheadIters = 0
	schema := storage.MustSchema(
		storage.Column{Name: "owner", Type: storage.KindInt},
		storage.Column{Name: "val", Type: storage.KindInt},
	)
	for _, name := range []string{"rj", "rk"} {
		if _, err := db.CreateTable(name, schema); err != nil {
			t.Fatal(err)
		}
	}
	// Identical tuple (7, 42) in both relations.
	if err := db.BulkInsert("rj", []storage.Row{{storage.NewInt(7), storage.NewInt(42)}}); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkInsert("rk", []storage.Row{{storage.NewInt(7), storage.NewInt(42)}}); err != nil {
		t.Fatal(err)
	}
	store, err := policy.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	// Querier may see rj's tuple but NOT rk's (no policy on rk).
	if err := store.Insert(&policy.Policy{
		Owner: 7, Querier: "q", Purpose: "p", Relation: "rj", Action: policy.Allow,
	}); err != nil {
		t.Fatal(err)
	}
	m, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"rj", "rk"} {
		if err := m.Protect(rel); err != nil {
			t.Fatal(err)
		}
	}
	qm := policy.Metadata{Querier: "q", Purpose: "p"}
	query := "SELECT owner, val FROM rj MINUS SELECT owner, val FROM rk"
	res, err := m.NewSession(qm).Execute(t.Context(), query)
	if err != nil {
		t.Fatal(err)
	}
	// Enforcing policies first: rk contributes nothing (denied), so rj's
	// tuple survives the MINUS. Enforcing after the MINUS would wrongly
	// return zero rows.
	if len(res.Rows) != 1 || res.Rows[0][1].I != 42 {
		t.Fatalf("MINUS semantics broken: rows = %v", res.Rows)
	}
	for _, kind := range []BaselineKind{BaselineP, BaselineI, BaselineU} {
		bres, err := m.ExecuteBaseline(t.Context(), kind, query, qm)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(bres.Rows) != 1 {
			t.Errorf("%s MINUS semantics broken: %d rows", kind, len(bres.Rows))
		}
	}
}

// TestMultipleProtectedRelationsInOneQuery covers a join of two protected
// relations with independent policy sets.
func TestMultipleProtectedRelationsInOneQuery(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 30)
	// Add a second protected relation: a copy of wifi rows for 3 owners.
	schema := wifiSchemaDef()
	if _, err := f.db.CreateTable("badges", schema); err != nil {
		t.Fatal(err)
	}
	var rows []storage.Row
	f.db.MustTable("wifi").Scan(func(_ storage.RowID, r storage.Row) bool {
		if r[1].I < 3 {
			rows = append(rows, r.Clone())
		}
		return true
	})
	if err := f.db.BulkInsert("badges", rows); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Protect("badges"); err != nil {
		t.Fatal(err)
	}
	// Policies on badges: only owner 1 visible.
	if err := f.m.AddPolicy(&policy.Policy{
		Owner: 1, Querier: "prof", Purpose: "attendance", Relation: "badges", Action: policy.Allow,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := f.m.NewSession(f.qm).Execute(t.Context(), "SELECT W.id FROM wifi AS W, badges AS B WHERE W.id = B.id")
	if err != nil {
		t.Fatal(err)
	}
	allowedWifi := f.allowedIDs(t)
	count := 0
	f.db.MustTable("badges").Scan(func(_ storage.RowID, r storage.Row) bool {
		if r[1].I == 1 && allowedWifi[r[0].I] {
			count++
		}
		return true
	})
	if len(res.Rows) != count {
		t.Fatalf("join of two protected relations: %d rows, want %d", len(res.Rows), count)
	}
}

// TestGuardGenOptionsAblations verifies the ablation switches change guard
// structure without breaking soundness.
func TestGuardGenOptionsAblations(t *testing.T) {
	base := newFixture(t, engine.MySQL(), 60)
	want := keysOf(base.allowedIDs(t))

	variants := map[string][]Option{
		"nomerge":   {WithGuardGenOptions(guard.GenOptions{NoMerge: true})},
		"owneronly": {WithGuardGenOptions(guard.GenOptions{OwnerOnly: true})},
		"nohints":   {WithoutHints()},
		"linear":    {WithForcedStrategy(LinearScan)},
		"iguards":   {WithForcedStrategy(IndexGuards)},
	}
	for name, opts := range variants {
		f := newFixture(t, engine.MySQL(), 60, opts...)
		res, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !equalIDs(idsOf(res, 0), want) {
			t.Errorf("%s: soundness broken (%d vs %d rows)", name, len(res.Rows), len(want))
		}
	}
	// owner-only guards must produce one guard per distinct owner.
	f := newFixture(t, engine.MySQL(), 60, WithGuardGenOptions(guard.GenOptions{OwnerOnly: true}))
	if _, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll); err != nil {
		t.Fatal(err)
	}
	ge, _ := f.m.GuardedExpression(f.qm, "wifi")
	owners := map[int64]bool{}
	for _, p := range f.m.Store().PoliciesFor(f.qm, "wifi", policy.NoGroups) {
		owners[p.Owner] = true
	}
	if len(ge.Guards) != len(owners) {
		t.Errorf("owner-only guards = %d, want %d", len(ge.Guards), len(owners))
	}
	for _, g := range ge.Guards {
		if g.Cond.Attr != policy.OwnerAttr {
			t.Errorf("owner-only produced guard on %s", g.Cond.Attr)
		}
	}
}

// TestNoHintsRewriteOmitsHints checks the hint-suppression ablation shape.
func TestNoHintsRewriteOmitsHints(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 30, WithoutHints())
	sqlText, _, err := f.m.NewSession(f.qm).Rewrite(selectAll)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sqlText, "FORCE INDEX") || strings.Contains(sqlText, "USE INDEX") {
		t.Errorf("hints present despite WithoutHints: %s", sqlText[:120])
	}
}

// TestMiddlewareReattachSharesPersistedState: two middlewares over one
// database serve the same rows and share nothing but rP/rOC — the second
// finds the policies there and generates its own guards, and building it
// takes nothing from the first, which keeps answering.
func TestMiddlewareReattachSharesPersistedState(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 25)
	if _, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll); err != nil {
		t.Fatal(err)
	}
	tables := f.db.TableNames()
	// Reattach: fresh store + middleware over the same engine.
	store2, err := policy.NewStore(f.db)
	if err != nil {
		t.Fatal(err)
	}
	if store2.Len() != f.m.Store().Len() {
		t.Fatalf("reattached store has %d policies, want %d", store2.Len(), f.m.Store().Len())
	}
	m2, err := New(store2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Protect("wifi"); err != nil {
		t.Fatal(err)
	}
	want := keysOf(f.allowedIDs(t))
	for name, m := range map[string]*Middleware{"reattached": m2, "first": f.m} {
		res, err := m.NewSession(f.qm).Execute(t.Context(), selectAll)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(idsOf(res, 0), want) {
			t.Errorf("%s middleware diverges from the oracle", name)
		}
	}
	if cs := m2.CacheStats(); cs.GuardRegens != 1 || cs.GuardStates != 1 {
		t.Errorf("reattached middleware: %d generations, %d states, want its own one of each", cs.GuardRegens, cs.GuardStates)
	}
	if cs := f.m.CacheStats(); cs.GuardRegens != 1 || cs.GuardCacheHits == 0 {
		t.Errorf("first middleware: %d generations, %d cache hits, want its state untouched by the reattach", cs.GuardRegens, cs.GuardCacheHits)
	}
	if got := f.db.TableNames(); !slices.Equal(got, tables) {
		t.Errorf("relations after reattach = %v, before = %v", got, tables)
	}
}

// TestMiddlewareOwnsOnlyPolicyRelations: a middleware's guard cache lives in
// process. Whatever it is put through, the database holds the data relations
// and the policy store's rP and rOC, nothing else.
func TestMiddlewareOwnsOnlyPolicyRelations(t *testing.T) {
	f := newSigFixture(t, 3, 2)
	want := []string{"membership", policy.TableOC, policy.TableP, "wifi"}
	slices.Sort(want)
	check := func(when string) {
		t.Helper()
		if got := f.db.TableNames(); !slices.Equal(got, want) {
			t.Fatalf("relations %s = %v, want %v", when, got, want)
		}
	}
	check("after New and Protect")
	readAll := func() {
		t.Helper()
		for _, q := range f.queriers {
			if _, err := f.m.NewSession(f.metadata(q)).Execute(context.Background(), selectAll); err != nil {
				t.Fatal(err)
			}
		}
	}
	readAll()
	check("after queries from three signatures")
	grant := groupGrant("grp1", 17)
	grant.Conditions = []policy.ObjectCondition{policy.Compare("wifiAP", sqlparser.CmpEq, storage.NewInt(101))}
	if err := f.m.AddPolicy(grant); err != nil {
		t.Fatal(err)
	}
	readAll()
	check("after an insert and its regeneration")
	if err := f.m.RevokePolicy(grant.ID); err != nil {
		t.Fatal(err)
	}
	readAll()
	check("after a revocation and its regeneration")
	f.m.InvalidateAll()
	readAll()
	check("after InvalidateAll")
}

// TestRewriteWithSubqueryReferencingProtectedTable ensures replacement
// reaches table references inside expression subqueries.
func TestRewriteWithSubqueryReferencingProtectedTable(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 40)
	q := "SELECT count(*) FROM membership AS M WHERE M.uid IN (SELECT owner FROM wifi)"
	res, err := f.m.NewSession(f.qm).Execute(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	allowed := f.allowedIDs(t)
	visOwners := map[int64]bool{}
	f.db.MustTable("wifi").Scan(func(_ storage.RowID, r storage.Row) bool {
		if allowed[r[0].I] {
			visOwners[r[1].I] = true
		}
		return true
	})
	if res.Rows[0][0].I != int64(len(visOwners)) {
		t.Fatalf("subquery enforcement: %v members, want %d", res.Rows[0][0], len(visOwners))
	}
	// The rewritten SQL must not reference the raw table anymore.
	text, _, err := f.m.NewSession(f.qm).Rewrite(q)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sqlparser.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := f.db.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	raw := 0
	for _, ta := range ex.Tables {
		if ta.Ref != nil && ta.Ref.Name == "wifi" {
			raw++
		}
	}
	// One remaining raw reference is inside our own CTE body (by design).
	if raw != 1 {
		t.Errorf("raw wifi references after rewrite = %d, want 1 (the CTE body)", raw)
	}
}
