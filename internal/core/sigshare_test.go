package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/storage"
)

// sigFixture is a population of queriers split across access groups, with
// every policy granted to a group identity — so group members share one
// policy signature, the regime the signature cache is built for.
type sigFixture struct {
	m        *Middleware
	db       *engine.DB
	queriers []string
	groupOf  map[string]string
	groups   policy.StaticGroups // the middleware's resolver
}

// newSigFixture builds nGroups groups of perGroup queriers each. Group g
// is granted the owners in [g*10, g*10+ownersPerGroup).
const sigOwnersPerGroup = 5

func newSigFixture(t *testing.T, nGroups, perGroup int) *sigFixture {
	t.Helper()
	db := engine.New(engine.MySQL())
	db.UDFOverheadIters = 0
	loadCampus(t, db)
	store, err := policy.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	groups := policy.StaticGroups{}
	f := &sigFixture{db: db, groupOf: make(map[string]string), groups: groups}
	var ps []*policy.Policy
	for g := 0; g < nGroups; g++ {
		gname := fmt.Sprintf("grp%d", g)
		for i := 0; i < perGroup; i++ {
			q := fmt.Sprintf("member%d_%d", g, i)
			groups[q] = []string{gname}
			f.queriers = append(f.queriers, q)
			f.groupOf[q] = gname
		}
		for o := 0; o < sigOwnersPerGroup; o++ {
			ps = append(ps, &policy.Policy{
				Owner: int64(g*10 + o), Querier: gname, Purpose: policy.AnyPurpose,
				Relation: "wifi", Action: policy.Allow,
			})
		}
	}
	if err := store.BulkLoad(ps); err != nil {
		t.Fatal(err)
	}
	m, err := New(store, WithGroups(groups))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Protect("wifi"); err != nil {
		t.Fatal(err)
	}
	f.m = m
	return f
}

func (f *sigFixture) metadata(q string) policy.Metadata {
	return policy.Metadata{Querier: q, Purpose: "attendance"}
}

// TestSignatureSharingIsOProfiles drives a querier population through one
// prepared statement and checks the tentpole's cardinality claim: guard
// generations, guard states, and cached plans number O(profiles), not
// O(queriers), and one policy insert invalidates only the touched
// signature's plan.
func TestSignatureSharingIsOProfiles(t *testing.T) {
	const nGroups, perGroup = 4, 15
	f := newSigFixture(t, nGroups, perGroup)
	st, err := f.m.Prepare("SELECT * FROM wifi")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range f.queriers {
		if _, err := st.Execute(context.Background(), f.m.NewSession(f.metadata(q))); err != nil {
			t.Fatal(err)
		}
	}
	cs := f.m.CacheStats()
	if cs.Claims != int64(len(f.queriers)) {
		t.Errorf("claims = %d, want one per querier (%d)", cs.Claims, len(f.queriers))
	}
	if cs.GuardStates != nGroups {
		t.Errorf("guard states = %d, want one per profile (%d)", cs.GuardStates, nGroups)
	}
	if cs.GuardRegens != nGroups {
		t.Errorf("guard regens = %d, want one per profile (%d)", cs.GuardRegens, nGroups)
	}
	if got := st.CachedPlans(); got != nGroups {
		t.Errorf("cached plans = %d, want one per profile (%d)", got, nGroups)
	}
	if want := int64(len(f.queriers) - nGroups); cs.GuardShares < want {
		t.Errorf("guard shares = %d, want >= %d (every member after the first shares)", cs.GuardShares, want)
	}

	// One policy insert against grp0: exactly grp0's signature moves.
	rewritesBefore := st.Rewrites()
	claimsInvalidatedBefore := cs.ClaimsInvalidated
	regensBefore := make(map[string]int)
	for _, q := range f.queriers {
		regensBefore[q] = f.m.Regens(f.metadata(q), "wifi")
	}
	if err := f.m.AddPolicy(&policy.Policy{
		Owner: 7, Querier: "grp0", Purpose: policy.AnyPurpose,
		Relation: "wifi", Action: policy.Allow,
	}); err != nil {
		t.Fatal(err)
	}
	for _, q := range f.queriers {
		if _, err := st.Execute(context.Background(), f.m.NewSession(f.metadata(q))); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Rewrites() - rewritesBefore; got != 1 {
		t.Errorf("plans rebuilt after one AddPolicy = %d, want 1 (the touched signature)", got)
	}
	for _, q := range f.queriers {
		got := f.m.Regens(f.metadata(q), "wifi")
		want := regensBefore[q]
		if f.groupOf[q] == "grp0" {
			want++
		}
		if got != want {
			t.Errorf("querier %s (group %s): regens = %d, want %d", q, f.groupOf[q], got, want)
		}
	}
	// The invalidation is scoped: it dropped claims of the touched
	// group's members only, never the population's.
	churned := f.m.CacheStats()
	if got := churned.ClaimsInvalidated - claimsInvalidatedBefore; got < 1 || got > perGroup {
		t.Errorf("claims invalidated by one AddPolicy = %d, want 1..%d (grp0's members)", got, perGroup)
	}

	// Steady state: one further full pass is served from the signature
	// cache — no claim consults the store again.
	for _, q := range f.queriers {
		if _, err := st.Execute(context.Background(), f.m.NewSession(f.metadata(q))); err != nil {
			t.Fatal(err)
		}
	}
	steady := f.m.CacheStats()
	hits := steady.GuardCacheHits - churned.GuardCacheHits
	misses := steady.GuardCacheMisses - churned.GuardCacheMisses
	if hits == 0 || float64(hits)/float64(hits+misses) < 0.99 {
		t.Errorf("steady-state guard cache: %d hits, %d misses, want hit rate >= 0.99", hits, misses)
	}
}

// TestConcurrentChurnWithSharedPreparedStatements runs policy churn
// (AddPolicy/RevokePolicy of a grant to one group) against live prepared
// statements spanning signature-sharing queriers. It asserts the two
// safety properties scoped invalidation must preserve under concurrency:
// a revoked policy's rows never appear in a query that started after the
// revocation returned, and queriers in the untouched group keep their
// guard generation throughout (their plans were never invalidated).
// Meant to run under -race with -cpu=1,4 (see CI).
func TestConcurrentChurnWithSharedPreparedStatements(t *testing.T) {
	const nGroups, perGroup = 2, 4
	const churnOwner = int64(15) // in no group's stable grant range
	f := newSigFixture(t, nGroups, perGroup)
	st, err := f.m.Prepare("SELECT * FROM wifi")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// legalOwners[g] is the stable grant set of group g.
	legal := make(map[string]map[int64]bool)
	for g := 0; g < nGroups; g++ {
		set := make(map[int64]bool)
		for o := 0; o < sigOwnersPerGroup; o++ {
			set[int64(g*10+o)] = true
		}
		legal[fmt.Sprintf("grp%d", g)] = set
	}

	// Warm every querier's claim and plan, then pin the untouched
	// group's regen counters.
	for _, q := range f.queriers {
		if _, err := st.Execute(ctx, f.m.NewSession(f.metadata(q))); err != nil {
			t.Fatal(err)
		}
	}
	grp1Regens := make(map[string]int)
	for _, q := range f.queriers {
		if f.groupOf[q] == "grp1" {
			grp1Regens[q] = f.m.Regens(f.metadata(q), "wifi")
		}
	}

	churnIters := 40
	if testing.Short() {
		churnIters = 10
	}
	stop := make(chan struct{})
	errc := make(chan error, len(f.queriers)+1)
	var wg sync.WaitGroup

	// Readers: every querier hammers the shared prepared statement and
	// validates each result against the two legal worlds — its group's
	// stable grants, plus (while the churn grant may be live, grp0 only)
	// the churn owner. Any other owner is an enforcement escape.
	for _, q := range f.queriers {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			sess := f.m.NewSession(f.metadata(q))
			allowed := legal[f.groupOf[q]]
			churnLegal := f.groupOf[q] == "grp0"
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := st.Execute(ctx, sess)
				if err != nil {
					errc <- fmt.Errorf("querier %s: %v", q, err)
					return
				}
				for _, r := range res.Rows {
					owner := r[1].I
					if allowed[owner] || (churnLegal && owner == churnOwner) {
						continue
					}
					errc <- fmt.Errorf("querier %s saw owner %d (legal: stable grants%s)",
						q, owner, map[bool]string{true: " + churn owner", false: ""}[churnLegal])
					return
				}
			}
		}(q)
	}

	// Writer: add and revoke the grant, and after every revocation
	// returns, verify airtightness serially — a fresh query through the
	// same prepared statement must not leak the revoked owner's rows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		checker := f.m.NewSession(f.metadata(f.queriers[0])) // a grp0 member
		for i := 0; i < churnIters; i++ {
			p := &policy.Policy{
				Owner: churnOwner, Querier: "grp0", Purpose: policy.AnyPurpose,
				Relation: "wifi", Action: policy.Allow,
			}
			if err := f.m.AddPolicy(p); err != nil {
				errc <- err
				return
			}
			if err := f.m.RevokePolicy(p.ID); err != nil {
				errc <- err
				return
			}
			res, err := st.Execute(ctx, checker)
			if err != nil {
				errc <- err
				return
			}
			for _, r := range res.Rows {
				if r[1].I == churnOwner {
					errc <- fmt.Errorf("iteration %d: owner %d row visible after RevokePolicy returned", i, churnOwner)
					return
				}
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// The untouched group's claims were never invalidated: regen
	// counters stay flat through the whole churn storm.
	for q, before := range grp1Regens {
		if got := f.m.Regens(f.metadata(q), "wifi"); got != before {
			t.Errorf("untouched querier %s: regens %d → %d (scoped invalidation leaked)", q, before, got)
		}
	}
}

// TestPlanCachedUnderRewriteResolvedToken pins the plan-cache keying
// invariant: a plan is cached under the token of the one resolution it was
// rewritten from. When a policy granted to ONE member of a
// signature-sharing group lands after the group's plan is cached, that
// member's next query resolves a new token and rewrites from the same
// resolution, so the plan carrying the grant's arm is cached under the
// member's post-insert token. Caching it under the pre-insert token would
// serve the grantee's extra rows to every peer still resolving the old
// signature — peers the policy does not apply to.
func TestPlanCachedUnderRewriteResolvedToken(t *testing.T) {
	f := newSigFixture(t, 1, 2)
	st, err := f.m.Prepare("SELECT * FROM wifi")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	qmA := f.metadata("member0_0")
	qmB := f.metadata("member0_1")
	// Warm both claims: one shared signature, one shared token.
	for _, qm := range []policy.Metadata{qmA, qmB} {
		if _, err := st.Execute(ctx, f.m.NewSession(qm)); err != nil {
			t.Fatal(err)
		}
	}
	tokenOf := func(qm policy.Metadata) string {
		t.Helper()
		res, err := f.m.resolve(qm, st.tables)
		if err != nil {
			t.Fatal(err)
		}
		return resolutionToken(res)
	}
	tokA, tokB := tokenOf(qmA), tokenOf(qmB)
	if tokA != tokB {
		t.Fatalf("shared-signature members resolved different tokens: %q vs %q", tokA, tokB)
	}

	// A personal grant to member0_0 (not the group), then A's query: one
	// resolution, and a plan rewritten from it.
	const personalOwner = int64(25)
	if err := f.m.AddPolicy(&policy.Policy{
		Owner: personalOwner, Querier: "member0_0", Purpose: policy.AnyPurpose,
		Relation: "wifi", Action: policy.Allow,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Execute(ctx, f.m.NewSession(qmA)); err != nil {
		t.Fatal(err)
	}
	freshA := tokenOf(qmA)
	if freshA == tokA {
		t.Fatalf("post-insert resolution reported the pre-insert token %q; a plan carrying the new grant would be cached under the shared stale key", tokA)
	}
	sees := func(tok string) (cached, granted bool) {
		t.Helper()
		st.mu.Lock()
		p := st.plans[tok]
		st.mu.Unlock()
		if p == nil {
			return false, false
		}
		res, err := engine.Collect(p.exec.Stream(ctx))
		if err != nil {
			t.Fatal(err)
		}
		return true, slices.ContainsFunc(res.Rows, func(r storage.Row) bool { return r[1].I == personalOwner })
	}
	if cached, granted := sees(freshA); !cached || !granted {
		t.Errorf("rewrite token: plan under A's post-insert token %q cached=%v, carries the grant=%v; want both", freshA, cached, granted)
	}
	if _, granted := sees(tokA); granted {
		t.Errorf("the plan under the pre-insert token %q carries A's personal grant", tokA)
	}
	// B's applicable set did not change: B keeps the old token and must
	// never resolve to the grantee's.
	freshB := tokenOf(qmB)
	if freshB != tokB {
		t.Errorf("peer's token moved %q → %q though its policy set is unchanged", tokB, freshB)
	}
	if freshB == freshA {
		t.Errorf("peer resolves the grantee's token %q: the personal grant's plan would be shared", freshB)
	}
}

// TestOneResolutionPerQuery: a query resolves each protected relation it
// references exactly once, on every path — an unprepared Session.Query, a
// prepared plan miss and hit, and a placeholder-bound Stmt.Query — so the
// guard cache counts one hit or miss per relation per query.
func TestOneResolutionPerQuery(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 30)
	visits := storage.MustSchema(
		storage.Column{Name: "id", Type: storage.KindInt},
		storage.Column{Name: "owner", Type: storage.KindInt},
	)
	if _, err := f.db.CreateTable("visits", visits); err != nil {
		t.Fatal(err)
	}
	var rows []storage.Row
	for o := int64(0); o < owners; o++ {
		rows = append(rows, storage.Row{storage.NewInt(o), storage.NewInt(o)})
	}
	if err := f.db.BulkInsert("visits", rows); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Protect("visits"); err != nil {
		t.Fatal(err)
	}
	for o := int64(0); o < owners; o += 3 {
		if err := f.m.AddPolicy(&policy.Policy{Owner: o, Querier: "prof", Purpose: "attendance", Relation: "visits", Action: policy.Allow}); err != nil {
			t.Fatal(err)
		}
	}
	const join = "SELECT W.id FROM wifi AS W, visits AS V WHERE V.owner = W.owner"
	ctx := context.Background()
	sess := f.m.NewSession(f.qm)
	prepared, err := f.m.Prepare(join)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := f.m.Prepare(join + " AND W.wifiAP = ?")
	if err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name       string
		query      func() (*engine.Rows, error)
		planMisses int64
		planHits   int64
	}{
		{"Session.Query", func() (*engine.Rows, error) { return sess.Query(ctx, join) }, 0, 0},
		{"prepared miss", func() (*engine.Rows, error) { return prepared.Query(ctx, sess) }, 1, 0},
		{"prepared hit", func() (*engine.Rows, error) { return prepared.Query(ctx, sess) }, 0, 1},
		{"bound Stmt.Query", func() (*engine.Rows, error) { return bound.Query(ctx, sess, storage.NewInt(101)) }, 0, 0},
	}
	for _, c := range calls {
		before := f.m.CacheStats()
		rows, err := c.query()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for rows.Next() {
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		after := f.m.CacheStats()
		resolved := after.GuardCacheHits + after.GuardCacheMisses - before.GuardCacheHits - before.GuardCacheMisses
		if resolved != 2 {
			t.Errorf("%s: %d guard-cache resolutions for two protected relations, want 2", c.name, resolved)
		}
		if got := after.PlanCacheMisses - before.PlanCacheMisses; got != c.planMisses {
			t.Errorf("%s: %d plan-cache misses, want %d", c.name, got, c.planMisses)
		}
		if got := after.PlanCacheHits - before.PlanCacheHits; got != c.planHits {
			t.Errorf("%s: %d plan-cache hits, want %d", c.name, got, c.planHits)
		}
	}
}

// TestMidRewriteInsertDoesNotPoisonSharedPlan drives policy churn into a
// plan miss end to end, deterministically: two queriers share a signature
// and their claims are warm, the prepared statement's plan cache is cold,
// and a personal grant to querier A is injected — via the test hook —
// exactly between A's resolution and the rewrite built from it. A plan that
// carried the grant's arm under the token A resolved before it would hand
// B, who still resolves that token, the grantee's rows.
func TestMidRewriteInsertDoesNotPoisonSharedPlan(t *testing.T) {
	const grantOwner = int64(25) // outside grp0's stable grants (owners 0-4)
	f := newSigFixture(t, 1, 2)
	ctx := context.Background()
	qmA := f.metadata("member0_0")
	qmB := f.metadata("member0_1")
	// Warm both claims through a throwaway statement so the shared
	// signature exists before the statement under test ever runs.
	warm, err := f.m.Prepare("SELECT * FROM wifi")
	if err != nil {
		t.Fatal(err)
	}
	for _, qm := range []policy.Metadata{qmA, qmB} {
		if _, err := warm.Execute(ctx, f.m.NewSession(qm)); err != nil {
			t.Fatal(err)
		}
	}

	st, err := f.m.Prepare("SELECT * FROM wifi")
	if err != nil {
		t.Fatal(err)
	}
	inserted := false
	st.hookAfterResolve = func() {
		if inserted {
			return
		}
		inserted = true
		if err := f.m.AddPolicy(&policy.Policy{
			Owner: grantOwner, Querier: "member0_0", Purpose: policy.AnyPurpose,
			Relation: "wifi", Action: policy.Allow,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Execute(ctx, f.m.NewSession(qmA)); err != nil {
		t.Fatal(err)
	}
	if !inserted {
		t.Fatal("test hook never fired; the window was not exercised")
	}
	st.hookAfterResolve = nil
	res, err := st.Execute(ctx, f.m.NewSession(qmB))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r[1].I == grantOwner {
			t.Fatalf("member0_1 saw owner %d, granted only to member0_0 mid-rewrite", grantOwner)
		}
	}
}

// TestConcurrentPersonalGrantNeverLeaksAcrossSignature stresses the
// INSERT direction of churn (the revocation direction is covered above):
// a personal grant to one member of a signature-sharing group is added
// and revoked in a loop while both the grantee and a peer hammer the same
// prepared statement. The peer's applicable set never contains the grant,
// so the peer must never see the granted owner's rows, whatever
// interleaving of token resolution, insert, rewrite, and caching occurs.
// Meant to run under -race with -cpu=1,4 (see CI).
func TestConcurrentPersonalGrantNeverLeaksAcrossSignature(t *testing.T) {
	const grantOwner = int64(25) // outside grp0's stable grants (owners 0-4)
	f := newSigFixture(t, 1, 2)
	st, err := f.m.Prepare("SELECT * FROM wifi")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	grantee, peer := "member0_0", "member0_1"
	for _, q := range []string{grantee, peer} {
		if _, err := st.Execute(ctx, f.m.NewSession(f.metadata(q))); err != nil {
			t.Fatal(err)
		}
	}

	churnIters := 40
	if testing.Short() {
		churnIters = 10
	}
	stop := make(chan struct{})
	errc := make(chan error, 3)
	var wg sync.WaitGroup

	// The grantee hammers the statement so plan rebuilds race the writer;
	// its rows may legally include grantOwner while the grant is live.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := f.m.NewSession(f.metadata(grantee))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := st.Execute(ctx, sess); err != nil {
				errc <- fmt.Errorf("grantee: %v", err)
				return
			}
		}
	}()

	// The peer shares the pre-grant signature and must never see the
	// personally granted owner.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := f.m.NewSession(f.metadata(peer))
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := st.Execute(ctx, sess)
			if err != nil {
				errc <- fmt.Errorf("peer: %v", err)
				return
			}
			for _, r := range res.Rows {
				if r[1].I == grantOwner {
					errc <- fmt.Errorf("peer %s saw owner %d, granted only to %s", peer, grantOwner, grantee)
					return
				}
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < churnIters; i++ {
			p := &policy.Policy{
				Owner: grantOwner, Querier: grantee, Purpose: policy.AnyPurpose,
				Relation: "wifi", Action: policy.Allow,
			}
			if err := f.m.AddPolicy(p); err != nil {
				errc <- err
				return
			}
			if err := f.m.RevokePolicy(p.ID); err != nil {
				errc <- err
				return
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
