package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
)

// These tests pin derived resolution: an invalidated claim that is exact
// re-resolves from its last signature plus the policy writes since, and
// reads the store only when no live state has the set it derives.

// checkDerived asserts that every exact claim's derived set is the store's
// applicable set now: the deltas account for every write since its bind.
func checkDerived(t *testing.T, m *Middleware) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	for key, c := range m.claims {
		if !c.exact {
			continue
		}
		var d derivedSet
		d.load(c)
		now := policyIDs(m.store.PoliciesFor(policy.Metadata{Querier: key.querier, Purpose: key.purpose}, key.relation, m.groups))
		if !d.equals(now) || d.hash != signatureHash(now) {
			t.Errorf("exact claim %v derives ids %v + %v − %v (hash %x), PoliciesFor says %v (hash %x)",
				key, c.ids, d.adds[:d.nAdd], d.rems[:d.nRem], d.hash, now, signatureHash(now))
		}
	}
}

// deriveFixture is a campus middleware whose queriers belong to
// overlapping groups, with a corpus of personal and group grants.
type deriveFixture struct {
	m          *Middleware
	users      []string
	principals []string
	purposes   []string
}

func newDeriveFixture(t *testing.T, r *rand.Rand) *deriveFixture {
	t.Helper()
	db := engine.New(engine.MySQL())
	db.UDFOverheadIters = 0
	loadCampus(t, db)
	store, err := policy.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	f := &deriveFixture{purposes: []string{"attendance", "audit"}}
	groups := policy.StaticGroups{}
	for u := 0; u < 6; u++ {
		name := fmt.Sprintf("u%d", u)
		f.users = append(f.users, name)
		for g := 0; g < 3; g++ {
			if r.Intn(2) == 0 {
				groups[name] = append(groups[name], fmt.Sprintf("g%d", g))
			}
		}
	}
	f.principals = append(append(f.principals, f.users...), "g0", "g1", "g2")
	var ps []*policy.Policy
	for i := 0; i < 40; i++ {
		ps = append(ps, f.randomPolicy(r))
	}
	if err := store.BulkLoad(ps); err != nil {
		t.Fatal(err)
	}
	if f.m, err = New(store, WithGroups(groups)); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Protect("wifi"); err != nil {
		t.Fatal(err)
	}
	return f
}

// randomPolicy draws a personal or group grant, Allow or Deny, for any or
// one purpose, with or without an extra querier condition. Core resolves
// claims with no context, so a condition on "" applies and one on "vpn"
// does not.
func (f *deriveFixture) randomPolicy(r *rand.Rand) *policy.Policy {
	p := &policy.Policy{
		Owner:    int64(r.Intn(owners)),
		Querier:  f.principals[r.Intn(len(f.principals))],
		Purpose:  policy.AnyPurpose,
		Relation: "wifi",
		Action:   policy.Allow,
	}
	if r.Intn(2) == 0 {
		p.Purpose = f.purposes[r.Intn(len(f.purposes))]
	}
	if r.Intn(5) == 0 {
		p.Action = policy.Deny
	}
	if r.Intn(5) == 0 {
		p.ExtraQuerier = []policy.QuerierCondition{{Attr: "network", Val: []string{"", "vpn"}[r.Intn(2)]}}
	}
	return p
}

// write inserts a random policy or revokes a random live one (which a
// concurrent writer may have revoked first).
func (f *deriveFixture) write(t *testing.T, r *rand.Rand) {
	t.Helper()
	if r.Intn(3) == 0 {
		if all := f.m.Store().All(); len(all) > 0 {
			id := all[r.Intn(len(all))].ID
			if err := f.m.RevokePolicy(id); err != nil {
				if _, live := f.m.Store().ByID(id); live {
					t.Error(err)
				}
			}
			return
		}
	}
	if err := f.m.AddPolicy(f.randomPolicy(r)); err != nil {
		t.Error(err)
	}
}

func (f *deriveFixture) read(t *testing.T, r *rand.Rand) {
	t.Helper()
	qm := policy.Metadata{Querier: f.users[r.Intn(len(f.users))], Purpose: f.purposes[r.Intn(len(f.purposes))]}
	if _, err := f.m.NewSession(qm).Execute(context.Background(), selectAll); err != nil {
		t.Error(err)
	}
}

// TestDerivedResolutionMatchesStore: random inserts and revocations —
// personal and group, Allow and Deny, any purpose and one, with and without
// extra querier conditions — interleaved with reads by random queriers.
// After every read each valid claim's state and each exact claim's derived
// set equal PoliciesFor. Then the same mixture runs concurrently and the
// same holds once it settles.
func TestDerivedResolutionMatchesStore(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		f := newDeriveFixture(t, r)
		for op := 0; op < 300; op++ {
			if r.Intn(3) == 0 {
				f.write(t, r)
				continue
			}
			f.read(t, r)
			checkStates(t, f.m)
			checkDerived(t, f.m)
		}
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
		cs := f.m.CacheStats()
		t.Logf("seed %d: %d misses, %d derived", seed, cs.GuardCacheMisses, cs.ClaimsDerived)
		if cs.ClaimsDerived == 0 {
			t.Errorf("seed %d: no resolution was derived (%+v)", seed, cs)
		}

		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wr := rand.New(rand.NewSource(seed*10 + int64(w)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for op := 0; op < 60; op++ {
					if wr.Intn(3) == 0 {
						f.write(t, wr)
					} else {
						f.read(t, wr)
					}
				}
			}()
		}
		wg.Wait()
		checkDerived(t, f.m)
		for _, u := range f.users {
			for _, pur := range f.purposes {
				if _, err := f.m.NewSession(policy.Metadata{Querier: u, Purpose: pur}).Execute(context.Background(), selectAll); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkStates(t, f.m)
		checkDerived(t, f.m)
		if t.Failed() {
			t.Fatalf("seed %d, concurrent phase", seed)
		}
	}
}

// TestGroupWriteReadsStoreOnce: after one write to a group whose N members
// share a signature, the N members read again and the store is read once —
// by the member that builds the new state; the others derive its signature
// and find it. The same holds for a revocation.
func TestGroupWriteReadsStoreOnce(t *testing.T) {
	const n = 8
	f := newSigFixture(t, 1, n)
	ctx := context.Background()
	st, err := f.m.Prepare(selectAll)
	if err != nil {
		t.Fatal(err)
	}
	readAll := func() {
		t.Helper()
		for _, q := range f.queriers {
			if _, err := st.Execute(ctx, f.m.NewSession(f.metadata(q))); err != nil {
				t.Fatal(err)
			}
		}
	}
	readAll()
	reads := 0
	f.m.hookStoreRead = func() { reads++ }
	grant := groupGrant("grp0", 21)
	for _, write := range []struct {
		name string
		do   func() error
	}{
		{"insert", func() error { return f.m.AddPolicy(grant) }},
		{"revoke", func() error { return f.m.RevokePolicy(grant.ID) }},
	} {
		if err := write.do(); err != nil {
			t.Fatal(err)
		}
		reads = 0
		before := f.m.CacheStats()
		readAll()
		after := f.m.CacheStats()
		if reads != 1 {
			t.Errorf("%s: %d members read the store %d times, want 1", write.name, n, reads)
		}
		if got := after.ClaimsDerived - before.ClaimsDerived; got != n-1 {
			t.Errorf("%s: %d resolutions derived, want %d", write.name, got, n-1)
		}
		if got := after.GuardRegens - before.GuardRegens; got != 1 {
			t.Errorf("%s: %d states built, want 1", write.name, got)
		}
		if got := after.GuardCacheMisses - before.GuardCacheMisses; got != n {
			t.Errorf("%s: %d guard-cache misses, want %d (a derived resolution is a miss)", write.name, got, n)
		}
		checkStates(t, f.m)
		checkDerived(t, f.m)
	}
}

// TestInvalidateAllEndsDerivation: a group-membership change is announced
// by InvalidateAll, which no delta describes, so every claim reads the
// store again — even one whose derived set a former group-mate has just
// made live.
func TestInvalidateAllEndsDerivation(t *testing.T) {
	f := newSigFixture(t, 2, 2)
	ctx := context.Background()
	read := func(q string) {
		t.Helper()
		if _, err := f.m.NewSession(f.metadata(q)).Execute(ctx, selectAll); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range f.queriers {
		read(q)
	}
	// A write to grp0 leaves its members invalid and exact, with +id.
	if err := f.m.AddPolicy(groupGrant("grp0", 9)); err != nil {
		t.Fatal(err)
	}
	f.groups["member0_0"] = []string{"grp1"}
	f.m.InvalidateAll()
	read("member0_1") // grp0's new set is live
	read("member0_0")
	checkStates(t, f.m)
	if ids, _ := boundIDs(f.m, f.metadata("member0_0")); len(ids) != sigOwnersPerGroup || ids[0] != sigOwnersPerGroup+1 {
		t.Errorf("member0_0 moved to grp1 and is bound to policies %v", ids)
	}
}
