package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// These tests pin what a policy write may cost the queriers who did not
// write it: a regeneration runs outside Middleware.mu, once per signature,
// is bound only if the policy set it was built from is still the claim's,
// and everything it supersedes — states, plans — is gone by the next read.
// The concurrent ones park a generation in hookGenerated (generated, not yet
// published) instead of sleeping; CI runs them under
// -race with -cpu=1,4.

// stuck bounds how long a test waits for something that must not block. It
// is a failure deadline, never a synchronisation.
const stuck = 30 * time.Second

func groupGrant(group string, owner int64) *policy.Policy {
	return &policy.Policy{Owner: owner, Querier: group, Purpose: policy.AnyPurpose, Relation: "wifi", Action: policy.Allow}
}

func ownersOf(res *engine.Result) []int64 {
	seen := map[int64]bool{}
	for _, r := range res.Rows {
		seen[r[1].I] = true
	}
	return keysOf(seen)
}

// checkStates asserts that the signature index holds exactly what the claims
// are bound to, and that what they are bound to is what the store says: no
// retired state in a bucket, every state under its own signature and there
// once, every bound claim on an indexed state, every valid claim's state
// equal to PoliciesFor now — so the live states are the distinct live
// signatures, no more.
func checkStates(t *testing.T, m *Middleware) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	indexed := map[*geState]bool{}
	for sk, bucket := range m.states {
		for i, st := range bucket {
			if st.gone.Load() {
				t.Errorf("state %d is retired and still indexed", st.stateID)
			}
			if sk != (stateKey{relation: st.relation, hash: signatureHash(st.ids)}) || sk.hash != st.hash {
				t.Errorf("state %d (ids %v) is indexed under another signature", st.stateID, st.ids)
			}
			if slices.ContainsFunc(bucket[:i], func(o *geState) bool { return slices.Equal(o.ids, st.ids) }) {
				t.Errorf("signature %v has two live states", st.ids)
			}
			indexed[st] = true
		}
	}
	bound := map[*geState]bool{}
	for key, c := range m.claims {
		st := c.state
		if st == nil {
			continue
		}
		bound[st] = true
		if _, ok := st.claims[c]; !ok || !indexed[st] {
			t.Errorf("claim %v is bound to state %d, which is retired or does not know it", key, st.stateID)
		}
		if c.valid {
			now := policyIDs(m.store.PoliciesFor(policy.Metadata{Querier: key.querier, Purpose: key.purpose}, key.relation, m.groups))
			if !slices.Equal(st.ids, now) {
				t.Errorf("valid claim %v serves policies %v, PoliciesFor says %v", key, st.ids, now)
			}
		}
	}
	if len(bound) != len(indexed) {
		t.Errorf("%d live states, the claims are bound to %d", len(indexed), len(bound))
	}
}

// boundIDs returns the policy ids of the state the querier's claim is bound
// to, and whether the claim is valid.
func boundIDs(m *Middleware, qm policy.Metadata) ([]int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.claims[geKey{querier: qm.Querier, purpose: qm.Purpose, relation: "wifi"}]
	if c == nil || c.state == nil {
		return nil, false
	}
	return c.state.ids, c.valid
}

// TestGenerationDoesNotBlockOtherSignatures: while one signature's
// generation is parked between "generated" and "published", a reader of
// another signature — one that has to generate too —, a reader served from a
// valid claim and a policy write all complete.
func TestGenerationDoesNotBlockOtherSignatures(t *testing.T) {
	f := newSigFixture(t, 3, 2)
	ctx := context.Background()
	st, err := f.m.Prepare(selectAll)
	if err != nil {
		t.Fatal(err)
	}
	warm := f.m.NewSession(f.metadata("member2_0"))
	if _, err := st.Execute(ctx, warm); err != nil {
		t.Fatal(err)
	}

	parked, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	f.m.hookGenerated = func() {
		if calls.Add(1) == 1 {
			close(parked)
			<-release
		}
	}
	aDone := make(chan error, 1)
	go func() {
		_, err := st.Execute(ctx, f.m.NewSession(f.metadata("member0_0")))
		aDone <- err
	}()
	select {
	case <-parked:
	case <-time.After(stuck):
		t.Fatal("grp0's generation never reached the hook")
	}

	others := make(chan error, 1)
	go func() {
		defer close(others)
		res, err := st.Execute(ctx, f.m.NewSession(f.metadata("member1_0"))) // generates grp1's state
		if err == nil && !slices.Equal(ownersOf(res), []int64{10, 11, 12, 13, 14}) {
			err = fmt.Errorf("grp1 member saw owners %v", ownersOf(res))
		}
		if err == nil {
			_, err = st.Execute(ctx, warm) // a valid claim: no store access
		}
		if err == nil {
			err = f.m.AddPolicy(groupGrant("grp1", 17)) // a write takes m.mu too
		}
		if err != nil {
			others <- err
		}
	}()
	select {
	case err := <-others:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(stuck):
		t.Fatal("readers of other signatures waited for grp0's parked generation")
	}
	select {
	case err := <-aDone:
		t.Fatalf("grp0's reader returned (%v) while its generation was parked", err)
	default:
	}
	close(release)
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	checkStates(t, f.m)
}

// TestOneGenerationPerInvalidatedSignature: N queriers whose shared
// signature was just invalidated read at once; one of them generates, the
// rest wait for it or find it, and all see the same rows.
func TestOneGenerationPerInvalidatedSignature(t *testing.T) {
	const n = 8
	f := newSigFixture(t, 1, n)
	ctx := context.Background()
	st, err := f.m.Prepare(selectAll)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range f.queriers {
		if _, err := st.Execute(ctx, f.m.NewSession(f.metadata(q))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.m.AddPolicy(groupGrant("grp0", 21)); err != nil {
		t.Fatal(err)
	}
	before := f.m.CacheStats()

	// The generation is held until every other reader has been started, so
	// that they meet it in flight rather than after it.
	var started sync.WaitGroup
	started.Add(n - 1)
	var leader atomic.Bool
	f.m.hookGenerated = func() { started.Wait() }
	results := make([][]int64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, q := range f.queriers {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			if leader.Swap(true) {
				started.Done()
			}
			res, err := st.Execute(ctx, f.m.NewSession(f.metadata(q)))
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = idsOf(res, 0)
		}(i, q)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", f.queriers[i], err)
		}
	}
	after := f.m.CacheStats()
	if got := after.GuardRegens - before.GuardRegens; got != 1 {
		t.Errorf("%d readers of one invalidated signature performed %d generations, want 1", n, got)
	}
	if after.GuardStates != 1 {
		t.Errorf("guard states = %d, want 1: the superseded state should have retired with the first reader", after.GuardStates)
	}
	for i := 1; i < n; i++ {
		if !slices.Equal(results[i], results[0]) {
			t.Fatalf("%s and %s share a signature and read different rows", f.queriers[i], f.queriers[0])
		}
	}
	if len(results[0]) != (sigOwnersPerGroup+1)*days*hours {
		t.Errorf("rows = %d, want the five stable owners' and the new grant's", len(results[0]))
	}
	checkStates(t, f.m)
}

// TestPolicyWriteBetweenGeneratedAndPublished: a state is bound only if the
// policy set it was built from is still the claim's when it is published. A
// revocation — and, separately, an insert — lands while the generated state
// is in nobody's index: the state is dropped, the reader
// regenerates, and ends bound to what PoliciesFor says now.
func TestPolicyWriteBetweenGeneratedAndPublished(t *testing.T) {
	for _, write := range []string{"revoke", "insert"} {
		t.Run(write, func(t *testing.T) {
			f := newSigFixture(t, 1, 2)
			ctx := context.Background()
			qm := f.metadata("member0_0")
			sess := f.m.NewSession(qm)
			st, err := f.m.Prepare(selectAll)
			if err != nil {
				t.Fatal(err)
			}
			churn := groupGrant("grp0", 21)
			if write == "revoke" {
				if err := f.m.AddPolicy(churn); err != nil {
					t.Fatal(err)
				}
			}
			fired := 0
			f.m.hookGenerated = func() {
				if fired++; fired > 1 {
					return
				}
				var err error
				if write == "revoke" {
					err = f.m.RevokePolicy(churn.ID)
				} else {
					err = f.m.AddPolicy(churn)
				}
				if err != nil {
					t.Error(err)
				}
			}
			res, err := st.Execute(ctx, sess)
			if err != nil {
				t.Fatal(err)
			}
			if fired != 2 {
				t.Fatalf("generations = %d, want 2: the first was built from a set the write moved", fired)
			}
			want := []int64{0, 1, 2, 3, 4}
			if write == "insert" {
				want = append(want, 21)
			}
			if got := ownersOf(res); !slices.Equal(got, want) {
				t.Errorf("after the %s, owners read = %v, want %v", write, got, want)
			}
			ids, valid := boundIDs(f.m, qm)
			now := policyIDs(f.m.Store().PoliciesFor(qm, "wifi", f.m.Groups()))
			if !valid || !slices.Equal(ids, now) {
				t.Errorf("claim bound to ids %v (valid %v), PoliciesFor says %v", ids, valid, now)
			}
			if cs := f.m.CacheStats(); cs.GuardStates != 1 {
				t.Errorf("guard states = %d, want 1 (the orphan is never published)", cs.GuardStates)
			}
			// Each state registers its guard disjunction as it is built; the
			// dropped one released its registration where it was dropped.
			if live, _ := f.db.SharedFilters(); live != 1 {
				t.Errorf("%d shared filters registered, want 1: the live state's alone", live)
			}
			checkStates(t, f.m)
			// The peer shares what was published, without generating.
			if _, err := st.Execute(ctx, f.m.NewSession(f.metadata("member0_1"))); err != nil {
				t.Fatal(err)
			}
			if fired != 2 {
				t.Errorf("the peer generated again (%d generations)", fired)
			}
		})
	}
}

// TestChurnLeavesNothingBehind drives one group of 40 through 3 000 policy
// writes in the benchmark's rhythm — two grants, then a revocation of the
// oldest live grant — with a member reading through one of four prepared
// statements after each. That rhythm grows the group by a policy every
// third write, so the writes come in laps of 300, each closed by revoking
// the grants still live (a read after each of those too): the footprint
// after the first lap and after the tenth is of the same live policy set,
// and anything more at the tenth was left behind by the writes in between.
func TestChurnLeavesNothingBehind(t *testing.T) {
	const members, writes, lapWrites = 40, 3000, 300
	f := newSigFixture(t, 1, members)
	ctx := context.Background()
	// A base of conditioned grants, so every regenerated state carries
	// attribute and range guards beside the owner ones.
	var base []*policy.Policy
	for i := 0; i < 80; i++ {
		p := groupGrant("grp0", int64(i%owners))
		if i%2 == 0 {
			p.Conditions = []policy.ObjectCondition{policy.Compare("wifiAP", sqlparser.CmpEq, storage.NewInt(100+int64(i%aps)))}
		} else {
			lo := int64(8+i%(hours-1)) * 3600
			p.Conditions = []policy.ObjectCondition{policy.RangeClosed("ts_time", storage.NewTime(lo), storage.NewTime(lo+3600))}
		}
		base = append(base, p)
	}
	if err := f.m.Store().BulkLoad(base); err != nil {
		t.Fatal(err)
	}
	var stmts []*Stmt
	for _, q := range []string{
		"SELECT * FROM wifi WHERE owner = 7", "SELECT count(*) FROM wifi WHERE owner = 11",
		"SELECT * FROM wifi WHERE owner = 3 AND wifiAP = 101", "SELECT * FROM wifi WHERE owner = 29",
	} {
		st, err := f.m.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, st)
	}
	sessions := make([]*Session, members)
	for i, q := range f.queriers {
		sessions[i] = f.m.NewSession(f.metadata(q))
	}

	var live []int64 // ids of the grants not yet revoked, oldest first
	n := 0
	write := func(grant bool) {
		t.Helper()
		n++
		if grant {
			p := groupGrant("grp0", int64(n%owners))
			if err := f.m.AddPolicy(p); err != nil {
				t.Fatal(err)
			}
			live = append(live, p.ID)
		} else {
			if err := f.m.RevokePolicy(live[0]); err != nil {
				t.Fatal(err)
			}
			live = live[1:]
		}
		if _, err := stmts[n%len(stmts)].Execute(ctx, sessions[n%members]); err != nil {
			t.Fatal(err)
		}
	}
	measure := func() uint64 {
		t.Helper()
		for len(live) > 0 {
			write(false)
		}
		// Every statement and every member once more, so that what remains
		// is what steady traffic keeps, not what the last reader had no
		// occasion to sweep.
		for i := 0; i < members; i++ {
			if _, err := stmts[i%len(stmts)].Execute(ctx, sessions[i]); err != nil {
				t.Fatal(err)
			}
		}
		checkStates(t, f.m)
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var first, last uint64
	for lap := 1; lap <= writes/lapWrites; lap++ {
		for w := 1; w <= lapWrites; w++ {
			write(w%3 != 0)
		}
		if last = measure(); lap == 1 {
			first = last
		}
	}

	const liveSignatures, slack = 1, 2
	if cs := f.m.CacheStats(); cs.GuardStates > liveSignatures+slack {
		t.Errorf("guard states = %d after %d writes, want the live signature (%d) and at most %d more", cs.GuardStates, n, liveSignatures, slack)
	}
	for i, st := range stmts {
		if got := st.CachedPlans(); got > liveSignatures+slack {
			t.Errorf("statement %d caches %d plans after %d writes, want the live signature's (%d) and at most %d more", i, got, n, liveSignatures, slack)
		}
	}
	if last > first*3/2 {
		t.Errorf("HeapAlloc after GC: %d KiB after %d writes, %d KiB after the first %d — the same live policies",
			last>>10, writes, first>>10, lapWrites)
	}
}
