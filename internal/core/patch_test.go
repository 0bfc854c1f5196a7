package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// These tests pin how a missing guard state is built: patched from a
// nearby state (guard.Patch) while the drift since its last full generation
// stays within §6's k̃, generated in full otherwise — and served rows that
// never depend on which.

// randomGrant is a policy of querier on wifi with one of the condition
// shapes guards are built from, or none.
func randomGrant(r *rand.Rand, querier string) *policy.Policy {
	p := &policy.Policy{Owner: int64(r.Intn(owners)), Querier: querier, Purpose: policy.AnyPurpose, Relation: "wifi", Action: policy.Allow}
	switch r.Intn(4) {
	case 1:
		p.Conditions = []policy.ObjectCondition{policy.Compare("wifiAP", sqlparser.CmpEq, storage.NewInt(100+int64(r.Intn(aps))))}
	case 2:
		lo := int64(8+r.Intn(hours)) * 3600
		p.Conditions = []policy.ObjectCondition{policy.RangeClosed("ts_time", storage.NewTime(lo), storage.NewTime(lo+int64(r.Intn(3))*3600))}
	case 3:
		p.Conditions = []policy.ObjectCondition{policy.Compare("ts_date", sqlparser.CmpGe, storage.NewDate(int64(r.Intn(days))))}
	}
	return p
}

// TestPatchedStateServesFreshRows drives random grants and revocations
// across three groups and their members, and after each write reads every
// member through a middleware that patches and through a twin over the same
// store that is reset (InvalidateAll) before each read, so it generates
// every state in full: the rows must be the same, under every strategy and
// with Δ arms beside inlined ones.
func TestPatchedStateServesFreshRows(t *testing.T) {
	for _, strat := range []Strategy{LinearScan, IndexQuery, IndexGuards} {
		t.Run(string(strat), func(t *testing.T) {
			db := engine.New(engine.MySQL())
			db.UDFOverheadIters = 0
			loadCampus(t, db)
			store, err := policy.NewStore(db)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(3))
			groups := policy.StaticGroups{}
			var queriers, principals []string
			var base []*policy.Policy
			for g := 0; g < 3; g++ {
				gname := fmt.Sprintf("grp%d", g)
				principals = append(principals, gname)
				for i := 0; i < 3; i++ {
					q := fmt.Sprintf("member%d_%d", g, i)
					groups[q] = []string{gname}
					queriers = append(queriers, q)
					principals = append(principals, q)
				}
				for i := 0; i < 12; i++ {
					base = append(base, randomGrant(r, gname))
				}
			}
			if err := store.BulkLoad(base); err != nil {
				t.Fatal(err)
			}
			var ms [2]*Middleware
			for i := range ms {
				if ms[i], err = New(store, WithGroups(groups), WithForcedStrategy(strat), WithDeltaThreshold(4)); err != nil {
					t.Fatal(err)
				}
				if err := ms[i].Protect("wifi"); err != nil {
					t.Fatal(err)
				}
			}
			m, twin := ms[0], ms[1]
			live := policyIDs(base)
			ctx := context.Background()
			const q = "SELECT * FROM wifi WHERE ts_date >= 1"
			stmt, err := m.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 60; step++ {
				if step > 0 {
					if r.Intn(3) == 0 && len(live) > 0 {
						i := r.Intn(len(live))
						if err := m.RevokePolicy(live[i]); err != nil {
							t.Fatal(err)
						}
						live = slices.Delete(live, i, i+1)
					} else {
						p := randomGrant(r, principals[r.Intn(len(principals))])
						if err := m.AddPolicy(p); err != nil {
							t.Fatal(err)
						}
						live = append(live, p.ID)
					}
				}
				for _, qr := range queriers {
					qm := policy.Metadata{Querier: qr, Purpose: "attendance"}
					got, err := stmt.Execute(ctx, m.NewSession(qm))
					if err != nil {
						t.Fatal(err)
					}
					twin.InvalidateAll()
					want, err := twin.NewSession(qm).Execute(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(idsOf(got, 0), idsOf(want, 0)) {
						t.Fatalf("step %d, %s: the patched state serves %d rows, a full generation %d", step, qr, len(got.Rows), len(want.Rows))
					}
				}
			}
			cs := m.CacheStats()
			if cs.GuardPatches == 0 {
				t.Errorf("no state was patched across 60 writes (%d generations)", cs.GuardRegens)
			}
			if tw := twin.CacheStats(); tw.GuardPatches != 0 {
				t.Errorf("the twin patched %d states after InvalidateAll", tw.GuardPatches)
			}
			checkStates(t, m)
		})
	}
}

// TestRevocationPatches: a revocation retires every state holding the
// revoked grant, so its group's readers have no state of their own to patch
// from — they patch from the state the revocation recorded for its scope,
// one build for the group, and no full generation.
func TestRevocationPatches(t *testing.T) {
	f := newSigFixture(t, 2, 3)
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
	victim := f.m.Store().PoliciesFor(f.metadata("member0_0"), "wifi", f.m.Groups())[0]
	if err := f.m.RevokePolicy(victim.ID); err != nil {
		t.Fatal(err)
	}
	before := f.m.CacheStats()
	readAll()
	after := f.m.CacheStats()
	if got := after.GuardRegens - before.GuardRegens; got != 1 {
		t.Errorf("%d states built for the revoked group, want 1", got)
	}
	if got := after.GuardPatches - before.GuardPatches; got != 1 {
		t.Errorf("%d of them patched, want 1: a revocation followed by reads generated in full", got)
	}
	res, err := st.Execute(ctx, f.m.NewSession(f.metadata("member0_1")))
	if err != nil {
		t.Fatal(err)
	}
	if got := ownersOf(res); slices.Contains(got, victim.Owner) || len(got) != sigOwnersPerGroup-1 {
		t.Errorf("after revoking owner %d's grant, owners read = %v", victim.Owner, got)
	}
	checkStates(t, f.m)
}

// TestDriftPastKRegenerates: with k̃ pinned to 3, each write followed by a
// read patches the group's state and adds one to its drift, until the write
// that would take drift past k̃: that re-resolution generates in full and
// starts again at drift 0.
func TestDriftPastKRegenerates(t *testing.T) {
	f := newSigFixture(t, 1, 2)
	f.m.regen = RegenConfig{CG: 10_000, Rpq: 1, MinK: 3, MaxK: 3}
	ctx := context.Background()
	qm := f.metadata("member0_0")
	sess := f.m.NewSession(qm)
	drift := func() int {
		f.m.mu.Lock()
		defer f.m.mu.Unlock()
		return f.m.claims[geKey{querier: qm.Querier, purpose: qm.Purpose, relation: "wifi"}].state.drift
	}
	if _, err := sess.Execute(ctx, selectAll); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 2, 3, 0, 1} {
		before := f.m.CacheStats()
		if err := f.m.AddPolicy(groupGrant("grp0", int64(20+i))); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Execute(ctx, selectAll); err != nil {
			t.Fatal(err)
		}
		after := f.m.CacheStats()
		patched := after.GuardPatches - before.GuardPatches
		if after.GuardRegens-before.GuardRegens != 1 || patched != int64(min(want, 1)) {
			t.Errorf("write %d: %d states built, %d patched; want 1 built, patched %v", i+1,
				after.GuardRegens-before.GuardRegens, patched, want > 0)
		}
		if got := drift(); got != want {
			t.Errorf("write %d: drift %d, want %d", i+1, got, want)
		}
	}
	checkStates(t, f.m)
}

// TestSignatureHashIsFNV64a: the inlined fold is FNV-1a over each id's
// little-endian bytes, value for value.
func TestSignatureHashIsFNV64a(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for n := 0; n < 50; n++ {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = r.Int63() - r.Int63()
		}
		h := fnv.New64a()
		for _, id := range ids {
			var buf [8]byte
			for i := range buf {
				buf[i] = byte(uint64(id) >> (8 * i))
			}
			h.Write(buf[:])
		}
		if got, want := signatureHash(ids), h.Sum64(); got != want {
			t.Fatalf("signatureHash(%v) = %x, FNV-64a = %x", ids, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { signatureHash([]int64{1, 2, 3}) }); allocs != 0 {
		t.Errorf("signatureHash allocates %.0f times per call", allocs)
	}
}
