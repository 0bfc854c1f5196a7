package policy

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	db := engine.New(engine.MySQL())
	s, err := NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func samplePolicies() []*Policy {
	john := &Policy{
		Owner: 120, Querier: "Prof. Smith", Purpose: "Attendance",
		Relation: "WiFi_Dataset", Action: Allow,
		Conditions: []ObjectCondition{
			RangeClosed("ts_time", storage.MustTime("09:00"), storage.MustTime("10:00")),
			Compare("wifiAP", sqlparser.CmpEq, storage.NewInt(1200)),
		},
	}
	mary := &Policy{
		Owner: 145, Querier: "Prof. Smith", Purpose: "Attendance",
		Relation: "WiFi_Dataset", Action: Allow,
		Conditions: []ObjectCondition{
			Compare("wifiAP", sqlparser.CmpEq, storage.NewInt(2300)),
		},
	}
	derived := &Policy{
		Owner: 120, Querier: "Prof. Smith", Purpose: "Colocation",
		Relation: "WiFi_Dataset", Action: Allow,
		Conditions: []ObjectCondition{
			DerivedValue("wifiAP", sqlparser.CmpEq,
				"SELECT W2.wifiAP FROM WiFi_Dataset AS W2 WHERE W2.ts_time = W.ts_time AND W2.owner = 7"),
		},
	}
	inlist := &Policy{
		Owner: 99, Querier: "Bob", Purpose: "Lunch",
		Relation: "WiFi_Dataset", Action: Allow,
		Conditions: []ObjectCondition{
			In("wifiAP", storage.NewInt(1), storage.NewInt(2), storage.NewInt(3)),
			NotIn("ts_date", storage.NewDate(5)),
		},
	}
	return []*Policy{john, mary, derived, inlist}
}

func TestStoreInsertAssignsIDsAndTimestamps(t *testing.T) {
	s := newStore(t)
	ps := samplePolicies()
	for _, p := range ps {
		if err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i, p := range ps {
		if p.ID != int64(i+1) {
			t.Errorf("policy %d: ID = %d", i, p.ID)
		}
		if p.InsertedAt == 0 {
			t.Errorf("policy %d: missing timestamp", i)
		}
	}
	got, ok := s.ByID(2)
	if !ok || got.Owner != 145 {
		t.Fatalf("ByID(2) = %v, %v", got, ok)
	}
	if _, ok := s.ByID(99); ok {
		t.Error("ByID must miss for unknown id")
	}
}

func TestStoreInsertRejectsInvalid(t *testing.T) {
	s := newStore(t)
	if err := s.Insert(&Policy{}); err == nil {
		t.Error("invalid policy must be rejected")
	}
}

func TestStorePersistsToEngineTables(t *testing.T) {
	s := newStore(t)
	for _, p := range samplePolicies() {
		if err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.DB().Query("SELECT count(*) FROM " + TableP)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 4 {
		t.Fatalf("rP rows = %v", res.Rows[0][0])
	}
	// Every policy has an owner condition row plus its own conditions; the
	// range splits into two rows (Table 5 layout).
	res2, err := s.DB().Query("SELECT count(*) FROM " + TableOC + " WHERE policy_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rows[0][0].I != 4 { // owner, ts_time ≥, ts_time ≤, wifiAP =
		t.Fatalf("rOC rows for policy 1 = %v, want 4", res2.Rows[0][0])
	}
}

func TestStoreRoundTripThroughTables(t *testing.T) {
	s := newStore(t)
	orig := samplePolicies()
	for _, p := range orig {
		if err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	// Re-attach a fresh store to the same engine: it must reload the cache.
	s2, err := NewStore(s.DB())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(orig) {
		t.Fatalf("reloaded Len = %d, want %d", s2.Len(), len(orig))
	}
	for _, want := range orig {
		got, ok := s2.ByID(want.ID)
		if !ok {
			t.Fatalf("policy %d missing after reload", want.ID)
		}
		if got.Owner != want.Owner || got.Querier != want.Querier ||
			got.Purpose != want.Purpose || got.Relation != want.Relation ||
			got.Action != want.Action {
			t.Errorf("policy %d header mismatch: %+v vs %+v", want.ID, got, want)
		}
		if !reflect.DeepEqual(got.Conditions, want.Conditions) {
			t.Errorf("policy %d conditions mismatch:\n got %#v\nwant %#v", want.ID, got.Conditions, want.Conditions)
		}
	}
	// IDs continue after reload.
	extra := samplePolicies()[1]
	extra.ID = 0
	if err := s2.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if extra.ID != int64(len(orig)+1) {
		t.Errorf("post-reload ID = %d, want %d", extra.ID, len(orig)+1)
	}
}

func TestStoreBulkLoadSkipsTriggers(t *testing.T) {
	s := newStore(t)
	fired := 0
	s.DB().OnInsert(TableP, func(string, storage.Row) { fired++ })
	if err := s.BulkLoad(samplePolicies()); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Errorf("BulkLoad fired %d triggers, want 0", fired)
	}
	if err := s.Insert(samplePolicies()[0]); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("Insert fired %d triggers, want 1", fired)
	}
}

func TestPoliciesForFiltersByMetadata(t *testing.T) {
	s := newStore(t)
	if err := s.BulkLoad(samplePolicies()); err != nil {
		t.Fatal(err)
	}
	qm := Metadata{Querier: "Prof. Smith", Purpose: "Attendance"}
	got := s.PoliciesFor(qm, "WiFi_Dataset", NoGroups)
	if len(got) != 2 {
		t.Fatalf("PoliciesFor = %d, want 2", len(got))
	}
	for _, p := range got {
		if p.Querier != "Prof. Smith" || p.Purpose != "Attendance" {
			t.Errorf("leaked policy %v", p)
		}
	}
	if got := s.PoliciesFor(Metadata{Querier: "Nobody", Purpose: "x"}, "WiFi_Dataset", NoGroups); len(got) != 0 {
		t.Errorf("unknown querier got %d policies", len(got))
	}
	// Group-mediated match.
	grp := &Policy{Owner: 7, Querier: "faculty", Purpose: "Attendance",
		Relation: "WiFi_Dataset", Action: Allow}
	if err := s.Insert(grp); err != nil {
		t.Fatal(err)
	}
	groups := StaticGroups{"Prof. Smith": {"faculty"}}
	got2 := s.PoliciesFor(qm, "WiFi_Dataset", groups)
	if len(got2) != 3 {
		t.Fatalf("group-resolved PoliciesFor = %d, want 3", len(got2))
	}
}

func TestStoreQueryableLikePaperTable4(t *testing.T) {
	// §5.1: policies are data; SIEVE (and administrators) can query them.
	s := newStore(t)
	if err := s.BulkLoad(samplePolicies()); err != nil {
		t.Fatal(err)
	}
	res, err := s.DB().Query(
		"SELECT p.id, oc.attr, oc.op, oc.val FROM " + TableP + " AS p, " + TableOC + " AS oc " +
			"WHERE oc.policy_id = p.id AND p.querier = 'Prof. Smith' AND oc.attr = 'wifiAP' ORDER BY p.id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("join over rP/rOC returned %d rows", len(res.Rows))
	}
	if res.Rows[0][2].S != "=" || res.Rows[0][3].S != "1200" {
		t.Errorf("first condition row = %v", res.Rows[0])
	}
}

func TestInsertAbortsCleanlyOnUnserialisableCondition(t *testing.T) {
	// A condition kind the store cannot serialise must abort the insert —
	// live, or replayed from the WAL — with NO trace: no cached policy, no
	// rP row, no rOC rows. A half-committed insert (rP row without its
	// conditions) would make a reload reconstruct the policy with fewer
	// conditions than granted, silently widening the grant.
	for name, insert := range map[string]func(*Store, *Policy) error{
		"Insert":      (*Store).Insert,
		"ApplyLogged": (*Store).ApplyLogged,
	} {
		s := newStore(t)
		bad := &Policy{
			ID: 1, Owner: 7, Querier: "Mallory", Purpose: "Attendance",
			Relation: "WiFi_Dataset", Action: Allow,
			Conditions: []ObjectCondition{
				{Attr: "wifiAP", Kind: CondKind(99)},
			},
		}
		if err := insert(s, bad); err == nil {
			t.Fatalf("%s accepted an unserialisable condition", name)
		}
		if s.Len() != 0 {
			t.Errorf("%s: store caches %d policies after failed insert, want 0", name, s.Len())
		}
		if _, ok := s.ByID(bad.ID); ok {
			t.Errorf("%s: failed insert left the policy in the id index", name)
		}
		if got := s.PoliciesFor(Metadata{Querier: "Mallory", Purpose: "Attendance"}, "WiFi_Dataset", NoGroups); len(got) != 0 {
			t.Errorf("%s: failed insert left %d policies applicable", name, len(got))
		}
		count := 0
		s.DB().MustTable(TableP).Scan(func(_ storage.RowID, _ storage.Row) bool {
			count++
			return true
		})
		if count != 0 {
			t.Errorf("%s: failed insert left %d rP rows, want 0", name, count)
		}
	}
}

// selfishGroups is a pathological Groups resolver: it violates the
// contract by returning the member itself and duplicate group names.
type selfishGroups struct{}

func (selfishGroups) GroupsOf(member string) []string {
	return []string{member, "faculty", "faculty"}
}

func TestPoliciesForDedupsPathologicalGroupResolvers(t *testing.T) {
	// A resolver that returns the querier itself or repeated groups must
	// not duplicate policy ids in the result: signatures are canonical
	// sorted id lists, and a duplicated id would split otherwise-identical
	// profiles and duplicate guard arms.
	s := newStore(t)
	direct := &Policy{Owner: 1, Querier: "Prof. Smith", Purpose: "Attendance",
		Relation: "WiFi_Dataset", Action: Allow}
	viaGroup := &Policy{Owner: 2, Querier: "faculty", Purpose: "Attendance",
		Relation: "WiFi_Dataset", Action: Allow}
	for _, p := range []*Policy{direct, viaGroup} {
		if err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	got := s.PoliciesFor(Metadata{Querier: "Prof. Smith", Purpose: "Attendance"}, "WiFi_Dataset", selfishGroups{})
	if len(got) != 2 {
		t.Fatalf("PoliciesFor = %d policies, want 2 (no duplicates)", len(got))
	}
	seen := map[int64]bool{}
	for _, p := range got {
		if seen[p.ID] {
			t.Errorf("duplicate policy id %d in result", p.ID)
		}
		seen[p.ID] = true
	}
}

// TestConcurrentInsertIssuesDistinctConditionIDs is the -race regression
// for the rOC id sequence: concurrent Inserts — into one store and into
// stores of separate databases, which share the sequence — must never race
// on it or hand out an rOC id twice.
func TestConcurrentInsertIssuesDistinctConditionIDs(t *testing.T) {
	const writers, perWriter = 8, 50
	stores := []*Store{newStore(t), newStore(t)}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				p := &Policy{
					Owner: int64(w), Querier: "q", Purpose: "p", Relation: "r", Action: Allow,
					Conditions: []ObjectCondition{Compare("x", sqlparser.CmpGe, storage.NewInt(int64(i)))},
				}
				if err := stores[w%len(stores)].Insert(p); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[int64]bool)
	for _, s := range stores {
		s.DB().MustTable(TableOC).Scan(func(_ storage.RowID, r storage.Row) bool {
			if seen[r[0].I] {
				t.Errorf("rOC id %d issued twice", r[0].I)
			}
			seen[r[0].I] = true
			return true
		})
	}
	if want := writers * perWriter * 2; len(seen) != want { // owner + one condition each
		t.Fatalf("%d distinct rOC ids, want %d", len(seen), want)
	}
}

// TestPoliciesForMatchesFilter: PoliciesFor, which visits only the policies
// filed under the querier and its groups and tests their purpose and
// context alone, selects exactly what Filter's full AppliesTo test selects
// from the whole corpus — over random corpora with groups, purposes, deny
// policies and extra querier conditions.
func TestPoliciesForMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	users := []string{"u0", "u1", "u2", "u3", "u4"}
	principals := append(slices.Clone(users), "g0", "g1", "g2")
	purposes := []string{"p0", "p1", AnyPurpose}
	relations := []string{"r0", "r1"}
	for round := 0; round < 20; round++ {
		s := newStore(t)
		groups := StaticGroups{}
		for _, u := range users {
			for _, g := range []string{"g0", "g1", "g2"} {
				if rng.IntN(2) == 0 {
					groups[u] = append(groups[u], g)
				}
			}
		}
		var ps []*Policy
		for i := 0; i < 60; i++ {
			p := &Policy{
				Owner:    rng.Int64N(10),
				Querier:  principals[rng.IntN(len(principals))],
				Purpose:  purposes[rng.IntN(len(purposes))],
				Relation: relations[rng.IntN(len(relations))],
				Action:   Allow,
			}
			if rng.IntN(6) == 0 {
				p.Action = Deny
			}
			if rng.IntN(3) == 0 {
				p.ExtraQuerier = []QuerierCondition{{Attr: "ip", Val: fmt.Sprintf("10.0.0.%d", rng.IntN(2))}}
			}
			ps = append(ps, p)
		}
		if err := s.BulkLoad(ps); err != nil {
			t.Fatal(err)
		}
		all := s.All()
		for _, u := range append(slices.Clone(users), "stranger") {
			for _, pur := range []string{"p0", "p1"} {
				for _, ctx := range []map[string]string{nil, {"ip": "10.0.0.0"}, {"ip": "10.0.0.1"}} {
					qm := Metadata{Querier: u, Purpose: pur, Context: ctx}
					for _, rel := range relations {
						want := Filter(all, qm, rel, groups)
						Sort(want)
						got := s.PoliciesFor(qm, rel, groups)
						if !slices.Equal(got, want) {
							t.Fatalf("round %d, %+v on %s: PoliciesFor = %v, Filter = %v", round, qm, rel, got, want)
						}
					}
				}
			}
		}
	}
}
