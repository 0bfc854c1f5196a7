package guard

import (
	"fmt"
	"slices"
	"testing"

	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// exprCost is Σ cost(Gi) (Eq. 3) over an expression's guards.
func exprCost(ge *GuardedExpression, sel Selectivity, cm CostModel) float64 {
	c := 0.0
	for _, g := range ge.Guards {
		c += cm.Cost(g.Sel, len(g.Policies), sel.Rows())
	}
	return c
}

// without returns ps minus the policies with the given ids.
func without(ps []*policy.Policy, ids ...int64) []*policy.Policy {
	return slices.DeleteFunc(slices.Clone(ps), func(p *policy.Policy) bool { return slices.Contains(ids, p.ID) })
}

// checkPatch holds a patch of base to ps to what every patch owes: it covers
// exactly ps, costs no more than base plus one owner guard per policy base
// did not cover, reports every guard it kept by the base index it came from
// and shares that guard's partition, and reports no other guard as kept.
func checkPatch(t *testing.T, base *GuardedExpression, ps []*policy.Policy, sel Selectivity, cm CostModel) (*GuardedExpression, []int) {
	t.Helper()
	ge, from, err := Patch(base, ps, sel, cm)
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if err := ge.Validate(ps); err != nil {
		t.Fatalf("patched expression: %v", err)
	}
	if len(from) != len(ge.Guards) {
		t.Fatalf("from has %d entries for %d guards", len(from), len(ge.Guards))
	}
	inBase := map[int64]bool{}
	for _, g := range base.Guards {
		for _, p := range g.Policies {
			inBase[p.ID] = true
		}
	}
	bound := exprCost(base, sel, cm)
	for _, p := range ps {
		if !inBase[p.ID] {
			bound += cm.Cost(sel.EstimateEq(policy.OwnerAttr, storage.NewInt(p.Owner)), 1, sel.Rows())
		}
	}
	if c := exprCost(ge, sel, cm); c > bound*(1+1e-9) {
		t.Errorf("patched cost %.1f exceeds base plus one owner guard per new policy, %.1f", c, bound)
	}
	ids := func(g Guard) []int64 {
		out := make([]int64, len(g.Policies))
		for i, p := range g.Policies {
			out[i] = p.ID
		}
		return out
	}
	used := map[int]bool{}
	for i, g := range ge.Guards {
		unchangedFrom := slices.IndexFunc(base.Guards, func(b Guard) bool {
			return b.Cond.String() == g.Cond.String() && slices.Equal(ids(b), ids(g))
		})
		switch {
		case from[i] < 0 && unchangedFrom >= 0:
			t.Errorf("guard %d (%s) equals base guard %d but is reported new", i, g.Cond, unchangedFrom)
		case from[i] >= 0 && (used[from[i]] || !slices.Equal(ids(base.Guards[from[i]]), ids(g)) ||
			base.Guards[from[i]].Cond.String() != g.Cond.String()):
			t.Errorf("guard %d (%s) is reported unchanged from base guard %d, which differs or is reported twice", i, g.Cond, from[i])
		case from[i] >= 0 && &g.Policies[0] != &base.Guards[from[i]].Policies[0]:
			t.Errorf("guard %d is unchanged from base guard %d but does not share its partition", i, from[i])
		}
		if from[i] >= 0 {
			used[from[i]] = true
		}
	}
	return ge, from
}

func TestPatch(t *testing.T) {
	sel, cm := campusSel(), DefaultCostModel()
	// Owner 1 holds an owner guard of two policies, AP 3 a guard shared by
	// ten owners, and owner 2 one range-conditioned policy.
	o1a, o1b := pol(1), pol(1, apEq(5))
	var ap3 []*policy.Policy
	for o := int64(100); o < 110; o++ {
		ap3 = append(ap3, pol(o, apEq(3)))
	}
	o2 := pol(2, timeRange("09:00", "10:00"))
	baseSet := append([]*policy.Policy{o1a, o1b, o2}, ap3...)
	base, err := Generate(baseSet, "wifi", "q", "p", sel, cm)
	if err != nil {
		t.Fatal(err)
	}
	guardOf := func(p *policy.Policy) int {
		return slices.IndexFunc(base.Guards, func(g Guard) bool { return slices.Contains(g.Policies, p) })
	}
	identity := make([]int, len(base.Guards))
	for i := range identity {
		identity[i] = i
	}

	sameOwner := pol(1, timeRange("12:00", "13:00"))
	newOwner := pol(7, apEq(9))
	derived := pol(8, policy.DerivedValue("wifiAP", sqlparser.CmpEq, "SELECT wifiAP FROM wifi WHERE owner = 8"))
	for _, tc := range []struct {
		name string
		ps   []*policy.Policy
		// want: per output guard, the base guard it keeps (≥ 0) or the
		// policies of a guard it changed or added.
		kept    []int
		changed [][]*policy.Policy
	}{
		{name: "same set keeps every guard", ps: baseSet, kept: identity},
		{name: "insert joins its owner's guard", ps: append(slices.Clone(baseSet), sameOwner),
			changed: [][]*policy.Policy{{o1a, o1b, sameOwner}}},
		{name: "insert with no implied guard gets an owner guard", ps: append(slices.Clone(baseSet), newOwner),
			kept: identity, changed: [][]*policy.Policy{{newOwner}}},
		{name: "a derived-value condition implies no guard", ps: append(slices.Clone(baseSet), derived),
			kept: identity, changed: [][]*policy.Policy{{derived}}},
		{name: "revocation shrinks its guard", ps: without(baseSet, o1b.ID),
			changed: [][]*policy.Policy{{o1a}}},
		{name: "revocation empties and drops its guard", ps: without(baseSet, o2.ID)},
		{name: "revoking everything leaves no guard", ps: nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ge, from := checkPatch(t, base, tc.ps, sel, cm)
			var kept []int
			var changed [][]*policy.Policy
			for i, f := range from {
				if f >= 0 {
					kept = append(kept, f)
				} else {
					changed = append(changed, ge.Guards[i].Policies)
				}
			}
			wantKept := tc.kept
			if wantKept == nil {
				// Every base guard but the ones the change touched.
				touched := map[int]bool{}
				for _, p := range baseSet {
					if !slices.Contains(tc.ps, p) {
						touched[guardOf(p)] = true
					}
				}
				for _, ch := range tc.changed {
					for _, p := range ch {
						if gi := guardOf(p); gi >= 0 {
							touched[gi] = true
						}
					}
				}
				for gi := range base.Guards {
					if !touched[gi] && len(tc.ps) > 0 {
						wantKept = append(wantKept, gi)
					}
				}
			}
			if !slices.Equal(kept, wantKept) {
				t.Errorf("kept base guards %v, want %v", kept, wantKept)
			}
			if fmt.Sprint(changed) != fmt.Sprint(tc.changed) {
				t.Errorf("changed or new partitions %v, want %v", changed, tc.changed)
			}
		})
	}

	t.Run("empty base", func(t *testing.T) {
		ge, from := checkPatch(t, &GuardedExpression{Relation: "wifi"}, baseSet, sel, cm)
		if !slices.Equal(from, slices.Repeat([]int{-1}, len(ge.Guards))) {
			t.Errorf("from = %v, want every guard new", from)
		}
	})
}

// Change-list encoding for FuzzGuardPatch: the first byte is the number of
// base policies; then 4-byte records [kind, owner, a, b]. A base record, or
// a change record with kind's top bit clear, is a policy (decodePolicy); a
// change record with the top bit set revokes the live policy owner picks.
func decodePolicy(kind, owner, a, b byte) *policy.Policy {
	var conds []policy.ObjectCondition
	switch kind % 5 {
	case 1:
		conds = append(conds, apEq(int64(a%8)))
	case 2:
		lo := int64(a % 20)
		conds = append(conds, policy.RangeClosed("ts_time", storage.NewTime(lo*1800), storage.NewTime((lo+1+int64(b%10))*1800)))
	case 3:
		conds = append(conds, policy.Compare("ts_date", sqlparser.CmpGe, storage.NewDate(int64(b%90))))
	case 4:
		conds = append(conds, policy.DerivedValue("wifiAP", sqlparser.CmpEq, "SELECT wifiAP FROM wifi WHERE owner = 3"))
	}
	if kind&0x40 != 0 {
		conds = append(conds, apEq(int64(b%8)))
	}
	return pol(int64(owner%25), conds...)
}

func encodePolicy(p *policy.Policy) []byte {
	rec := []byte{0, byte(p.Owner), 0, 0}
	for _, c := range p.Conditions {
		switch {
		case c.Attr == "wifiAP" && c.Kind == policy.CondCompare && rec[0]%5 == 0:
			rec[0], rec[2] = 1, byte(c.Val.I)
		case c.Attr == "wifiAP" && c.Kind == policy.CondCompare:
			rec[0] |= 0x40
			rec[3] = byte(c.Val.I)
		case c.Kind == policy.CondRange:
			lo := c.Lo.I / 1800
			rec[0], rec[2], rec[3] = 2, byte(lo), byte(c.Hi.I/1800-lo-1)
		case c.Kind == policy.CondCompare:
			rec[0], rec[3] = 3, byte(c.Val.I)
		case c.Kind == policy.CondSubquery:
			rec[0] = 4
		}
	}
	return rec
}

func FuzzGuardPatch(f *testing.F) {
	// Seeds: guard_test.go's corpora as base sets, each followed by an
	// insert of every kind and a revocation.
	corpora := [][]*policy.Policy{
		{pol(1, timeRange("09:00", "10:00")), pol(2, timeRange("09:30", "10:30")), pol(3, timeRange("12:00", "13:00"))},
		{pol(1, apEq(3)), pol(2, apEq(3)), pol(3, apEq(3)), pol(4, apEq(4)), pol(4)},
		{pol(5, apEq(1), timeRange("09:00", "11:00")), pol(6, policy.Compare("ts_date", sqlparser.CmpGe, storage.NewDate(30)))},
	}
	var dates []*policy.Policy
	for a := int64(0); a < 4; a++ {
		for i := int64(0); i < 6; i++ {
			conds := []policy.ObjectCondition{apEq(a)}
			if i < 3 {
				conds = append(conds, policy.Compare("ts_date", sqlparser.CmpGe, storage.NewDate(0)))
			}
			dates = append(dates, pol(a*6+i, conds...))
		}
	}
	corpora = append(corpora, dates)
	for _, ps := range corpora {
		data := []byte{byte(len(ps))}
		for _, p := range ps {
			data = append(data, encodePolicy(p)...)
		}
		data = append(data, 0, 1, 0, 0, 1, 2, 3, 0, 2, 3, 4, 5, 3, 4, 0, 60, 4, 5, 0, 0, 0x41, 1, 3, 3, 0x80, 0, 0, 0)
		f.Add(data)
	}
	f.Add([]byte{0, 1, 1, 1, 1})
	f.Add([]byte{2, 1, 1, 1, 1, 2, 2, 2, 2, 0x80, 0, 0, 0, 0x80, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4*80 {
			return
		}
		nBase := int(data[0] % 64)
		var baseSet, live []*policy.Policy
		for i, rec := 0, data[1:]; len(rec) >= 4; i, rec = i+1, rec[4:] {
			if i < nBase {
				p := decodePolicy(rec[0], rec[1], rec[2], rec[3])
				baseSet = append(baseSet, p)
				live = append(live, p)
				continue
			}
			if rec[0]&0x80 != 0 {
				if len(live) > 0 {
					live = slices.Delete(live, int(rec[1])%len(live), int(rec[1])%len(live)+1)
				}
				continue
			}
			live = append(live, decodePolicy(rec[0], rec[1], rec[2], rec[3]))
		}
		sel, cm := campusSel(), DefaultCostModel()
		base, err := Generate(baseSet, "wifi", "q", "p", sel, cm)
		if err != nil {
			t.Fatal(err)
		}
		checkPatch(t, base, live, sel, cm)
	})
}
