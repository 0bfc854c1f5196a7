package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// rowMultiset renders rows as a sorted list of printed rows, so results
// compare as multisets whatever order a plan produced them in.
func rowMultiset(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	slices.Sort(out)
	return out
}

// drainRows reads a stream to its end.
func drainRows(t *testing.T, rows *engine.Rows, err error) []storage.Row {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []storage.Row
	for rows.Next() {
		got = append(got, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestEveryReferenceCarriesItsOwnConjuncts: each reference to a protected
// relation — in a set-operation arm, an EXISTS or IN subquery, a scalar
// subquery, a self-join, a user CTE body or a derived table — is filtered by
// the predicates of its own core and by no other core's. Every shape is held,
// as a row multiset, to BaselineP and BaselineU (which guard each core in
// place) under the natural strategy, each forced strategy and Δ everywhere,
// through Session.Query and a prepared Stmt.Query.
func TestEveryReferenceCarriesItsOwnConjuncts(t *testing.T) {
	shapes := []struct{ name, sql string }{
		{"union", "SELECT id FROM wifi WHERE wifiAP = 100 UNION SELECT id FROM wifi WHERE wifiAP = 101"},
		{"minus", "SELECT owner FROM wifi WHERE wifiAP = 100 MINUS SELECT owner FROM wifi WHERE wifiAP = 101"},
		{"exists", "SELECT id FROM wifi WHERE wifiAP = 100 AND EXISTS " +
			"(SELECT 1 FROM wifi AS w2 WHERE w2.owner = wifi.owner AND w2.wifiAP = 101)"},
		{"not_exists", "SELECT id FROM wifi WHERE wifiAP = 100 AND NOT EXISTS " +
			"(SELECT 1 FROM wifi AS w2 WHERE w2.owner = wifi.owner AND w2.wifiAP = 101)"},
		{"scalar", "SELECT id, (SELECT count(*) FROM wifi) AS n FROM wifi WHERE wifiAP = 100"},
		{"in", "SELECT id FROM wifi WHERE wifiAP = 100 AND owner IN (SELECT owner FROM wifi WHERE wifiAP = 102)"},
		{"self_join", "SELECT a.id, b.id FROM wifi AS a, wifi AS b " +
			"WHERE a.owner = b.owner AND a.ts_date = b.ts_date AND a.wifiAP = 100 AND b.wifiAP = 101"},
		{"user_cte", "WITH mine AS (SELECT owner FROM wifi WHERE wifiAP = 101) " +
			"SELECT id FROM wifi WHERE wifiAP = 100 AND owner IN (SELECT owner FROM mine)"},
		{"derived", "SELECT T.student, count(*) AS sessions FROM (" +
			"SELECT W.owner AS student, W.ts_date AS day FROM wifi AS W, membership AS E " +
			"WHERE E.gid = 1 AND E.uid = W.owner AND W.ts_time BETWEEN TIME '09:00' AND TIME '12:00' AND W.wifiAP = 101 " +
			"GROUP BY W.owner, W.ts_date) AS T GROUP BY T.student ORDER BY T.student"},
	}
	ref := newFixture(t, engine.MySQL(), 60)
	want := make(map[string][]string, len(shapes))
	for _, sh := range shapes {
		for _, kind := range []BaselineKind{BaselineP, BaselineU} {
			res, err := ref.m.ExecuteBaseline(t.Context(), kind, sh.sql, ref.qm)
			if err != nil {
				t.Fatalf("%s %s: %v", kind, sh.name, err)
			}
			got := rowMultiset(res.Rows)
			if len(got) == 0 {
				t.Fatalf("%s %s: no rows; the shape tests nothing", kind, sh.name)
			}
			if w, ok := want[sh.name]; ok && !slices.Equal(got, w) {
				t.Fatalf("%s: BaselineU %d rows, BaselineP %d", sh.name, len(got), len(w))
			}
			want[sh.name] = got
		}
	}

	for _, ax := range []struct {
		name string
		opts []Option
	}{
		{"natural", nil},
		{"LinearScan", []Option{WithForcedStrategy(LinearScan)}},
		{"IndexQuery", []Option{WithForcedStrategy(IndexQuery)}},
		{"IndexGuards", []Option{WithForcedStrategy(IndexGuards)}},
		{"delta", []Option{WithDeltaThreshold(1)}},
	} {
		t.Run(ax.name, func(t *testing.T) {
			f := newFixture(t, engine.MySQL(), 60, ax.opts...)
			sess := f.m.NewSession(f.qm)
			for _, sh := range shapes {
				rows, err := sess.Query(t.Context(), sh.sql)
				if got := rowMultiset(drainRows(t, rows, err)); !slices.Equal(got, want[sh.name]) {
					t.Errorf("%s Session.Query: rows differ, %d against the baselines' %d", sh.name, len(got), len(want[sh.name]))
				}
				st, err := f.m.Prepare(sh.sql)
				if err != nil {
					t.Fatal(err)
				}
				rows, err = st.Query(t.Context(), sess)
				if got := rowMultiset(drainRows(t, rows, err)); !slices.Equal(got, want[sh.name]) {
					t.Errorf("%s Stmt.Query: rows differ, %d against the baselines' %d", sh.name, len(got), len(want[sh.name]))
				}
			}
		})
	}
}

// TestDerivedValueArmReadsBaseRelations: a derived-value condition's
// subquery reads base relations wherever its arm is evaluated. The policy on
// badges reads wifi, and the query references both; inlined into the arm
// (the default threshold) and checked by the Δ UDF (threshold 1) it must
// return the same rows, though the querier may see none of the wifi rows the
// condition reads.
func TestDerivedValueArmReadsBaseRelations(t *testing.T) {
	build := func(opts ...Option) *fixture {
		f := newFixture(t, engine.MySQL(), 60, opts...)
		if _, err := f.db.CreateTable("badges", wifiSchemaDef()); err != nil {
			t.Fatal(err)
		}
		var rows []storage.Row
		f.db.MustTable("wifi").Scan(func(_ storage.RowID, r storage.Row) bool {
			rows = append(rows, r.Clone())
			return true
		})
		if err := f.db.BulkInsert("badges", rows); err != nil {
			t.Fatal(err)
		}
		if err := f.m.Protect("badges"); err != nil {
			t.Fatal(err)
		}
		// Two owners whose wifi rows prof may not see at all: the condition
		// reads them, so a subquery redirected to prof's guarded wifi would
		// find nothing.
		seen := map[int64]bool{}
		for _, p := range f.m.Store().PoliciesFor(f.qm, "wifi", policy.NoGroups) {
			seen[p.Owner] = true
		}
		var unseen []int64
		for o := int64(0); o < owners && len(unseen) < 2; o++ {
			if !seen[o] {
				unseen = append(unseen, o)
			}
		}
		if len(unseen) < 2 {
			t.Fatal("prof's corpus covers every owner; pick another seed")
		}
		// Two policies on one owner share its guard, a partition of two:
		// inlined by default, a Δ check above a threshold of 1.
		for _, o := range unseen {
			if err := f.m.AddPolicy(&policy.Policy{
				Owner: 3, Querier: "prof", Purpose: "attendance", Relation: "badges", Action: policy.Allow,
				Conditions: []policy.ObjectCondition{policy.DerivedValue("wifiAP", sqlparser.CmpEq, fmt.Sprintf(
					"SELECT W2.wifiAP FROM wifi AS W2 WHERE W2.owner = %d AND W2.ts_time = badges.ts_time AND W2.ts_date = badges.ts_date", o))},
			}); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	const q = "SELECT id, 1 AS src FROM badges UNION SELECT id, 2 AS src FROM wifi WHERE wifiAP = 105"
	var results [2][]string
	for i, f := range []*fixture{build(), build(WithDeltaThreshold(1))} {
		_, rep, err := f.m.RewriteQuery(q, f.qm)
		if err != nil {
			t.Fatal(err)
		}
		b := slices.IndexFunc(rep.Decisions, func(d TableDecision) bool { return d.Relation == "badges" })
		if delta := rep.Decisions[b].DeltaGuards > 0; delta != (i == 1) {
			t.Fatalf("fixture %d: badges arm through Δ = %v", i, delta)
		}
		rows, err := f.m.NewSession(f.qm).Query(context.Background(), q)
		got := drainRows(t, rows, err)
		if !slices.ContainsFunc(got, func(r storage.Row) bool { return r[1].I == 1 }) {
			t.Fatalf("fixture %d: no badges row; the test tests nothing", i)
		}
		results[i] = rowMultiset(got)
	}
	if !slices.Equal(results[0], results[1]) {
		t.Fatalf("inlined arm returns %d rows, the Δ arm %d", len(results[0]), len(results[1]))
	}
}
