package core

import (
	"slices"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/storage"
)

// TestRewriteFollowsBinderScopes: the rewrite guards the references the
// engine's binder resolves to the protected relation, and only those, so a
// WITH entry named like the relation reads its own body, and a nested WITH
// named like a guarded CTE does not shadow it. The answer is the statement
// run by the engine over a copy of wifi holding only the permitted rows
// (Guarnieri et al.'s deny-equals-delete), compared on columns and on rows
// as a multiset, under each forced strategy through Session.Query and
// Stmt.Query, and through every baseline.
func TestRewriteFollowsBinderScopes(t *testing.T) {
	queries := []string{
		"WITH wifi AS (SELECT * FROM wifi WHERE wifiAP = 100) SELECT count(*) FROM wifi",
		"WITH wifi AS (SELECT id FROM wifi WHERE wifiAP = 100) SELECT * FROM wifi",
		"SELECT count(*) FROM (WITH wifi_sieve AS (SELECT uid AS id FROM membership) " +
			"SELECT id FROM wifi WHERE wifiAP = 100) AS d",
	}
	prof := newFixture(t, engine.MySQL(), 60)
	ref := engine.New(engine.MySQL())
	loadCampus(t, ref)
	allowed := prof.allowedIDs(t)
	var denied []storage.RowID
	ref.MustTable("wifi").Scan(func(id storage.RowID, r storage.Row) bool {
		if !allowed[r[0].I] {
			denied = append(denied, id)
		}
		return true
	})
	for _, id := range denied {
		if err := ref.Delete("wifi", id); err != nil {
			t.Fatal(err)
		}
	}
	type answer struct {
		cols []string
		rows []string
	}
	want := make(map[string]answer, len(queries))
	for _, q := range queries {
		res, err := ref.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want[q] = answer{res.Columns, rowMultiset(res.Rows)}
	}
	check := func(t *testing.T, door, q string, res *engine.Result, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %s: %v", door, q, err)
			return
		}
		w := want[q]
		if got := rowMultiset(res.Rows); !slices.Equal(res.Columns, w.cols) || !slices.Equal(got, w.rows) {
			t.Errorf("%s: %s: columns %v, %d rows %.60v; want columns %v, %d rows %.60v",
				door, q, res.Columns, len(got), got, w.cols, len(w.rows), w.rows)
		}
	}

	for _, s := range []Strategy{LinearScan, IndexQuery, IndexGuards} {
		t.Run(string(s), func(t *testing.T) {
			f := newFixture(t, engine.MySQL(), 60, WithForcedStrategy(s))
			sess := f.m.NewSession(f.qm)
			for _, q := range queries {
				res, err := sess.Execute(t.Context(), q)
				check(t, "Session.Query", q, res, err)
				st, err := f.m.Prepare(q)
				if err != nil {
					t.Fatal(err)
				}
				res, err = st.Execute(t.Context(), sess)
				check(t, "Stmt.Query", q, res, err)
			}
		})
	}
	for _, kind := range []BaselineKind{BaselineP, BaselineU, BaselineI} {
		for _, q := range queries {
			res, err := prof.m.ExecuteBaseline(t.Context(), kind, q, prof.qm)
			check(t, string(kind), q, res, err)
		}
	}
}
