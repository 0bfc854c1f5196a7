package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/storage"
)

// TestDeniedOwnerLooksAbsent holds the rewrite to Guarnieri et al.'s data
// confidentiality on the channel an evaluation error opens: a query
// conjunct that can raise (arithmetic on a string) must never run on a
// tuple the querier may not see. So a query naming an owner none of whose
// tuples the querier sees has the same outcome — rows and error alike — as
// one naming an owner with no tuples at all, under each forced strategy,
// unprepared, prepared and prepared with a bound argument, and under
// BaselineP and BaselineU.
func TestDeniedOwnerLooksAbsent(t *testing.T) {
	queries := []string{
		"SELECT * FROM wifi WHERE owner = %s AND wifiAP + 'x' > 0",
		"SELECT count(*) FROM wifi WHERE wifiAP + 'x' > 0 AND owner = %s",
		"SELECT * FROM wifi WHERE owner = %s AND wifi.nosuch = 1",
	}
	const absent = 9999
	for _, strat := range []Strategy{LinearScan, IndexQuery, IndexGuards} {
		f := newFixture(t, engine.MySQL(), 30, WithForcedStrategy(strat))
		denied := deniedOwner(t, f)
		sess := f.m.NewSession(f.qm)
		ctx := t.Context()
		for _, q := range queries {
			doors := map[string]func(owner int64) (*engine.Result, error){
				"unprepared": func(owner int64) (*engine.Result, error) {
					return engine.Collect(sess.Query(ctx, fmt.Sprintf(q, fmt.Sprint(owner))))
				},
				"prepared": func(owner int64) (*engine.Result, error) {
					st, err := sess.Prepare(fmt.Sprintf(q, fmt.Sprint(owner)))
					if err != nil {
						return nil, err
					}
					return engine.Collect(st.Query(ctx, sess))
				},
				"prepared with ?": func(owner int64) (*engine.Result, error) {
					st, err := sess.Prepare(fmt.Sprintf(q, "?"))
					if err != nil {
						return nil, err
					}
					return engine.Collect(st.Query(ctx, sess, storage.NewInt(owner)))
				},
			}
			for _, kind := range []BaselineKind{BaselineP, BaselineU} {
				doors[string(kind)] = func(owner int64) (*engine.Result, error) {
					return f.m.ExecuteBaseline(ctx, kind, fmt.Sprintf(q, fmt.Sprint(owner)), f.qm)
				}
			}
			for name, door := range doors {
				got, want := outcome(door(denied)), outcome(door(absent))
				if got != want {
					t.Errorf("%s %s %q: owner %d (denied) gives %s, owner %d (absent) gives %s",
						strat, name, q, denied, got, absent, want)
				}
			}
		}
	}
}

// deniedOwner returns an owner with tuples, none of which f's querier may
// see.
func deniedOwner(t *testing.T, f *fixture) int64 {
	t.Helper()
	allowed := f.allowedIDs(t)
	seen := make(map[int64]bool)
	f.db.MustTable("wifi").Scan(func(_ storage.RowID, r storage.Row) bool {
		seen[r[1].I] = seen[r[1].I] || allowed[r[0].I]
		return true
	})
	for o := int64(0); o < owners; o++ {
		if v, ok := seen[o]; ok && !v {
			return o
		}
	}
	t.Fatal("every owner has a tuple the querier may see")
	return 0
}

// outcome renders a query's rows and error for comparison.
func outcome(res *engine.Result, err error) string {
	if err != nil {
		return "error " + strings.TrimSpace(err.Error())
	}
	return fmt.Sprint(res.Rows)
}
