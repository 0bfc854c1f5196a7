package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// fixture is a miniature smart-campus database with a protected wifi
// relation, a membership relation, and a policy corpus for two queriers.
type fixture struct {
	m  *Middleware
	db *engine.DB
	qm policy.Metadata
}

const (
	owners = 40
	aps    = 6
	hours  = 10 // 08:00 .. 17:00
	days   = 5
)

func wifiSchemaDef() *storage.Schema {
	return storage.MustSchema(
		storage.Column{Name: "id", Type: storage.KindInt},
		storage.Column{Name: "owner", Type: storage.KindInt},
		storage.Column{Name: "wifiAP", Type: storage.KindInt},
		storage.Column{Name: "ts_time", Type: storage.KindTime},
		storage.Column{Name: "ts_date", Type: storage.KindDate},
	)
}

func loadCampus(t *testing.T, db *engine.DB) {
	t.Helper()
	if _, err := db.CreateTable("wifi", wifiSchemaDef()); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	var rows []storage.Row
	id := int64(0)
	for o := int64(0); o < owners; o++ {
		for d := int64(0); d < days; d++ {
			for h := 0; h < hours; h++ {
				rows = append(rows, storage.Row{
					storage.NewInt(id), storage.NewInt(o),
					storage.NewInt(100 + int64(r.Intn(aps))),
					storage.NewTime(int64(8+h) * 3600),
					storage.NewDate(d),
				})
				id++
			}
		}
	}
	if err := db.BulkInsert("wifi", rows); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"wifiAP", "ts_time", "ts_date"} {
		if err := db.CreateIndex("wifi", col); err != nil {
			t.Fatal(err)
		}
	}

	mem := storage.MustSchema(
		storage.Column{Name: "gid", Type: storage.KindInt},
		storage.Column{Name: "uid", Type: storage.KindInt},
	)
	if _, err := db.CreateTable("membership", mem); err != nil {
		t.Fatal(err)
	}
	var mrows []storage.Row
	for o := int64(0); o < owners; o++ {
		mrows = append(mrows, storage.Row{storage.NewInt(o % 4), storage.NewInt(o)})
	}
	if err := db.BulkInsert("membership", mrows); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("membership", "uid"); err != nil {
		t.Fatal(err)
	}
}

// campusPolicies builds a deterministic mixed corpus for querier "prof":
// AP-shared policies, time-windowed ones, date-bounded ones and a couple
// of unconditional grants.
func campusPolicies(seed int64, n int) []*policy.Policy {
	r := rand.New(rand.NewSource(seed))
	var ps []*policy.Policy
	for i := 0; i < n; i++ {
		p := &policy.Policy{
			Owner: int64(r.Intn(owners)), Querier: "prof", Purpose: "attendance",
			Relation: "wifi", Action: policy.Allow,
		}
		switch r.Intn(4) {
		case 0:
			p.Conditions = append(p.Conditions,
				policy.Compare("wifiAP", sqlparser.CmpEq, storage.NewInt(100+int64(r.Intn(aps)))))
		case 1:
			lo := int64(8+r.Intn(hours-1)) * 3600
			p.Conditions = append(p.Conditions,
				policy.RangeClosed("ts_time", storage.NewTime(lo), storage.NewTime(lo+int64(1+r.Intn(3))*3600)))
		case 2:
			p.Conditions = append(p.Conditions,
				policy.Compare("ts_date", sqlparser.CmpLe, storage.NewDate(int64(r.Intn(days)))),
				policy.Compare("wifiAP", sqlparser.CmpEq, storage.NewInt(100+int64(r.Intn(aps)))))
		default:
			// unconditional owner grant
		}
		ps = append(ps, p)
	}
	return ps
}

func newFixture(t *testing.T, d engine.Dialect, npolicies int, opts ...Option) *fixture {
	t.Helper()
	db := engine.New(d)
	db.UDFOverheadIters = 0
	loadCampus(t, db)
	store, err := policy.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.BulkLoad(campusPolicies(42, npolicies)); err != nil {
		t.Fatal(err)
	}
	m, err := New(store, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Protect("wifi"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze("wifi"); err != nil {
		t.Fatal(err)
	}
	return &fixture{m: m, db: db, qm: policy.Metadata{Querier: "prof", Purpose: "attendance"}}
}

// allowedIDs computes the ground-truth row ids permitted by the metadata's
// policies via the pure-Go policy evaluator — a code path independent of
// the rewriting machinery.
func (f *fixture) allowedIDs(t *testing.T) map[int64]bool {
	t.Helper()
	ps := f.m.Store().PoliciesFor(f.qm, "wifi", policy.NoGroups)
	compiled, err := policy.CompileSet(ps, wifiSchemaDef())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int64]bool)
	f.db.MustTable("wifi").Scan(func(_ storage.RowID, r storage.Row) bool {
		ok, _, err := compiled.EvalFirstMatch(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out[r[0].I] = true
		}
		return true
	})
	return out
}

func idsOf(res *engine.Result, col int) []int64 {
	out := make([]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[col].I)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func keysOf(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

const selectAll = "SELECT * FROM wifi"

func TestSieveMatchesGroundTruthSelectAll(t *testing.T) {
	for _, d := range []engine.Dialect{engine.MySQL(), engine.Postgres()} {
		f := newFixture(t, d, 60)
		want := keysOf(f.allowedIDs(t))
		if len(want) == 0 {
			t.Fatal("fixture produced no allowed rows")
		}
		res, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(idsOf(res, 0), want) {
			t.Fatalf("[%s] SIEVE returned %d rows, ground truth %d", d.Name(), len(res.Rows), len(want))
		}
	}
}

func TestBaselinesMatchGroundTruth(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 40)
	want := keysOf(f.allowedIDs(t))
	for _, kind := range []BaselineKind{BaselineP, BaselineI, BaselineU} {
		res, err := f.m.ExecuteBaseline(t.Context(), kind, selectAll, f.qm)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !equalIDs(idsOf(res, 0), want) {
			t.Errorf("%s returned %d rows, ground truth %d", kind, len(res.Rows), len(want))
		}
	}
}

// TestBaselinesGuardEverySubquery: every baseline guards each reference to
// the protected relation wherever it sits in the statement, expression
// subqueries included, so it returns the rows SIEVE's Session.Query does.
// Not even a count over the relation may leak past the querier's policies.
func TestBaselinesGuardEverySubquery(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 40)
	shapes := []struct{ name, sql string }{
		{"select_list", "SELECT uid, (SELECT count(*) FROM wifi) AS n FROM membership WHERE uid < 3"},
		{"in", "SELECT uid FROM membership WHERE uid IN (SELECT owner FROM wifi)"},
		{"correlated_exists", "SELECT uid FROM membership WHERE EXISTS " +
			"(SELECT 1 FROM wifi AS W WHERE W.owner = membership.uid AND W.ts_time >= TIME '16:00')"},
		{"having", "SELECT gid, count(*) AS n FROM membership GROUP BY gid HAVING count(*) * 200 <= (SELECT count(*) FROM wifi)"},
		{"derived", "SELECT d.owner, count(*) AS n FROM (SELECT owner FROM wifi WHERE wifiAP = 101) AS d GROUP BY d.owner"},
		{"cte", "WITH w AS (SELECT id FROM wifi WHERE wifiAP = 103) SELECT id FROM w"},
		{"union_arm", "SELECT uid FROM membership WHERE gid = 1 UNION SELECT owner FROM wifi WHERE wifiAP = 104"},
	}
	for _, sh := range shapes {
		rows, err := f.m.NewSession(f.qm).Query(t.Context(), sh.sql)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		var want []string
		for rows.Next() {
			want = append(want, fmt.Sprint(rows.Row()))
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		rows.Close()
		sort.Strings(want)
		for _, kind := range []BaselineKind{BaselineP, BaselineI, BaselineU} {
			res, err := f.m.ExecuteBaseline(t.Context(), kind, sh.sql, f.qm)
			if err != nil {
				t.Fatalf("%s %s: %v", kind, sh.name, err)
			}
			var got []string
			for _, r := range res.Rows {
				got = append(got, fmt.Sprint(r))
			}
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s %s: %d rows %.120v, Session.Query %d rows %.120v", kind, sh.name, len(got), got, len(want), want)
			}
		}
	}
}

// TestBaselineUReleasesCheckSets: the Δ check set BaselineU registers for a
// query lives only as long as that query's call, on success and on error
// alike: once the queries are done, collections delete every one of them.
func TestBaselineUReleasesCheckSets(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 40)
	before := liveCheckSets(f.m)
	for i := 0; i < 20; i++ {
		if _, err := f.m.ExecuteBaseline(t.Context(), BaselineU, selectAll, f.qm); err != nil {
			t.Fatal(err)
		}
	}
	// Rewritten (and its set registered), then failing in the engine; and
	// failing at the rewrite's EXPLAIN, before anything is registered.
	for _, q := range []string{"SELECT nosuchfn(id) FROM wifi", "SELECT nosuchcol FROM wifi"} {
		if _, err := f.m.ExecuteBaseline(t.Context(), BaselineU, q, f.qm); err == nil {
			t.Fatalf("%s succeeded", q)
		}
	}
	if n := f.m.nextSetID.Load(); n != 21 {
		t.Fatalf("%d check sets registered by 22 BaselineU queries, want 21", n)
	}
	waitCheckSets(t, f.m, func() int { return before })
}

// TestUnboundPlaceholderRejectedAtEveryDoor: every door that rewrites SQL
// text without binding arguments rejects a statement with a placeholder,
// with the bind error, before it registers anything.
func TestUnboundPlaceholderRejectedAtEveryDoor(t *testing.T) {
	const q = "SELECT * FROM wifi WHERE wifiAP = ?"
	const want = "statement has 1 placeholder(s), got 0 argument(s)"
	f := newFixture(t, engine.MySQL(), 40)
	sess := f.m.NewSession(f.qm)
	sets := func() int { return liveCheckSets(f.m) }
	before := sets()
	doors := map[string]func() error{
		"RewriteQuery": func() error { _, _, err := f.m.RewriteQuery(q, f.qm); return err },
		"Rewrite":      func() error { _, _, err := sess.Rewrite(q); return err },
	}
	for _, d := range []string{"sieve", "mysql", "postgres"} {
		doors["RewriteSQL/"+d] = func() error { _, err := sess.RewriteSQL(q, d); return err }
	}
	for _, kind := range []BaselineKind{BaselineP, BaselineI, BaselineU} {
		doors[string(kind)] = func() error { _, err := f.m.ExecuteBaseline(t.Context(), kind, q, f.qm); return err }
	}
	for name, door := range doors {
		if err := door(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
	}
	if got := sets(); got != before {
		t.Errorf("%d check sets registered after the doors, %d before", got, before)
	}
}

func TestDefaultDenyWithoutPolicies(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 30)
	nobody := policy.Metadata{Querier: "stranger", Purpose: "snooping"}
	res, err := f.m.NewSession(nobody).Execute(t.Context(), selectAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("default deny violated: %d rows", len(res.Rows))
	}
	for _, kind := range []BaselineKind{BaselineP, BaselineI, BaselineU} {
		res, err := f.m.ExecuteBaseline(t.Context(), kind, selectAll, nobody)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("%s default deny violated: %d rows", kind, len(res.Rows))
		}
	}
}

func TestSieveWithQueryPredicatesAndJoin(t *testing.T) {
	queries := []string{
		"SELECT * FROM wifi WHERE wifiAP IN (100, 101) AND ts_time BETWEEN TIME '09:00' AND TIME '11:00'",
		"SELECT * FROM wifi AS W WHERE W.owner IN (1, 2, 3) AND W.ts_date BETWEEN DATE '2000-01-01' AND DATE '2000-01-03'",
		"SELECT W.id FROM wifi AS W, membership AS M WHERE M.uid = W.owner AND M.gid = 1 AND W.ts_time >= TIME '10:00'",
		"SELECT * FROM wifi WHERE owner = 5 MINUS SELECT * FROM wifi WHERE wifiAP = 103",
	}
	for _, d := range []engine.Dialect{engine.MySQL(), engine.Postgres()} {
		f := newFixture(t, d, 80)
		for _, q := range queries {
			sieveRes, err := f.m.NewSession(f.qm).Execute(t.Context(), q)
			if err != nil {
				t.Fatalf("[%s] sieve %q: %v", d.Name(), q, err)
			}
			baseRes, err := f.m.ExecuteBaseline(t.Context(), BaselineP, q, f.qm)
			if err != nil {
				t.Fatalf("[%s] baseline %q: %v", d.Name(), q, err)
			}
			idCol := 0
			if !equalIDs(idsOf(sieveRes, idCol), idsOf(baseRes, idCol)) {
				t.Errorf("[%s] %q: sieve %d rows vs baselineP %d rows",
					d.Name(), q, len(sieveRes.Rows), len(baseRes.Rows))
			}
		}
	}
}

func TestAggregationOverProtectedRelation(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 60)
	res, err := f.m.NewSession(f.qm).Execute(t.Context(), "SELECT owner, count(*) AS n FROM wifi GROUP BY owner ORDER BY owner")
	if err != nil {
		t.Fatal(err)
	}
	allowed := f.allowedIDs(t)
	perOwner := map[int64]int64{}
	f.db.MustTable("wifi").Scan(func(_ storage.RowID, r storage.Row) bool {
		if allowed[r[0].I] {
			perOwner[r[1].I]++
		}
		return true
	})
	if len(res.Rows) != len(perOwner) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(perOwner))
	}
	for _, r := range res.Rows {
		if perOwner[r[0].I] != r[1].I {
			t.Errorf("owner %d count = %d, want %d", r[0].I, r[1].I, perOwner[r[0].I])
		}
	}
}

func TestRewriteShapeMySQL(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 50)
	sqlText, rep, err := f.m.NewSession(f.qm).Rewrite(selectAll)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sqlText, "WITH wifi_sieve AS") {
		t.Errorf("rewrite missing WITH clause: %s", sqlText[:60])
	}
	if len(rep.Decisions) != 1 || rep.Decisions[0].Relation != "wifi" {
		t.Fatalf("decisions = %+v", rep.Decisions)
	}
	dec := rep.Decisions[0]
	if dec.Guards == 0 || dec.Policies == 0 {
		t.Errorf("empty decision: %+v", dec)
	}
	if dec.Strategy == IndexGuards && !strings.Contains(sqlText, "FORCE INDEX") {
		t.Errorf("IndexGuards without FORCE INDEX hint: %s", sqlText[:120])
	}
	// The rewritten text must re-parse.
	if _, err := sqlparser.Parse(sqlText); err != nil {
		t.Fatalf("rewrite does not re-parse: %v", err)
	}
}

func TestRewriteOmitsHintsOnPostgres(t *testing.T) {
	f := newFixture(t, engine.Postgres(), 50)
	sqlText, _, err := f.m.NewSession(f.qm).Rewrite(selectAll)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sqlText, "FORCE INDEX") || strings.Contains(sqlText, "USE INDEX") {
		t.Errorf("postgres rewrite contains hints: %s", sqlText[:150])
	}
}

func TestStrategySelection(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 60)
	// Highly selective query predicate → IndexQuery.
	_, rep, err := f.m.NewSession(f.qm).Rewrite("SELECT * FROM wifi WHERE ts_time = TIME '09:00' AND ts_date = DATE '2000-01-01'")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decisions[0].CostIndexQuery >= inf {
		t.Fatalf("IndexQuery not priced: %+v", rep.Decisions[0])
	}
	// SELECT-all: no query predicate → IndexQuery impossible.
	_, rep2, err := f.m.NewSession(f.qm).Rewrite(selectAll)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Decisions[0].Strategy == IndexQuery {
		t.Fatalf("IndexQuery chosen without query predicate: %+v", rep2.Decisions[0])
	}
}

func TestDeltaPathUsedForLargePartitions(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 120, WithDeltaThreshold(3))
	sqlText, rep, err := f.m.NewSession(f.qm).Rewrite(selectAll)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decisions[0].DeltaGuards == 0 {
		t.Skip("corpus produced no partition above threshold") // defensive; deterministic corpus should not hit this
	}
	if !strings.Contains(sqlText, DeltaUDFName) {
		t.Fatalf("delta rewrite missing UDF call")
	}
	f.db.Counters.Reset()
	res, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll)
	if err != nil {
		t.Fatal(err)
	}
	if f.db.Counters.UDFInvocations == 0 || f.db.Counters.PolicyEvals == 0 {
		t.Errorf("delta counters did not move: %+v", f.db.Counters)
	}
	want := keysOf(f.allowedIDs(t))
	if !equalIDs(idsOf(res, 0), want) {
		t.Fatalf("delta path broke soundness: %d vs %d rows", len(res.Rows), len(want))
	}
}

func TestDerivedValuePolicyEndToEnd(t *testing.T) {
	// The paper's colocation policy (§3.1): owner 3 allows prof to see his
	// tuples only when prof's device (owner 0) is at the same AP at the
	// same time and date.
	f := newFixture(t, engine.MySQL(), 0)
	p := &policy.Policy{
		Owner: 3, Querier: "prof", Purpose: "attendance", Relation: "wifi", Action: policy.Allow,
		Conditions: []policy.ObjectCondition{
			policy.DerivedValue("wifiAP", sqlparser.CmpEq,
				"SELECT W2.wifiAP FROM wifi AS W2 WHERE W2.owner = 0 AND W2.ts_time = wifi.ts_time AND W2.ts_date = wifi.ts_date"),
		},
	}
	if err := f.m.AddPolicy(p); err != nil {
		t.Fatal(err)
	}
	res, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth via direct engine query.
	truth, err := f.db.Query(
		"SELECT W.id FROM wifi AS W WHERE W.owner = 3 AND W.wifiAP = " +
			"(SELECT W2.wifiAP FROM wifi AS W2 WHERE W2.owner = 0 AND W2.ts_time = W.ts_time AND W2.ts_date = W.ts_date)")
	if err != nil {
		t.Fatal(err)
	}
	if len(truth.Rows) == 0 {
		t.Fatal("fixture has no colocated tuples; adjust seed")
	}
	if !equalIDs(idsOf(res, 0), idsOf(truth, 0)) {
		t.Fatalf("derived-value policy: sieve %d rows vs truth %d", len(res.Rows), len(truth.Rows))
	}
}

func TestProtectValidation(t *testing.T) {
	db := engine.New(engine.MySQL())
	store, err := policy.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Protect("ghost"); err == nil {
		t.Error("protecting a missing relation must fail")
	}
	noOwner := storage.MustSchema(storage.Column{Name: "x", Type: storage.KindInt})
	if _, err := db.CreateTable("noowner", noOwner); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect("noowner"); err == nil {
		t.Error("protecting a relation without owner must fail")
	}
}

func TestUnprotectedTablesPassThrough(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 20)
	res, err := f.m.NewSession(f.qm).Execute(t.Context(), "SELECT count(*) FROM membership")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != owners {
		t.Fatalf("membership rows = %v, want %d", res.Rows[0][0], owners)
	}
}

func TestMissingQuerierRejected(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 10)
	if _, err := f.m.NewSession(policy.Metadata{}).Execute(t.Context(), selectAll); err == nil {
		t.Error("empty metadata must be rejected")
	}
	if _, err := f.m.rewriteBaseline(BaselineP, selectAll, policy.Metadata{}); err == nil {
		t.Error("empty metadata must be rejected for baselines")
	}
}
