package engine_test

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/sieve-db/sieve/internal/core"
	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// subqueryDB builds the fixture of the subquery tests: wifi (id, owner,
// wifiAP), 160 rows over owners 0–9 and APs 100–103, four rows per pair,
// id = 16·owner + 4·(wifiAP−100) + k; membership (gid, uid), uid 0–9 in
// group uid mod 3. Neither table has an index, so every run of a subquery
// over membership is one sequential scan in the counters. The UDF tick
// returns its argument and counts its calls in the returned counter.
func subqueryDB(t *testing.T) (*engine.DB, *atomic.Int64) {
	t.Helper()
	db := engine.New(engine.MySQL())
	db.UDFOverheadIters = 0
	wifi := storage.MustSchema(
		storage.Column{Name: "id", Type: storage.KindInt},
		storage.Column{Name: "owner", Type: storage.KindInt},
		storage.Column{Name: "wifiAP", Type: storage.KindInt},
	)
	members := storage.MustSchema(
		storage.Column{Name: "gid", Type: storage.KindInt},
		storage.Column{Name: "uid", Type: storage.KindInt},
	)
	var wrows, mrows []storage.Row
	for id := int64(0); id < 160; id++ {
		wrows = append(wrows, storage.Row{storage.NewInt(id), storage.NewInt(id / 16), storage.NewInt(100 + id%16/4)})
	}
	for uid := int64(0); uid < 10; uid++ {
		mrows = append(mrows, storage.Row{storage.NewInt(uid % 3), storage.NewInt(uid)})
	}
	for _, tbl := range []struct {
		name   string
		schema *storage.Schema
		rows   []storage.Row
	}{{"wifi", wifi, wrows}, {"membership", members, mrows}} {
		if _, err := db.CreateTable(tbl.name, tbl.schema); err != nil {
			t.Fatal(err)
		}
		if err := db.BulkInsert(tbl.name, tbl.rows); err != nil {
			t.Fatal(err)
		}
	}
	ticks := new(atomic.Int64)
	db.RegisterUDF("tick", func(_ *engine.UDFContext, args []storage.Value) (storage.Value, error) {
		ticks.Add(1)
		return args[0], nil
	})
	return db, ticks
}

// queryCounted runs sql materialising and returns its rows with the
// execution's work counters.
func queryCounted(t *testing.T, db *engine.DB, sql string) ([]storage.Row, engine.Counters) {
	t.Helper()
	db.ResetCounters()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res.Rows, db.CountersSnapshot()
}

// ids lists the first column of rows.
func ids(rows []storage.Row) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].I
	}
	return out
}

// wifiIDs lists, in id order, the fixture's wifi ids whose (owner, wifiAP)
// keep says to keep.
func wifiIDs(keep func(owner, ap int64) bool) []int64 {
	out := []int64{}
	for id := int64(0); id < 160; id++ {
		if keep(id/16, 100+id%16/4) {
			out = append(out, id)
		}
	}
	return out
}

// perRow makes an uncorrelated subquery correlated without changing what
// it returns: a tautology on the outer row is added to the subquery's
// WHERE, so the subquery runs once per outer row — SQL's definition, and
// the reference the run-once result is held to.
func perRow(sql, subWhere string) string {
	return strings.Replace(sql, subWhere, subWhere+" AND wifi.id = wifi.id", 1)
}

// TestUncorrelatedSubqueryRunsOncePerExecution: an IN, NOT IN, EXISTS or
// scalar subquery that reads nothing of the outer row runs once per
// execution — one sequential scan of membership beside wifi's — and returns
// the rows of the per-row reference, which runs it 160 times. A Prepared
// runs it again per execution, so it sees a member inserted in between; a
// stream closed after one row has still run it at most once; and an
// uncorrelated derived-value condition in an inlined guard arm (§3.1) runs
// once per query.
func TestUncorrelatedSubqueryRunsOncePerExecution(t *testing.T) {
	cases := []struct {
		name, sql, subWhere string
		want                []int64
	}{
		{"in", "SELECT id FROM wifi WHERE owner IN (SELECT uid FROM membership WHERE gid = 1)", "gid = 1",
			wifiIDs(func(o, _ int64) bool { return o%3 == 1 })},
		{"not_in", "SELECT id FROM wifi WHERE owner NOT IN (SELECT uid FROM membership WHERE gid = 1)", "gid = 1",
			wifiIDs(func(o, _ int64) bool { return o%3 != 1 })},
		{"exists", "SELECT id FROM wifi WHERE EXISTS (SELECT uid FROM membership WHERE gid = 2) AND wifiAP = 101", "gid = 2",
			wifiIDs(func(_, ap int64) bool { return ap == 101 })},
		{"scalar", "SELECT id FROM wifi WHERE owner = (SELECT max(uid) FROM membership WHERE gid = 0)", "gid = 0",
			wifiIDs(func(o, _ int64) bool { return o == 9 })},
		{"select_list", "SELECT id, (SELECT count(*) FROM membership WHERE gid = 0) FROM wifi", "gid = 0",
			wifiIDs(func(int64, int64) bool { return true })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, _ := subqueryDB(t)
			rows, counters := queryCounted(t, db, c.sql)
			refRows, refCounters := queryCounted(t, db, perRow(c.sql, c.subWhere))
			if !reflect.DeepEqual(ids(rows), c.want) {
				t.Fatalf("ids %v, want %v", ids(rows), c.want)
			}
			if !reflect.DeepEqual(rows, refRows) {
				t.Fatalf("rows differ from the per-row reference:\n%v\n%v", rows, refRows)
			}
			if counters.SeqScans != 2 {
				t.Fatalf("%d sequential scans, want 2: wifi once, the subquery once", counters.SeqScans)
			}
			if refCounters.SeqScans != 161 {
				t.Fatalf("the per-row reference ran %d scans, want 161: it no longer reruns per row", refCounters.SeqScans)
			}
		})
	}

	t.Run("prepared_sees_insert", func(t *testing.T) {
		db, _ := subqueryDB(t)
		prep := db.Prepare(sqlparser.MustParse(cases[0].sql))
		for run, want := range [][]int64{
			cases[0].want,
			wifiIDs(func(o, _ int64) bool { return o%3 == 1 || o == 2 }),
		} {
			if run == 1 {
				if err := db.Insert("membership", storage.Row{storage.NewInt(1), storage.NewInt(2)}); err != nil {
					t.Fatal(err)
				}
			}
			db.ResetCounters()
			res, err := engine.Collect(prep.Stream(context.Background()))
			if err != nil {
				t.Fatal(err)
			}
			if got := ids(res.Rows); !reflect.DeepEqual(got, want) {
				t.Fatalf("execution %d: ids %v, want %v", run+1, got, want)
			}
			if c := db.CountersSnapshot(); c.SeqScans != 2 {
				t.Fatalf("execution %d: %d sequential scans, want 2", run+1, c.SeqScans)
			}
		}
	})

	t.Run("early_closed_stream", func(t *testing.T) {
		db, _ := subqueryDB(t)
		for range 2 {
			rows, err := db.Stream(context.Background(), cases[0].sql)
			if err != nil {
				t.Fatal(err)
			}
			if !rows.Next() {
				t.Fatalf("no first row: %v", rows.Err())
			}
			if got := rows.Row()[0].I; got != cases[0].want[0] {
				t.Fatalf("first id %d, want %d", got, cases[0].want[0])
			}
			if c := rows.Counters(); c.SeqScans != 2 {
				t.Fatalf("%d sequential scans after one row, want 2", c.SeqScans)
			}
			rows.Close()
		}
		got, _ := queryCounted(t, db, cases[0].sql)
		if !reflect.DeepEqual(ids(got), cases[0].want) {
			t.Fatalf("after early closes: ids %v, want %v", ids(got), cases[0].want)
		}
	})

	t.Run("derived_value_policy_arm", func(t *testing.T) {
		const sub = "SELECT tick(M.uid) + 100 FROM membership AS M WHERE M.uid = 1"
		want := wifiIDs(func(o, ap int64) bool { return o == 3 && ap == 101 || o == 5 })
		var results [2][]storage.Row
		for i, derived := range []string{sub, sub + " AND wifi.id = wifi.id"} {
			db, ticks := subqueryDB(t)
			rows := derivedValueQuery(t, db, derived)
			if got := ids(rows); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ids %v, want %v", derived, got, want)
			}
			results[i] = rows
			wantTicks := int64(1)
			if i == 1 {
				wantTicks = 16 // every owner-3 row reaches the arm
			}
			if n := ticks.Load(); n != wantTicks {
				t.Fatalf("%s: the derived value ran %d times, want %d", derived, n, wantTicks)
			}
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Fatal("rows differ from the per-row reference")
		}
	})
}

// derivedValueQuery protects wifi with two grants to querier q — owner 3's
// rows where wifiAP equals the derived value, all of owner 5's — and runs
// SELECT id FROM wifi through the middleware, the guard arms inlined.
func derivedValueQuery(t *testing.T, db *engine.DB, derived string) []storage.Row {
	t.Helper()
	store, err := policy.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*policy.Policy{
		{Owner: 3, Conditions: []policy.ObjectCondition{policy.DerivedValue("wifiAP", sqlparser.CmpEq, derived)}},
		{Owner: 5},
	} {
		p.Querier, p.Purpose, p.Relation, p.Action = "q", "p", "wifi", policy.Allow
		if err := store.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	m, err := core.New(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Protect("wifi"); err != nil {
		t.Fatal(err)
	}
	res, err := m.NewSession(policy.Metadata{Querier: "q", Purpose: "p"}).Execute(context.Background(), "SELECT id FROM wifi ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// TestCorrelatedDerivedTableInSubquery: in a join, a subquery whose
// correlation to the second source sits in a derived table of the subquery
// waits for the join that binds that source, rather than being pushed into
// the first source's scan, where the reference cannot resolve. EXISTS, IN
// and scalar forms each return the rows of the same query without the
// derived table, through DB.Query and through a Prepared.
func TestCorrelatedDerivedTableInSubquery(t *testing.T) {
	const join = "SELECT W.id FROM wifi AS W, membership AS M WHERE W.owner = M.uid AND "
	cases := []struct{ name, derived, plain string }{
		{"exists",
			"EXISTS (SELECT 1 FROM (SELECT * FROM membership AS c WHERE c.uid = M.uid AND c.gid = 1) AS d)",
			"EXISTS (SELECT 1 FROM membership AS c WHERE c.uid = M.uid AND c.gid = 1)"},
		{"in",
			"W.wifiAP IN (SELECT d.ap FROM (SELECT c.uid + 100 AS ap FROM membership AS c WHERE c.uid = M.uid) AS d)",
			"W.wifiAP IN (SELECT c.uid + 100 FROM membership AS c WHERE c.uid = M.uid)"},
		{"scalar",
			"W.wifiAP = (SELECT max(d.ap) FROM (SELECT c.uid + 101 AS ap FROM membership AS c WHERE c.uid = M.uid) AS d)",
			"W.wifiAP = (SELECT max(c.uid + 101) FROM membership AS c WHERE c.uid = M.uid)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, _ := subqueryDB(t)
			want, _ := queryCounted(t, db, join+c.plain+" ORDER BY W.id")
			if len(want) == 0 {
				t.Fatal("the plain query returns no rows")
			}
			sql := join + c.derived + " ORDER BY W.id"
			got, _ := queryCounted(t, db, sql)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("DB.Query: ids %v, want %v", ids(got), ids(want))
			}
			res, err := engine.Collect(db.Prepare(sqlparser.MustParse(sql)).Stream(context.Background()))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Rows, want) {
				t.Fatalf("Prepared: ids %v, want %v", ids(res.Rows), ids(want))
			}
		})
	}
}

// TestCorrelatedSubqueryRerunsPerRow: a subquery that reads the outer row
// runs once per outer row and computes each row's own answer — through a
// column reference in IN, EXISTS and a scalar subquery, and through a WITH
// clause of the correlated subquery that an uncorrelated subquery nested in
// it reads: that inner result must not be reused from one outer row for the
// next (it would keep only owner 0's rows). A correlated derived-value
// condition in a guard arm runs once per row reaching it.
func TestCorrelatedSubqueryRerunsPerRow(t *testing.T) {
	cases := []struct {
		name, sql string
		want      []int64
	}{
		{"in_column", "SELECT id FROM wifi WHERE owner IN (SELECT uid FROM membership WHERE gid = 1 AND uid = wifi.owner)",
			wifiIDs(func(o, _ int64) bool { return o%3 == 1 })},
		{"exists", "SELECT id FROM wifi WHERE EXISTS (SELECT uid FROM membership WHERE uid = wifi.owner - 5)",
			wifiIDs(func(o, _ int64) bool { return o >= 5 })},
		{"scalar", "SELECT id FROM wifi WHERE wifiAP = (SELECT uid + 100 FROM membership WHERE uid = wifi.owner)",
			wifiIDs(func(o, ap int64) bool { return ap == o+100 })},
		{"nested_reads_cte", "SELECT id FROM wifi WHERE owner IN (WITH c AS (SELECT uid FROM membership WHERE uid <= wifi.owner) " +
			"SELECT uid FROM c WHERE uid IN (SELECT max(uid) FROM c))",
			wifiIDs(func(int64, int64) bool { return true })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, _ := subqueryDB(t)
			rows, counters := queryCounted(t, db, c.sql)
			if got := ids(rows); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("ids %v, want %v", got, c.want)
			}
			if counters.SeqScans != 161 {
				t.Fatalf("%d sequential scans, want 161: wifi once, the subquery per row", counters.SeqScans)
			}
		})
	}
	// The correlated reference is read on fan-out workers: ten segments of
	// wifi, four workers, each reading membership's row through its own
	// scanner's env, linked to the one enclosing row.
	t.Run("resolved_on_workers", func(t *testing.T) {
		db, _ := subqueryDB(t)
		db.MustTable("wifi").SetSegmentSize(16)
		db.ScanWorkers = 4
		rows, counters := queryCounted(t, db,
			"SELECT uid FROM membership WHERE EXISTS (SELECT id FROM wifi WHERE wifi.owner = membership.uid + 5 AND wifi.wifiAP = 103)")
		if got, want := ids(rows), []int64{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
			t.Fatalf("uids %v, want %v", got, want)
		}
		if counters.SeqScans != 11 || counters.ParallelScans == 0 {
			t.Fatalf("%d sequential scans, %d fanned out: want 11, the subquery per row, on workers", counters.SeqScans, counters.ParallelScans)
		}
	})
	t.Run("derived_value_policy_arm", func(t *testing.T) {
		db, ticks := subqueryDB(t)
		rows := derivedValueQuery(t, db, "SELECT tick(M.uid) + 100 FROM membership AS M WHERE M.uid = wifi.owner - 2")
		if got, want := ids(rows), wifiIDs(func(o, ap int64) bool { return o == 3 && ap == 101 || o == 5 }); !reflect.DeepEqual(got, want) {
			t.Fatalf("ids %v, want %v", got, want)
		}
		if n := ticks.Load(); n != 16 {
			t.Fatalf("the derived value ran %d times, want 16: once per owner-3 row", n)
		}
	})
}

// TestUnreachedOuterReferenceIsCorrelated: a subquery that names the outer
// row is correlated, and runs once per outer row, even when no run reaches
// that name — here every membership row passes gid >= 0 first, so
// wifi.owner is never read. The bind pass decides correlation from the
// text, before a row is read; the rows are those of the subquery run once.
func TestUnreachedOuterReferenceIsCorrelated(t *testing.T) {
	db, _ := subqueryDB(t)
	rows, counters := queryCounted(t, db, "SELECT id FROM wifi WHERE EXISTS (SELECT uid FROM membership WHERE gid >= 0 OR uid = wifi.owner)")
	if got, want := ids(rows), wifiIDs(func(int64, int64) bool { return true }); !reflect.DeepEqual(got, want) {
		t.Fatalf("ids %v, want %v", got, want)
	}
	if counters.SeqScans != 161 {
		t.Fatalf("%d sequential scans, want 161: wifi once, the subquery per row", counters.SeqScans)
	}
}
