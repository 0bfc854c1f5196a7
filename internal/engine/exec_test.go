package engine

import (
	"reflect"
	"testing"

	"github.com/sieve-db/sieve/internal/storage"
)

// newTestDB builds a small campus-shaped database used across the engine
// tests: wifi(id, owner, wifiAP, ts_time, ts_date) plus membership(gid, uid).
func newTestDB(t *testing.T, d Dialect) *DB {
	t.Helper()
	db := New(d)
	db.UDFOverheadIters = 0 // keep unit tests fast and deterministic
	wifiSchema := storage.MustSchema(
		storage.Column{Name: "id", Type: storage.KindInt},
		storage.Column{Name: "owner", Type: storage.KindInt},
		storage.Column{Name: "wifiAP", Type: storage.KindInt},
		storage.Column{Name: "ts_time", Type: storage.KindTime},
		storage.Column{Name: "ts_date", Type: storage.KindDate},
	)
	if _, err := db.CreateTable("wifi", wifiSchema); err != nil {
		t.Fatal(err)
	}
	var rows []storage.Row
	id := int64(0)
	for owner := int64(0); owner < 10; owner++ {
		for ap := int64(100); ap < 104; ap++ {
			for h := int64(8); h < 12; h++ {
				rows = append(rows, storage.Row{
					storage.NewInt(id), storage.NewInt(owner), storage.NewInt(ap),
					storage.NewTime(h * 3600), storage.NewDate(owner % 5),
				})
				id++
			}
		}
	}
	if err := db.BulkInsert("wifi", rows); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"owner", "wifiAP", "ts_time", "ts_date"} {
		if err := db.CreateIndex("wifi", col); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze("wifi"); err != nil {
		t.Fatal(err)
	}

	memSchema := storage.MustSchema(
		storage.Column{Name: "gid", Type: storage.KindInt},
		storage.Column{Name: "uid", Type: storage.KindInt},
	)
	if _, err := db.CreateTable("membership", memSchema); err != nil {
		t.Fatal(err)
	}
	var mrows []storage.Row
	for uid := int64(0); uid < 10; uid++ {
		mrows = append(mrows, storage.Row{storage.NewInt(uid % 3), storage.NewInt(uid)})
	}
	if err := db.BulkInsert("membership", mrows); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("membership", "uid"); err != nil {
		t.Fatal(err)
	}
	return db
}

func mustQuery(t *testing.T, db *DB, q string) *Result {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return res
}

func TestSelectStarWithFilter(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db, "SELECT * FROM wifi WHERE owner = 3")
	if len(res.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(res.Rows))
	}
	if len(res.Columns) != 5 || res.Columns[1] != "owner" {
		t.Fatalf("columns = %v", res.Columns)
	}
	for _, r := range res.Rows {
		if r[1].I != 3 {
			t.Fatalf("row with owner %d leaked", r[1].I)
		}
	}
}

func TestProjectionAndAliases(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db, "SELECT owner AS person, wifiAP FROM wifi WHERE owner = 1 AND wifiAP = 100")
	if !reflect.DeepEqual(res.Columns, []string{"person", "wifiAP"}) {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
}

func TestWhereBetweenAndIn(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db,
		"SELECT * FROM wifi WHERE ts_time BETWEEN TIME '09:00' AND TIME '10:00' AND wifiAP IN (100, 101)")
	// hours 9 and 10 inclusive → 2 of 4 hours, 2 of 4 APs, 10 owners = 40.
	if len(res.Rows) != 40 {
		t.Fatalf("rows = %d, want 40", len(res.Rows))
	}
}

func TestOrPredicate(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db, "SELECT * FROM wifi WHERE owner = 1 OR owner = 2")
	if len(res.Rows) != 32 {
		t.Fatalf("rows = %d, want 32", len(res.Rows))
	}
}

func TestHashJoin(t *testing.T) {
	for _, d := range []Dialect{MySQL(), Postgres()} {
		db := newTestDB(t, d)
		res := mustQuery(t, db,
			"SELECT W.owner, M.gid FROM wifi AS W, membership AS M WHERE M.uid = W.owner AND W.wifiAP = 100 AND W.ts_time = TIME '08:00'")
		if len(res.Rows) != 10 {
			t.Fatalf("[%s] rows = %d, want 10", d.Name(), len(res.Rows))
		}
		for _, r := range res.Rows {
			if r[1].I != r[0].I%3 {
				t.Fatalf("[%s] join mismatch: owner=%d gid=%d", d.Name(), r[0].I, r[1].I)
			}
		}
	}
}

func TestCrossJoinWithResidualFilter(t *testing.T) {
	db := newTestDB(t, MySQL())
	// Non-equi join condition forces a cross join + filter.
	res := mustQuery(t, db,
		"SELECT W.id FROM wifi AS W, membership AS M WHERE M.uid < W.owner AND W.owner = 1 AND W.wifiAP = 100 AND W.ts_time = TIME '08:00'")
	if len(res.Rows) != 1 { // only uid=0 < owner=1
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db,
		"SELECT owner, count(*) AS n, min(ts_time), max(ts_time), avg(wifiAP), sum(wifiAP) FROM wifi WHERE owner IN (1, 2) GROUP BY owner ORDER BY owner")
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(res.Rows))
	}
	r := res.Rows[0]
	if r[0].I != 1 || r[1].I != 16 {
		t.Fatalf("group row = %v", r)
	}
	if r[2].I != 8*3600 || r[3].I != 11*3600 {
		t.Fatalf("min/max = %v / %v", r[2], r[3])
	}
	if r[4].F != 101.5 {
		t.Fatalf("avg = %v", r[4])
	}
	if r[5].I != 16*101+8 { // 4*(100+101+102+103) = 1624
		t.Fatalf("sum = %v", r[5])
	}
}

func TestAggregateWithoutGroupByOnEmptyInput(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db, "SELECT count(*), sum(owner), min(owner) FROM wifi WHERE owner = 999")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() || !res.Rows[0][2].IsNull() {
		t.Fatalf("empty aggregates = %v", res.Rows[0])
	}
}

func TestCountDistinct(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db, "SELECT count(DISTINCT owner) FROM wifi")
	if res.Rows[0][0].I != 10 {
		t.Fatalf("count distinct = %v", res.Rows[0][0])
	}
}

func TestHaving(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db,
		"SELECT ts_date, count(*) AS n FROM wifi GROUP BY ts_date HAVING count(*) > 16 ORDER BY ts_date")
	// owners 0..9 → ts_date owner%5; dates 0..4 each get 2 owners × 16 = 32.
	if len(res.Rows) != 5 {
		t.Fatalf("groups = %d, want 5", len(res.Rows))
	}
	res2 := mustQuery(t, db,
		"SELECT ts_date FROM wifi GROUP BY ts_date HAVING count(*) > 32")
	if len(res2.Rows) != 0 {
		t.Fatalf("HAVING failed to filter: %d rows", len(res2.Rows))
	}
}

func TestDistinctOrderLimit(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db, "SELECT DISTINCT owner FROM wifi ORDER BY owner DESC LIMIT 3")
	if len(res.Rows) != 3 || res.Rows[0][0].I != 9 || res.Rows[2][0].I != 7 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUnionAndUnionAll(t *testing.T) {
	db := newTestDB(t, MySQL())
	dedup := mustQuery(t, db,
		"SELECT owner FROM wifi WHERE owner = 1 UNION SELECT owner FROM wifi WHERE owner = 1")
	if len(dedup.Rows) != 1 {
		t.Fatalf("UNION rows = %d, want 1", len(dedup.Rows))
	}
	all := mustQuery(t, db,
		"SELECT owner FROM wifi WHERE owner = 1 UNION ALL SELECT owner FROM wifi WHERE owner = 2")
	if len(all.Rows) != 32 {
		t.Fatalf("UNION ALL rows = %d, want 32", len(all.Rows))
	}
}

func TestMinusSemantics(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db,
		"SELECT owner FROM wifi WHERE owner IN (1, 2) MINUS SELECT owner FROM wifi WHERE owner = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("MINUS rows = %v", res.Rows)
	}
}

func TestWithClauseCTE(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db,
		"WITH pol AS (SELECT * FROM wifi WHERE owner = 1) SELECT count(*) FROM pol WHERE wifiAP = 100")
	if res.Rows[0][0].I != 4 {
		t.Fatalf("CTE count = %v", res.Rows[0][0])
	}
	// CTE referenced twice.
	res2 := mustQuery(t, db,
		"WITH pol AS (SELECT * FROM wifi WHERE owner = 1) SELECT count(*) FROM pol AS a, pol AS b WHERE a.id = b.id")
	if res2.Rows[0][0].I != 16 {
		t.Fatalf("double CTE count = %v", res2.Rows[0][0])
	}
}

func TestDerivedTable(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db,
		"SELECT T.owner, count(*) FROM (SELECT owner FROM wifi WHERE wifiAP = 100) AS T GROUP BY T.owner ORDER BY T.owner LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][1].I != 4 {
		t.Fatalf("derived rows = %v", res.Rows)
	}
}

func TestCorrelatedScalarSubquery(t *testing.T) {
	db := newTestDB(t, MySQL())
	// For each membership row, count wifi rows of that member at AP 100.
	res := mustQuery(t, db,
		"SELECT M.uid, (SELECT count(*) FROM wifi AS W WHERE W.owner = M.uid AND W.wifiAP = 100) AS n FROM membership AS M ORDER BY M.uid")
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].I != 4 {
			t.Fatalf("correlated count = %v for uid %v", r[1], r[0])
		}
	}
}

func TestInSubquery(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db,
		"SELECT count(*) FROM wifi WHERE owner IN (SELECT uid FROM membership WHERE gid = 0)")
	// gid 0 → uids 0,3,6,9 → 4 owners × 16 rows.
	if res.Rows[0][0].I != 64 {
		t.Fatalf("IN subquery count = %v", res.Rows[0][0])
	}
}

// TestNullInEmptySubquery pins SQL's rule for a NULL probe, which MySQL and
// PostgreSQL follow: nothing is IN an empty set, so NULL IN (<empty>) is
// FALSE and NULL NOT IN (<empty>) is TRUE; over a set with members a NULL
// probe stays NULL either way. A probe that evaluates to NULL (here an
// aggregate over no rows) behaves as the literal does.
func TestNullInEmptySubquery(t *testing.T) {
	db := newTestDB(t, MySQL())
	const empty = "(SELECT uid FROM membership WHERE gid = 99)"
	const some = "(SELECT uid FROM membership WHERE gid = 1)"
	for _, c := range []struct {
		where string
		want  int64
	}{
		{"NULL NOT IN " + empty, 160},
		{"NOT (NULL IN " + empty + ")", 160},
		{"NULL IN " + empty, 0},
		{"(NULL IN " + empty + ") IS NULL", 0},
		{"(NULL NOT IN " + empty + ") IS NULL", 0},
		{"(NULL IN " + some + ") IS NULL", 160},
		{"(NULL NOT IN " + some + ") IS NULL", 160},
		{"NULL NOT IN " + some, 0},
		{"(SELECT max(uid) FROM membership WHERE gid = 99) NOT IN " + empty, 160},
		{"((SELECT max(uid) FROM membership WHERE gid = 99) IN " + some + ") IS NULL", 160},
	} {
		sql := "SELECT count(*) FROM wifi WHERE " + c.where
		if got := mustQuery(t, db, sql).Rows[0][0].I; got != c.want {
			t.Errorf("%s: count = %d, want %d", sql, got, c.want)
		}
	}
}

func TestExistsSubquery(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db,
		"SELECT count(*) FROM membership AS M WHERE EXISTS (SELECT * FROM wifi AS W WHERE W.owner = M.uid AND W.wifiAP = 103)")
	if res.Rows[0][0].I != 10 {
		t.Fatalf("EXISTS count = %v", res.Rows[0][0])
	}
}

func TestScalarSubqueryZeroRowsIsNull(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db,
		"SELECT count(*) FROM membership AS M WHERE (SELECT max(wifiAP) FROM wifi WHERE owner = 999) IS NULL")
	// max over empty set is NULL for every membership row.
	if res.Rows[0][0].I != 10 {
		t.Fatalf("rows = %v", res.Rows[0][0])
	}
}

func TestThreeValuedLogicWithNulls(t *testing.T) {
	db := New(MySQL())
	db.UDFOverheadIters = 0
	schema := storage.MustSchema(
		storage.Column{Name: "a", Type: storage.KindInt},
		storage.Column{Name: "b", Type: storage.KindInt},
	)
	if _, err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	rows := []storage.Row{
		{storage.NewInt(1), storage.Null},
		{storage.NewInt(2), storage.NewInt(5)},
		{storage.Null, storage.Null},
	}
	if err := db.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q    string
		want int
	}{
		{"SELECT * FROM t WHERE b = 5", 1},
		{"SELECT * FROM t WHERE b != 5", 0},    // NULL b rows don't qualify
		{"SELECT * FROM t WHERE NOT b = 5", 0}, // NOT NULL is NULL
		{"SELECT * FROM t WHERE b IS NULL", 2}, // includes a=NULL row
		{"SELECT * FROM t WHERE a IS NOT NULL AND b IS NULL", 1},
		{"SELECT * FROM t WHERE b = 5 OR a = 1", 2},
		{"SELECT * FROM t WHERE a IN (1, 2)", 2},
		{"SELECT * FROM t WHERE b NOT IN (5)", 0}, // NULLs never pass NOT IN
		{"SELECT * FROM t WHERE a BETWEEN 1 AND 2", 2},
	}
	for _, c := range cases {
		res := mustQuery(t, db, c.q)
		if len(res.Rows) != c.want {
			t.Errorf("%s: rows = %d, want %d", c.q, len(res.Rows), c.want)
		}
	}
}

func TestArithmeticInProjection(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db, "SELECT owner + 1, owner * 2, wifiAP / 2 FROM wifi WHERE owner = 3 AND wifiAP = 100 AND ts_time = TIME '08:00'")
	r := res.Rows[0]
	if r[0].I != 4 || r[1].I != 6 || r[2].F != 50 {
		t.Fatalf("arith row = %v", r)
	}
	// Division by zero yields NULL.
	res2 := mustQuery(t, db, "SELECT owner / 0 FROM wifi LIMIT 1")
	if !res2.Rows[0][0].IsNull() {
		t.Fatalf("x/0 = %v, want NULL", res2.Rows[0][0])
	}
}

func TestUDFInvocation(t *testing.T) {
	db := newTestDB(t, MySQL())
	db.RegisterUDF("plus", func(ctx *UDFContext, args []storage.Value) (storage.Value, error) {
		return storage.NewInt(args[0].I + args[1].I), nil
	})
	db.RegisterUDF("rowowner", func(ctx *UDFContext, args []storage.Value) (storage.Value, error) {
		return ctx.ColumnValue("owner"), nil
	})
	before := db.Counters.UDFInvocations
	res := mustQuery(t, db, "SELECT plus(owner, 10) FROM wifi WHERE owner = 2 AND rowowner() = 2")
	if len(res.Rows) != 16 || res.Rows[0][0].I != 12 {
		t.Fatalf("UDF rows = %v", res.Rows[:1])
	}
	if db.Counters.UDFInvocations == before {
		t.Error("UDF invocation counter not incremented")
	}
}

func TestUnknownFunctionAndTableErrors(t *testing.T) {
	db := newTestDB(t, MySQL())
	if _, err := db.Query("SELECT nosuch(owner) FROM wifi"); err == nil {
		t.Error("unknown function must error")
	}
	if _, err := db.Query("SELECT * FROM nosuchtable"); err == nil {
		t.Error("unknown table must error")
	}
	if _, err := db.Query("SELECT * FROM wifi WHERE ghostcol = 1"); err == nil {
		t.Error("unknown column must error")
	}
	if _, err := db.Query("SELECT * FROM wifi GROUP BY owner"); err == nil {
		t.Error("SELECT * with GROUP BY must error")
	}
	if _, err := db.Query("SELECT owner FROM wifi UNION SELECT owner, wifiAP FROM wifi"); err == nil {
		t.Error("set op arity mismatch must error")
	}
}

func TestInsertTriggerFires(t *testing.T) {
	db := newTestDB(t, MySQL())
	fired := 0
	db.OnInsert("membership", func(table string, row storage.Row) {
		fired++
		if table != "membership" {
			t.Errorf("trigger table = %q", table)
		}
	})
	if err := db.Insert("membership", storage.Row{storage.NewInt(1), storage.NewInt(99)}); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("trigger fired %d times, want 1", fired)
	}
	// BulkInsert must not fire triggers (bulk load path).
	if err := db.BulkInsert("membership", []storage.Row{{storage.NewInt(1), storage.NewInt(100)}}); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("bulk insert fired triggers")
	}
}

func TestOrderByNullsPlacement(t *testing.T) {
	db := New(MySQL())
	schema := storage.MustSchema(storage.Column{Name: "a", Type: storage.KindInt})
	if _, err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkInsert("t", []storage.Row{{storage.NewInt(2)}, {storage.Null}, {storage.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	asc := mustQuery(t, db, "SELECT a FROM t ORDER BY a")
	if !asc.Rows[0][0].IsNull() || asc.Rows[1][0].I != 1 {
		t.Fatalf("asc order = %v", asc.Rows)
	}
	desc := mustQuery(t, db, "SELECT a FROM t ORDER BY a DESC")
	if desc.Rows[0][0].I != 2 || !desc.Rows[2][0].IsNull() {
		t.Fatalf("desc order = %v", desc.Rows)
	}
}

func TestCountersAccumulateAndReset(t *testing.T) {
	db := newTestDB(t, MySQL())
	db.Counters.Reset()
	mustQuery(t, db, "SELECT * FROM wifi WHERE owner = 1")
	if db.Counters.TuplesRead == 0 {
		t.Error("TuplesRead must move")
	}
	var c Counters
	c.Add(db.Counters)
	if c.TuplesRead != db.Counters.TuplesRead {
		t.Error("Add mismatch")
	}
	db.Counters.Reset()
	if db.Counters.TuplesRead != 0 {
		t.Error("Reset failed")
	}
}
