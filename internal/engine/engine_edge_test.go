package engine

import (
	"fmt"
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

func TestCTEShadowsBaseTable(t *testing.T) {
	db := newTestDB(t, MySQL())
	// A CTE named like the base table must shadow it inside the statement.
	res := mustQuery(t, db,
		"WITH wifi AS (SELECT * FROM wifi WHERE owner = 1) SELECT count(*) FROM wifi")
	if res.Rows[0][0].I != 16 {
		t.Fatalf("shadowed count = %v, want 16", res.Rows[0][0])
	}
}

func TestNestedCTEVisibility(t *testing.T) {
	db := newTestDB(t, MySQL())
	// Later CTEs see earlier ones.
	res := mustQuery(t, db,
		"WITH a AS (SELECT * FROM wifi WHERE owner = 1), b AS (SELECT * FROM a WHERE wifiAP = 100) SELECT count(*) FROM b")
	if res.Rows[0][0].I != 4 {
		t.Fatalf("chained CTE count = %v, want 4", res.Rows[0][0])
	}
	// CTEs are visible inside subqueries of the body.
	res2 := mustQuery(t, db,
		"WITH a AS (SELECT * FROM wifi WHERE owner = 1) SELECT count(*) FROM membership WHERE uid IN (SELECT owner FROM a)")
	if res2.Rows[0][0].I != 1 {
		t.Fatalf("CTE in subquery = %v, want 1", res2.Rows[0][0])
	}
}

func TestUDFErrorPropagates(t *testing.T) {
	db := newTestDB(t, MySQL())
	db.RegisterUDF("boom", func(ctx *UDFContext, args []storage.Value) (storage.Value, error) {
		return storage.Null, fmt.Errorf("boom: injected failure")
	})
	_, err := db.Query("SELECT boom() FROM wifi LIMIT 1")
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("UDF error lost: %v", err)
	}
	// Errors inside WHERE propagate too.
	if _, err := db.Query("SELECT * FROM wifi WHERE boom() = TRUE"); err == nil {
		t.Fatal("UDF error in filter lost")
	}
}

func TestUDFOverheadSimulation(t *testing.T) {
	db := newTestDB(t, MySQL())
	db.UDFOverheadIters = DefaultUDFOverheadIters
	db.RegisterUDF("id1", func(ctx *UDFContext, args []storage.Value) (storage.Value, error) {
		return args[0], nil
	})
	res := mustQuery(t, db, "SELECT id1(owner) FROM wifi WHERE owner = 1 LIMIT 1")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("udf result = %v", res.Rows[0][0])
	}
}

func TestEvalPredicateWithCorrelatedSubquery(t *testing.T) {
	db := newTestDB(t, MySQL())
	wifi := db.MustTable("wifi")
	schema := QualifiedSchema("wifi", wifi.Schema)
	row, _ := wifi.Get(0)
	// A predicate with a subquery correlated to the bound row.
	expr, err := sqlparser.ParseExpr(
		"wifi.owner = (SELECT min(M.uid) FROM membership AS M WHERE M.uid = wifi.owner)")
	if err != nil {
		t.Fatal(err)
	}
	v, err := db.EvalPredicateWith(nil, expr, schema, row)
	if err != nil {
		t.Fatal(err)
	}
	if !Truthy(v) {
		t.Fatalf("correlated predicate = %v, want TRUE", v)
	}
	if Truthy(storage.Null) || Truthy(storage.NewBool(false)) {
		t.Error("Truthy on NULL/FALSE must be false")
	}
}

func TestArithmeticErrors(t *testing.T) {
	db := newTestDB(t, MySQL())
	db.RegisterUDF("sname", func(ctx *UDFContext, args []storage.Value) (storage.Value, error) {
		return storage.NewString("x"), nil
	})
	if _, err := db.Query("SELECT sname() + 1 FROM wifi LIMIT 1"); err == nil {
		t.Fatal("string arithmetic must error")
	}
}

func TestOrderByExpression(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db,
		"SELECT owner FROM wifi WHERE wifiAP = 100 AND ts_time = TIME '08:00' ORDER BY 0 - owner")
	if res.Rows[0][0].I != 9 {
		t.Fatalf("ORDER BY expression ignored: %v", res.Rows[0][0])
	}
}

func TestBitmapCountersMove(t *testing.T) {
	db := newTestDB(t, Postgres())
	db.Counters.Reset()
	mustQuery(t, db, "SELECT * FROM wifi WHERE owner = 1 OR wifiAP = 100")
	if db.Counters.BitmapOrScans == 0 {
		t.Error("bitmap scan counter did not move")
	}
	if db.Counters.IndexLookups == 0 {
		t.Error("index lookups counter did not move")
	}
}

func TestGroupByExpression(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db,
		"SELECT owner / 5, count(*) FROM wifi GROUP BY owner / 5 ORDER BY owner / 5")
	// owners 0..9 → buckets 0 (0..4) and 1 (5..9), 80 rows each. Integer
	// owners divide to floats; 10 owners / 5 = 2.0 buckets... division is
	// float so buckets are 0.0,0.2,...; expect 10 distinct.
	if len(res.Rows) != 10 {
		t.Fatalf("groups = %d, want 10 (float division buckets)", len(res.Rows))
	}
}

func TestUnionMixedWithMinus(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db,
		"SELECT owner FROM wifi WHERE owner IN (1, 2) UNION SELECT owner FROM wifi WHERE owner = 3 MINUS SELECT owner FROM wifi WHERE owner = 2")
	got := map[int64]bool{}
	for _, r := range res.Rows {
		got[r[0].I] = true
	}
	if len(got) != 2 || !got[1] || !got[3] {
		t.Fatalf("set chain = %v, want {1,3}", got)
	}
}

func TestLimitZero(t *testing.T) {
	db := newTestDB(t, MySQL())
	res := mustQuery(t, db, "SELECT * FROM wifi LIMIT 0")
	if len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(res.Rows))
	}
}

func TestExplainStringOutput(t *testing.T) {
	db := newTestDB(t, MySQL())
	ex := explainOf(t, db, "SELECT * FROM wifi WHERE owner = 1")
	s := ex.String()
	if !strings.Contains(s, "mysql") || !strings.Contains(s, "wifi") {
		t.Errorf("Explain.String() = %q", s)
	}
}
