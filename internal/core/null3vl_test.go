package core

import (
	"context"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// TestNullUnboundedRangeGuardArm is the regression test for the NULL
// three-valued-logic edge in guard-arm emission: a CondRange left unbounded
// on both sides (the shape guard merging can produce) used to inline as
// literal TRUE, so a tuple whose attribute is NULL passed the inlined arm
// while the Δ operator's Matches — and SQL 3VL, where every comparison
// with NULL is NULL, never TRUE — deny it. The arm must behave as FALSE
// for such tuples inlined and behind the Δ UDF. (That the scan's compiled
// filter and the row evaluator agree on this shape is the engine oracle's
// TestOracleNullOwnerUnboundedRange.)
func TestNullUnboundedRangeGuardArm(t *testing.T) {
	unbounded := policy.ObjectCondition{
		Attr: "temp", Kind: policy.CondRange,
		Lo: storage.Null, Hi: storage.Null,
		LoOp: sqlparser.CmpGe, HiOp: sqlparser.CmpLe,
	}

	// The emitted arm must require the attribute to be non-NULL.
	if isNull, ok := unbounded.Expr("r").(*sqlparser.IsNullExpr); !ok || !isNull.Not {
		t.Fatalf("unbounded range must emit IS NOT NULL, got %s", sqlparser.PrintExpr(unbounded.Expr("r")))
	}
	// And Matches agrees: NULL attribute fails, any value passes.
	if ok, _ := unbounded.Matches(storage.Null); ok {
		t.Fatal("Matches must deny NULL for an unbounded range")
	}
	if ok, _ := unbounded.Matches(storage.NewInt(7)); !ok {
		t.Fatal("Matches must accept a non-NULL value for an unbounded range")
	}

	build := func(deltaThreshold int) (*engine.DB, *Middleware) {
		t.Helper()
		db := engine.New(engine.MySQL())
		db.UDFOverheadIters = 0
		schema := storage.MustSchema(
			storage.Column{Name: "owner", Type: storage.KindInt},
			storage.Column{Name: "temp", Type: storage.KindInt},
			storage.Column{Name: "id", Type: storage.KindInt},
		)
		if _, err := db.CreateTable("readings", schema); err != nil {
			t.Fatal(err)
		}
		rows := []storage.Row{
			{storage.NewInt(5), storage.NewInt(20), storage.NewInt(0)},
			{storage.NewInt(5), storage.Null, storage.NewInt(1)}, // NULL temp: must be denied
			{storage.NewInt(5), storage.NewInt(-3), storage.NewInt(2)},
			{storage.NewInt(6), storage.NewInt(9), storage.NewInt(3)}, // other owner: denied
			{storage.Null, storage.NewInt(4), storage.NewInt(4)},      // NULL owner: denied
		}
		if err := db.BulkInsert("readings", rows); err != nil {
			t.Fatal(err)
		}
		store, err := policy.NewStore(db)
		if err != nil {
			t.Fatal(err)
		}
		// Two same-owner policies so the owner guard's partition crosses a
		// Δ threshold of 1; both carry the unbounded-range condition so
		// inline and Δ evaluation face the same NULL edge.
		for i := 0; i < 2; i++ {
			extra := policy.Compare("id", sqlparser.CmpGe, storage.NewInt(int64(i)))
			if err := store.Insert(&policy.Policy{
				Owner: 5, Querier: "q", Purpose: "p", Relation: "readings", Action: policy.Allow,
				Conditions: []policy.ObjectCondition{unbounded, extra},
			}); err != nil {
				t.Fatal(err)
			}
		}
		m, err := New(store, WithForcedStrategy(LinearScan), WithDeltaThreshold(deltaThreshold))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Protect("readings"); err != nil {
			t.Fatal(err)
		}
		return db, m
	}

	wantIDs := []int64{0, 2} // owner 5 with a non-NULL temp
	for _, mode := range []struct {
		name           string
		deltaThreshold int
	}{
		{"inline", 0},
		{"delta", 1},
	} {
		db, m := build(mode.deltaThreshold)
		sess := m.NewSession(policy.Metadata{Querier: "q", Purpose: "p"})
		res, err := sess.Execute(context.Background(), "SELECT id FROM readings ORDER BY id")
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		var got []int64
		for _, r := range res.Rows {
			got = append(got, r[0].I)
		}
		if len(got) != len(wantIDs) || got[0] != wantIDs[0] || got[1] != wantIDs[1] {
			t.Fatalf("%s: got ids %v, want %v (NULL temp or NULL owner leaked through a guard arm)", mode.name, got, wantIDs)
		}
		if mode.deltaThreshold > 0 {
			if c := db.CountersSnapshot(); c.UDFInvocations == 0 {
				t.Fatalf("%s: Δ path not exercised (no UDF invocations)", mode.name)
			}
		}
	}
}
