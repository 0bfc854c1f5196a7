package core

import (
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// Failure-injection coverage: broken policies and malformed inputs must
// surface as errors, never as silent over- or under-sharing.

func TestPolicyWithBrokenSubqueryFailsClosed(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 0)
	p := &policy.Policy{
		Owner: 1, Querier: "prof", Purpose: "attendance",
		Relation: "wifi", Action: policy.Allow,
		Conditions: []policy.ObjectCondition{
			policy.DerivedValue("wifiAP", sqlparser.CmpEq, "SELECT x FROM no_such_table"),
		},
	}
	if err := f.m.AddPolicy(p); err != nil {
		t.Fatal(err) // the subquery parses; the missing table is a runtime error
	}
	_, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll)
	if err == nil || !strings.Contains(err.Error(), "no_such_table") {
		t.Fatalf("broken derived-value subquery must error, got %v", err)
	}
	// Baselines fail closed too.
	if _, err := f.m.ExecuteBaseline(t.Context(), BaselineP, selectAll, f.qm); err == nil {
		t.Error("BaselineP must propagate the error")
	}
	if _, err := f.m.ExecuteBaseline(t.Context(), BaselineU, selectAll, f.qm); err == nil {
		t.Error("BaselineU must propagate the error")
	}
}

func TestMalformedQueryRejected(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 5)
	for _, q := range []string{"", "SELEC * FROM wifi", "SELECT * FROM wifi WHERE"} {
		if _, err := f.m.NewSession(f.qm).Execute(t.Context(), q); err == nil {
			t.Errorf("malformed query %q accepted", q)
		}
		if _, err := f.m.ExecuteBaseline(t.Context(), BaselineI, q, f.qm); err == nil {
			t.Errorf("baseline accepted malformed query %q", q)
		}
	}
}

func TestUnknownBaselineKind(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 5)
	if _, err := f.m.rewriteBaseline(BaselineKind("BaselineX"), selectAll, f.qm); err == nil {
		t.Error("unknown baseline kind accepted")
	}
}

func TestDeltaUDFArgumentValidation(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 5)
	// Direct misuse of the registered UDF must error, not crash.
	if _, err := f.db.Query("SELECT " + DeltaUDFName + "() FROM wifi LIMIT 1"); err == nil {
		t.Error("delta without arguments accepted")
	}
	if _, err := f.db.Query("SELECT " + DeltaUDFName + "(999999, owner) FROM wifi LIMIT 1"); err == nil {
		t.Error("delta with unknown set id accepted")
	}
}

// TestDeltaArityMismatch: the Δ UDF rejects a call to a live check set with
// fewer attribute arguments than the relation's schema has.
func TestDeltaArityMismatch(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 50, WithDeltaThreshold(1))
	_, rep, err := f.m.RewriteQuery(selectAll, f.qm)
	if err != nil {
		t.Fatal(err)
	}
	calls := deltaCalls(rep.GuardedCTEs[0].Arms)
	if len(calls) == 0 {
		t.Fatal("no guard checks its partition through Δ")
	}
	id := calls[0].Args[0].(*sqlparser.Literal).Val.I
	_, err = f.db.Query("SELECT " + DeltaUDFName + "(" + itoa64(id) + ", owner) FROM wifi LIMIT 1")
	if err == nil || !strings.Contains(err.Error(), "got 1 attributes") {
		t.Fatalf("a call to set %d with one attribute: %v", id, err)
	}
}

func itoa64(n int64) string {
	return storage.NewInt(n).String()
}

// TestOwnerNullTupleDenied: tuples with NULL owner are denied by default.
func TestOwnerNullTupleDenied(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 10, WithDeltaThreshold(1))
	if err := f.db.Insert("wifi", storage.Row{
		storage.NewInt(999999), storage.Null, storage.NewInt(100),
		storage.NewTime(9 * 3600), storage.NewDate(0),
	}); err != nil {
		t.Fatal(err)
	}
	res, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r[0].I == 999999 {
			t.Fatal("NULL-owner tuple leaked")
		}
	}
}

// TestProtectIdempotent: protecting twice is harmless.
func TestProtectIdempotent(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 5)
	if err := f.m.Protect("wifi"); err != nil {
		t.Fatal(err)
	}
	if !f.m.Protected("wifi") || f.m.Protected("membership") {
		t.Error("Protected() wrong")
	}
}
