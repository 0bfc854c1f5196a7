package core

import (
	"context"
	"testing"
	"time"

	"github.com/sieve-db/sieve/internal/engine"
	"github.com/sieve-db/sieve/internal/policy"
	"github.com/sieve-db/sieve/internal/sqlparser"
	"github.com/sieve-db/sieve/internal/storage"
)

// TestDeltaArmRefutedAtPlanTime pins what prunes a Δ arm: its own guard
// predicate. The fixture is engineered so the chosen guard is a condition
// guard (loc = 7) whose partition spans 12 owners and exceeds the Δ
// threshold. The Δ call is an opaque UDF invocation the planner does not
// look into — the second half's owner hulls [2,40] cover owners 4..15, so
// owner zones decide nothing either — while the second half's loc hulls
// [8,63] miss 7: the guard conjunct refutes those segments, and the rows
// equal BaselineP's.
func TestDeltaArmRefutedAtPlanTime(t *testing.T) {
	db := engine.New(engine.MySQL())
	db.UDFOverheadIters = 0
	schema := storage.MustSchema(
		storage.Column{Name: "id", Type: storage.KindInt},
		storage.Column{Name: "owner", Type: storage.KindInt},
		storage.Column{Name: "loc", Type: storage.KindInt},
	)
	tbl, err := db.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1024
	rows := make([]storage.Row, 0, n)
	for i := 0; i < n; i++ {
		owner, loc := int64(i%16), int64(i%64) // first half: owners 0..15, locs 0..63 in every segment
		if i >= n/2 {
			owner, loc = 2+int64(i%2)*38, 8+int64(i%56) // second half: owners {2,40}, locs 8..63
		}
		rows = append(rows, storage.Row{storage.NewInt(int64(i)), storage.NewInt(owner), storage.NewInt(loc)})
	}
	if err := tbl.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	tbl.SetSegmentSize(64)
	for _, col := range []string{"owner", "loc"} {
		if err := db.CreateIndex("t", col); err != nil {
			t.Fatal(err)
		}
	}
	store, err := policy.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	// 12 owners, one policy each, all sharing the loc = 7 condition: the
	// shared condition guard covers all 12 with one index retrieval and
	// wins the utility ranking over 12 per-owner guards.
	var ps []*policy.Policy
	for o := int64(4); o <= 15; o++ {
		ps = append(ps, &policy.Policy{
			Owner: o, Querier: "alice", Purpose: "analytics", Relation: "t", Action: policy.Allow,
			Conditions: []policy.ObjectCondition{policy.Compare("loc", sqlparser.CmpEq, storage.NewInt(7))},
		})
	}
	if err := store.BulkLoad(ps); err != nil {
		t.Fatal(err)
	}
	m, err := New(store, WithDeltaThreshold(5), WithForcedStrategy(LinearScan))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Protect("t"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze("t"); err != nil {
		t.Fatal(err)
	}

	sess := m.NewSession(policy.Metadata{Querier: "alice", Purpose: "analytics"})
	_, rep, err := sess.Rewrite("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Decisions) != 1 || rep.Decisions[0].DeltaGuards != 1 {
		t.Fatalf("fixture must produce exactly one Δ guard, got %+v", rep.Decisions)
	}

	db.ResetCounters()
	res, err := sess.Execute(context.Background(), "SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	// Only first-half rows with loc = 7 and owner in 4..15 qualify; i%64==7
	// implies i%16==7, so each first-half loc=7 row has owner 7.
	if len(res.Rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(res.Rows))
	}
	c := db.CountersSnapshot()
	total := tbl.SegmentCount()
	if int(c.SegmentsPruned) != total/2 || int(c.SegmentsScanned) != total/2 {
		t.Fatalf("the guard must prune the %d second-half segments, got pruned=%d scanned=%d",
			total/2, c.SegmentsPruned, c.SegmentsScanned)
	}
	if c.UDFInvocations == 0 {
		t.Fatal("fixture broken: the Δ UDF never ran")
	}

	base, err := m.ExecuteBaseline(t.Context(), BaselineP, "SELECT * FROM t", sess.Metadata())
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(idsOf(res, 0), idsOf(base, 0)) {
		t.Fatalf("BaselineP returns %d rows, the Δ rewrite %d", len(base.Rows), len(res.Rows))
	}
}

// TestDeltaUDFDoesNotTakeMiddlewareLock is the regression test for the Δ
// UDF's per-tuple check-set lookup: it must not wait on m.mu, the lock
// every rewrite and policy write holds. The test holds m.mu itself while a
// BaselineU statement — one Δ call per tuple — runs to completion.
func TestDeltaUDFDoesNotTakeMiddlewareLock(t *testing.T) {
	f := newFixture(t, engine.MySQL(), 15)
	stmt, err := f.m.rewriteBaseline(BaselineU, selectAll, f.qm)
	if err != nil {
		t.Fatal(err)
	}
	want := keysOf(f.allowedIDs(t))

	type outcome struct {
		res *engine.Result
		err error
	}
	done := make(chan outcome, 1)
	f.m.mu.Lock()
	go func() {
		res, err := f.m.db.QueryStmt(stmt)
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
		f.m.mu.Unlock()
	case <-time.After(20 * time.Second):
		f.m.mu.Unlock()
		<-done
		t.Fatal("the Δ UDF waited on Middleware.mu")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !equalIDs(idsOf(out.res, 0), want) {
		t.Fatalf("BaselineU under a held lock returned %d rows, oracle allows %d", len(out.res.Rows), len(want))
	}
}
