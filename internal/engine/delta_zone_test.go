package engine

import (
	"testing"

	"github.com/sieve-db/sieve/internal/storage"
)

// deltaTestDB is vecTestDB plus a Δ-style UDF with registered partition
// provenance: d_check(setID, owner) is TRUE iff owner belongs to the
// set's closed owner list — the same implication SIEVE's sieve_delta
// guarantees — so the planner may lower the call to an owner-equality
// leaf.
func deltaTestDB(t *testing.T) (*DB, *storage.Table) {
	t.Helper()
	db, tbl, _ := vecTestDB(t)
	sets := map[int64][]int64{
		1: {5, 7}, // present in no segment
		2: {11},   // present in the {1,11} segments only
	}
	db.RegisterUDF("d_check", func(_ *UDFContext, args []storage.Value) (storage.Value, error) {
		if len(args) != 2 {
			return storage.Null, nil
		}
		for _, id := range sets[args[0].I] {
			if args[1].K == storage.KindInt && args[1].I == id {
				return storage.NewBool(true), nil
			}
		}
		return storage.NewBool(false), nil
	})
	db.RegisterDeltaResolver("d_check", func(setID int64) (string, []int64, bool) {
		s, ok := sets[setID]
		return "owner", s, ok
	})
	return db, tbl
}

// TestDeltaResolverRefutesAtPlanTime is the regression test for Δ-arm
// provenance reaching planAccess: a UDF-call arm, opaque to sarg
// extraction, is refuted segment-by-segment through its registered owner
// set — including dictionary-only refutations the min/max hull cannot
// reach — without a single tuple read or UDF bridge invocation.
func TestDeltaResolverRefutesAtPlanTime(t *testing.T) {
	db, tbl := deltaTestDB(t)
	total := tbl.SegmentCount()

	// Set 1's owners {5,7} sit inside every segment's hull [base, base+10]
	// but in no dictionary: only the Δ leaf's points can prune, and every
	// refutation is dictionary-decisive.
	res, c := runCounted(t, db, "SELECT * FROM t WHERE d_check(1, owner) = TRUE")
	if len(res.Rows) != 0 {
		t.Fatalf("no row has owner 5 or 7, got %d rows", len(res.Rows))
	}
	if c.SegmentsPruned != int64(total) || c.OwnerDictPruned != int64(total) {
		t.Fatalf("want all %d segments owner-dict pruned, got pruned=%d ownerDict=%d",
			total, c.SegmentsPruned, c.OwnerDictPruned)
	}
	if c.TuplesRead != 0 || c.UDFInvocations != 0 {
		t.Fatalf("plan-time refutation must cost nothing, got tuples=%d udf=%d",
			c.TuplesRead, c.UDFInvocations)
	}

	// Set 2 ({11}): segments holding owner 11 scan; {2,12} segments have a
	// covering hull so only their dictionaries refute; {0,10} hulls refute
	// on their own.
	var scan, dictOnly int
	for seg := 0; seg < total; seg++ {
		od, ok := tbl.SegmentOwners(seg)
		if !ok {
			t.Fatal("owner tracking missing")
		}
		switch {
		case od.MayContain(11):
			scan++
		case od.MayContain(12):
			dictOnly++
		}
	}
	if scan == 0 || dictOnly == 0 {
		t.Fatalf("bad fixture: scan=%d dictOnly=%d", scan, dictOnly)
	}
	res, c = runCounted(t, db, "SELECT * FROM t WHERE d_check(2, owner) = TRUE")
	if want := scan * 32; len(res.Rows) != want { // odd rows of each {1,11} segment
		t.Fatalf("got %d rows, want %d", len(res.Rows), want)
	}
	if int(c.SegmentsScanned) != scan || int(c.SegmentsPruned) != total-scan || int(c.OwnerDictPruned) != dictOnly {
		t.Fatalf("scanned=%d pruned=%d dict=%d, want %d/%d/%d",
			c.SegmentsScanned, c.SegmentsPruned, c.OwnerDictPruned, scan, total-scan, dictOnly)
	}

	// Unknown set id: the resolver declines, nothing is pruned, and the
	// UDF is simply evaluated per tuple (conservative fallback).
	res, c = runCounted(t, db, "SELECT * FROM t WHERE d_check(3, owner) = TRUE")
	if len(res.Rows) != 0 {
		t.Fatalf("unknown set matched %d rows", len(res.Rows))
	}
	if c.SegmentsPruned != 0 || c.UDFInvocations == 0 {
		t.Fatalf("unresolvable call must fall back to evaluation: pruned=%d udf=%d",
			c.SegmentsPruned, c.UDFInvocations)
	}
}

// TestDeltaResolverRowEvalParity proves the lowered refutation commutes
// with the rowPasses reference (the vector oracle's seam): same rows, same
// pruning.
func TestDeltaResolverRowEvalParity(t *testing.T) {
	db, _ := deltaTestDB(t)
	res, c := runCounted(t, db, "SELECT * FROM t WHERE d_check(2, owner) = TRUE OR x < 3")
	res2, c2 := runReference(t, db, "SELECT * FROM t WHERE d_check(2, owner) = TRUE OR x < 3")
	if len(res.Rows) != len(res2.Rows) {
		t.Fatalf("vectorised %d rows vs row-eval %d rows", len(res.Rows), len(res2.Rows))
	}
	if c.SegmentsPruned != c2.SegmentsPruned {
		t.Fatalf("pruning diverged: %d vs %d", c.SegmentsPruned, c2.SegmentsPruned)
	}
}
