package core

import (
	"testing"

	"github.com/sieve-db/sieve/internal/engine"
)

// The mechanism claim behind Table 8: SIEVE's guard-driven index access
// touches far fewer tuples than BaselineP's scan, at identical results.
func TestSieveReadsFewerTuplesThanBaselineP(t *testing.T) {
	// Sparse corpus: selective guards make IndexGuards the winning
	// strategy, which is the pruning this test asserts.
	f := newFixture(t, engine.MySQL(), 12)
	// Warm both paths so guard generation is excluded.
	if _, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.ExecuteBaseline(t.Context(), BaselineP, selectAll, f.qm); err != nil {
		t.Fatal(err)
	}

	f.db.Counters.Reset()
	sieveRes, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll)
	if err != nil {
		t.Fatal(err)
	}
	sieveReads := f.db.Counters.TuplesRead

	f.db.Counters.Reset()
	baseRes, err := f.m.ExecuteBaseline(t.Context(), BaselineP, selectAll, f.qm)
	if err != nil {
		t.Fatal(err)
	}
	baseReads := f.db.Counters.TuplesRead

	if len(sieveRes.Rows) != len(baseRes.Rows) {
		t.Fatalf("results diverge: %d vs %d", len(sieveRes.Rows), len(baseRes.Rows))
	}
	total := int64(f.db.MustTable("wifi").NumRows())
	if baseReads < total {
		t.Fatalf("BaselineP read %d tuples, expected a full scan of %d", baseReads, total)
	}
	if sieveReads*2 >= baseReads {
		t.Fatalf("SIEVE read %d tuples vs BaselineP %d — guards are not pruning", sieveReads, baseReads)
	}
}

// On the postgres dialect the same pruning comes from bitmap OR scans.
// (A sparse corpus keeps the guard disjunction selective; with dense owner
// coverage the optimizer rightly prefers a sequential scan.)
func TestSievePrunesOnPostgresViaBitmap(t *testing.T) {
	f := newFixture(t, engine.Postgres(), 12)
	if _, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll); err != nil {
		t.Fatal(err)
	}
	f.db.Counters.Reset()
	if _, err := f.m.NewSession(f.qm).Execute(t.Context(), selectAll); err != nil {
		t.Fatal(err)
	}
	if f.db.Counters.BitmapOrScans == 0 {
		t.Error("postgres dialect did not use a bitmap OR scan for the guards")
	}
	total := int64(f.db.MustTable("wifi").NumRows())
	if f.db.Counters.TuplesRead >= total {
		t.Errorf("postgres SIEVE read %d of %d tuples — no pruning", f.db.Counters.TuplesRead, total)
	}
}

// Index hints are what keeps the mysql dialect from degenerating to a scan
// on the guard disjunction (§5.3): without them the optimizer cannot use
// index-merge for the OR, so the LinearScan path reads everything.
func TestHintsEnableIndexMergeOnMySQL(t *testing.T) {
	// A sparse corpus (few owners covered) keeps the guards selective so
	// IndexGuards is the chosen strategy; with dense coverage LinearScan
	// would win legitimately and hints would be moot.
	withHints := newFixture(t, engine.MySQL(), 12)
	if _, err := withHints.m.NewSession(withHints.qm).Execute(t.Context(), selectAll); err != nil {
		t.Fatal(err)
	}
	withHints.db.Counters.Reset()
	if _, err := withHints.m.NewSession(withHints.qm).Execute(t.Context(), selectAll); err != nil {
		t.Fatal(err)
	}
	hinted := withHints.db.Counters.TuplesRead

	noHints := newFixture(t, engine.MySQL(), 12, WithoutHints())
	if _, err := noHints.m.NewSession(noHints.qm).Execute(t.Context(), selectAll); err != nil {
		t.Fatal(err)
	}
	noHints.db.Counters.Reset()
	if _, err := noHints.m.NewSession(noHints.qm).Execute(t.Context(), selectAll); err != nil {
		t.Fatal(err)
	}
	unhinted := noHints.db.Counters.TuplesRead

	if hinted >= unhinted {
		t.Fatalf("hints show no benefit: hinted=%d unhinted=%d tuples read", hinted, unhinted)
	}
}
