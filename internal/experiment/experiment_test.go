package experiment

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/sieve-db/sieve/internal/workload"
)

func TestTableString(t *testing.T) {
	tab := &Table{
		ID: "Table X", Title: "demo",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	s := tab.String()
	for _, want := range []string{"Table X", "demo", "333", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestTimedHonoursTimeout(t *testing.T) {
	avg, to, err := timed(2, time.Hour, func() error { return nil })
	if err != nil || to {
		t.Fatalf("timed = %v,%v,%v", avg, to, err)
	}
	_, to, err = timed(1, time.Nanosecond, func() error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != nil || !to {
		t.Fatal("timeout not detected")
	}
}

func TestGuardGenCostTable(t *testing.T) {
	tab, err := GuardGenCost(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("empty Figure 2")
	}
	// Buckets ordered by policy count ascending.
	prev := -1.0
	for _, r := range tab.Rows {
		n, err := strconv.ParseFloat(r[0], 64)
		if err != nil {
			t.Fatalf("bad cell %q", r[0])
		}
		if n < prev {
			t.Fatalf("buckets not sorted: %v after %v", n, prev)
		}
		prev = n
	}
}

func TestGuardQualityTable(t *testing.T) {
	tab, err := GuardQuality(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("Table 6 rows = %d, want 5", len(tab.Rows))
	}
	// Savings must be high (paper ≈0.99); accept ≥0.5 at toy scale.
	savings := tab.Rows[4]
	avg, err := strconv.ParseFloat(savings[2], 64)
	if err != nil {
		t.Fatalf("bad savings cell %q", savings[2])
	}
	if avg < 0.5 || avg > 1.0 {
		t.Errorf("avg savings = %v, want in [0.5, 1]", avg)
	}
}

func TestGuardQuadrantsTable(t *testing.T) {
	tab, err := GuardQuadrants(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 7 rows = %d, want 4 quadrants", len(tab.Rows))
	}
}

func TestInlineVsDeltaTable(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	cfg := TestConfig()
	tab, err := InlineVsDelta(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("Figure 3 rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[3] != "inline" && r[3] != "delta" {
			t.Errorf("bad winner %q", r[3])
		}
	}
}

func TestIndexChoiceTable(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	tab, err := IndexChoice(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("Figure 4 rows = %d", len(tab.Rows))
	}
	// Query selectivity column must be non-decreasing.
	prev := -1.0
	for _, r := range tab.Rows {
		sel, err := strconv.ParseFloat(r[0], 64)
		if err != nil {
			t.Fatalf("bad sel cell %q", r[0])
		}
		if sel < prev {
			t.Fatalf("selectivities not sorted")
		}
		prev = sel
	}
}

func TestOverallComparisonTable(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	tab, err := OverallComparison(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 { // 3 templates × 3 classes
		t.Fatalf("Table 8 rows = %d, want 9", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r) != 6 {
			t.Fatalf("row width %d", len(r))
		}
	}
}

func TestOverallByProfileTable(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	tab, err := OverallByProfile(TestConfig(), workload.Q1)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "Table 9" {
		t.Fatalf("table id = %s", tab.ID)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("empty profile table")
	}
}

func TestPostgresComparisonTable(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	tab, err := PostgresComparison(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("empty Figure 5")
	}
	// Policy sizes ascend.
	prev := -1
	for _, r := range tab.Rows {
		n, err := strconv.Atoi(r[0])
		if err != nil || n < prev {
			t.Fatalf("bad size column: %v", r[0])
		}
		prev = n
	}
}

func TestMallScalabilityTable(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	tab, err := MallScalability(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("empty Figure 6")
	}
	for _, r := range tab.Rows {
		if !strings.HasSuffix(r[3], "x") {
			t.Errorf("speedup cell %q", r[3])
		}
	}
}

func TestAblationsTable(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	tab, err := Ablations(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("ablation rows = %d", len(tab.Rows))
	}
}

func TestDynamicRegenerationTable(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	tab, err := DynamicRegeneration(TestConfig(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	fullGens, _ := strconv.Atoi(tab.Rows[0][3])
	patchedGens, _ := strconv.Atoi(tab.Rows[1][3])
	if patchedGens >= fullGens {
		t.Errorf("patched mode ran %d full generations, full mode %d; want fewer", patchedGens, fullGens)
	}
}
