package experiment

import (
	"strconv"
	"testing"
)

// TestRecoveryArtifact runs the durability sweep at test scale: one row
// per record count, and a log that grows with it (the sweep swept).
func TestRecoveryArtifact(t *testing.T) {
	cfg := TestConfig()
	cfg.RecoveryRecords = []int{500, 2000}
	tab, err := Recovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(cfg.RecoveryRecords) {
		t.Fatalf("table has %d rows, want %d", len(tab.Rows), len(cfg.RecoveryRecords))
	}
	var walMB [2]float64
	for i, row := range tab.Rows {
		if row[0] != strconv.Itoa(cfg.RecoveryRecords[i]) {
			t.Fatalf("row %d: records = %s, want %d", i, row[0], cfg.RecoveryRecords[i])
		}
		if walMB[i], err = strconv.ParseFloat(row[1], 64); err != nil {
			t.Fatal(err)
		}
	}
	if walMB[0] <= 0 || walMB[0] >= walMB[1] {
		t.Fatalf("WAL did not grow with record count: %v MB", walMB)
	}

	cfg.RecoveryRecords = nil
	if _, err := Recovery(cfg); err == nil {
		t.Fatal("empty sweep ran")
	}
}
