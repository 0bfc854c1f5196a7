package experiment

import "testing"

// TestTrafficArtifact runs the invariant soak at a small scale: all six
// (workload, mode) cells complete with no violation, no op error, and a
// checker and churn that actually ran (Traffic fails otherwise).
func TestTrafficArtifact(t *testing.T) {
	cfg := TestConfig()
	cfg.TrafficWorkers = 6
	cfg.TrafficOps = 6
	tab, err := Traffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("table has %d rows, want 6", len(tab.Rows))
	}

	cfg.TrafficWorkers = 0
	if _, err := Traffic(cfg); err == nil {
		t.Fatal("empty traffic config ran")
	}
}
