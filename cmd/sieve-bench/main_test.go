package main

import (
	"strings"
	"testing"
)

// TestSelectExperiments: -run resolves ids in table order, and an id the
// table does not hold is an error naming the valid ones rather than an
// empty, successful run.
func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(experiments) {
		t.Fatalf("all: %d experiments, err %v", len(all), err)
	}
	got, err := selectExperiments("traffic, fig3")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].id != "fig3" || got[1].id != "traffic" {
		t.Fatalf("picked %v, want fig3 then traffic", got)
	}
	for _, retired := range []string{"latency", "policyscale", "vector", "fig3,nosuch", ""} {
		_, err := selectExperiments(retired)
		if err == nil {
			t.Fatalf("-run %q resolved; want an error", retired)
		}
		if !strings.Contains(err.Error(), "fig2") || !strings.Contains(err.Error(), "traffic") {
			t.Fatalf("-run %q: error does not list the valid ids: %v", retired, err)
		}
	}
}
