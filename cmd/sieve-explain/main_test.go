package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the tool's output")

// TestExplainGolden pins the tool's whole explanation of the busiest
// querier's default query on each engine dialect: decisions and costs, the
// guarded expression, the rewritten and emitted SQL, the engine plan and
// the executor's counts. -workers is fixed because the default follows the
// host's CPU count, which the output prints. go test ./cmd/sieve-explain
// -update rewrites the goldens after a change that means to alter them.
func TestExplainGolden(t *testing.T) {
	for _, dialect := range []string{"mysql", "postgres"} {
		t.Run(dialect, func(t *testing.T) {
			var out bytes.Buffer
			if code := run([]string{"-querier", "auto", "-dialect", dialect, "-workers", "2"}, &out); code != 0 {
				t.Fatalf("exit status %d", code)
			}
			golden := filepath.Join("testdata", "auto-"+dialect+".golden")
			if *update {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from %s at line %d (run with -update if the change is meant)", golden, firstDiffLine(out.Bytes(), want))
			}
		})
	}
}

// firstDiffLine is the 1-based line at which got and want first differ.
func firstDiffLine(got, want []byte) int {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return i + 1
		}
	}
	return min(len(g), len(w)) + 1
}
