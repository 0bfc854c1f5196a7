package cli

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/workload"
)

// TestUsageDocsDrift fails when the usage text quoted in docs/ (or
// README.md) differs from what `sieve-rewrite -h` / `sieve-explain -h`
// print, or when either still names surface that was removed. The binaries
// build their flag sets from this package, so comparing against
// RewriteUsage/ExplainUsage is comparing against the binaries' output.
//
// Docs mark a quoted block with an HTML comment immediately before the
// fence:
//
//	<!-- usage:sieve-rewrite -->
//	```text
//	Usage: sieve-rewrite ...
//	```
func TestUsageDocsDrift(t *testing.T) {
	want := map[string]string{
		"sieve-rewrite": RewriteUsage(),
		"sieve-explain": ExplainUsage("SELECT * FROM " + workload.TableWiFi),
		"sieve-server":  ServerUsage(),
		"sieve-bench":   BenchUsage(),
	}
	found := map[string]int{}

	docsDir := filepath.Join("..", "..", "docs")
	entries, err := os.ReadDir(docsDir)
	if err != nil {
		t.Fatalf("docs directory missing: %v", err)
	}
	paths := []string{filepath.Join("..", "..", "README.md")}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			paths = append(paths, filepath.Join(docsDir, e.Name()))
		}
	}
	marker := regexp.MustCompile("(?s)<!-- usage:([a-z-]+) -->\\s*```text\n(.*?)```")
	for _, path := range paths {
		name := filepath.Base(path)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Surface that no longer exists must not linger in the docs.
		for _, gone := range []string{
			"ForceRowEval", "-run vector",
			"BENCH_traffic.json", "BENCH_latency.json", "BENCH_recovery.json",
			"BENCH_policy_scale.json", "BENCH_server.json", "bench_compare",
			"-run latency", "-run policyscale", "sieve-bench -server", "/varz",
			"OwnerDict", "owner dictionar", "owner_dict_pruned", "Calibrate(",
			"EmbeddedBackend", "NewEmbedded", "sieve-bench -backend", "ExecuteBaselineContext",
			"WALTimings", "64 RWMutex",
		} {
			if strings.Contains(string(raw), gone) {
				t.Errorf("%s still mentions %q, which was removed", name, gone)
			}
		}
		for _, m := range marker.FindAllStringSubmatch(string(raw), -1) {
			tool, quoted := m[1], m[2]
			exp, ok := want[tool]
			if !ok {
				t.Errorf("%s quotes usage for unknown tool %q", name, tool)
				continue
			}
			found[tool]++
			if quoted != exp {
				t.Errorf("%s: quoted usage for %s drifted from `%s -h`:\n--- docs ---\n%s--- binary ---\n%s",
					name, tool, tool, quoted, exp)
			}
		}
	}
	for tool := range want {
		if found[tool] == 0 {
			t.Errorf("no doc under docs/ quotes the usage of %s (add a '<!-- usage:%s -->' block)", tool, tool)
		}
	}
}
