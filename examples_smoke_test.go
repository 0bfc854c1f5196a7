package sieve_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestExamplesRun builds and runs every example binary end to end. It keeps
// the documented entry points from rotting; skipped under -short since each
// `go run` pays a build.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples smoke test skipped in -short mode")
	}
	examples := []struct {
		dir  string
		want string // substring expected in stdout
	}{
		{"./examples/quickstart", "Mallory sees 0 rows"},
		{"./examples/sqldriver", "alice sees 3 rows via database/sql"},
		{"./examples/smartcampus", "guarded expression"},
		{"./examples/mall", "speedup"},
		{"./examples/dynamicpolicies", "writes absorbed by patching"},
	}
	for _, ex := range examples {
		ex := ex
		t.Run(strings.TrimPrefix(ex.dir, "./examples/"), func(t *testing.T) {
			out, err := exec.Command("go", "run", ex.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", ex.dir, err, out)
			}
			if !strings.Contains(string(out), ex.want) {
				t.Errorf("%s output missing %q:\n%s", ex.dir, ex.want, out)
			}
		})
	}
}
