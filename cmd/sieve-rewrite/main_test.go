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

// TestCorpusEmissionGolden pins every byte the tool emits for the examples
// corpus in every dialect with the bound args: the text an external
// backend runs. go test ./cmd/sieve-rewrite -update rewrites the golden
// after a change that means to alter it.
func TestCorpusEmissionGolden(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-corpus", "-dialect", "all", "-args"}, strings.NewReader(""), &out); code != 0 {
		t.Fatalf("exit status %d", code)
	}
	golden := filepath.Join("testdata", "corpus-all-args.golden")
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
