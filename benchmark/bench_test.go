package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/sieve-db/sieve/internal/storage"
)

// TestContractMatchesTables holds BENCHMARK.json and spec.go in step — the
// check every run starts with — and BENCHMARK.json within the limits the
// driver refuses a file outside of.
func TestContractMatchesTables(t *testing.T) {
	if err := checkContract("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range c.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range c.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range c.PerLayer {
		name(m.Name)
	}
	for _, m := range append(c.EndToEnd, c.PerLayer...) {
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: bad unit or direction", m.Name)
		}
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" || c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("paths %v / run_seconds %d", c.Paths, c.RunSeconds)
	}

	// A drifted file is refused.
	drift := filepath.Join(t.TempDir(), "BENCHMARK.json")
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(drift, []byte(strings.Replace(string(raw), `"ops_per_s"`, `"ops_per_sec"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkContract(drift); err == nil {
		t.Error("a BENCHMARK.json naming another metric passed the check")
	}
}

func tinyOpts(t *testing.T, workload string, traced bool) runOpts {
	return runOpts{
		workload: workload, seed: 1, seconds: 1, traced: traced, sz: tinySizes(),
		outDir: t.TempDir(), maxOps: 400, slices: 2,
	}
}

var percentileRE = regexp.MustCompile(`_p\d+_`)

// layersOnlyOn names the layers that must stay silent off their workload.
var layersOnlyOn = map[string]string{"wal.": wlChurn, "server.": wlMall, "client.": wlMall}

// TestEveryMetricIsEmitted runs each workload at test size, untraced and
// traced, and checks that exactly the named metrics come back, that the
// end-to-end ones are never 0, that percentiles are ordered and carry their
// sample counts, and that the layers a workload bypasses read 0.
func TestEveryMetricIsEmitted(t *testing.T) {
	ctx := context.Background()
	for _, wl := range workloadNames {
		rep, err := runWorkload(ctx, tinyOpts(t, wl, false))
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", wl, rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
		}
		if len(rep.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", wl, len(rep.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			m, ok := rep.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %+v (present %v)", wl, d.Name, m, ok)
			}
			if percentileRE.MatchString(d.Name) && rep.Samples[d.Name] < 1 {
				t.Errorf("%s: percentile %s carries no sample count", wl, d.Name)
			}
		}
		if p50, p95 := rep.Metrics["op_p50_us"].Value, rep.Metrics["op_p95_us"].Value; p50 > p95 {
			t.Errorf("%s: percentiles out of order: %v %v", wl, p50, p95)
		}

		o := tinyOpts(t, wl, true)
		rep, err = runWorkload(ctx, o)
		if err != nil {
			t.Fatalf("%s traced: %v", wl, err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d notes=%v", wl, rep.Correct, rep.Failed, rep.Notes)
		}
		if len(rep.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d per-layer metrics, want %d", wl, len(rep.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			m, ok := rep.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s traced: %s = %+v (present %v)", wl, d.Name, m, ok)
			}
			for prefix, only := range layersOnlyOn {
				if strings.HasPrefix(d.Name, prefix) && wl != only && m.Value != 0 {
					t.Errorf("%s traced: %s = %v, want 0 off %s", wl, d.Name, m.Value, only)
				}
			}
		}
		for _, must := range []string{"sqlparser.parse_us", "core.rewrite_us", "engine.exec_us", "storage.rows", "bench.direct_p50_us"} {
			if rep.Metrics[must].Value <= 0 {
				t.Errorf("%s traced: %s = %v, want > 0", wl, must, rep.Metrics[must].Value)
			}
		}
		switch wl {
		case wlChurn:
			for _, must := range []string{"wal.append_us_per_rec", "wal.bytes_per_write", "write_p50_us", "read_after_write_p50_us", "policy.insert_us", "policy.revoke_us", "churn_zipf.ops_per_s", "churn_zipf.read_after_write_p50_us", "churn_zipf.stall_max_us"} {
				if rep.Metrics[must].Value <= 0 {
					t.Errorf("%s traced: %s = %v, want > 0", wl, must, rep.Metrics[must].Value)
				}
			}
		case wlMall:
			for _, must := range []string{"server.wire_over_inproc_p50", "server.bytes_per_row", "client.ttfb_us", "client.conn_reuse_frac", "slo_rate_ops_s"} {
				if rep.Metrics[must].Value <= 0 {
					t.Errorf("%s traced: %s = %v, want > 0", wl, must, rep.Metrics[must].Value)
				}
			}
			// A one-second run sends a dozen ops at each rate: a p95
			// that sample does not support is omitted, not estimated.
			if n := rep.Samples["bench.open_p95_us.r2"]; n < 1 || n >= 200 || rep.Metrics["open_p95_us"].Value != 0 || !strings.Contains(strings.Join(rep.LowN, " "), "bench.open_p95_us.r2") {
				t.Errorf("%s traced: open_p95_us = %v on %d samples, low_n %v", wl, rep.Metrics["open_p95_us"].Value, n, rep.LowN)
			}
		}
		checkSpanFile(t, filepath.Join(o.outDir, "trace-"+wl+".json"), rep)
	}
}

// checkSpanFile reads the staged trace back: every op has a root span that
// contains its stages, so a stage's share and the root's self time (root
// minus stages) are well defined, and the staged stages add up to about
// what the same op costs when a client sends it whole.
func checkSpanFile(t *testing.T, path string, rep *report) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	roots := map[int]span{}
	for _, s := range spans {
		if s.Name == "op" {
			roots[s.Op] = s
		}
	}
	if len(roots) == 0 {
		t.Fatalf("%s: no op spans", path)
	}
	children := map[int]int64{}
	for _, s := range spans {
		if s.Parent != "op" {
			continue
		}
		root, ok := roots[s.Op]
		if !ok {
			t.Fatalf("%s: stage %s of op %d has no root", path, s.Name, s.Op)
		}
		if s.StartNS < root.StartNS || s.EndNS > root.EndNS || s.EndNS < s.StartNS {
			t.Errorf("%s: stage %s of op %d [%d,%d] outside its root [%d,%d]", path, s.Name, s.Op, s.StartNS, s.EndNS, root.StartNS, root.EndNS)
		}
		children[s.Op] += s.EndNS - s.StartNS
	}
	for op, root := range roots {
		if self := root.EndNS - root.StartNS - children[op]; self < 0 {
			t.Errorf("%s: op %d has negative self time %d", path, op, self)
		}
	}
	// ≈1 at full size; test-sized ops are tens of microseconds, so the
	// band here is wide enough for a busy CI host.
	if r := rep.Metrics["bench.staged_over_direct_p50"].Value; r < 0.7 || r > 1.5 {
		t.Errorf("%s: staged stages are %.2fx the direct op, want about 1", rep.Workload, r)
	}
}

// TestWrongRowIsCaught injects a row the policies do not allow into every
// result and expects the run to count failures: through the oracle on a
// static workload, through the two-legal-worlds checker on scale_churn.
func TestWrongRowIsCaught(t *testing.T) {
	for _, wl := range []string{wlCampus, wlMall, wlChurn} {
		o := tinyOpts(t, wl, false)
		o.tamper = func(rows []storage.Row) []storage.Row {
			if len(rows) == 0 {
				return rows
			}
			bad := append(storage.Row(nil), rows[0]...)
			for i := range bad {
				if bad[i].K == storage.KindInt {
					bad[i] = storage.NewInt(-7) // no such id, owner or AP
				}
			}
			return append([]storage.Row{bad}, rows[1:]...)
		}
		rep, err := runWorkload(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: a wrong row in every result went unnoticed (failed=%d of %d)", wl, rep.Failed, rep.Attempted)
		}
	}
}

// TestOpenLoopCountsFromDueTime stalls the first send for 150 ms at 200
// ops/s. The thirty ops that came due during the stall ran instantly, but
// each must be charged the time it waited: an open loop that timed from the
// actual send would report microseconds here.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	st := openLoop(context.Background(), 200, 40, 1, func(_, i int) error {
		if i == 0 {
			time.Sleep(150 * time.Millisecond)
		}
		if i == 39 {
			return errors.New("refused")
		}
		return nil
	})
	if st.attempted != 40 || st.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 40 and 1", st.attempted, st.failed)
	}
	if p50 := percentile(st.latsUS, 50); p50 < 20000 {
		t.Errorf("median latency %v µs: the stall was hidden, not counted from the due time", p50)
	}
	if st.backlogMax < 10 {
		t.Errorf("backlog peaked at %d, want the ≈30 ops the stall queued", st.backlogMax)
	}
	if lag := percentile(st.lagsUS, 95); lag < 20000 {
		t.Errorf("p95 send lag %v µs, want the stall to show", lag)
	}
	if st.holds(10000) {
		t.Error("a rate with a 150 ms stall holds a 10 ms limit")
	}
}

// TestSmallOpCounts: -ops below the number of slices, or not divisible by it,
// runs exactly that many ops and ends.
func TestSmallOpCounts(t *testing.T) {
	for _, ops := range []int{1, 2, 7} {
		o := tinyOpts(t, wlCampus, false)
		o.maxOps, o.slices = ops, 3
		rep, err := runWorkload(context.Background(), o)
		if err != nil {
			t.Fatalf("-ops %d: %v", ops, err)
		}
		if got := rep.Samples["op_p50_us"]; got != ops {
			t.Errorf("-ops %d measured %d ops", ops, got)
		}
	}
	var s system
	if _, err := s.closedLoop(context.Background(), time.Time{}, 0); err == nil {
		t.Error("a closed loop with neither a deadline nor an op count started")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

// TestCompareVerdicts walks the pairing rule's four outcomes.
func TestCompareVerdicts(t *testing.T) {
	lat := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		pairs          int
		want           string
	}{
		{"gain", parent, shift(0.8), 10, "GAIN"},
		{"regression", parent, shift(1.2), 10, "REGRESSION"},
		{"unchanged", parent, shift(1.01), 10, "no change"},
		{"noisy", noisy, noisy, 10, "unresolved (spread"},
		{"few pairs", parent[:4], shift(0.5)[:4], 10, "unresolved (too few"},
	} {
		if row := compareRow(wlCampus, lat, tc.parent, tc.change, tc.pairs); !strings.Contains(row, tc.want) {
			t.Errorf("%s: %q lacks %q", tc.name, row, tc.want)
		}
	}
}

// TestInputsComeFromTheSeed: the same seed gives the same inputs and op
// sequence, another seed gives others.
func TestInputsComeFromTheSeed(t *testing.T) {
	fp := func(seed int64) string {
		e, err := build(wlHospital, seed, tinySizes(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		return e.fingerprint()
	}
	a, b, c := fp(1), fp(1), fp(2)
	if a != b {
		t.Errorf("seed 1 fingerprints differ: %s %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 share the fingerprint %s", a)
	}
	o := runOpts{sz: fullSizes(), seed: 1, workload: wlHospital}
	if err := checkFingerprint(o, "not-the-recorded-one"); err == nil || !strings.Contains(err.Error(), "inputs changed") {
		t.Errorf("a changed seed-1 input passed the fingerprint check: %v", err)
	}
	o.seed = 99
	if err := checkFingerprint(o, "anything"); err != nil {
		t.Errorf("seed 99 is not recorded and must run unchecked: %v", err)
	}
}
