package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
)

// fingerprints.json holds, for seeds 1 and 2, the hash of what each
// workload's generators produced when the benchmark was defined.
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

// checkFingerprint fails a full-size run on seed 1 or 2 whose inputs no
// longer match the recorded ones. Any other seed runs unchecked, so a claim
// can be re-tested on inputs nobody looked at while writing it.
func checkFingerprint(o runOpts, got string) error {
	if !o.sz.full {
		return nil
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &want); err != nil {
		return fmt.Errorf("fingerprints.json: %w", err)
	}
	if fp, ok := want[fmt.Sprint(o.seed)][o.workload]; ok && fp != got {
		return fmt.Errorf("%s seed %d: inputs changed (fingerprint %s, recorded %s) — re-baseline in a benchmark PR",
			o.workload, o.seed, got, fp)
	}
	return nil
}

// runAA runs this build n times per workload, on seeds seed..seed+n-1 as the
// driver does, and prints each end-to-end metric's spread — the distance
// between the quartiles as a share of the median — against its bound.
func runAA(ctx context.Context, w io.Writer, o runOpts, names []string, n int) error {
	o.traced = false
	for _, name := range names {
		o.workload = name
		vals := make(map[string][]float64)
		for i := 0; i < n; i++ {
			ro := o
			ro.seed = o.seed + int64(i)
			rep, err := runWorkload(ctx, ro)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %d failed verification: %v", name, ro.seed, rep.Notes)
			}
			for k, v := range rep.Metrics {
				vals[k] = append(vals[k], v.Value)
			}
			runtime.GC()
		}
		fmt.Fprintf(w, "%s: %d runs, seeds %d..%d\n", name, n, o.seed, o.seed+int64(n)-1)
		fmt.Fprintf(w, "  %-20s %14s %10s %8s  %s\n", "metric", "median", "spread", "bound", "verdict")
		for _, d := range endToEnd {
			sp := spread(vals[d.Name])
			verdict := "ok"
			switch {
			case d.Name == "setup_s":
				verdict = "not gated on spread"
			case sp > d.Bound:
				verdict = "SPREAD EXCEEDS BOUND"
			case sp > d.Bound/3:
				verdict = "above a third of the bound"
			}
			fmt.Fprintf(w, "  %-20s %14.3f %9.1f%% %7.0f%%  %s\n", d.Name, median(vals[d.Name]), 100*sp, 100*d.Bound, verdict)
		}
	}
	return nil
}

// compareFiles applies the pairing rule to two -out files, parent then
// change: run i of one is paired with run i of the other (whoever produced
// the files alternated which side ran first). A gain is claimed only when
// the change wins at least nine tenths of the pairs, ties counting for
// neither, and the medians differ by more than the parent's own
// inter-quartile range; a regression is a median worse than the parent's by
// more than the metric's bound; a spread wider than the bound makes the row
// unresolved rather than unchanged.
func compareFiles(w io.Writer, parentPath, changePath string, minPairs int) error {
	parent, err := readDocs(parentPath)
	if err != nil {
		return err
	}
	change, err := readDocs(changePath)
	if err != nil {
		return err
	}
	n := len(parent)
	if len(change) < n {
		n = len(change)
	}
	fmt.Fprintf(w, "%d pairs (parent %s, change %s); every ratio is change ÷ parent\n", n, parentPath, changePath)
	if n < minPairs {
		fmt.Fprintf(w, "fewer than %d pairs: every row is unresolved\n", minPairs)
	}
	fmt.Fprintf(w, "%-20s %-18s %12s %12s %7s %9s %6s  %s\n", "workload", "metric", "parent p50", "change p50", "ratio", "par. IQR", "wins", "verdict")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			var a, b []float64
			for i := 0; i < n; i++ {
				pw, cw := parent[i].Workloads[wl], change[i].Workloads[wl]
				if pw == nil || cw == nil || pw.EndToEnd == nil || cw.EndToEnd == nil {
					continue
				}
				a = append(a, pw.EndToEnd[d.Name].Value)
				b = append(b, cw.EndToEnd[d.Name].Value)
			}
			if len(a) == 0 {
				continue
			}
			fmt.Fprintln(w, compareRow(wl, d, a, b, minPairs))
		}
	}
	return nil
}

// compareRow renders one (metric, workload) row of the comparison.
func compareRow(wl string, d metricDef, parent, change []float64, minPairs int) string {
	better := func(x, y float64) bool { // x better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	pm, cm := median(parent), median(change)
	q1, _, q3 := quartiles(parent)
	iqr := q3 - q1
	gap := cm - pm
	if gap < 0 {
		gap = -gap
	}
	verdict := "no change beyond the bound"
	switch {
	case len(parent) < minPairs:
		verdict = "unresolved (too few pairs)"
	case float64(wins) >= 0.9*float64(len(parent)) && gap > iqr:
		verdict = "GAIN"
	case better(pm, cm) && gap > d.Bound*pm:
		verdict = "REGRESSION (worse than the bound)"
	case spread(parent) > d.Bound || spread(change) > d.Bound:
		verdict = "unresolved (spread wider than the bound)"
	}
	return fmt.Sprintf("%-20s %-18s %12.3f %12.3f %7.3f %9.3f %3d/%-2d  %s",
		wl, d.Name, pm, cm, ratio(cm, pm), iqr, wins, len(parent), verdict)
}
