// Command benchmark is the repo's one performance benchmark: four sized
// workloads, the end-to-end metrics a user of the middleware sees, and a
// staged per-layer trace. See README.md in this directory for the tables and
// BENCHMARK.json at the repo root for the contract the driver runs it under.
//
// It is a module of its own; run.sh builds it and runs it from the root of a
// checkout:
//
//	bash benchmark/run.sh -workload hospital_scan -seed 1 -seconds 20 -trace 0
//	bash benchmark/run.sh -seed 1 -out benchmark/out/run.json   # every workload, untraced then traced
//	bash benchmark/run.sh -aa 10 -workload scale_churn          # spread of one build against the bounds
//	bash benchmark/run.sh -compare parent.json change.json      # the pairing rule, one row per (metric, workload)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// report is one run of one workload.
type report struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Traced      bool                   `json:"traced"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
	Samples     map[string]int         `json:"samples,omitempty"`
	LowN        []string               `json:"low_n,omitempty"` // percentiles with fewer than ten samples beyond them
	Fingerprint string                 `json:"fingerprint"`
	Notes       []string               `json:"notes,omitempty"`
}

// The open loop of mall_wire, frozen on the seed commit (ten seeds, this host:
// closed-loop ops_per_s 76.0, op_p50_us 21 535): three rates at 60, 80 and
// 100% of the closed-loop ops_per_s — the last more than an open loop sustains
// on the seed commit, so the highest rate that holds can move either way —
// and a latency limit of five times the closed-loop median op.
var (
	mallRates          = [3]float64{46, 61, 76}
	mallLatencyLimitUS = 108000.0
)

// spareSetUps is how many set-ups to time after each slice of the measured
// part, given how long the first took: between one and four.
func spareSetUps(firstS float64) int {
	switch n := int(1.5 / firstS); {
	case n < 1:
		return 1
	case n > 4:
		return 4
	default:
		return n
	}
}

// tracedShares splits a traced run's --seconds between the untraced closed
// loop it starts with and the staged replay; what is left goes to the
// workload's own phase: mall_wire's open loop, scale_churn's Zipf-drawn
// writes.
func tracedShares(e *env) (ref, replay float64) {
	switch {
	case e.srv != nil:
		return 0.15, 0.25
	case e.corpus != nil:
		return 0.35, 0.30
	}
	return 0.3, 0.7
}

// runWorkload sets the workload up, measures it for o.seconds (or o.maxOps),
// verifies every result, and returns the report: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
func runWorkload(ctx context.Context, o runOpts) (*report, error) {
	rep := &report{Workload: o.workload, Seed: o.seed, Traced: o.traced, Samples: map[string]int{}}
	sys, secs, err := setUp(ctx, o, nil)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	rep.Fingerprint = sys.e.fingerprint()
	if err := checkFingerprint(o, rep.Fingerprint); err != nil {
		return nil, err
	}
	runtime.GC()

	out := series{}
	budget := time.Duration(o.seconds * float64(time.Second))
	until := func(share float64) time.Time {
		if o.maxOps > 0 {
			return time.Time{}
		}
		return time.Now().Add(time.Duration(share * float64(budget)))
	}
	if o.traced {
		err = sys.tracedRun(ctx, o, until, out, rep)
		rep.Metrics = out.reduce(perLayer)
	} else {
		// The measured part runs in slices, the same system throughout, with
		// more set-ups — timed, then thrown away — after each: setup_s
		// is the median of set-ups spread over the whole run. Taken back to
		// back before it, they sample a few seconds of the machine, and on
		// a shared host that moved a 0.3 s set-up by a quarter between runs.
		slices := o.slices
		if slices < 1 {
			slices = 3
		}
		if o.maxOps > 0 && slices > o.maxOps {
			slices = o.maxOps
		}
		setups := []float64{secs}
		var phases []*phase
		for k := 0; k < slices && err == nil; k++ {
			ops := o.maxOps / slices
			if k < o.maxOps%slices {
				ops++
			}
			var ph *phase
			if ph, err = sys.closedLoop(ctx, until(1/float64(slices)), ops); err != nil {
				break
			}
			phases = append(phases, ph)
			// A cheap set-up is repeated, about a second and a half's worth
			// after each slice: a 0.3 s set-up timed four times a run
			// spread by a quarter of its median between runs.
			for n := spareSetUps(setups[0]); n > 0 && err == nil; n-- {
				runtime.GC()
				var spare *system
				if spare, secs, err = setUp(ctx, o, sys.oracle); err == nil {
					spare.close()
					setups = append(setups, secs)
				}
			}
			runtime.GC()
		}
		if err == nil {
			ph := pooled(phases)
			tally(ph, rep)
			endToEndOf(ph, median(setups), out, rep)
			rep.Metrics = out.reduce(endToEnd)
		}
	}
	if err != nil {
		return nil, err
	}

	probes, leaked, err := sys.denyProbe(ctx)
	if err != nil {
		return nil, err
	}
	rep.Attempted += probes
	rep.Failed += leaked
	if leaked > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("%d default-deny probes came back with rows", leaked))
	}
	if sys.e.checker != nil {
		v, samples := sys.e.checker.Violations()
		rep.Failed += int(v.Total())
		rep.Notes = append(rep.Notes, samples...)
	}
	if rep.Failed > rep.Attempted {
		rep.Failed = rep.Attempted
	}
	if o.traced {
		rep.Metrics["failed_ops_frac"] = metricValue{Value: ratio(float64(rep.Failed), float64(rep.Attempted)), Unit: "ratio"}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// tail sets a percentile reported by the traced run: 0, and an entry in
// LowN, when fewer than ten samples lie beyond it — omitted, not estimated.
func (rep *report) tail(out series, name string, asc []float64, p float64) {
	v := 0.0
	if supported(len(asc), p) {
		v = percentile(asc, p)
	} else if len(asc) > 0 {
		rep.LowN = append(rep.LowN, name)
	}
	if len(asc) > 0 {
		rep.Samples[name] = len(asc)
	}
	out.set(name, v)
}

// tracedRun is the traced invocation: a short untraced closed loop (the
// reference the overheads are taken against, and the source of the write and
// process metrics), the staged replay, and then mall_wire's open loop or
// scale_churn's phase of Zipf-drawn writes.
func (s *system) tracedRun(ctx context.Context, o runOpts, until func(float64) time.Time, out series, rep *report) error {
	e := s.e
	if err := s.layerProbes(out); err != nil {
		return err
	}
	refShare, replayShare := tracedShares(e)
	ph, err := s.closedLoop(ctx, until(refShare), o.maxOps)
	if err != nil {
		return err
	}
	tally(ph, rep)
	ops := float64(len(ph.recs))
	count := func(k opKind) float64 { return float64(len(latencies(ph.recs, byKind(k), opLat))) }
	out.set("bench.samples.stream", count(kStream))
	out.set("bench.samples.exhaust", count(kExhaust))
	out.set("bench.samples.prepared", count(kPrepared))
	out.set("bench.samples.write", count(kWrite))
	all := latencies(ph.recs, anyKind, opLat)
	rep.tail(out, "op_p99_us", all, 99)
	rep.tail(out, "write_p50_us", latencies(ph.recs, byKind(kWrite), opLat), 50)
	rep.tail(out, "read_after_write_p50_us", latencies(ph.recs, byKind(kRAW), opLat), 50)
	out.set("go.cpu_s_per_kop", ratio(ph.cpuS, ops/1000))
	out.set("go.alloc_kb_per_op", ratio(float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc)/1024, ops))
	out.set("go.allocs_per_op", ratio(float64(ph.mem1.Mallocs-ph.mem0.Mallocs), ops))
	out.set("go.gc_cycles", float64(ph.mem1.NumGC-ph.mem0.NumGC))
	out.set("go.gc_pause_ms", float64(ph.mem1.PauseTotalNs-ph.mem0.PauseTotalNs)/1e6)

	tl := &traceLog{t0: time.Now()}
	r, err := s.newReplay(ctx, out, tl)
	if err != nil {
		return err
	}
	defer r.close()
	replayOps := 0
	if o.maxOps > 0 {
		replayOps = o.maxOps/4 + 1
	}
	if err := r.run(ctx, until(replayShare), replayOps); err != nil {
		return err
	}
	rep.Attempted += len(r.plainUS)
	out.set("bench.trace_overhead_ratio", ratio(median(r.plainUS), percentile(all, 50)))
	if err := tl.write(fmt.Sprintf("%s/trace-%s.json", o.outDir, o.workload)); err != nil {
		return err
	}

	rest := 1 - refShare - replayShare
	switch {
	case e.srv != nil:
		s.openLoops(ctx, rest*o.seconds, out, rep)
	case e.corpus != nil:
		e.setWriteLaw(true)
		zp, err := s.closedLoop(ctx, until(rest), o.maxOps)
		e.setWriteLaw(false)
		if err != nil {
			return err
		}
		tally(zp, rep)
		zall := latencies(zp.recs, anyKind, opLat)
		out.set("churn_zipf.ops_per_s", ratio(float64(len(zall)), zp.wall.Seconds()))
		rep.tail(out, "churn_zipf.op_p95_us", zall, 95)
		rep.tail(out, "churn_zipf.read_after_write_p50_us", latencies(zp.recs, byKind(kRAW), opLat), 50)
		out.set("churn_zipf.stall_max_us", percentile(zall, 100))
	}
	return nil
}

// openLoops runs mall_wire's open loop at each of mallRates, the same number
// of ops at each (so every p95 rests on the same sample) filling budget
// seconds between them, and reports the p95 at each rate and the highest
// rate that holds the limit.
func (s *system) openLoops(ctx context.Context, budget float64, out series, rep *report) {
	perOp := 0.0
	for _, rate := range mallRates {
		perOp += 1 / rate
	}
	each := int(budget / perOp)
	slo := 0.0
	for i, rate := range mallRates {
		first := s.next
		st := openLoop(ctx, rate, each, numClients, func(w, i int) error {
			rc, err := s.read(ctx, s.callers[w], s.e.opAt(first+i))
			if err == nil {
				if s.oracle.settle(&rc); rc.bad {
					err = errors.New("a row the oracle rejects")
				}
			}
			return err
		})
		s.next = first + st.attempted
		rep.Attempted += st.attempted
		rep.Failed += st.failed
		name := fmt.Sprintf("bench.open_p95_us.r%d", i+1)
		rep.tail(out, name, st.latsUS, 95)
		if i == 1 {
			out.set("open_p95_us", out[name][0])
			out.set("bench.sched_lag_p95_us", percentile(st.lagsUS, 95))
		}
		if bm := float64(st.backlogMax); i == 0 || bm > out["bench.backlog_max"][0] {
			out.set("bench.backlog_max", bm)
		}
		if st.holds(mallLatencyLimitUS) {
			slo = rate
		}
	}
	out.set("slo_rate_ops_s", slo)
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// meta records the conditions of a run.
type meta struct {
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Clients     int     `json:"clients"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	FlushPolicy string  `json:"wal_flush_policy"`
	Time        string  `json:"time"`
}

// workloadDoc is one workload's part of a run document.
type workloadDoc struct {
	Fingerprint string                 `json:"fingerprint"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	EndToEnd    map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
	Samples     map[string]int         `json:"samples,omitempty"`
	LowN        []string               `json:"low_n,omitempty"`
	Notes       []string               `json:"notes,omitempty"`
}

// runDoc is what -out appends to a file: one run of some or all workloads.
// Claim is always null — a benchmark run states numbers, a later change
// claims a gain by comparing two sets of them.
type runDoc struct {
	Meta      meta                    `json:"meta"`
	Workloads map[string]*workloadDoc `json:"workloads"`
	Claim     *string                 `json:"claim"`
}

func newMeta(seed int64, seconds float64) meta {
	m := meta{
		Seed: seed, Seconds: seconds, Clients: numClients,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", FlushPolicy: "never", Time: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

func (d *runDoc) merge(rep *report) {
	w := d.Workloads[rep.Workload]
	if w == nil {
		w = &workloadDoc{Fingerprint: rep.Fingerprint, Correct: true, Samples: map[string]int{}}
		d.Workloads[rep.Workload] = w
	}
	w.Correct = w.Correct && rep.Correct
	w.Attempted += rep.Attempted
	w.Failed += rep.Failed
	if rep.Traced {
		w.PerLayer = rep.Metrics
	} else {
		w.EndToEnd = rep.Metrics
	}
	for k, v := range rep.Samples {
		w.Samples[k] = v
	}
	w.LowN = append(w.LowN, rep.LowN...)
	w.Notes = append(w.Notes, rep.Notes...)
}

// appendDoc adds doc to the JSON array in path, creating the file if needed.
func appendDoc(path string, doc *runDoc) error {
	docs, err := readDocs(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	buf, err := json.MarshalIndent(append(docs, doc), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readDocs(path string) ([]*runDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var docs []*runDoc
	if err := json.Unmarshal(raw, &docs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return docs, nil
}

// printReport writes one report's metrics by name with their units.
func printReport(w *os.File, rep *report, defs []metricDef) {
	mode := "untraced"
	if rep.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed %d (%s): attempted %d failed %d fingerprint %s\n",
		rep.Workload, rep.Seed, mode, rep.Attempted, rep.Failed, rep.Fingerprint)
	low := make(map[string]bool)
	for _, name := range rep.LowN {
		low[name] = true
	}
	for _, d := range defs {
		line := fmt.Sprintf("  %-36s %14.3f %s", d.Name, rep.Metrics[d.Name].Value, d.Unit)
		if low[d.Name] {
			// In the result line a per-layer metric then reads 0. An
			// end-to-end one still carries its estimate, because the
			// driver's contract refuses a 0 there; at full size none is
			// ever this short of samples.
			line = fmt.Sprintf("  %-36s %14s %s  [omitted: fewer than ten samples beyond it]", d.Name, "-", d.Unit)
		}
		if n, ok := rep.Samples[d.Name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	for _, note := range rep.Notes {
		fmt.Fprintf(w, "  note: %s\n", note)
	}
}

// summary is the last line of a full run: every workload's verdict, and no
// claim.
type summary struct {
	Seed      int64    `json:"seed"`
	Workloads []string `json:"workloads"`
	Correct   bool     `json:"correct"`
	Claim     *string  `json:"claim"`
}

func main() {
	o := runOpts{sz: fullSizes()}
	var (
		trace   = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
		outFile = flag.String("out", "", "append the run to this JSON file")
		compare = flag.Bool("compare", false, "compare two -out files: -compare parent.json change.json")
		pairs   = flag.Int("pairs", 10, "with -compare: the fewest pairs of runs a verdict may rest on")
		aa      = flag.Int("aa", 0, "run this build N times on seeds seed..seed+N-1 and report each metric's spread against its bound")
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: every one, untraced then traced)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the op sequence: kinds, queriers, queries, churn targets")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&o.maxOps, "ops", 0, "measure this many ops instead of -seconds, so two builds do identical work")
	flag.StringVar(&o.outDir, "outdir", "benchmark/out", "where span files and the scale_churn WAL go")
	flag.Parse()
	o.traced = *trace == 1
	var err error
	switch {
	case *compare && flag.NArg() == 2:
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *pairs)
	case *compare:
		err = errors.New("-compare takes two files: parent.json change.json")
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	default:
		err = run(context.Background(), o, *outFile, *aa)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run measures one workload (the driver's invocation: one JSON result line
// on standard output) or, with no -workload, every workload untraced and
// then traced.
func run(ctx context.Context, o runOpts, outFile string, aa int) error {
	// The command runs from the root of a checkout of the repo; anywhere
	// else, or against a BENCHMARK.json that names other workloads or
	// metrics than this program reports, it fails before doing any work.
	if err := checkContract("BENCHMARK.json"); err != nil {
		return fmt.Errorf("run from the repo root: %w", err)
	}
	names, modes := workloadNames, []bool{false, true}
	if o.workload != "" {
		names, modes = []string{o.workload}, []bool{o.traced}
	}
	if aa > 0 {
		return runAA(ctx, os.Stdout, o, names, aa)
	}

	doc := &runDoc{Meta: newMeta(o.seed, o.seconds), Workloads: map[string]*workloadDoc{}}
	var last *report
	allCorrect := true
	for _, name := range names {
		for _, tr := range modes {
			ro := o
			ro.workload, ro.traced = name, tr
			rep, err := runWorkload(ctx, ro)
			if err != nil {
				return err
			}
			defs := endToEnd
			if tr {
				defs = perLayer
			}
			printReport(os.Stderr, rep, defs)
			doc.merge(rep)
			allCorrect = allCorrect && rep.Correct
			last = rep
		}
	}
	if outFile != "" {
		if err := appendDoc(outFile, doc); err != nil {
			return err
		}
	}
	var line any = summary{Seed: o.seed, Workloads: names, Correct: allCorrect}
	if o.workload != "" {
		line = result{Correct: last.Correct, Attempted: last.Attempted, Failed: last.Failed, Metrics: last.Metrics}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	if !allCorrect {
		return errors.New("a result failed verification (see the notes above)")
	}
	return nil
}
