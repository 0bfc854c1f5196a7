package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// The metric and workload tables. BENCHMARK.json at the repo root names the
// same workloads and metrics; checkContract, which every run starts with,
// holds the two in step.

// Workload names, in the order a full run executes them.
const (
	wlCampus   = "campus_interactive"
	wlHospital = "hospital_scan"
	wlMall     = "mall_wire"
	wlChurn    = "scale_churn"
)

var workloadNames = []string{wlCampus, wlHospital, wlMall, wlChurn}

// agg says how a metric's samples reduce to the one reported value.
type agg int

const (
	aggP50  agg = iota // median of the samples
	aggMean            // arithmetic mean
	aggLast            // a gauge or derived value: the last sample set
)

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	Agg    agg
}

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run. The driver's contract wants every one of them from every
// workload and never 0, so only metrics that exist on all four workloads
// live here; the workload-specific ones (writes, the open loop, the failure
// ratio) are reported from the traced run, at the end of perLayer. So is
// op_p99_us: on campus_interactive it falls on the edge between two latency
// modes and spread by 35% of its median between seeds, wider than any bound.
//
// Every bound is the contract's widest, a quarter. On a quiet host the
// spread between ten runs is 2–8% of the median for every metric here; on
// the shared two-core sandbox the baseline was taken on, the host's own
// speed moved by 20–40% for minutes at a time, and a tighter bound would
// reject changes for the weather.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "op_p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "stream_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "exhaust_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "prepared_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "first_row_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer metrics, reported by the traced run. A
// metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "sqlparser.parse_us", Unit: "us", Better: "lower"},

	{Name: "policy.policies_for_us", Unit: "us", Better: "lower"},
	{Name: "policy.applicable_per_op", Unit: "count", Better: "lower", Agg: aggMean},
	{Name: "policy.insert_us", Unit: "us", Better: "lower"},
	{Name: "policy.revoke_us", Unit: "us", Better: "lower"},

	{Name: "guard.generate_us", Unit: "us", Better: "lower"},
	{Name: "guard.guards_per_expr", Unit: "count", Better: "lower", Agg: aggMean},
	{Name: "guard.policies_per_guard", Unit: "count", Better: "higher", Agg: aggMean},

	{Name: "core.rewrite_us", Unit: "us", Better: "lower"},
	{Name: "core.rewrite_cold_us", Unit: "us", Better: "lower"},
	{Name: "core.prepare_us", Unit: "us", Better: "lower"},
	{Name: "core.guard_cache_hit_rate", Unit: "ratio", Better: "higher", Agg: aggLast},
	{Name: "core.plan_cache_hit_rate", Unit: "ratio", Better: "higher", Agg: aggLast},
	{Name: "core.guard_regens", Unit: "count", Better: "lower", Agg: aggLast},
	{Name: "core.guard_states", Unit: "count", Better: "lower", Agg: aggLast},
	{Name: "core.guard_shares", Unit: "count", Better: "higher", Agg: aggLast},
	{Name: "core.claims_invalidated_per_write", Unit: "count", Better: "lower", Agg: aggLast},
	{Name: "core.plans_rebuilt_per_write", Unit: "count", Better: "lower", Agg: aggLast},
	{Name: "core.strategy_linear_frac", Unit: "ratio", Better: "lower", Agg: aggMean},
	{Name: "core.strategy_indexquery_frac", Unit: "ratio", Better: "higher", Agg: aggMean},
	{Name: "core.strategy_indexguards_frac", Unit: "ratio", Better: "higher", Agg: aggMean},
	{Name: "core.delta_arm_frac", Unit: "ratio", Better: "lower", Agg: aggLast},

	{Name: "engine.explain_us", Unit: "us", Better: "lower"},
	{Name: "engine.first_row_us", Unit: "us", Better: "lower"},
	{Name: "engine.exec_us", Unit: "us", Better: "lower"},
	{Name: "engine.exec_share", Unit: "ratio", Better: "lower", Agg: aggLast},
	{Name: "engine.us_per_ktuple", Unit: "us", Better: "lower", Agg: aggLast},
	{Name: "engine.emit_mysql_us", Unit: "us", Better: "lower"},
	{Name: "engine.emit_postgres_us", Unit: "us", Better: "lower"},
	{Name: "engine.tuples_read_per_row", Unit: "count", Better: "lower", Agg: aggLast},
	{Name: "engine.stream_tuples_read_per_op", Unit: "count", Better: "lower", Agg: aggMean},
	{Name: "engine.segments_pruned_frac", Unit: "ratio", Better: "higher", Agg: aggLast},
	{Name: "engine.owner_dict_pruned_frac", Unit: "ratio", Better: "higher", Agg: aggLast},
	{Name: "engine.rows_vectorised_frac", Unit: "ratio", Better: "higher", Agg: aggLast},
	{Name: "engine.parallel_scans_per_op", Unit: "count", Better: "higher", Agg: aggMean},
	{Name: "engine.scan_workers", Unit: "count", Better: "higher", Agg: aggLast},
	{Name: "engine.index_lookups_per_op", Unit: "count", Better: "lower", Agg: aggMean},
	{Name: "engine.udf_invocations_per_op", Unit: "count", Better: "lower", Agg: aggMean},
	{Name: "engine.policy_evals_per_op", Unit: "count", Better: "lower", Agg: aggMean},

	{Name: "storage.rows", Unit: "count", Better: "higher", Agg: aggLast},
	{Name: "storage.segments", Unit: "count", Better: "higher", Agg: aggLast},
	{Name: "storage.raw_scan_us_per_krow", Unit: "us", Better: "lower"},
	{Name: "storage.bulk_insert_rows_per_s", Unit: "1/s", Better: "higher"},

	{Name: "wal.append_us_per_rec", Unit: "us", Better: "lower", Agg: aggLast},
	{Name: "wal.bytes_per_write", Unit: "count", Better: "lower", Agg: aggLast},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower", Agg: aggLast},

	{Name: "server.inproc_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.wire_over_inproc_p50", Unit: "ratio", Better: "lower", Agg: aggLast},
	{Name: "server.query_duration_p50_us", Unit: "us", Better: "lower", Agg: aggLast},
	{Name: "server.bytes_per_row", Unit: "count", Better: "lower", Agg: aggLast},
	{Name: "server.rows_streamed", Unit: "count", Better: "higher", Agg: aggLast},
	{Name: "server.rejected", Unit: "count", Better: "lower", Agg: aggLast},

	{Name: "client.open_session_us", Unit: "us", Better: "lower"},
	{Name: "client.ttfb_us", Unit: "us", Better: "lower"},
	{Name: "client.drain_us_per_row", Unit: "us", Better: "lower", Agg: aggLast},
	{Name: "client.conn_reuse_frac", Unit: "ratio", Better: "higher", Agg: aggLast},
	{Name: "client.minus_server_p50_us", Unit: "us", Better: "lower"},

	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower", Agg: aggLast},
	{Name: "obs.parse_self_us", Unit: "us", Better: "lower", Agg: aggMean},
	{Name: "obs.rewrite_self_us", Unit: "us", Better: "lower", Agg: aggMean},
	{Name: "obs.guard-resolve_self_us", Unit: "us", Better: "lower", Agg: aggMean},
	{Name: "obs.plan_self_us", Unit: "us", Better: "lower", Agg: aggMean},
	{Name: "obs.scan_self_us", Unit: "us", Better: "lower", Agg: aggMean},
	{Name: "obs.prune_self_us", Unit: "us", Better: "lower", Agg: aggMean},
	{Name: "obs.vector_self_us", Unit: "us", Better: "lower", Agg: aggMean},
	{Name: "obs.workers_self_us", Unit: "us", Better: "lower", Agg: aggMean},
	{Name: "obs.emit_self_us", Unit: "us", Better: "lower", Agg: aggMean},
	{Name: "obs.stream_self_us", Unit: "us", Better: "lower", Agg: aggMean},

	{Name: "go.cpu_s_per_kop", Unit: "s", Better: "lower", Agg: aggLast},
	{Name: "go.alloc_kb_per_op", Unit: "KiB", Better: "lower", Agg: aggLast},
	{Name: "go.allocs_per_op", Unit: "count", Better: "lower", Agg: aggLast},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Agg: aggLast},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", Agg: aggLast},

	{Name: "bench.samples.stream", Unit: "count", Better: "higher", Agg: aggLast},
	{Name: "bench.samples.exhaust", Unit: "count", Better: "higher", Agg: aggLast},
	{Name: "bench.samples.prepared", Unit: "count", Better: "higher", Agg: aggLast},
	{Name: "bench.samples.write", Unit: "count", Better: "higher", Agg: aggLast},
	{Name: "bench.sched_lag_p95_us", Unit: "us", Better: "lower", Agg: aggLast},
	{Name: "bench.backlog_max", Unit: "count", Better: "lower", Agg: aggLast},
	{Name: "bench.open_p95_us.r1", Unit: "us", Better: "lower", Agg: aggLast},
	{Name: "bench.open_p95_us.r2", Unit: "us", Better: "lower", Agg: aggLast},
	{Name: "bench.open_p95_us.r3", Unit: "us", Better: "lower", Agg: aggLast},
	{Name: "bench.direct_p50_us", Unit: "us", Better: "lower"},
	{Name: "bench.staged_over_direct_p50", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower", Agg: aggLast},

	// End-to-end in kind, but defined on one workload only, 0 when healthy
	// or too wide in spread to gate, so the driver's contract keeps them out
	// of endToEnd. They come from the traced run's own untraced phases; a
	// percentile with fewer than ten samples beyond it reads 0.
	{Name: "op_p99_us", Unit: "us", Better: "lower", Agg: aggLast},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Agg: aggLast},
	{Name: "read_after_write_p50_us", Unit: "us", Better: "lower", Agg: aggLast},
	{Name: "open_p95_us", Unit: "us", Better: "lower", Agg: aggLast},
	{Name: "slo_rate_ops_s", Unit: "ops/s", Better: "higher", Agg: aggLast},
	{Name: "failed_ops_frac", Unit: "ratio", Better: "lower", Agg: aggLast},

	// scale_churn again, with each write's group drawn by its share of the
	// population (see env.setWriteLaw): the regeneration stall as callers
	// meet it.
	{Name: "churn_zipf.ops_per_s", Unit: "ops/s", Better: "higher", Agg: aggLast},
	{Name: "churn_zipf.op_p95_us", Unit: "us", Better: "lower", Agg: aggLast},
	{Name: "churn_zipf.read_after_write_p50_us", Unit: "us", Better: "lower", Agg: aggLast},
	{Name: "churn_zipf.stall_max_us", Unit: "us", Better: "lower", Agg: aggLast},
}

// series collects one run's samples per metric name.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }
func (s series) set(name string, v float64) { s[name] = []float64{v} }

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reduce turns the samples into the reported values of defs, 0 where a
// metric has no sample.
func (s series) reduce(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		vals := s[d.Name]
		var v float64
		switch {
		case len(vals) == 0:
		case d.Agg == aggP50:
			v = median(vals)
		case d.Agg == aggMean:
			v = mean(vals)
		default:
			v = vals[len(vals)-1]
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// contract mirrors BENCHMARK.json; unknown keys fail the decode.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only
}

func readContract(path string) (*contract, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	c := new(contract)
	if err := dec.Decode(c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// checkContract fails unless the BENCHMARK.json at path names exactly the
// workloads and metrics of the tables above, in their order, with their
// units, directions and bounds.
func checkContract(path string) error {
	c, err := readContract(path)
	if err != nil {
		return err
	}
	if len(c.Workloads) != len(workloadNames) {
		return fmt.Errorf("%s names %d workloads, the benchmark runs %d", path, len(c.Workloads), len(workloadNames))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadNames[i] {
			return fmt.Errorf("%s: workload %d is %q, the benchmark's is %q", path, i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got []contractMetric, want []metricDef) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s has %d %s metrics, the benchmark reports %d", path, len(got), kind, len(want))
		}
		for i, m := range got {
			if d := want[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
				return fmt.Errorf("%s: %s metric %d is %+v, the benchmark's is %s %s %s %v", path, kind, i, m, d.Name, d.Unit, d.Better, d.Bound)
			}
		}
		return nil
	}
	if err := same("end-to-end", c.EndToEnd, endToEnd); err != nil {
		return err
	}
	return same("per-layer", c.PerLayer, perLayer)
}
