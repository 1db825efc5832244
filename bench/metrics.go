package main

import (
	"fmt"
	"math"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json at the
// repository root lists the same names, units and directions; the schema
// test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
}

// endToEnd are the gated metrics, measured with tracing off and reported
// for every workload. README.md defines each one.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"inputs_per_s", "inputs/s", "higher", 0.25},
	{"seq_inputs_per_s", "inputs/s", "higher", 0.25},
	{"speedup_vs_seq", "ratio", "higher", 0.2},
	{"cpu_ms_per_kinput", "ms", "lower", 0.25},
	{"alloc_bytes_per_input", "B", "lower", 0.03},
}

// perLayer are the ungated single-layer metrics the traced pass fills,
// grouped by the module they price. README.md maps each layer to the
// end-to-end metric and workload it is expected to move.
var perLayer = []metricDef{
	{name: "workload.seq_us_per_input", unit: "us", better: "lower"},
	{name: "workload.invocations_per_input", unit: "ratio", better: "lower"},
	{name: "workload.useful_frac", unit: "fraction", better: "higher"},
	{name: "workload.inputgen_us_per_run", unit: "us", better: "lower"},
	{name: "workload.quality_ratio", unit: "ratio", better: "lower"},

	{name: "core.match_frac", unit: "fraction", better: "higher"},
	{name: "core.redos_per_boundary", unit: "ratio", better: "lower"},
	{name: "core.abort_run_frac", unit: "fraction", better: "lower"},
	{name: "core.fallback_frac", unit: "fraction", better: "lower"},
	{name: "core.squashed_frac", unit: "fraction", better: "lower"},
	{name: "core.spec_commit_frac", unit: "fraction", better: "higher"},
	{name: "core.fingerprint_miss_frac", unit: "fraction", better: "lower"},
	{name: "core.aux_us_per_group", unit: "us", better: "lower"},
	{name: "core.validate_us_p50", unit: "us", better: "lower"},
	{name: "core.validate_us_p99", unit: "us", better: "lower"},
	{name: "core.redo_us_per_boundary", unit: "us", better: "lower"},
	{name: "core.serial_frac", unit: "fraction", better: "lower"},
	{name: "core.lane_cpu_wasted_frac", unit: "fraction", better: "lower"},
	{name: "core.self_ns_per_input", unit: "ns", better: "lower"},
	{name: "core.run_cold_us", unit: "us", better: "lower"},
	{name: "core.run_warm_us", unit: "us", better: "lower"},
	{name: "core.run_cold_allocs", unit: "count", better: "lower"},
	{name: "core.run_warm_allocs", unit: "count", better: "lower"},

	{name: "core.resv.rounds_per_input", unit: "ratio", better: "lower"},
	{name: "core.resv.commits_per_round", unit: "ratio", better: "higher"},
	{name: "core.resv.conflict_frac", unit: "fraction", better: "lower"},
	{name: "core.resv.run_warm_us", unit: "us", better: "lower"},
	{name: "core.resv.run_warm_allocs", unit: "count", better: "lower"},

	{name: "pool.lifecycle_us", unit: "us", better: "lower"},
	{name: "pool.batch_fanout_us", unit: "us", better: "lower"},
	{name: "pool.submit_ns", unit: "ns", better: "lower"},
	{name: "pool.submit_to_start_us_p50", unit: "us", better: "lower"},
	{name: "pool.submit_to_start_us_p99", unit: "us", better: "lower"},
	{name: "pool.steal_frac", unit: "fraction", better: "lower"},
	{name: "pool.queue_depth_peak", unit: "count", better: "lower"},

	{name: "rng.split_ns", unit: "ns", better: "lower"},
	{name: "rng.split_into_ns", unit: "ns", better: "lower"},
	{name: "rng.norm_ns", unit: "ns", better: "lower"},

	{name: "obs.emit_disabled_ns", unit: "ns", better: "lower"},
	{name: "obs.emit_enabled_ns", unit: "ns", better: "lower"},
	{name: "obs.events_per_input", unit: "ratio", better: "lower"},
	{name: "obs.dropped_frac", unit: "fraction", better: "lower"},
	{name: "obs.snapshot_us", unit: "us", better: "lower"},
	{name: "obs.metrics_text_us", unit: "us", better: "lower"},

	{name: "telemetry.folder_poll_us", unit: "us", better: "lower"},
	{name: "telemetry.signals_report_us", unit: "us", better: "lower"},
	{name: "telemetry.build_spans_us", unit: "us", better: "lower"},

	{name: "stats.facade_us_per_run", unit: "us", better: "lower"},
	{name: "stats.runtime_start_us", unit: "us", better: "lower"},

	{name: "harness.run_ms_p50", unit: "ms", better: "lower"},
	{name: "harness.run_ms_p90", unit: "ms", better: "lower"},
	{name: "harness.rep_iqr_frac", unit: "fraction", better: "lower"},
	{name: "harness.reps", unit: "count", better: "higher"},
	{name: "harness.converged", unit: "count", better: "higher"},
	{name: "harness.calib_ms", unit: "ms", better: "lower"},
	{name: "harness.trace_overhead_frac", unit: "fraction", better: "lower"},
	{name: "harness.reconcile_err_frac", unit: "fraction", better: "lower"},
}

// metricValue is one reported number with its unit, the shape the result
// line carries per metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns measured values into the reported map, in the order of
// defs, and fails on a metric that was not measured: a result with a
// missing or non-finite metric must not look like a complete one.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (got %v)", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}
