package main

import (
	"fmt"
	"io"
)

// metricDef names one reported number. The two lists below are the
// benchmark's vocabulary: BENCHMARK.json repeats them (a test keeps the
// two in step) and later issues refer to these names verbatim.
type metricDef struct {
	name   string
	unit   string
	higher bool // true when a larger value is better
}

// endToEnd is what a user of the service sees. Every workload reports
// every one of them, and none can read 0.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"throughput_rps", "req/s", true},
	{"related_p50_ms", "ms", false},
	{"add_p50_ms", "ms", false},
	{"heap_mb", "MB", false},
}

// perLayer is the traced pass. A metric that does not apply to a
// workload (shard.* on an unsharded server, add timings without adds,
// cache counts with the cache off) reads 0 there.
var perLayer = []metricDef{
	{"segment.newdoc_us", "us", false},
	{"segment.greedy_us", "us", false},
	{"match.build_s", "s", false},
	{"match.build_segment_s", "s", false},
	{"match.build_vectorize_s", "s", false},
	{"cluster.build_s", "s", false},
	{"match.build_refine_s", "s", false},
	{"index.build_s", "s", false},
	{"match.segments", "count", false},
	{"match.clusters", "count", false},
	{"core.build_s", "s", false},
	{"core.build_sharded_s", "s", false},
	{"core.snapshot_write_s", "s", false},
	{"core.snapshot_load_s", "s", false},
	{"core.snapshot_mb", "MB", false},
	{"core.snapshot_bytes_per_doc", "bytes/doc", false},
	{"serve.related_us", "us", false},
	{"serve.self_us", "us", false},
	{"serve.response_bytes", "bytes", false},
	{"serve.add_us", "us", false},
	{"cache.lookups", "count", true},
	{"cache.hit_ratio", "ratio", true},
	{"cache.evictions", "count", false},
	{"cache.invalidations", "count", false},
	{"cache.singleflight_followers", "count", true},
	{"cache.get_ns", "ns", false},
	{"cache.put_ns", "ns", false},
	{"core.related_us", "us", false},
	{"core.add_us", "us", false},
	{"match.related_us", "us", false},
	{"match.prep_us", "us", false},
	{"match.alg1_us", "us", false},
	{"match.lists_per_query", "count", false},
	{"match.add_prepare_us", "us", false},
	{"match.add_commit_us", "us", false},
	{"index.query_us", "us", false},
	{"index.add_us", "us", false},
	{"index.postings_scanned_per_query", "count", false},
	{"index.postings_skipped_per_query", "count", true},
	{"index.scan_ratio", "ratio", false},
	{"index.terms", "count", true},
	{"index.df_p50", "count", false},
	{"index.df_max_share", "ratio", false},
	{"shard.related_us", "us", false},
	{"shard.tax_ratio", "ratio", false},
	{"runtime.gc_cycles", "count", false},
	{"runtime.gc_pause_ms", "ms", false},
	{"runtime.alloc_mb_per_s", "MB/s", false},
	{"runtime.allocs_per_op", "count", false},
	{"loadgen.sent", "count", true},
	{"loadgen.ok", "count", true},
	{"loadgen.late_p50_ms", "ms", false},
	{"loadgen.late_max_ms", "ms", false},
	{"loadgen.late_growth_ms", "ms", false},
	{"loadgen.p99_full_ms", "ms", false},
	{"loadgen.p999_full_ms", "ms", false},
	{"open.related_p50_ms", "ms", false},
	{"open.add_p50_ms", "ms", false},
	{"related_p99_ms", "ms", false},
	{"add_p95_ms", "ms", false},
	{"slo_ok_ratio", "ratio", true},
	{"error_ratio", "ratio", false},
	{"trace.overhead_ratio", "ratio", false},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, in the shape the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pick builds the result's metric map from the values a run measured:
// every name of defs, 0 where the run had nothing to measure.
func pick(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// printMetrics lists metrics by name with their unit, in defs order.
func printMetrics(w io.Writer, defs []metricDef, ms map[string]metric) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, ms[d.name].Value, d.unit)
	}
}
