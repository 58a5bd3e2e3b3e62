package main

// metricSpec names one reported metric and its unit. BENCHMARK.json lists
// the same names; README.md says which layer each one measures and which
// end-to-end metric it should move.
type metricSpec struct{ name, unit string }

// endToEnd are the untraced run's metrics, each a median over the run's
// repetitions. The failure ratio is reported through the result's
// attempted and failed counts.
var endToEnd = []metricSpec{
	{"faults_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_s", "s"},
}

// perLayer are the traced run's metrics. A metric whose layer a workload
// does not exercise reads 0 there.
var perLayer = []metricSpec{
	{"netlist.load_s", "s"},
	{"faults.enum_s", "s"},
	{"diffprop.synth_s", "s"},
	{"diffprop.fault_p50_ms", "ms"},
	{"diffprop.fault_p99_ms", "ms"},
	{"diffprop.fault_samples", "count"},
	{"diffprop.build_s", "s"},
	{"diffprop.propagate_s", "s"},
	{"diffprop.satcount_s", "s"},
	{"diffprop.gate_evals", "count"},
	{"diffprop.gates_visited", "count"},
	{"diffprop.cone_skip_ratio", "ratio"},
	{"bdd.apply_hits", "count"},
	{"bdd.apply_misses", "count"},
	{"bdd.cache_hit_ratio", "ratio"},
	{"bdd.ops_per_fault", "count"},
	{"bdd.peak_nodes", "count"},
	{"bdd.gc_runs", "count"},
	{"bdd.nodes_reclaimed", "count"},
	{"analysis.campaign_s", "s"},
	{"analysis.parallel_efficiency", "ratio"},
	{"analysis.ckpt_append_us", "us"},
	{"analysis.ckpt_bytes", "bytes"},
	{"analysis.ckpt_fsyncs", "count"},
	{"supervise.restarts", "count"},
	{"supervise.shard_skew", "ratio"},
	{"supervise.overhead_s", "s"},
	{"obs.on_off_ratio", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}
