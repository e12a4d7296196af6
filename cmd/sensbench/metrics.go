package main

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units (main_test.go checks
// that), together with each end-to-end bound.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, whatever the
// workload; an operation is a trial, a build, a request at the reference
// rate or a suite pass (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics every traced run reports. A layer the workload
// does not call reports 0: no time and no work was spent in it.
var perLayer = []metricDef{
	// sens-sweep
	{"pointprocess.poisson_ms", "ms"},
	{"core.build_udg_ms", "ms"},
	{"core.build_udg_sharded_ms", "ms"},
	{"tiling.assign_map_ms", "ms"},
	{"tiling.assign_csr_ms", "ms"},
	{"graph.largest_component_ms", "ms"},
	{"core.members", "count"},
	{"core.good_tiles", "count"},
	{"core.edges", "count"},
	{"core.election_messages", "count"},
	{"mem.allocs_per_op", "count"},
	{"mem.bytes_per_op", "B"},
	// build-1m
	{"pointprocess.poisson_soa_s", "s"},
	{"geom.soa_points_s", "s"},
	{"rgg.udg_grid_s", "s"},
	{"rgg.edges", "count"},
	{"rgg.edges_per_s", "1/s"},
	{"core.build_sharded_s", "s"},
	{"mem.peak_rss_mb", "MB"},
	// serve-route, serve-stretch
	{"serve.build_ms", "ms"},
	{"serve.rollover_ms", "ms"},
	{"serve.route_p50_us", "us"},
	{"serve.route_p99_us", "us"},
	{"serve.stretch_p50_us", "us"},
	{"serve.stretch_p99_us", "us"},
	{"serve.snapshots_p50_us", "us"},
	{"serve.snapshots_p99_us", "us"},
	{"serve.batch.flushes", "count"},
	{"serve.batch.queries_per_flush", "queries/flush"},
	{"serve.batch.multi_flushes", "count"},
	{"serve.pool.shed", "count"},
	{"power.pairs_us", "us"},
	{"power.slab_fill_ms", "ms"},
	{"power.slab_hits", "count"},
	{"power.slab_misses", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.max_qps", "1/s"},
	// scenarios
	{"scenario.M03_s", "s"},
	{"scenario.M02_s", "s"},
	{"scenario.R02_s", "s"},
	{"scenario.R01_s", "s"},
	{"scenario.E14_s", "s"},
	{"scenario.E11_s", "s"},
	{"scenario.family_E_s", "s"},
	{"scenario.family_H_s", "s"},
	{"scenario.family_Q_s", "s"},
	{"scenario.family_R_s", "s"},
	{"scenario.family_M_s", "s"},
	{"scenario.cache_hits", "count"},
	{"scenario.cache_misses", "count"},
	// every workload: the operations' tail latency (reported, not gated:
	// see README.md), and the traced operations' p50 and its excess over
	// the untraced operations of the same run.
	{"e2e.tail_ms", "ms"},
	{"trace.p50_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}
