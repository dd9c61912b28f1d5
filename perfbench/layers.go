package main

import "fmt"

// metricDef names one printed metric and its unit. BENCHMARK.json at
// the repository root lists the same names; a self-test keeps the two
// in step.
type metricDef struct {
	name string
	unit string
}

// endToEndMetrics are what a user of the system sees. An operation is a
// cold paper-scale pass (paper_batch), one /v1 request (serve_*), or one
// log replay to envelope bytes (stream_replay).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"heap_mb", "MiB"},
}

// layerModules are the modules whose self time the traced run reports.
// bench is the benchmark's own operation span: its self time is the
// part of an operation no layer span covers.
var layerModules = []string{
	"bench", "simulate", "metrics", "figures", "rainshine", "provision", "skucmp",
	"envan", "predict", "cart", "pdp", "ingest", "server", "stream",
}

// layerMetrics is every metric the traced run prints. A layer the
// workload does not reach reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"simulate.run_ms", "ms"},
		{"metrics.rackday_frame_ms", "ms"},
		{"metrics.rackday_rows", "count"},
	}
	for i := 1; i <= 4; i++ {
		defs = append(defs, metricDef{fmt.Sprintf("figures.table%d_ms", i), "ms"})
	}
	for i := 1; i <= 18; i++ {
		defs = append(defs, metricDef{fmt.Sprintf("figures.fig%d_ms", i), "ms"})
	}
	defs = append(defs,
		metricDef{"provision.q1_ms", "ms"},
		metricDef{"skucmp.q2_ms", "ms"},
		metricDef{"envan.q3_ms", "ms"},
		metricDef{"rainshine.json_ms", "ms"},
		metricDef{"cart.fit_binned_ms", "ms"},
		metricDef{"cart.fit_exact_ms", "ms"},
		metricDef{"cart.tree_leaves", "count"},
		metricDef{"pdp.compute_ms", "ms"},
		metricDef{"parallel.serial_s", "s"},
		metricDef{"parallel.speedup", "ratio"},
		metricDef{"runtime.alloc_mb", "MiB"},
		metricDef{"runtime.gc_cycles", "count"},
	)
	for _, ep := range endpoints {
		defs = append(defs, metricDef{"server." + ep + ".p50_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"provision.q1_warm_ms", "ms"},
		metricDef{"skucmp.q2_warm_ms", "ms"},
		metricDef{"envan.q3_warm_ms", "ms"},
		metricDef{"predict.train_warm_ms", "ms"},
		metricDef{"ingest.quality_warm_ms", "ms"},
		metricDef{"server.overhead_ms", "ms"},
		metricDef{"figures.warmup_ms", "ms"},
		metricDef{"server.cache_hit_ratio", "ratio"},
		metricDef{"server.dedup_joins", "count"},
		metricDef{"server.evictions", "count"},
		metricDef{"server.builds_completed", "count"},
		metricDef{"server.shed_total", "count"},
		metricDef{"server.degraded_served", "count"},
		metricDef{"ingest.scrub_ms", "ms"},
		metricDef{"stream.write_ms", "ms"},
		metricDef{"stream.read_ms", "ms"},
		metricDef{"stream.apply_ms", "ms"},
		metricDef{"stream.finalize_ms", "ms"},
		metricDef{"stream.envelope_ms", "ms"},
		metricDef{"stream.dayclose_p50_ms", "ms"},
		metricDef{"stream.dayclose_p95_ms", "ms"},
		metricDef{"stream.records", "count"},
		metricDef{"stream.refits", "count"},
		metricDef{"ingest.quarantined", "count"},
	)
	for _, m := range layerModules {
		defs = append(defs, metricDef{m + ".self_ms", "ms"})
	}
	defs = append(defs, metricDef{"trace.coverage", "ratio"}, metricDef{"trace.spans", "count"})
	for _, m := range endToEndMetrics {
		defs = append(defs, metricDef{"trace.overhead." + m.name, m.unit})
	}
	return defs
}()
