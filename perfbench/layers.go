package main

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric a traced run reports. A layer
// the workload does not run reports 0: no call was made or timed.
var layerMetrics = []layerMetric{
	{"workload.generate_ms", "ms"},
	{"qsim.dataset_build_s", "s"},
	{"surrogate.train_s", "s"},
	{"surrogate.encode_us_p50", "us"},
	{"surrogate.predictgrid_us_p50", "us"},
	{"surrogate.head_us_p50", "us"},
	{"surrogate.allocs_per_predictgrid", "count"},
	{"optimizer.decide_us_p50", "us"},
	{"optimizer.decide_us_p99", "us"},
	{"optimizer.select_us_p50", "us"},
	{"optimizer.us_per_config", "us"},
	{"optimizer.infeasible_pct", "%"},
	{"arrival.fit_ms_p50", "ms"},
	{"batchopt.optimize_ms_p50", "ms"},
	{"batchopt.ms_per_config", "ms"},
	{"batchopt.alloc_mb_per_decide", "MB"},
	{"gateway.submit_ns_p50", "ns"},
	{"gateway.submit_ns_p99", "ns"},
	{"gateway.flushdue_us_total", "us"},
	{"gateway.decidenow_overhead_us", "us"},
	{"gateway.batch_size_mean", "count"},
	{"gateway.fill_ratio", "ratio"},
	{"gateway.reconfigurations", "count"},
	{"gateway.invocations", "count"},
	{"fleet.optimize_s", "s"},
	{"fleet.groups", "count"},
	{"fleet.submit_ns_p50", "ns"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"harness.gen_late_p99_ms", "ms"},
	{"harness.gen_late_max_ms", "ms"},
	{"harness.trace_overhead_pct", "%"},
}

// spanLayers are the layers self time is reported for, named as the
// prefixes of the span names.
var spanLayers = []string{"harness", "workload", "qsim", "surrogate", "optimizer", "arrival", "batchopt", "gateway", "fleet"}

// setLayerDefaults reports every per-layer metric as 0 until the workload
// measures it.
func setLayerDefaults(o *outcome) {
	for _, m := range layerMetrics {
		o.set(m.name, m.unit, 0, 0)
	}
	for _, l := range spanLayers {
		o.set("self."+l+"_ms", "ms", 0, 0)
	}
}

// setSelfTimes reports each layer's self time from the spans recorded so far.
func setSelfTimes(o *outcome, log *spanLog) {
	for layer, ns := range log.selfTimes() {
		o.set("self."+layer+"_ms", "ms", float64(ns)/1e6, 0)
	}
}
