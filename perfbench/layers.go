package main

// perLayer lists the metrics a traced run reports (BENCHMARK.json's
// per_layer), with units. A layer that does not run on a workload
// reports 0 there. cpu.* figures are shares of the traced phase's CPU
// profile; see profattr.go for the attribution rule.
var perLayer = []struct{ name, unit string }{
	// realexec: the wall-clock job runner (sessionize-*).
	{"realexec.map_s", "s"},
	{"realexec.reduce_s", "s"},
	{"realexec.reduce_skew", "ratio"},
	{"realexec.cpu_util", "frac"},
	// Deterministic job counters (sessionize-*); the mr.* ones never move.
	{"storage.map_spill_mb", "MB"},
	{"storage.shuffle_mb", "MB"},
	{"storage.reduce_spill_mb", "MB"},
	{"storage.io_requests", "count"},
	{"mr.map_output_records", "count"},
	{"mr.output_records", "count"},
	// Go runtime over the traced phase; an op is a job or an ack.
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.heap_peak_mb", "MB"},
	// ingest and frame (ingest-http).
	{"ingest.ingest_p50_ms", "ms"},
	{"ingest.ingest_p99_ms", "ms"},
	{"ingest.wal_syncs_per_ack", "ratio"},
	{"ingest.wal_bytes_per_byte", "ratio"},
	{"ingest.checkpoint_mb", "MB"},
	{"ingest.fold_lag_max", "count"},
	{"ingest.gamma_min", "frac"},
	{"disk.fsync_p50_ms", "ms"},
	// serve: HTTP cost on top of the layer it fronts.
	{"serve.http_overhead_ms", "ms"},
	// sched and jobstore (jobs-http).
	{"sched.submit_p50_ms", "ms"},
	{"sched.overhead_ms", "ms"},
	{"jobstore.commit_p50_ms", "ms"},
	{"jobstore.syncs_per_job", "ratio"},
	{"jobstore.bytes_per_job", "B"},
	{"jobstore.snapshots", "count"},
	// engine (the discrete-event simulator) under the scheduler.
	{"engine.job_ms", "ms"},
	{"engine.direct_job_ms", "ms"},
	// The load generator and the tracer themselves.
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	// CPU shares by layer.
	{"cpu.kvenc.sort", "frac"},
	{"cpu.kvenc.merge", "frac"},
	{"cpu.kvenc.codec", "frac"},
	{"cpu.sortmerge", "frac"},
	{"cpu.merge", "frac"},
	{"cpu.core", "frac"},
	{"cpu.bytestore", "frac"},
	{"cpu.hashfam", "frac"},
	{"cpu.queries.map", "frac"},
	{"cpu.queries.reduce", "frac"},
	{"cpu.storage", "frac"},
	{"cpu.realexec", "frac"},
	{"cpu.mr", "frac"},
	{"cpu.dfs", "frac"},
	{"cpu.workload", "frac"},
	{"cpu.frequent", "frac"},
	{"cpu.ingest", "frac"},
	{"cpu.frame", "frac"},
	{"cpu.serve", "frac"},
	{"cpu.net_http", "frac"},
	{"cpu.encoding_json", "frac"},
	{"cpu.sched", "frac"},
	{"cpu.jobstore", "frac"},
	{"cpu.engine", "frac"},
	{"cpu.sim", "frac"},
	{"cpu.metrics", "frac"},
	{"cpu.cost", "frac"},
	{"cpu.runtime.gc", "frac"},
	{"cpu.bench", "frac"},
	{"cpu.other", "frac"},
}

// layerMetricUnits indexes perLayer by name.
var layerMetricUnits = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = l.unit
	}
	return m
}()
