package main

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []*workload{reproduceWorkload, whatifWorkload, optimizeWorkload, streamWorkload}

type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric a traced run prints, in
// BENCHMARK.json order. A layer a workload never enters reads 0 there
// (the counters did not move). README.md maps each to the end-to-end
// metric and workload it should move.
func layerMetrics() []layerMetric {
	ms := []layerMetric{
		{"ispnet.build_s", "s"},
		{"ispnet.newfleet_s", "s"},
		{"ispnet.resimulate_ms", "ms"},
		{"ispnet.resim_play_ms", "ms"},
		{"ispnet.resim_fold_ms", "ms"},
		{"ispnet.setup_shard_play_s", "s"},
		{"ispnet.setup_router_steps", "count"},
		{"ispnet.shard_play_s", "s"},
		{"ispnet.router_steps", "count"},
		{"ispnet.events_applied", "count"},
		{"ispnet.shards_replayed", "count"},
		{"ispnet.shards_reused", "count"},
		{"ispnet.shard_reuse_ratio", "share"},
		{"ispnet.shards_replayed_per_op", "count"},
		{"ispnet.chunk_splices", "count"},
		{"ispnet.fleet_chunk_mb", "MB"},
		{"ispnet.sink_chunks", "count"},
		{"ispnet.sink_mb", "MB"},
		{"ispnet.sink_s", "s"},
		{"hypnos.from_network_ms", "ms"},
		{"hypnos.plan_s", "s"},
		{"hypnos.plan_steps", "count"},
		{"hypnos.plan_step_ms", "ms"},
		{"hypnos.vetoes", "count"},
		{"hypnos.sleeps", "count"},
		{"hypnos.sleep_accept_ratio", "share"},
		{"optimizer.run_s", "s"},
		{"optimizer.resimulates", "count"},
		{"optimizer.actions", "count"},
		{"optimizer.observe_calls", "count"},
		{"optimizer.observe_s", "s"},
		{"optimizer.unattributed_s", "s"},
	}
	for _, a := range reproduceArtifacts {
		ms = append(ms, layerMetric{"experiments." + a + "_ms", "ms"})
	}
	ms = append(ms,
		layerMetric{"experiments.memo_hits", "count"},
		layerMetric{"experiments.memo_misses", "count"},
		layerMetric{"experiments.epoch_invalidations", "count"},
	)
	for _, phase := range []string{"setup", "run"} {
		p := "runtime." + phase + "."
		ms = append(ms,
			layerMetric{p + "alloc_mb", "MB"},
			layerMetric{p + "alloc_objects", "count"},
			layerMetric{p + "gc_cycles", "count"},
			layerMetric{p + "gc_cpu_share", "share"},
			layerMetric{p + "gc_pause_ms", "ms"},
		)
	}
	for _, m := range cpuModules {
		ms = append(ms, layerMetric{"cpu." + m, "share"})
	}
	return append(ms,
		layerMetric{"trace.overhead_s", "s"},
		layerMetric{"trace.overhead_share", "share"},
	)
}
