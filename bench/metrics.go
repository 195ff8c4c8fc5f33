package main

// metricDecl declares one metric. BENCHMARK.json at the root of the
// repository carries the same list (a test keeps the two equal); the copy
// here is what the binary uses for units, zero-filling and -compare.
type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the old value it may worsen by
}

// workloadNames are fixed; later issues cite them.
var workloadNames = []string{"lib_explore", "store_lazy", "fabric_remote", "serve_zipf"}

// endToEndDecls are what a user of the system sees. Every workload
// reports every one of them with --trace 0.
var endToEndDecls = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"cold_first_ms", "ms", "lower", 0.25},
}

// perLayerDecls are single-layer numbers (layer = package under
// internal/), reported with --trace 1; a workload that does not reach a
// layer reports 0 for it. The last block are end-to-end numbers of one
// workload only, which the every-workload contract above cannot carry.
var perLayerDecls = []metricDecl{
	{"cql.parse_us", "us", "lower", 0},

	{"engine.base_scan_ms", "ms", "lower", 0},
	{"engine.extract_ms", "ms", "lower", 0},
	{"engine.partition_ms", "ms", "lower", 0},
	{"engine.chunks_scanned", "count", "lower", 0},
	{"engine.chunks_pruned", "count", "higher", 0},
	{"engine.chunks_full", "count", "higher", 0},
	{"engine.prune_ratio", "ratio", "higher", 0},

	{"core.screen_ms", "ms", "lower", 0},
	{"core.cut_ms", "ms", "lower", 0},
	{"core.distance_ms", "ms", "lower", 0},
	{"core.cluster_ms", "ms", "lower", 0},
	{"core.merge_ms", "ms", "lower", 0},
	{"core.rank_ms", "ms", "lower", 0},
	{"core.explore_ms", "ms", "lower", 0},
	{"core.unattributed_ms", "ms", "lower", 0},
	{"core.statcache_speedup", "ratio", "higher", 0},
	{"core.parallel_speedup", "ratio", "higher", 0},

	{"storage.csv_parse_mb_per_s", "MB/s", "higher", 0},

	{"colstore.write_mb_per_s", "MB/s", "higher", 0},
	{"colstore.open_lazy_us", "us", "lower", 0},
	{"colstore.open_eager_ms", "ms", "lower", 0},
	{"colstore.retained_kb_after_open", "kB", "lower", 0},
	{"colstore.decode_us_per_chunk", "us", "lower", 0},
	{"colstore.bytes_read_per_op", "B", "lower", 0},
	{"colstore.chunks_decoded_per_op", "count", "lower", 0},
	{"colstore.cache_hit_ratio", "ratio", "higher", 0},
	{"colstore.cache_evictions_per_op", "count", "lower", 0},

	{"shard.write_rows_per_s", "rows/s", "higher", 0},
	{"shard.open_deferred_us", "us", "lower", 0},
	{"shard.opened_shards_ratio", "ratio", "lower", 0},
	{"shard.partials_ms", "ms", "lower", 0},
	{"shard.stat_merge_ms", "ms", "lower", 0},

	{"remote.rpcs_per_op", "count", "lower", 0},
	{"remote.bytes_wire_per_op", "B", "lower", 0},
	{"remote.rpc_p50_us", "us", "lower", 0},
	{"remote.rpc_p95_us", "us", "lower", 0},
	{"remote.rpc_ms_per_op", "ms", "lower", 0},
	{"remote.server_busy_ms_per_op", "ms", "lower", 0},
	{"remote.stat_rpcs_per_op", "count", "lower", 0},
	{"remote.chunk_rpcs_per_op", "count", "lower", 0},
	{"remote.retries", "count", "lower", 0},
	{"remote.failovers", "count", "lower", 0},

	{"session.explore_ms", "ms", "lower", 0},
	{"session.drill_ms", "ms", "lower", 0},
	{"session.predcache_hit_ratio", "ratio", "higher", 0},

	{"server.handler_ms", "ms", "lower", 0},
	{"server.overhead_ms", "ms", "lower", 0},
	{"server.http_ms", "ms", "lower", 0},
	{"server.response_kb_per_op", "kB", "lower", 0},
	{"server.concurrency_wait_ms", "ms", "lower", 0},
	{"server.shed", "count", "lower", 0},
	{"server.admitted", "count", "higher", 0},

	{"trace_overhead_pct", "%", "lower", 0},
	{"fail_ratio", "ratio", "lower", 0},
	{"ingest_rows_per_s", "rows/s", "higher", 0},
	{"file_bytes_per_row", "B", "lower", 0},
	{"open_p50_ms", "ms", "lower", 0},
	{"open_p95_ms", "ms", "lower", 0},
	{"open_late_ms", "ms", "lower", 0},
}

func unitOf(name string) string {
	for _, list := range [][]metricDecl{endToEndDecls, perLayerDecls} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

// zeroFill reports 0 for every declared per-layer metric the workload did
// not reach, so that layer separation is a number and not an absence.
func (r *result) zeroFill() {
	for _, d := range perLayerDecls {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = metric{Unit: d.Unit}
		}
	}
}
