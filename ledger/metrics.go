package main

type metricSpec struct {
	name, unit string
	// gated end-to-end metrics are the ones every workload measures; they
	// make up the result line and BENCHMARK.json's end_to_end list.
	gated bool
}

// endToEnd lists the end-to-end metrics. recover_s exists only on
// ingest-mixed and failed_op_ratio is 0 on a healthy run, so neither can
// carry a relative bound; both are in the report, and failures also reach
// the result line as "failed" against "attempted". The read-path tails are
// in the report only: from one run to the next they moved by up to a
// quarter of their median, too much to bound.
var endToEnd = []metricSpec{
	{"setup_s", "s", true},
	{"read_ops_per_s", "1/s", true},
	{"match_p50_ms", "ms", true},
	{"match_p99_ms", "ms", false},
	{"expr_p50_ms", "ms", true},
	{"pathagg_p50_ms", "ms", true},
	{"pathagg_p99_ms", "ms", false},
	{"scalar_p50_ms", "ms", true},
	{"scalar_p99_ms", "ms", false},
	{"batch_p50_ms", "ms", true},
	{"batch_p90_ms", "ms", false},
	{"ingest_rec_per_s", "1/s", true},
	{"append_p50_ms", "ms", true},
	{"append_p99_ms", "ms", true},
	{"recover_s", "s", false},
	{"failed_op_ratio", "ratio", false},
}

// perLayer lists the traced run's metrics, each per query (query path) or
// per record (ingest path) unless its unit says otherwise. A layer idle on
// a workload reports 0 there.
var perLayer = []metricSpec{
	{name: "query.plan_us", unit: "us"},
	{name: "query.cache_hit_ratio", unit: "ratio"},
	{name: "bitmap.intersect_us", unit: "us"},
	{name: "colstore.fetch_us", unit: "us"},
	{name: "colstore.bitmaps_fetched", unit: "count"},
	{name: "colstore.bytes_read", unit: "B"},
	{name: "colstore.records_returned", unit: "count"},
	{name: "colstore.measure_scan_us", unit: "us"},
	{name: "colstore.measures_scanned", unit: "count"},
	{name: "colstore.block_skip_us", unit: "us"},
	{name: "colstore.zone_skip_ratio", unit: "ratio"},
	{name: "colstore.disk_bytes_per_logical_byte", unit: "ratio"},
	{name: "agg.fold_us", unit: "us"},
	{name: "pagepool.hit_ratio", unit: "ratio"},
	{name: "pagepool.evictions", unit: "count"},
	{name: "pagepool.resident_bytes", unit: "B"},
	{name: "view.rewrite_ratio", unit: "ratio"},
	{name: "view.maintain_us", unit: "us"},
	{name: "shard.fanout_us", unit: "us"},
	{name: "shard.queue_wait_us", unit: "us"},
	{name: "shard.merge_us", unit: "us"},
	{name: "graph.cycle_check_us", unit: "us"},
	{name: "graph.cyclic_share", unit: "ratio"},
	{name: "graph.elements_sort_us", unit: "us"},
	{name: "graph.load_record_us", unit: "us"},
	{name: "wal.append_us", unit: "us"},
	{name: "wal.commit_us", unit: "us"},
	{name: "wal.bytes_per_record", unit: "B"},
	{name: "wal.records_per_fsync", unit: "count"},
	{name: "wal.replay_ops_per_s", unit: "1/s"},
	{name: "obs.trace_overhead_ratio", unit: "ratio"},
}

var endToEndUnits, layerUnits = unitsOf(endToEnd), unitsOf(perLayer)

func unitsOf(specs []metricSpec) map[string]string {
	m := make(map[string]string, len(specs))
	for _, s := range specs {
		m[s.name] = s.unit
	}
	return m
}
