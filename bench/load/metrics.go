package load

// Metric names one reported number.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd is the gated list: what a user of netmarkd sees, with the
// share of the parent's median by which each may worsen before a change
// is a regression.  Every workload reports every one of them.
//
// Only what repeats is gated.  The issue that defined the benchmark
// fixed the bounds (10 % timings, 5 % memory, 2 % byte ratios) and the
// rule that a metric whose runs of one commit do not agree within its
// bound is demoted to the per-layer list, not given a wider bound.  On
// the two shared cores this was sized on, every timing and the memory
// peak fail theirs (bench/README.md, "Noise"), so they head RunLayer.
// setup_s cannot be demoted: the benchmark's contract requires it here,
// with the widest bound.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"wal_bytes_per_user_byte", "B/B", "lower", 0.02},
	{"disk_bytes_per_user_byte", "B/B", "lower", 0.02},
}

// RunLayer is the per-layer metrics an ordinary run measures from
// outside netmarkd: client-side timings, /stats deltas, generator
// health.  The traced run reports these too, beside the ladder's.
var RunLayer = []Metric{
	// The rest of the issue's end-to-end list, demoted.  Every run still
	// measures and prints them and A/A reports their spread, so a quieter
	// machine can move them back with the bounds the issue gave.
	{"query_qps", "1/s", "higher", 0},
	{"query_p50_ms", "ms", "lower", 0},
	{"query_p99_ms", "ms", "lower", 0},
	{"ingest_mb_per_s", "MB/s", "higher", 0},
	{"delete_p50_ms", "ms", "lower", 0},
	{"reopen_s", "s", "lower", 0},
	{"mem_mb", "MiB", "lower", 0},

	{"webdav.resp_bytes_p50", "B", "lower", 0},
	{"xdb.cache_hit_ratio", "ratio", "higher", 0},
	{"xdb.cache_stale", "count", "lower", 0},
	{"xdb.cache_evictions", "count", "lower", 0},
	{"xdb.cache_coalesced", "count", "higher", 0},
	{"xdb.cache_bytes", "B", "lower", 0},
	{"xmlstore.nodecache_hit_ratio", "ratio", "higher", 0},
	{"xmlstore.nodecache_evictions", "count", "lower", 0},
	{"xmlstore.nodecache_bytes", "B", "lower", 0},
	{"xmlstore.nodes_per_section", "count", "lower", 0},
	{"textindex.bytes", "B", "lower", 0},
	{"textindex.compression_ratio", "x", "higher", 0},
	{"textindex.dead_ids", "count", "lower", 0},
	{"ordbms.pool_hit_ratio", "ratio", "higher", 0},
	{"ordbms.pool_misses", "count", "lower", 0},
	{"ordbms.pool_evictions", "count", "lower", 0},
	{"ordbms.wal_syncs", "count", "lower", 0},
	{"ordbms.wal_appends_per_doc", "count", "lower", 0},
	{"ordbms.wal_appends_per_sync", "count", "higher", 0},
	{"ordbms.wal_bytes_per_append", "B", "lower", 0},
	{"daemon.visible_lag_p50_ms", "ms", "lower", 0},
	{"gen.late_p90_ms", "ms", "lower", 0},
}

// TraceLayer is the per-layer metrics only the traced run can measure.
var TraceLayer = []Metric{
	{Name: "webdav.rtt_us", Unit: "us", Better: "lower"},
	{Name: "webdav.self_us", Unit: "us", Better: "lower"},
	{Name: "webdav.put_us", Unit: "us", Better: "lower"},
	{Name: "xdb.parse_us", Unit: "us", Better: "lower"},
	{Name: "xdb.execinto_us", Unit: "us", Better: "lower"},
	{Name: "xdb.self_us", Unit: "us", Better: "lower"},
	{Name: "xdb.cache_hit_us", Unit: "us", Better: "lower"},
	{Name: "xslt.transform_us", Unit: "us", Better: "lower"},
	{Name: "sgml.write_us", Unit: "us", Better: "lower"},
	{Name: "sgml.write_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "sgml.parse_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "docform.convert_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "docform.convert_ms_per_mb.html", Unit: "ms/MB", Better: "lower"},
	{Name: "docform.convert_ms_per_mb.rtf", Unit: "ms/MB", Better: "lower"},
	{Name: "docform.convert_ms_per_mb.text", Unit: "ms/MB", Better: "lower"},
	{Name: "docform.convert_ms_per_mb.csv", Unit: "ms/MB", Better: "lower"},
	{Name: "docform.convert_ms_per_mb.xml", Unit: "ms/MB", Better: "lower"},
	{Name: "xmlstore.search_us", Unit: "us", Better: "lower"},
	{Name: "xmlstore.self_us", Unit: "us", Better: "lower"},
	{Name: "xmlstore.sections_per_query", Unit: "count", Better: "higher"},
	{Name: "xmlstore.fetchnode_warm_ns", Unit: "ns", Better: "lower"},
	{Name: "xmlstore.reconstruct_us", Unit: "us", Better: "lower"},
	{Name: "xmlstore.storebatch_ms", Unit: "ms", Better: "lower"},
	{Name: "xmlstore.delete_ms", Unit: "ms", Better: "lower"},
	{Name: "xmlstore.open_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "xmlstore.open_scan_ms", Unit: "ms", Better: "lower"},
	{Name: "textindex.iter_us", Unit: "us", Better: "lower"},
	{Name: "textindex.ids_per_result", Unit: "count", Better: "lower"},
	{Name: "textindex.tokenize_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "ordbms.fetchview_ns", Unit: "ns", Better: "lower"},
	{Name: "ordbms.fetch_us", Unit: "us", Better: "lower"},
	{Name: "ordbms.fetches_per_query", Unit: "count", Better: "lower"},
	{Name: "ordbms.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "ordbms.open_ms", Unit: "ms", Better: "lower"},
	{Name: "ordbms.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "ordbms.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "ordbms.recover_records", Unit: "count", Better: "lower"},
	{Name: "vfs.fsyncs", Unit: "count", Better: "lower"},
	{Name: "vfs.fsync_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "vfs.fsync_ms_total", Unit: "ms", Better: "lower"},
	{Name: "vfs.write_calls", Unit: "count", Better: "lower"},
	{Name: "vfs.wal_bytes_per_user_byte", Unit: "B/B", Better: "lower"},
	{Name: "vfs.data_bytes_per_user_byte", Unit: "B/B", Better: "lower"},
	{Name: "vfs.snapshot_bytes_per_user_byte", Unit: "B/B", Better: "lower"},
	{Name: "core.ingestbatch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.clamped_us", Unit: "us", Better: "lower"},
	{Name: "overhead.middleware_x", Unit: "x", Better: "lower"},
	{Name: "overhead.tracing_x", Unit: "x", Better: "lower"},
}

// PerLayer is everything the traced run reports: what an ordinary run
// sees from outside, then the ladder.
func PerLayer() []Metric {
	return append(append([]Metric(nil), RunLayer...), TraceLayer...)
}
