package main

// metricDef names one benchmark metric. BENCHMARK.json repeats these
// tables for the driver; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated relative worsening of the median
}

// frameDeadlineMs is the paper's end-to-end frame deadline; a frame counts
// toward deadline_hit_share only when it is delivered clean inside it.
const frameDeadlineMs = 100.0

// endToEnd is the fixed set every workload reports: what a user of the
// system sees. Definitions are in README.md. Each bound is about three
// times the widest spread (quartile distance over median, ten runs on ten
// seeds) any workload showed on the 2-vCPU sandbox, capped at 0.25;
// README.md has the measured spreads.
var endToEnd = []metricDef{
	{"frames_per_s", "1/s", "higher", 0.25},
	{"frame_ms_p50", "ms", "lower", 0.25},
	{"frame_ms_p95", "ms", "lower", 0.25},
	{"deadline_hit_share", "share", "higher", 0.05},
	{"allocs_per_frame", "1", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is every single-layer metric of the traced pass, in-situ ones
// first (from spans and counters around a live run) then the isolation
// ones (direct timed calls on recorded frames). They carry no bound.
var perLayer = []metricDef{
	// in situ: stage spans through Config.Telemetry
	{Name: "pipeline.src.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.det.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.det.queue_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.loc.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.loc.queue_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.tra.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.tra.queue_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.fusion.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.misplan.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.motplan.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.control.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.backend.queue_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.dnn_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.self_ms", Unit: "ms", Better: "lower"},
	{Name: "track.dnn_ms", Unit: "ms", Better: "lower"},
	{Name: "track.other_ms", Unit: "ms", Better: "lower"},
	{Name: "slam.fe_ms", Unit: "ms", Better: "lower"},
	{Name: "slam.self_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.wall_explained_share", Unit: "share", Better: "higher"},
	{Name: "pipeline.bottleneck_busy_share", Unit: "share", Better: "lower"},
	{Name: "pipeline.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "pipeline.cpu_ms_per_frame", Unit: "ms", Better: "lower"},
	{Name: "pipeline.alloc_kb_per_frame", Unit: "KB", Better: "lower"},
	{Name: "pipeline.gc_per_kframe", Unit: "1", Better: "lower"},
	{Name: "pipeline.goroutines", Unit: "count", Better: "lower"},
	{Name: "pipeline.deadline_miss_share", Unit: "share", Better: "lower"},
	{Name: "pipeline.anytime_share", Unit: "share", Better: "lower"},
	{Name: "pipeline.tail_window_mean", Unit: "count", Better: "higher"},
	{Name: "pipeline.fleet_fairness", Unit: "share", Better: "higher"},
	{Name: "dnn.batch_depth", Unit: "count", Better: "higher"},
	{Name: "dnn.gather_calls_per_frame", Unit: "count", Better: "lower"},
	{Name: "slam.map_keyframes", Unit: "count", Better: "lower"},
	{Name: "slam.relocs_per_kframe", Unit: "1", Better: "lower"},

	// in isolation: direct calls into each layer's public functions
	{Name: "scene.step_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.conv_ms.w1", Unit: "ms", Better: "lower"},
	{Name: "tensor.conv_ms.w2", Unit: "ms", Better: "lower"},
	{Name: "tensor.conv_allocs.w2", Unit: "count", Better: "lower"},
	{Name: "tensor.conv_gmacs.w2", Unit: "GMAC/s", Better: "higher"},
	{Name: "tensor.batch_conv_ms_per_sample.b4", Unit: "ms", Better: "lower"},
	{Name: "tensor.fc_us.w2", Unit: "us", Better: "lower"},
	{Name: "tensor.maxpool_us", Unit: "us", Better: "lower"},
	{Name: "dnn.forward_ms.det", Unit: "ms", Better: "lower"},
	{Name: "dnn.forward_ms.tower", Unit: "ms", Better: "lower"},
	{Name: "dnn.forward_allocs.det", Unit: "count", Better: "lower"},
	{Name: "dnn.batch4_ms_per_sample.det", Unit: "ms", Better: "lower"},
	{Name: "dnn.batch_gain", Unit: "ratio", Better: "higher"},
	{Name: "dnn.gather_overhead_us", Unit: "us", Better: "lower"},
	{Name: "detect.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.other_ms", Unit: "ms", Better: "lower"},
	{Name: "track.step_ms", Unit: "ms", Better: "lower"},
	{Name: "track.step_ms_per_object", Unit: "ms", Better: "lower"},
	{Name: "slam.extract_ms", Unit: "ms", Better: "lower"},
	{Name: "slam.localize_ms", Unit: "ms", Better: "lower"},
	{Name: "slam.match_us", Unit: "us", Better: "lower"},
	{Name: "slam.candidates_us", Unit: "us", Better: "lower"},
	{Name: "slam.add_us", Unit: "us", Better: "lower"},
	{Name: "slam.shard_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "slam.shard_warm_us", Unit: "us", Better: "lower"},
	{Name: "slam.shard_hit_share", Unit: "share", Better: "higher"},
	{Name: "fusion.fuse_us", Unit: "us", Better: "lower"},
	{Name: "mission.route_us", Unit: "us", Better: "lower"},
	{Name: "plan.plan_us", Unit: "us", Better: "lower"},
	{Name: "control.track_us", Unit: "us", Better: "lower"},
	{Name: "faultinject.stage_ns", Unit: "ns", Better: "lower"},
	{Name: "constraint.monitor_fold_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.collector_span_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.window_add_ns", Unit: "ns", Better: "lower"},
	{Name: "scenario.parse_us", Unit: "us", Better: "lower"},
}
