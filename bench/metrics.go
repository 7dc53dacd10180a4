package main

// metricDef names one reported metric, its unit and which direction is
// better. BENCHMARK.json lists the end-to-end and per-layer catalogs
// with the same names, units and directions.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the gated metrics a user of the daemons sees, measured
// per workload with tracing off. Their bounds are in BENCHMARK.json and
// the calibration behind them in README.md.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// diagnostics are reported and compared with the end-to-end metrics but
// not gated: the p90 and the closed-loop throughput, whose run-to-run
// spread on a shared 2-CPU host exceeds 10% on some workload, the rarer
// tails (when the sample supports them), generator lag, end-of-phase
// backlog, failures and op counts.
var diagnostics = []metricDef{
	{"op_p90_ms", "ms", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"op_p99_ms", "ms", "lower"},
	{"op_p999_ms", "ms", "lower"},
	{"gen_lag_p50_ms", "ms", "lower"},
	{"gen_lag_p99_ms", "ms", "lower"},
	{"backlog_ms", "ms", "lower"},
	{"error_share", "ratio", "lower"},
	{"hit_ratio", "ratio", "higher"},
	{"open_ops", "ops", "higher"},
	{"closed_ops", "ops", "higher"},
}

// perLayer are the traced ladder's metrics; *.self_us are the deltas
// between adjacent rungs (or a span minus its children).
var perLayer = []metricDef{
	{"online.tick_us", "us", "lower"},
	{"server.session.tick_us", "us", "lower"},
	{"server.session.self_us", "us", "lower"},
	{"server.session.read_us", "us", "lower"},
	{"server.http.tick_us", "us", "lower"},
	{"server.http.handler_us", "us", "lower"},
	{"server.http.wire_us", "us", "lower"},
	{"server.http.self_us", "us", "lower"},
	{"trace.spans.tick_us", "us", "lower"},
	{"cluster.tick_us", "us", "lower"},
	{"cluster.backend_us", "us", "lower"},
	{"cluster.self_us", "us", "lower"},
	{"store.append.none_us", "us", "lower"},
	{"store.append.always_us", "us", "lower"},
	{"store.append.group_us", "us", "lower"},
	{"store.group_size", "records", "higher"},
	{"store.snapshot_us", "us", "lower"},
	{"store.snapshot_kb", "KiB", "lower"},
	{"store.bytes_per_tick", "B", "lower"},
	{"store.recover_ms", "ms", "lower"},
	{"server.persist.tick_us", "us", "lower"},
	{"server.persist.self_us", "us", "lower"},
	{"offline.dp_ms", "ms", "lower"},
	{"solve.hit_us", "us", "lower"},
	{"solve.miss_ms", "ms", "lower"},
	{"solve.hit_ratio", "ratio", "higher"},
	{"server.http.solve_us", "us", "lower"},
	{"server.http.solve.self_us", "us", "lower"},
}

func lookupMetric(name string) (metricDef, bool) {
	for _, cat := range [][]metricDef{endToEnd, diagnostics, perLayer} {
		for _, m := range cat {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
