package main

// metrics.go declares every metric the benchmark prints: name, unit,
// direction and (end-to-end only) the bound by which it may worsen before
// -compare calls a regression. BENCHMARK.json at the repository root carries
// the same list; bench_test.go asserts the two agree.

type metricDecl struct {
	name, unit, better string
	bound              float64
}

// End-to-end metrics: what a user of the table or the service sees. Same
// names on every workload, never zero on any of them. Of the issue's 15,
// eight are declared here (README "End-to-end metrics" has the reasons):
// the three exact correctness figures are zero on a healthy run and travel
// as correct/attempted/failed and as bench.* per-layer metrics; PM writes
// and fences per op are zero on read_u64 and are pmem.* per-layer metrics,
// with pm_traffic_bytes_per_op (reads + writes) bounding them end to end;
// and the tail latency and the two restart times could not hold even the
// widest bound a metric may carry through the reference box's noisier
// half hours, so by the issue's own rule (demote, do not widen) they are
// the per-layer bench.op_p99_ns, core.restart_full_ms and
// core.restart_open_ms.
//
// The two time metrics that stay carry that widest bound: on the shared
// 2-vCPU box the machine's own speed drifts by 10–20 % over minutes (README
// "Noise"), and a bound inside that drift would reject unchanged code.
// Counts repeat to a fraction of a per cent and are bounded tightly.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"op_p50_ns", "ns", "lower", 0.25},
	{"pm_read_bytes_per_op", "B/op", "lower", 0.05},
	{"pm_traffic_bytes_per_op", "B/op", "lower", 0.05},
	{"load_factor", "ratio", "higher", 0.015},
	{"pm_bytes_per_user_byte", "ratio", "lower", 0.02},
	{"heap_mb", "MB", "lower", 0.03},
}

// Per-layer metrics, from the traced run. Layers are the repository's
// modules plus "bench", the harness itself. A metric that does not apply to
// a workload (service.* on the table workloads) is absent from that
// workload's result and reads 0 on the driver's line, which must carry
// every name.
var perLayer = []metricDecl{
	// service (svc_pipelined only)
	{name: "service.submit_mean_ns", unit: "ns", better: "lower"},
	{name: "service.wait_mean_ns", unit: "ns", better: "lower"},
	{name: "service.rtt_p999_ns", unit: "ns", better: "lower"},
	{name: "service.batch_mean", unit: "count", better: "higher"},
	{name: "service.shard_imbalance", unit: "ratio", better: "lower"},
	{name: "service.fences_per_op", unit: "1/op", better: "lower"},
	{name: "service.fences_elided_per_op", unit: "1/op", better: "higher"},
	{name: "service.overhead_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "service.error_replies", unit: "count", better: "lower"},
	{name: "service.route_ns", unit: "ns", better: "lower"},
	// core: per-type latency from the spans around the table calls
	{name: "core.get_p50_ns", unit: "ns", better: "lower"},
	{name: "core.get_p99_ns", unit: "ns", better: "lower"},
	{name: "core.get_miss_p50_ns", unit: "ns", better: "lower"},
	{name: "core.insert_p50_ns", unit: "ns", better: "lower"},
	{name: "core.insert_p99_ns", unit: "ns", better: "lower"},
	{name: "core.insert_p999_ns", unit: "ns", better: "lower"},
	{name: "core.update_p50_ns", unit: "ns", better: "lower"},
	{name: "core.update_p99_ns", unit: "ns", better: "lower"},
	{name: "core.delete_p50_ns", unit: "ns", better: "lower"},
	{name: "core.delete_p99_ns", unit: "ns", better: "lower"},
	{name: "core.cpu_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "core.window_ops_s_min", unit: "ops/s", better: "higher"},
	{name: "core.window_ops_s_median", unit: "ops/s", better: "higher"},
	{name: "core.splits", unit: "count", better: "lower"},
	{name: "core.split_stall_mean_ns", unit: "ns", better: "lower"},
	{name: "core.split_migrate_p50_ns", unit: "ns", better: "lower"},
	{name: "core.split_assists", unit: "count", better: "lower"},
	{name: "core.load_factor_min", unit: "ratio", better: "higher"},
	{name: "core.load_factor_max", unit: "ratio", better: "higher"},
	{name: "core.stash_share", unit: "ratio", better: "lower"},
	{name: "core.dircache_hit_rate", unit: "ratio", better: "higher"},
	{name: "core.dircache_bytes", unit: "B", better: "lower"},
	{name: "core.segfilter_hit_rate", unit: "ratio", better: "higher"},
	{name: "core.segfilter_bytes", unit: "B", better: "lower"},
	{name: "core.segfilter_heals", unit: "count", better: "lower"},
	{name: "core.segfilter_bypass", unit: "count", better: "lower"},
	{name: "core.dram_bytes_per_record", unit: "B", better: "lower"},
	{name: "core.restart_full_ms", unit: "ms", better: "lower"},
	{name: "core.restart_open_ms", unit: "ms", better: "lower"},
	{name: "core.restart_dir_ms", unit: "ms", better: "lower"},
	{name: "core.restart_segments_ms", unit: "ms", better: "lower"},
	{name: "core.restart_log_ms", unit: "ms", better: "lower"},
	{name: "core.restart_mirrors_ms", unit: "ms", better: "lower"},
	{name: "core.restart_clean_open_ms", unit: "ms", better: "lower"},
	{name: "core.first_touch_p99_ns", unit: "ns", better: "lower"},
	{name: "core.post_restart_get_p99_ns", unit: "ns", better: "lower"},
	{name: "core.unexpected_errors", unit: "count", better: "lower"},
	// pmem
	{name: "pmem.read_bytes_per_op", unit: "B/op", better: "lower"},
	{name: "pmem.write_bytes_per_op", unit: "B/op", better: "lower"},
	{name: "pmem.flushed_bytes_per_op", unit: "B/op", better: "lower"},
	{name: "pmem.fences_per_op", unit: "1/op", better: "lower"},
	{name: "pmem.fences_elided_per_op", unit: "1/op", better: "higher"},
	{name: "pmem.allocated_bytes", unit: "B", better: "lower"},
	{name: "pmem.device_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "pmem.device_share", unit: "ratio", better: "lower"},
	{name: "pmem.snapshot_ms", unit: "ms", better: "lower"},
	{name: "pmem.open_snapshot_ms", unit: "ms", better: "lower"},
	{name: "pmem.read_ns", unit: "ns", better: "lower"},
	{name: "pmem.write_ns", unit: "ns", better: "lower"},
	{name: "pmem.flush_ns", unit: "ns", better: "lower"},
	{name: "pmem.fence_ns", unit: "ns", better: "lower"},
	{name: "pmem.persist_ns", unit: "ns", better: "lower"},
	{name: "pmem.spin_overshoot_ns", unit: "ns", better: "lower"},
	// varlog
	{name: "varlog.live_bytes", unit: "B", better: "lower"},
	{name: "varlog.free_bytes", unit: "B", better: "lower"},
	{name: "varlog.chunk_bytes", unit: "B", better: "lower"},
	{name: "varlog.free_hit_rate", unit: "ratio", better: "higher"},
	{name: "varlog.space_amp", unit: "ratio", better: "lower"},
	{name: "varlog.append_commit_ns", unit: "ns", better: "lower"},
	// epoch
	{name: "epoch.retired_per_op", unit: "1/op", better: "lower"},
	{name: "epoch.reclaimed_share", unit: "ratio", better: "higher"},
	{name: "epoch.pending_end", unit: "count", better: "lower"},
	{name: "epoch.reclaim_lag_p99_ns", unit: "ns", better: "lower"},
	{name: "epoch.enter_exit_ns", unit: "ns", better: "lower"},
	// hashfn, obs
	{name: "hashfn.hash_u64_ns", unit: "ns", better: "lower"},
	{name: "hashfn.hash64_32B_ns", unit: "ns", better: "lower"},
	{name: "obs.counter_add_ns", unit: "ns", better: "lower"},
	{name: "obs.flight_record_ns", unit: "ns", better: "lower"},
	{name: "obs.registry_snapshot_us", unit: "us", better: "lower"},
	// bench: the harness
	{name: "bench.op_p99_ns", unit: "ns", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.clock_read_ns", unit: "ns", better: "lower"},
	{name: "bench.generator_ns_per_op", unit: "ns/op", better: "lower"},
	{name: "bench.measured_wall_s", unit: "s", better: "lower"},
	{name: "bench.failed_ops_share", unit: "ratio", better: "lower"},
	{name: "bench.final_mismatches", unit: "count", better: "lower"},
	{name: "bench.lost_acked_ops", unit: "count", better: "lower"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a declaration list, so a name that is
// not declared cannot be emitted.
type metricSet struct {
	decls  []metricDecl
	values map[string]metricValue
}

func newMetricSet(decls []metricDecl) *metricSet {
	return &metricSet{decls: decls, values: map[string]metricValue{}}
}

func (s *metricSet) set(name string, v float64) {
	for _, d := range s.decls {
		if d.name == name {
			s.values[name] = metricValue{v, d.unit}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// complete returns every declared metric, absent ones reading 0: the shape
// the driver's line needs.
func (s *metricSet) complete() map[string]metricValue {
	out := make(map[string]metricValue, len(s.decls))
	for _, d := range s.decls {
		v, ok := s.values[d.name]
		if !ok {
			v = metricValue{0, d.unit}
		}
		out[d.name] = v
	}
	return out
}
