package main

import "slices"

// metricDef names one metric of the ledger. BENCHMARK.json lists the
// same names, units, directions and bounds; a test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the figures a user of the system would see that every
// workload produces from its own phases and that repeat within a tenth
// on the reference box; every run reports all of them, and a change may
// worsen none by more than its bound. README.md, "Measured spreads", has
// the measurements the list and the bounds follow from.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_kevent", "allocs", "lower", 0.03},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// unresolved are the end-to-end figures the issue asked for that carry
// no bound: each belongs to the phases of some workloads only, or does
// not repeat within a tenth on the reference box, or both (README.md).
// An untraced run prints those its workload has, from all its laps; the
// traced run reports them in the per-layer table, 0 where the workload
// has no such phase. failed_ops_share, the twelfth in the issue's table,
// is the result line's failed/attempted: 0 on a healthy run.
var unresolved = []metricDef{
	{"pipeline.cold_ingest_s", "s", "lower", 0},
	{"pipeline.ingest_events_per_s", "events/s", "higher", 0},
	{"pipeline.trigger_to_rule_p50_ms", "ms", "lower", 0},
	{"pipeline.trigger_to_rule_p95_ms", "ms", "lower", 0},
	{"pipeline.fallback_p50_ms", "ms", "lower", 0},
	{"pipeline.checkpoint_s", "s", "lower", 0},
	{"pipeline.warm_ready_s", "s", "lower", 0},
	{"pipeline.forward_mpps", "Mpkt/s", "higher", 0},
}

// perLayer are the figures of the traced run: every single layer's,
// named <module>.<metric>, then the unresolved ones and what the layers
// leave unexplained. They carry no bound.
var perLayer = slices.Concat([]metricDef{
	{"bgp.decode_ns_per_msg", "ns", "lower", 0},
	{"bgp.decode_allocs_per_msg", "allocs", "lower", 0},
	{"bmp.frame_ns_per_msg", "ns", "lower", 0},
	{"bmp.station_ns_per_msg", "ns", "lower", 0},
	{"bmp.station_msgs_per_s_nullsink", "1/s", "higher", 0},
	{"bmp.batches_out", "count", "lower", 0},
	{"bmp.batch_events_mean", "events", "higher", 0},
	{"bmp.handoff_wait_p50_ms", "ms", "lower", 0},
	{"bmp.wire_bytes", "bytes", "lower", 0},
	{"bmp.decode_errors", "count", "lower", 0},
	{"ring.hop_ns_per_batch", "ns", "lower", 0},
	{"controller.apply_ns_per_batch", "ns", "lower", 0},
	{"controller.apply_p95_us", "us", "lower", 0},
	{"controller.fleet_events_per_s_direct", "events/s", "higher", 0},
	{"controller.sync_drain_ms", "ms", "lower", 0},
	{"controller.shard_peers_max_over_mean", "ratio", "lower", 0},
	{"controller.ring_full_total", "count", "lower", 0},
	{"controller.allocs_per_kevent_direct", "allocs", "lower", 0},
	{"swift.engine_events_per_s_1peer", "events/s", "higher", 0},
	{"swift.provision_ms", "ms", "lower", 0},
	{"swift.bursts_started", "count", "higher", 0},
	{"swift.bursts_ended", "count", "higher", 0},
	{"swift.decisions", "count", "higher", 0},
	{"swift.inferences_deferred", "count", "lower", 0},
	{"swift.provision_full", "count", "lower", 0},
	{"swift.provision_skipped", "count", "higher", 0},
	{"rib.announce_ns", "ns", "lower", 0},
	{"rib.withdraw_ns", "ns", "lower", 0},
	{"rib.pool_unique_paths", "count", "lower", 0},
	{"rib.pool_unique_links", "count", "lower", 0},
	{"rib.pool_max_shard_share", "ratio", "lower", 0},
	{"burst.observe_ns", "ns", "lower", 0},
	{"inference.observe_withdraw_ns", "ns", "lower", 0},
	{"inference.infer_p50_us", "us", "lower", 0},
	{"inference.infer_p95_us", "us", "lower", 0},
	{"reroute.compute_ms", "ms", "lower", 0},
	{"reroute.backup_coverage_share", "ratio", "higher", 0},
	{"encoding.build_ms", "ms", "lower", 0},
	{"encoding.reroute_rules_us", "us", "lower", 0},
	{"encoding.rules_per_decision_mean", "rules", "lower", 0},
	{"dataplane.replace_tags_ms", "ms", "lower", 0},
	{"dataplane.install_rules_us", "us", "lower", 0},
	{"dataplane.first_read_ms", "ms", "lower", 0},
	{"dataplane.forward_ns_per_pkt_batch", "ns", "lower", 0},
	{"dataplane.forward_ns_per_pkt_scalar", "ns", "lower", 0},
	{"dataplane.modelled_write_ms_per_decision", "ms", "lower", 0},
	{"fusion.propose_ns", "ns", "lower", 0},
	{"fusion.verdicts", "count", "higher", 0},
	{"fusion.pretriggers", "count", "higher", 0},
	{"fusion.vetoes", "count", "higher", 0},
	{"snapshot.write_ms", "ms", "lower", 0},
	{"snapshot.read_ms", "ms", "lower", 0},
	{"snapshot.restore_ms", "ms", "lower", 0},
	{"snapshot.bytes", "bytes", "lower", 0},
	{"snapshot.restore_allocs", "allocs", "lower", 0},
	{"mrt.rib_walk_ns_per_route", "ns", "lower", 0},
	{"mrt.source_ns_per_route", "ns", "lower", 0},
	{"mrt.source_allocs_per_route", "allocs", "lower", 0},
	{"bench.gen_only_events_per_s", "events/s", "higher", 0},
	{"bench.gc_cycles", "count", "lower", 0},
	{"bench.gc_pause_total_ms", "ms", "lower", 0},
}, unresolved, []metricDef{
	{"pipeline.unexplained_share", "ratio", "lower", 0},
})

// health are figures about the harness itself rather than a layer of the
// program: how late the open loop's generator ran, what it offered, what
// the same stream sustains sent closed-loop and the offered rate's share
// of that (which must stay under a half), and what tracing cost. They
// are printed with every traced run where they are defined — open loops
// only for the first four, a run of both modes for the last — but are
// not part of BENCHMARK.json, whose every metric every workload reports.
var health = []metricDef{
	{"bench.gen_late_p95_ms", "ms", "lower", 0},
	{"bench.offered_events_per_s", "events/s", "higher", 0},
	{"bench.closed_capacity_events_per_s", "events/s", "higher", 0},
	{"bench.offered_share_of_capacity", "ratio", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
}
