//! Every metric the benchmark reports: name, unit and which direction is
//! better.  `BENCHMARK.json` lists the same metrics (a test keeps the two in
//! step) and adds each end-to-end metric's regression bound.

/// `(name, unit, better)` of the end-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("host_run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_ops_s", "ops/s", "higher"),
    ("sim_write_kb_s", "KB/s", "higher"),
    ("sim_latency_mean_ms", "ms", "lower"),
    ("sim_residence_p99_ms", "ms", "lower"),
];

/// `(name, unit, better)` of the per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str, &str); 62] = [
    ("simcore.events", "count", "lower"),
    ("simcore.scheduled", "count", "lower"),
    ("simcore.sched_max_depth", "count", "lower"),
    ("simcore.sched_resizes", "count", "lower"),
    ("simcore.sched_rotations", "count", "lower"),
    ("simcore.host_ns_per_event", "ns", "lower"),
    ("simcore.micro_schedule_pop_ns.d16", "ns", "lower"),
    ("simcore.micro_schedule_pop_ns.d4096", "ns", "lower"),
    ("simcore.host_self_pct", "%", "lower"),
    ("net.utilization_pct", "%", "lower"),
    ("net.datagrams", "count", "lower"),
    ("net.host_self_pct", "%", "lower"),
    ("nfsproto.materializations", "count", "lower"),
    ("nfsproto.micro_encode_8k_ns", "ns", "lower"),
    ("nfsproto.micro_decode_8k_ns", "ns", "lower"),
    ("nfsproto.host_self_pct", "%", "lower"),
    ("server.cpu_busy_pct", "%", "lower"),
    ("server.writes_per_flush", "count", "higher"),
    ("server.metadata_flushes", "count", "lower"),
    ("server.procrastination_hit_ratio", "fraction", "higher"),
    ("server.socket_drops", "count", "lower"),
    ("server.duplicate_requests", "count", "lower"),
    ("server.residence_mean_ms", "ms", "lower"),
    ("server.write_residence_mean_ms", "ms", "lower"),
    ("server.evicted_in_progress", "count", "lower"),
    ("server.micro_write_us.standard", "us", "lower"),
    ("server.micro_write_us.gathering", "us", "lower"),
    ("server.micro_write_us.presto", "us", "lower"),
    ("server.host_self_pct", "%", "lower"),
    ("state.leases_granted", "count", "higher"),
    ("state.renewals", "count", "lower"),
    ("state.table_bytes", "bytes", "lower"),
    ("state.grace_conflicts", "count", "lower"),
    ("state.expired_lease_writes", "count", "lower"),
    ("ufs.cache_evictions", "count", "lower"),
    ("ufs.throttle_stalls", "count", "lower"),
    ("ufs.writeback_blocks", "count", "lower"),
    ("ufs.dirty_bytes_after_quiesce", "bytes", "lower"),
    ("ufs.micro_clustered_flush_1mb_us", "us", "lower"),
    ("ufs.micro_sync_writes_1mb_us", "us", "lower"),
    ("disk.transfers", "count", "lower"),
    ("disk.kb_per_transfer", "KB", "higher"),
    ("disk.busy_pct", "%", "lower"),
    ("disk.max_queue_depth", "count", "lower"),
    ("disk.spindle_busy_max_pct", "%", "lower"),
    ("disk.micro_rz26_submit_ns", "ns", "lower"),
    ("disk.micro_stripe_submit_ns", "ns", "lower"),
    ("nvram.pending_stable_bytes_end", "bytes", "lower"),
    ("nvram.micro_presto_submit_ns", "ns", "lower"),
    ("client.retransmissions", "count", "lower"),
    ("client.blocked_pct", "%", "lower"),
    ("client.commits_sent", "count", "lower"),
    ("client.host_self_pct", "%", "lower"),
    ("workload.ops_attempted", "count", "higher"),
    ("workload.ops_completed", "count", "higher"),
    ("workload.gave_up", "count", "lower"),
    ("workload.retransmissions", "count", "lower"),
    ("workload.name_mints", "count", "lower"),
    ("workload.failed_frac", "fraction", "lower"),
    ("workload.host_self_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.driver_pct", "%", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::Json;

    fn entries<'a>(doc: &'a Json, key: &str) -> Vec<(&'a str, &'a str, &'a str)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("metric field");
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = crate::compare::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(entries(&doc, "end_to_end"), END_TO_END.to_vec());
        assert_eq!(entries(&doc, "per_layer"), PER_LAYER.to_vec());
        let workloads: Vec<&str> = match doc.get("workloads") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
                .collect(),
            _ => panic!("BENCHMARK.json has no workloads"),
        };
        let known: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, known);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
