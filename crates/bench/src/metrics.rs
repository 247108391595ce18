//! Named metrics snapshots of the two workload drivers.
//!
//! A snapshot is a JSON object: one ordered `(name, value)` list read off a
//! finished run through the driver's public readouts (its configuration,
//! its result, the server's counters and the event queue's), with the host
//! parallelism the run was measured under.  Bench cells
//! record their fields by name from a snapshot, so each counter is read
//! here and nowhere else.  The names are the report's field names; where
//! two report sections spell one value differently, the snapshot carries
//! both spellings.

use wg_server::{NfsServer, StabilityMode, WritePolicy};
use wg_simcore::Duration;
use wg_workload::sfs::SfsSystem;
use wg_workload::{FileCopyResult, FileCopySystem, SfsPoint};

use crate::report::{host_parallelism, Json};

const MIB: u64 = 1024 * 1024;

/// The snapshot of a finished file copy or writer fleet, `result` being
/// what its `run()` returned.
pub fn copy(system: &FileCopySystem, result: &FileCopyResult) -> Json {
    let config = system.config();
    let client = system.client().stats();
    let file_mb = config.file_size / MIB;
    // Spindle busy time is read over the copy's simulated span.
    let observed = Duration::from_secs_f64(result.elapsed_secs.max(1e-9));
    let spindles = system.server().spindle_stats().into_iter().map(|s| {
        Json::object([
            ("busy_percent", s.busy_percent(observed).into()),
            ("transfers", s.stats.transfers.events().into()),
            ("bytes", s.stats.transfers.bytes().into()),
            ("max_queue_depth", s.max_queue_depth.into()),
        ])
    });
    let kb_per_sec = result.client_write_kb_per_sec;
    let mut values = vec![
        ("clients", config.clients.into()),
        ("file_mb", file_mb.into()),
        ("mb_per_client", file_mb.into()),
        ("shards", config.shards.into()),
        ("cores", config.cores.into()),
        ("spindles", config.spindles.into()),
        ("io_overlap", config.io_overlap.into()),
        ("per_client_lans", config.per_client_lans.into()),
        ("prestoserve", config.prestoserve.into()),
        ("cache_pages", config.cache_pages.into()),
        ("stability", stability(config.stability)),
        (
            "safe_policy",
            (config.policy != WritePolicy::DangerousAsync).into(),
        ),
        ("commit_interval_bytes", config.commit_interval.into()),
        ("client_write_kb_per_sec", kb_per_sec.into()),
        ("aggregate_kb_per_sec", kb_per_sec.into()),
        ("sim_aggregate_kb_per_sec", kb_per_sec.into()),
        ("sim_fairness", system.fleet_result().fairness.into()),
        ("sim_elapsed_secs", result.elapsed_secs.into()),
        ("retransmissions", result.retransmissions.into()),
        ("gave_up", result.gave_up.into()),
        ("completed", result.completed.into()),
        ("commits_sent", client.commits_sent.into()),
        ("verifier_mismatches", client.verifier_mismatches.into()),
        ("paced_commits", system.paced_commits().into()),
        ("spindle_breakdown", Json::Array(spindles.collect())),
        ("events_processed", system.events_processed().into()),
        ("scheduled_total", system.scheduled_total().into()),
        ("clamped_past", system.clamped_past().into()),
        ("sched_max_depth", system.sched_stats().max_depth.into()),
        ("host_parallelism", host_parallelism().into()),
    ];
    push_server(&mut values, system.server(), config.clients);
    Json::object(values)
}

/// The snapshot of a finished SFS run, `point` being what its `run()`
/// returned.  Taken after [`SfsSystem::quiesce_server`], it reads the
/// drained server.
pub fn sfs(system: &SfsSystem, point: &SfsPoint) -> Json {
    let config = system.config();
    let (issued, completed) = system.counts();
    let (lease_issued, lease_completed, lease_gave_up) = system.lease_counts();
    let (locks_granted, locks_reclaimed) = system.lock_grants();
    let per_client = system.per_client_achieved_ops();
    let millis = |d: Duration| d.as_nanos() / 1_000_000;
    let mut values = vec![
        ("clients", config.clients.into()),
        ("shards", config.shards.into()),
        ("cores", config.cores.into()),
        ("spindles", config.spindles.into()),
        ("io_overlap", config.io_overlap.into()),
        ("per_client_lans", config.per_client_lans.into()),
        ("inode_groups", config.inode_groups.into()),
        ("read_caching", config.read_caching.into()),
        ("duration_secs", config.duration.as_secs_f64().into()),
        ("prestoserve", config.prestoserve.into()),
        ("loss_rate", config.loss_probability.into()),
        ("cache_pages", config.cache_pages.into()),
        ("dirty_ratio", config.dirty_ratio.into()),
        ("stability", stability(config.stability)),
        ("renew_ms", millis(config.lease_renew_interval).into()),
        ("churn_ms", millis(config.churn_interval).into()),
        ("offered_ops_per_sec", point.offered_ops_per_sec.into()),
        ("achieved_ops_per_sec", point.achieved_ops_per_sec.into()),
        ("avg_latency_ms", point.avg_latency_ms.into()),
        ("server_cpu_percent", point.server_cpu_percent.into()),
        (
            "per_client_achieved_ops",
            Json::Array(per_client.into_iter().map(Json::from).collect()),
        ),
        ("fairness", system.fairness().into()),
        ("name_mints", system.name_mints().into()),
        ("issued", issued.into()),
        ("completed", completed.into()),
        ("retransmissions", system.retransmissions().into()),
        ("gave_up", system.gave_up().into()),
        ("lease_ops_issued", lease_issued.into()),
        ("lease_ops_completed", lease_completed.into()),
        ("lease_ops_gave_up", lease_gave_up.into()),
        ("locks_granted", locks_granted.into()),
        ("locks_reclaimed", locks_reclaimed.into()),
        ("churn_reboots", system.churn_reboots().into()),
        ("lease_dead_streams", system.lease_dead_streams().into()),
        (
            "observed_server_reboots",
            system.observed_server_reboots().into(),
        ),
        ("events_processed", system.events_processed().into()),
        ("scheduled_total", system.scheduled_total().into()),
        ("clamped_past", system.clamped_past().into()),
        ("sched_max_depth", system.sched_stats().max_depth.into()),
        ("host_parallelism", host_parallelism().into()),
    ];
    push_server(&mut values, system.server(), config.clients);
    Json::object(values)
}

/// How the report spells a stability mode.
fn stability(mode: StabilityMode) -> Json {
    match mode {
        StabilityMode::Stable => "file_sync",
        StabilityMode::Unstable => "unstable",
    }
    .into()
}

/// The server's durability, cache and client-state counters, the same for
/// both drivers.  `clients` prices the state table per client.
fn push_server(values: &mut Vec<(&'static str, Json)>, server: &NfsServer, clients: usize) {
    let stats = server.stats();
    let fs = server.fs().counters();
    let state = server.state_stats();
    let table_bytes = server.state_table_bytes();
    values.extend(
        [
            ("crashes", stats.crashes),
            ("battery_failures", stats.battery_failures),
            ("lost_acked_bytes", stats.lost_acked_bytes),
            ("discarded_dirty_bytes", stats.discarded_dirty_bytes),
            ("dropped_during_recovery", stats.dropped_during_recovery),
            ("unstable_writes", stats.unstable_writes),
            ("commits", stats.commits),
            ("forced_file_sync", stats.forced_file_sync),
            ("lost_unstable_bytes", stats.lost_unstable_bytes),
            ("uncommitted_after_quiesce", server.uncommitted_bytes()),
            ("evicted_in_progress", server.dupcache_evicted_in_progress()),
            ("cache_evictions", fs.cache_evictions),
            ("throttle_stalls", fs.throttle_stalls),
            ("writeback_blocks", fs.writeback_blocks),
            ("leases_granted", state.leases_granted),
            ("renewals", state.renewals),
            ("leases_expired", state.leases_expired),
            ("state_orphaned", state.state_orphaned),
            ("client_reboots", state.client_reboots),
            ("reboot_revoked_locks", state.reboot_revoked_locks),
            ("grace_rejections", state.grace_rejections),
            ("seqid_rejections", state.seqid_rejections),
            ("grace_conflicts", state.grace_conflicts),
            ("expired_lease_writes", state.expired_lease_writes),
            ("active_lease_clients", server.active_lease_clients() as u64),
            ("held_locks", server.held_locks() as u64),
            ("state_table_bytes", table_bytes),
            (
                "state_bytes_per_client",
                table_bytes / clients.max(1) as u64,
            ),
        ]
        .map(|(name, value)| (name, value.into())),
    );
}
