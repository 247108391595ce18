//! Multi-client scale-out integrity.
//!
//! N clients share one medium and one server, each copying its own byte
//! budget into its own segment files with a client-specific salted fill
//! pattern.  These tests pin the contract of a `FileCopySystem` fleet: every
//! client's acknowledged bytes are on disk under its own salt (no
//! cross-client bleed, no mis-routed replies), incomplete clients are loud,
//! symmetric clients are treated fairly, and the whole run stays on the
//! zero-copy datapath.

use wg_nfsproto::payload::materialize_count;
use wg_server::WritePolicy;
use wg_workload::{ExperimentConfig, FileCopySystem, NetworkKind};

const MB: u64 = 1024 * 1024;

#[test]
fn every_clients_acked_bytes_are_on_disk_with_no_cross_client_bleed() {
    let before = materialize_count();
    // Four clients, two segment files each (2 MB budget over a 1 MB file
    // limit), so the segment-rollover path is exercised too.
    let mut system = FileCopySystem::new(
        ExperimentConfig::fleet(NetworkKind::Fddi, 4, 4, WritePolicy::Gathering)
            .with_file_size(2 * MB)
            .with_file_limit(MB),
    );
    system.run();
    let result = system.fleet_result();
    assert_eq!(result.clients.len(), 4);
    assert_eq!(result.total_bytes_acked, 4 * 2 * MB);
    for (i, client) in result.clients.iter().enumerate() {
        assert_eq!(client.retransmissions, 0, "client {i} retransmitted");
        assert!(client.client_write_kb_per_sec > 0.0);
    }
    // Every block of every client's files carries that client's salt — the
    // definitive no-bleed check.
    system.verify_on_disk().expect("per-client data intact");
    // Stable-storage contract still holds with multiple writers.
    assert_eq!(system.server().uncommitted_bytes(), 0);
    // Identical clients must get near-identical service.
    assert!(
        result.fairness > 0.9,
        "symmetric clients served unfairly: {}",
        result.fairness
    );
    // The entire multi-client run stayed on the zero-copy datapath.
    assert_eq!(
        materialize_count(),
        before,
        "a fill payload was materialised during the multi-client run"
    );
}

#[test]
fn sharded_server_keeps_zero_copy_and_per_client_integrity() {
    // The same contract as the monolithic run, against a sharded server: four
    // clients on four private LANs, four request-path shards, two cores.
    let before = materialize_count();
    let mut system = FileCopySystem::new(
        ExperimentConfig::fleet(NetworkKind::Fddi, 4, 4, WritePolicy::Gathering)
            .with_file_size(2 * MB)
            .with_file_limit(MB)
            .with_shards(4)
            .with_cores(2)
            .with_per_client_lans(true),
    );
    assert_eq!(system.server().shard_count(), 4);
    system.run();
    let result = system.fleet_result();
    assert_eq!(result.total_bytes_acked, 4 * 2 * MB);
    for (i, client) in result.clients.iter().enumerate() {
        assert_eq!(client.retransmissions, 0, "client {i} retransmitted");
    }
    // Every block of every client's files carries that client's salt, so
    // routing by inode across shards never crossed streams.
    system.verify_on_disk().expect("per-client data intact");
    assert_eq!(system.server().uncommitted_bytes(), 0);
    assert!(
        result.fairness > 0.9,
        "symmetric clients served unfairly: {}",
        result.fairness
    );
    // The sharded datapath is still zero-copy end to end.
    assert_eq!(
        materialize_count(),
        before,
        "a fill payload was materialised during the sharded multi-client run"
    );
}

#[test]
fn contention_shows_up_per_client_but_not_in_the_aggregate() {
    let run = |clients: usize| {
        let mut system = FileCopySystem::new(
            ExperimentConfig::fleet(NetworkKind::Fddi, clients, 4, WritePolicy::Gathering)
                .with_file_size(MB),
        );
        system.run();
        system.fleet_result()
    };
    let solo = run(1);
    let four = run(4);
    // Sharing one disk and one wire, each of the four clients is slower than
    // the lone client was...
    assert!(
        four.max_client_kb_per_sec < solo.clients[0].client_write_kb_per_sec,
        "four-way contention did not slow any client ({:.0} vs solo {:.0} KB/s)",
        four.max_client_kb_per_sec,
        solo.clients[0].client_write_kb_per_sec
    );
    // ...but the server gathers across clients, so aggregate throughput holds
    // up (it must not collapse below the single-client rate).
    assert!(
        four.aggregate_kb_per_sec > solo.aggregate_kb_per_sec * 0.9,
        "aggregate collapsed: 4 clients {:.0} KB/s vs 1 client {:.0} KB/s",
        four.aggregate_kb_per_sec,
        solo.aggregate_kb_per_sec
    );
}

#[test]
fn segment_rolls_fire_no_stale_retransmission_timers() {
    // One fault-free client rolling through 200 segment files of 16 KB: at
    // every roll the finished writer's retransmission timers are still
    // pending and land on the next segment's writer.  None may fire one of
    // its timers — a spurious retransmission is a duplicate at the server.
    let mut system = FileCopySystem::new(
        ExperimentConfig::fleet(NetworkKind::Fddi, 1, 4, WritePolicy::Gathering)
            .with_file_size(200 * 16 * 1024)
            .with_file_limit(16 * 1024),
    );
    let cell = system.run();
    assert_eq!(cell.retransmissions, 0);
    assert_eq!(system.server().stats().duplicate_requests, 0);
    system.verify_on_disk().expect("every segment intact");
}
