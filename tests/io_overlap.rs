//! Invariants of the pipelined storage stack.
//!
//! The `io_overlap` knob must be a pure scheduling change: with it off the
//! simulation is byte-identical to the paper's serial driver (pinned against
//! the Table 1 golden snapshot by `tests/golden_tables.rs`, whose
//! explicit-knobs test sets `io_overlap = false` alongside `shards`/`cores`);
//! with it on, the same physical work happens — identical bytes and transfer
//! counts per spindle, FIFO-monotone completions on every member queue —
//! only sooner, never later.

use wg_disk::{BlockDevice, DiskRequest, StripeSet};
use wg_server::WritePolicy;
use wg_simcore::SimTime;
use wg_workload::{ExperimentConfig, FileCopySystem, NetworkKind};

/// A scattered mix of cluster-sized and small requests spanning the stripe.
fn workload(n: u64) -> Vec<DiskRequest> {
    (0..n)
        .map(|i| {
            if i % 3 == 0 {
                DiskRequest::write(i * 64 * 1024, 64 * 1024)
            } else {
                DiskRequest::write(200_000_000 + i * 8192, 8192)
            }
        })
        .collect()
}

#[test]
fn per_spindle_completions_are_fifo_monotone_under_queued_submission() {
    let mut set = StripeSet::three_rz26();
    let reqs = workload(48);
    // Submit everything at staggered times; watch each member's queue clock:
    // FIFO service means a member's free_at (the completion time of the last
    // piece it accepted) never decreases as later pieces join its queue.
    let mut member_clocks = vec![SimTime::ZERO; set.width()];
    for (i, &req) in reqs.iter().enumerate() {
        let submitted_at = SimTime::from_micros(i as u64 * 50);
        let done = set.submit(submitted_at, req);
        assert!(done > submitted_at);
        for (m, clock) in member_clocks.iter_mut().enumerate() {
            let free = set.member_free_at(m).expect("member exists");
            assert!(
                free >= *clock,
                "member {m} completion clock went backwards: {free} < {clock}"
            );
            *clock = free;
        }
        // A request's completion is the latest of its member queues' clocks
        // among the members it touched.
        let touched_max = set
            .split(req)
            .iter()
            .map(|&(m, _)| set.member_free_at(m).expect("member exists"))
            .max()
            .expect("request has pieces");
        assert_eq!(done, touched_max);
    }
}

#[test]
fn queued_batch_moves_identical_bytes_and_never_finishes_later_than_serial() {
    let reqs = workload(64);

    // Serial: each request chains on the previous one's completion — the
    // pre-pipeline server's I/O loop.
    let mut serial_set = StripeSet::three_rz26();
    let mut serial_done = SimTime::ZERO;
    for &req in &reqs {
        serial_done = serial_set.submit(serial_done, req);
    }

    // Overlapped: the whole plan is enqueued at once; every piece joins its
    // own spindle's FIFO queue.
    let mut queued_set = StripeSet::three_rz26();
    let queued_done = reqs
        .iter()
        .map(|&req| queued_set.submit(SimTime::ZERO, req))
        .max()
        .expect("non-empty");

    // Exactly the same physical work per spindle...
    let serial_spindles = serial_set.spindle_stats();
    let queued_spindles = queued_set.spindle_stats();
    assert_eq!(serial_spindles.len(), queued_spindles.len());
    for (s, q) in serial_spindles.iter().zip(queued_spindles.iter()) {
        assert_eq!(s.stats.transfers.events(), q.stats.transfers.events());
        assert_eq!(s.stats.transfers.bytes(), q.stats.transfers.bytes());
    }
    assert_eq!(
        serial_set.stats().transfers.bytes(),
        queued_set.stats().transfers.bytes()
    );
    // ...finishing strictly earlier here (and never later in general).
    assert!(
        queued_done < serial_done,
        "queued {queued_done} vs serial {serial_done}"
    );
    // Queued submission actually queued: some spindle saw depth > 1.
    assert!(queued_spindles.iter().any(|s| s.max_queue_depth > 1));
}

#[test]
fn overlapped_file_copy_on_a_stripe_set_is_never_slower() {
    let run = |overlap: bool| {
        let mut system = FileCopySystem::new(
            ExperimentConfig::new(NetworkKind::Fddi, 15, WritePolicy::Gathering)
                .with_spindles(3)
                .with_io_overlap(overlap)
                .with_file_size(2 * 1024 * 1024),
        );
        let result = system.run();
        assert_eq!(system.server().uncommitted_bytes(), 0);
        result
    };
    let serial = run(false);
    let overlapped = run(true);
    assert!(
        overlapped.elapsed_secs <= serial.elapsed_secs * 1.0001,
        "overlap {:.4}s vs serial {:.4}s",
        overlapped.elapsed_secs,
        serial.elapsed_secs
    );
}

#[test]
fn overlapped_sharded_stripe_run_beats_the_disk_floored_serial_cell() {
    // The headline configuration: sharded request path, per-client LANs, a
    // 3-spindle stripe set and the pipelined storage stack, vs the same
    // topology with the serial driver.  The serial cells are disk-floored;
    // overlap must buy real aggregate throughput.
    let run = |overlap: bool| {
        let mut system = FileCopySystem::new(
            ExperimentConfig::fleet(NetworkKind::Fddi, 4, 4, WritePolicy::Gathering)
                .with_file_size(4 * 1024 * 1024)
                .with_shards(4)
                .with_cores(4)
                .with_per_client_lans(true)
                .with_spindles(3)
                .with_io_overlap(overlap),
        );
        system.run();
        let result = system.fleet_result();
        system.verify_on_disk().expect("per-client data intact");
        let spindles = system.server().spindle_stats();
        (result, spindles)
    };
    let (serial, _) = run(false);
    let (overlapped, spindles) = run(true);
    assert!(
        overlapped.aggregate_kb_per_sec > serial.aggregate_kb_per_sec,
        "overlap {:.0} KB/s vs serial {:.0} KB/s",
        overlapped.aggregate_kb_per_sec,
        serial.aggregate_kb_per_sec
    );
    // The win is visible as spindle-level concurrency: total busy time
    // strictly exceeds the busiest single spindle's.
    let busys: Vec<f64> = spindles
        .iter()
        .map(|s| s.stats.busy.busy_time().as_secs_f64())
        .collect();
    let total: f64 = busys.iter().sum();
    let max = busys.iter().copied().fold(0.0, f64::max);
    assert!(
        total > max,
        "no spindle overlap: total busy {total:.4}s, max single {max:.4}s"
    );
}
