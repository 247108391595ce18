//! The fault-injection contract, end to end.
//!
//! A `FaultPlan` crashes the server, fails the NVRAM battery, degrades the
//! disk and partitions the network — all deterministically — and after every
//! crash the recovery oracle walks what the server acknowledged: under every
//! policy that honours the NFS stable-storage rule, **no acknowledged write
//! is ever lost**, no matter what the schedule did.  The drivers' `run()`
//! audits that oracle (with the dupcache, state, scheduler and
//! call-conservation oracles) on every run below; these tests add the
//! on-disk twin, which re-reads every acknowledged byte.  Dangerous mode's
//! losses are counted and reported, never hidden.  And with no faults
//! scheduled, the entire fault layer must be invisible: a run with an empty
//! plan is bit-identical to a run that never heard of fault plans.

use wg_nfsproto::{NfsCall, NfsCallBody, WriteArgs, Xid};
use wg_server::{NfsServer, ServerAction, ServerConfig, ServerInput, StabilityMode, WritePolicy};
use wg_simcore::{Duration, FaultKind, FaultPlan, SimTime};
use wg_workload::sfs::{SfsConfig, SfsSystem};
use wg_workload::{ExperimentConfig, FileCopySystem, NetworkKind};

fn copy_config(policy: WritePolicy) -> ExperimentConfig {
    ExperimentConfig::new(NetworkKind::Fddi, 8, policy).with_file_size(2 * 1024 * 1024)
}

/// A crash scheduled mid-copy: early enough that every policy still has the
/// bulk of the file in flight.
fn mid_copy_crash() -> FaultPlan {
    FaultPlan::new().at(
        SimTime::ZERO + Duration::from_millis(300),
        FaultKind::ServerCrash,
    )
}

// ---------------------------------------------------------------------------
// Defaults-off: the fault layer is invisible until a plan schedules something.
// ---------------------------------------------------------------------------

#[test]
fn empty_fault_plan_is_bit_identical_to_no_plan_at_all() {
    // File copy: the same experiment with and without an (empty) fault plan
    // must produce the same result, field for field.
    let mut plain = FileCopySystem::new(copy_config(WritePolicy::Gathering));
    let mut planned =
        FileCopySystem::new(copy_config(WritePolicy::Gathering).with_fault_plan(FaultPlan::new()));
    let a = plain.run();
    let b = planned.run();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(plain.events_processed(), planned.events_processed());
    assert_eq!(plain.scheduled_total(), planned.scheduled_total());

    // SFS: an empty plan plus retry knobs leaves the retry machinery fully
    // disarmed — no timers, no clones, the identical event stream.
    let mut config = SfsConfig::figure2(500.0, WritePolicy::Gathering);
    config.duration = Duration::from_secs(4);
    let mut plain = SfsSystem::new(config.clone());
    let mut planned = SfsSystem::new(
        config
            .with_fault_plan(FaultPlan::new())
            .with_loss(0.0)
            .with_retry(Duration::from_millis(100), 3),
    );
    let a = plain.run();
    let b = planned.run();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(plain.counts(), planned.counts());
    assert_eq!(plain.events_processed(), planned.events_processed());
    assert_eq!(planned.retransmissions(), 0);
    assert_eq!(planned.gave_up(), 0);
}

// ---------------------------------------------------------------------------
// The recovery oracle: crash mid-copy under every safe policy.
// ---------------------------------------------------------------------------

#[test]
fn safe_policies_lose_no_acknowledged_write_across_a_crash() {
    for (label, presto, policy) in [
        ("standard", false, WritePolicy::Standard),
        ("gathering", false, WritePolicy::Gathering),
        ("presto", true, WritePolicy::Gathering),
    ] {
        let mut system = FileCopySystem::new(
            copy_config(policy)
                .with_presto(presto)
                .with_fault_plan(mid_copy_crash()),
        );
        let result = system.run();
        let stats = system.server().stats();
        assert_eq!(stats.crashes, 1, "{label}: the crash did not fire");
        // Client-side oracle: every byte the client saw acknowledged is
        // readable from the recovered file system with the right contents.
        assert_eq!(
            system.lost_acked_bytes_on_disk(),
            0,
            "{label}: acknowledged data missing from the recovered disk"
        );
        // The copy survived: outstanding calls timed out during the outage,
        // retransmitted through the recovery window and drained.
        assert!(result.completed, "{label}: the copy never finished");
        assert_eq!(result.gave_up, 0, "{label}: a write was abandoned");
        assert!(
            result.retransmissions > 0,
            "{label}: the crash was survived without a single retransmit?"
        );
    }
}

#[test]
fn dangerous_mode_losses_are_counted_not_hidden() {
    let mut system = FileCopySystem::new(
        copy_config(WritePolicy::DangerousAsync).with_fault_plan(mid_copy_crash()),
    );
    let result = system.run();
    let stats = system.server().stats();
    assert_eq!(stats.crashes, 1);
    // The client believes the copy succeeded — that is exactly the danger.
    assert!(result.completed);
    // Both oracles agree that acknowledged data is gone, and say how much.
    assert!(
        stats.lost_acked_bytes > 0,
        "dangerous mode crashed without losing anything acknowledged?"
    );
    assert!(system.lost_acked_bytes_on_disk() > 0);
    assert!(stats.discarded_dirty_bytes >= stats.lost_acked_bytes);
}

#[test]
fn the_on_disk_twin_re_reads_closed_segment_files() {
    // A segmented dangerous copy finishes (0.22 s) long before the crash
    // (700 ms), with none of its data on disk: every one of its eight
    // 256 KB segment files lost everything acknowledged.  The twin must
    // re-read the seven closed files, not just the live one.
    let crash = FaultPlan::new().at(SimTime::from_millis(700), FaultKind::ServerCrash);
    let mut system = FileCopySystem::new(
        ExperimentConfig::fleet(NetworkKind::Fddi, 1, 8, WritePolicy::DangerousAsync)
            .with_file_size(2 * 1024 * 1024)
            .with_file_limit(256 * 1024)
            .with_fault_plan(crash),
    );
    assert!(system.run().completed);
    assert_eq!(system.server().stats().lost_acked_bytes, 2 * 1024 * 1024);
    // Block 0 of each segment carries fill byte 0, which a lost block also
    // reads back as, so the twin sees every block but those eight.
    assert_eq!(system.lost_acked_bytes_on_disk(), (256 - 8) * 8192);
}

// ---------------------------------------------------------------------------
// Crash during writeback: the three durable write paths all hold the line,
// and uncommitted UNSTABLE data is a counted, client-recovered loss.
// ---------------------------------------------------------------------------

/// A crash early enough to catch the unstable write path with
/// UNSTABLE-acknowledged dirty pages still in the bounded cache (the
/// instant-ack cache absorbs the whole copy much faster than the synchronous
/// paths, so this fires earlier than [`mid_copy_crash`]).
fn mid_writeback_crash() -> FaultPlan {
    FaultPlan::new().at(
        SimTime::ZERO + Duration::from_millis(200),
        FaultKind::ServerCrash,
    )
}

#[test]
fn crash_during_writeback_loses_nothing_acknowledged_in_any_durable_mode() {
    // The same mid-copy crash lands while dirty data is in flight under all
    // three durability regimes of the write-path ablation: synchronous
    // writes straight to disk, NVRAM (Prestoserve) staging, and the unified
    // bounded cache with WRITE(UNSTABLE)+COMMIT.  In the unstable cell only
    // COMMIT-covered ranges count as acknowledged — and none of them may be
    // lost, because COMMIT replies only after the covered pages are clean.
    for (label, presto, cache_pages, stability) in [
        ("sync", false, 0u64, StabilityMode::Stable),
        ("nvram", true, 0, StabilityMode::Stable),
        ("unstable", false, 4096, StabilityMode::Unstable),
    ] {
        let mut system = FileCopySystem::new(
            copy_config(WritePolicy::Gathering)
                .with_presto(presto)
                .with_unified_cache(cache_pages)
                .with_stability(stability)
                .with_fault_plan(mid_writeback_crash()),
        );
        let result = system.run();
        let stats = system.server().stats();
        assert_eq!(stats.crashes, 1, "{label}: the crash did not fire");
        assert_eq!(
            system.lost_acked_bytes_on_disk(),
            0,
            "{label}: acknowledged data missing from the recovered disk"
        );
        assert!(result.completed, "{label}: the copy never finished");
        assert_eq!(result.gave_up, 0, "{label}: a write was abandoned");
        assert!(
            result.retransmissions > 0,
            "{label}: the crash was survived without a single retransmit?"
        );
        assert_eq!(
            system.server().uncommitted_bytes(),
            0,
            "{label}: volatile data survived the close"
        );
    }
}

#[test]
fn uncommitted_unstable_data_is_counted_and_recovered_by_the_client() {
    // The NFSv3 bargain, exercised end to end: the crash catches the
    // bounded cache with UNSTABLE-acknowledged dirty pages that no COMMIT
    // covers yet.  The server is *allowed* to drop them — but must count
    // every byte — and the client must notice via the COMMIT verifier
    // mismatch after reboot, re-send the voided ranges, and commit again,
    // so the finished file carries the full fill pattern on disk.
    let mut system = FileCopySystem::new(
        copy_config(WritePolicy::Gathering)
            .with_unified_cache(4096)
            .with_stability(StabilityMode::Unstable)
            .with_fault_plan(mid_writeback_crash()),
    );
    let result = system.run();
    let stats = system.server().stats();
    assert_eq!(stats.crashes, 1);
    assert!(stats.unstable_writes > 0, "no write ever went UNSTABLE");
    assert!(
        stats.lost_unstable_bytes > 0,
        "the crash found no uncommitted unstable data — it missed the writeback window"
    );
    // The permitted loss is never an acknowledged loss: run() audits that.

    // Client-side recovery: the post-reboot COMMIT came back with a fresh
    // boot verifier, voiding the pre-crash acknowledgements.
    let client = system.client().stats();
    assert!(
        client.verifier_mismatches > 0,
        "the client never noticed the reboot"
    );
    assert!(
        client.resent_bytes > 0,
        "a verifier mismatch must re-send the voided ranges"
    );
    assert!(client.commits_sent >= 2, "recovery needs a second COMMIT");

    // And the recovery converged: the copy finished, nothing stayed
    // volatile or uncommitted, and every acknowledged range reads back
    // with the exact fill pattern.
    assert!(result.completed);
    assert_eq!(result.gave_up, 0);
    assert!(system.client().uncommitted_ranges().is_empty());
    assert_eq!(system.server().uncommitted_bytes(), 0);
    assert_eq!(system.lost_acked_bytes_on_disk(), 0);
}

// ---------------------------------------------------------------------------
// Battery failure: Prestoserve degrades to write-through, then recovers.
// ---------------------------------------------------------------------------

#[test]
fn battery_failure_degrades_but_loses_nothing() {
    let plan = FaultPlan::new().at(
        SimTime::ZERO + Duration::from_millis(200),
        FaultKind::BatteryFailure {
            repair_after: Duration::from_millis(300),
        },
    );
    let mut system = FileCopySystem::new(
        copy_config(WritePolicy::Gathering)
            .with_presto(true)
            .with_fault_plan(plan),
    );
    let result = system.run();
    let stats = system.server().stats();
    assert_eq!(stats.battery_failures, 1);
    assert!(result.completed);
    assert_eq!(result.gave_up, 0);
    // Write-through mode honours the stable-storage rule by construction;
    // the drain on failure keeps everything previously acknowledged safe.
    assert_eq!(system.lost_acked_bytes_on_disk(), 0);

    // A healthy-battery run of the same copy is faster: the failure window
    // really did degrade service.
    let mut healthy = FileCopySystem::new(copy_config(WritePolicy::Gathering).with_presto(true));
    let baseline = healthy.run();
    assert!(
        result.elapsed_secs > baseline.elapsed_secs,
        "write-through window did not slow the copy ({} vs {})",
        result.elapsed_secs,
        baseline.elapsed_secs
    );
}

// ---------------------------------------------------------------------------
// Disk degradation: bounded retries, no lost work.
// ---------------------------------------------------------------------------

#[test]
fn transient_disk_faults_retry_and_complete() {
    let plan = FaultPlan::new().at(
        SimTime::ZERO + Duration::from_millis(200),
        FaultKind::DiskDegrade {
            duration: Duration::from_millis(400),
            stall: Duration::from_millis(15),
            retries: 2,
        },
    );
    let mut system = FileCopySystem::new(copy_config(WritePolicy::Gathering).with_fault_plan(plan));
    let result = system.run();
    let stats = system.server().stats();
    assert!(result.completed);
    assert!(
        stats.disk_retries > 0,
        "the degradation window saw no transfers"
    );
    assert_eq!(system.lost_acked_bytes_on_disk(), 0);
}

// ---------------------------------------------------------------------------
// The SFS workload under a chaos schedule: every call is accounted for.
// ---------------------------------------------------------------------------

#[test]
fn sfs_chaos_schedule_accounts_for_every_call() {
    let secs = 8u64;
    let horizon = Duration::from_secs(secs);
    // A seeded Poisson crash process plus a loss burst: replayable chaos.
    let plan = FaultPlan::seeded_crashes(0xC4A5, Duration::from_secs(3), horizon).at(
        SimTime::ZERO + Duration::from_secs(5),
        FaultKind::LossBurst {
            duration: Duration::from_millis(500),
            probability: 0.5,
            segment: None,
        },
    );
    assert!(!plan.is_empty());
    let mut config = SfsConfig::figure2(400.0, WritePolicy::Gathering)
        .with_fault_plan(plan.clone())
        .with_loss(0.02);
    config.duration = horizon;
    // run() audits that nothing vanishes: every issued call either
    // completed or was counted as given up — never silently dropped.
    let mut system = SfsSystem::new(config);
    let point = system.run();
    let stats = system.server().stats();
    assert!(stats.crashes >= 1, "the seeded schedule never crashed");
    assert!(system.retransmissions() > 0);
    assert!(point.achieved_ops_per_sec > 0.0);

    // The same seed replays to the same run, byte for byte.
    let mut config = SfsConfig::figure2(400.0, WritePolicy::Gathering)
        .with_fault_plan(plan)
        .with_loss(0.02);
    config.duration = horizon;
    let mut replay = SfsSystem::new(config);
    let again = replay.run();
    assert_eq!(format!("{point:?}"), format!("{again:?}"));
    assert_eq!(replay.counts(), system.counts());
    assert_eq!(replay.gave_up(), system.gave_up());

    // The Prestoserve figure: a battery failure mid-run, still no loss.
    let mut config =
        SfsConfig::figure3(400.0, WritePolicy::Gathering).with_fault_plan(FaultPlan::new().at(
            SimTime::ZERO + Duration::from_secs(2),
            FaultKind::BatteryFailure {
                repair_after: Duration::from_secs(2),
            },
        ));
    config.duration = Duration::from_secs(6);
    let mut presto = SfsSystem::new(config);
    presto.run();
    assert_eq!(presto.server().stats().battery_failures, 1);

    // The NFSv3 write path under the same seeded crashes and steady loss:
    // WRITE(UNSTABLE)+COMMIT through a bounded 4096-page cache.  Background
    // writeback, COMMIT flushes, the boot-verifier bump and the post-reboot
    // retransmissions must still account for every call.
    let mut config = SfsConfig::figure2(400.0, WritePolicy::Gathering)
        .with_fault_plan(FaultPlan::seeded_crashes(
            0xC4A5,
            Duration::from_secs(3),
            horizon,
        ))
        .with_loss(0.02)
        .with_unified_cache(4096)
        .with_stability(StabilityMode::Unstable);
    config.duration = horizon;
    let mut unstable = SfsSystem::new(config);
    unstable.run();
    let stats = unstable.server().stats();
    assert!(stats.crashes >= 1, "the seeded schedule never crashed");
    assert!(stats.unstable_writes > 0, "no write ever went UNSTABLE");
    assert!(stats.commits > 0, "no COMMIT was ever processed");
}

#[test]
fn partitioned_unstable_sfs_replays_the_crash_schedule_bit_for_bit() {
    // The NFSv3 write path under the seeded crash schedule, 2% steady loss
    // and a clean network partition (every datagram dropped for 400 ms at
    // t = 5 s): WRITE(UNSTABLE)+COMMIT through a bounded 4096-page cache.
    // Run twice from the same seed, background writeback, COMMIT flushes,
    // the boot-verifier bump and the retransmissions after each reboot and
    // after the partition heals must replay bit for bit.
    let horizon = Duration::from_secs(8);
    let make = || {
        let plan = FaultPlan::seeded_crashes(0xC4A5, Duration::from_secs(3), horizon).at(
            SimTime::ZERO + Duration::from_secs(5),
            FaultKind::LossBurst {
                duration: Duration::from_millis(400),
                probability: 1.0,
                segment: None,
            },
        );
        let mut config = SfsConfig::figure2(400.0, WritePolicy::Gathering)
            .with_fault_plan(plan)
            .with_loss(0.02)
            .with_unified_cache(4096)
            .with_stability(StabilityMode::Unstable);
        config.duration = horizon;
        SfsSystem::new(config)
    };
    let mut first = make();
    let point = first.run();
    let stats = first.server().stats();
    assert!(stats.crashes >= 1, "the seeded schedule never crashed");
    assert!(stats.unstable_writes > 0, "no write ever went UNSTABLE");
    assert!(stats.commits > 0, "no COMMIT was ever processed");
    assert!(first.retransmissions() > 0);

    let mut replay = make();
    let again = replay.run();
    assert_eq!(format!("{point:?}"), format!("{again:?}"));
    assert_eq!(replay.counts(), first.counts());
    assert_eq!(replay.events_processed(), first.events_processed());
    assert_eq!(replay.retransmissions(), first.retransmissions());
    assert_eq!(replay.gave_up(), first.gave_up());
    assert_eq!(
        format!("{:?}", replay.server().stats()),
        format!("{stats:?}")
    );
}

// ---------------------------------------------------------------------------
// Give-up is a counted failure, never a silent success.
// ---------------------------------------------------------------------------

#[test]
fn exhausted_retransmits_are_counted_never_silent() {
    // A clean partition (probability 1.0) that outlasts the client's entire
    // retransmit budget: 50 ms, then 100, 200, 400 — all inside the 5 s
    // outage, so the affected biods must give up.
    let plan = FaultPlan::new().at(
        SimTime::ZERO + Duration::from_millis(100),
        FaultKind::LossBurst {
            duration: Duration::from_secs(5),
            probability: 1.0,
            segment: None,
        },
    );
    let mut system = FileCopySystem::new(
        copy_config(WritePolicy::Gathering)
            .with_fault_plan(plan)
            .with_client_retry(Duration::from_millis(50), 3),
    );
    let result = system.run();
    assert!(
        result.gave_up > 0,
        "a total partition longer than the whole backoff budget must force give-up"
    );
    // The contract: gave_up > 0 can never coexist with completed == true.
    assert!(
        !result.completed,
        "a run that abandoned writes reported success"
    );
    assert!(result.retransmissions > 0);
}

// ---------------------------------------------------------------------------
// The §6.9 hazard, rebooted: a pre-crash retransmission meets a fresh
// duplicate request cache.
// ---------------------------------------------------------------------------

#[test]
fn retransmission_of_a_pre_crash_gathered_write_re_executes_safely() {
    // The zero-byte-write family of crash bugs: a write is gathered (in the
    // dupcache as InProgress, data staged in volatile memory), the server
    // dies before the flush, and the client's retransmission arrives after
    // reboot.  The fresh dupcache must treat it as new work and re-execute
    // it fully — replaying a stale "in progress" answer, or finding a stale
    // completed entry, would acknowledge a write whose data no longer
    // exists anywhere.
    const FILL: u8 = 0xAB;
    const LEN: u32 = 8192;
    let mut cfg = ServerConfig::standard();
    cfg.policy = WritePolicy::Gathering;
    let mut server = NfsServer::new(cfg);
    let root = server.fs().root();
    let ino = server.fs_mut().create(root, "target", 0o644, 0).unwrap();
    let fh = server.handle_for_ino(ino).unwrap();
    let call = NfsCall::new(
        Xid(42),
        NfsCallBody::Write(WriteArgs::new(fh, 0, vec![FILL; LEN as usize])),
    );

    // Deliver the write; the gathering window opens (a Wakeup is pending)
    // but the server crashes before the flush timer fires — the reply was
    // never sent, the staged data and the dupcache entry are gone.
    let wire = call.wire_size();
    let mut stale_wakeups = Vec::new();
    for action in server.handle(
        SimTime::ZERO,
        ServerInput::Datagram {
            client: 1,
            call: call.clone(),
            wire_size: wire,
            fragments: 6,
        },
    ) {
        match action {
            ServerAction::Wakeup { at, token } => stale_wakeups.push((at, token)),
            ServerAction::Reply { .. } => panic!("gathered write replied before its flush"),
        }
    }
    assert!(!stale_wakeups.is_empty(), "gathering never opened a window");
    let recovered = server.crash(SimTime::from_millis(2));
    assert!(recovered > SimTime::from_millis(2));
    assert_eq!(server.stats().crashes, 1);
    // Nothing was acknowledged, so nothing acknowledged was lost.
    assert_eq!(server.stats().lost_acked_bytes, 0);

    // The pre-crash flush timer fires into the rebooted server: its token
    // belongs to a dead incarnation and must be ignored.
    let mut inputs: Vec<(SimTime, ServerInput)> = stale_wakeups
        .into_iter()
        .map(|(at, token)| (at.max(recovered), ServerInput::Wakeup { token }))
        .collect();
    // The client's retransmission of the identical call arrives after
    // recovery.  The dupcache is fresh — this must re-execute, not replay.
    let retransmit = call.clone();
    let wire = retransmit.wire_size();
    inputs.push((
        recovered + Duration::from_millis(1),
        ServerInput::Datagram {
            client: 1,
            call: retransmit,
            wire_size: wire,
            fragments: 6,
        },
    ));
    let replies = server.run_script(inputs);
    assert!(replies.iter().all(|(_, reply)| reply.body.is_ok()));
    assert_eq!(
        replies.len(),
        1,
        "the re-executed write was not acknowledged"
    );
    assert_eq!(server.uncommitted_bytes(), 0);
    assert_eq!(server.dupcache_evicted_in_progress(), 0);

    // The on-disk oracle: the acknowledged range holds exactly the written
    // pattern — not zeros, not a torn page.
    let mut fs = server.fs().clone();
    let data = fs.read(ino, 0, LEN as u64).expect("file readable");
    let bytes = data.to_vec();
    assert_eq!(bytes.len(), LEN as usize);
    assert!(
        bytes.iter().all(|&b| b == FILL),
        "re-executed write left wrong bytes on disk"
    );
}

// ---------------------------------------------------------------------------
// Crashes under an armed client-state layer: the state oracle stays clean.
// ---------------------------------------------------------------------------

#[test]
fn leases_survive_crashes_with_a_clean_state_oracle() {
    // Repeated crashes under leased load: every reboot wipes the volatile
    // state table and opens a grace window; clients re-register, reclaim
    // their locks, and the state oracle must find no write admitted on an
    // expired lease and no lock granted over an unreclaimed pre-crash hold.
    let secs = 8u64;
    let horizon = Duration::from_secs(secs);
    let mut config = SfsConfig::figure2(400.0, WritePolicy::Gathering)
        .with_shards(4)
        .with_leases(true)
        .with_lease_timing(
            Duration::from_millis(200),
            Duration::from_secs(2),
            Duration::from_millis(1500),
        )
        .with_fault_plan(FaultPlan::crash_every(Duration::from_secs(2), horizon))
        .with_retry(Duration::from_millis(300), 6);
    config.duration = horizon;
    let mut system = SfsSystem::new(config);
    system.run();

    // run() audits the durability contract, call conservation and the
    // state oracle (no lock granted over an unreclaimed hold, no write
    // admitted on a dead lease) across every crash and grace window.
    assert!(
        system.server().stats().crashes >= 2,
        "the schedule never crashed"
    );
    assert!(system.observed_server_reboots() > 0);
    let st = system.server().state_stats();
    // Recovery actually happened: leases re-registered after reboots and at
    // least one lock made it through a grace-window reclaim.
    assert!(st.leases_granted > 0);
    assert!(st.locks_reclaimed > 0, "no grace-period reclaim ever ran");
    let (_, reclaims_seen) = system.lock_grants();
    assert!(reclaims_seen > 0, "no client observed a reclaim grant");
    // Table invariant: no lock outlives its owner's lease.
    assert!(system.server().held_locks() <= system.server().active_lease_clients());
}

#[test]
fn abandoned_leases_expire_and_their_locks_are_orphaned() {
    // Streams that exhaust their retransmission budget give up and go
    // lease-dead: they stop renewing.  The server-side expiry sweep must
    // collect every such lease and orphan its locks — nothing may leak.
    let mut system = abandoning_streams(1, 300.0, 8);
    system.run();

    assert!(
        system.gave_up() > 0,
        "the loss schedule never broke a stream"
    );
    let dead = system.lease_dead_streams();
    assert!(dead > 0, "no stream went lease-dead despite give-ups");
    let st = system.server().state_stats();
    // Every abandoned lease was swept, and sweeping orphaned its state.
    assert!(
        st.leases_expired > 0,
        "{dead} dead streams but the expiry sweep never fired"
    );
    assert!(st.state_orphaned > 0, "expired leases left no orphan trail");
    // The table invariant holds through the churn.
    assert!(system.server().held_locks() <= system.server().active_lease_clients());
}

/// `clients` leased streams at `load` ops/s for `secs` under 8 % loss with
/// a two-retry budget, on a 4-way-sharded server: some calls give up.
fn abandoning_streams(clients: usize, load: f64, secs: u64) -> SfsSystem {
    let mut config = SfsConfig::figure2(load, WritePolicy::Gathering)
        .with_clients(clients)
        .with_shards(4)
        .with_leases(true)
        .with_lease_timing(
            Duration::from_millis(300),
            Duration::from_millis(900),
            Duration::from_millis(300),
        )
        .with_loss(0.08)
        .with_retry(Duration::from_millis(150), 2);
    config.duration = Duration::from_secs(secs);
    SfsSystem::new(config)
}

#[test]
fn abandoned_lease_calls_are_counted_on_the_lease_ledger() {
    // The abandoned-streams cell of `state_sweep --smoke`.  A RENEW or LOCK
    // that gives up is a lease call, so it must land in the lease ledger,
    // never in the workload's `gave_up`; run() audits that both ledgers
    // balance (issued = completed + gave up), which a misfiled give-up
    // breaks on both.
    let mut system = abandoning_streams(16, 150.0, 4);
    system.run();
    let (_, _, lease_gave_up) = system.lease_counts();
    assert!(lease_gave_up > 0, "no RENEW or LOCK was abandoned");
    assert!(system.gave_up() > 0, "no workload call was abandoned");
    assert!(system.lease_dead_streams() > 0);
}
