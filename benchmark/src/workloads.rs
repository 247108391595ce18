//! The four workloads: what each one simulates, how one repetition runs, and
//! the simulated values and safety oracles a repetition yields.

use std::time::Instant;

use wg_bench::TABLES;
use wg_client::FileWriterClient;
use wg_nfsproto::payload::materialize_count;
use wg_server::{NfsServer, StabilityMode, WritePolicy};
use wg_simcore::{CalStats, Duration, FaultKind, FaultPlan, LatencyStat, SimRng, SimTime};
use wg_workload::sfs::SfsSystem;
use wg_workload::{ExperimentConfig, FileCopyResult, FileCopySystem, SfsConfig};

use crate::reference;
use crate::stats::{capacity, geomean, mean, tail_is_supported, LadderPoint};
use crate::traced::{self, Tracer};

/// SPEC SFS 1.0 caps mean response time at 50 ms.
const SFS_LATENCY_CAP_MS: f64 = 50.0;
/// A ladder point must complete this share of the calls it issues.
const SFS_MIN_DELIVERED: f64 = 0.98;
/// The ladder's fixed-rate point for latency and residence (ops/s).
const LADDER_HEADLINE_LOAD: f64 = 200.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CopyTables,
    SfsLadder,
    SfsFleet,
    SfsCrash,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CopyTables,
        Workload::SfsLadder,
        Workload::SfsFleet,
        Workload::SfsCrash,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CopyTables => "copy_tables",
            Workload::SfsLadder => "sfs_ladder",
            Workload::SfsFleet => "sfs_fleet",
            Workload::SfsCrash => "sfs_crash",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `Full` is the measured size; `Smoke` shrinks every workload so all four
/// run in a few seconds (CI and unit tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// The inputs of one repetition, built from the seed.
pub enum Plan {
    /// File-copy cells, run one after the other.
    Copy(Vec<ExperimentConfig>),
    /// SFS points; `headline` indexes the point whose latency, residence
    /// and write rate are reported, and `ladder` says whether the points
    /// form an offered-load ladder whose capacity is the throughput metric.
    Sfs {
        points: Vec<SfsConfig>,
        headline: usize,
        ladder: bool,
    },
}

impl Plan {
    pub fn new(workload: Workload, size: Size, seed: u64) -> Plan {
        let smoke = size == Size::Smoke;
        match workload {
            Workload::CopyTables => Plan::Copy(copy_cells(seed, smoke)),
            Workload::SfsLadder => {
                let loads: Vec<f64> = if smoke {
                    vec![100.0, LADDER_HEADLINE_LOAD, 300.0]
                } else {
                    (1..=15).map(|k| 20.0 * k as f64).collect()
                };
                let headline = loads
                    .iter()
                    .position(|&l| l == LADDER_HEADLINE_LOAD)
                    .expect("the ladder includes its headline load");
                let secs = if smoke { 6 } else { 300 };
                let points = loads
                    .into_iter()
                    .map(|load| {
                        let mut config = SfsConfig::figure2(load, WritePolicy::Gathering);
                        config.duration = Duration::from_secs(secs);
                        config.seed = seed;
                        config
                    })
                    .collect();
                Plan::Sfs {
                    points,
                    headline,
                    ladder: true,
                }
            }
            Workload::SfsFleet => {
                let (rate, clients, secs) = if smoke {
                    (300.0, 32, 4)
                } else {
                    (1200.0, 256, 60)
                };
                let mut config =
                    SfsConfig::scaled(rate, WritePolicy::Gathering, clients).with_leases(true);
                config.prestoserve = true;
                config.duration = Duration::from_secs(secs);
                config.seed = seed;
                Plan::single(config)
            }
            Workload::SfsCrash => {
                let secs = if smoke { 20 } else { 1440 };
                let horizon = Duration::from_secs(secs);
                let mut config = SfsConfig::figure2(250.0, WritePolicy::Gathering)
                    .with_stability(StabilityMode::Unstable)
                    .with_unified_cache(256)
                    .with_dirty_ratio(0.1)
                    .with_loss(0.01)
                    .with_fault_plan(jittered_crashes(seed, Duration::from_secs(5), horizon));
                config.duration = horizon;
                config.seed = seed;
                Plan::single(config)
            }
        }
    }

    fn single(config: SfsConfig) -> Plan {
        Plan::Sfs {
            points: vec![config],
            headline: 0,
            ladder: false,
        }
    }
}

/// All 68 cells of Tables 1–6: both policies at every biod column (at smoke
/// size, only the first and last column).  A sequential copy has no random
/// input, so the seed draws each cell's file size: the paper's 10 MB plus
/// 0–63 extra 8 KB blocks.
fn copy_cells(seed: u64, smoke: bool) -> Vec<ExperimentConfig> {
    let mut rng = SimRng::seed_from(seed);
    // A cell must write at least 1,000 blocks for its residence p99 to
    // have ten samples beyond it.
    let (base, extra_blocks) = if smoke { (8 << 20, 8) } else { (10 << 20, 64) };
    let mut cells = Vec::new();
    for spec in &TABLES {
        let columns = spec.biods.len();
        for policy in [WritePolicy::Standard, WritePolicy::Gathering] {
            for (column, &biods) in spec.biods.iter().enumerate() {
                if smoke && column != 0 && column != columns - 1 {
                    continue;
                }
                let size = base + 8192 * rng.next_below(extra_blocks);
                cells.push(
                    ExperimentConfig::new(spec.network, biods, policy)
                        .with_presto(spec.prestoserve)
                        .with_spindles(spec.spindles)
                        .with_file_size(size),
                );
            }
        }
    }
    cells
}

/// One crash per `interval`: crash `k` falls uniformly in
/// `[k - ½, k + ½) × interval`, drawn from the seed, and none falls after
/// the horizon.  A Poisson process of the same mean would let the crash
/// *count* vary by ±20 % between seeds and drown every other effect; this
/// keeps the count fixed and varies only the instants.
fn jittered_crashes(seed: u64, interval: Duration, horizon: Duration) -> FaultPlan {
    let mut rng = SimRng::seed_from(seed ^ 0xC2A5_11ED);
    let step = interval.as_nanos();
    let mut plan = FaultPlan::new();
    for k in 1..horizon.as_nanos() / step {
        let at = k * step - step / 2 + rng.next_below(step);
        plan = plan.at(
            SimTime::ZERO + Duration::from_nanos(at),
            FaultKind::ServerCrash,
        );
    }
    plan
}

/// What one repetition simulated.  Every field is a pure function of the
/// plan, so repetitions must agree bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// The end-to-end simulated metrics (`sim_*`).
    pub sim: Vec<(&'static str, f64)>,
    /// Per-layer simulated counters.
    pub layers: Vec<(&'static str, f64)>,
    /// Printed and recorded for readers, never gated: ladder points, the
    /// residence median, the error against the paper's tables.
    pub info: Vec<(String, f64, &'static str)>,
    /// NFS calls the simulated clients issued.
    pub attempted: u64,
    /// Issued calls that never completed (dropped, abandoned, unanswered).
    pub failed: u64,
    /// One line per cell with its full result, for bit-identity checks.
    pub fingerprints: Vec<String>,
}

/// Host seconds of one repetition: in the systems' constructors, and in
/// everything else (running, quiescing, collecting statistics, dropping).
#[derive(Clone, Copy, Debug)]
pub struct RepTimes {
    pub setup_s: f64,
    pub run_s: f64,
}

/// Safety-oracle violations collected over a repetition.
#[derive(Default)]
pub struct Checks(Vec<String>);

impl Checks {
    pub fn zero(&mut self, cell: &str, what: &str, value: u64) {
        if value != 0 {
            self.0.push(format!("{cell}: {what} = {value}, must be 0"));
        }
    }

    pub fn that(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.0.push(message());
        }
    }

    pub fn finish(self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "correctness check failed:\n  {}",
                self.0.join("\n  ")
            ))
        }
    }
}

/// Per-layer sums over every cell of a repetition.
#[derive(Default)]
struct Tally {
    events: u64,
    scheduled: u64,
    sched: CalStats,
    materializations: u64,
    observed_s: f64,
    cpu_busy_s: f64,
    batched_writes: u64,
    batches: u64,
    metadata_flushes: u64,
    procrastination_hits: u64,
    procrastination_misses: u64,
    socket_drops: u64,
    duplicate_requests: u64,
    /// Sums of per-cell mean × count, for the pooled means (pooling the
    /// samples themselves would make the benchmark's own memory grow with
    /// the workload).
    residence_ns: f64,
    residences: u64,
    write_residence_ns: f64,
    write_residences: u64,
    evicted_in_progress: u64,
    leases_granted: u64,
    renewals: u64,
    table_bytes: u64,
    grace_conflicts: u64,
    expired_lease_writes: u64,
    cache_evictions: u64,
    throttle_stalls: u64,
    writeback_blocks: u64,
    dirty_bytes: u64,
    transfers: u64,
    transfer_bytes: u64,
    spindle_busy_s: f64,
    spindle_observed_s: f64,
    max_queue_depth: u64,
    spindle_busy_max_pct: f64,
    pending_stable_bytes: u64,
    client_retransmissions: u64,
    client_blocked_s: f64,
    commits_sent: u64,
    attempted: u64,
    completed: u64,
    gave_up: u64,
    retransmissions: u64,
    name_mints: u64,
}

impl Tally {
    /// Fold in one finished cell's server and scheduler, and run the
    /// oracles every cell must pass.
    fn server(
        &mut self,
        cell: &str,
        server: &NfsServer,
        observed: Duration,
        scheduler: (u64, u64, u64, CalStats),
        materializations: u64,
        checks: &mut Checks,
    ) {
        let (events, scheduled, clamped_past, sched) = scheduler;
        let stats = server.stats();
        let state = server.state_stats();
        let ufs = server.fs().counters();
        let device = server.device_stats();
        let spindles = server.spindle_stats();
        let secs = observed.as_secs_f64();
        checks.zero(cell, "clamped_past", clamped_past);
        checks.zero(
            cell,
            "evicted_in_progress",
            server.dupcache_evicted_in_progress(),
        );
        checks.zero(cell, "payload materialisations", materializations);
        checks.zero(cell, "lost_acked_bytes", stats.lost_acked_bytes);
        checks.zero(cell, "grace_conflicts", state.grace_conflicts);
        checks.zero(cell, "expired_lease_writes", state.expired_lease_writes);

        self.events += events;
        self.scheduled += scheduled;
        self.sched.absorb(&sched);
        self.materializations += materializations;
        self.observed_s += secs;
        self.cpu_busy_s += server.cpu_utilization_percent(observed) / 100.0 * secs;
        for (k, &count) in stats.batch_sizes.iter().enumerate() {
            self.batched_writes += k as u64 * count;
            self.batches += count;
        }
        self.metadata_flushes += stats.metadata_flushes;
        self.procrastination_hits += stats.procrastination_hits;
        self.procrastination_misses += stats.procrastination_misses;
        self.socket_drops += server.socket_drops();
        self.duplicate_requests += stats.duplicate_requests;
        for (sum, n, stat) in [
            (
                &mut self.residence_ns,
                &mut self.residences,
                &stats.residence,
            ),
            (
                &mut self.write_residence_ns,
                &mut self.write_residences,
                &stats.write_residence,
            ),
        ] {
            *sum += stat.mean().as_nanos() as f64 * stat.count() as f64;
            *n += stat.count() as u64;
        }
        self.evicted_in_progress += server.dupcache_evicted_in_progress();
        self.leases_granted += state.leases_granted;
        self.renewals += state.renewals;
        self.table_bytes += server.state_table_bytes();
        self.grace_conflicts += state.grace_conflicts;
        self.expired_lease_writes += state.expired_lease_writes;
        self.cache_evictions += ufs.cache_evictions;
        self.throttle_stalls += ufs.throttle_stalls;
        self.writeback_blocks += ufs.writeback_blocks;
        self.dirty_bytes += server.uncommitted_bytes();
        self.transfers += device.transfers.events();
        self.transfer_bytes += device.transfers.bytes();
        self.spindle_busy_s += device.busy.busy_time().as_secs_f64();
        self.spindle_observed_s += secs * spindles.len() as f64;
        for spindle in &spindles {
            self.max_queue_depth = self.max_queue_depth.max(spindle.max_queue_depth);
            self.spindle_busy_max_pct = self
                .spindle_busy_max_pct
                .max(spindle.busy_percent(observed));
        }
        self.pending_stable_bytes += server.pending_stable_bytes();
    }

    /// Fold in one finished copy cell; returns its fingerprint and its
    /// residence p99 and median (ms).
    #[allow(clippy::too_many_arguments)]
    fn copy_cell(
        &mut self,
        cell: &str,
        result: &FileCopyResult,
        server: &NfsServer,
        client: &FileWriterClient,
        scheduler: (u64, u64, u64, CalStats),
        materializations: u64,
        checks: &mut Checks,
    ) -> (String, f64, f64) {
        checks.that(result.completed, || {
            format!("{cell}: the copy did not complete")
        });
        let observed = Duration::from_secs_f64(result.elapsed_secs);
        self.server(cell, server, observed, scheduler, materializations, checks);
        let stats = client.stats();
        self.client_retransmissions += stats.retransmissions;
        self.client_blocked_s += stats.blocked_time.as_secs_f64();
        self.commits_sent += stats.commits_sent;
        self.attempted += stats.requests_sent + stats.commits_sent;
        self.completed += stats.requests_sent + stats.commits_sent - stats.gave_up;
        self.gave_up += stats.gave_up;
        self.retransmissions += stats.retransmissions;
        let residence = &server.stats().residence;
        let fingerprint = format!(
            "{} events={} client={:?} device={:?}",
            result.to_json(),
            scheduler.0,
            stats,
            server.device_stats()
        );
        (
            fingerprint,
            residence_p99_ms(residence, checks),
            residence.percentile(50.0).as_millis_f64(),
        )
    }

    fn layers(&self) -> Vec<(&'static str, f64)> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let failed = self.attempted - self.completed;
        vec![
            ("simcore.events", self.events as f64),
            ("simcore.scheduled", self.scheduled as f64),
            ("simcore.sched_max_depth", self.sched.max_depth as f64),
            ("simcore.sched_resizes", self.sched.resizes as f64),
            ("simcore.sched_rotations", self.sched.rotations as f64),
            ("nfsproto.materializations", self.materializations as f64),
            (
                "server.cpu_busy_pct",
                100.0 * ratio(self.cpu_busy_s, self.observed_s),
            ),
            (
                "server.writes_per_flush",
                ratio(self.batched_writes as f64, self.batches as f64),
            ),
            ("server.metadata_flushes", self.metadata_flushes as f64),
            (
                "server.procrastination_hit_ratio",
                ratio(
                    self.procrastination_hits as f64,
                    (self.procrastination_hits + self.procrastination_misses) as f64,
                ),
            ),
            ("server.socket_drops", self.socket_drops as f64),
            ("server.duplicate_requests", self.duplicate_requests as f64),
            (
                "server.residence_mean_ms",
                ratio(self.residence_ns, self.residences as f64) / 1e6,
            ),
            (
                "server.write_residence_mean_ms",
                ratio(self.write_residence_ns, self.write_residences as f64) / 1e6,
            ),
            (
                "server.evicted_in_progress",
                self.evicted_in_progress as f64,
            ),
            ("state.leases_granted", self.leases_granted as f64),
            ("state.renewals", self.renewals as f64),
            ("state.table_bytes", self.table_bytes as f64),
            ("state.grace_conflicts", self.grace_conflicts as f64),
            (
                "state.expired_lease_writes",
                self.expired_lease_writes as f64,
            ),
            ("ufs.cache_evictions", self.cache_evictions as f64),
            ("ufs.throttle_stalls", self.throttle_stalls as f64),
            ("ufs.writeback_blocks", self.writeback_blocks as f64),
            ("ufs.dirty_bytes_after_quiesce", self.dirty_bytes as f64),
            ("disk.transfers", self.transfers as f64),
            (
                "disk.kb_per_transfer",
                ratio(self.transfer_bytes as f64 / 1024.0, self.transfers as f64),
            ),
            (
                "disk.busy_pct",
                100.0 * ratio(self.spindle_busy_s, self.spindle_observed_s),
            ),
            ("disk.max_queue_depth", self.max_queue_depth as f64),
            ("disk.spindle_busy_max_pct", self.spindle_busy_max_pct),
            (
                "nvram.pending_stable_bytes_end",
                self.pending_stable_bytes as f64,
            ),
            ("client.retransmissions", self.client_retransmissions as f64),
            (
                "client.blocked_pct",
                100.0 * ratio(self.client_blocked_s, self.observed_s),
            ),
            ("client.commits_sent", self.commits_sent as f64),
            ("workload.ops_attempted", self.attempted as f64),
            ("workload.ops_completed", self.completed as f64),
            ("workload.gave_up", self.gave_up as f64),
            ("workload.retransmissions", self.retransmissions as f64),
            ("workload.name_mints", self.name_mints as f64),
            (
                "workload.failed_frac",
                ratio(failed as f64, self.attempted as f64),
            ),
        ]
    }
}

/// Server residence p99, gated on having enough samples beyond it.
fn residence_p99_ms(residence: &LatencyStat, checks: &mut Checks) -> f64 {
    checks.that(tail_is_supported(residence.count(), 99.0), || {
        format!(
            "residence p99 rests on {} samples, fewer than ten lie beyond it",
            residence.count()
        )
    });
    residence.percentile(99.0).as_millis_f64()
}

/// Run one repetition of a plan.  `first` adds the expensive on-disk
/// re-read oracle (run once per process, in the discarded warm-up).  With a
/// tracer, copy cells run through the traced outside driver and SFS runs
/// are wrapped in spans.
pub fn run_rep(
    plan: &Plan,
    first: bool,
    tracer: Option<&mut Tracer>,
) -> Result<(Outcome, RepTimes), String> {
    let start = Instant::now();
    let mut checks = Checks::default();
    let mut tally = Tally::default();
    let mut setup_s = 0.0;
    let (sim, info, fingerprints) = match plan {
        Plan::Copy(cells) => copy_rep(cells, first, tracer, &mut tally, &mut checks, &mut setup_s),
        Plan::Sfs {
            points,
            headline,
            ladder,
        } => sfs_rep(
            points,
            *headline,
            *ladder,
            tracer,
            &mut tally,
            &mut checks,
            &mut setup_s,
        ),
    };
    for &(name, value) in &sim {
        checks.that(value.is_finite() && value > 0.0, || {
            format!("{name} = {value}: the workload did not exercise what it measures")
        });
    }
    checks.finish()?;
    let outcome = Outcome {
        sim,
        layers: tally.layers(),
        info,
        attempted: tally.attempted,
        failed: tally.attempted - tally.completed,
        fingerprints,
    };
    let total_s = start.elapsed().as_secs_f64();
    Ok((
        outcome,
        RepTimes {
            setup_s,
            run_s: total_s - setup_s,
        },
    ))
}

type Sim = Vec<(&'static str, f64)>;
type Info = Vec<(String, f64, &'static str)>;

/// Build every cell first (the timed set-up), then run them one by one,
/// dropping each as soon as its statistics are taken.  A cell takes
/// microseconds to build: built back to back, the set-up time is the
/// constructors' work; built after each run, it would be mostly cache misses.
fn copy_rep(
    cells: &[ExperimentConfig],
    first: bool,
    tracer: Option<&mut Tracer>,
    tally: &mut Tally,
    checks: &mut Checks,
    setup_s: &mut f64,
) -> (Sim, Info, Vec<String>) {
    let configs = cells.to_vec();
    let mut results: Vec<FileCopyResult> = Vec::with_capacity(cells.len());
    let mut cells_done = Vec::with_capacity(cells.len());
    let setup = Instant::now();
    match tracer {
        Some(tracer) => {
            let runs: Vec<_> = configs.into_iter().map(traced::CopyRun::new).collect();
            *setup_s = setup.elapsed().as_secs_f64();
            for (index, mut run) in runs.into_iter().enumerate() {
                let before = materialize_count();
                let result = run.run(tracer, index as u32);
                let materializations = materialize_count() - before;
                cells_done.push(tally.copy_cell(
                    &format!("cell {index}"),
                    &result,
                    &run.server,
                    &run.client,
                    run.scheduler(),
                    materializations,
                    checks,
                ));
                results.push(result);
            }
        }
        None => {
            let systems: Vec<_> = configs.into_iter().map(FileCopySystem::new).collect();
            *setup_s = setup.elapsed().as_secs_f64();
            for (index, mut system) in systems.into_iter().enumerate() {
                let before = materialize_count();
                let result = system.run();
                let materializations = materialize_count() - before;
                let cell = format!("cell {index}");
                if first {
                    checks.zero(
                        &cell,
                        "lost acked bytes on disk",
                        system.lost_acked_bytes_on_disk(),
                    );
                }
                let scheduler = (
                    system.events_processed(),
                    system.scheduled_total(),
                    system.clamped_past(),
                    system.sched_stats(),
                );
                cells_done.push(tally.copy_cell(
                    &cell,
                    &result,
                    system.server(),
                    system.client(),
                    scheduler,
                    materializations,
                    checks,
                ));
                results.push(result);
            }
        }
    }
    let p99s: Vec<f64> = cells_done.iter().map(|c| c.1).collect();
    let p50s: Vec<f64> = cells_done.iter().map(|c| c.2).collect();
    let fingerprints = cells_done.into_iter().map(|c| c.0).collect();
    let kbs: Vec<f64> = results.iter().map(|r| r.client_write_kb_per_sec).collect();
    let elapsed: f64 = results.iter().map(|r| r.elapsed_secs).sum();
    let sim = vec![
        ("sim_ops_s", tally.completed as f64 / elapsed),
        ("sim_write_kb_s", geomean(&kbs)),
        ("sim_latency_mean_ms", 1e3 * elapsed / results.len() as f64),
        ("sim_residence_p99_ms", mean(&p99s)),
    ];
    let mut info = vec![("server.residence_p50_ms".to_string(), mean(&p50s), "ms")];
    info.extend(paper_errors(cells, &results));
    (sim, info, fingerprints)
}

/// Mean absolute error (%) of the Table 1 and Table 3 client KB/s against
/// the paper.  Validation only: the model is calibrated, not fitted, so this
/// is a reading, never a gate.
fn paper_errors(cells: &[ExperimentConfig], results: &[FileCopyResult]) -> Info {
    use wg_bench::paper;
    let mut info = Vec::new();
    if cells.len() != TABLES.iter().map(|t| 2 * t.biods.len()).sum::<usize>() {
        return info; // not the tables' cell set
    }
    let tables = [
        (0usize, "t1", paper::T1_WITHOUT_KBS, paper::T1_WITH_KBS),
        (2, "t3", paper::T3_WITHOUT_KBS, paper::T3_WITH_KBS),
    ];
    for (table, tag, without, with) in tables {
        let spec = &TABLES[table];
        let offset: usize = TABLES[..table].iter().map(|t| 2 * t.biods.len()).sum();
        let columns = spec.biods.len();
        for (policy, reference, label) in [(0, without, "without"), (1, with, "with")] {
            let first = offset + policy * columns;
            debug_assert_eq!(cells[first].biods, spec.biods[0]);
            let err: f64 = results[first..first + columns]
                .iter()
                .zip(reference)
                .map(|(r, paper)| (r.client_write_kb_per_sec - paper).abs() / paper)
                .sum::<f64>()
                / columns as f64;
            info.push((format!("paper.{tag}_{label}_err_pct"), 100.0 * err, "%"));
        }
    }
    info
}

/// Build each point just before it runs (the timed set-up), run it, quiesce
/// its server and take its statistics.  A point sizes its buffers for its
/// whole window, so building every point first would hold them all at once.
fn sfs_rep(
    points: &[SfsConfig],
    headline: usize,
    ladder: bool,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
    checks: &mut Checks,
    setup_s: &mut f64,
) -> (Sim, Info, Vec<String>) {
    let mut ladder_points = Vec::with_capacity(points.len());
    let mut fingerprints = Vec::with_capacity(points.len());
    let mut info = Vec::new();
    let mut sim = Vec::new();
    for (index, config) in points.iter().enumerate() {
        let setup = Instant::now();
        let mut system =
            traced::workload_span(tracer.as_deref_mut(), || SfsSystem::new(config.clone()));
        *setup_s += setup.elapsed().as_secs_f64();
        let cell = format!("point {index} ({} ops/s)", config.offered_ops_per_sec);
        let duration = config.duration;
        let before = materialize_count();
        let point = traced::workload_span(tracer.as_deref_mut(), || {
            let point = system.run();
            system.quiesce_server();
            point
        });
        let materializations = materialize_count() - before;
        let scheduler = (
            system.events_processed(),
            system.scheduled_total(),
            system.clamped_past(),
            system.sched_stats(),
        );
        tally.server(
            &cell,
            system.server(),
            duration,
            scheduler,
            materializations,
            checks,
        );
        let (issued, completed) = system.counts();
        let gave_up = system.gave_up();
        if config.faults_enabled() {
            checks.that(issued == completed + gave_up, || {
                format!("{cell}: issued {issued} != completed {completed} + gave_up {gave_up}")
            });
            checks.zero(
                &cell,
                "dirty bytes after quiesce",
                system.server().uncommitted_bytes(),
            );
        }
        tally.attempted += issued;
        tally.completed += completed;
        tally.gave_up += gave_up;
        tally.retransmissions += system.retransmissions();
        tally.name_mints += system.name_mints();
        fingerprints.push(format!(
            "{} issued={issued} completed={completed} gave_up={gave_up} events={} retrans={}",
            point.to_json(),
            system.events_processed(),
            system.retransmissions()
        ));
        ladder_points.push(LadderPoint {
            offered: point.offered_ops_per_sec,
            delivered: completed as f64 / issued.max(1) as f64,
            latency_ms: point.avg_latency_ms,
        });
        if ladder {
            info.push((
                format!("ladder.{}ops.latency_ms", point.offered_ops_per_sec),
                point.avg_latency_ms,
                "ms",
            ));
        }
        if index == headline {
            let stats = system.server().stats();
            let write_kb_s =
                stats.writes_completed.bytes() as f64 / 1024.0 / duration.as_secs_f64();
            sim = vec![
                ("sim_ops_s", point.achieved_ops_per_sec),
                ("sim_write_kb_s", write_kb_s),
                ("sim_latency_mean_ms", point.avg_latency_ms),
                (
                    "sim_residence_p99_ms",
                    residence_p99_ms(&stats.residence, checks),
                ),
            ];
            info.push((
                "server.residence_p50_ms".to_string(),
                stats.residence.percentile(50.0).as_millis_f64(),
                "ms",
            ));
        }
    }
    if ladder {
        // On a ladder the throughput metric is its capacity.
        sim[0].1 = capacity(&ladder_points, SFS_LATENCY_CAP_MS, SFS_MIN_DELIVERED);
    }
    (sim, info, fingerprints)
}

/// Host timings and the simulated outcome of a measured run.
pub struct Measured {
    pub outcome: Outcome,
    /// Wall-clock times of the timed repetitions.
    pub reps: Vec<RepTimes>,
    /// The host's speed during each timed repetition: the reference
    /// computation's nominal time over its mean time just before and just
    /// after the repetition (1.0 on an unloaded recording host).
    pub speed: Vec<f64>,
}

/// Run repetitions until `budget` host seconds have passed (and at least
/// `min_timed` were timed), discarding the first as host warm-up.  Every
/// repetition must reproduce the first one's outcome exactly.
pub fn measure(plan: &Plan, budget: f64, min_timed: usize) -> Result<Measured, String> {
    let start = Instant::now();
    let (outcome, _warm_up) = run_rep(plan, true, None)?;
    let (mut reps, mut speed) = (Vec::new(), Vec::new());
    let mut probe = reference::reference_s();
    while reps.len() < min_timed || start.elapsed().as_secs_f64() < budget {
        let (again, times) = run_rep(plan, false, None)?;
        same_outcome(&outcome, &again, reps.len() + 1)?;
        let after = reference::reference_s();
        speed.push(reference::speed(probe, after));
        probe = after;
        reps.push(times);
    }
    Ok(Measured {
        outcome,
        reps,
        speed,
    })
}

/// Simulated results are deterministic: a repetition that differs from the
/// first in any simulated value means the model read host state.
pub fn same_outcome(first: &Outcome, again: &Outcome, rep: usize) -> Result<(), String> {
    if first == again {
        return Ok(());
    }
    let differing = first
        .sim
        .iter()
        .chain(&first.layers)
        .zip(again.sim.iter().chain(&again.layers))
        .find(|(a, b)| a != b)
        .map(|(a, b)| format!("{} = {} then {}", a.0, a.1, b.1))
        .unwrap_or_else(|| "a cell's full result".to_string());
    Err(format!(
        "repetition {rep} simulated something different from the first: {differing}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_cells_cover_the_six_tables_and_follow_the_seed() {
        let a = copy_cells(1, false);
        assert_eq!(a.len(), 68);
        let sizes = |cells: &[ExperimentConfig]| -> Vec<u64> {
            cells.iter().map(|c| c.file_size).collect()
        };
        assert_eq!(sizes(&a), sizes(&copy_cells(1, false)));
        assert_ne!(sizes(&a), sizes(&copy_cells(2, false)));
        assert!(a
            .iter()
            .all(|c| c.file_size >= 10 << 20 && c.file_size < (10 << 20) + 64 * 8192));
    }

    #[test]
    fn crash_schedule_has_a_fixed_count_and_seeded_instants() {
        let horizon = Duration::from_secs(120);
        let interval = Duration::from_secs(5);
        let a = jittered_crashes(7, interval, horizon);
        let b = jittered_crashes(8, interval, horizon);
        assert_eq!(a.len(), 23);
        assert_eq!(b.len(), 23);
        assert_ne!(a, b);
        assert_eq!(a, jittered_crashes(7, interval, horizon));
        for (slot, event) in a.events().iter().enumerate() {
            let lo = SimTime::from_millis(2_500 + 5_000 * slot as u64);
            assert!(event.at >= lo && event.at < lo + interval);
            assert!(event.at < SimTime::ZERO + horizon);
        }
    }

    #[test]
    fn a_violated_oracle_fails_the_repetition() {
        let mut checks = Checks::default();
        checks.zero("cell 3", "lost_acked_bytes", 0);
        assert!(Checks::default().finish().is_ok());
        checks.zero("cell 3", "lost_acked_bytes", 8192);
        checks.that(false, || {
            "point 0: issued 5 != completed 4 + gave_up 0".into()
        });
        let err = checks.finish().unwrap_err();
        assert!(err.contains("cell 3: lost_acked_bytes = 8192"));
        assert!(err.contains("issued 5"));
    }

    #[test]
    fn a_repetition_that_differs_is_rejected() {
        let outcome = Outcome {
            sim: vec![("sim_ops_s", 1.0)],
            layers: vec![("simcore.events", 10.0)],
            info: Vec::new(),
            attempted: 1,
            failed: 0,
            fingerprints: vec!["cell".into()],
        };
        assert!(same_outcome(&outcome, &outcome.clone(), 1).is_ok());
        let mut drifted = outcome.clone();
        drifted.layers[0].1 = 11.0;
        let err = same_outcome(&outcome, &drifted, 4).unwrap_err();
        assert!(err.contains("repetition 4") && err.contains("simcore.events = 10 then 11"));
    }
}
