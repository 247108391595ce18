//! One runner for `BENCH_writepath.json`.  Each suite is named after the
//! report key it owns and runs exactly the cells that key records, so
//! `sweep KEY` alone reproduces the key:
//!
//! * `current`: the canonical write-path cells (the Table 1 and Table 3
//!   columns at 15 biods, one SFS point), each timed as the median of five
//!   runs, and their speedup over the report's `"baseline"`;
//! * `faults`: the SFS workload and the file copy under server crashes,
//!   datagram loss and an NVRAM battery failure;
//! * `scale`: writer fleets of 1–4 clients × 64–256 MB on each of the three
//!   recorded server topologies;
//! * `sfs_scale`: the Figure 2 curve of the paper's server (`"baseline"`)
//!   against [`SfsConfig::scaled`] (`"current"`), each run serially and on
//!   one worker per host CPU;
//! * `stability`: sync vs NVRAM vs `WRITE(UNSTABLE)`+`COMMIT` over the SFS
//!   mix and the file copy, with a memory-pressure cell and commit pacing;
//! * `state_storms`: lease renewal storms, client churn and server crashes
//!   over the client-state layer, and a 10,000-client lease storm.
//!
//! Every cell records its fields by name from a [`metrics`] snapshot of its
//! run.  The drivers' `run()` audits the safety oracles on every cell; on
//! top of that each cell makes its own checks, below, and every run outside
//! the timed `current` cells must leave the zero-copy datapath with no
//! payload materialised.  The runner prints each cell as one line, loads
//! the report, sets the keys of the suites it ran in place and writes the
//! report back.  `--smoke` runs every suite at CI size.
//!
//! ```text
//! cargo run --release -p wg-bench --bin sweep -- current scale sfs_scale faults stability state_storms
//! cargo run --release -p wg-bench --bin sweep -- current scale --smoke --out other.json
//! ```

use std::time::Instant;

use wg_bench::metrics;
use wg_bench::report::{self, host_parallelism, median_wall, Json};
use wg_nfsproto::payload::materialize_count;
use wg_server::{StabilityMode, WritePolicy};
use wg_simcore::{Duration, FaultKind, FaultPlan, SimTime};
use wg_workload::sfs::SfsSystem;
use wg_workload::{ExperimentConfig, FileCopySystem, NetworkKind, SfsConfig, SfsSweep};

const USAGE: &str = "usage: sweep SUITE... [--out PATH] [--smoke]; \
     suites: current, faults, scale, sfs_scale, stability, state_storms";

/// A suite: its name and the function that runs it, at smoke size or not,
/// and sets the report keys it owns.
type Suite = (&'static str, fn(bool, &mut Json));

const SUITES: [Suite; 6] = [
    ("current", current),
    ("faults", faults),
    ("scale", scale),
    ("sfs_scale", sfs_scale),
    ("stability", stability),
    ("state_storms", state_storms),
];

fn main() {
    let mut out = "BENCH_writepath.json".to_string();
    let mut smoke = false;
    let mut suites: Vec<&Suite> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().expect("--out needs a value"),
            "--smoke" => smoke = true,
            name => match SUITES.iter().find(|suite| suite.0 == name) {
                Some(suite) => suites.push(suite),
                None => panic!("unknown argument {name}; {USAGE}"),
            },
        }
    }
    assert!(!suites.is_empty(), "name at least one suite; {USAGE}");

    // A report that exists but does not parse stops the run before any
    // cell runs, and is left as it is.
    let mut report = report::load(&out).unwrap_or_else(|e| panic!("{e}"));
    for (_, run) in suites {
        run(smoke, &mut report);
    }
    report::save(&out, &report);
    println!("wrote {out}");
}

/// A cell layout: the fields a cell records, in report order, as groups of
/// whitespace-separated names.  A field the cell does not supply itself is
/// read from the snapshot of the cell's run.
type Layout = &'static [&'static str];

fn fields(layout: Layout) -> impl Iterator<Item = &'static str> {
    layout.iter().flat_map(|group| group.split_whitespace())
}

/// The provenance every cell but a `scale` cell and a curve point records:
/// past-time clamps, the host parallelism the wall clock was measured
/// under, and the event queue's high-water mark.
const STAMP: &str = "clamped_past host_parallelism sched_max_depth";

/// The client-state readout every `state_storms` cell records.
const STATE: &str = "lease_ops_issued lease_ops_completed lease_ops_gave_up leases_granted \
     renewals leases_expired state_orphaned locks_granted locks_reclaimed client_reboots \
     reboot_revoked_locks grace_rejections seqid_rejections grace_conflicts \
     expired_lease_writes active_lease_clients held_locks state_table_bytes \
     state_bytes_per_client evicted_in_progress lost_acked_bytes";

/// Record one cell laid out as `layout`, its own fields in `params`, print
/// it as one line and return it.
fn record(name: &str, layout: Layout, snapshot: &Json, params: &[(&str, Json)]) -> Json {
    let cell = Json::object(fields(layout).map(|field| {
        let value = match params.iter().find(|(p, _)| *p == field) {
            Some((_, value)) => value,
            None => snapshot
                .get(field)
                .unwrap_or_else(|| panic!("{name}: the snapshot has no {field}")),
        };
        (field, value.clone())
    }));
    println!("{name:<30} {cell}");
    cell
}

/// Check a cell's counts: each whitespace-separated `field>0` must have
/// happened, and each `field=0` must not have.
fn check(name: &str, snapshot: &Json, conditions: &str) {
    for condition in conditions.split_whitespace() {
        let (field, _) = condition
            .split_once(['>', '='])
            .expect("field>0 or field=0");
        let count = snapshot.num(field);
        assert!(
            (count > 0.0) == condition.contains('>'),
            "{name}: expected {condition}, counted {field}={count}"
        );
    }
}

/// Run a copy cell and snapshot it, with its wall clock (system build
/// included) and the payloads its run materialised, which must be none.
fn run_copy(config: ExperimentConfig) -> (FileCopySystem, Json) {
    let start = Instant::now();
    let before = materialize_count();
    let mut system = FileCopySystem::new(config);
    let result = system.run();
    let materializations = materialize_count() - before;
    let mut snapshot = metrics::copy(&system, &result);
    snapshot.set("wall_ms", (start.elapsed().as_secs_f64() * 1e3).into());
    snapshot.set("materializations", materializations.into());
    check("the zero-copy datapath", &snapshot, "materializations=0");
    (system, snapshot)
}

/// Run an SFS cell and snapshot it, with the payloads its run materialised,
/// which must be none.  With `quiesce`, the server is drained after the
/// measured window, as an unmount would, before the snapshot is taken.
fn run_sfs(config: SfsConfig, quiesce: bool) -> (SfsSystem, Json) {
    let before = materialize_count();
    let mut system = SfsSystem::new(config);
    let point = system.run();
    let materializations = materialize_count() - before;
    if quiesce {
        system.quiesce_server();
    }
    let mut snapshot = metrics::sfs(&system, &point);
    snapshot.set("materializations", materializations.into());
    check("the zero-copy datapath", &snapshot, "materializations=0");
    (system, snapshot)
}

const MIB: u64 = 1024 * 1024;

/// An SFS configuration of the paper's Figure 2 (plain disks) or Figure 3
/// (Prestoserve) server under gathering, measured for `secs`.
fn figure(presto: bool, load: f64, secs: u64) -> SfsConfig {
    let figure = if presto {
        SfsConfig::figure3
    } else {
        SfsConfig::figure2
    };
    SfsConfig {
        duration: Duration::from_secs(secs),
        ..figure(load, WritePolicy::Gathering)
    }
}

const CURRENT: Layout = &[
    "wall_ms events_processed scheduled_total events_per_sec sim_client_kb_per_sec",
    STAMP,
];

/// `"current"`: the Table 1 and Table 3 columns at 15 biods, both policies
/// as `run_table` runs them, and one Figure 2 point.  The suite also writes
/// `bench`, `file_mb` and `sfs_secs` and, when the report holds a
/// `"baseline"` (recorded once and never rewritten), each cell's
/// `"speedup"` over it.  A full-size cell must never be slower than its
/// baseline: a scheduler regression fails the run loudly instead of
/// silently recording a slower `"current"`.
fn current(smoke: bool, report: &mut Json) {
    let (file_mb, sfs_secs) = if smoke { (1, 2) } else { (10, 10) };
    let copy = |name: &'static str, network| {
        let (wall, runs) = median_wall(|| {
            [WritePolicy::Standard, WritePolicy::Gathering].map(|policy| {
                let config = ExperimentConfig::new(network, 15, policy);
                let mut system = FileCopySystem::new(config.with_file_size(file_mb * MIB));
                let result = system.run();
                (system, result)
            })
        });
        let runs = runs.map(|(system, result)| metrics::copy(&system, &result));
        (name, timed(name, wall, &runs, "client_write_kb_per_sec"))
    };
    let table1 = copy("table1_15biods", NetworkKind::Ethernet);
    let table3 = copy("table3_15biods", NetworkKind::Fddi);
    let (wall, (system, point)) = median_wall(|| {
        let mut system = SfsSystem::new(figure(false, 800.0, sfs_secs));
        let point = system.run();
        (system, point)
    });
    let name = "sfs_point_800ops";
    let snapshot = metrics::sfs(&system, &point);
    let sfs = timed(name, wall, &[snapshot], "achieved_ops_per_sec");
    let cells = [table1, table3, (name, sfs)];

    let speedups = report.get("baseline").map(|baseline| {
        let cells = cells.iter().filter_map(|(name, cell)| {
            let base = baseline.get(name)?.get("wall_ms")?.as_f64()?;
            let wall = cell.num("wall_ms");
            let speedup = base / wall.max(1e-9);
            println!("{name:<30} speedup vs baseline: {speedup}x");
            assert!(
                smoke || speedup >= 1.0,
                "{name}: wall {wall:.1} ms is slower than the recorded baseline \
                 {base:.1} ms (speedup {speedup:.2}x < 1.0)"
            );
            Some((*name, speedup.into()))
        });
        Json::object(cells.collect::<Vec<_>>())
    });
    report.set("bench", "writepath".into());
    report.set("file_mb", file_mb.into());
    report.set("sfs_secs", sfs_secs.into());
    report.set("current", Json::object(cells));
    if let Some(speedups) = speedups {
        report.set("speedup", speedups);
    }
}

/// One `current` cell from its runs' snapshots and median wall clock in
/// seconds: counts summed, the deepest event queue, and as
/// `sim_client_kb_per_sec` the simulated scalar `sim`, which catches a run
/// that got faster by simulating something different.
fn timed(name: &str, wall: f64, runs: &[Json], sim: &str) -> Json {
    let sum = |field: &str| runs.iter().map(|run| run.num(field)).sum::<f64>();
    let depth = runs.iter().map(|run| run.num("sched_max_depth"));
    let events = sum("events_processed");
    let params = [
        ("wall_ms", (wall * 1e3).into()),
        ("events_processed", events.into()),
        ("scheduled_total", sum("scheduled_total").into()),
        ("events_per_sec", (events / wall.max(1e-9)).into()),
        ("sim_client_kb_per_sec", sum(sim).into()),
        ("clamped_past", sum("clamped_past").into()),
        ("sched_max_depth", depth.fold(0.0, f64::max).into()),
    ];
    record(name, CURRENT, &runs[0], &params)
}

/// An NVRAM battery that dies a third of the way into a `secs` run and is
/// repaired a third later.
fn battery_outage(plan: FaultPlan, secs: u64) -> FaultPlan {
    plan.at(
        SimTime::ZERO + Duration::from_secs(secs / 3),
        FaultKind::BatteryFailure {
            repair_after: Duration::from_secs(secs / 3),
        },
    )
}

const FAULT_SFS: Layout = &[
    "offered_ops_per_sec achieved_ops_per_sec avg_latency_ms crash_interval_secs loss_rate \
     prestoserve battery_failure crashes battery_failures lost_acked_bytes \
     discarded_dirty_bytes dropped_during_recovery issued completed retransmissions \
     gave_up evicted_in_progress materializations",
    STAMP,
];

const FAULT_UNSTABLE: Layout = &[
    "offered_ops_per_sec achieved_ops_per_sec avg_latency_ms prestoserve stability \
     battery_failures unstable_writes forced_file_sync commits lost_acked_bytes \
     lost_unstable_bytes uncommitted_after_quiesce evicted_in_progress materializations",
    STAMP,
];

const FAULT_COPY: Layout = &[
    "client_write_kb_per_sec file_mb prestoserve safe_policy crashes lost_acked_bytes \
     discarded_dirty_bytes retransmissions gave_up completed evicted_in_progress",
    STAMP,
];

/// `"faults"`.  Only the deliberately unsafe `DangerousAsync` copy may lose
/// acknowledged bytes (`lost_acked_bytes`), and the cell records them
/// rather than hiding them.
fn faults(smoke: bool, report: &mut Json) {
    let (secs, load) = if smoke { (6, 300.0) } else { (20, 800.0) };
    let (intervals, losses): (&[f64], &[f64]) = if smoke {
        (&[2.0], &[0.0, 0.02])
    } else {
        (&[2.0, 5.0, 10.0], &[0.0, 0.01, 0.05])
    };
    // One SFS gathering cell under a crash schedule (`interval` > 0), a
    // steady loss rate and, optionally, the battery outage.
    let sfs_cell = |name: &str, presto: bool, interval: f64, loss: f64, battery: bool| {
        let config = figure(presto, load, secs);
        let mut plan = if interval > 0.0 {
            FaultPlan::crash_every(Duration::from_secs_f64(interval), config.duration)
        } else {
            FaultPlan::new()
        };
        if battery {
            plan = battery_outage(plan, secs);
        }
        let (_, snapshot) = run_sfs(config.with_fault_plan(plan).with_loss(loss), false);
        let params = [
            ("crash_interval_secs", interval.into()),
            ("battery_failure", battery.into()),
        ];
        record(name, FAULT_SFS, &snapshot, &params)
    };

    // The degradation grid: crash interval × loss rate.
    let mut grid = Vec::new();
    for &interval in intervals {
        for &loss in losses {
            let name = format!("crash{interval}s_loss{loss}");
            grid.push((name.clone(), sfs_cell(&name, false, interval, loss, false)));
        }
    }
    let mut suite = vec![
        ("smoke", smoke.into()),
        ("secs", secs.into()),
        ("offered_ops_per_sec", load.into()),
        ("grid", Json::object(grid)),
        // The grid reads as degradation relative to this.
        (
            "reference_no_fault",
            sfs_cell("reference_no_fault", false, 0.0, 0.0, false),
        ),
        // NVRAM drains, degrades to write-through, recovers on repair.
        (
            "presto_battery_failure",
            sfs_cell("presto_battery_failure", true, 0.0, 0.0, true),
        ),
        ("presto_battery_unstable", unstable_battery(load, secs)),
    ];

    // A mid-copy crash under each policy, the client retransmitting
    // through the reboot.
    for (name, policy, presto) in [
        ("copy_crash_standard", WritePolicy::Standard, false),
        ("copy_crash_gathering", WritePolicy::Gathering, false),
        ("copy_crash_presto", WritePolicy::Gathering, true),
        ("copy_crash_dangerous", WritePolicy::DangerousAsync, false),
    ] {
        let crash = FaultPlan::new().at(
            SimTime::ZERO + Duration::from_millis(700),
            FaultKind::ServerCrash,
        );
        let (system, snapshot) = run_copy(
            ExperimentConfig::new(NetworkKind::Fddi, 8, policy)
                .with_presto(presto)
                .with_file_size(2 * MIB)
                .with_fault_plan(crash),
        );
        if policy != WritePolicy::DangerousAsync {
            assert_eq!(
                system.lost_acked_bytes_on_disk(),
                0,
                "{name}: acknowledged data missing from the recovered disk"
            );
            assert_eq!(
                snapshot.get("completed"),
                Some(&Json::Bool(true)),
                "{name}: the copy did not survive the crash"
            );
        }
        suite.push((name, record(name, FAULT_COPY, &snapshot, &[])));
    }
    report.set("faults", Json::object(suite));
}

/// The battery outage on the Prestoserve server speaking
/// `WRITE(UNSTABLE)` + `COMMIT` over the unified cache.  A dead battery
/// leaves unstable data no stable destination, so the server must force
/// `FILE_SYNC` semantics for the outage (`forced_file_sync`) rather than
/// ack unstable writes it could lose, while the healthy phases speak the
/// unstable protocol and the quiesce leaves nothing uncommitted.
fn unstable_battery(load: f64, secs: u64) -> Json {
    let name = "presto_battery_unstable";
    let config = figure(true, load, secs)
        .with_fault_plan(battery_outage(FaultPlan::new(), secs))
        .with_unified_cache(CACHE_PAGES)
        .with_stability(StabilityMode::Unstable);
    let (_, snapshot) = run_sfs(config, true);
    check(
        name,
        &snapshot,
        "battery_failures>0 forced_file_sync>0 unstable_writes>0 commits>0 \
         uncommitted_after_quiesce=0",
    );
    record(name, FAULT_UNSTABLE, &snapshot, &[])
}

const SCALE: Layout = &[
    "clients mb_per_client shards cores spindles io_overlap per_client_lans wall_ms \
     events_processed sim_aggregate_kb_per_sec sim_fairness sim_elapsed_secs \
     evicted_in_progress materializations serial_twin_kb_per_sec spindle_breakdown",
];

/// The server topologies `"scale"` records: shards, cores, spindles,
/// overlapped I/O and per-client LANs.
const TOPOLOGIES: [(usize, usize, usize, bool, bool); 3] = [
    (1, 1, 1, false, false),
    (4, 4, 1, false, true),
    (4, 4, 3, true, true),
];

/// The `"scale"` cells in report order: every topology's writer fleets of
/// 1, 2 and 4 clients × 64 and 256 MB, or of 2 clients × 1 MB at smoke
/// size.  A cell's key names every non-default axis of its topology (`_s4`,
/// `_cr4`, `_sp3`, `_ov`, `_lan`).
fn scale_cells(smoke: bool) -> Vec<(String, ExperimentConfig)> {
    let (fleet_sizes, file_mbs): (&[usize], &[u64]) = if smoke {
        (&[2], &[1])
    } else {
        (&[1, 2, 4], &[64, 256])
    };
    let mut cells = Vec::new();
    for (shards, cores, spindles, overlap, lans) in TOPOLOGIES {
        let axes: String = [
            (shards > 1, format!("_s{shards}")),
            (cores > 1, format!("_cr{cores}")),
            (spindles > 1, format!("_sp{spindles}")),
            (overlap, "_ov".to_string()),
            (lans, "_lan".to_string()),
        ]
        .into_iter()
        .filter_map(|(on, axis)| on.then_some(axis))
        .collect();
        for &clients in fleet_sizes {
            for &mb in file_mbs {
                let config =
                    ExperimentConfig::fleet(NetworkKind::Fddi, clients, 4, WritePolicy::Gathering)
                        .with_file_size(mb * MIB)
                        .with_shards(shards)
                        .with_cores(cores)
                        .with_spindles(spindles)
                        .with_io_overlap(overlap)
                        .with_per_client_lans(lans);
                cells.push((format!("c{clients}_mb{mb}{axes}"), config));
            }
        }
    }
    cells
}

/// `"scale"`.  An overlapped cell races its serial twin: a serial run also
/// spreads stripe pieces over every spindle, so only aggregate throughput
/// shows the pipeline overlaps, and the overlapped run must beat it.
fn scale(smoke: bool, report: &mut Json) {
    let mut cells = Vec::new();
    for (name, config) in scale_cells(smoke) {
        let twin = config.io_overlap.then(|| {
            FileCopySystem::new(config.clone().with_io_overlap(false))
                .run()
                .client_write_kb_per_sec
        });
        let (system, snapshot) = run_copy(config);
        system
            .verify_on_disk()
            .expect("multi-client data integrity check failed");
        if let Some(serial) = twin {
            let overlapped = snapshot.num("sim_aggregate_kb_per_sec");
            assert!(
                overlapped > serial,
                "{name}: pipelining lost its win: overlap {overlapped:.1} KB/s \
                 vs serial twin {serial:.1} KB/s"
            );
        }
        let twin = (
            "serial_twin_kb_per_sec",
            twin.map_or(Json::Null, Json::from),
        );
        let cell = record(&name, SCALE, &snapshot, &[twin]);
        cells.push((name, cell));
    }
    report.set("scale", Json::object(cells));
}

/// Offered loads of the full `sfs_scale` curves: the figure range plus
/// enough headroom to find the scaled configuration's knee.
const FULL_LOADS: [f64; 15] = [
    200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0, 1800.0, 2000.0, 2400.0, 2800.0,
    3200.0, 4000.0, 4800.0,
];

const CURVE_POINT: Layout = &[
    "offered_ops_per_sec achieved_ops_per_sec avg_latency_ms server_cpu_percent \
     per_client_achieved_ops fairness evicted_in_progress materializations name_mints \
     issued completed retransmissions gave_up clamped_past",
];

const CURVE: Layout = &[
    "clients shards cores spindles io_overlap per_client_lans inode_groups read_caching \
     duration_secs peak_achieved_ops_per_sec peak_avg_latency_ms serial_wall_ms \
     parallel_wall_ms threads host_parallelism parallel_speedup points",
];

/// `"sfs_scale"`.  A full run also asserts the headline: the scaled
/// configuration's peak beats the single-client baseline's by ≥ 1.3× at no
/// more latency, and, on a host with four CPUs or more, the worker pool
/// runs the curve ≥ 2× faster than the serial pass.
fn sfs_scale(smoke: bool, report: &mut Json) {
    let secs = if smoke { 3 } else { 20 };
    let loads: &[f64] = if smoke { &[300.0, 900.0] } else { &FULL_LOADS };
    let threads = host_parallelism();
    let scaled = SfsConfig {
        duration: Duration::from_secs(secs),
        ..SfsConfig::scaled(0.0, WritePolicy::Gathering, 4)
    };

    let (baseline, base_peak) = curve("baseline", figure(false, 0.0, secs), loads, threads);
    let (current, cur_peak) = curve("current", scaled, loads, threads);
    let ratio = cur_peak.0 / base_peak.0.max(1e-9);
    let knee_shift = Json::object([
        ("baseline_peak_ops_per_sec", base_peak.0.into()),
        ("current_peak_ops_per_sec", cur_peak.0.into()),
        ("peak_ratio", ratio.into()),
        ("baseline_peak_latency_ms", base_peak.1.into()),
        ("current_peak_latency_ms", cur_peak.1.into()),
    ]);
    println!("{:<30} {knee_shift}", "knee_shift");
    if !smoke {
        assert!(
            ratio >= 1.3,
            "the scaled configuration's knee did not shift: {ratio:.2}x < 1.3x"
        );
        assert!(
            cur_peak.1 <= base_peak.1,
            "the scaled peak pays more latency than the baseline knee: {:.1} ms > {:.1} ms",
            cur_peak.1,
            base_peak.1
        );
        // Parallel and serial points are compared bit for bit on every
        // run; the wall-clock win needs cores to run the workers on, and
        // a cell's `threads` records how many the host offered.
        let speedup = current.num("parallel_speedup");
        assert!(
            threads < 4 || speedup >= 2.0,
            "parallel sweep speedup {speedup:.2}x < 2x on {threads} threads"
        );
    }
    report.set(
        "sfs_scale",
        Json::object([
            ("baseline", baseline),
            ("current", current),
            ("knee_shift", knee_shift),
        ]),
    );
}

/// One curve: an untimed pass that snapshots every point, then the serial
/// runner and the worker pool, each timed over [`report::RUNS`] runs of the
/// whole curve, and each of which must reproduce every point bit for bit.
/// Returns the curve and its peak point's (achieved ops/s, mean latency ms).
fn curve(label: &str, config: SfsConfig, loads: &[f64], threads: usize) -> (Json, (f64, f64)) {
    let snapshots: Vec<Json> = loads
        .iter()
        .map(|&load| {
            let mut config = config.clone();
            config.offered_ops_per_sec = load;
            run_sfs(config, false).1
        })
        .collect();
    let sweep = SfsSweep::new(config);
    let (serial_wall, serial) = median_wall(|| sweep.run(loads));
    let (parallel_wall, parallel) = median_wall(|| sweep.run_parallel(loads, threads));
    for (pass, points) in [("serial", &serial), ("parallel", &parallel)] {
        assert_eq!(points.len(), snapshots.len(), "{label}: {pass} points");
        for (snapshot, point) in snapshots.iter().zip(points) {
            assert!(
                snapshot.num("achieved_ops_per_sec") == point.achieved_ops_per_sec
                    && snapshot.num("avg_latency_ms") == point.avg_latency_ms
                    && snapshot.num("server_cpu_percent") == point.server_cpu_percent,
                "{label}: the {pass} sweep diverged from the snapshot at offered {} ops/s",
                point.offered_ops_per_sec
            );
        }
    }
    let points = snapshots
        .iter()
        .zip(loads)
        .map(|(snapshot, load)| record(&format!("{label}@{load}"), CURVE_POINT, snapshot, &[]))
        .collect();
    let peak = snapshots
        .iter()
        .map(|s| (s.num("achieved_ops_per_sec"), s.num("avg_latency_ms")))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("a curve has points");
    let speedup = serial_wall / parallel_wall.max(1e-9);
    let params = [
        ("peak_achieved_ops_per_sec", peak.0.into()),
        ("peak_avg_latency_ms", peak.1.into()),
        ("serial_wall_ms", (serial_wall * 1e3).into()),
        ("parallel_wall_ms", (parallel_wall * 1e3).into()),
        ("threads", threads.into()),
        ("parallel_speedup", speedup.into()),
        ("points", Json::Array(points)),
    ];
    (record(label, CURVE, &snapshots[0], &params), peak)
}

/// Pages of the unified cache in the unstable cells.
const CACHE_PAGES: u64 = 4096;
/// Dirty-ratio threshold of the unified cache.
const DIRTY_RATIO: f64 = 0.5;
/// Dirty-ratio threshold of the memory-pressure cell: tight enough that the
/// tiny cache's writers must stall on writeback instead of dirtying freely.
const PRESSURE_DIRTY_RATIO: f64 = 0.05;

const STABILITY_SFS: Layout = &[
    "stability prestoserve cache_pages dirty_ratio offered_ops_per_sec \
     achieved_ops_per_sec avg_latency_ms unstable_writes commits forced_file_sync \
     cache_evictions throttle_stalls writeback_blocks lost_acked_bytes lost_unstable_bytes \
     uncommitted_after_quiesce evicted_in_progress materializations",
    STAMP,
];

const STABILITY_COPY: Layout = &[
    "stability prestoserve cache_pages file_mb client_write_kb_per_sec unstable_writes \
     commits_sent verifier_mismatches lost_acked_bytes completed",
    STAMP,
];

const COMMIT_PACING: Layout = &[
    "commit_interval_bytes file_mb cache_pages aggregate_kb_per_sec commits paced_commits \
     unstable_writes lost_acked_bytes completed",
    STAMP,
];

/// `"stability"`: the three ways the write path can promise durability:
/// `sync` (the paper's FILE_SYNC writes), `nvram` (Prestoserve absorbing
/// them) and `unstable` (`WRITE(UNSTABLE)` + `COMMIT` over the bounded
/// unified cache).  Every cell must end with zero bytes uncommitted, and
/// only the unstable cells may speak the v3 protocol.
fn stability(smoke: bool, report: &mut Json) {
    let (load, secs, file_mb, pressure_pages) = if smoke {
        (300.0, 3, 1, 64)
    } else {
        (800.0, 10, 4, 128)
    };
    let (stable, unstable) = (StabilityMode::Stable, StabilityMode::Unstable);
    let (file_sync, v3) = ("unstable_writes=0 commits=0", "unstable_writes>0 commits>0");

    // With a healthy battery no cell may downgrade an unstable write.
    let mut sfs = Vec::new();
    for (key, presto, mode, pages, dirty_ratio, checks) in [
        // The sync cell keeps the paper's write path: no page-cache bound.
        ("sync", false, stable, 0, DIRTY_RATIO, file_sync),
        ("nvram", true, stable, 0, DIRTY_RATIO, file_sync),
        ("unstable", false, unstable, CACHE_PAGES, DIRTY_RATIO, v3),
        // The memory-pressure regime: a cache far smaller than the working
        // set must evict and throttle rather than behave like an unbounded
        // store.
        (
            "unstable_pressure",
            false,
            unstable,
            pressure_pages,
            PRESSURE_DIRTY_RATIO,
            "unstable_writes>0 commits>0 cache_evictions>0 throttle_stalls>0",
        ),
    ] {
        let name = format!("sfs_{key}");
        let config = figure(presto, load, secs)
            .with_unified_cache(pages)
            .with_dirty_ratio(dirty_ratio)
            .with_stability(mode);
        let (_, snapshot) = run_sfs(config, true);
        check(&name, &snapshot, checks);
        check(
            &name,
            &snapshot,
            "uncommitted_after_quiesce=0 forced_file_sync=0",
        );
        sfs.push((key, record(&name, STABILITY_SFS, &snapshot, &[])));
    }

    // The 4-biod FDDI copy in each mode, committing its unstable ranges at
    // close.
    let mut copy = Vec::new();
    for (key, presto, mode, pages, checks) in [
        ("sync", false, stable, 0, ""),
        ("nvram", true, stable, 0, ""),
        (
            "unstable",
            false,
            unstable,
            CACHE_PAGES,
            "unstable_writes>0 commits_sent>0",
        ),
    ] {
        let name = format!("copy_{key}");
        let (system, snapshot) = run_copy(
            ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Gathering)
                .with_presto(presto)
                .with_file_size(file_mb * MIB)
                .with_unified_cache(pages)
                .with_stability(mode),
        );
        assert_eq!(
            system.lost_acked_bytes_on_disk(),
            0,
            "{name}: acknowledged data missing from the on-disk file"
        );
        assert!(
            system.client().uncommitted_ranges().is_empty(),
            "{name}: the client still tracks uncommitted ranges after close"
        );
        check(&name, &snapshot, checks);
        check(&name, &snapshot, "uncommitted_after_quiesce=0");
        copy.push((key, record(&name, STABILITY_COPY, &snapshot, &[])));
    }

    // The unstable 4-client fan-in with one close-time COMMIT per file vs
    // a COMMIT every 256 KiB acknowledged: pacing trades commit traffic for
    // a bounded unstable backlog.
    let mut pacing = Vec::new();
    for (key, interval, checks) in [
        ("close_only", 0, "paced_commits=0"),
        ("paced_256k", 256 * 1024, "paced_commits>0"),
    ] {
        let name = format!("pace_{key}");
        let (system, snapshot) = run_copy(
            ExperimentConfig::fleet(NetworkKind::Fddi, 4, 4, WritePolicy::Gathering)
                .with_file_size(file_mb * MIB)
                .with_unified_cache(CACHE_PAGES)
                .with_stability(StabilityMode::Unstable)
                .with_commit_interval(interval),
        );
        system
            .verify_on_disk()
            .unwrap_or_else(|e| panic!("{name}: on-disk verification failed: {e}"));
        check(&name, &snapshot, checks);
        check(&name, &snapshot, "uncommitted_after_quiesce=0");
        pacing.push((key, record(&name, COMMIT_PACING, &snapshot, &[])));
    }

    let suite = Json::object([
        ("modes", "all".into()),
        ("smoke", smoke.into()),
        ("secs", secs.into()),
        ("offered_ops_per_sec", load.into()),
        ("cache_pages", CACHE_PAGES.into()),
        ("pressure_cache_pages", pressure_pages.into()),
        ("dirty_ratio", DIRTY_RATIO.into()),
        ("sfs", Json::object(sfs)),
        ("copy", Json::object(copy)),
        ("commit_pacing", Json::object(pacing)),
    ]);
    report.set("stability", suite);
}

const STATE_GRID: Layout = &[
    "clients renew_ms churn_ms crash_interval_secs offered_ops_per_sec \
     achieved_ops_per_sec avg_latency_ms crashes churn_reboots gave_up retransmissions",
    STATE,
    STAMP,
];

const ABANDONED: Layout = &[
    "clients loss_rate achieved_ops_per_sec gave_up lease_dead_streams",
    STATE,
    STAMP,
];

const LEASE_STORM: Layout = &[
    "clients registered_clients registration_ratio state_bytes_per_registered_client \
     offered_ops_per_sec achieved_ops_per_sec_stateless achieved_ops_per_sec_leases \
     knee_shift_ops_per_sec avg_latency_ms_stateless avg_latency_ms_leases",
    STATE,
    STAMP,
];

/// `"state_storms"`.  The grace period exists so that no fresh lock
/// conflicts with a reclaimable pre-crash lock (`grace_conflicts`) and no
/// write lands on an expired lease (`expired_lease_writes`); both are
/// audited zero on every run and recorded anyway.
fn state_storms(smoke: bool, report: &mut Json) {
    let (secs, load, clients) = if smoke {
        (4, 150.0, 16)
    } else {
        (10, 400.0, 64)
    };
    let (renews, churns, crashes): (&[u64], &[u64], &[f64]) = if smoke {
        (&[400], &[0, 900], &[0.0, 1.5])
    } else {
        (&[200, 500], &[0, 1100], &[0.0, 2.0])
    };
    let leased = || {
        figure(false, load, secs)
            .with_clients(clients)
            .with_shards(4)
            .with_leases(true)
    };

    // Renewal rate × churn rate × crash schedule over the 4-way-sharded
    // state table.
    let mut grid = Vec::new();
    for &renew in renews {
        for &churn in churns {
            for &crash in crashes {
                let name = format!("renew{renew}ms_churn{churn}ms_crash{crash}s");
                let renew_every = Duration::from_millis(renew);
                let mut config = if crash > 0.0 {
                    // A lease long enough to survive the 1 s reboot and a
                    // grace window wide enough for every live client to
                    // reclaim.
                    leased()
                        .with_lease_timing(
                            renew_every,
                            Duration::from_secs(2),
                            Duration::from_millis(1500),
                        )
                        .with_fault_plan(FaultPlan::crash_every(
                            Duration::from_secs_f64(crash),
                            Duration::from_secs(secs),
                        ))
                        .with_retry(Duration::from_millis(300), 6)
                } else {
                    let lease = Duration::from_millis(renew * 3);
                    leased().with_lease_timing(renew_every, lease, renew_every)
                };
                if churn > 0 {
                    config = config.with_churn(Duration::from_millis(churn));
                }
                let (system, snapshot) = run_sfs(config, false);
                assert!(
                    snapshot.num("leases_granted") >= clients as f64,
                    "{name}: not every stream registered a lease"
                );
                if crash > 0.0 {
                    check(&name, &snapshot, "observed_server_reboots>0");
                    // A churning client may be mid-reboot (lock dropped)
                    // when the server dies, so only the pure-crash cell is
                    // sure of a grace-period reclaim.
                    if churn == 0 {
                        assert!(
                            system.server().state_stats().locks_reclaimed > 0,
                            "{name}: the crash cell never exercised a grace-period reclaim"
                        );
                    }
                }
                if churn > 0 {
                    check(&name, &snapshot, "client_reboots>0");
                }
                let params = [("crash_interval_secs", crash.into())];
                grid.push((name.clone(), record(&name, STATE_GRID, &snapshot, &params)));
            }
        }
    }

    // Datagram loss with a short retry budget makes some streams give up.
    // A gave-up stream stops renewing, so the server's expiry sweep must
    // reclaim its lease and orphan its lock rather than hold them forever.
    let name = "abandoned_streams";
    let (_, snapshot) = run_sfs(
        leased()
            .with_lease_timing(
                Duration::from_millis(300),
                Duration::from_millis(900),
                Duration::from_millis(300),
            )
            .with_loss(0.08)
            .with_retry(Duration::from_millis(150), 2),
        false,
    );
    if snapshot.num("lease_dead_streams") > 0.0 {
        check(name, &snapshot, "leases_expired>0");
    }
    assert!(
        snapshot.num("held_locks") <= snapshot.num("active_lease_clients"),
        "{name}: a lock survived its owner's lease expiry"
    );
    let abandoned = record(name, ABANDONED, &snapshot, &[]);

    let suite = Json::object([
        ("smoke", smoke.into()),
        ("secs", secs.into()),
        ("grid_clients", clients.into()),
        ("offered_ops_per_sec", load.into()),
        ("grid", Json::object(grid)),
        ("abandoned_streams", abandoned),
        ("lease_storm_10k", lease_storm(smoke)),
    ]);
    report.set("state_storms", suite);
}

/// The 10,000-client lease storm: the scaled SFS stack run twice at one
/// offered load, stateless and then with every stream registering, renewing
/// and locking against the 8-way-sharded state table.  The achieved-ops
/// delta prices the state layer.
fn lease_storm(smoke: bool) -> Json {
    let name = "lease_storm_10k";
    let clients = 10_000;
    // At least four renewal intervals: register, lock, renew, and a margin
    // for the replies to land.
    let (secs, load) = if smoke { (4, 100.0) } else { (5, 200.0) };
    let mut stateless = SfsConfig::scaled(load, WritePolicy::Gathering, clients)
        .with_shards(8)
        // The storm is about state traffic, not the file working set: a
        // small scratch rotation limit and a wide inode spread keep the
        // 10k × 32-slot scratch namespace (~320k inodes) inside the inode
        // region (96 groups × 3584 inodes, under the 109-group cap).
        .with_scratch_file_limit(256 * 1024)
        .with_inode_groups(96);
    stateless.duration = Duration::from_secs(secs);
    stateless.file_count = 30;

    let (off_system, off) = run_sfs(stateless.clone(), false);
    assert_eq!(
        off_system.server().state_stats(),
        &wg_server::StateStats::default(),
        "{name}: the stateless baseline touched the state table"
    );
    // Every registration lands in one microseconds-wide wave, far past the
    // server's per-second capacity, so the run measures survival under
    // overload.  The lease outlives the run, so absorption is pure
    // throughput, not a race against the expiry clock, and none may expire.
    let (on_system, on) = run_sfs(
        stateless.with_leases(true).with_lease_timing(
            Duration::from_millis(1000),
            Duration::from_secs(10 * secs),
            Duration::from_millis(500),
        ),
        false,
    );
    check(name, &on, "leases_expired=0");
    let registered = on.num("active_lease_clients");
    assert!(
        registered > 0.0 && registered <= clients as f64,
        "{name}: registration count {registered} is not sane for {clients} clients"
    );
    assert!(
        on_system.server().state_stats().locks_granted > 0,
        "{name}: no registered stream ever acquired its lock"
    );
    assert!(
        on.num("held_locks") <= registered,
        "{name}: a lock is held by a client with no live lease"
    );
    let (off_ops, on_ops) = (
        off.num("achieved_ops_per_sec"),
        on.num("achieved_ops_per_sec"),
    );
    let bytes_per_client = on.num("state_table_bytes") as u64 / registered.max(1.0) as u64;
    // Both runs' provenance: past-time clamps add, depths take the max.
    let clamped = off.num("clamped_past") + on.num("clamped_past");
    let depth = off.num("sched_max_depth").max(on.num("sched_max_depth"));
    let params = [
        ("registered_clients", registered.into()),
        ("registration_ratio", (registered / clients as f64).into()),
        ("state_bytes_per_registered_client", bytes_per_client.into()),
        ("achieved_ops_per_sec_stateless", off_ops.into()),
        ("achieved_ops_per_sec_leases", on_ops.into()),
        ("knee_shift_ops_per_sec", (off_ops - on_ops).into()),
        ("avg_latency_ms_stateless", off.num("avg_latency_ms").into()),
        ("avg_latency_ms_leases", on.num("avg_latency_ms").into()),
        ("clamped_past", clamped.into()),
        ("sched_max_depth", depth.into()),
    ];
    record(name, LEASE_STORM, &on, &params)
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../../BENCH_writepath.json");

    /// Every cell layout, whether a copy run (else an SFS run) snapshots its
    /// cells, and where the committed cells sit: dotted paths in which `*`
    /// stands for every key with the prefix before it, or every array item.
    const CATALOG: [(Layout, bool, &str); 13] = [
        (CURRENT, true, "current.*"),
        (
            FAULT_SFS,
            false,
            "faults.grid.* faults.reference_no_fault faults.presto_battery_failure",
        ),
        (FAULT_UNSTABLE, false, "faults.presto_battery_unstable"),
        (FAULT_COPY, true, "faults.copy_crash_*"),
        (SCALE, true, "scale.*"),
        (CURVE, false, "sfs_scale.baseline sfs_scale.current"),
        (
            CURVE_POINT,
            false,
            "sfs_scale.baseline.points.* sfs_scale.current.points.*",
        ),
        (STABILITY_SFS, false, "stability.sfs.*"),
        (STABILITY_COPY, true, "stability.copy.*"),
        (COMMIT_PACING, true, "stability.commit_pacing.*"),
        (STATE_GRID, false, "state_storms.grid.*"),
        (ABANDONED, false, "state_storms.abandoned_streams"),
        (LEASE_STORM, false, "state_storms.lease_storm_10k"),
    ];

    /// The fields cells supply themselves rather than read from a snapshot.
    const PARAMS: &str = "events_per_sec sim_client_kb_per_sec crash_interval_secs \
         battery_failure serial_twin_kb_per_sec \
         peak_achieved_ops_per_sec peak_avg_latency_ms serial_wall_ms parallel_wall_ms threads \
         parallel_speedup points registered_clients registration_ratio \
         state_bytes_per_registered_client achieved_ops_per_sec_stateless \
         achieved_ops_per_sec_leases knee_shift_ops_per_sec avg_latency_ms_stateless \
         avg_latency_ms_leases";

    /// The cells of `report` at the whitespace-separated dotted `paths`.
    fn cells<'a>(report: &'a Json, paths: &str) -> Vec<&'a Json> {
        let step = |json: &'a Json, key: &str| -> Vec<&'a Json> {
            match (key.strip_suffix('*'), json) {
                (Some(prefix), Json::Object(fields)) => fields
                    .iter()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .map(|(_, v)| v)
                    .collect(),
                (Some(_), Json::Array(items)) => items.iter().collect(),
                _ => vec![json.get(key).expect("committed key")],
            }
        };
        paths
            .split_whitespace()
            .flat_map(|path| {
                path.split('.').fold(vec![report], |found, key| {
                    found.into_iter().flat_map(|json| step(json, key)).collect()
                })
            })
            .collect()
    }

    #[test]
    fn field_lists_match_the_committed_cells() {
        let report = Json::parse(COMMITTED).expect("the committed report parses");
        for (layout, _, paths) in CATALOG {
            let cells = cells(&report, paths);
            assert!(!cells.is_empty(), "no committed cells at {paths}");
            for cell in cells {
                let Json::Object(committed) = cell else {
                    panic!("{cell} is not a cell");
                };
                let keys = committed.iter().map(|(k, _)| k.as_str());
                assert!(keys.eq(fields(layout)), "{cell} is not laid out as {paths}");
            }
        }
    }

    #[test]
    fn the_scale_suite_runs_exactly_the_committed_cells() {
        let report = Json::parse(COMMITTED).expect("the committed report parses");
        let Some(Json::Object(committed)) = report.get("scale") else {
            panic!("no committed scale key");
        };
        let names: Vec<String> = scale_cells(false)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let keys: Vec<&str> = committed.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(names, keys);
    }

    #[test]
    fn every_recorded_name_resolves_in_a_fresh_snapshot() {
        let (_, copy) = run_copy(
            ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Gathering)
                .with_file_size(256 * 1024),
        );
        let mut sfs = figure(false, 100.0, 1);
        sfs.file_count = 10;
        let (_, sfs) = run_sfs(sfs, true);
        for (layout, is_copy, _) in CATALOG {
            let snapshot = if is_copy { &copy } else { &sfs };
            for field in fields(layout) {
                assert!(
                    snapshot.get(field).is_some() || PARAMS.split_whitespace().any(|p| p == field),
                    "{field} is neither in a fresh snapshot nor a cell's own field"
                );
            }
        }
    }
}
