//! Wall-clock benchmark of the simulator's write datapath.
//!
//! Times a canonical cell set — the Table 1 cell (Ethernet, 15 biods, 10 MB,
//! both policies), the Table 3 cell (FDDI, 15 biods, 10 MB, both policies)
//! and one SFS point — and writes `BENCH_writepath.json` so every PR has a
//! performance trajectory to compare against.  Each cell runs [`RUNS`] times
//! and records the median wall clock, so one slow run on a shared host does
//! not land in the report.
//!
//! ```text
//! cargo run --release -p wg-bench --bin writepath_bench -- --record-baseline
//! cargo run --release -p wg-bench --bin writepath_bench
//! cargo run --release -p wg-bench --bin writepath_bench -- --out other.json
//! ```
//!
//! `--record-baseline` writes the measurements under the `"baseline"` key.  A
//! normal run preserves any existing `"baseline"` object verbatim, writes the
//! fresh measurements under `"current"`, and reports per-cell speedups.

use std::time::Instant;

use wg_bench::cli::flag_value;
use wg_bench::metrics;
use wg_bench::report::{self, host_parallelism, Json};
use wg_server::WritePolicy;
use wg_simcore::Duration;
use wg_workload::sfs::SfsSystem;
use wg_workload::{ExperimentConfig, FileCopySystem, NetworkKind, SfsConfig};

/// Times each cell is run; the cell records the median wall clock.
const RUNS: usize = 5;

/// Run `cell` [`RUNS`] times: the median wall clock in seconds, and the last
/// run's output (every run simulates the same thing).  Only `cell` itself
/// is timed; the previous output is dropped after its clock stops.
fn median_wall<T>(mut cell: impl FnMut() -> T) -> (f64, T) {
    let mut walls = [0.0; RUNS];
    let mut last = None;
    for wall in &mut walls {
        let start = Instant::now();
        let output = cell();
        *wall = start.elapsed().as_secs_f64();
        last = Some(output);
    }
    walls.sort_by(f64::total_cmp);
    (walls[RUNS / 2], last.expect("at least one run"))
}

/// One timed cell, from the snapshots of its runs and their wall clock in
/// seconds: the runs' counts summed, the deepest event queue among them,
/// and the host parallelism the wall clock was measured under.  `sim` names
/// the simulated scalar that catches a run that got faster by simulating
/// something different.
fn cell(wall: f64, runs: &[Json], sim: &str) -> Json {
    let sum = |field: &str| runs.iter().map(|run| run.num(field)).sum::<f64>();
    let depth = runs.iter().map(|run| run.num("sched_max_depth"));
    let events = sum("events_processed");
    Json::object([
        ("wall_ms", (wall * 1e3).into()),
        ("events_processed", events.into()),
        ("scheduled_total", sum("scheduled_total").into()),
        ("events_per_sec", (events / wall.max(1e-9)).into()),
        ("sim_client_kb_per_sec", sum(sim).into()),
        ("clamped_past", sum("clamped_past").into()),
        ("host_parallelism", host_parallelism().into()),
        ("sched_max_depth", depth.fold(0.0, f64::max).into()),
    ])
}

/// The canonical cells: the Table 1 and Table 3 columns at 15 biods, both
/// policies as `run_table` executes them, and one SFS point.
fn measure(file_mb: u64, sfs_secs: u64) -> Vec<(&'static str, Json)> {
    let copy = |network| {
        let (wall, runs) = median_wall(|| {
            [WritePolicy::Standard, WritePolicy::Gathering].map(|policy| {
                let config = ExperimentConfig::new(network, 15, policy);
                let mut system = FileCopySystem::new(config.with_file_size(file_mb * 1024 * 1024));
                let result = system.run();
                (system, result)
            })
        });
        let runs = runs.map(|(system, result)| metrics::copy(&system, &result));
        cell(wall, &runs, "client_write_kb_per_sec")
    };
    let table1 = copy(NetworkKind::Ethernet);
    let table3 = copy(NetworkKind::Fddi);
    let (wall, (system, point)) = median_wall(|| {
        let mut config = SfsConfig::figure2(800.0, WritePolicy::Gathering);
        config.duration = Duration::from_secs(sfs_secs);
        let mut system = SfsSystem::new(config);
        let point = system.run();
        (system, point)
    });
    let sfs = cell(
        wall,
        &[metrics::sfs(&system, &point)],
        "achieved_ops_per_sec",
    );
    vec![
        ("table1_15biods", table1),
        ("table3_15biods", table3),
        ("sfs_point_800ops", sfs),
    ]
}

fn main() {
    let mut out_path = "BENCH_writepath.json".to_string();
    let mut record_baseline = false;
    let mut file_mb = 10u64;
    let mut sfs_secs = 10u64;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => out_path = flag_value(&mut iter, &arg),
            "--record-baseline" => record_baseline = true,
            "--file-mb" => file_mb = flag_value(&mut iter, &arg),
            "--sfs-secs" => sfs_secs = flag_value(&mut iter, &arg),
            other => panic!("unknown argument {other}; use --out PATH, --record-baseline, --file-mb N, --sfs-secs N"),
        }
    }

    // Other binaries (`sweep`, and any future ones) keep their sections in
    // the same file: load the whole report and set only this binary's keys.
    // A report that exists but does not parse stops the run before any cell
    // runs, and is left as it is.
    let mut report = report::load(&out_path).unwrap_or_else(|e| panic!("{e}"));
    let baseline = (!record_baseline).then(|| {
        let baseline = report
            .get("baseline")
            .filter(|b| matches!(b, Json::Object(_)));
        baseline
            .cloned()
            .expect("no baseline in the report; run with --record-baseline first")
    });

    let cells = measure(file_mb, sfs_secs);
    for (name, cell) in &cells {
        println!("{name:<20} {cell}");
    }
    report.set("bench", "writepath".into());
    report.set("file_mb", file_mb.into());
    report.set("sfs_secs", sfs_secs.into());
    let Some(baseline) = baseline else {
        report.set("baseline", Json::object(cells));
        report.remove("current");
        report.remove("speedup");
        report::save(&out_path, &report);
        println!("wrote {out_path}");
        return;
    };
    let wall_ms = |cell: Option<&Json>| cell?.get("wall_ms")?.as_f64();
    let mut speedups = Vec::new();
    for (name, cell) in &cells {
        let (Some(base), Some(wall)) = (wall_ms(baseline.get(name)), wall_ms(Some(cell))) else {
            continue;
        };
        let speedup = base / wall.max(1e-9);
        println!("{name:<20} speedup vs baseline: {speedup}x");
        // A full-size run must never be slower than the recorded baseline:
        // a scheduler regression should fail the bench loudly instead of
        // silently re-recording a slower "current".  Smoke runs (shrunken
        // --file-mb / --sfs-secs) are exempt — their wall times are too
        // short to compare against the full-size baseline at all.
        assert!(
            file_mb < 10 || sfs_secs < 10 || speedup >= 1.0,
            "{name}: wall {wall:.1} ms is slower than the recorded baseline \
             {base:.1} ms (speedup {speedup:.2}x < 1.0)"
        );
        speedups.push((*name, speedup.into()));
    }
    report.set("baseline", baseline);
    report.set("current", Json::object(cells));
    report.set("speedup", Json::object(speedups));
    report::save(&out_path, &report);
    println!("wrote {out_path}");
}
