//! Wall-clock benchmark of the simulator's write datapath.
//!
//! Times a canonical cell set — the Table 1 cell (Ethernet, 15 biods, 10 MB,
//! both policies), the Table 3 cell (FDDI, 15 biods, 10 MB, both policies)
//! and one SFS point — and writes `BENCH_writepath.json` so every PR has a
//! performance trajectory to compare against.
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
use wg_bench::report::{carry_unknown_keys, extract_object, stamp_cell};
use wg_server::WritePolicy;
use wg_simcore::CalStats;
use wg_workload::results::json;
use wg_workload::sfs::SfsSystem;
use wg_workload::{ExperimentConfig, FileCopySystem, NetworkKind, SfsConfig};

/// One timed cell: wall-clock plus simulation event statistics.
struct CellMeasurement {
    name: &'static str,
    wall_ms: f64,
    events_processed: u64,
    scheduled_total: u64,
    events_per_sec: f64,
    /// A stable scalar from the simulated result, so a run that got faster by
    /// simulating something different is caught immediately.
    sim_client_kb_per_sec: f64,
    /// Past-time clamps observed by the cell's queue(s); recorded via the
    /// shared provenance stamp and always expected to be zero.
    clamped_past: u64,
    /// The event queue's health counters for the cell's run(s).
    sched: CalStats,
}

impl CellMeasurement {
    fn to_json(&self) -> (&'static str, String) {
        let mut fields = vec![
            ("wall_ms", json::number(self.wall_ms)),
            ("events_processed", self.events_processed.to_string()),
            ("scheduled_total", self.scheduled_total.to_string()),
            ("events_per_sec", json::number(self.events_per_sec)),
            (
                "sim_client_kb_per_sec",
                json::number(self.sim_client_kb_per_sec),
            ),
        ];
        stamp_cell(&mut fields, self.clamped_past, &self.sched);
        (self.name, json::object(&fields))
    }
}

/// Time one file-copy table cell: both policies at the given network and biod
/// count, as `run_table` would execute them for one column.
fn time_copy_cell(
    name: &'static str,
    network: NetworkKind,
    biods: usize,
    file_size: u64,
) -> CellMeasurement {
    let start = Instant::now();
    let mut events = 0u64;
    let mut scheduled = 0u64;
    let mut kb_per_sec = 0.0;
    let mut clamped = 0u64;
    let mut sched = CalStats::default();
    for policy in [WritePolicy::Standard, WritePolicy::Gathering] {
        let mut system = FileCopySystem::new(
            ExperimentConfig::new(network, biods, policy).with_file_size(file_size),
        );
        let result = system.run();
        events += system.events_processed();
        scheduled += system.scheduled_total();
        kb_per_sec += result.client_write_kb_per_sec;
        clamped += system.clamped_past();
        sched.absorb(&system.sched_stats());
    }
    let wall = start.elapsed();
    CellMeasurement {
        name,
        wall_ms: wall.as_secs_f64() * 1e3,
        events_processed: events,
        scheduled_total: scheduled,
        events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
        sim_client_kb_per_sec: kb_per_sec,
        clamped_past: clamped,
        sched,
    }
}

/// Time one SFS measurement point (FDDI, gathering, fixed offered load).
fn time_sfs_point(name: &'static str, secs: u64) -> CellMeasurement {
    let start = Instant::now();
    let mut config = SfsConfig::figure2(800.0, WritePolicy::Gathering);
    config.duration = wg_simcore::Duration::from_secs(secs);
    let mut system = SfsSystem::new(config);
    let point = system.run();
    let wall = start.elapsed();
    CellMeasurement {
        name,
        wall_ms: wall.as_secs_f64() * 1e3,
        events_processed: system.events_processed(),
        scheduled_total: system.scheduled_total(),
        events_per_sec: system.events_processed() as f64 / wall.as_secs_f64().max(1e-9),
        sim_client_kb_per_sec: point.achieved_ops_per_sec,
        clamped_past: system.clamped_past(),
        sched: system.sched_stats(),
    }
}

fn measure(file_mb: u64, sfs_secs: u64) -> Vec<CellMeasurement> {
    let file_size = file_mb * 1024 * 1024;
    vec![
        time_copy_cell("table1_15biods", NetworkKind::Ethernet, 15, file_size),
        time_copy_cell("table3_15biods", NetworkKind::Fddi, 15, file_size),
        time_sfs_point("sfs_point_800ops", sfs_secs),
    ]
}

fn cells_json(cells: &[CellMeasurement]) -> String {
    let fields: Vec<(&str, String)> = cells.iter().map(|c| c.to_json()).collect();
    json::object(&fields)
}

/// Pull `"wall_ms":<number>` for a named cell out of a baseline object.
fn baseline_wall_ms(baseline: &str, cell: &str) -> Option<f64> {
    let at = baseline.find(&format!("\"{cell}\":"))?;
    let rest = &baseline[at..];
    let at = rest.find("\"wall_ms\":")? + "\"wall_ms\":".len();
    let tail = &rest[at..];
    let end = tail
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
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

    let cells = measure(file_mb, sfs_secs);
    for c in &cells {
        println!(
            "{:<20} {:>10.1} ms   {:>9} events   {:>12.0} events/s   (sim {:.0} KB/s or ops/s)",
            c.name, c.wall_ms, c.events_processed, c.events_per_sec, c.sim_client_kb_per_sec
        );
    }

    let previous = std::fs::read_to_string(&out_path).unwrap_or_default();
    // Other binaries (`scale_sweep`, `sfs_sweep`, `fault_sweep`, and any
    // future ones) merge their sections into the same file; carry every
    // top-level key this binary does not own across the rewrite, by walking
    // the report rather than naming them.
    const OWNED: [&str; 6] = [
        "bench", "file_mb", "sfs_secs", "baseline", "current", "speedup",
    ];
    let carried = carry_unknown_keys(&previous, &OWNED);
    let report = if record_baseline {
        let mut fields = vec![
            ("bench", "\"writepath\"".to_string()),
            ("file_mb", file_mb.to_string()),
            ("sfs_secs", sfs_secs.to_string()),
            ("baseline", cells_json(&cells)),
        ];
        for (key, value) in &carried {
            fields.push((key.as_str(), value.clone()));
        }
        json::object(&fields)
    } else {
        let baseline = extract_object(&previous, "baseline")
            .expect("no baseline in the report; run with --record-baseline first");
        let speedups: Vec<(&str, String)> = cells
            .iter()
            .filter_map(|c| {
                let base = baseline_wall_ms(&baseline, c.name)?;
                Some((c.name, json::number(base / c.wall_ms.max(1e-9))))
            })
            .collect();
        for (name, speedup) in &speedups {
            println!("{name:<20} speedup vs baseline: {speedup}x");
        }
        // A full-size run must never be slower than the recorded baseline: a
        // scheduler regression should fail the bench loudly instead of
        // silently re-recording a slower "current".  Smoke runs (shrunken
        // --file-mb / --sfs-secs) are exempt — their wall times are too short
        // to compare against the full-size baseline at all.
        if file_mb >= 10 && sfs_secs >= 10 {
            for c in &cells {
                if let Some(base) = baseline_wall_ms(&baseline, c.name) {
                    let speedup = base / c.wall_ms.max(1e-9);
                    assert!(
                        speedup >= 1.0,
                        "{}: wall {:.1} ms is slower than the recorded baseline \
                         {:.1} ms (speedup {:.2}x < 1.0)",
                        c.name,
                        c.wall_ms,
                        base,
                        speedup
                    );
                }
            }
        }
        let mut fields = vec![
            ("bench", "\"writepath\"".to_string()),
            ("file_mb", file_mb.to_string()),
            ("sfs_secs", sfs_secs.to_string()),
            ("baseline", baseline),
            ("current", cells_json(&cells)),
            ("speedup", json::object(&speedups)),
        ];
        for (key, value) in &carried {
            fields.push((key.as_str(), value.clone()));
        }
        json::object(&fields)
    };
    std::fs::write(&out_path, format!("{report}\n")).expect("write report");
    println!("wrote {out_path}");
}
