//! Multi-client scale-out sweep: clients × per-client file size — plus, since
//! the sharded-server and pipelined-storage PRs, shard-count, core-count,
//! spindle-count and I/O-overlap axes — up to a 1 GB aggregate.
//!
//! Each cell runs a [`wg_workload::FileCopySystem`] fleet, whose `run()`
//! audits that every client finished and that no `InProgress`
//! duplicate-cache entry was ever evicted (the §6.9 orphaned-write hazard),
//! verifies the data landed correctly (every block carries its writer's
//! salted fill byte), asserts the zero-copy datapath never materialised a
//! payload, and records wall-clock plus the simulated
//! aggregate/fairness numbers and a per-spindle busy/queue-depth breakdown.
//! Cells running `--overlap` are raced against their serial twin (the same
//! configuration with the serial driver) and must never be slower — and, on
//! a striped device, must beat it outright: the one check a dead overlap
//! knob cannot pass.  The results are merged into `BENCH_writepath.json`
//! under the
//! `"scale"` key — cell by cell, so new-axis cells sit alongside the earlier
//! cells instead of replacing them.
//!
//! ```text
//! cargo run --release -p wg-bench --bin scale_sweep                 # full sweep
//! cargo run --release -p wg-bench --bin scale_sweep -- --smoke      # CI: 2 clients, small files
//! cargo run --release -p wg-bench --bin scale_sweep -- --shards 4 --cores 4 --lans
//! cargo run --release -p wg-bench --bin scale_sweep -- --spindles 3 --overlap
//! cargo run --release -p wg-bench --bin scale_sweep -- --out other.json
//! ```

use std::time::Instant;

use wg_bench::cli::{flag_value, parse_list};
use wg_bench::report::{extract_object, upsert_object};
use wg_disk::SpindleStats;
use wg_nfsproto::payload::materialize_count;
use wg_server::WritePolicy;
use wg_simcore::Duration;
use wg_workload::results::json;
use wg_workload::{ExperimentConfig, FileCopySystem, NetworkKind};

/// One timed sweep cell.
struct ScaleCell {
    clients: usize,
    mb_per_client: u64,
    shards: usize,
    cores: usize,
    spindles: usize,
    overlap: bool,
    lans: bool,
    wall_ms: f64,
    events_processed: u64,
    sim_aggregate_kb_per_sec: f64,
    sim_fairness: f64,
    sim_elapsed_secs: f64,
    evicted_in_progress: u64,
    materializations: u64,
    /// Aggregate throughput of the identical configuration with the serial
    /// driver, run alongside every `--overlap` cell: the proof the pipeline
    /// actually overlaps (`None` for serial cells).
    serial_twin_kb_per_sec: Option<f64>,
    /// Per-spindle breakdown over the simulated elapsed span.
    spindles_detail: Vec<SpindleStats>,
}

impl ScaleCell {
    /// Cell key: the default configuration (1 shard, 1 core, 1 spindle,
    /// serial driver, shared medium) keeps the PR 2 names (`c4_mb256`) so
    /// trajectories line up; every non-default axis is part of the key
    /// (`_s4`, `_cr4`, `_sp3`, `_ov`, `_lan`) so sweeps over different
    /// topologies never overwrite each other's cells.
    fn name(&self) -> String {
        let mut name = format!("c{}_mb{}", self.clients, self.mb_per_client);
        if self.shards > 1 {
            name.push_str(&format!("_s{}", self.shards));
        }
        if self.cores > 1 {
            name.push_str(&format!("_cr{}", self.cores));
        }
        if self.spindles > 1 {
            name.push_str(&format!("_sp{}", self.spindles));
        }
        if self.overlap {
            name.push_str("_ov");
        }
        if self.lans {
            name.push_str("_lan");
        }
        name
    }

    /// Aggregate spindle busy seconds and the busiest single spindle's.
    fn busy_split(&self) -> (f64, f64) {
        let busys: Vec<f64> = self
            .spindles_detail
            .iter()
            .map(|s| s.stats.busy.busy_time().as_secs_f64())
            .collect();
        let total: f64 = busys.iter().sum();
        let max = busys.iter().copied().fold(0.0, f64::max);
        (total, max)
    }

    fn to_json(&self) -> (String, String) {
        let observed = Duration::from_secs_f64(self.sim_elapsed_secs.max(1e-9));
        let spindle_objs: Vec<String> = self
            .spindles_detail
            .iter()
            .map(|s| {
                json::object(&[
                    ("busy_percent", json::number(s.busy_percent(observed))),
                    ("transfers", s.stats.transfers.events().to_string()),
                    ("bytes", s.stats.transfers.bytes().to_string()),
                    ("max_queue_depth", s.max_queue_depth.to_string()),
                ])
            })
            .collect();
        (
            self.name(),
            json::object(&[
                ("clients", self.clients.to_string()),
                ("mb_per_client", self.mb_per_client.to_string()),
                ("shards", self.shards.to_string()),
                ("cores", self.cores.to_string()),
                ("spindles", self.spindles.to_string()),
                ("io_overlap", self.overlap.to_string()),
                ("per_client_lans", self.lans.to_string()),
                ("wall_ms", json::number(self.wall_ms)),
                ("events_processed", self.events_processed.to_string()),
                (
                    "sim_aggregate_kb_per_sec",
                    json::number(self.sim_aggregate_kb_per_sec),
                ),
                ("sim_fairness", json::number(self.sim_fairness)),
                ("sim_elapsed_secs", json::number(self.sim_elapsed_secs)),
                ("evicted_in_progress", self.evicted_in_progress.to_string()),
                ("materializations", self.materializations.to_string()),
                (
                    "serial_twin_kb_per_sec",
                    self.serial_twin_kb_per_sec
                        .map(json::number)
                        .unwrap_or_else(|| "null".to_string()),
                ),
                ("spindle_breakdown", json::array(&spindle_objs)),
            ]),
        )
    }
}

struct SweepAxes {
    shards: usize,
    cores: usize,
    spindles: usize,
    overlap: bool,
    lans: bool,
}

fn run_cell(clients: usize, mb_per_client: u64, axes: &SweepAxes) -> ScaleCell {
    let build = |overlap: bool| {
        FileCopySystem::new(
            ExperimentConfig::fleet(NetworkKind::Fddi, clients, 4, WritePolicy::Gathering)
                .with_file_size(mb_per_client * 1024 * 1024)
                .with_shards(axes.shards)
                .with_cores(axes.cores)
                .with_spindles(axes.spindles)
                .with_io_overlap(overlap)
                .with_per_client_lans(axes.lans),
        )
    };
    // An `--overlap` cell is raced against its serial twin: a fully serial
    // run also keeps every spindle of a stripe set busy, so only the
    // aggregate-throughput comparison proves the pipeline is actually
    // overlapping (see the assertion below).
    let serial_twin_kb_per_sec = axes
        .overlap
        .then(|| build(false).run().client_write_kb_per_sec);
    let start = Instant::now();
    let materialized_before = materialize_count();
    let mut system = build(axes.overlap);
    system.run();
    let result = system.fleet_result();
    let wall = start.elapsed();
    system
        .verify_on_disk()
        .expect("multi-client data integrity check failed");
    let materializations = materialize_count() - materialized_before;
    assert_eq!(
        materializations, 0,
        "the zero-copy datapath materialised a payload"
    );
    let cell = ScaleCell {
        clients,
        mb_per_client,
        shards: axes.shards,
        cores: axes.cores,
        spindles: axes.spindles,
        overlap: axes.overlap,
        lans: axes.lans,
        wall_ms: wall.as_secs_f64() * 1e3,
        events_processed: system.events_processed(),
        sim_aggregate_kb_per_sec: result.aggregate_kb_per_sec,
        sim_fairness: result.fairness,
        sim_elapsed_secs: result.elapsed_secs,
        evicted_in_progress: system.server().dupcache_evicted_in_progress(),
        materializations,
        serial_twin_kb_per_sec,
        spindles_detail: system.server().spindle_stats(),
    };
    if let Some(serial) = serial_twin_kb_per_sec {
        // Pipelining must never lose throughput, and on a striped device it
        // must win outright — a dead io_overlap knob fails this even though
        // stripe pieces would still spread busy time over every member.
        if axes.spindles > 1 {
            assert!(
                cell.sim_aggregate_kb_per_sec > serial,
                "pipelining lost its win: overlap {:.1} KB/s vs serial twin {serial:.1} KB/s",
                cell.sim_aggregate_kb_per_sec
            );
        } else {
            assert!(
                cell.sim_aggregate_kb_per_sec >= serial * 0.999,
                "pipelining slowed a single-spindle run: overlap {:.1} KB/s \
                 vs serial twin {serial:.1} KB/s",
                cell.sim_aggregate_kb_per_sec
            );
        }
    }
    cell
}

fn main() {
    let mut out_path = "BENCH_writepath.json".to_string();
    let mut clients: Vec<u64> = vec![1, 2, 4];
    let mut mb_per_client: Vec<u64> = vec![64, 256];
    let mut axes = SweepAxes {
        shards: 1,
        cores: 1,
        spindles: 1,
        overlap: false,
        lans: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => out_path = flag_value(&mut iter, &arg),
            "--smoke" => {
                clients = vec![2];
                mb_per_client = vec![1];
            }
            "--clients" => {
                let list: String = flag_value(&mut iter, &arg);
                clients = parse_list(&arg, &list);
            }
            "--mb-per-client" => {
                let list: String = flag_value(&mut iter, &arg);
                mb_per_client = parse_list(&arg, &list);
            }
            "--shards" => axes.shards = flag_value(&mut iter, &arg),
            "--cores" => axes.cores = flag_value(&mut iter, &arg),
            "--spindles" => axes.spindles = flag_value(&mut iter, &arg),
            "--overlap" => axes.overlap = true,
            "--lans" => axes.lans = true,
            other => panic!(
                "unknown argument {other}; use --smoke, --out PATH, \
                 --clients A,B,C, --mb-per-client A,B,C, --shards N, \
                 --cores N, --spindles N, --overlap, --lans"
            ),
        }
    }

    let mut cells = Vec::new();
    for &c in &clients {
        for &mb in &mb_per_client {
            let aggregate_mb = c * mb;
            if aggregate_mb > 1024 {
                println!("skipping {c} clients x {mb} MB ({aggregate_mb} MB aggregate > 1 GB cap)");
                continue;
            }
            let cell = run_cell(c as usize, mb, &axes);
            let (total_busy, max_busy) = cell.busy_split();
            println!(
                "{:<22} {:>9.1} ms wall   {:>9} events   sim {:>8.0} KB/s aggregate   \
                 fairness {:.3}   {:>7.1} sim-secs   spindle busy {:.1}s/{:.1}s",
                cell.name(),
                cell.wall_ms,
                cell.events_processed,
                cell.sim_aggregate_kb_per_sec,
                cell.sim_fairness,
                cell.sim_elapsed_secs,
                max_busy,
                total_busy,
            );
            cells.push(cell);
        }
    }

    // Merge cell-by-cell into the existing "scale" object so cells from
    // earlier sweeps (other shard counts, other client axes) are preserved.
    let previous = std::fs::read_to_string(&out_path).unwrap_or_default();
    let mut scale = extract_object(&previous, "scale").unwrap_or_else(|| "{}".to_string());
    for cell in &cells {
        let (name, value) = cell.to_json();
        scale = upsert_object(&scale, &name, &value);
        scale = scale.trim_end().to_string();
    }
    let report = upsert_object(&previous, "scale", &scale);
    std::fs::write(&out_path, report).expect("write report");
    println!("wrote {out_path}");
}
