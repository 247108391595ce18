//! Golden-output tests: every simulated number of the file-copy and
//! writer-fleet drivers must be byte-identical to the checked-in snapshots.
//!
//! Refactors of the drivers, the payload representation, the wire-size
//! accounting or the event loop are pure wall-clock changes; none may
//! perturb a simulated number.  The table snapshot pins all 68 cells of
//! Tables 1–6 at a reduced file size twice over: the paper's rendered
//! layout, then each cell's full-precision result record.  The fleet
//! snapshot pins the per-client and aggregate results of three writer-fleet
//! cells (segment rollover; sharded, striped and overlapped with per-client
//! LANs; unstable with paced COMMITs).
//!
//! To regenerate after an *intentional* simulation change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --release -p wg-apps --test golden_tables
//! ```

use wg_bench::{run_table_with, TABLES};
use wg_server::{ServerConfig, StabilityMode, WritePolicy};
use wg_workload::{ExperimentConfig, FileCopySystem, NetworkKind};

const TABLES_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/tables_1mb.txt"
);
const FLEET_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/writer_fleet.txt"
);
const MB: u64 = 1024 * 1024;

/// Compare `rendered` with the snapshot at `path`, or rewrite the snapshot
/// under `GOLDEN_REGEN`.
fn check_golden(path: &str, rendered: &str, what: &str) {
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(path, rendered).expect("write golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden snapshot missing; run with GOLDEN_REGEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "{what} drifted from the golden snapshot; if the simulation change is \
         intentional, regenerate with GOLDEN_REGEN=1"
    );
}

/// Every table at 1 MB: the paper's layout, then one result record per cell.
fn render_tables(customize: impl Fn(&mut ServerConfig)) -> String {
    let outputs: Vec<_> = TABLES
        .iter()
        .map(|spec| run_table_with(spec, MB, &customize))
        .collect();
    let mut out: String = outputs.iter().map(|t| t.render() + "\n").collect();
    for table in &outputs {
        for cell in table.without.iter().chain(&table.with) {
            out.push_str(&format!("T{} {}\n", table.spec.number, cell.to_json()));
        }
    }
    out
}

#[test]
fn all_tables_reduced_render_matches_golden() {
    check_golden(TABLES_GOLDEN, &render_tables(|_| {}), "Tables 1-6");
}

#[test]
fn explicitly_serial_server_matches_golden_exactly() {
    // The sharded request path, the multi-core CPU model and the pipelined
    // storage stack must all collapse to the paper's machine when explicitly
    // configured down to one shard, one core and the serial driver: every
    // cell of Tables 1–6 stays byte-identical to the golden snapshot, so
    // neither the sharding nor the I/O-overlap refactor can have moved a
    // single simulated number.
    let rendered = render_tables(|server_config| {
        server_config.shards = 1;
        server_config.cores = 1;
        server_config.io_overlap = false;
    });
    let golden = std::fs::read_to_string(TABLES_GOLDEN)
        .expect("golden snapshot missing; run with GOLDEN_REGEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "a shards=1, cores=1, io_overlap=off server no longer reproduces \
         the paper's numbers"
    );
}

#[test]
fn writer_fleet_results_match_golden() {
    let cells = [
        (
            "2 clients x 2 segments",
            ExperimentConfig::fleet(NetworkKind::Fddi, 2, 4, WritePolicy::Gathering)
                .with_file_size(MB)
                .with_file_limit(MB / 2),
        ),
        (
            "4 clients, 4 shards, per-client LANs, 3 spindles, io_overlap",
            ExperimentConfig::fleet(NetworkKind::Fddi, 4, 4, WritePolicy::Gathering)
                .with_file_size(MB)
                .with_shards(4)
                .with_per_client_lans(true)
                .with_spindles(3)
                .with_io_overlap(true),
        ),
        (
            "3 unstable clients, COMMIT every 256 KB",
            ExperimentConfig::fleet(NetworkKind::Fddi, 3, 4, WritePolicy::Gathering)
                .with_file_size(MB)
                .with_unified_cache(4096)
                .with_stability(StabilityMode::Unstable)
                .with_commit_interval(256 * 1024),
        ),
    ];
    let rendered: String = cells
        .into_iter()
        .map(|(label, config)| {
            let mut system = FileCopySystem::new(config);
            system.run();
            let result = system.fleet_result();
            format!("{label}\n{}\n", result.to_json())
        })
        .collect();
    check_golden(FLEET_GOLDEN, &rendered, "the writer-fleet results");
}
