//! # wg-bench — the benchmark harness that regenerates every table and figure
//!
//! The paper's evaluation consists of:
//!
//! * **Tables 1–6** — a 10 MB file copy over Ethernet or FDDI, against a
//!   single RZ26 or a 3-disk stripe set, with and without Prestoserve, with
//!   and without write gathering, swept over the client biod count.
//! * **Figure 1** — a `tcpdump`-style timeline of the 4-biod FDDI copy on a
//!   standard server vs a gathering server.
//! * **Figures 2–3** — SPEC SFS 1.0 (LADDIS) throughput vs average latency
//!   curves for a DEC 3800-class server with and without gathering, without
//!   (Figure 2) and with (Figure 3) Prestoserve.
//!
//! [`TableSpec`] captures the configuration of each table;
//! [`run_table`] executes every cell and returns rows shaped like the paper's.
//! One binary, `paper`, takes no arguments and prints the whole evaluation
//! at fixed sizes: the six tables, Figure 1's timeline, Figures 2 and 3 and
//! ablations of §6's design choices.
//!
//! The other binary, `sweep`, records `BENCH_writepath.json` through
//! [`report`], a small JSON value type: one suite per report key (`current`,
//! `faults`, `scale`, `sfs_scale`, `stability`, `state_storms`), each running
//! exactly the cells its key records from [`metrics`] snapshots of their
//! runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use wg_server::WritePolicy;
use wg_workload::{
    ExperimentConfig, FileCopyResult, NetworkKind, SfsConfig, SfsPoint, SfsSweep, TableRow,
};

/// Which table of the paper a configuration corresponds to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableSpec {
    /// Table number (1–6).
    pub number: u8,
    /// Human-readable caption from the paper.
    pub caption: &'static str,
    /// Network medium.
    pub network: NetworkKind,
    /// Prestoserve acceleration.
    pub prestoserve: bool,
    /// Disk spindles (1 or 3).
    pub spindles: usize,
    /// Biod counts across the columns.
    pub biods: &'static [usize],
}

/// The six tables of the paper's Results section.
pub const TABLES: [TableSpec; 6] = [
    TableSpec {
        number: 1,
        caption: "NFS 10MB file copy: Ethernet",
        network: NetworkKind::Ethernet,
        prestoserve: false,
        spindles: 1,
        biods: &[0, 3, 7, 11, 15],
    },
    TableSpec {
        number: 2,
        caption: "NFS 10MB file copy: Ethernet, Presto",
        network: NetworkKind::Ethernet,
        prestoserve: true,
        spindles: 1,
        biods: &[0, 3, 7, 11, 15],
    },
    TableSpec {
        number: 3,
        caption: "NFS 10MB file copy: FDDI",
        network: NetworkKind::Fddi,
        prestoserve: false,
        spindles: 1,
        biods: &[0, 3, 7, 11, 15],
    },
    TableSpec {
        number: 4,
        caption: "NFS 10MB file copy: FDDI, Presto",
        network: NetworkKind::Fddi,
        prestoserve: true,
        spindles: 1,
        biods: &[0, 3, 7, 11, 15],
    },
    TableSpec {
        number: 5,
        caption: "NFS 10MB file copy: FDDI, 3 striped drives",
        network: NetworkKind::Fddi,
        prestoserve: false,
        spindles: 3,
        biods: &[0, 3, 7, 11, 15, 19, 23],
    },
    TableSpec {
        number: 6,
        caption: "NFS 10MB file copy: FDDI, Presto, 3 striped drives",
        network: NetworkKind::Fddi,
        prestoserve: true,
        spindles: 3,
        biods: &[0, 3, 7, 11, 15, 19, 23],
    },
];

/// The complete output of one table: the per-biod results for both policies.
#[derive(Clone, Debug)]
pub struct TableOutput {
    /// Which table this is.
    pub spec: TableSpec,
    /// Results without write gathering, one per biod column.
    pub without: Vec<FileCopyResult>,
    /// Results with write gathering, one per biod column.
    pub with: Vec<FileCopyResult>,
}

impl TableOutput {
    /// Render the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Table {}. {}\n",
            self.spec.number, self.spec.caption
        ));
        out.push_str(&format!("{:<34}", "# of Client Biods"));
        for b in self.spec.biods {
            out.push_str(&format!("{:>8}", b));
        }
        out.push('\n');
        for (title, results) in [
            ("Without Write Gathering", &self.without),
            ("With Write Gathering", &self.with),
        ] {
            out.push_str(title);
            out.push('\n');
            for row in rows_for(results) {
                out.push_str(&row.render());
                out.push('\n');
            }
        }
        out
    }
}

/// Build the four paper rows from a set of per-biod results.
fn rows_for(results: &[FileCopyResult]) -> Vec<TableRow> {
    vec![
        TableRow {
            label: "client write speed (KB/sec.)".into(),
            values: results.iter().map(|r| r.client_write_kb_per_sec).collect(),
        },
        TableRow {
            label: "server cpu util. (%)".into(),
            values: results.iter().map(|r| r.server_cpu_percent).collect(),
        },
        TableRow {
            label: "server disk (KB/sec)".into(),
            values: results.iter().map(|r| r.disk_kb_per_sec).collect(),
        },
        TableRow {
            label: "server disk (trans/sec)".into(),
            values: results.iter().map(|r| r.disk_trans_per_sec).collect(),
        },
    ]
}

/// Run every cell of a table.  `file_size` lets callers trade fidelity for
/// runtime (the paper uses 10 MB; the golden tests use 1 MB).
pub fn run_table(spec: &TableSpec, file_size: u64) -> TableOutput {
    run_table_with(spec, file_size, |_| {})
}

/// Run every cell of a table with a final hook over each cell's derived
/// [`wg_server::ServerConfig`].  The golden-parity tests use this to pin an
/// *explicit* `shards = 1, cores = 1` server to the paper's snapshot.
pub fn run_table_with(
    spec: &TableSpec,
    file_size: u64,
    customize: impl Fn(&mut wg_server::ServerConfig),
) -> TableOutput {
    let run_policy = |policy: WritePolicy| -> Vec<FileCopyResult> {
        spec.biods
            .iter()
            .map(|&biods| {
                wg_workload::FileCopySystem::new_customized(
                    ExperimentConfig::new(spec.network, biods, policy)
                        .with_presto(spec.prestoserve)
                        .with_spindles(spec.spindles)
                        .with_file_size(file_size),
                    |sc| customize(sc),
                )
                .run()
            })
            .collect()
    };
    TableOutput {
        spec: *spec,
        without: run_policy(WritePolicy::Standard),
        with: run_policy(WritePolicy::Gathering),
    }
}

/// The offered loads swept for Figures 2 and 3 (operations per second).
pub const FIGURE_LOADS: [f64; 10] = [
    200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0, 1800.0, 2000.0,
];

/// Run the Figure 2 (plain disks) or Figure 3 (Prestoserve) sweep for one
/// policy.
pub fn run_figure(figure: u8, policy: WritePolicy, duration_secs: u64) -> Vec<SfsPoint> {
    let mut base = match figure {
        2 => SfsConfig::figure2(0.0, policy),
        3 => SfsConfig::figure3(0.0, policy),
        other => panic!("no figure {other} in the paper's evaluation"),
    };
    base.duration = wg_simcore::Duration::from_secs(duration_secs);
    SfsSweep::new(base).run(&FIGURE_LOADS)
}

/// Render a figure sweep as an aligned text table.
pub fn render_figure(figure: u8, without: &[SfsPoint], with: &[SfsPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure {figure}. SPEC SFS 1.0-style throughput vs latency ({})\n",
        if figure == 2 {
            "no Prestoserve"
        } else {
            "Prestoserve"
        }
    ));
    out.push_str(&format!(
        "{:>10} | {:>22} | {:>22}\n",
        "offered", "WITHOUT gathering", "WITH gathering"
    ));
    out.push_str(&format!(
        "{:>10} | {:>10} {:>11} | {:>10} {:>11}\n",
        "ops/s", "ops/s", "latency ms", "ops/s", "latency ms"
    ));
    for (a, b) in without.iter().zip(with.iter()) {
        out.push_str(&format!(
            "{:>10.0} | {:>10.1} {:>11.2} | {:>10.1} {:>11.2}\n",
            a.offered_ops_per_sec,
            a.achieved_ops_per_sec,
            a.avg_latency_ms,
            b.achieved_ops_per_sec,
            b.avg_latency_ms,
        ));
    }
    out
}

pub mod metrics;
pub mod report;

/// Reference values transcribed from the paper.  Only the benchmark package
/// reads them, to score its Table 1 and Table 3 cells against the paper
/// (`paper_errors`); the Table 2 and Figure 2 values wait for a fidelity
/// scorecard that prints every one of them next to its simulated twin.
pub mod paper {
    /// Client write speed (KB/s) from Table 1, without gathering.
    pub const T1_WITHOUT_KBS: [f64; 5] = [165.0, 194.0, 201.0, 203.0, 205.0];
    /// Client write speed (KB/s) from Table 1, with gathering.
    pub const T1_WITH_KBS: [f64; 5] = [140.0, 375.0, 493.0, 575.0, 674.0];
    /// Client write speed (KB/s) from Table 3, without gathering.
    pub const T3_WITHOUT_KBS: [f64; 5] = [207.0, 209.0, 207.0, 209.0, 208.0];
    /// Client write speed (KB/s) from Table 3, with gathering.
    pub const T3_WITH_KBS: [f64; 5] = [177.0, 534.0, 846.0, 876.0, 1085.0];
    /// Server CPU (%) from Table 2, without gathering.
    pub const T2_WITHOUT_CPU: [f64; 5] = [30.0, 38.0, 41.0, 42.0, 43.0];
    /// Server CPU (%) from Table 2, with gathering.
    pub const T2_WITH_CPU: [f64; 5] = [18.0, 26.0, 30.0, 32.0, 34.0];
    /// SPEC SFS capacity gain the paper reports for Figure 2.
    pub const FIG2_CAPACITY_GAIN: f64 = 0.13;
    /// SPEC SFS latency reduction the paper reports for Figure 2.
    pub const FIG2_LATENCY_REDUCTION: f64 = 0.11;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_all_six_tables() {
        assert_eq!(TABLES.map(|t| t.number), [1, 2, 3, 4, 5, 6]);
        assert!(TABLES.iter().all(|t| !t.biods.is_empty()));
        assert!(TABLES[4].biods.len() == 7 && TABLES[5].biods.len() == 7);
        assert!(TABLES[1].prestoserve && TABLES[3].prestoserve && TABLES[5].prestoserve);
    }

    #[test]
    fn small_table_run_produces_all_rows() {
        // A reduced file keeps this unit test quick while exercising the whole
        // path.
        let spec = TableSpec {
            biods: &[0, 7],
            ..TABLES[0]
        };
        let out = run_table(&spec, 512 * 1024);
        assert_eq!(out.without.len(), 2);
        assert_eq!(out.with.len(), 2);
        let rendered = out.render();
        assert!(rendered.contains("Table 1"));
        assert!(rendered.contains("Without Write Gathering"));
        assert!(rendered.contains("With Write Gathering"));
        assert!(rendered.contains("client write speed"));
        assert_eq!(rows_for(&out.without).len(), 4);
    }

    #[test]
    fn figure_rendering_lines_up() {
        let p = SfsPoint {
            offered_ops_per_sec: 100.0,
            achieved_ops_per_sec: 99.0,
            avg_latency_ms: 5.0,
            server_cpu_percent: 10.0,
        };
        let text = render_figure(2, &[p], &[p]);
        assert!(text.contains("Figure 2"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "no figure")]
    fn unknown_figure_panics() {
        let _ = run_figure(4, WritePolicy::Standard, 1);
    }
}
