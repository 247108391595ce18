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
//! The binaries (`tables`, `figure1`, `figure2_3`, `ablations`) print the
//! regenerated artefacts.

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

/// Find a table spec by number.
pub fn table_spec(number: u8) -> Option<&'static TableSpec> {
    TABLES.iter().find(|t| t.number == number)
}

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
pub fn rows_for(results: &[FileCopyResult]) -> Vec<TableRow> {
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
/// *explicit* `shards = 1, cores = 1` server to the paper's snapshot, and the
/// ablation harness to vary knobs the tables do not sweep.
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

/// Command-line parsing shared by the bench binaries.
pub mod cli {
    use std::str::FromStr;

    /// Parse the value that follows `flag` on the command line.  A missing
    /// or unparsable value panics with a message naming the flag.
    pub fn flag_value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
        let text = args
            .next()
            .unwrap_or_else(|| panic!("{flag} needs a value"));
        text.parse()
            .unwrap_or_else(|_| panic!("{flag} cannot parse {text:?}"))
    }

    /// Parse `flag`'s comma-separated list of values (`--loads 300,900`).
    pub fn parse_list<T: FromStr>(flag: &str, text: &str) -> Vec<T> {
        text.split(',')
            .map(|v| {
                v.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("{flag} needs a comma-separated list, got {text:?}"))
            })
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn values_and_lists_parse() {
            assert_eq!(
                flag_value::<u64>(&mut ["12".to_string()].into_iter(), "--secs"),
                12
            );
            assert_eq!(parse_list::<f64>("--loads", "300, 900"), [300.0, 900.0]);
        }

        #[test]
        #[should_panic(expected = "--secs needs a value")]
        fn a_missing_value_names_its_flag() {
            flag_value::<u64>(&mut std::iter::empty(), "--secs");
        }

        #[test]
        #[should_panic(expected = "--shards cannot parse \"four\"")]
        fn an_unparsable_value_names_its_flag() {
            flag_value::<usize>(&mut ["four".to_string()].into_iter(), "--shards");
        }
    }
}

/// Helpers for the hand-rolled JSON trajectory report (`BENCH_writepath.json`).
///
/// The build environment has no JSON-parsing dependency, and the file is
/// written only by the bench binaries (`writepath_bench`, `scale_sweep`), so
/// a brace-matching scan over their own output is reliable.  Both binaries
/// share these helpers: one scanner, not two drifting copies.
pub mod report {
    /// CPUs the host actually offers the process (1 when unknown).  Stamped
    /// into every recorded cell so wall-clock numbers can be read in context.
    pub fn host_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The provenance block every recorded bench cell must carry, spelled the
    /// same way everywhere: the run's `clamped_past` count (events silently
    /// clamped into the past — always zero, since the drivers' `run()`
    /// audits it, and recorded anyway), the
    /// host parallelism the wall-clock numbers were measured under, and the
    /// event queue's pending-event high-water mark, so a wall-clock shift can
    /// be read against the scheduler's load in the same cell.  The sweep
    /// binaries append this to each cell's fields instead of hand-rolling
    /// the entries, so the stamps can't drift apart.
    pub fn stamp_cell(
        fields: &mut Vec<(&'static str, String)>,
        clamped_past: u64,
        sched: &wg_simcore::CalStats,
    ) {
        fields.push(("clamped_past", clamped_past.to_string()));
        fields.push(("host_parallelism", host_parallelism().to_string()));
        fields.push(("sched_max_depth", sched.max_depth.to_string()));
    }

    /// Index just past a JSON string that starts at `at` (which must hold the
    /// opening quote), honouring backslash escapes.
    fn skip_string(text: &str, at: usize) -> Option<usize> {
        let bytes = text.as_bytes();
        debug_assert_eq!(bytes.get(at), Some(&b'"'));
        let mut i = at + 1;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => return Some(i + 1),
                _ => i += 1,
            }
        }
        None
    }

    /// Index just past the JSON value that starts at `at` — an object or
    /// array (brace-matched, with strings skipped so braces inside names
    /// can't unbalance the count), a string, or a scalar.
    fn skip_value(text: &str, at: usize) -> Option<usize> {
        let bytes = text.as_bytes();
        match bytes.get(at)? {
            b'"' => skip_string(text, at),
            b'{' | b'[' => {
                let mut depth = 0usize;
                let mut i = at;
                while i < bytes.len() {
                    match bytes[i] {
                        b'"' => {
                            i = skip_string(text, i)?;
                            continue;
                        }
                        b'{' | b'[' => depth += 1,
                        b'}' | b']' => {
                            depth -= 1;
                            if depth == 0 {
                                return Some(i + 1);
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                None
            }
            _ => {
                let mut i = at;
                while i < bytes.len() && !matches!(bytes[i], b',' | b'}' | b']') {
                    i += 1;
                }
                Some(i)
            }
        }
    }

    /// Walk the *top level* of the report object and return the value span of
    /// `key` as `(value_start, value_end)`.  Depth-aware on purpose: the
    /// report nests whole sub-reports (e.g. an `"sfs_scale"` object carrying
    /// its own `"baseline"`/`"current"` curves), and a naive substring search
    /// for `"baseline":` would happily land inside one of them.
    fn top_level_value_span(text: &str, key: &str) -> Option<(usize, usize)> {
        let bytes = text.as_bytes();
        let mut i = text.find('{')? + 1;
        loop {
            while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\n' | b'\r' | b',') {
                i += 1;
            }
            if i >= bytes.len() || bytes[i] != b'"' {
                return None;
            }
            let key_start = i;
            let key_end = skip_string(text, i)?;
            let this_key = &text[key_start + 1..key_end - 1];
            i = key_end;
            while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\n' | b'\r') {
                i += 1;
            }
            if i >= bytes.len() || bytes[i] != b':' {
                return None;
            }
            i += 1;
            while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\n' | b'\r') {
                i += 1;
            }
            let value_start = i;
            let value_end = skip_value(text, i)?;
            if this_key == key {
                return Some((value_start, value_end));
            }
            i = value_end;
        }
    }

    /// Every `(key, value_start, value_end)` entry of the report's top level,
    /// in file order.  Stops (returning what it has) at the first malformed
    /// entry, mirroring [`top_level_value_span`]'s bail-out behaviour.
    fn top_level_entries(text: &str) -> Vec<(String, usize, usize)> {
        let bytes = text.as_bytes();
        let mut out = Vec::new();
        let Some(open) = text.find('{') else {
            return out;
        };
        let mut i = open + 1;
        loop {
            while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\n' | b'\r' | b',') {
                i += 1;
            }
            if i >= bytes.len() || bytes[i] != b'"' {
                return out;
            }
            let key_start = i;
            let Some(key_end) = skip_string(text, i) else {
                return out;
            };
            let key = text[key_start + 1..key_end - 1].to_string();
            i = key_end;
            while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\n' | b'\r') {
                i += 1;
            }
            if i >= bytes.len() || bytes[i] != b':' {
                return out;
            }
            i += 1;
            while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\n' | b'\r') {
                i += 1;
            }
            let value_start = i;
            let Some(value_end) = skip_value(text, i) else {
                return out;
            };
            out.push((key, value_start, value_end));
            i = value_end;
        }
    }

    /// Every top-level `(key, value)` pair of a report whose key is *not* in
    /// `known`, values verbatim.  A bench binary rewriting the shared report
    /// passes the keys it owns and re-emits everything else unchanged — so a
    /// section written by another (possibly newer) binary survives the
    /// rewrite even though this binary has never heard its name.
    pub fn carry_unknown_keys(text: &str, known: &[&str]) -> Vec<(String, String)> {
        top_level_entries(text)
            .into_iter()
            .filter(|(key, _, _)| !known.contains(&key.as_str()))
            .map(|(key, start, end)| (key, text[start..end].to_string()))
            .collect()
    }

    /// Extract a top-level `"key":{...}` object (including its braces), if
    /// present.  Only the report's own top level is searched; identically
    /// named keys nested inside other objects are never matched.
    pub fn extract_object(text: &str, key: &str) -> Option<String> {
        let (start, end) = top_level_value_span(text, key)?;
        if text.as_bytes()[start] == b'{' {
            Some(text[start..end].to_string())
        } else {
            None
        }
    }

    /// Replace (or insert) a top-level `"key":{...}` object in a report,
    /// returning the new text (newline-terminated).  An empty `text` becomes
    /// a fresh single-key object.  Like [`extract_object`], only genuine
    /// top-level keys are replaced — a nested namesake stays untouched.
    pub fn upsert_object(text: &str, key: &str, value: &str) -> String {
        let trimmed = text.trim_end();
        if trimmed.is_empty() {
            return format!("{{\"{key}\":{value}}}\n");
        }
        if let Some((start, end)) = top_level_value_span(trimmed, key) {
            format!("{}{}{}\n", &trimmed[..start], value, &trimmed[end..])
        } else {
            let end = trimmed.rfind('}').expect("report is a JSON object");
            let body = trimmed[..end].trim_end();
            let sep = if body.ends_with('{') { "" } else { "," };
            format!("{body}{sep}\"{key}\":{value}}}\n")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn extract_finds_nested_objects() {
            let text = r#"{"a":{"x":{"y":1}},"b":{"z":2}}"#;
            assert_eq!(extract_object(text, "a"), Some(r#"{"x":{"y":1}}"#.into()));
            assert_eq!(extract_object(text, "b"), Some(r#"{"z":2}"#.into()));
            assert_eq!(extract_object(text, "c"), None);
        }

        #[test]
        fn upsert_replaces_and_inserts() {
            let fresh = upsert_object("", "scale", "{\"k\":1}");
            assert_eq!(fresh, "{\"scale\":{\"k\":1}}\n");
            let inserted = upsert_object("{\"a\":{\"x\":1}}", "scale", "{\"k\":2}");
            assert_eq!(inserted, "{\"a\":{\"x\":1},\"scale\":{\"k\":2}}\n");
            let replaced = upsert_object(&inserted, "scale", "{\"k\":3}");
            assert_eq!(replaced, "{\"a\":{\"x\":1},\"scale\":{\"k\":3}}\n");
            // Keys after the replaced one survive.
            let middle = upsert_object("{\"scale\":{\"k\":4},\"z\":{\"w\":5}}", "scale", "{}");
            assert_eq!(middle, "{\"scale\":{},\"z\":{\"w\":5}}\n");
        }

        #[test]
        fn nested_namesakes_are_never_matched() {
            // The sfs_scale sub-report nests its own "baseline" and "current"
            // curves; extraction of the top-level "baseline" must not land on
            // them even when sfs_scale comes first.
            let text = concat!(
                r#"{"sfs_scale":{"baseline":{"nested":1},"current":{"nested":2}},"#,
                r#""baseline":{"real":3}}"#
            );
            assert_eq!(
                extract_object(text, "baseline"),
                Some(r#"{"real":3}"#.into())
            );
            assert_eq!(extract_object(text, "nested"), None);
            // Upserting the top-level key leaves the nested namesake alone.
            let updated = upsert_object(text, "baseline", r#"{"real":4}"#);
            assert!(updated.contains(r#""baseline":{"nested":1}"#));
            assert!(updated.contains(r#""baseline":{"real":4}"#));
        }

        #[test]
        fn sfs_scale_and_scale_keys_do_not_collide() {
            let text = r#"{"sfs_scale":{"baseline":{"p":1}},"scale":{"c2_mb1":{"q":2}}}"#;
            assert_eq!(
                extract_object(text, "scale"),
                Some(r#"{"c2_mb1":{"q":2}}"#.into())
            );
            assert_eq!(
                extract_object(text, "sfs_scale"),
                Some(r#"{"baseline":{"p":1}}"#.into())
            );
            // A scale rewrite keeps the sfs_scale curves verbatim.
            let updated = upsert_object(text, "scale", r#"{"c2_mb1":{"q":9}}"#);
            assert!(updated.contains(r#""sfs_scale":{"baseline":{"p":1}}"#));
            assert!(updated.contains(r#""scale":{"c2_mb1":{"q":9}}"#));
        }

        #[test]
        fn unknown_keys_are_carried_generically() {
            // A key this code has never heard of — the way a newer binary's
            // section (say "faults") looks to an older one — must survive a
            // rewrite verbatim, whatever its value shape.
            let text = concat!(
                r#"{"bench":"writepath","baseline":{"x":1},"#,
                r#""mystery_section":{"cells":[{"a":1},{"b":2}],"note":"odd } brace"},"#,
                r#""count":42}"#
            );
            let carried = carry_unknown_keys(text, &["bench", "baseline"]);
            assert_eq!(carried.len(), 2);
            assert_eq!(carried[0].0, "mystery_section");
            assert_eq!(
                carried[0].1,
                r#"{"cells":[{"a":1},{"b":2}],"note":"odd } brace"}"#
            );
            // Non-object values are carried too.
            assert_eq!(carried[1], ("count".to_string(), "42".to_string()));
            // Knowing every key means nothing is carried; an empty file the
            // same.
            assert!(
                carry_unknown_keys(text, &["bench", "baseline", "mystery_section", "count"])
                    .is_empty()
            );
            assert!(carry_unknown_keys("", &[]).is_empty());
        }

        #[test]
        fn stability_key_rides_alongside_the_existing_sections() {
            // sfs_sweep writes both "sfs_scale" and "stability"; a binary
            // that owns neither must carry both verbatim, and upserting
            // "stability" must leave its neighbours untouched.
            let text = concat!(
                r#"{"bench":"writepath","faults":{"grid":{"c":1}},"#,
                r#""stability":{"sfs":{"sync":{"lost_acked_bytes":0},"#,
                r#""unstable":{"commits":17}},"copy":{"unstable":{"kb":1637}}},"#,
                r#""sfs_scale":{"baseline":{"p":1}}}"#
            );
            let carried = carry_unknown_keys(text, &["bench", "faults"]);
            assert_eq!(carried.len(), 2);
            assert_eq!(carried[0].0, "stability");
            assert!(carried[0].1.contains(r#""commits":17"#));
            assert_eq!(carried[1].0, "sfs_scale");
            assert_eq!(
                extract_object(text, "stability").as_deref(),
                Some(&carried[0].1[..])
            );
            // The nested "sync" cell is not a top-level key.
            assert_eq!(extract_object(text, "sync"), None);
            let updated = upsert_object(text, "stability", r#"{"sfs":{}}"#);
            assert!(updated.contains(r#""stability":{"sfs":{}}"#));
            assert!(updated.contains(r#""faults":{"grid":{"c":1}}"#));
            assert!(updated.contains(r#""sfs_scale":{"baseline":{"p":1}}"#));
        }

        #[test]
        fn braces_inside_strings_do_not_unbalance_the_scan() {
            let text = r#"{"a":{"label":"odd } text { here"},"b":{"v":1}}"#;
            assert_eq!(extract_object(text, "b"), Some(r#"{"v":1}"#.into()));
            assert_eq!(
                extract_object(text, "a"),
                Some(r#"{"label":"odd } text { here"}"#.into())
            );
        }
    }
}

/// Reference values transcribed from the paper, used by the harness to print
/// a paper-vs-measured comparison and by the `table_shapes` integration test
/// to check that the qualitative shape holds.
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
        assert_eq!(TABLES.len(), 6);
        for n in 1..=6u8 {
            let spec = table_spec(n).expect("table exists");
            assert_eq!(spec.number, n);
            assert!(!spec.biods.is_empty());
        }
        assert!(table_spec(7).is_none());
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
