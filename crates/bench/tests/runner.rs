//! The `sweep` runner's command line and its `current` suite, run as a
//! process against a temporary report, and the `paper` bin's empty command
//! line.

use std::process::{Command, Output};

use wg_bench::report::{self, Json};

const COMMITTED: &str = include_str!("../../../BENCH_writepath.json");

/// Run `sweep` with `args` and `--out` a fresh temporary report named
/// after `test`, holding `report` if one is given.  Returns the run and the
/// report's text afterwards, if there is one.
fn sweep(test: &str, report: Option<&Json>, args: &[&str]) -> (Output, Option<String>) {
    let path = std::env::temp_dir().join(format!("wg-bench-{test}-{}.json", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    if let Some(report) = report {
        report::save(path, report);
    }
    let run = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .args(["--out", path])
        .output()
        .expect("the runner starts");
    let text = std::fs::read_to_string(path).ok();
    if text.is_some() {
        std::fs::remove_file(path).expect("clean temp report");
    }
    (run, text)
}

#[test]
fn a_baseline_gains_current_and_one_speedup_per_cell_and_stays_byte_for_byte() {
    let committed = Json::parse(COMMITTED).expect("the committed report parses");
    let baseline = committed.get("baseline").expect("a committed baseline");
    let only_baseline = Json::object([("baseline", baseline.clone())]);
    let (run, text) = sweep("baseline", Some(&only_baseline), &["current", "--smoke"]);
    assert!(run.status.success(), "{run:?}");
    let text = text.expect("the report was written");
    assert!(text.contains(&format!("\"baseline\":{baseline},")));

    let written = Json::parse(&text).expect("the written report parses");
    let keys = |json: Option<&Json>| match json {
        Some(Json::Object(fields)) => fields.iter().map(|(key, _)| key.clone()).collect(),
        other => panic!("{other:?} is not an object"),
    };
    let top: Vec<String> = keys(Some(&written));
    assert_eq!(
        top,
        ["baseline", "bench", "file_mb", "sfs_secs", "current", "speedup"]
    );
    let cells: Vec<String> = keys(Some(baseline));
    assert_eq!(keys(written.get("current")), cells);
    assert_eq!(keys(written.get("speedup")), cells);
    assert_eq!(written.get("file_mb"), Some(&Json::from(1u64)));
    assert_eq!(written.get("sfs_secs"), Some(&Json::from(2u64)));
}

/// The knobs the runner once read beyond `--out` and `--smoke`, by name.
const RETIRED: &str = "clients shards cores spindles overlap lans threads loads unified-cache";

#[test]
fn a_flag_beyond_out_and_smoke_is_refused_with_the_usage() {
    let usage = "usage: sweep SUITE... [--out PATH] [--smoke]";
    for knob in RETIRED.split_whitespace() {
        let flag = format!("--{knob}");
        let (run, text) = sweep(knob, None, &["scale", &flag, "4"]);
        assert!(!run.status.success(), "{flag} was accepted");
        let stderr = String::from_utf8_lossy(&run.stderr);
        let refused = format!("unknown argument {flag}");
        assert!(
            stderr.contains(&refused) && stderr.contains(usage),
            "{stderr}"
        );
        assert_eq!(text, None, "{flag}: a refused command line wrote a report");
    }
}

#[test]
fn a_missing_out_value_is_refused_naming_the_flag() {
    let run = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["current", "--smoke", "--out"])
        .output()
        .expect("the runner starts");
    assert!(!run.status.success(), "a bare --out was accepted");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("--out needs a value"), "{stderr}");
}

/// The flags the paper's four former bins read, and one former bin's name.
const PAPER_RETIRED: [&[&str]; 7] = [
    &["--table", "3"],
    &["--file-mb", "1"],
    &["--json"],
    &["--kb", "128"],
    &["--figure", "2"],
    &["--secs", "1"],
    &["tables"],
];

#[test]
fn paper_refuses_every_argument_before_it_runs_a_cell() {
    for args in PAPER_RETIRED {
        let run = Command::new(env!("CARGO_BIN_EXE_paper"))
            .args(args)
            .output()
            .expect("the paper bin starts");
        assert!(!run.status.success(), "{args:?} was accepted");
        assert!(run.stdout.is_empty(), "{args:?} printed before refusing");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains("usage: paper"), "{args:?}: {stderr}");
    }
}
