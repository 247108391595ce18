//! A report that exists but does not parse stops the bench runner before
//! any cell runs: the message names the path and the byte offset, and the
//! file is left as it was.

use std::process::Command;

const COMMITTED: &str = include_str!("../../../BENCH_writepath.json");

#[test]
fn a_damaged_report_stops_every_bench_binary_and_is_left_untouched() {
    // The committed report with the colon after "sfs_scale" removed.
    let damaged = COMMITTED.replacen("\"sfs_scale\":", "\"sfs_scale\"", 1);
    let offset = COMMITTED.find("\"sfs_scale\":").expect("committed key") + 11;
    let path = std::env::temp_dir().join(format!("wg-bench-damaged-{}.json", std::process::id()));
    let path_text = path.to_str().expect("utf-8 temp path");
    for suite in ["current", "faults", "scale"] {
        std::fs::write(&path, &damaged).expect("write damaged report");
        let run = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args([suite, "--smoke", "--out", path_text])
            .output()
            .expect("the runner starts");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{suite} accepted a damaged report");
        let named = stderr.contains(path_text) && stderr.contains(&format!("byte {offset}"));
        assert!(named, "{suite}: {stderr}");
        let left = std::fs::read_to_string(&path).expect("report still there");
        assert_eq!(left, damaged, "{suite} rewrote a damaged report");
    }
    std::fs::remove_file(&path).expect("clean temp report");
}
