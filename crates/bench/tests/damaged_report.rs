//! A report that exists but does not parse stops the bench binaries before
//! any cell runs: the message names the path and the byte offset, and the
//! file is left as it was.

use std::process::Command;

const COMMITTED: &str = include_str!("../../../BENCH_writepath.json");

#[test]
fn a_damaged_report_stops_every_bench_binary_and_is_left_untouched() {
    // The committed report with the colon after "sfs_scale" removed.
    let damaged = COMMITTED.replacen("\"sfs_scale\":", "\"sfs_scale\"", 1);
    let offset = COMMITTED.find("\"sfs_scale\":").expect("committed key") + 11;
    let dir = std::env::temp_dir().join(format!("wg-bench-damaged-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("BENCH_writepath.json");
    let path_text = path.to_str().expect("utf-8 temp path");
    let (writepath, sweep) = (
        env!("CARGO_BIN_EXE_writepath_bench"),
        env!("CARGO_BIN_EXE_sweep"),
    );
    for args in [
        &[writepath, "--file-mb", "1", "--sfs-secs", "2"][..],
        &[sweep, "faults", "--smoke"],
        &[sweep, "scale", "--smoke"],
    ] {
        std::fs::write(&path, &damaged).expect("write damaged report");
        let mut bin = Command::new(args[0]);
        let run = bin.args(&args[1..]).args(["--out", path_text]).output();
        let run = run.expect("bench binary runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{args:?} accepted a damaged report");
        let named = stderr.contains(path_text) && stderr.contains(&format!("byte {offset}"));
        assert!(named, "{args:?}: {stderr}");
        let left = std::fs::read_to_string(&path).expect("report still there");
        assert_eq!(left, damaged, "{args:?} rewrote a damaged report");
    }
    std::fs::remove_dir_all(&dir).expect("clean temp dir");
}
