//! Regenerate Tables 1–6 of the paper.
//!
//! ```text
//! cargo run --release -p wg-bench --bin tables                # all six tables
//! cargo run --release -p wg-bench --bin tables -- --table 3   # just Table 3
//! cargo run --release -p wg-bench --bin tables -- --file-mb 2 # smaller copy
//! cargo run --release -p wg-bench --bin tables -- --json      # machine readable
//! ```

use wg_bench::cli::flag_value;
use wg_bench::{run_table, table_spec, TABLES};

fn main() {
    let (mut table, mut file_mb, mut as_json) = (None::<u8>, 10u64, false);
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--table" => table = Some(flag_value(&mut iter, &arg)),
            "--file-mb" => file_mb = flag_value(&mut iter, &arg),
            "--json" => as_json = true,
            other => panic!("unknown argument {other}; use --table N, --file-mb M, --json"),
        }
    }
    let file_size = file_mb * 1024 * 1024;
    let specs: Vec<_> = match table {
        Some(n) => {
            vec![*table_spec(n).unwrap_or_else(|| panic!("the paper has tables 1-6, not {n}"))]
        }
        None => TABLES.to_vec(),
    };
    for spec in specs {
        let output = run_table(&spec, file_size);
        if as_json {
            use wg_workload::results::json;
            let cells = |results: &[wg_workload::FileCopyResult]| {
                json::array(&results.iter().map(|r| r.to_json()).collect::<Vec<_>>())
            };
            let j = json::object(&[
                ("table", spec.number.to_string()),
                ("caption", json::string(spec.caption)),
                ("without", cells(&output.without)),
                ("with", cells(&output.with)),
            ]);
            println!("{j}");
        } else {
            println!("{}", output.render());
        }
    }
}
