//! Regenerate Figure 1: the side-by-side timeline of a standard server and a
//! gathering server handling a 4-biod sequential writer over FDDI.
//!
//! ```text
//! cargo run --release -p wg-bench --bin figure1
//! cargo run --release -p wg-bench --bin figure1 -- --kb 256   # shorter trace
//! ```

use wg_bench::cli::flag_value;
use wg_server::WritePolicy;
use wg_simcore::TraceKind;
use wg_workload::{ExperimentConfig, FileCopySystem, NetworkKind};

fn main() {
    let mut kb: u64 = 512;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--kb" => kb = flag_value(&mut iter, &arg),
            other => panic!("unknown argument {other}; use --kb N"),
        }
    }
    println!("Figure 1. Write Gathering NFS Server Comparison");
    println!("(sequential file writer, 4 biods, FDDI, RZ26 disk; first {kb} KB of the copy)\n");
    for (name, policy) in [
        ("STANDARD SERVER", WritePolicy::Standard),
        ("GATHERING SERVER", WritePolicy::Gathering),
    ] {
        let mut system = FileCopySystem::new(
            ExperimentConfig::new(NetworkKind::Fddi, 4, policy)
                .with_file_size(kb * 1024)
                .with_trace(true),
        );
        let result = system.run();
        println!("==== {name} ====");
        // Print the first part of the trace, like the figure's excerpt.
        let trace = system.trace();
        let mut lines = 0;
        for event in trace.events() {
            let interesting = matches!(
                event.kind,
                TraceKind::RequestArrived
                    | TraceKind::DataToDisk
                    | TraceKind::MetadataToDisk
                    | TraceKind::ReplySent
                    | TraceKind::Procrastinate
                    | TraceKind::ReplyDeferred
            );
            if interesting {
                println!(
                    "{:>10.3} ms  {:<18} {}",
                    event.at.as_millis_f64(),
                    format!("{:?}", event.kind),
                    event.detail
                );
                lines += 1;
                if lines >= 60 {
                    println!("  ... (trace truncated)");
                    break;
                }
            }
        }
        println!(
            "\nsummary: {:.0} KB/s client write speed, {:.0} disk transactions/s, \
             {:.1} writes gathered per metadata update\n",
            result.client_write_kb_per_sec,
            result.disk_trans_per_sec,
            result.mean_batch_size.max(1.0),
        );
    }
}
