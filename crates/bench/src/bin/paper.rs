//! Regenerate the paper's evaluation: Tables 1–6, Figure 1's timeline,
//! Figures 2 and 3, and ablations of the design choices §6 discusses, in
//! that order, each at one fixed size.  It takes no arguments.
//!
//! The ablations are:
//!
//! * the four write policies, with what each leaves uncommitted: "dangerous
//!   mode" shows what asynchronous writes would buy and what they cost;
//! * §6.6 — the procrastination interval (a sweep around the 8 ms / 5 ms the
//!   paper chose empirically), and the \[SIVA93\] "first write as the latency
//!   device" alternative;
//! * §6.7 — FIFO vs LIFO reply ordering;
//! * §6.5 — the mbuf hunter (socket-buffer scan) on and off;
//! * §6.1 — the number of nfsds.
//!
//! ```text
//! cargo run --release -p wg-bench --bin paper
//! ```

use wg_bench::{render_figure, run_figure, run_table, TABLES};
use wg_server::{ReplyOrder, ServerConfig, WritePolicy};
use wg_simcore::{Duration, Trace, TraceEvent};
use wg_workload::{ExperimentConfig, FileCopySystem, NetworkKind, SfsPoint};

/// The copy every table cell makes, as in the paper.
const TABLE_FILE_MB: u64 = 10;
/// How much of the copy Figure 1 traces.
const FIGURE1_KB: u64 = 512;
/// The trace events Figure 1 prints per server, like the figure's excerpt.
const FIGURE1_EXCERPT: usize = 60;
/// Simulated seconds per offered load of Figures 2 and 3.
const FIGURE_SECS: u64 = 15;
/// The copy every ablation cell makes.
const ABLATION_FILE_MB: u64 = 4;
/// The client biods of every ablation but the nfsd count's.
const ABLATION_BIODS: usize = 7;

fn main() {
    assert!(
        std::env::args().len() == 1,
        "usage: paper (it takes no arguments)"
    );
    tables();
    figure1();
    figures_2_and_3();
    ablations();
}

fn tables() {
    for spec in &TABLES {
        println!("{}", run_table(spec, TABLE_FILE_MB * 1024 * 1024).render());
    }
}

/// The side-by-side timeline of a standard server and a gathering server
/// handling a 4-biod sequential writer over FDDI.
fn figure1() {
    println!("Figure 1. Write Gathering NFS Server Comparison");
    println!(
        "(sequential file writer, 4 biods, FDDI, RZ26 disk; first {FIGURE1_KB} KB of the copy)\n"
    );
    for (name, policy) in [
        ("STANDARD SERVER", WritePolicy::Standard),
        ("GATHERING SERVER", WritePolicy::Gathering),
    ] {
        let mut system = figure1_system(policy);
        let result = system.run();
        println!("==== {name} ====");
        for (i, event) in figure1_events(system.trace()).into_iter().enumerate() {
            if i == FIGURE1_EXCERPT {
                println!("  ... (trace truncated)");
                break;
            }
            println!(
                "{:>10.3} ms  {:<18} {}",
                event.at.as_millis_f64(),
                format!("{:?}", event.kind),
                event.detail
            );
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

/// Figure 1's traced copy under one server policy.
fn figure1_system(policy: WritePolicy) -> FileCopySystem {
    FileCopySystem::new(
        ExperimentConfig::new(NetworkKind::Fddi, 4, policy)
            .with_file_size(FIGURE1_KB * 1024)
            .with_trace(true),
    )
}

/// The traced events Figure 1 shows, in time order.  The trace itself is
/// in recording order, which steps back in time wherever the server
/// recorded a disk or reply event when it planned it; the sort is stable,
/// so events at one instant keep the order they were recorded in.
fn figure1_events(trace: &Trace) -> Vec<&TraceEvent> {
    let mut shown: Vec<&TraceEvent> = trace.events().iter().collect();
    shown.sort_by_key(|event| event.at);
    shown
}

/// SPEC SFS 1.0-style throughput vs average latency, with and without write
/// gathering, without (Figure 2) and with (Figure 3) Prestoserve.
fn figures_2_and_3() {
    // The two headline numbers the paper quotes for Figure 2: the capacity
    // gain and the latency reduction.
    let capacity = |points: &[SfsPoint]| {
        points
            .iter()
            .map(|p| p.achieved_ops_per_sec)
            .fold(0.0f64, f64::max)
    };
    let latency = |points: &[SfsPoint]| {
        points.iter().map(|p| p.avg_latency_ms).sum::<f64>() / points.len() as f64
    };
    for figure in [2, 3] {
        let without = run_figure(figure, WritePolicy::Standard, FIGURE_SECS);
        let with = run_figure(figure, WritePolicy::Gathering, FIGURE_SECS);
        println!("{}", render_figure(figure, &without, &with));
        let (cap_without, cap_with) = (capacity(&without), capacity(&with));
        let (lat_without, lat_with) = (latency(&without), latency(&with));
        println!(
            "capacity: {:.0} -> {:.0} ops/s ({:+.1}%), mean latency over the sweep: {:.2} -> {:.2} ms ({:+.1}%)\n",
            cap_without,
            cap_with,
            (cap_with / cap_without - 1.0) * 100.0,
            lat_without,
            lat_with,
            (lat_with / lat_without - 1.0) * 100.0,
        );
    }
}

fn ablations() {
    let file = ABLATION_FILE_MB * 1024 * 1024;
    let biods = ABLATION_BIODS;
    let fddi = |biods: usize, policy: WritePolicy| {
        ExperimentConfig::new(NetworkKind::Fddi, biods, policy).with_file_size(file)
    };
    // The FDDI gathering cell with one server knob changed.
    let gathering = |change: &dyn Fn(&mut ServerConfig)| {
        FileCopySystem::new_customized(fddi(biods, WritePolicy::Gathering), change).run()
    };

    println!(
        "== Write policy comparison (FDDI, {biods} biods, {ABLATION_FILE_MB} MB copy, single RZ26) =="
    );
    println!(
        "{:<26} {:>14} {:>12} {:>14} {:>14} {:>18}",
        "policy", "client KB/s", "cpu %", "disk trans/s", "batch size", "uncommitted bytes"
    );
    for (name, policy) in [
        ("standard", WritePolicy::Standard),
        ("gathering (paper)", WritePolicy::Gathering),
        ("first-write latency", WritePolicy::FirstWriteLatency),
        ("dangerous async", WritePolicy::DangerousAsync),
    ] {
        // Dangerous mode looks fastest because it breaks the stable-storage
        // contract: its uncommitted bytes are what a server crash would
        // silently lose.
        let mut system = FileCopySystem::new(fddi(biods, policy));
        let r = system.run();
        println!(
            "{name:<26} {:>14.0} {:>12.1} {:>14.1} {:>14.1} {:>18}",
            r.client_write_kb_per_sec,
            r.server_cpu_percent,
            r.disk_trans_per_sec,
            r.mean_batch_size,
            system.server().uncommitted_bytes()
        );
    }

    println!("\n== Procrastination interval sweep (FDDI, {biods} biods, gathering): §6.6 ==");
    println!(
        "{:<26} {:>14} {:>12} {:>14} {:>16}",
        "interval", "client KB/s", "cpu %", "disk trans/s", "mean batch size"
    );
    for ms in [0u64, 1, 2, 5, 8, 12, 20] {
        let r = gathering(&|cfg| cfg.procrastination = Duration::from_millis(ms));
        println!(
            "{:<26} {:>14.0} {:>12.1} {:>14.1} {:>16.1}",
            format!("{ms} ms"),
            r.client_write_kb_per_sec,
            r.server_cpu_percent,
            r.disk_trans_per_sec,
            r.mean_batch_size
        );
    }

    println!("\n== Reply ordering (FDDI, {biods} biods, gathering): §6.7 ==");
    for order in [ReplyOrder::Fifo, ReplyOrder::Lifo] {
        let r = gathering(&|cfg| cfg.reply_order = order);
        println!(
            "{:<26} {:>14.0} KB/s  (elapsed {:.2} s)",
            format!("{order:?}"),
            r.client_write_kb_per_sec,
            r.elapsed_secs
        );
    }

    println!("\n== Mbuf hunter (Ethernet + Presto, {biods} biods, gathering): §6.5 ==");
    for (label, hunter) in [("mbuf hunter on", true), ("mbuf hunter off", false)] {
        let r = FileCopySystem::new_customized(
            ExperimentConfig::new(NetworkKind::Ethernet, biods, WritePolicy::Gathering)
                .with_presto(true)
                .with_file_size(file),
            |cfg| cfg.mbuf_hunter = hunter,
        )
        .run();
        println!(
            "{label:<26} {:>14.0} KB/s at {:>5.1}% CPU, mean batch {:.1}",
            r.client_write_kb_per_sec, r.server_cpu_percent, r.mean_batch_size
        );
    }

    println!("\n== Number of nfsds (FDDI, 15 biods, gathering): §6.1 scaling claim ==");
    for nfsds in [1usize, 2, 4, 8, 16] {
        let mut cfg = fddi(15, WritePolicy::Gathering);
        cfg.nfsds = nfsds;
        let r = FileCopySystem::new(cfg).run();
        println!(
            "{:<26} {:>14.0} KB/s, mean batch {:.1}",
            format!("{nfsds} nfsds"),
            r.client_write_kb_per_sec,
            r.mean_batch_size
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both of Figure 1's excerpts go forward in time, though the standard
    /// server's trace, in recording order, steps back.
    #[test]
    fn figure1_excerpts_never_go_back_in_time() {
        for policy in [WritePolicy::Standard, WritePolicy::Gathering] {
            let mut system = figure1_system(policy);
            system.run();
            let shown = figure1_events(system.trace());
            assert!(shown.len() > FIGURE1_EXCERPT, "{policy:?}");
            let excerpt = &shown[..FIGURE1_EXCERPT];
            assert!(
                excerpt.windows(2).all(|pair| pair[0].at <= pair[1].at),
                "{policy:?}"
            );
            let recorded = system.trace().events();
            let steps_back = recorded.windows(2).any(|pair| pair[0].at > pair[1].at);
            assert!(steps_back || policy != WritePolicy::Standard);
        }
    }
}
