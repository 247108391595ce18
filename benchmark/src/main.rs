//! `benchmark`: end-to-end and per-layer measurements of the write-gathering
//! NFS simulator, on both of its clocks — the host time the simulator takes
//! and the simulated server's performance.  README.md describes the
//! workloads, the metrics and their bounds.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!           [--out <file.json>] [--spans <file.jsonl>]
//! benchmark --smoke
//! benchmark compare <a.json...> -- <b.json...>
//! ```
//!
//! A run prints every metric as `name value unit` and, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.  Any
//! failed correctness check makes it exit non-zero without printing metrics.

mod catalog;
mod compare;
mod micro;
mod reference;
mod stats;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use stats::Spread;
use traced::{Layer, RepTrace, Tracer};
use wg_workload::results::json;
use workloads::{measure, run_rep, same_outcome, Plan, Size, Workload};

const USAGE: &str = "usage: benchmark --workload <copy_tables|sfs_ladder|sfs_fleet|sfs_crash> \
    --seed <n> [--seconds <s>] [--trace 0|1] [--out <file.json>] [--spans <file.jsonl>]\n       \
    benchmark --smoke\n       benchmark compare <a.json...> -- <b.json...>";

/// Spans kept for the JSON-lines export; every span still counts toward the
/// per-layer totals.
const SPAN_CAPACITY: usize = 1 << 15;

/// Share of `--seconds` each phase of a traced run gets: untraced
/// repetitions, traced repetitions, and each of the twelve micro cases.
const TRACE_UNTRACED_SHARE: f64 = 0.35;
const TRACE_TRACED_SHARE: f64 = 0.35;
const TRACE_MICRO_SHARE: f64 = 0.02;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let (mut out, mut spans) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or(format!("no workload named {name}\n{USAGE}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = Some(value()?.clone()),
            "--spans" => spans = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required\n{USAGE}"))?,
        seed: seed.ok_or(format!("--seed is required\n{USAGE}"))?,
        seconds,
        trace,
        out,
        spans,
    })
}

fn dispatch(args: &[String]) -> Result<Vec<String>, String> {
    match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]),
        Some("--smoke") if args.len() == 1 => smoke(),
        _ => {
            let args = parse_args(args)?;
            let report = run(
                args.workload,
                Size::Full,
                args.seed,
                args.seconds,
                args.trace,
            )?;
            if let Some(tracer) = &report.tracer {
                let path = args
                    .spans
                    .clone()
                    .unwrap_or_else(|| format!(".bench_out/spans-{}.jsonl", args.workload.name()));
                write_file(&path, |file| tracer.write_jsonl(file))?;
            }
            if let Some(path) = &args.out {
                let text = report.out_json(args.seconds);
                write_file(path, |mut file| {
                    std::io::Write::write_all(&mut file, text.as_bytes())
                })?;
            }
            Ok(report.lines())
        }
    }
}

fn write_file(
    path: &str,
    write: impl FnOnce(std::fs::File) -> std::io::Result<()>,
) -> Result<(), String> {
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::File::create(path)
        .and_then(write)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// All four workloads at smoke size, untraced and traced.
fn smoke() -> Result<Vec<String>, String> {
    let start = Instant::now();
    let mut lines = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run(workload, Size::Smoke, 1, 0.1, trace)?;
            lines.push(format!(
                "smoke {} trace {}: {} repetitions, {} metrics, {} calls, {} failed",
                workload.name(),
                u8::from(trace),
                report.reps,
                report.metrics.len(),
                report.attempted,
                report.failed
            ));
        }
    }
    lines.push(format!(
        "smoke: every check passed in {:.2} s",
        start.elapsed().as_secs_f64()
    ));
    Ok(lines)
}

/// One reported metric; host timings carry their spread over repetitions.
struct Value {
    name: &'static str,
    value: f64,
    unit: &'static str,
    spread: Option<Spread>,
}

struct Report {
    workload: Workload,
    seed: u64,
    trace: bool,
    reps: usize,
    metrics: Vec<Value>,
    info: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    tracer: Option<Tracer>,
}

/// A measured value before it is matched to the catalogue.
type Measurement = (&'static str, f64, Option<Spread>);

/// Measure one workload: `--trace 0` reports the end-to-end metrics,
/// `--trace 1` the per-layer ones.
fn run(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let plan = Plan::new(workload, size, seed);
    let budget = if trace {
        TRACE_UNTRACED_SHARE * seconds
    } else {
        seconds
    };
    let measured = measure(&plan, budget, 2)?;
    let host = |pick: fn(&workloads::RepTimes) -> f64| {
        let times: Vec<f64> = measured.reps.iter().map(pick).collect();
        let corrected: Vec<f64> = times
            .iter()
            .zip(&measured.speed)
            .map(|(t, s)| t * s)
            .collect();
        (Spread::of(&corrected), Spread::of(&times).median)
    };
    let ((run_s, run_wall_s), (setup_s, setup_wall_s)) = (host(|r| r.run_s), host(|r| r.setup_s));
    let outcome = &measured.outcome;
    let mut info = outcome.info.clone();
    info.push(("host_run_wall_s".to_string(), run_wall_s, "s"));
    info.push(("setup_wall_s".to_string(), setup_wall_s, "s"));
    info.push((
        "host_speed".to_string(),
        Spread::of(&measured.speed).median,
        "ratio",
    ));
    let (values, catalog, tracer): (Vec<Measurement>, &[(&str, &str, &str)], _) = if trace {
        let mut tracer = Tracer::new(SPAN_CAPACITY);
        let values = per_layer(
            &plan,
            outcome,
            run_s.median,
            run_s.median + setup_s.median,
            seconds,
            &mut tracer,
            &mut info,
        )?;
        (values, &catalog::PER_LAYER, Some(tracer))
    } else {
        let mut values = vec![
            ("host_run_s", run_s.median, Some(run_s)),
            ("setup_s", setup_s.median, Some(setup_s)),
            ("peak_rss_mb", peak_rss_mb()?, None),
        ];
        values.extend(outcome.sim.iter().map(|&(n, v)| (n, v, None)));
        (values, &catalog::END_TO_END, None)
    };
    let metrics = catalog
        .iter()
        .map(|&(name, unit, _)| {
            let &(_, value, spread) = values
                .iter()
                .find(|v| v.0 == name)
                .ok_or(format!("{name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("{name} = {value} is not a number"));
            }
            Ok(Value {
                name,
                value,
                unit,
                spread,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Report {
        workload,
        seed,
        trace,
        reps: measured.reps.len(),
        metrics,
        info,
        attempted: outcome.attempted,
        failed: outcome.failed,
        tracer,
    })
}

/// The per-layer metrics: the untraced run's simulated counts, host time
/// per event (from the corrected `run_s`), the micro replays, and the traced
/// repetitions' split of host time by layer (whose seconds also go to
/// `info`).  `untraced_s` is the corrected time of an untraced repetition,
/// set-up included.
fn per_layer(
    plan: &Plan,
    outcome: &workloads::Outcome,
    run_s: f64,
    untraced_s: f64,
    seconds: f64,
    tracer: &mut Tracer,
    info: &mut Vec<(String, f64, &'static str)>,
) -> Result<Vec<Measurement>, String> {
    let traced = traced_reps(plan, outcome, TRACE_TRACED_SHARE * seconds, tracer)?;
    let (traced_s, rep) = (traced.wall_s, &traced.layers);
    let events = outcome
        .layers
        .iter()
        .find(|(n, _)| *n == "simcore.events")
        .map_or(0.0, |l| l.1);
    let mut values: Vec<Measurement> = outcome.layers.iter().map(|&(n, v)| (n, v, None)).collect();
    values.push(("simcore.host_ns_per_event", 1e9 * run_s / events, None));
    values.extend(
        micro::replays(TRACE_MICRO_SHARE * seconds)
            .into_iter()
            .map(|(n, v, _)| (n, v, None)),
    );
    let pct_names = [
        "simcore.host_self_pct",
        "net.host_self_pct",
        "nfsproto.host_self_pct",
        "server.host_self_pct",
        "client.host_self_pct",
        "workload.host_self_pct",
    ];
    for (layer, name) in Layer::ALL.into_iter().zip(pct_names) {
        let i = layer as usize;
        values.push((name, 100.0 * rep.self_s[i] / traced_s, None));
        info.push((format!("trace.{}.self_s", layer.name()), rep.self_s[i], "s"));
        info.push((
            format!("trace.{}.calls", layer.name()),
            rep.calls[i] as f64,
            "count",
        ));
    }
    let driver_s = traced_s - rep.self_s.iter().sum::<f64>();
    values.push(("trace.driver_pct", 100.0 * driver_s / traced_s, None));
    values.push((
        "trace.overhead_pct",
        100.0 * (traced.corrected_s / untraced_s - 1.0),
        None,
    ));
    let utilization = if rep.net_observed_s > 0.0 {
        100.0 * rep.net_busy_s / rep.net_observed_s
    } else {
        0.0
    };
    values.push(("net.utilization_pct", utilization, None));
    values.push(("net.datagrams", rep.datagrams as f64, None));
    info.push(("trace.total_s".to_string(), traced_s, "s"));
    info.push(("trace.driver_s".to_string(), driver_s, "s"));
    info.push((
        "trace.spans".to_string(),
        tracer.spans_taken() as f64,
        "count",
    ));
    Ok(values)
}

/// One traced repetition: host seconds corrected for host speed, the same
/// as measured, and the per-layer breakdown (as measured).
struct TracedRep {
    corrected_s: f64,
    wall_s: f64,
    layers: RepTrace,
}

/// Traced repetitions for `budget` host seconds.  Each must reproduce the
/// untraced outcome exactly (for copies: the outside driver matches
/// `FileCopySystem` bit for bit).  Returns the repetition with the median
/// corrected time; its per-layer parts sum to its wall time.
fn traced_reps(
    plan: &Plan,
    untraced: &workloads::Outcome,
    budget: f64,
    tracer: &mut Tracer,
) -> Result<TracedRep, String> {
    let start = Instant::now();
    let mut reps: Vec<TracedRep> = Vec::new();
    let mut probe = reference::reference_s();
    while reps.len() < 3 || start.elapsed().as_secs_f64() < budget {
        let (outcome, times) = run_rep(plan, false, Some(&mut *tracer))?;
        same_outcome(untraced, &outcome, reps.len() + 1)
            .map_err(|e| format!("the traced run diverged from the measured one: {e}"))?;
        let after = reference::reference_s();
        let wall_s = times.setup_s + times.run_s;
        reps.push(TracedRep {
            corrected_s: wall_s * reference::speed(probe, after),
            wall_s,
            layers: tracer.take_rep(),
        });
        probe = after;
    }
    reps.sort_by(|a, b| a.corrected_s.total_cmp(&b.corrected_s));
    Ok(reps.swap_remove(reps.len() / 2))
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Report {
    /// Human-readable lines, then the one-line JSON result.
    fn lines(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "# {} seed {} trace {} repetitions {} host_parallelism {}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            self.reps,
            host_parallelism()
        )];
        for m in &self.metrics {
            lines.push(match m.spread {
                Some(s) => format!(
                    "{} {} {}  (q1 {} q3 {} n {})",
                    m.name, m.value, m.unit, s.q1, s.q3, s.n
                ),
                None => format!("{} {} {}", m.name, m.value, m.unit),
            });
        }
        for (name, value, unit) in &self.info {
            lines.push(format!("# info {name} {value} {unit}"));
        }
        let metrics: Vec<(&str, String)> = self
            .metrics
            .iter()
            .map(|m| {
                let fields = [
                    ("value", json::number(m.value)),
                    ("unit", json::string(m.unit)),
                ];
                (m.name, json::object(&fields))
            })
            .collect();
        lines.push(json::object(&[
            ("correct", "true".to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", json::object(&metrics)),
        ]));
        lines
    }

    /// The result file `benchmark compare` reads: the metrics with their
    /// spreads, the informational readings and the run's provenance.
    fn out_json(&self, seconds: f64) -> String {
        let metrics: Vec<(&str, String)> = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value", json::number(m.value)),
                    ("unit", json::string(m.unit)),
                ];
                if let Some(s) = m.spread {
                    fields.push(("q1", json::number(s.q1)));
                    fields.push(("q3", json::number(s.q3)));
                    fields.push(("n", s.n.to_string()));
                }
                (m.name, json::object(&fields))
            })
            .collect();
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(name, value, unit)| {
                json::object(&[
                    ("name", json::string(name)),
                    ("value", json::number(*value)),
                    ("unit", json::string(unit)),
                ])
            })
            .collect();
        let mut text = json::object(&[
            ("workload", json::string(self.workload.name())),
            ("seed", self.seed.to_string()),
            ("trace", u8::from(self.trace).to_string()),
            ("seconds", json::number(seconds)),
            ("repetitions", self.reps.to_string()),
            ("host_parallelism", host_parallelism().to_string()),
            ("correct", "true".to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", json::object(&metrics)),
            ("info", json::array(&info)),
        ]);
        text.push('\n');
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn bad_arguments_are_errors_not_results() {
        assert!(dispatch(&args(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(dispatch(&args(&["--workload", "copy_tables"])).is_err());
        assert!(dispatch(&args(&[
            "--workload",
            "copy_tables",
            "--seed",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(dispatch(&args(&["--seed"])).is_err());
        assert!(dispatch(&args(&["compare", "a.json"])).is_err());
    }

    #[test]
    fn smoke_runs_of_every_workload_report_every_metric() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let report = run(workload, Size::Smoke, 3, 0.05, trace).expect("smoke run passes");
                let expected = if trace {
                    catalog::PER_LAYER.len()
                } else {
                    catalog::END_TO_END.len()
                };
                assert_eq!(report.metrics.len(), expected);
                assert!(report.attempted > 0);
                let lines = report.lines();
                let last = compare::parse(lines.last().expect("a result line")).expect("JSON");
                let keys: Vec<&str> = match &last {
                    compare::Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                    _ => panic!("the result line is an object"),
                };
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let out = compare::parse(&report.out_json(0.05)).expect("result file parses");
                assert_eq!(
                    out.get("workload").and_then(compare::Json::as_str),
                    Some(workload.name())
                );
            }
        }
    }
}
