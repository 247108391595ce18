//! Spans taken around the calls the benchmark makes into each layer, and the
//! outside driver that runs a file-copy cell through the layers' public calls
//! so those calls can be timed one by one.
//!
//! A span records its layer, start and end, the span that caused it and the
//! xid of the NFS call it carries (0 for timers).  The driver never calls one
//! layer from inside another layer's span, so spans do not nest: a layer's
//! self time is the sum of its spans' durations, and the time outside every
//! span is the driver's own.  Spans go into a buffer allocated up front; the
//! per-layer totals count every span, the buffer keeps the first ones.

use std::io::{BufWriter, Write};
use std::time::Instant;

use wg_client::{ClientAction, ClientConfig, ClientInput, FileWriterClient};
use wg_net::medium::Direction;
use wg_net::{Medium, TransmitOutcome};
use wg_nfsproto::StableHow;
use wg_server::{NfsServer, ServerAction, ServerConfig, ServerInput, StabilityMode};
use wg_simcore::{CalStats, Duration, EventQueue, SimTime};
use wg_workload::{ExperimentConfig, FileCopyResult};

/// The layers spans are attributed to (crate names).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Simcore,
    Net,
    Nfsproto,
    Server,
    Client,
    Workload,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Simcore,
        Layer::Net,
        Layer::Nfsproto,
        Layer::Server,
        Layer::Client,
        Layer::Workload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Simcore => "simcore",
            Layer::Net => "net",
            Layer::Nfsproto => "nfsproto",
            Layer::Server => "server",
            Layer::Client => "client",
            Layer::Workload => "workload",
        }
    }
}

/// One timed call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    /// The span whose output caused this call (0 for none).
    pub parent: u32,
    pub layer: Layer,
    /// Index of the cell within the repetition.
    pub cell: u32,
    pub xid: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one traced repetition spent per layer, plus the network counts the
/// outside driver observes at the `Medium::transmit` boundary.
#[derive(Clone, Debug, Default)]
pub struct RepTrace {
    pub self_s: [f64; 6],
    pub calls: [u64; 6],
    pub datagrams: u64,
    pub net_busy_s: f64,
    pub net_observed_s: f64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u32,
    cell: u32,
    rep: RepTrace,
}

impl Tracer {
    /// A tracer whose span buffer holds `capacity` spans.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            next_id: 0,
            cell: 0,
            rep: RepTrace::default(),
        }
    }

    /// Close a span opened at `start`; returns its id.
    pub fn finish(&mut self, start: Instant, layer: Layer, parent: u32, xid: u32) -> u32 {
        let end = Instant::now();
        self.next_id += 1;
        let id = self.next_id;
        let layer_index = layer as usize;
        self.rep.self_s[layer_index] += (end - start).as_secs_f64();
        self.rep.calls[layer_index] += 1;
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                id,
                parent,
                layer,
                cell: self.cell,
                xid,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
        id
    }

    /// Time `f` as one span.
    pub fn time<R>(
        &mut self,
        layer: Layer,
        parent: u32,
        xid: u32,
        f: impl FnOnce() -> R,
    ) -> (u32, R) {
        let start = Instant::now();
        let r = f();
        (self.finish(start, layer, parent, xid), r)
    }

    /// The per-layer totals since the previous call.
    pub fn take_rep(&mut self) -> RepTrace {
        std::mem::take(&mut self.rep)
    }

    /// Spans taken in total (the buffer keeps at most its capacity).
    pub fn spans_taken(&self) -> u64 {
        u64::from(self.next_id)
    }

    /// Write the buffered spans as JSON lines.
    pub fn write_jsonl(&self, out: impl Write) -> std::io::Result<()> {
        let mut out = BufWriter::new(out);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"cell\":{},\"xid\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.layer.name(),
                s.cell,
                s.xid,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Run `f` as one workload-layer span when tracing.
pub fn workload_span<R>(tracer: Option<&mut Tracer>, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(tracer) => tracer.time(Layer::Workload, 0, 0, f).1,
        None => f(),
    }
}

enum Ev {
    Client(ClientInput),
    Server(ServerInput),
}

impl Ev {
    fn xid(&self) -> u32 {
        match self {
            Ev::Client(ClientInput::Reply(reply)) => reply.xid.0,
            Ev::Server(ServerInput::Datagram { call, .. }) => call.xid.0,
            _ => 0,
        }
    }
}

/// One file-copy cell driven from outside through the layers' public calls.
/// It schedules and handles exactly what `FileCopySystem::run` does, in the
/// same order, so the two produce bit-identical results; each queued event
/// carries the id of the span that caused it.
pub struct CopyRun {
    config: ExperimentConfig,
    pub server: NfsServer,
    pub client: FileWriterClient,
    medium: Medium,
    queue: EventQueue<(u32, Ev)>,
    pub events: u64,
}

impl CopyRun {
    /// Build the cell the way `FileCopySystem::new` does.
    pub fn new(config: ExperimentConfig) -> CopyRun {
        assert!(
            config.fault_plan.is_empty()
                && config.client_retry.is_none()
                && config.sim_threads <= 1
                && !config.trace,
            "the outside driver replays fault-free serial cells only"
        );
        let medium_params = config.network.params();
        let mut server_config = ServerConfig {
            policy: config.policy,
            nfsds: config.nfsds,
            ..ServerConfig::standard()
        };
        server_config.storage.prestoserve = config.prestoserve;
        server_config.storage.spindles = config.spindles;
        server_config.procrastination = medium_params.procrastination;
        server_config.shards = config.shards;
        server_config.cores = config.cores;
        server_config.io_overlap = config.io_overlap;
        server_config = server_config
            .with_unified_cache(config.cache_pages)
            .with_dirty_ratio(config.dirty_ratio)
            .with_stability(config.stability);
        let mut server = NfsServer::new(server_config);
        let root = server.fs().root();
        let ino = server
            .fs_mut()
            .create(root, "copy-target", 0o644, 0)
            .expect("fresh filesystem");
        let handle = server.handle_for_ino(ino).expect("live inode");
        let client = FileWriterClient::new(
            ClientConfig {
                biods: config.biods,
                file_size: config.file_size,
                stability: match config.stability {
                    StabilityMode::Stable => StableHow::FileSync,
                    StabilityMode::Unstable => StableHow::Unstable,
                },
                ..ClientConfig::default()
            },
            handle,
        );
        CopyRun {
            medium: Medium::new(medium_params),
            queue: EventQueue::new(),
            events: 0,
            server,
            client,
            config,
        }
    }

    /// `(events, scheduled, clamped into the past, calendar counters)`.
    pub fn scheduler(&self) -> (u64, u64, u64, CalStats) {
        (
            self.events,
            self.queue.scheduled_total(),
            self.queue.clamped_past(),
            self.queue.sched_stats(),
        )
    }

    /// Run the copy to completion, draining the queue like
    /// `FileCopySystem::run`, and return the table-cell result.
    pub fn run(&mut self, tracer: &mut Tracer, cell: u32) -> FileCopyResult {
        tracer.cell = cell;
        let mut client_actions = Vec::new();
        let mut server_actions = Vec::new();
        let mut completed_at = None;
        let queue = &mut self.queue;
        let medium = &mut self.medium;
        tracer.time(Layer::Simcore, 0, 0, || {
            queue.schedule_at(SimTime::ZERO, (0, Ev::Client(ClientInput::Start)))
        });
        loop {
            let start = Instant::now();
            let Some((t, (cause, ev))) = queue.pop() else {
                tracer.finish(start, Layer::Simcore, 0, 0);
                break;
            };
            let xid = ev.xid();
            let popped = tracer.finish(start, Layer::Simcore, cause, xid);
            self.events += 1;
            match ev {
                Ev::Client(input) => {
                    let client = &mut self.client;
                    let (handler, ()) = tracer.time(Layer::Client, popped, xid, || {
                        client.handle_into(t, input, &mut client_actions)
                    });
                    for action in client_actions.drain(..) {
                        match action {
                            ClientAction::Send { at, call } => {
                                let xid = call.xid.0;
                                let (_, size) =
                                    tracer.time(Layer::Nfsproto, handler, xid, || call.wire_size());
                                let (sent, (fragments, outcome)) =
                                    tracer.time(Layer::Net, handler, xid, || {
                                        let fragments = medium.params().fragments_for(size);
                                        (fragments, medium.transmit(at, size, Direction::ToServer))
                                    });
                                if let TransmitOutcome::Delivered { arrives_at } = outcome {
                                    let datagram = ServerInput::Datagram {
                                        client: 0,
                                        call,
                                        wire_size: size,
                                        fragments,
                                    };
                                    tracer.time(Layer::Simcore, sent, xid, || {
                                        queue.schedule_at(arrives_at, (sent, Ev::Server(datagram)))
                                    });
                                }
                            }
                            ClientAction::Wakeup { at, token } => {
                                let wakeup = Ev::Client(ClientInput::Wakeup { token });
                                tracer.time(Layer::Simcore, handler, 0, || {
                                    queue.schedule_at(at, (handler, wakeup))
                                });
                            }
                            ClientAction::Completed { at } => completed_at = Some(at),
                        }
                    }
                }
                Ev::Server(input) => {
                    let server = &mut self.server;
                    let (handler, ()) = tracer.time(Layer::Server, popped, xid, || {
                        server.handle_into(t, input, &mut server_actions)
                    });
                    for action in server_actions.drain(..) {
                        match action {
                            ServerAction::Wakeup { at, token } => {
                                let wakeup = Ev::Server(ServerInput::Wakeup { token });
                                tracer.time(Layer::Simcore, handler, 0, || {
                                    queue.schedule_at(at, (handler, wakeup))
                                });
                            }
                            ServerAction::Reply { at, reply, .. } => {
                                let xid = reply.xid.0;
                                let (_, size) = tracer
                                    .time(Layer::Nfsproto, handler, xid, || reply.wire_size());
                                let (sent, outcome) = tracer.time(Layer::Net, handler, xid, || {
                                    medium.transmit(at, size, Direction::ToClient)
                                });
                                if let TransmitOutcome::Delivered { arrives_at } = outcome {
                                    let delivery = Ev::Client(ClientInput::Reply(reply));
                                    tracer.time(Layer::Simcore, sent, xid, || {
                                        queue.schedule_at(arrives_at, (sent, delivery))
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        let result = self.result(completed_at);
        let elapsed = Duration::from_secs_f64(result.elapsed_secs);
        tracer.rep.datagrams +=
            self.medium.to_server_stats().events() + self.medium.to_client_stats().events();
        tracer.rep.net_busy_s +=
            self.medium.utilization_percent(elapsed) / 100.0 * result.elapsed_secs;
        tracer.rep.net_observed_s += result.elapsed_secs;
        result
    }

    /// The result exactly as `FileCopySystem` computes it.
    fn result(&self, completed_at: Option<SimTime>) -> FileCopyResult {
        let stats = self.client.stats();
        let completed = completed_at.is_some() && stats.gave_up == 0;
        let elapsed = completed_at
            .unwrap_or_else(|| self.queue.now())
            .since(SimTime::ZERO)
            .max(Duration::from_nanos(1));
        let device = self.server.device_stats();
        FileCopyResult {
            biods: self.config.biods,
            client_write_kb_per_sec: stats.write_kb_per_sec(),
            server_cpu_percent: self.server.cpu_utilization_percent(elapsed),
            disk_kb_per_sec: device.kb_per_sec(elapsed),
            disk_trans_per_sec: device.transfers_per_sec(elapsed),
            elapsed_secs: elapsed.as_secs_f64(),
            mean_batch_size: self.server.stats().mean_batch_size(),
            retransmissions: stats.retransmissions,
            gave_up: stats.gave_up,
            completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{run_rep, Plan};
    use wg_server::WritePolicy;
    use wg_workload::NetworkKind;

    /// The outside driver must reproduce `FileCopySystem` bit for bit: the
    /// same results, events, client and device statistics and per-layer
    /// counters, on the Table 1 (Ethernet) and Table 4 (FDDI + Presto) cells.
    /// 8 MB copies are the smallest whose per-cell residence p99 has ten
    /// samples beyond it.
    #[test]
    fn traced_driver_matches_file_copy_system_on_table1_and_table4() {
        let mut cells = Vec::new();
        for (spec, presto) in [(NetworkKind::Ethernet, false), (NetworkKind::Fddi, true)] {
            for policy in [WritePolicy::Standard, WritePolicy::Gathering] {
                for biods in [0, 3, 7, 11, 15] {
                    cells.push(
                        ExperimentConfig::new(spec, biods, policy)
                            .with_presto(presto)
                            .with_file_size(8 << 20),
                    );
                }
            }
        }
        let plan = Plan::Copy(cells);
        let (untraced, _) = run_rep(&plan, true, None).expect("untraced oracles hold");
        let mut tracer = Tracer::new(1 << 12);
        let (traced, _) = run_rep(&plan, false, Some(&mut tracer)).expect("traced oracles hold");
        assert_eq!(untraced, traced);
        let rep = tracer.take_rep();
        assert!(rep.calls.iter().take(5).all(|&c| c > 0), "{:?}", rep.calls);
        assert_eq!(rep.calls[Layer::Workload as usize], 0);
        assert!(rep.datagrams > 0 && rep.net_busy_s > 0.0);
        assert_eq!(tracer.spans.len(), 1 << 12);
        assert!(tracer.spans_taken() > 1 << 12);
    }

    #[test]
    fn spans_link_to_the_span_that_caused_them() {
        let mut tracer = Tracer::new(1 << 16);
        let mut run = CopyRun::new(
            ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Gathering)
                .with_file_size(64 * 1024),
        );
        assert!(run.run(&mut tracer, 0).completed);
        let spans = &tracer.spans;
        assert_eq!(spans.len() as u64, tracer.spans_taken());
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.id as usize, i + 1);
            assert!(s.parent < s.id && s.start_ns <= s.end_ns);
        }
        // Every server call was caused by popping an event a network span
        // delivered.
        for s in spans.iter().filter(|s| s.layer == Layer::Server) {
            let pop = &spans[s.parent as usize - 1];
            assert_eq!(pop.layer, Layer::Simcore);
        }
        let mut out = Vec::new();
        tracer.write_jsonl(&mut out).expect("spans written");
        let text = String::from_utf8(out).expect("spans are UTF-8");
        assert_eq!(text.lines().count(), spans.len());
        assert!(text.starts_with("{\"id\":1,\"parent\":0,\"layer\":\"simcore\""));
    }
}
