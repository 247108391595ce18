//! The single-client file-copy system (Tables 1–6, Figure 1).

use wg_client::{ClientAction, ClientConfig, ClientInput, FileWriterClient};
use wg_net::medium::Direction;
use wg_net::{Medium, MediumParams, TransmitOutcome};
use wg_nfsproto::StableHow;
use wg_server::{NfsServer, ServerAction, ServerConfig, ServerInput, StabilityMode, WritePolicy};
use wg_simcore::{CalStats, Duration, EventQueue, FaultKind, FaultPlan, SimTime, Trace};

use crate::results::FileCopyResult;

/// Which network the experiment runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum NetworkKind {
    /// Private 10 Mb/s Ethernet (Tables 1 and 2).
    Ethernet,
    /// Private 100 Mb/s FDDI (Tables 3–6, Figures 1–3).
    Fddi,
}

impl NetworkKind {
    /// The medium calibration for this network.
    pub fn params(self) -> MediumParams {
        match self {
            NetworkKind::Ethernet => MediumParams::ethernet(),
            NetworkKind::Fddi => MediumParams::fddi(),
        }
    }
}

/// Configuration of one file-copy experiment cell.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Network medium.
    pub network: NetworkKind,
    /// Client biod count (the column of the tables).
    pub biods: usize,
    /// Server write policy (Standard vs Gathering is the with/without split of
    /// every table).
    pub policy: WritePolicy,
    /// Prestoserve acceleration on the server.
    pub prestoserve: bool,
    /// Number of server disk spindles (1 or 3).
    pub spindles: usize,
    /// Bytes the client writes (10 MB in the paper).
    pub file_size: u64,
    /// Number of server nfsds (8 in the paper's file-copy experiments).
    pub nfsds: usize,
    /// Server request-path shards (1 = the paper's monolithic dispatch).
    pub shards: usize,
    /// Server CPU cores (1 = the paper's serial CPU).
    pub cores: usize,
    /// Pipelined storage-stack execution (see
    /// [`wg_server::ServerConfig::io_overlap`]).  `false` is the paper's
    /// serial driver.
    pub io_overlap: bool,
    /// Record a Figure-1 style event trace on the server.
    pub trace: bool,
    /// Fault-injection schedule.  Empty (the default) means the fault layer
    /// is completely inert: no events are scheduled and the run is
    /// bit-identical to one built before the layer existed.
    pub fault_plan: FaultPlan,
    /// Override of the client's `(initial_timeout, max_retransmits)` retry
    /// knobs, used by fault tests to force a give-up quickly.  `None` keeps
    /// [`wg_client::ClientConfig::default`].
    pub client_retry: Option<(Duration, u32)>,
    /// Inert: the simulator never reads it, and every run executes on the
    /// one serial event loop.  It is kept only because the benchmark
    /// package's traced copy replay (`benchmark/src/traced.rs`) still checks
    /// it; remove the two together.
    pub sim_threads: usize,
    /// Pages of the server's bounded unified buffer cache (`0`, the default,
    /// keeps the paper's unbounded delayed-write pool — every table cell is
    /// byte-identical to a build without the cache).
    pub cache_pages: u64,
    /// Fraction of the unified cache allowed to sit dirty before writers are
    /// throttled (only meaningful with [`ExperimentConfig::cache_pages`] set).
    pub dirty_ratio: f64,
    /// The write-stability regime of the cell: [`StabilityMode::Stable`] is
    /// the paper's world (every WRITE durable before its reply);
    /// [`StabilityMode::Unstable`] issues NFSv3-style `WRITE(UNSTABLE)` from
    /// the client and `COMMIT` at close.
    pub stability: StabilityMode,
}

impl ExperimentConfig {
    /// The paper's default 10 MB copy cell.
    pub fn new(network: NetworkKind, biods: usize, policy: WritePolicy) -> Self {
        ExperimentConfig {
            network,
            biods,
            policy,
            prestoserve: false,
            spindles: 1,
            file_size: 10 * 1024 * 1024,
            nfsds: 8,
            shards: 1,
            cores: 1,
            io_overlap: false,
            trace: false,
            fault_plan: FaultPlan::new(),
            client_retry: None,
            sim_threads: 0,
            cache_pages: 0,
            dirty_ratio: 0.5,
            stability: StabilityMode::Stable,
        }
    }

    /// Enable Prestoserve.
    pub fn with_presto(mut self, on: bool) -> Self {
        self.prestoserve = on;
        self
    }

    /// Use a stripe set of `n` disks.
    pub fn with_spindles(mut self, n: usize) -> Self {
        self.spindles = n;
        self
    }

    /// Use a smaller file (keeps unit tests fast).
    pub fn with_file_size(mut self, bytes: u64) -> Self {
        self.file_size = bytes;
        self
    }

    /// Record a server event trace.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Shard the server's request path `n` ways.
    pub fn with_shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Give the server `n` CPU cores.
    pub fn with_cores(mut self, n: usize) -> Self {
        self.cores = n;
        self
    }

    /// Enable pipelined storage-stack execution on the server.
    pub fn with_io_overlap(mut self, on: bool) -> Self {
        self.io_overlap = on;
        self
    }

    /// Attach a fault-injection schedule to the run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Override the client's retry knobs (initial retransmit timeout and the
    /// attempt cap after which it gives up).
    pub fn with_client_retry(mut self, initial_timeout: Duration, max_retransmits: u32) -> Self {
        self.client_retry = Some((initial_timeout, max_retransmits));
        self
    }

    /// Arm the server's bounded unified buffer cache with `pages` pages
    /// (`0` disarms it and restores the paper's unbounded pool).
    pub fn with_unified_cache(mut self, pages: u64) -> Self {
        self.cache_pages = pages;
        self
    }

    /// Set the dirty-page throttle fraction of the unified cache.
    pub fn with_dirty_ratio(mut self, ratio: f64) -> Self {
        self.dirty_ratio = ratio;
        self
    }

    /// Select the write-stability regime of the cell.
    pub fn with_stability(mut self, mode: StabilityMode) -> Self {
        self.stability = mode;
        self
    }
}

/// Events flowing through the combined system.
enum Ev {
    Client(ClientInput),
    Server(ServerInput),
    /// An injected fault fires (scheduled only when the plan is non-empty).
    Fault(FaultKind),
    /// The NVRAM battery comes back after a `BatteryFailure`.
    BatteryRepair,
}

/// The assembled single-client system.
pub struct FileCopySystem {
    config: ExperimentConfig,
    client: FileWriterClient,
    server: NfsServer,
    medium: Medium,
    queue: EventQueue<Ev>,
    completed_at: Option<SimTime>,
    started_at: SimTime,
    events_processed: u64,
}

impl FileCopySystem {
    /// Build the system: the server exports a fresh filesystem containing the
    /// target file, the client is parameterised by the biod count.
    pub fn new(config: ExperimentConfig) -> Self {
        Self::new_customized(config, |_| {})
    }

    /// Build the system with a final hook over the derived [`ServerConfig`],
    /// used by the ablation harness to vary knobs (procrastination interval,
    /// reply order, mbuf hunter) that the paper discusses but the tables do
    /// not sweep.
    pub fn new_customized(
        config: ExperimentConfig,
        customize: impl FnOnce(&mut ServerConfig),
    ) -> Self {
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
        customize(&mut server_config);
        let mut server = NfsServer::new(server_config);
        if config.trace {
            server.enable_trace();
        }
        // The target file is created outside the measured window (the paper
        // measures the data transfer of an established copy).
        let root = server.fs().root();
        let ino = server
            .fs_mut()
            .create(root, "copy-target", 0o644, 0)
            .expect("fresh filesystem");
        let handle = server.handle_for_ino(ino).expect("live inode");

        let mut client_config = ClientConfig {
            biods: config.biods,
            file_size: config.file_size,
            stability: match config.stability {
                StabilityMode::Stable => StableHow::FileSync,
                StabilityMode::Unstable => StableHow::Unstable,
            },
            ..ClientConfig::default()
        };
        if let Some((initial_timeout, max_retransmits)) = config.client_retry {
            client_config.initial_timeout = initial_timeout;
            client_config.max_retransmits = max_retransmits;
        }
        let client = FileWriterClient::new(client_config, handle);
        FileCopySystem {
            medium: Medium::new(medium_params),
            queue: EventQueue::new(),
            completed_at: None,
            started_at: SimTime::ZERO,
            events_processed: 0,
            client,
            server,
            config,
        }
    }

    /// Number of events processed by the most recent [`FileCopySystem::run`].
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Total events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.queue.scheduled_total()
    }

    /// Events scheduled into the simulated past (must stay zero; see
    /// [`EventQueue::clamped_past`]).
    pub fn clamped_past(&self) -> u64 {
        self.queue.clamped_past()
    }

    /// Scheduler-health counters of the pending-event set (calendar
    /// geometry, resizes, depth high-water, direct-search fallbacks).
    pub fn sched_stats(&self) -> CalStats {
        self.queue.sched_stats()
    }

    /// Upper bound on events one copy may process before the run is declared
    /// runaway.  A 10 MB copy needs ~13 k events, so this is four orders of
    /// magnitude of headroom; hitting it means the system is re-scheduling
    /// work without making progress (e.g. a retransmission storm that never
    /// converges), not that the experiment is merely large.
    const MAX_EVENTS: u64 = 50_000_000;

    /// Run the copy to completion and return the table-cell result.
    ///
    /// The loop drains the queue fully: after the client completes, the only
    /// remaining events are bounded housekeeping wake-ups (nfsd-free timers,
    /// gather continuations), and letting them run keeps the server's final
    /// statistics consistent.  Action buffers are allocated once and reused
    /// for every event, so the steady-state loop performs no per-event
    /// allocation.
    pub fn run(&mut self) -> FileCopyResult {
        self.events_processed = 0;
        self.queue
            .schedule_at(SimTime::ZERO, Ev::Client(ClientInput::Start));
        // An empty plan schedules nothing: the queue contents — and therefore
        // the whole run — are identical to a build without the fault layer.
        if !self.config.fault_plan.is_empty() {
            let events: Vec<_> = self.config.fault_plan.events().to_vec();
            for event in events {
                self.queue.schedule_at(event.at, Ev::Fault(event.kind));
            }
        }
        let mut client_actions: Vec<ClientAction> = Vec::new();
        let mut server_actions: Vec<ServerAction> = Vec::new();
        while let Some((t, ev)) = self.queue.pop() {
            self.events_processed += 1;
            if self.events_processed >= Self::MAX_EVENTS {
                panic!(
                    "runaway simulation: {} events without draining \
                     (simulated time {t:?}, client done: {}, {} events still queued, \
                     {} scheduled in total)",
                    self.events_processed,
                    self.completed_at.is_some(),
                    self.queue.len(),
                    self.queue.scheduled_total(),
                );
            }
            match ev {
                Ev::Client(input) => {
                    self.client.handle_into(t, input, &mut client_actions);
                    self.apply_client_actions(&mut client_actions);
                }
                Ev::Server(input) => {
                    self.server.handle_into(t, input, &mut server_actions);
                    self.apply_server_actions(&mut server_actions);
                }
                Ev::Fault(kind) => self.apply_fault(t, kind),
                Ev::BatteryRepair => {
                    self.server.set_battery(true, t);
                }
            }
        }
        self.result()
    }

    fn apply_fault(&mut self, t: SimTime, kind: FaultKind) {
        match kind {
            FaultKind::ServerCrash => {
                self.server.crash(t);
            }
            FaultKind::BatteryFailure { repair_after } => {
                self.server.set_battery(false, t);
                self.queue.schedule_at(t + repair_after, Ev::BatteryRepair);
            }
            FaultKind::DiskDegrade {
                duration,
                stall,
                retries,
            } => {
                self.server.inject_disk_fault(t, duration, stall, retries);
            }
            // The single-client system has one network segment; a burst aimed
            // at a specific segment index still lands on it.
            FaultKind::LossBurst {
                duration,
                probability,
                segment: _,
            } => {
                self.medium.inject_loss_window(t, t + duration, probability);
            }
        }
    }

    fn apply_client_actions(&mut self, actions: &mut Vec<ClientAction>) {
        for action in actions.drain(..) {
            match action {
                ClientAction::Send { at, call } => {
                    let size = call.wire_size();
                    let fragments = self.medium.params().fragments_for(size);
                    match self.medium.transmit(at, size, Direction::ToServer) {
                        TransmitOutcome::Delivered { arrives_at } => {
                            self.queue.schedule_at(
                                arrives_at,
                                Ev::Server(ServerInput::Datagram {
                                    client: 0,
                                    call,
                                    wire_size: size,
                                    fragments,
                                }),
                            );
                        }
                        TransmitOutcome::Lost => {}
                    }
                }
                ClientAction::Wakeup { at, token } => {
                    self.queue
                        .schedule_at(at, Ev::Client(ClientInput::Wakeup { token }));
                }
                ClientAction::Completed { at } => {
                    self.completed_at = Some(at);
                }
            }
        }
    }

    fn apply_server_actions(&mut self, actions: &mut Vec<ServerAction>) {
        for action in actions.drain(..) {
            match action {
                ServerAction::Wakeup { at, token } => {
                    self.queue
                        .schedule_at(at, Ev::Server(ServerInput::Wakeup { token }));
                }
                ServerAction::Reply { at, reply, .. } => {
                    let size = reply.wire_size();
                    match self.medium.transmit(at, size, Direction::ToClient) {
                        TransmitOutcome::Delivered { arrives_at } => {
                            self.queue
                                .schedule_at(arrives_at, Ev::Client(ClientInput::Reply(reply)));
                        }
                        TransmitOutcome::Lost => {}
                    }
                }
            }
        }
    }

    fn result(&self) -> FileCopyResult {
        let gave_up = self.client.stats().gave_up;
        // A copy only counts as completed when every byte was acknowledged:
        // a client that abandoned writes after exhausting its retransmits
        // reports a counted failure, never a silent success.
        let completed = self.completed_at.is_some() && gave_up == 0;
        // A drained event queue with the client still unfinished means the
        // simulation lost work (a dropped wake-up, an orphaned write): surface
        // it immediately in debug builds, and flag it in the result so sweeps
        // can't mistake a dead cell for a slow one.  Under an injected fault
        // schedule an incomplete cell is a legitimate outcome (that is what
        // the chaos sweep measures), so the assert only covers fault-free
        // runs.
        debug_assert!(
            completed || !self.config.fault_plan.is_empty(),
            "file copy did not complete: {} bytes acked of {}, {gave_up} writes given up",
            self.client.stats().bytes_acked,
            self.config.file_size
        );
        let completed_at = self.completed_at.unwrap_or(self.queue.now());
        let elapsed = completed_at.since(self.started_at);
        let elapsed = if elapsed.is_zero() {
            Duration::from_nanos(1)
        } else {
            elapsed
        };
        let device = self.server.device_stats();
        FileCopyResult {
            biods: self.config.biods,
            client_write_kb_per_sec: self.client.stats().write_kb_per_sec(),
            server_cpu_percent: self.server.cpu_utilization_percent(elapsed),
            disk_kb_per_sec: device.kb_per_sec(elapsed),
            disk_trans_per_sec: device.transfers_per_sec(elapsed),
            elapsed_secs: elapsed.as_secs_f64(),
            mean_batch_size: self.server.stats().mean_batch_size(),
            retransmissions: self.client.stats().retransmissions,
            gave_up,
            completed,
        }
    }

    /// Recovery oracle: re-read every byte range the client saw acknowledged
    /// and count the bytes whose content no longer matches the fill pattern
    /// that was written.  Zero for every policy that honours the NFS
    /// stable-storage rule, no matter what the fault plan did; positive only
    /// when an acknowledged write was lost (the
    /// [`wg_server::WritePolicy::DangerousAsync`] failure mode).
    pub fn lost_acked_bytes_on_disk(&self) -> u64 {
        let mut fs = self.server.fs().clone();
        let root = fs.root();
        let ino = fs.lookup(root, "copy-target").expect("target file exists");
        let mut lost = 0u64;
        for &(offset, len) in self.client.acked_writes() {
            let fill = self.client.fill_byte_for(offset);
            let data = fs.read(ino, offset, len).expect("acked range readable");
            lost += data.to_vec().iter().filter(|&&b| b != fill).count() as u64;
        }
        lost
    }

    /// The server's event trace (enable with [`ExperimentConfig::with_trace`]).
    pub fn trace(&self) -> &Trace {
        self.server.trace()
    }

    /// The server, for post-run inspection (data integrity checks, stats).
    pub fn server(&self) -> &NfsServer {
        &self.server
    }

    /// The client, for post-run inspection.
    pub fn client(&self) -> &FileWriterClient {
        &self.client
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }
}

/// Run one cell: convenience wrapper used by the benches and examples.
pub fn run_cell(config: ExperimentConfig) -> FileCopyResult {
    FileCopySystem::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pin the driver event's footprint.  Every schedule moves one `Ev` by
    /// value into the calendar queue and every pop moves it back out, so a
    /// grown variant taxes the whole event loop.  The size is set by the
    /// largest payload (a `ServerInput` carrying an `NfsCall`); box a new
    /// large variant instead of raising this pin.
    #[test]
    fn driver_event_stays_within_its_pinned_footprint() {
        assert!(
            std::mem::size_of::<Ev>() <= 104,
            "Ev grew to {} bytes; box the large variant",
            std::mem::size_of::<Ev>()
        );
    }

    const SMALL: u64 = 1024 * 1024; // 1 MB keeps unit tests quick

    fn run(
        network: NetworkKind,
        biods: usize,
        policy: WritePolicy,
        presto: bool,
    ) -> FileCopyResult {
        run_cell(
            ExperimentConfig::new(network, biods, policy)
                .with_presto(presto)
                .with_file_size(SMALL),
        )
    }

    #[test]
    fn copy_completes_and_data_is_intact() {
        let mut system = FileCopySystem::new(
            ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Gathering)
                .with_file_size(SMALL),
        );
        let result = system.run();
        assert!(result.client_write_kb_per_sec > 0.0);
        assert!(result.completed);
        assert_eq!(result.retransmissions, 0);
        // Every byte the client acknowledged is present and committed.
        assert_eq!(system.client().stats().bytes_acked, SMALL);
        assert_eq!(system.server().uncommitted_bytes(), 0);
        let mut fs = system.server().fs().clone();
        let root = fs.root();
        let ino = fs.lookup(root, "copy-target").unwrap();
        assert_eq!(fs.getattr(ino).unwrap().size, SMALL);
        // Spot-check the block fill pattern written by the client.
        let block7 = fs.read(ino, 7 * 8192, 8192).unwrap().to_vec();
        assert!(block7.iter().all(|&b| b == 7));
    }

    #[test]
    fn unstable_copy_commits_at_close_and_lands_the_same_file() {
        let mut system = FileCopySystem::new(
            ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Gathering)
                .with_file_size(SMALL)
                .with_unified_cache(4096)
                .with_stability(StabilityMode::Unstable),
        );
        let result = system.run();
        assert!(result.completed);
        let stats = system.server().stats();
        assert!(stats.unstable_writes > 0, "no WRITE(UNSTABLE) reached disk");
        assert!(stats.commits > 0, "the close never issued a COMMIT");
        assert_eq!(stats.forced_file_sync, 0);
        // COMMIT made everything durable before close(2) returned...
        assert_eq!(system.server().uncommitted_bytes(), 0);
        assert_eq!(system.client().uncommitted_ranges().len(), 0);
        assert_eq!(system.client().stats().verifier_mismatches, 0);
        // ...and the bytes on disk are the bytes the client wrote.
        assert_eq!(system.lost_acked_bytes_on_disk(), 0);
        let mut fs = system.server().fs().clone();
        let root = fs.root();
        let ino = fs.lookup(root, "copy-target").unwrap();
        assert_eq!(fs.getattr(ino).unwrap().size, SMALL);
    }

    #[test]
    fn unstable_copy_is_never_slower_than_file_sync() {
        let run = |stability| {
            FileCopySystem::new(
                ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Standard)
                    .with_file_size(SMALL)
                    .with_unified_cache(4096)
                    .with_stability(stability),
            )
            .run()
        };
        let stable = run(StabilityMode::Stable);
        let unstable = run(StabilityMode::Unstable);
        assert!(stable.completed && unstable.completed);
        // Acking from the cache and batching durability into one COMMIT must
        // beat per-write synchronous commits on a standard-policy server.
        assert!(
            unstable.client_write_kb_per_sec > stable.client_write_kb_per_sec,
            "unstable {:.0} KB/s vs stable {:.0} KB/s",
            unstable.client_write_kb_per_sec,
            stable.client_write_kb_per_sec
        );
    }

    #[test]
    fn gathering_beats_standard_with_many_biods_on_fddi() {
        let standard = run(NetworkKind::Fddi, 15, WritePolicy::Standard, false);
        let gathering = run(NetworkKind::Fddi, 15, WritePolicy::Gathering, false);
        assert!(
            gathering.client_write_kb_per_sec > standard.client_write_kb_per_sec * 1.8,
            "gathering {:.0} KB/s vs standard {:.0} KB/s",
            gathering.client_write_kb_per_sec,
            standard.client_write_kb_per_sec
        );
        // And it does so with far fewer disk transactions per second relative
        // to the data rate.
        let std_tx_per_kb = standard.disk_trans_per_sec / standard.disk_kb_per_sec;
        let gat_tx_per_kb = gathering.disk_trans_per_sec / gathering.disk_kb_per_sec;
        assert!(gat_tx_per_kb < std_tx_per_kb * 0.6);
    }

    #[test]
    fn gathering_costs_a_little_with_zero_biods() {
        let standard = run(NetworkKind::Ethernet, 0, WritePolicy::Standard, false);
        let gathering = run(NetworkKind::Ethernet, 0, WritePolicy::Gathering, false);
        // §6.10: the single-threaded client loses, but not catastrophically.
        assert!(gathering.client_write_kb_per_sec < standard.client_write_kb_per_sec);
        assert!(
            gathering.client_write_kb_per_sec > standard.client_write_kb_per_sec * 0.6,
            "loss too large: {:.0} vs {:.0}",
            gathering.client_write_kb_per_sec,
            standard.client_write_kb_per_sec
        );
    }

    #[test]
    fn standard_throughput_is_flat_in_biods_without_presto() {
        let few = run(NetworkKind::Fddi, 3, WritePolicy::Standard, false);
        let many = run(NetworkKind::Fddi, 15, WritePolicy::Standard, false);
        // The vnode lock serialises everything; extra biods barely help.
        assert!(many.client_write_kb_per_sec < few.client_write_kb_per_sec * 1.3);
    }

    #[test]
    fn presto_lifts_standard_server_throughput() {
        let plain = run(NetworkKind::Ethernet, 7, WritePolicy::Standard, false);
        let presto = run(NetworkKind::Ethernet, 7, WritePolicy::Standard, true);
        assert!(
            presto.client_write_kb_per_sec > plain.client_write_kb_per_sec * 2.0,
            "presto {:.0} vs plain {:.0}",
            presto.client_write_kb_per_sec,
            plain.client_write_kb_per_sec
        );
    }

    #[test]
    fn presto_gathering_trades_throughput_for_cpu() {
        let without = run(NetworkKind::Ethernet, 7, WritePolicy::Standard, true);
        let with = run(NetworkKind::Ethernet, 7, WritePolicy::Gathering, true);
        // Table 2's shape: some client throughput is given up...
        assert!(with.client_write_kb_per_sec <= without.client_write_kb_per_sec * 1.05);
        // ...but server CPU per byte moved drops.
        let cpu_per_kb_without = without.server_cpu_percent / without.client_write_kb_per_sec;
        let cpu_per_kb_with = with.server_cpu_percent / with.client_write_kb_per_sec;
        assert!(
            cpu_per_kb_with < cpu_per_kb_without,
            "cpu/KB with {cpu_per_kb_with:.5} vs without {cpu_per_kb_without:.5}"
        );
    }

    #[test]
    fn overlapped_stripe_copy_is_never_slower_and_lands_the_same_file() {
        let run = |overlap: bool| {
            let mut system = FileCopySystem::new(
                ExperimentConfig::new(NetworkKind::Fddi, 8, WritePolicy::Gathering)
                    .with_spindles(3)
                    .with_io_overlap(overlap)
                    .with_file_size(SMALL),
            );
            let result = system.run();
            assert!(result.completed);
            let device = system.server().device_stats();
            (result, device.transfers.bytes(), system)
        };
        let (serial, serial_bytes, _s1) = run(false);
        let (overlapped, ov_bytes, system) = run(true);
        // Same bytes reach the platters; the copy never slows down.
        assert_eq!(serial_bytes, ov_bytes);
        assert!(
            overlapped.elapsed_secs <= serial.elapsed_secs * 1.0001,
            "overlap {:.4}s vs serial {:.4}s",
            overlapped.elapsed_secs,
            serial.elapsed_secs
        );
        // And the file is intact.
        let mut fs = system.server().fs().clone();
        let root = fs.root();
        let ino = fs.lookup(root, "copy-target").unwrap();
        assert_eq!(fs.getattr(ino).unwrap().size, SMALL);
        assert_eq!(system.server().uncommitted_bytes(), 0);
    }

    #[test]
    fn trace_records_the_figure1_story() {
        let mut system = FileCopySystem::new(
            ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Gathering)
                .with_file_size(256 * 1024)
                .with_trace(true),
        );
        system.run();
        let trace = system.trace();
        use wg_simcore::TraceKind;
        assert!(trace.count_of(TraceKind::RequestArrived) >= 32);
        assert!(trace.count_of(TraceKind::ReplySent) >= 32);
        assert!(trace.count_of(TraceKind::Procrastinate) >= 1);
        assert!(trace.count_of(TraceKind::MetadataToDisk) >= 1);
    }
}
