//! The single-client file-copy system (Tables 1–6, Figure 1).

use wg_client::FileWriterClient;
use wg_net::MediumParams;
use wg_server::{NfsServer, ServerConfig, StabilityMode, WritePolicy};
use wg_simcore::{Duration, FaultPlan, Trace};

use crate::harness::{harness_readouts, server_config, ClientLans, Harness};
use crate::multi::{writer_config, WriterFleet, WriterSlot};
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

/// The assembled single-client system: the one-client, one-segment case of
/// the writer fleet that [`crate::MultiClientSystem`] scales out.
pub struct FileCopySystem {
    config: ExperimentConfig,
    harness: Harness<WriterFleet>,
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
        let mut server_config = server_config(config.network, config.policy, config.nfsds)
            .with_presto(config.prestoserve)
            .with_spindles(config.spindles)
            .with_shards(config.shards)
            .with_cores(config.cores)
            .with_io_overlap(config.io_overlap)
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

        let client_config = writer_config(
            config.biods,
            config.file_size,
            config.stability,
            config.client_retry,
        );
        let client = WriterSlot::new(vec![(handle, client_config)]);
        let lans = ClientLans::new(&config.network.params(), 1, false);
        FileCopySystem {
            harness: Harness::new(
                server,
                lans,
                WriterFleet::new(vec![client]),
                config.fault_plan.clone(),
            ),
            config,
        }
    }

    harness_readouts!();

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
    /// statistics consistent.
    pub fn run(&mut self) -> FileCopyResult {
        self.harness.run(Self::MAX_EVENTS);
        self.result()
    }

    fn result(&self) -> FileCopyResult {
        let (_, rows) =
            self.harness
                .clients
                .results(self.config.biods, self.server(), self.harness.core.now());
        let result = rows[0];
        // A drained event queue with the client still unfinished means the
        // simulation lost work (a dropped wake-up, an orphaned write): surface
        // it immediately in debug builds; the result's `completed` flag keeps
        // sweeps from mistaking a dead cell for a slow one.  A copy that gave
        // up on writes reports a counted failure, never a silent success.
        // Under an injected fault schedule an incomplete cell is a legitimate
        // outcome (that is what the chaos sweep measures), so the assert only
        // covers fault-free runs.
        debug_assert!(
            result.completed || !self.config.fault_plan.is_empty(),
            "file copy did not complete: {} bytes acked of {}, {} writes given up",
            self.client().stats().bytes_acked,
            self.config.file_size,
            result.gave_up
        );
        result
    }

    /// Recovery oracle: re-read every byte range the client saw acknowledged
    /// and count the bytes whose content no longer matches the fill pattern
    /// that was written.  Zero for every policy that honours the NFS
    /// stable-storage rule, no matter what the fault plan did; positive only
    /// when an acknowledged write was lost (the
    /// [`wg_server::WritePolicy::DangerousAsync`] failure mode).
    pub fn lost_acked_bytes_on_disk(&self) -> u64 {
        let mut fs = self.server().fs().clone();
        let root = fs.root();
        let ino = fs.lookup(root, "copy-target").expect("target file exists");
        let client = self.client();
        let mut lost = 0u64;
        for &(offset, len) in client.acked_writes() {
            let fill = client.fill_byte_for(offset);
            let data = fs.read(ino, offset, len).expect("acked range readable");
            lost += data.to_vec().iter().filter(|&&b| b != fill).count() as u64;
        }
        lost
    }

    /// The server's event trace (enable with [`ExperimentConfig::with_trace`]).
    pub fn trace(&self) -> &Trace {
        self.server().trace()
    }

    /// The client, for post-run inspection.
    pub fn client(&self) -> &FileWriterClient {
        self.harness.clients.writer(0)
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
    use crate::harness::Ev;
    use wg_client::ClientInput;

    /// Pin the driver event's footprint.  Every schedule moves one `Ev` by
    /// value into the event queue's slab and every pop moves it back out, so
    /// a grown variant taxes the whole event loop.  The copy rides the writer
    /// fleet's event, whose size is set by its largest payload (a client
    /// index plus a reply-bearing `ClientInput`); box a new large variant
    /// instead of raising this pin.
    #[test]
    fn driver_event_stays_within_its_pinned_footprint() {
        assert!(
            std::mem::size_of::<Ev<(usize, ClientInput)>>() <= 112,
            "Ev grew to {} bytes; box the large variant",
            std::mem::size_of::<Ev<(usize, ClientInput)>>()
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
