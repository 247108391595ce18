//! The file-copy system behind Tables 1–6, Figure 1 and the paper's
//! "several clients" remark: a writer fleet of one or more clients, each
//! copying its byte budget into its own files (see the private `multi`
//! module for the fleet itself).

use wg_client::FileWriterClient;
use wg_net::MediumParams;
use wg_server::{NfsServer, ServerConfig, StabilityMode, WritePolicy};
use wg_simcore::{Duration, FaultPlan, Trace};

use crate::harness::{harness_readouts, server_config, ClientLans, Harness, Ledger};
use crate::multi::{fill_salt, FileName, WriterFleet};
use crate::results::{FileCopyResult, MultiClientResult};

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

/// Configuration of one file-copy experiment cell: the paper's copy, or a
/// fleet of clients each copying its own byte budget.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Network medium (shared by every client unless
    /// [`ExperimentConfig::per_client_lans`] is set).
    pub network: NetworkKind,
    /// Number of concurrent clients (1 in the paper's tables).
    pub clients: usize,
    /// Client biod count (the column of the tables), per client.
    pub biods: usize,
    /// Server write policy (Standard vs Gathering is the with/without split of
    /// every table).
    pub policy: WritePolicy,
    /// Prestoserve acceleration on the server.
    pub prestoserve: bool,
    /// Number of server disk spindles (1 or 3).
    pub spindles: usize,
    /// Bytes each client writes (10 MB in the paper).
    pub file_size: u64,
    /// Largest single file a client writes before rolling to the next
    /// segment file (must fit UFS's single-indirect limit of ≈16 MB).
    /// `u64::MAX`, the copy's default, writes the whole budget to one file.
    pub file_limit: u64,
    /// Number of server nfsds: 8 in the paper's file-copy experiments, and
    /// `max(8, 4 × clients)` in a fleet, since each file being gathered can
    /// hold one nfsd in its procrastination window.
    pub nfsds: usize,
    /// Server request-path shards (1 = the paper's monolithic dispatch).
    pub shards: usize,
    /// Server CPU cores (1 = the paper's serial CPU).
    pub cores: usize,
    /// Pipelined storage-stack execution (see
    /// [`wg_server::ServerConfig::io_overlap`]).  `false` is the paper's
    /// serial driver.
    pub io_overlap: bool,
    /// Give every client its own network segment (one LAN per client, all
    /// feeding the one server) instead of contending on a single shared
    /// medium — the paper's private-segment topology scaled out.
    pub per_client_lans: bool,
    /// Record a Figure-1 style event trace on the server.
    pub trace: bool,
    /// Fault-injection schedule.  Empty (the default) means the fault layer
    /// is completely inert: no events are scheduled and the run is
    /// bit-identical to one built before the layer existed.
    pub fault_plan: FaultPlan,
    /// Override of the clients' `(initial_timeout, max_retransmits)` retry
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
    /// the clients and `COMMIT` at each file's close.
    pub stability: StabilityMode,
    /// Periodic COMMIT pacing (unstable mode): each client COMMITs once this
    /// many bytes sit uncommitted instead of only at close.  `0` (the
    /// default) keeps close-only commits.
    pub commit_interval: u64,
}

impl ExperimentConfig {
    /// The paper's default 10 MB copy cell: one client writing one file.
    pub fn new(network: NetworkKind, biods: usize, policy: WritePolicy) -> Self {
        ExperimentConfig {
            file_limit: u64::MAX,
            ..Self::fleet(network, 1, biods, policy)
        }
    }

    /// A fleet of `clients` clients (at least one), each copying the paper's
    /// 10 MB in 8 MB segment files, served by `max(8, 4 × clients)` nfsds.
    pub fn fleet(network: NetworkKind, clients: usize, biods: usize, policy: WritePolicy) -> Self {
        let clients = clients.max(1);
        ExperimentConfig {
            network,
            clients,
            biods,
            policy,
            prestoserve: false,
            spindles: 1,
            file_size: 10 * 1024 * 1024,
            file_limit: 8 * 1024 * 1024,
            nfsds: 8.max(4 * clients),
            shards: 1,
            cores: 1,
            io_overlap: false,
            per_client_lans: false,
            trace: false,
            fault_plan: FaultPlan::new(),
            client_retry: None,
            sim_threads: 0,
            cache_pages: 0,
            dirty_ratio: 0.5,
            stability: StabilityMode::Stable,
            commit_interval: 0,
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

    /// Set the bytes each client writes (smaller keeps unit tests fast).
    pub fn with_file_size(mut self, bytes: u64) -> Self {
        self.file_size = bytes;
        self
    }

    /// Set the per-segment file size cap.
    pub fn with_file_limit(mut self, bytes: u64) -> Self {
        self.file_limit = bytes;
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

    /// Give every client its own network segment.
    pub fn with_per_client_lans(mut self, on: bool) -> Self {
        self.per_client_lans = on;
        self
    }

    /// Attach a fault-injection schedule to the run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Override the clients' retry knobs (initial retransmit timeout and the
    /// attempt cap after which they give up).
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

    /// Pace COMMITs every `bytes` of uncommitted data (see
    /// [`ExperimentConfig::commit_interval`]; `0` keeps close-only).
    pub fn with_commit_interval(mut self, bytes: u64) -> Self {
        self.commit_interval = bytes;
        self
    }
}

/// The assembled file-copy system: every client of the cell, its LAN
/// segment(s) and one server exporting the clients' files.
pub struct FileCopySystem {
    config: ExperimentConfig,
    harness: Harness<WriterFleet>,
}

impl FileCopySystem {
    /// Build the system: the server exports a fresh filesystem holding every
    /// client's files, created outside the measured window (the paper
    /// measures the data transfer of an established copy).
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
        // Checked before the server exists: an oversized segment count must
        // fail here, not size a data region for its budget.
        config.check_xid_capacity();
        let mut server_config = server_config(config.network, config.policy, config.nfsds)
            .with_presto(config.prestoserve)
            .with_spindles(config.spindles)
            .with_shards(config.shards)
            .with_cores(config.cores)
            .with_io_overlap(config.io_overlap)
            .with_unified_cache(config.cache_pages)
            .with_dirty_ratio(config.dirty_ratio);
        // GB-scale aggregates must fit the data region; keep the default
        // geometry unless the cell actually needs more.
        let aggregate = config.clients as u64 * config.file_size;
        server_config.data_capacity = server_config.data_capacity.max(aggregate + aggregate / 4);
        customize(&mut server_config);
        let mut server = NfsServer::new(server_config);
        if config.trace {
            server.enable_trace();
        }
        let fleet = WriterFleet::new(&config, &mut server);
        let lans = ClientLans::new(
            &config.network.params(),
            config.clients,
            config.per_client_lans,
        );
        FileCopySystem {
            harness: Harness::new(server, lans, fleet, config.fault_plan.clone()),
            config,
        }
    }

    harness_readouts!();

    /// The name of segment file `segment` of `client` on the server.
    pub fn file_name(client: usize, segment: u64) -> String {
        FileName::new(client, segment).as_str().to_owned()
    }

    /// Upper bound on events one run may process before it is declared
    /// runaway, scaled with the aggregate byte budget.  A 10 MB copy needs
    /// ~13 k events, and every cell gets at least 50 M: four orders of
    /// magnitude of headroom.  Hitting it means the system is re-scheduling
    /// work without making progress (e.g. a retransmission storm that never
    /// converges), not that the experiment is merely large.
    fn max_events(&self) -> u64 {
        let aggregate_mb = self.config.clients as u64 * self.config.file_size / (1024 * 1024);
        5_000_000 * aggregate_mb.max(10)
    }

    /// Run every client to completion and return the whole cell as one
    /// table-cell result: every client's acknowledged bytes over the span
    /// until the last one finished (for the paper's one-client copy, that
    /// client's own row).
    ///
    /// The loop drains the queue fully: after the clients complete, the only
    /// remaining events are bounded housekeeping wake-ups (nfsd-free timers,
    /// gather continuations), and letting them run keeps the server's final
    /// statistics consistent.
    ///
    /// The run ends in the harness audit, which panics if a safety oracle
    /// broke or if, with no fault injected, a client is left unfinished: a
    /// drained event queue with a client still writing means the simulation
    /// lost work (a dropped wake-up, an orphaned write).  Under an injected
    /// fault an incomplete cell is a legitimate outcome, counted in the
    /// result's `completed` and `gave_up`.
    pub fn run(&mut self) -> FileCopyResult {
        self.harness.run(self.max_events());
        let (cell, clients) = self.results();
        let ledger = Ledger {
            unfinished_clients: clients.iter().filter(|c| !c.completed).count() as u64,
            ..Ledger::default()
        };
        let faults_armed = !self.config.fault_plan.is_empty();
        self.harness.audit(&self.config, faults_armed, ledger);
        cell
    }

    /// The whole-cell result and one row per client.
    fn results(&self) -> (FileCopyResult, Vec<FileCopyResult>) {
        self.harness
            .clients
            .results(self.config.biods, self.server(), self.harness.core.now())
    }

    /// The per-client, aggregate and fairness view of the run.
    pub fn fleet_result(&self) -> MultiClientResult {
        let (cell, clients) = self.results();
        let rates: Vec<f64> = clients.iter().map(|c| c.client_write_kb_per_sec).collect();
        MultiClientResult {
            aggregate_kb_per_sec: cell.client_write_kb_per_sec,
            total_bytes_acked: self.harness.clients.totals().bytes_acked,
            elapsed_secs: cell.elapsed_secs,
            fairness: MultiClientResult::jain_fairness(&rates),
            min_client_kb_per_sec: rates.iter().copied().fold(f64::INFINITY, f64::min),
            max_client_kb_per_sec: rates.iter().copied().fold(0.0, f64::max),
            completed: cell.completed,
            clients,
        }
    }

    /// Recovery oracle: re-read every byte range a client saw acknowledged,
    /// in its closed segment files and in the one it is writing (its whole
    /// file, for the paper's copy), and count the bytes whose content no
    /// longer matches the fill pattern that was written.  Zero for every
    /// policy that honours the NFS stable-storage rule, no matter what the
    /// fault plan did; positive only when an acknowledged write was lost
    /// (the [`wg_server::WritePolicy::DangerousAsync`] failure mode).
    pub fn lost_acked_bytes_on_disk(&self) -> u64 {
        let mut fs = self.server().fs().clone();
        let root = fs.root();
        let mut lost = 0u64;
        for (client, slot) in self.harness.clients.slots.iter().enumerate() {
            let closed = slot.closed_acked.iter().map(Vec::as_slice);
            let segments = closed.chain([slot.writer.acked_writes()]);
            for (segment, acked) in segments.enumerate() {
                let name = FileName::new(client, segment as u64);
                let ino = fs.lookup(root, name.as_str()).expect("target file exists");
                for &(offset, len) in acked {
                    // Every segment of a client carries the client's salt.
                    let fill = slot.writer.fill_byte_for(offset);
                    let data = fs.read(ino, offset, len).expect("acked range readable");
                    lost += data.to_vec().iter().filter(|&&b| b != fill).count() as u64;
                }
            }
        }
        lost
    }

    /// Check every client's data on the server: each segment file must exist
    /// at its full size and every block must carry that client's salted fill
    /// byte.  Catches cross-client bleed, lost writes and mis-routed replies.
    /// Assumes a loss-free run (every write acknowledged).
    pub fn verify_on_disk(&self) -> Result<(), String> {
        let mut fs = self.server().fs().clone();
        let root = fs.root();
        let block = fs.params().block_size;
        for client in 0..self.config.clients {
            let salt = fill_salt(client);
            for segment in 0..self.config.segments_per_client() {
                let name = Self::file_name(client, segment);
                let size = self.config.segment_size(segment);
                let ino = fs
                    .lookup(root, &name)
                    .map_err(|e| format!("client {client}: {name} missing: {e}"))?;
                let attrs = fs
                    .getattr(ino)
                    .map_err(|e| format!("client {client}: {name} getattr: {e}"))?;
                if attrs.size != size {
                    return Err(format!(
                        "client {client}: {name} is {} bytes, expected {size}",
                        attrs.size
                    ));
                }
                for lbn in 0..size.div_ceil(block) {
                    let want = (lbn as u8).wrapping_add(salt);
                    let got = fs
                        .read(ino, lbn * block, block)
                        .map_err(|e| format!("client {client}: {name} read: {e}"))?;
                    if got.data.iter_bytes().any(|b| b != want) {
                        return Err(format!(
                            "client {client}: {name} block {lbn} does not carry \
                             fill byte {want:#04x} (cross-client bleed or lost write)"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Interval-paced COMMITs sent across all clients (zero unless
    /// [`ExperimentConfig::commit_interval`] is armed).
    pub fn paced_commits(&self) -> u64 {
        self.harness.clients.totals().paced_commits
    }

    /// The server's event trace (enable with [`ExperimentConfig::with_trace`]).
    pub fn trace(&self) -> &Trace {
        self.server().trace()
    }

    /// The first client's live writer, for post-run inspection (the paper's
    /// copy has only this one).
    pub fn client(&self) -> &FileWriterClient {
        &self.harness.clients.slots[0].writer
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
        let ino = fs.lookup(root, &FileCopySystem::file_name(0, 0)).unwrap();
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
        system.run();
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
        let ino = fs.lookup(root, &FileCopySystem::file_name(0, 0)).unwrap();
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
        let ino = fs.lookup(root, &FileCopySystem::file_name(0, 0)).unwrap();
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
