//! The multi-client scale-out system.
//!
//! The paper remarks (§6) that write gathering pays off even more with
//! "several clients", because independent write streams give the server more
//! company to gather per metadata flush — but its tables only measure one
//! client.  [`MultiClientSystem`] runs N [`FileWriterClient`]s against one
//! shared [`wg_net::Medium`] and one [`NfsServer`], each client copying its own byte
//! budget into its own files, and reports per-client plus aggregate
//! [`FileCopyResult`]s and a fairness readout ([`MultiClientResult`]).
//!
//! The `client` field of [`wg_server::ServerInput::Datagram`] — plumbed through the
//! server and duplicate request cache since the beginning but always 0 in the
//! single-client system — finally carries real client ids here, and replies
//! are routed back by the id the server echoes in
//! [`wg_server::ServerAction::Reply`].
//!
//! GB-scale budgets do not fit one UFS file (12 direct + 2048 indirect 8 KB
//! blocks ≈ 16 MB), so each client writes a chain of segment files of at most
//! [`MultiClientConfig::file_limit`] bytes, rolling to the next segment when
//! the previous one's `close(2)` returns — the shape of a real bulk copy of
//! many files.  Segments reuse the single-client state machine unchanged;
//! only the xid base moves per segment so the server's duplicate request
//! cache never confuses two generations of requests.
//!
//! Everything rides the zero-copy datapath: payloads are fill patterns salted
//! per client (see [`wg_client::ClientConfig::fill_salt`]), so a million-op
//! multi-client run allocates no payload bytes and
//! [`MultiClientSystem::verify_on_disk`] can attribute every landed block to
//! the client that wrote it.

use std::collections::VecDeque;

use wg_client::{ClientAction, ClientConfig, ClientInput, ClientStats, FileWriterClient};
use wg_nfsproto::{FileHandle, NfsReply, StableHow};
use wg_server::{NfsServer, StabilityMode, WritePolicy};
use wg_simcore::{Duration, FaultPlan, SimTime};

use crate::harness::{harness_readouts, server_config, ClientLans, Core, Harness, Population};
use crate::results::{FileCopyResult, MultiClientResult};
use crate::system::NetworkKind;

/// Configuration of one multi-client scale-out run.
#[derive(Clone, Debug)]
pub struct MultiClientConfig {
    /// Network medium shared by every client.
    pub network: NetworkKind,
    /// Number of concurrent clients.
    pub clients: usize,
    /// Biods per client.
    pub biods: usize,
    /// Server write policy.
    pub policy: WritePolicy,
    /// Prestoserve acceleration on the server.
    pub prestoserve: bool,
    /// Number of server disk spindles.
    pub spindles: usize,
    /// Number of server nfsds.  More clients need more nfsds: each file being
    /// gathered can hold one nfsd in its procrastination window.
    pub nfsds: usize,
    /// Bytes each client writes in total.
    pub bytes_per_client: u64,
    /// Largest single file a client writes before rolling to the next segment
    /// (must fit UFS's single-indirect limit of ≈16 MB).
    pub file_limit: u64,
    /// Number of server request-path shards (see
    /// [`wg_server::ServerConfig::shards`]).  `1` is the monolithic server.
    pub shards: usize,
    /// Number of server CPU cores (see [`wg_server::ServerConfig::cores`]).
    pub cores: usize,
    /// Give every client its own network segment (one LAN per client, all
    /// feeding the one server) instead of contending on a single shared
    /// medium — the paper's private-segment topology scaled out.
    pub per_client_lans: bool,
    /// Pipelined storage-stack execution on the server (see
    /// [`wg_server::ServerConfig::io_overlap`]).
    pub io_overlap: bool,
    /// Pages of the server's bounded unified buffer cache (`0`, the default,
    /// keeps the paper's unbounded delayed-write pool).
    pub cache_pages: u64,
    /// Dirty-page throttle fraction of the unified cache.
    pub dirty_ratio: f64,
    /// Write-stability regime: [`StabilityMode::Unstable`] makes every client
    /// issue `WRITE(UNSTABLE)` and `COMMIT` each segment at its close.
    pub stability: StabilityMode,
    /// Periodic COMMIT pacing (unstable mode): each client COMMITs once this
    /// many bytes sit uncommitted instead of only at segment close.  `0`
    /// (the default) keeps close-only commits.
    pub commit_interval: u64,
}

/// Minimum headroom a segment's xid window keeps beyond the writes the
/// segment actually issues (file creation, close-time attribute traffic and
/// a safety margin for future per-segment requests).
const XID_SEGMENT_SLACK: u32 = 64;

impl MultiClientConfig {
    /// A scale-out run with the paper's client parameters (10 MB per client,
    /// 8 MB segment files) and an nfsd pool sized to the client count.
    pub fn new(network: NetworkKind, clients: usize, biods: usize, policy: WritePolicy) -> Self {
        MultiClientConfig {
            network,
            clients: clients.max(1),
            biods,
            policy,
            prestoserve: false,
            spindles: 1,
            nfsds: 8.max(4 * clients),
            bytes_per_client: 10 * 1024 * 1024,
            file_limit: 8 * 1024 * 1024,
            shards: 1,
            cores: 1,
            per_client_lans: false,
            io_overlap: false,
            cache_pages: 0,
            dirty_ratio: 0.5,
            stability: StabilityMode::Stable,
            commit_interval: 0,
        }
    }

    /// Set the per-client byte budget.
    pub fn with_bytes_per_client(mut self, bytes: u64) -> Self {
        self.bytes_per_client = bytes;
        self
    }

    /// Set the per-segment file size cap.
    pub fn with_file_limit(mut self, bytes: u64) -> Self {
        self.file_limit = bytes;
        self
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

    /// Set the nfsd pool size.
    pub fn with_nfsds(mut self, n: usize) -> Self {
        self.nfsds = n;
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

    /// Give every client its own network segment.
    pub fn with_per_client_lans(mut self, on: bool) -> Self {
        self.per_client_lans = on;
        self
    }

    /// Enable pipelined storage-stack execution on the server.
    pub fn with_io_overlap(mut self, on: bool) -> Self {
        self.io_overlap = on;
        self
    }

    /// Arm the server's bounded unified buffer cache with `pages` pages.
    pub fn with_unified_cache(mut self, pages: u64) -> Self {
        self.cache_pages = pages;
        self
    }

    /// Set the dirty-page throttle fraction of the unified cache.
    pub fn with_dirty_ratio(mut self, ratio: f64) -> Self {
        self.dirty_ratio = ratio;
        self
    }

    /// Select the write-stability regime of the run.
    pub fn with_stability(mut self, mode: StabilityMode) -> Self {
        self.stability = mode;
        self
    }

    /// Pace COMMITs every `bytes` of uncommitted data (see
    /// [`MultiClientConfig::commit_interval`]; `0` keeps close-only).
    pub fn with_commit_interval(mut self, bytes: u64) -> Self {
        self.commit_interval = bytes;
        self
    }

    /// The fill-byte salt of a client, distinct per client id (odd multiplier
    /// so the mapping is a bijection modulo 256).
    pub fn fill_salt(client: usize) -> u8 {
        (client as u8).wrapping_mul(61).wrapping_add(17)
    }

    /// Segments each client's byte budget splits into.
    fn segments_per_client(&self) -> u64 {
        self.bytes_per_client
            .div_ceil(self.file_limit.max(1))
            .max(1)
    }

    /// The xid-space partition: the full 32-bit space is split evenly across
    /// the configured client count, and each client's window is split evenly
    /// across its segments.  (Duplicate detection is keyed by `(client,
    /// xid)`, so cross-client collisions would even be harmless — the even
    /// split simply keeps every request globally unique and debuggable.)
    /// Returns `(client_stride, segment_stride)`.
    fn xid_strides(&self) -> (u32, u32) {
        let client_stride = u32::MAX / self.clients.max(1) as u32;
        // Divide in u64: a segment count beyond u32 must collapse the stride
        // to 1 (and fail the constructor's window-width assert), not wrap
        // into another client's window.
        let segment_stride = (client_stride as u64 / self.segments_per_client()).max(1) as u32;
        (client_stride, segment_stride)
    }

    /// Xids a single segment can consume: one per 8 KB write, plus slack for
    /// the surrounding per-segment requests.
    fn xids_per_segment(&self) -> u64 {
        self.file_limit.max(1).div_ceil(8192) + XID_SEGMENT_SLACK as u64
    }

    fn xid_base(&self, client: usize, segment: usize) -> u32 {
        let (client_stride, segment_stride) = self.xid_strides();
        (client as u32).wrapping_mul(client_stride) + (segment as u32).wrapping_mul(segment_stride)
    }

    /// The (name, size) segment layout of one client's byte budget.
    fn layout(&self, client: usize) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        let mut remaining = self.bytes_per_client;
        let mut segment = 0usize;
        while remaining > 0 {
            let size = remaining.min(self.file_limit);
            out.push((format!("mc{client:03}_seg{segment:03}"), size));
            remaining -= size;
            segment += 1;
        }
        out
    }
}

/// The writer configuration every fleet client starts from: the paper's
/// client with `biods` write-behind daemons copying `file_size` bytes in
/// the cell's stability regime, optionally with overridden retry knobs.
pub(crate) fn writer_config(
    biods: usize,
    file_size: u64,
    stability: StabilityMode,
    retry: Option<(Duration, u32)>,
) -> ClientConfig {
    let (initial_timeout, max_retransmits) = retry.unwrap_or_else(|| {
        let paper = ClientConfig::default();
        (paper.initial_timeout, paper.max_retransmits)
    });
    ClientConfig {
        biods,
        file_size,
        stability: match stability {
            StabilityMode::Stable => StableHow::FileSync,
            StabilityMode::Unstable => StableHow::Unstable,
        },
        initial_timeout,
        max_retransmits,
        ..ClientConfig::default()
    }
}

/// Acked bytes, retransmissions, give-ups and paced COMMITs summed over
/// segment writers.
#[derive(Clone, Copy, Default)]
struct SegmentTotals {
    bytes_acked: u64,
    retransmissions: u64,
    gave_up: u64,
    paced_commits: u64,
}

impl SegmentTotals {
    fn plus(self, stats: &ClientStats) -> Self {
        SegmentTotals {
            bytes_acked: self.bytes_acked + stats.bytes_acked,
            retransmissions: self.retransmissions + stats.retransmissions,
            gave_up: self.gave_up + stats.gave_up,
            paced_commits: self.paced_commits + stats.paced_commits,
        }
    }
}

/// One client of a [`WriterFleet`]: the live writer plus the segment files
/// it has yet to write.
pub(crate) struct WriterSlot {
    writer: FileWriterClient,
    /// Segments not yet started, each with its writer's configuration:
    /// front = next.
    pending: VecDeque<(FileHandle, ClientConfig)>,
    /// Totals of the segments already finished; the live writer holds the
    /// rest.
    finished: SegmentTotals,
    completed_at: Option<SimTime>,
}

impl WriterSlot {
    /// A client that writes `chain` in order, one writer per segment.
    pub(crate) fn new(chain: Vec<(FileHandle, ClientConfig)>) -> Self {
        let mut chain = VecDeque::from(chain);
        let (handle, config) = chain.pop_front().expect("a chain has a first segment");
        WriterSlot {
            writer: FileWriterClient::new(config, handle),
            pending: chain,
            finished: SegmentTotals::default(),
            completed_at: None,
        }
    }

    /// Totals over every segment, the live writer's included.  An
    /// incomplete client (stalled mid-segment) still reports what it did
    /// transfer — that partial count is exactly what diagnosing a dead cell
    /// needs.
    fn totals(&self) -> SegmentTotals {
        self.finished.plus(&self.writer.stats())
    }
}

/// The file-writer population: every client writes its chain of segment
/// files with a [`FileWriterClient`], rolling to the next segment when the
/// previous one's `close(2)` returns.  The single-client copy is the
/// one-client, one-segment case.
pub(crate) struct WriterFleet {
    slots: Vec<WriterSlot>,
    /// Action buffer reused across every client event.
    actions: Vec<ClientAction>,
}

impl WriterFleet {
    pub(crate) fn new(slots: Vec<WriterSlot>) -> Self {
        WriterFleet {
            slots,
            actions: Vec::new(),
        }
    }

    /// The live writer of `client`.
    pub(crate) fn writer(&self, client: usize) -> &FileWriterClient {
        &self.slots[client].writer
    }

    /// The run's elapsed time (until the last client finished, or `now`)
    /// and one table-cell row per client.  A row's throughput, retries and
    /// completion are the client's own; the server-side quantities are
    /// shared, so they are taken over the whole run to keep the rows
    /// comparable.
    pub(crate) fn results(
        &self,
        biods: usize,
        server: &NfsServer,
        now: SimTime,
    ) -> (Duration, Vec<FileCopyResult>) {
        let last_completion = self
            .slots
            .iter()
            .filter_map(|s| s.completed_at)
            .max()
            .unwrap_or(now);
        let elapsed = last_completion
            .since(SimTime::ZERO)
            .max(Duration::from_nanos(1));
        let device = server.device_stats();
        let rows = self
            .slots
            .iter()
            .map(|slot| {
                let totals = slot.totals();
                let client_elapsed = slot
                    .completed_at
                    .unwrap_or(now)
                    .since(SimTime::ZERO)
                    .as_secs_f64()
                    .max(1e-9);
                FileCopyResult {
                    biods,
                    client_write_kb_per_sec: totals.bytes_acked as f64 / 1024.0 / client_elapsed,
                    server_cpu_percent: server.cpu_utilization_percent(elapsed),
                    disk_kb_per_sec: device.kb_per_sec(elapsed),
                    disk_trans_per_sec: device.transfers_per_sec(elapsed),
                    elapsed_secs: client_elapsed,
                    mean_batch_size: server.stats().mean_batch_size(),
                    retransmissions: totals.retransmissions,
                    gave_up: totals.gave_up,
                    completed: slot.completed_at.is_some() && totals.gave_up == 0,
                }
            })
            .collect();
        (elapsed, rows)
    }
}

impl Population for WriterFleet {
    type Event = (usize, ClientInput);

    fn start(&mut self, core: &mut Core<Self::Event>) {
        for client in 0..self.slots.len() {
            core.schedule(SimTime::ZERO, (client, ClientInput::Start));
        }
    }

    fn reply(client: u32, reply: NfsReply) -> Self::Event {
        (client as usize, ClientInput::Reply(reply))
    }

    fn handle(&mut self, now: SimTime, event: Self::Event, core: &mut Core<Self::Event>) {
        let (client, input) = event;
        let slot = &mut self.slots[client];
        slot.writer.handle_into(now, input, &mut self.actions);
        for action in self.actions.drain(..) {
            match action {
                ClientAction::Send { at, call } => core.send(at, client, call),
                ClientAction::Wakeup { at, token } => {
                    core.schedule(at, (client, ClientInput::Wakeup { token }))
                }
                ClientAction::Completed { at } => match slot.pending.pop_front() {
                    // Roll to the next segment file: a fresh writer with the
                    // next xid generation, started at this close's return.
                    Some((handle, config)) => {
                        slot.finished = slot.finished.plus(&slot.writer.stats());
                        slot.writer = FileWriterClient::new(config, handle);
                        core.schedule(at, (client, ClientInput::Start));
                    }
                    None => slot.completed_at = Some(at),
                },
            }
        }
    }
}

/// The assembled N-client system.
pub struct MultiClientSystem {
    config: MultiClientConfig,
    layouts: Vec<Vec<(String, u64)>>,
    harness: Harness<WriterFleet>,
}

impl MultiClientSystem {
    /// Upper bound on events per run, scaled with the aggregate byte budget
    /// (a 10 MB copy needs ~13 k events; this allows ~400× that per 10 MB).
    fn max_events(&self) -> u64 {
        let aggregate_mb =
            (self.config.clients as u64 * self.config.bytes_per_client) / (1024 * 1024);
        5_000_000 * aggregate_mb.max(1)
    }

    /// Build the system: the server exports one fresh filesystem holding
    /// every client's segment files, created outside the measured window.
    pub fn new(config: MultiClientConfig) -> Self {
        // The 32-bit xid space is partitioned clients × segments; the run is
        // only valid if each segment's window covers the requests it issues.
        let (_, segment_stride) = config.xid_strides();
        assert!(
            segment_stride as u64 >= config.xids_per_segment(),
            "xid space too small: {} clients x {} segments leaves a {}-xid \
             window per segment but one segment can use {}; raise file_limit \
             or lower the client count",
            config.clients,
            config.segments_per_client(),
            segment_stride,
            config.xids_per_segment()
        );
        let mut server_config = server_config(config.network, config.policy, config.nfsds)
            .with_presto(config.prestoserve)
            .with_spindles(config.spindles)
            .with_shards(config.shards)
            .with_cores(config.cores)
            .with_io_overlap(config.io_overlap)
            .with_unified_cache(config.cache_pages)
            .with_dirty_ratio(config.dirty_ratio)
            .with_stability(config.stability);
        // GB-scale aggregates must fit the data region; keep the default
        // geometry unless the sweep actually needs more.
        let aggregate = config.clients as u64 * config.bytes_per_client;
        server_config.data_capacity = server_config.data_capacity.max(aggregate + aggregate / 4);
        let mut server = NfsServer::new(server_config);

        let root = server.fs().root();
        let layouts: Vec<_> = (0..config.clients).map(|c| config.layout(c)).collect();
        let slots = layouts
            .iter()
            .enumerate()
            .map(|(client, layout)| {
                let mut chain: Vec<_> = layout
                    .iter()
                    .enumerate()
                    .map(|(segment, (name, size))| {
                        let ino = server
                            .fs_mut()
                            .create(root, name, 0o644, 0)
                            .expect("fresh namespace");
                        (
                            server.handle_for_ino(ino).expect("live inode"),
                            Self::client_config(&config, client, segment, *size),
                        )
                    })
                    .collect();
                if chain.is_empty() {
                    // A zero-byte budget still gets a writer so the slot
                    // completes immediately through the normal path.
                    chain.push((
                        server.root_handle(),
                        Self::client_config(&config, client, 0, 0),
                    ));
                }
                WriterSlot::new(chain)
            })
            .collect();
        let lans = ClientLans::new(
            &config.network.params(),
            config.clients,
            config.per_client_lans,
        );
        MultiClientSystem {
            harness: Harness::new(server, lans, WriterFleet::new(slots), FaultPlan::new()),
            layouts,
            config,
        }
    }

    fn client_config(
        config: &MultiClientConfig,
        client: usize,
        segment: usize,
        file_size: u64,
    ) -> ClientConfig {
        ClientConfig {
            xid_base: config.xid_base(client, segment),
            fill_salt: MultiClientConfig::fill_salt(client),
            commit_interval: config.commit_interval,
            ..writer_config(config.biods, file_size, config.stability, None)
        }
    }

    /// Run every client to completion and return the scale-out result.
    pub fn run(&mut self) -> MultiClientResult {
        self.harness.run(self.max_events());
        self.result()
    }

    fn result(&self) -> MultiClientResult {
        let fleet = &self.harness.clients;
        let (elapsed, clients) =
            fleet.results(self.config.biods, self.server(), self.harness.core.now());
        let total_gave_up: u64 = clients.iter().map(|c| c.gave_up).sum();
        let all_completed = clients.iter().all(|c| c.completed);
        // On a loss-free fan-in every client must finish; a lossy or faulted
        // run may legitimately end with counted give-ups instead.
        debug_assert!(
            all_completed || total_gave_up > 0,
            "a client never finished its byte budget"
        );
        let total_bytes_acked: u64 = fleet.slots.iter().map(|s| s.totals().bytes_acked).sum();
        let rates: Vec<f64> = clients.iter().map(|c| c.client_write_kb_per_sec).collect();
        MultiClientResult {
            aggregate_kb_per_sec: total_bytes_acked as f64 / 1024.0 / elapsed.as_secs_f64(),
            total_bytes_acked,
            elapsed_secs: elapsed.as_secs_f64(),
            fairness: MultiClientResult::jain_fairness(&rates),
            min_client_kb_per_sec: rates.iter().copied().fold(f64::INFINITY, f64::min),
            max_client_kb_per_sec: rates.iter().copied().fold(0.0, f64::max),
            completed: all_completed,
            clients,
        }
    }

    /// Check every client's data on the server: each segment file must exist
    /// at its full size and every block must carry that client's salted fill
    /// byte.  Catches cross-client bleed, lost writes and mis-routed replies.
    /// Assumes a loss-free run (every write acknowledged).
    pub fn verify_on_disk(&self) -> Result<(), String> {
        let mut fs = self.server().fs().clone();
        let root = fs.root();
        let block = fs.params().block_size;
        for (client, layout) in self.layouts.iter().enumerate() {
            let salt = MultiClientConfig::fill_salt(client);
            for (name, size) in layout {
                let ino = fs
                    .lookup(root, name)
                    .map_err(|e| format!("client {client}: {name} missing: {e}"))?;
                let attrs = fs
                    .getattr(ino)
                    .map_err(|e| format!("client {client}: {name} getattr: {e}"))?;
                if attrs.size != *size {
                    return Err(format!(
                        "client {client}: {name} is {} bytes, expected {size}",
                        attrs.size
                    ));
                }
                for lbn in 0..size.div_ceil(block) {
                    let offset = lbn * block;
                    let want = (lbn as u8).wrapping_add(salt);
                    let got = fs
                        .read(ino, offset, block)
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

    harness_readouts!();

    /// Interval-paced COMMITs sent across all clients (zero unless
    /// [`MultiClientConfig::commit_interval`] is armed).
    pub fn paced_commits(&self) -> u64 {
        self.harness
            .clients
            .slots
            .iter()
            .map(|s| s.totals().paced_commits)
            .sum()
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &MultiClientConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Ev;

    /// Pin the driver event's footprint.  Every schedule moves one `Ev` by
    /// value into the event queue's slab and every pop moves it back out, so
    /// a grown variant taxes the whole event loop.  The size is set by the
    /// largest payload (a client index plus a reply-bearing `ClientInput`);
    /// box a new large variant instead of raising this pin.
    #[test]
    fn driver_event_stays_within_its_pinned_footprint() {
        assert!(
            std::mem::size_of::<Ev<(usize, ClientInput)>>() <= 112,
            "Ev grew to {} bytes; box the large variant",
            std::mem::size_of::<Ev<(usize, ClientInput)>>()
        );
    }

    const MB: u64 = 1024 * 1024;

    #[test]
    fn layout_splits_budgets_at_the_file_limit() {
        let cfg = MultiClientConfig::new(NetworkKind::Fddi, 2, 4, WritePolicy::Gathering)
            .with_bytes_per_client(20 * MB)
            .with_file_limit(8 * MB);
        let layout = cfg.layout(1);
        assert_eq!(layout.len(), 3);
        assert_eq!(layout[0].1, 8 * MB);
        assert_eq!(layout[2].1, 4 * MB);
        assert!(layout[0].0.starts_with("mc001_"));
        // Distinct clients get distinct salts and xid spaces.
        assert_ne!(
            MultiClientConfig::fill_salt(0),
            MultiClientConfig::fill_salt(1)
        );
        let last_segment = cfg.segments_per_client() as usize - 1;
        assert!(cfg.xid_base(1, 0) > cfg.xid_base(0, last_segment));
    }

    #[test]
    fn xid_partitioning_scales_past_128_clients() {
        // 256 clients split the 32-bit xid space without overlap: every
        // segment window is disjoint and wide enough for its writes.
        let cfg = MultiClientConfig::new(NetworkKind::Fddi, 256, 2, WritePolicy::Gathering)
            .with_bytes_per_client(256 * 1024)
            .with_file_limit(128 * 1024);
        let (client_stride, segment_stride) = cfg.xid_strides();
        assert!(segment_stride as u64 >= cfg.xids_per_segment());
        assert!(client_stride as u64 * 256 <= u32::MAX as u64 + 1);
        let mut bases: Vec<u32> = (0..256)
            .flat_map(|c| (0..cfg.segments_per_client() as usize).map(move |s| (c, s)))
            .map(|(c, s)| cfg.xid_base(c, s))
            .collect();
        let total = bases.len();
        bases.sort_unstable();
        bases.dedup();
        assert_eq!(bases.len(), total, "xid bases collide");
        // Consecutive windows never overlap the xids a segment can use.
        assert!(bases
            .windows(2)
            .all(|w| (w[1] - w[0]) as u64 >= cfg.xids_per_segment()));
    }

    #[test]
    #[should_panic(expected = "xid space too small")]
    fn oversized_segment_count_is_rejected_not_wrapped() {
        // ~4.9 billion 8 KB segments: more segments than u32 can index.  The
        // stride math must collapse to a too-narrow window and trip the
        // constructor assert, never truncate and wrap xid windows silently.
        let cfg = MultiClientConfig::new(NetworkKind::Fddi, 2, 4, WritePolicy::Gathering)
            .with_bytes_per_client(40_000_000_000_000)
            .with_file_limit(8192);
        let _ = MultiClientSystem::new(cfg);
    }

    #[test]
    fn two_hundred_fifty_six_clients_run_to_completion() {
        // ROADMAP "client-count scaling past 128": a 256-client run finishes
        // and every client's data survives the fan-in.
        let mut system = MultiClientSystem::new(
            MultiClientConfig::new(NetworkKind::Fddi, 256, 1, WritePolicy::Gathering)
                .with_bytes_per_client(32 * 1024)
                .with_shards(4)
                .with_cores(4)
                .with_io_overlap(true)
                .with_spindles(3),
        );
        let result = system.run();
        assert!(result.completed);
        assert_eq!(result.clients.len(), 256);
        assert_eq!(result.total_bytes_acked, 256 * 32 * 1024);
        system.verify_on_disk().expect("per-client data intact");
        assert_eq!(system.server().dupcache_evicted_in_progress(), 0);
        assert_eq!(system.server().uncommitted_bytes(), 0);
    }

    #[test]
    fn overlapped_multi_client_run_is_not_slower_and_stays_intact() {
        let run = |overlap: bool| {
            let mut system = MultiClientSystem::new(
                MultiClientConfig::new(NetworkKind::Fddi, 4, 4, WritePolicy::Gathering)
                    .with_bytes_per_client(2 * MB)
                    .with_shards(4)
                    .with_spindles(3)
                    .with_io_overlap(overlap),
            );
            let result = system.run();
            assert!(result.completed);
            system.verify_on_disk().expect("per-client data intact");
            assert_eq!(system.server().dupcache_evicted_in_progress(), 0);
            result
        };
        let serial = run(false);
        let overlapped = run(true);
        // Same acknowledged work either way; the pipelined stack never loses
        // throughput on the striped device.
        assert_eq!(serial.total_bytes_acked, overlapped.total_bytes_acked);
        assert!(
            overlapped.aggregate_kb_per_sec >= serial.aggregate_kb_per_sec * 0.999,
            "overlap {:.0} KB/s vs serial {:.0} KB/s",
            overlapped.aggregate_kb_per_sec,
            serial.aggregate_kb_per_sec
        );
    }

    #[test]
    fn two_clients_complete_and_verify() {
        let mut system = MultiClientSystem::new(
            MultiClientConfig::new(NetworkKind::Fddi, 2, 4, WritePolicy::Gathering)
                .with_bytes_per_client(MB)
                .with_file_limit(512 * 1024),
        );
        let result = system.run();
        assert!(result.completed);
        assert_eq!(result.total_bytes_acked, 2 * MB);
        assert_eq!(result.clients.len(), 2);
        assert!(result.fairness > 0.8, "fairness {}", result.fairness);
        assert!(result.aggregate_kb_per_sec > 0.0);
        system.verify_on_disk().expect("per-client data intact");
        assert_eq!(system.server().uncommitted_bytes(), 0);
    }

    #[test]
    fn unstable_clients_commit_every_segment_and_verify_on_disk() {
        let mut system = MultiClientSystem::new(
            MultiClientConfig::new(NetworkKind::Fddi, 3, 4, WritePolicy::Gathering)
                .with_bytes_per_client(MB)
                .with_file_limit(512 * 1024)
                .with_unified_cache(4096)
                .with_stability(StabilityMode::Unstable),
        );
        let result = system.run();
        assert!(result.completed);
        assert_eq!(result.total_bytes_acked, 3 * MB);
        let stats = system.server().stats();
        assert!(stats.unstable_writes > 0);
        // Each client COMMITs every one of its two segments at close.
        assert!(stats.commits >= 6, "commits {}", stats.commits);
        assert_eq!(stats.forced_file_sync, 0);
        assert_eq!(system.server().uncommitted_bytes(), 0);
        system.verify_on_disk().expect("per-client data intact");
    }

    #[test]
    fn sharded_server_with_per_client_lans_completes_and_verifies() {
        let mut system = MultiClientSystem::new(
            MultiClientConfig::new(NetworkKind::Fddi, 3, 4, WritePolicy::Gathering)
                .with_bytes_per_client(MB)
                .with_file_limit(512 * 1024)
                .with_shards(3)
                .with_cores(2)
                .with_per_client_lans(true),
        );
        assert_eq!(system.server().shard_count(), 3);
        let result = system.run();
        assert!(result.completed);
        assert_eq!(result.total_bytes_acked, 3 * MB);
        system.verify_on_disk().expect("per-client data intact");
        assert_eq!(system.server().uncommitted_bytes(), 0);
        assert_eq!(system.server().dupcache_evicted_in_progress(), 0);
        // Independent segments: no client retransmits, fairness stays high.
        assert!(result.clients.iter().all(|c| c.retransmissions == 0));
        assert!(result.fairness > 0.9, "fairness {}", result.fairness);
    }

    #[test]
    fn per_client_lans_do_not_slow_the_aggregate() {
        let run = |lans: bool, shards: usize, cores: usize| {
            MultiClientSystem::new(
                MultiClientConfig::new(NetworkKind::Fddi, 4, 4, WritePolicy::Gathering)
                    .with_bytes_per_client(MB)
                    .with_shards(shards)
                    .with_cores(cores)
                    .with_per_client_lans(lans),
            )
            .run()
        };
        let shared = run(false, 1, 1);
        let sharded = run(true, 4, 4);
        assert!(shared.completed && sharded.completed);
        // Removing wire contention and CPU serialisation must not lose
        // throughput (the shared disk remains the floor).
        assert!(
            sharded.aggregate_kb_per_sec > shared.aggregate_kb_per_sec * 0.95,
            "sharded {:.0} KB/s vs shared {:.0} KB/s",
            sharded.aggregate_kb_per_sec,
            shared.aggregate_kb_per_sec
        );
    }

    #[test]
    fn single_client_cell_matches_the_single_client_system_shape() {
        let mut system = MultiClientSystem::new(
            MultiClientConfig::new(NetworkKind::Fddi, 1, 15, WritePolicy::Gathering)
                .with_bytes_per_client(MB),
        );
        let result = system.run();
        assert!(result.completed);
        assert_eq!(result.clients.len(), 1);
        let lone = &result.clients[0];
        assert!(lone.completed);
        assert_eq!(lone.retransmissions, 0);
        assert!((result.fairness - 1.0).abs() < 1e-12);
        assert!(
            (result.aggregate_kb_per_sec - lone.client_write_kb_per_sec).abs()
                < lone.client_write_kb_per_sec * 1e-6
        );
    }
}
