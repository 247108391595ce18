//! Server configuration: write policy, storage, nfsd pool and CPU cost table.

use wg_nfsproto::StableHow;
use wg_simcore::Duration;

/// Which write-commit strategy the server uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum WritePolicy {
    /// Fully synchronous per-write commit (the reference-port baseline the
    /// paper's "Without Write Gathering" rows measure).
    Standard,
    /// The paper's write-gathering algorithm (§6.8).
    Gathering,
    /// The \[SIVA93\] variant: use the first write's own data transfer as the
    /// latency window instead of procrastinating.
    FirstWriteLatency,
    /// "Dangerous mode": reply once the data is in volatile memory.  Violates
    /// the NFS crash-recovery contract; present for the ablation and the
    /// crash-consistency demonstration only.
    DangerousAsync,
}

/// Which stability semantics the write path offers clients.
///
/// [`StabilityMode::Stable`] is the NFS v2 contract the paper measures: every
/// WRITE is on stable storage before its reply.  [`StabilityMode::Unstable`]
/// is the NFSv3-style path the industry replaced it with: clients mark writes
/// `UNSTABLE`, the server acknowledges them from the unified buffer cache
/// with a boot verifier, and a later COMMIT makes a range stable.  The mode
/// is primarily a client/workload knob (the server always honours whatever
/// `stable_how` a request carries), recorded here so one configuration value
/// describes a whole experiment cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum StabilityMode {
    /// Fully stable per-write commit (NFS v2; the default).
    Stable,
    /// `WRITE(UNSTABLE)` + `COMMIT` against the unified buffer cache.
    Unstable,
}

impl StabilityMode {
    /// The `stable_how` a client of this regime puts on every WRITE.
    pub fn stable_how(self) -> StableHow {
        match self {
            StabilityMode::Stable => StableHow::FileSync,
            StabilityMode::Unstable => StableHow::Unstable,
        }
    }
}

/// The order in which a gathering server releases a batch of pending replies.
///
/// §6.7: LIFO was tried first ("wake up the blocked client process sooner")
/// and produced dismal results; FIFO optimises the single sequential writer
/// and matches what standard servers do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ReplyOrder {
    /// First-in first-out (the paper's final choice and the default).
    Fifo,
    /// Last-in first-out (kept for the ablation that reproduces §6.7's
    /// observation).
    Lifo,
}

/// Which storage stack backs the exported filesystem.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StorageConfig {
    /// Number of RZ26 spindles (1 = single disk, 3 = the paper's stripe set).
    pub spindles: usize,
    /// Whether a Prestoserve NVRAM board accelerates the filesystem.
    pub prestoserve: bool,
}

impl StorageConfig {
    /// A single RZ26 disk.
    pub fn single_rz26() -> Self {
        StorageConfig {
            spindles: 1,
            prestoserve: false,
        }
    }
}

/// Per-operation CPU costs, in time on the reference (DEC 3400/3800-class)
/// processor.
///
/// These are the knobs that make the CPU-utilisation rows of the tables come
/// out: every RPC costs a dispatch, every link-layer fragment costs
/// reassembly work, every trip into UFS and every trip through the disk
/// driver costs cycles, every disk completion costs an interrupt, and copying
/// into NVRAM costs roughly a byte-copy loop.  Values are calibrated against
/// the paper's observed utilisations (e.g. ≈11 % CPU at ≈200 KB/s of
/// non-accelerated writes, ≈40 % at ≈1.1 MB/s through Prestoserve on
/// Ethernet).
#[derive(Clone, Debug, serde::Serialize)]
pub struct CostParams {
    /// Cost of receiving + dispatching one RPC (svc_run, XDR decode of the
    /// header, rfs_dispatch).
    pub rpc_dispatch: Duration,
    /// Cost of reassembling one link-layer fragment (charged per fragment of
    /// each arriving datagram).
    pub packet_reassembly: Duration,
    /// Cost of building and transmitting one reply.
    pub reply_send: Duration,
    /// Cost of one VOP_* call into the filesystem (argument translation,
    /// buffer-cache lookups), excluding data copies.
    pub ufs_trip: Duration,
    /// Copy cost per byte moved between the network buffers and the buffer
    /// cache (or NVRAM): the `uiomove` of the write path.
    pub copy_per_byte: Duration,
    /// Cost of setting up one disk transfer in the driver.
    pub driver_trip: Duration,
    /// Cost of fielding one disk-completion interrupt.
    pub interrupt: Duration,
    /// Extra per-request cost of the Prestoserve driver (queueing into NVRAM,
    /// scatter/gather setup).
    pub presto_trip: Duration,
    /// Cost of the gathering bookkeeping itself: the nfsd state scan, active
    /// write queue manipulation and transport-handle swap ("spending some CPU
    /// cycles trying to be clever", §9).
    pub gather_bookkeeping: Duration,
    /// Cost of one pass of the mbuf hunter over the socket buffer.
    pub mbuf_hunt: Duration,
    /// Cost of serving one non-write, non-read NFS operation (lookup, getattr,
    /// readdir entry assembly etc.) beyond the dispatch cost.
    pub lightweight_op: Duration,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            rpc_dispatch: Duration::from_micros(180),
            packet_reassembly: Duration::from_micros(60),
            reply_send: Duration::from_micros(120),
            ufs_trip: Duration::from_micros(90),
            copy_per_byte: Duration::from_nanos(20),
            driver_trip: Duration::from_micros(110),
            interrupt: Duration::from_micros(70),
            presto_trip: Duration::from_micros(80),
            gather_bookkeeping: Duration::from_micros(40),
            mbuf_hunt: Duration::from_micros(30),
            lightweight_op: Duration::from_micros(100),
        }
    }
}

/// Complete server configuration.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ServerConfig {
    /// Number of nfsd service threads (the paper's experiments use 8; the SFS
    /// configuration of Figures 2–3 uses 32).
    pub nfsds: usize,
    /// The write-commit policy.
    pub policy: WritePolicy,
    /// Reply release order for gathered batches.
    pub reply_order: ReplyOrder,
    /// Storage stack.
    pub storage: StorageConfig,
    /// Procrastination interval (normally taken from the network medium: 8 ms
    /// Ethernet, 5 ms FDDI).
    pub procrastination: Duration,
    /// Whether the "mbuf hunter" socket-buffer scan is enabled (§6.5).
    pub mbuf_hunter: bool,
    /// Socket buffer capacity in bytes (OSF/1 default: 256 KB).  This is the
    /// machine's whole receive-buffer pool: a sharded server partitions it
    /// evenly across its shards' incoming queues (with a 9 KB per-shard
    /// floor so every shard can always hold one full write datagram).
    pub socket_buffer_bytes: usize,
    /// CPU cost table.
    pub costs: CostParams,
    /// CPU speed relative to the cost-table reference machine (the DEC 3800 of
    /// Figures 2–3 is roughly 1.6× a DEC 3400).
    pub cpu_speed: f64,
    /// Duplicate request cache capacity (entries).
    pub dupcache_entries: usize,
    /// Usable capacity of the exported filesystem's data region, in bytes.
    /// Defaults to the single-RZ26 geometry; multi-client GB-scale sweeps
    /// raise it so aggregate working sets beyond one spindle's worth fit
    /// (addresses past the physical capacity simply pay full-stroke seeks).
    pub data_capacity: u64,
    /// Number of FFS-style inode groups the exported filesystem spreads its
    /// inodes over (see [`wg_ufs::FsParams::inode_groups`]).  `1` (the
    /// default) is the flat layout the paper's tables imply — every inode
    /// block of a small working set shares one stripe unit, so one member of
    /// a stripe set absorbs all metadata writes.  Scaled-out configurations
    /// raise it so metadata I/O spreads across the whole disk farm.
    pub inode_groups: usize,
    /// Whether disk blocks fetched by reads stay resident in the buffer
    /// cache (see [`wg_ufs::FsParams::read_caching`]).  Off by default: the
    /// paper's figures measure a cold cache.
    pub read_caching: bool,
    /// Number of request-path shards.  Each shard owns its own incoming
    /// socket queue, nfsd sub-pool and duplicate-request-cache partition;
    /// requests are routed by `inode % shards`, so per-file state (vnode
    /// locks, gather batches) never crosses a shard boundary.  `1` (the
    /// default) reproduces the paper's monolithic dispatch exactly.
    pub shards: usize,
    /// Number of CPU cores.  `1` (the default) is bit-identical to the
    /// paper's serial CPU; more cores let independent shards' processing
    /// steps overlap while utilisation is reported as an aggregate over the
    /// whole pool.
    pub cores: usize,
    /// Pipelined storage-stack execution.  With the knob off (the default)
    /// an I/O plan runs exactly as the paper's driver did: each transfer's
    /// driver setup, device service and completion interrupt chain on the
    /// previous transfer's completion.  With it on, the CPU pays the driver
    /// (and Presto) trips back-to-back to *enqueue* every transfer of the
    /// plan onto its spindle's own queue, then reaps completions (one
    /// interrupt per transfer, coalesced back-to-back when several land
    /// close together) as they arrive — so transfers of one plan, and plans
    /// of different shards, overlap on independent spindles of a stripe set.
    /// `false` is bit-identical to the pre-pipeline server.
    pub io_overlap: bool,
    /// Capacity of the bounded unified buffer cache in 8 KB pages (see
    /// [`wg_ufs::FsParams::cache_pages`]).  `0` (the default) disarms it:
    /// the paper's server has an effectively unbounded cache and no
    /// write-behind, which is exactly what the golden tables pin.  An armed
    /// cache is required for `WRITE(UNSTABLE)` to be honoured — without it
    /// there is no write-behind machinery to make unstable data stable later.
    pub cache_pages: u64,
    /// Fraction of the unified cache that may be dirty before writers are
    /// throttled (see [`wg_ufs::FsParams::dirty_ratio`]).
    pub dirty_ratio: f64,
    /// Inert: the server honours the `stable_how` of each arriving WRITE,
    /// and nothing outside this module's tests reads the field (the bench
    /// cells take their stability label from the driver configs).  It stays
    /// only because the benchmark package's traced copy replay sets it
    /// through [`ServerConfig::with_stability`]; remove the two together.
    pub stability: StabilityMode,
    /// Interval between background write-behind passes over the unified
    /// cache's dirty pages.  Each pass drains one batch through the storage
    /// stack (NVRAM first when Presto is configured) and reschedules itself
    /// while dirty pages remain.
    pub writeback_interval: Duration,
    /// Arm the client-state layer (leases, byte-range locks, grace-period
    /// recovery; see [`crate::ClientStateTable`]).  Off by default: the
    /// paper's v2 server is stateless and every golden table pins that —
    /// with the knob off no state op arrives and the write path takes a
    /// single untaken branch.
    pub leases: bool,
    /// How long a granted lease lives without renewal, used only when
    /// [`ServerConfig::leases`] is set.
    pub lease_duration: Duration,
    /// Length of the post-crash grace window during which only reclaims are
    /// admitted, used only when [`ServerConfig::leases`] is set.
    pub grace_period: Duration,
}

impl ServerConfig {
    /// The configuration used by the paper's file-copy tables: 8 nfsds, a
    /// single RZ26, no acceleration, gathering disabled (baseline).
    pub fn standard() -> Self {
        ServerConfig {
            nfsds: 8,
            policy: WritePolicy::Standard,
            reply_order: ReplyOrder::Fifo,
            storage: StorageConfig::single_rz26(),
            procrastination: Duration::from_millis(8),
            mbuf_hunter: true,
            socket_buffer_bytes: 256 * 1024,
            costs: CostParams::default(),
            cpu_speed: 1.0,
            dupcache_entries: 512,
            data_capacity: wg_ufs::FsParams::default().data_capacity,
            inode_groups: 1,
            read_caching: false,
            shards: 1,
            cores: 1,
            io_overlap: false,
            cache_pages: 0,
            dirty_ratio: 0.5,
            stability: StabilityMode::Stable,
            writeback_interval: Duration::from_millis(100),
            leases: false,
            lease_duration: Duration::from_secs(30),
            grace_period: Duration::from_secs(15),
        }
    }

    /// Same as [`ServerConfig::standard`] but with write gathering enabled.
    pub fn gathering() -> Self {
        ServerConfig {
            policy: WritePolicy::Gathering,
            ..ServerConfig::standard()
        }
    }

    /// Enable or disable Prestoserve acceleration.
    pub fn with_presto(mut self, on: bool) -> Self {
        self.storage.prestoserve = on;
        self
    }

    /// Use an `n`-spindle stripe set.
    pub fn with_spindles(mut self, n: usize) -> Self {
        self.storage.spindles = n;
        self
    }

    /// Set the procrastination interval (callers normally pass the medium's
    /// value).
    pub fn with_procrastination(mut self, d: Duration) -> Self {
        self.procrastination = d;
        self
    }

    /// Set the number of nfsds.
    pub fn with_nfsds(mut self, n: usize) -> Self {
        self.nfsds = n;
        self
    }

    /// Shard the request path `n` ways (see [`ServerConfig::shards`]).
    pub fn with_shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Give the server `n` CPU cores (see [`ServerConfig::cores`]).
    pub fn with_cores(mut self, n: usize) -> Self {
        self.cores = n;
        self
    }

    /// Enable or disable pipelined storage-stack execution (see
    /// [`ServerConfig::io_overlap`]).
    pub fn with_io_overlap(mut self, on: bool) -> Self {
        self.io_overlap = on;
        self
    }

    /// Spread the filesystem's inodes over `n` FFS-style groups (see
    /// [`ServerConfig::inode_groups`]).
    pub fn with_inode_groups(mut self, n: usize) -> Self {
        self.inode_groups = n.max(1);
        self
    }

    /// Keep read-fetched blocks resident in the buffer cache (see
    /// [`ServerConfig::read_caching`]).
    pub fn with_read_caching(mut self, on: bool) -> Self {
        self.read_caching = on;
        self
    }

    /// Arm the bounded unified buffer cache with `pages` 8 KB pages (see
    /// [`ServerConfig::cache_pages`]).  `pages == 0` disarms it.
    pub fn with_unified_cache(mut self, pages: u64) -> Self {
        self.cache_pages = pages;
        self
    }

    /// Set the dirty-ratio writer throttle of the unified cache (see
    /// [`ServerConfig::dirty_ratio`]).
    pub fn with_dirty_ratio(mut self, ratio: f64) -> Self {
        self.dirty_ratio = ratio;
        self
    }

    /// Select the stability semantics of the experiment cell (see
    /// [`StabilityMode`]).
    pub fn with_stability(mut self, mode: StabilityMode) -> Self {
        self.stability = mode;
        self
    }

    /// Set the background write-behind interval of the unified cache (see
    /// [`ServerConfig::writeback_interval`]).
    pub fn with_writeback_interval(mut self, d: Duration) -> Self {
        self.writeback_interval = d;
        self
    }

    /// Arm the client-state layer (see [`ServerConfig::leases`]).
    pub fn with_leases(mut self, on: bool) -> Self {
        self.leases = on;
        self
    }

    /// Set the lease duration (see [`ServerConfig::lease_duration`]).
    pub fn with_lease_duration(mut self, d: Duration) -> Self {
        self.lease_duration = d;
        self
    }

    /// Set the post-crash grace period (see [`ServerConfig::grace_period`]).
    pub fn with_grace_period(mut self, d: Duration) -> Self {
        self.grace_period = d;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper() {
        let std = ServerConfig::standard();
        assert_eq!(std.nfsds, 8);
        assert_eq!(std.policy, WritePolicy::Standard);
        assert_eq!(std.reply_order, ReplyOrder::Fifo);
        assert_eq!(std.socket_buffer_bytes, 256 * 1024);
        // The paper's machine: one RZ26 without Presto, one dispatch queue,
        // one CPU, serial driver.
        assert_eq!(std.storage.spindles, 1);
        assert!(!std.storage.prestoserve);
        assert_eq!(std.shards, 1);
        assert_eq!(std.cores, 1);
        assert!(!std.io_overlap);
        // The unified cache and unstable writes post-date the paper: off by
        // default so every golden table keeps its original write path.
        assert_eq!(std.cache_pages, 0);
        assert_eq!(std.stability, StabilityMode::Stable);
        // Likewise the client-state layer: the paper's server is stateless.
        assert!(!std.leases);
        assert_eq!(std.lease_duration, Duration::from_secs(30));
        assert_eq!(std.grace_period, Duration::from_secs(15));
        let g = ServerConfig::gathering();
        assert_eq!(g.policy, WritePolicy::Gathering);
    }

    #[test]
    fn builders_compose() {
        let cfg = ServerConfig::gathering()
            .with_presto(true)
            .with_spindles(3)
            .with_nfsds(32)
            .with_shards(4)
            .with_cores(2)
            .with_io_overlap(true)
            .with_procrastination(Duration::from_millis(5));
        assert!(cfg.storage.prestoserve);
        assert_eq!(cfg.storage.spindles, 3);
        assert_eq!(cfg.nfsds, 32);
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.cores, 2);
        assert!(cfg.io_overlap);
        assert_eq!(cfg.procrastination, Duration::from_millis(5));
        let cell = ServerConfig::standard()
            .with_unified_cache(512)
            .with_dirty_ratio(0.25)
            .with_stability(StabilityMode::Unstable)
            .with_writeback_interval(Duration::from_millis(40));
        assert_eq!(cell.cache_pages, 512);
        assert_eq!(cell.dirty_ratio, 0.25);
        assert_eq!(cell.stability, StabilityMode::Unstable);
        assert_eq!(cell.writeback_interval, Duration::from_millis(40));
        assert_eq!(cell.with_unified_cache(0).cache_pages, 0);
        let leased = ServerConfig::standard()
            .with_leases(true)
            .with_lease_duration(Duration::from_millis(750))
            .with_grace_period(Duration::from_millis(400));
        assert!(leased.leases);
        assert_eq!(leased.lease_duration, Duration::from_millis(750));
        assert_eq!(leased.grace_period, Duration::from_millis(400));
    }

    #[test]
    fn default_costs_are_small_but_nonzero() {
        let c = CostParams::default();
        assert!(c.rpc_dispatch > Duration::ZERO);
        assert!(c.copy_per_byte > Duration::ZERO);
        assert!(c.rpc_dispatch < Duration::from_millis(1));
        assert!(c.gather_bookkeeping < c.rpc_dispatch);
    }
}
