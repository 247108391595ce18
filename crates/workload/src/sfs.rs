//! A SPEC SFS 1.0 (LADDIS)-like mixed-operation load generator.
//!
//! Figures 2 and 3 of the paper plot NFS throughput (SPECnfs ops/sec) against
//! average response time for a DEC 3800 server with and without write
//! gathering, driven by the SPEC SFS 1.0 benchmark.  SFS itself is a large
//! proprietary harness; what matters for the reproduction is its *shape*:
//!
//! * a fixed operation mix in which writes are a small (≈15 %) but expensive
//!   fraction (\[WITT93\]),
//! * an offered load swept upward until the server saturates,
//! * the reported curve of achieved ops/sec vs average latency.
//!
//! [`SfsSystem`] generates Poisson streams of operations drawn from the
//! LADDIS mix against a pre-populated filesystem, and [`SfsSweep`] runs the
//! load sweep that regenerates the figures.
//!
//! # Scale-out
//!
//! The real SFS harness drives a server from a *fleet* of load-generating
//! clients; the single-generator configuration of the original figures
//! saturates on single-LAN and single-dispatch-queue artifacts long before
//! the sharded, multi-core, pipelined server of later PRs does.
//! [`SfsConfig::clients`] grows the harness to N independent generator
//! streams — per-client RNG salt, xid partition and scratch-file namespace —
//! optionally over per-client LAN segments
//! ([`SfsConfig::per_client_lans`], the topology of a
//! [`crate::FileCopySystem`] fleet), feeding one server configured with the
//! full shard/core/spindle/overlap stack.  The defaults (`clients = 1`, shared
//! LAN, one shard, one core, serial driver) reproduce the original
//! single-generator points exactly.
//!
//! # Hot-loop discipline
//!
//! Steady-state op generation performs no per-operation heap allocation for
//! LOOKUP / READ / GETATTR / WRITE-burst traffic: file names are interned
//! `Arc<str>`s picked by index, write payloads are fill patterns, and the
//! outstanding-call table is a [`XidWindow`] over the stream's sequential
//! xids rather than a hash map, sized by the calls in flight.  Only CREATE
//! mints a fresh name (it has to — every created file needs a unique name)
//! and scratch-file rotation allocates a generation name; both are counted in
//! [`SfsSystem::name_mints`] so tests can pin "nothing else allocates".
//!
//! # Retry timers
//!
//! With the fault layer armed every call gets a retry check one timeout
//! after it is sent, and every re-send a check one doubled timeout later
//! ([`backoff`], which times the writer's retransmissions too).  Most calls
//! are answered long before their check is due, so a stream
//! keeps its checks outside the event queue: one FIFO per retry attempt
//! level, each entry `(place, call)`, the [`Reservation`] of the place the
//! check would have taken in the queue and the call it re-sends.  Only each
//! level's head is queued; when it fires it skips the entries whose call
//! was answered meanwhile and queues the next live one in its reserved
//! place.  Every check that can act fires exactly where a check per call
//! would have, and the ones that would find their call answered never
//! enter the queue.  A check fires at its reserved place and reserves the
//! next one a backoff later, so a call's pending check falls at its first
//! send plus the backoff of every level up to the one it has reached: the
//! window keeps only that level, in a byte of the call's entry.
//!
//! # Settled replies
//!
//! LADDIS streams are open loop: each sends on its Poisson schedule whatever
//! the server answers, so a workload reply only stops its call's clock.
//! Only a retry check reads the window of calls in flight before the reply
//! lands, so a reply no check can race is settled as the server sends it:
//! its call retires with the arrival time as its completion, and no
//! delivery event is queued.  With the fault layer disarmed there are no
//! checks, and every workload reply is settled.  With it armed a reply
//! stays an event when:
//!
//! * its call's pending check falls at or before the arrival.  The check's
//!   place was reserved when the call was last sent, before this reply
//!   existed, so on a tie it pops first, and it must find the call
//!   unanswered;
//! * an earlier reply to the same call is already queued.  A client's
//!   replies cross one FIFO segment in send order, so the queued one lands
//!   first and its arrival is the call's completion.
//!
//! A settled call is retired before its reply lands, so a level scan in
//! between skips its check rather than queueing it; that check falls after
//! the arrival and would only have found the call answered.  Every check
//! that acts fires as before.  RENEW and LOCK replies drive the lease
//! machine, whose next tick must see them only once they have landed, so
//! they stay events.

use std::collections::VecDeque;
use std::sync::Arc;

use wg_client::{backoff, partition, XidWindow};
use wg_nfsproto::{
    CommitArgs, CreateArgs, DirOpArgs, FileHandle, GetattrArgs, LockArgs, NfsCall, NfsCallBody,
    NfsReply, NfsReplyBody, NfsStatus, ReadArgs, ReaddirArgs, RenewArgs, Sattr, StatusReply,
    WriteArgs, Xid, NFS_MAXDATA,
};
use wg_server::{NfsServer, StabilityMode, WritePolicy};
use wg_simcore::{Duration, FaultPlan, Reservation, SimRng, SimTime};

use crate::harness::{
    harness_readouts, server_config, ClientLans, Core, Harness, Ledger, Population,
};
use crate::results::{MultiClientResult, SfsPoint};
use crate::system::NetworkKind;

/// The operation mix, as percentages that sum to 100.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct SfsMix {
    /// LOOKUP share.
    pub lookup: f64,
    /// READ share.
    pub read: f64,
    /// WRITE share (the paper quotes 15 %).
    pub write: f64,
    /// GETATTR share.
    pub getattr: f64,
    /// READDIR share.
    pub readdir: f64,
    /// CREATE share.
    pub create: f64,
    /// REMOVE share.
    pub remove: f64,
    /// SETATTR share.
    pub setattr: f64,
    /// STATFS share.
    pub statfs: f64,
}

impl SfsMix {
    /// The LADDIS / SPEC SFS 1.0 mix (writes at 15 %).
    pub fn laddis() -> Self {
        SfsMix {
            lookup: 34.0,
            read: 22.0,
            write: 15.0,
            getattr: 13.0,
            readdir: 7.0,
            create: 3.0,
            remove: 3.0,
            setattr: 2.0,
            statfs: 1.0,
        }
    }

    /// A mix of only the allocation-free steady-state operations (LOOKUP,
    /// READ, GETATTR and WRITE bursts), in LADDIS proportions.  Used by the
    /// zero-allocation probes: a generator driven by this mix must perform no
    /// per-op heap allocation at all.
    pub fn steady_state() -> Self {
        SfsMix {
            lookup: 40.0,
            read: 26.0,
            write: 18.0,
            getattr: 16.0,
            readdir: 0.0,
            create: 0.0,
            remove: 0.0,
            setattr: 0.0,
            statfs: 0.0,
        }
    }

    fn weights(&self) -> [f64; 9] {
        [
            self.lookup,
            self.read,
            self.write,
            self.getattr,
            self.readdir,
            self.create,
            self.remove,
            self.setattr,
            self.statfs,
        ]
    }
}

/// Number of scratch files each generator's write bursts rotate over.
const SCRATCH_SLOTS: usize = 32;

/// Size of one write burst chunk: one full-size v2 WRITE (NFS v2 clients
/// write in 8 KB blocks).
const CHUNK: u64 = NFS_MAXDATA as u64;

/// Number of consecutive sequential 8 KB writes issued when a write is drawn
/// from the mix.  LADDIS writes whole files in sequential chunks, which is
/// the burstiness write gathering exploits; each write in the burst still
/// counts as one NFS operation so the mix percentages hold.
const WRITE_BURST: usize = 8;

/// The network of the paper's SFS runs (Figures 2 and 3).
const NETWORK: NetworkKind = NetworkKind::Fddi;

/// Server nfsds in the Figures 2–3 configuration.
const NFSDS: usize = 32;

/// First xid of client 0's window (kept from the single-client harness so
/// default runs replay identically).
const XID_ORIGIN: u32 = 0x2000_0000;

/// Configuration of one SFS-style measurement point.
#[derive(Clone, Debug)]
pub struct SfsConfig {
    /// Server write policy.
    pub policy: WritePolicy,
    /// Prestoserve acceleration (Figure 3).
    pub prestoserve: bool,
    /// Server spindles (the Figure 2/3 server has a large disk farm).  They
    /// serve one transfer at a time unless [`SfsConfig::io_overlap`] is set,
    /// so the disks, not the CPU, can be the first bottleneck: at 200 ops/s
    /// under the standard policy, a 15 s Figure 2 point reads 996.5 ms mean
    /// latency at 7.8 % CPU with six spindles, 870.2 ms with twenty, and
    /// 122.8 ms with twenty and `io_overlap`.
    pub spindles: usize,
    /// *Total* offered load in operations per second, split evenly across the
    /// generator streams.
    pub offered_ops_per_sec: f64,
    /// Measured interval of simulated time.
    pub duration: Duration,
    /// Number of files pre-created in the exported filesystem (shared by
    /// every client's LOOKUP/READ/GETATTR traffic).
    pub file_count: usize,
    /// Size of each pre-created file.
    pub file_size: u64,
    /// Operation mix.
    pub mix: SfsMix,
    /// RNG seed (runs are deterministic per seed; each client stream derives
    /// its own generator from this).
    pub seed: u64,
    /// Number of independent load-generator streams (1 = the original
    /// single-client harness, bit-identical to it).
    pub clients: usize,
    /// Give every client stream its own LAN segment into the server instead
    /// of contending on one shared medium.
    pub per_client_lans: bool,
    /// Number of server request-path shards (see
    /// [`wg_server::ServerConfig::shards`]).
    pub shards: usize,
    /// Number of server CPU cores (see [`wg_server::ServerConfig::cores`]).
    pub cores: usize,
    /// Pipelined storage-stack execution on the server (see
    /// [`wg_server::ServerConfig::io_overlap`]).
    pub io_overlap: bool,
    /// FFS-style inode groups on the exported filesystem (see
    /// [`wg_server::ServerConfig::inode_groups`]).  `1` keeps the flat
    /// layout of the original figures; the scaled harness spreads the
    /// working set's inode blocks across the stripe so one member spindle
    /// does not absorb every metadata flush.
    pub inode_groups: usize,
    /// Buffer-cache read caching on the server (see
    /// [`wg_server::ServerConfig::read_caching`]).  Off in the original
    /// figures (every read of the pre-populated set pays a disk trip); the
    /// scaled harness turns it on so the bounded working set stops
    /// re-reading the same blocks from a saturated disk farm.
    pub read_caching: bool,
    /// Largest append offset a scratch write file grows to before the
    /// generator rotates to a fresh file.  UFS caps a file at ≈16 MB
    /// (12 direct + 2048 single-indirect 8 KB blocks); the rotation keeps
    /// long, write-hot runs from silently wrapping offsets past the cap the
    /// way the old `offset as u32` append stream did.
    pub scratch_file_limit: u64,
    /// Fault-injection schedule.  Empty (the default) keeps the fault layer
    /// inert and the run bit-identical to a build without it.
    pub fault_plan: FaultPlan,
    /// Steady per-datagram loss probability on every LAN segment.  `0.0`
    /// (the default) consumes no randomness at all; a positive rate seeds
    /// each segment's loss stream from the cell's `(seed, offered load,
    /// segment)` alone, so sweep cells draw identical loss patterns whether
    /// they run serially or on worker threads.
    pub loss_probability: f64,
    /// Retransmit timeout of the first retry, when the fault layer is armed.
    pub retry_initial_timeout: Duration,
    /// Attempts after which an unanswered call is abandoned and counted in
    /// `gave_up` — a counted failure, never a silent success.  At most 255:
    /// a call in flight keeps its retry level in one byte.
    pub max_retransmits: u32,
    /// Pages of the server's bounded unified buffer cache (`0`, the default,
    /// keeps the paper's unbounded delayed-write pool and replays every
    /// original figure point byte-for-byte).
    pub cache_pages: u64,
    /// Dirty-page throttle fraction of the unified cache (see
    /// [`wg_server::ServerConfig::dirty_ratio`]).
    pub dirty_ratio: f64,
    /// Write-stability regime of the cell.  Under
    /// [`StabilityMode::Unstable`] every write burst is issued as
    /// `WRITE(UNSTABLE)` and chased by one whole-file `COMMIT` — the NFSv3
    /// write path — instead of the v2 per-write synchronous commit.
    pub stability: StabilityMode,
    /// Arm the client-state layer: every stream registers a lease, renews it
    /// each [`SfsConfig::lease_renew_interval`], acquires one byte-range
    /// lock, and runs the grace-period reclaim protocol after server
    /// crashes.  Off (the default) keeps the stateless harness bit-identical
    /// to the pre-lease build.
    pub leases: bool,
    /// How often each stream renews its lease (every stream ticks in the
    /// same interval window — at scale that *is* the renewal storm).
    pub lease_renew_interval: Duration,
    /// Server-side lease lifetime (must exceed the renew interval or every
    /// client expires between renewals).
    pub lease_duration: Duration,
    /// Server-side post-crash grace window.
    pub grace_period: Duration,
    /// Client-reboot churn: each stream reboots (new boot verifier, all
    /// state forgotten) once per this interval, staggered across streams.
    /// [`Duration::ZERO`] (the default) disables churn.
    pub churn_interval: Duration,
}

impl SfsConfig {
    /// A Figure 2-style configuration at a given offered load.
    pub fn figure2(offered_ops_per_sec: f64, policy: WritePolicy) -> Self {
        SfsConfig {
            policy,
            prestoserve: false,
            // The Figure 2/3 server is a DEC 3800 with "20 DISKS, 5 SCSI
            // BUSES"; six serial spindles stand for them, and they do not
            // keep the disks from being the first bottleneck (see
            // `spindles`).
            spindles: 6,
            offered_ops_per_sec,
            duration: Duration::from_secs(20),
            file_count: 200,
            file_size: 128 * 1024,
            mix: SfsMix::laddis(),
            seed: 1993,
            clients: 1,
            per_client_lans: false,
            shards: 1,
            cores: 1,
            io_overlap: false,
            inode_groups: 1,
            read_caching: false,
            scratch_file_limit: 8 * 1024 * 1024,
            fault_plan: FaultPlan::new(),
            loss_probability: 0.0,
            retry_initial_timeout: Duration::from_millis(700),
            max_retransmits: 8,
            cache_pages: 0,
            dirty_ratio: 0.5,
            stability: StabilityMode::Stable,
            leases: false,
            lease_renew_interval: Duration::from_secs(1),
            lease_duration: Duration::from_secs(3),
            grace_period: Duration::from_millis(500),
            churn_interval: Duration::ZERO,
        }
    }

    /// A Figure 3-style configuration (Prestoserve in front of the disks).
    pub fn figure3(offered_ops_per_sec: f64, policy: WritePolicy) -> Self {
        SfsConfig {
            prestoserve: true,
            ..SfsConfig::figure2(offered_ops_per_sec, policy)
        }
    }

    /// The scaled-out harness: `clients` generator streams over per-client
    /// LANs through the sharded (4-way), multi-core (4), pipelined server —
    /// the full stack of PRs 3–4 under the Figure 2 workload.
    pub fn scaled(offered_ops_per_sec: f64, policy: WritePolicy, clients: usize) -> Self {
        SfsConfig::figure2(offered_ops_per_sec, policy)
            .with_clients(clients)
            .with_per_client_lans(true)
            .with_shards(4)
            .with_cores(4)
            .with_io_overlap(true)
            .with_inode_groups(64)
            .with_read_caching(true)
    }

    /// Set the number of generator streams.
    pub fn with_clients(mut self, n: usize) -> Self {
        self.clients = n.max(1);
        self
    }

    /// Give every client stream its own LAN segment.
    pub fn with_per_client_lans(mut self, on: bool) -> Self {
        self.per_client_lans = on;
        self
    }

    /// Shard the server's request path `n` ways.
    pub fn with_shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Give the server `n` CPU cores.
    pub fn with_cores(mut self, n: usize) -> Self {
        self.cores = n.max(1);
        self
    }

    /// Enable pipelined storage-stack execution on the server.
    pub fn with_io_overlap(mut self, on: bool) -> Self {
        self.io_overlap = on;
        self
    }

    /// Spread the exported filesystem's inodes over `n` FFS-style groups.
    pub fn with_inode_groups(mut self, n: usize) -> Self {
        self.inode_groups = n.max(1);
        self
    }

    /// Keep read-fetched blocks resident in the server's buffer cache.
    pub fn with_read_caching(mut self, on: bool) -> Self {
        self.read_caching = on;
        self
    }

    /// Use a stripe set of `n` spindles.
    pub fn with_spindles(mut self, n: usize) -> Self {
        self.spindles = n.max(1);
        self
    }

    /// Set the scratch-file rotation limit (test hook; the default 8 MB
    /// stays well inside the ≈16 MB UFS single-indirect file cap).
    pub fn with_scratch_file_limit(mut self, bytes: u64) -> Self {
        self.scratch_file_limit = bytes;
        self
    }

    /// Attach a fault-injection schedule to the run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Drop datagrams on every LAN segment with probability `p`.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Override the retry knobs (first-retry timeout and attempt cap).
    pub fn with_retry(mut self, initial_timeout: Duration, max_retransmits: u32) -> Self {
        self.retry_initial_timeout = initial_timeout;
        self.max_retransmits = max_retransmits;
        self
    }

    /// Arm the server's bounded unified buffer cache with `pages` pages
    /// (`0` disarms it).
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

    /// Arm the client-state layer (leases, locks, grace-period recovery).
    pub fn with_leases(mut self, on: bool) -> Self {
        self.leases = on;
        self
    }

    /// Override the lease timing knobs: client renew interval, server lease
    /// lifetime and post-crash grace window.
    pub fn with_lease_timing(mut self, renew: Duration, lease: Duration, grace: Duration) -> Self {
        self.lease_renew_interval = renew;
        self.lease_duration = lease;
        self.grace_period = grace;
        self
    }

    /// Reboot each client stream once per `interval` ([`Duration::ZERO`]
    /// disables churn).
    pub fn with_churn(mut self, interval: Duration) -> Self {
        self.churn_interval = interval;
        self
    }

    /// Whether the fault layer is armed: any injected fault or loss means
    /// calls can vanish, so the generators track outstanding calls for
    /// bounded retransmission.  With neither, the retry machinery schedules
    /// nothing and clones nothing.
    pub fn faults_enabled(&self) -> bool {
        !self.fault_plan.is_empty() || self.loss_probability > 0.0
    }

    /// Loss-stream seed of this measurement cell, derived from the cell's
    /// own identity (base seed and offered load) so a parallel sweep draws
    /// the same losses as a serial one.
    fn loss_seed(&self) -> u64 {
        self.seed ^ self.offered_ops_per_sec.to_bits().rotate_left(17)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpKind {
    Lookup,
    Read,
    Write,
    Getattr,
    Readdir,
    Create,
    Remove,
    Setattr,
    Statfs,
    /// COMMIT chasing an unstable write burst (never drawn from the mix;
    /// queued behind the burst by [`SfsGenerator::next_call`] under
    /// [`StabilityMode::Unstable`]).
    Commit,
    /// Lease registration/renewal (never drawn from the mix; issued by the
    /// lease ticks when [`SfsConfig::leases`] is armed).
    Renew,
    /// Byte-range lock acquisition or grace-period reclaim (lease ticks
    /// only, like RENEW).
    Lock,
}

impl OpKind {
    /// Whether the call is lease-protocol traffic (kept off the workload
    /// counters).
    fn is_lease(self) -> bool {
        matches!(self, OpKind::Renew | OpKind::Lock)
    }
}

const OP_KINDS: [OpKind; 9] = [
    OpKind::Lookup,
    OpKind::Read,
    OpKind::Write,
    OpKind::Getattr,
    OpKind::Readdir,
    OpKind::Create,
    OpKind::Remove,
    OpKind::Setattr,
    OpKind::Statfs,
];

/// One scratch file a generator's write bursts append to.
#[derive(Clone, Copy)]
struct ScratchFile {
    handle: FileHandle,
    /// Current append offset (always `< scratch_file_limit`).
    offset: u64,
    /// Which of the [`SCRATCH_SLOTS`] this is — names the rotation chain.
    slot: usize,
    /// How many times this slot has rotated to a fresh file.
    generation: u32,
}

/// The namespace every generator stream shares: the exported root and the
/// pre-populated read/lookup file set, names interned once at construction.
struct SharedFiles {
    root: FileHandle,
    files: Vec<(Arc<str>, FileHandle, u64)>,
}

/// Where one stream's lease state machine stands (armed by
/// [`SfsConfig::leases`]; inert otherwise).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LeasePhase {
    /// No lease: the next tick sends a registering RENEW.
    Unregistered,
    /// RENEW sent, confirmation pending (re-sent each tick until one lands).
    Registering,
    /// Lease held: ticks renew it, or acquire the lock if not yet held.
    Active,
    /// The server rebooted into its grace window: the next tick reclaims
    /// the lock.
    Reclaiming,
}

/// Client-side lease/lock state of one generator stream, driven entirely by
/// the per-client lease tick chain and by replies — never by the op mix.
struct LeaseState {
    phase: LeasePhase,
    /// This incarnation's boot verifier (bumped by churn reboots).
    verifier: u64,
    /// Server boot verifier last seen in a RENEW reply (0 = none yet); a
    /// change means the server rebooted and its volatile state is gone.
    server_verifier: u64,
    /// Whether this stream believes it holds its byte-range lock.
    lock_held: bool,
    /// Next lock sequence id (strictly monotonic per stateid server-side).
    next_seqid: u32,
    /// Set once the stream abandons a call, workload or lease: it stops
    /// renewing, so the server's expiry sweep orphans and reclaims its
    /// records — the abandoned-lease path the orphan counters watch.
    dead: bool,
    /// Lease-protocol calls sent / replies applied / abandoned after the
    /// retry budget (kept out of the workload counters so state traffic
    /// never inflates achieved ops).
    issued: u64,
    completed: u64,
    gave_up: u64,
    /// Fresh lock grants / grace-window reclaims confirmed by replies.
    locks_granted: u64,
    reclaims_granted: u64,
    /// Server reboots this stream observed through verifier changes.
    server_reboots: u64,
    /// Churn reboots this stream performed.
    churns: u64,
}

impl LeaseState {
    fn new(client: u32) -> Self {
        LeaseState {
            phase: LeasePhase::Unregistered,
            // Per-client verifier space; the low word counts incarnations.
            verifier: ((client as u64) << 32) | 1,
            server_verifier: 0,
            lock_held: false,
            next_seqid: 1,
            dead: false,
            issued: 0,
            completed: 0,
            gave_up: 0,
            locks_granted: 0,
            reclaims_granted: 0,
            server_reboots: 0,
            churns: 0,
        }
    }
}

/// Running sum and count of response times.  SFS reports only the mean,
/// so no sample is kept.
#[derive(Default)]
struct MeanLatency {
    sum: Duration,
    count: u64,
}

impl MeanLatency {
    fn record(&mut self, latency: Duration) {
        self.sum += latency;
        self.count += 1;
    }

    /// The mean in whole nanoseconds, rounded down (zero when empty).
    fn mean(&self) -> Duration {
        match self.count {
            0 => Duration::ZERO,
            n => Duration::from_nanos(self.sum.as_nanos() / n),
        }
    }
}

/// One call in flight, as its stream's xid window holds it: 16 bytes, the
/// level and the flag riding in the send time's padding.
#[derive(Clone, Copy)]
struct InFlight {
    /// When the call was first sent.
    sent: SimTime,
    kind: OpKind,
    /// Retry checks the call has passed: its pending check is the one of
    /// this level (armed runs only).
    level: u8,
    /// A reply to the call is queued as a delivery event.
    reply_queued: bool,
}

impl InFlight {
    fn new(sent: SimTime, kind: OpKind) -> Self {
        InFlight {
            sent,
            kind,
            level: 0,
            reply_queued: false,
        }
    }

    /// When the call's pending retry check fires: each check fires at its
    /// reserved place and reserves the next one a backoff later.
    fn check_at(&self, initial_timeout: Duration) -> SimTime {
        (0..=u32::from(self.level)).fold(self.sent, |at, k| at + backoff(initial_timeout, k))
    }
}

/// One independent load-generator stream: its own RNG, scratch-file
/// namespace and window of calls in flight, which hands out its xids.
struct SfsGenerator {
    client: u32,
    rng: SimRng,
    mean_gap: f64,
    write_files: Vec<ScratchFile>,
    created_names: Vec<Arc<str>>,
    create_counter: u64,
    /// Remaining bodies of an in-progress write burst; drained one per
    /// arrival before a new operation is drawn from the mix.
    burst_queue: Vec<NfsCallBody>,
    /// Each call in flight, in this stream's xid window (16 bytes per call).
    outstanding: XidWindow<InFlight>,
    issued: u64,
    completed: u64,
    /// Name-minting allocations this stream performed (fresh CREATE names and
    /// scratch rotations) — the *only* events at which steady-state op
    /// generation is allowed to touch the heap.
    name_mints: u64,
    /// Calls re-sent after an unanswered timeout (fault mode only).
    retransmissions: u64,
    /// Calls abandoned after [`SfsConfig::max_retransmits`] attempts — every
    /// one a counted failure.
    gave_up: u64,
    /// Pending retry checks, one FIFO per attempt level reached so far,
    /// each entry the reserved place of one check and a copy of the call it
    /// re-sends.  A level's head is the one check of that level in the
    /// event queue.  Populated only when [`SfsConfig::faults_enabled`];
    /// otherwise never touched, keeping the steady-state loop
    /// allocation-free and bit-identical to the pre-fault harness.
    retry_timers: Vec<VecDeque<(Reservation, NfsCall)>>,
    /// Lease/lock client state (inert unless [`SfsConfig::leases`]).
    lease: LeaseState,
}

/// Pre-population name of a scratch write file (generation 0) or of a
/// rotation successor (generation ≥ 1).  Client 0 keeps the single-client
/// harness's names so default runs build an identical filesystem.
fn scratch_file_name(client: usize, slot: usize, generation: u32) -> String {
    match (client, generation) {
        (0, 0) => format!("sfs_write_{slot:03}"),
        (0, g) => format!("sfs_write_{slot:03}_g{g}"),
        (c, 0) => format!("sfs_c{c:02}_write_{slot:03}"),
        (c, g) => format!("sfs_c{c:02}_write_{slot:03}_g{g}"),
    }
}

impl SfsGenerator {
    /// Name of the `n`-th CREATE of this stream (client 0 keeps the
    /// single-client harness's names).
    fn create_name(&self, n: u64) -> String {
        if self.client == 0 {
            format!("sfs_scratch_{n}")
        } else {
            format!("sfs_c{:02}_scratch_{n}", self.client)
        }
    }

    /// Rotate a scratch slot to a fresh zero-length file, creating it in the
    /// exported filesystem out-of-band (the same way pre-population does).
    /// Keeps every append offset inside the UFS file cap no matter how long
    /// or write-hot the run is.  The successor's name is a counted mint.
    fn rotate_scratch(&mut self, idx: usize, server: &mut NfsServer) {
        let ScratchFile {
            slot, generation, ..
        } = self.write_files[idx];
        let name = scratch_file_name(self.client as usize, slot, generation + 1);
        self.name_mints += 1;
        let root = server.fs().root();
        let ino = server
            .fs_mut()
            .create(root, &name, 0o644, 0)
            .expect("scratch rotation name is fresh");
        self.write_files[idx] = ScratchFile {
            handle: server.handle_for_ino(ino).expect("live inode"),
            offset: 0,
            slot,
            generation: generation + 1,
        };
    }

    fn pick_file<'a>(&mut self, shared: &'a SharedFiles) -> &'a (Arc<str>, FileHandle, u64) {
        let idx = self.rng.next_below(shared.files.len() as u64) as usize;
        &shared.files[idx]
    }

    /// Produce the next call of this stream, stamping its send time into the
    /// outstanding window at insertion (one code path: a call dropped before
    /// arrival still carries the time it was really sent).
    fn next_call(
        &mut self,
        now: SimTime,
        shared: &SharedFiles,
        config: &SfsConfig,
        server: &mut NfsServer,
    ) -> NfsCall {
        // Drain an in-progress write burst first: LADDIS writes whole files
        // in consecutive 8 KB chunks, so write operations arrive in bursts
        // (under unstable stability the burst's trailing COMMIT rides the
        // same queue).
        if let Some(body) = self.burst_queue.pop() {
            let kind = if matches!(body, NfsCallBody::Commit(_)) {
                OpKind::Commit
            } else {
                OpKind::Write
            };
            let xid = self.outstanding.push(InFlight::new(now, kind));
            return NfsCall::new(xid, body);
        }
        // Scale the write weight down by the burst length so that writes stay
        // at their configured share of *operations* even though each burst
        // start expands into `WRITE_BURST` of them.
        let mut weights = config.mix.weights();
        weights[2] /= WRITE_BURST as f64;
        let kind = OP_KINDS[self.rng.pick_weighted(&weights)];
        let body = match kind {
            OpKind::Lookup => {
                let (name, _, _) = self.pick_file(shared);
                NfsCallBody::Lookup(DirOpArgs {
                    dir: shared.root,
                    name: name.clone(),
                })
            }
            OpKind::Read => {
                let &(_, fh, size) = self.pick_file(shared);
                let blocks = (size / CHUNK).max(1);
                let offset = self.rng.next_below(blocks) * CHUNK;
                NfsCallBody::Read(ReadArgs {
                    file: fh,
                    offset: offset as u32,
                    count: CHUNK as u32,
                    totalcount: 0,
                })
            }
            OpKind::Write => {
                // Start a burst of sequential appending writes to one of the
                // scratch files: every chunk allocates fresh blocks, as the
                // file-writing phases of LADDIS do.  A slot the burst would
                // carry past the rotation limit rotates to a fresh file first.
                let idx = self.rng.next_below(self.write_files.len() as u64) as usize;
                let burst_len = WRITE_BURST as u64;
                if self.write_files[idx].offset + burst_len * CHUNK > config.scratch_file_limit {
                    self.rotate_scratch(idx, server);
                }
                let ScratchFile {
                    handle: fh,
                    offset: start,
                    ..
                } = self.write_files[idx];
                self.write_files[idx].offset = start + burst_len * CHUNK;
                debug_assert!(start + burst_len * CHUNK <= u32::MAX as u64);
                // Under `StabilityMode::Unstable` every chunk is tagged
                // `WRITE(UNSTABLE)` and one whole-file `COMMIT` is queued
                // behind the burst, making the burst's durability one
                // batched flush — the NFSv3 shape — instead of `WRITE_BURST`
                // synchronous commits.
                let stable_how = config.stability.stable_how();
                // The COMMIT pops after the last chunk of the burst (the
                // queue pops from the back, so it is pushed first).
                if config.stability == StabilityMode::Unstable {
                    self.burst_queue.push(NfsCallBody::Commit(CommitArgs {
                        file: fh,
                        offset: 0,
                        count: 0,
                    }));
                }
                // Queue the follow-on chunks in reverse so popping yields
                // ascending offsets.
                for i in (1..burst_len).rev() {
                    let offset = start + i * CHUNK;
                    let fill = (offset / CHUNK) as u8;
                    self.burst_queue.push(NfsCallBody::Write(
                        WriteArgs::fill(fh, offset as u32, fill, CHUNK as u32)
                            .with_stability(stable_how),
                    ));
                }
                let fill = (start / CHUNK) as u8;
                NfsCallBody::Write(
                    WriteArgs::fill(fh, start as u32, fill, CHUNK as u32)
                        .with_stability(stable_how),
                )
            }
            OpKind::Getattr => {
                let &(_, fh, _) = self.pick_file(shared);
                NfsCallBody::Getattr(GetattrArgs { file: fh })
            }
            OpKind::Readdir => NfsCallBody::Readdir(ReaddirArgs {
                dir: shared.root,
                cookie: 0,
                count: 4096,
            }),
            OpKind::Create => {
                self.create_counter += 1;
                let name: Arc<str> = self.create_name(self.create_counter).into();
                self.name_mints += 1;
                self.created_names.push(name.clone());
                NfsCallBody::Create(CreateArgs {
                    where_: DirOpArgs {
                        dir: shared.root,
                        name,
                    },
                    attributes: Sattr::with_mode(0o644),
                })
            }
            OpKind::Remove => {
                if let Some(name) = self.created_names.pop() {
                    NfsCallBody::Remove(DirOpArgs {
                        dir: shared.root,
                        name,
                    })
                } else {
                    // Nothing of ours to remove yet: fall back to a getattr so
                    // the offered load is preserved.
                    let &(_, fh, _) = self.pick_file(shared);
                    NfsCallBody::Getattr(GetattrArgs { file: fh })
                }
            }
            OpKind::Setattr => {
                let &(_, fh, _) = self.pick_file(shared);
                NfsCallBody::Setattr(wg_nfsproto::SetattrArgs {
                    file: fh,
                    attributes: Sattr::with_mode(0o644),
                })
            }
            OpKind::Statfs => NfsCallBody::Statfs(GetattrArgs { file: shared.root }),
            // COMMIT only ever rides the burst queue behind an unstable
            // write burst; RENEW/LOCK only ever ride the lease ticks.  None
            // of them is drawn from the mix.
            OpKind::Commit | OpKind::Renew | OpKind::Lock => {
                unreachable!("not a mix operation")
            }
        };
        let xid = self.outstanding.push(InFlight::new(now, kind));
        NfsCall::new(xid, body)
    }

    /// The client-state call of one lease tick, if the stream still runs its
    /// lease machine: RENEW to register or renew, LOCK to acquire or reclaim.
    /// Streams that abandoned a call (a workload or a lease give-up) go
    /// lease-dead and return [`None`] — they stop renewing, so the server's
    /// expiry sweep reclaims their records as orphans.  Draws no RNG: the
    /// workload stream is untouched by the state machine.
    fn lease_tick_call(&mut self, now: SimTime, shared: &SharedFiles) -> Option<NfsCall> {
        if self.gave_up > 0 || self.lease.gave_up > 0 {
            self.lease.dead = true;
        }
        if self.lease.dead {
            return None;
        }
        let renew = NfsCallBody::Renew(RenewArgs {
            client_id: self.client,
            verifier: self.lease.verifier,
        });
        let body = match self.lease.phase {
            LeasePhase::Unregistered | LeasePhase::Registering => {
                self.lease.phase = LeasePhase::Registering;
                renew
            }
            LeasePhase::Active if self.lease.lock_held => renew,
            phase @ (LeasePhase::Active | LeasePhase::Reclaiming) => {
                // Every stream locks a disjoint chunk of the first shared
                // file (or the export root when the cell has none): lock
                // traffic at scale without cross-client conflicts, so any
                // conflict the oracle sees is a real grace-period leak.
                let file = shared
                    .files
                    .first()
                    .map(|&(_, fh, _)| fh)
                    .unwrap_or(shared.root);
                let seqid = self.lease.next_seqid;
                self.lease.next_seqid += 1;
                NfsCallBody::Lock(LockArgs {
                    file,
                    client_id: self.client,
                    stateid: 1,
                    seqid,
                    offset: self.client * CHUNK as u32,
                    count: CHUNK as u32,
                    reclaim: phase == LeasePhase::Reclaiming,
                })
            }
        };
        let kind = if matches!(body, NfsCallBody::Lock(_)) {
            OpKind::Lock
        } else {
            OpKind::Renew
        };
        let xid = self.outstanding.push(InFlight::new(now, kind));
        self.lease.issued += 1;
        Some(NfsCall::new(xid, body))
    }

    /// Apply a lease-protocol reply to the client state machine.  Pure local
    /// mutation: it never transmits.
    fn on_state_reply(&mut self, body: &NfsReplyBody) {
        match body {
            NfsReplyBody::Renew(StatusReply::Ok(ok)) => {
                let rebooted =
                    self.lease.server_verifier != 0 && self.lease.server_verifier != ok.verf;
                self.lease.server_verifier = ok.verf;
                if rebooted {
                    self.lease.server_reboots += 1;
                    if self.lease.lock_held && ok.in_grace {
                        // Our lock died with the server's volatile state;
                        // the next tick reclaims it inside the grace window.
                        self.lease.phase = LeasePhase::Reclaiming;
                    } else {
                        // Grace already over (or nothing to reclaim): any
                        // old lock is forfeit; re-acquire fresh.
                        self.lease.lock_held = false;
                        self.lease.phase = LeasePhase::Active;
                    }
                } else if self.lease.phase == LeasePhase::Registering {
                    self.lease.phase = LeasePhase::Active;
                }
            }
            NfsReplyBody::Lock(StatusReply::Ok(_)) => {
                if self.lease.phase == LeasePhase::Reclaiming {
                    self.lease.reclaims_granted += 1;
                } else {
                    self.lease.locks_granted += 1;
                }
                self.lease.lock_held = true;
                self.lease.phase = LeasePhase::Active;
            }
            NfsReplyBody::Lock(StatusReply::Err(status)) => match status {
                // A soft rejection inside the grace window: the next tick
                // tries again.
                NfsStatus::Grace => {}
                NfsStatus::Expired => {
                    // Lease lapsed server-side: drop everything and
                    // re-register from scratch.
                    self.lease.lock_held = false;
                    self.lease.phase = LeasePhase::Unregistered;
                }
                _ => {
                    if self.lease.phase == LeasePhase::Reclaiming {
                        // Reclaim refused (window closed, image forfeited):
                        // the old lock is gone; re-acquire fresh.
                        self.lease.lock_held = false;
                        self.lease.phase = LeasePhase::Active;
                    }
                }
            },
            // Any other reply leaves the phase untouched; the next tick
            // simply tries again.
            _ => {}
        }
    }

    /// Churn: this stream reboots — new boot verifier, all lease and lock
    /// state forgotten.  The server learns of the reboot at the next
    /// registering RENEW and wipes the previous incarnation's records.
    fn lease_reboot(&mut self) {
        self.lease.verifier += 1;
        self.lease.phase = LeasePhase::Unregistered;
        self.lease.lock_held = false;
        self.lease.next_seqid = 1;
        self.lease.churns += 1;
    }
}

/// First lease tick of `client`: one renew interval in, plus a per-client
/// nanosecond skew.  The skew gives every stream's ticks their own instants
/// (no same-instant ties between streams, none against the continuous
/// arrival draws) while still landing the whole fleet's renewals inside a
/// window that is microseconds wide — which at 10 000 clients *is* the
/// storm.  It is model behaviour: every leased run's numbers depend on it.
fn lease_tick_origin(renew: Duration, client: usize) -> SimTime {
    SimTime::ZERO + renew + Duration::from_nanos(client as u64 + 1)
}

/// First churn reboot of `client`: staggered evenly across one churn
/// interval so the fleet reboots as a rolling wave, not en masse.
fn churn_origin(churn: Duration, client: usize, clients: usize) -> SimTime {
    let stagger = churn.as_nanos() / clients.max(1) as u64 * client as u64;
    SimTime::ZERO + churn + Duration::from_nanos(stagger + client as u64 + 1)
}

/// Client-side events of the SFS streams.
enum SfsEvent {
    NextArrival(usize),
    /// A reply lands: a lease reply, or a reply a retry check may race (the
    /// rest are settled as they are sent).
    Reply(u32, NfsReply),
    /// The head retry check of one attempt level of one client:
    /// `(client, attempts already made)`.
    RetryCheck(usize, u32),
    /// One client's lease tick: register/renew/lock/reclaim, then
    /// self-reschedule (scheduled only when [`SfsConfig::leases`]).
    LeaseTick(usize),
    /// One client's churn reboot, self-rescheduling (scheduled only when
    /// [`SfsConfig::churn_interval`] is non-zero).
    ChurnTick(usize),
}

/// The SFS population: N generator streams over one shared namespace.
struct SfsClients {
    config: SfsConfig,
    shared: SharedFiles,
    generators: Vec<SfsGenerator>,
    /// Response times of every stream's operations.
    latency: MeanLatency,
    /// End of the measured window: arrivals and ticks stop here.
    end: SimTime,
    /// With no injected faults and no loss the retry machinery is fully
    /// disarmed (no cloned calls, no timers, no extra events), and every
    /// workload reply is settled as it is sent.
    faults_armed: bool,
    /// Queue every reply as a delivery event: the reference run the
    /// differential test holds settlement against.
    #[cfg(test)]
    replies_as_events: bool,
    /// Replies settled as they were sent, each one delivery event the
    /// reference run queues.
    #[cfg(test)]
    settled_replies: u64,
    /// Retry checks that fired and found their call answered.
    #[cfg(test)]
    vain_checks: u64,
}

impl SfsClients {
    /// Produce the next call of a stream and count it issued.
    fn generate(&mut self, now: SimTime, client: usize, server: &mut NfsServer) -> NfsCall {
        let generator = &mut self.generators[client];
        generator.issued += 1;
        generator.next_call(now, &self.shared, &self.config, server)
    }

    /// Sum a per-stream counter over every stream.
    fn sum(&self, counter: impl Fn(&SfsGenerator) -> u64) -> u64 {
        self.generators.iter().map(counter).sum()
    }

    /// Retire the call `reply` answers, as its client receives it at `at`:
    /// a workload call records its completion and latency, a lease call
    /// drives the lease machine.  A reply whose call is already retired (an
    /// answer to a re-sent call) changes nothing.
    fn retire(&mut self, at: SimTime, client: u32, reply: &NfsReply) {
        let generator = &mut self.generators[client as usize];
        let Some(call) = generator.outstanding.take(reply.xid) else {
            return;
        };
        if call.kind.is_lease() {
            generator.lease.completed += 1;
            generator.on_state_reply(&reply.body);
        } else {
            self.latency.record(at.since(call.sent));
            generator.completed += 1;
        }
    }

    /// Whether the reply to `client`'s `xid` arriving at `arrives_at` is
    /// settled as it is sent (see the module docs).  One that is not marks
    /// its call's reply queued.  A reply to a retired call changes nothing
    /// wherever it lands, so it is settled.
    fn settles(&mut self, client: u32, xid: Xid, arrives_at: SimTime) -> bool {
        #[cfg(test)]
        if self.replies_as_events {
            return false;
        }
        let Some(call) = self.generators[client as usize].outstanding.get_mut(xid) else {
            return true;
        };
        let raced = self.faults_armed
            && (call.reply_queued
                || call.check_at(self.config.retry_initial_timeout) <= arrives_at);
        let queued = raced || call.kind.is_lease();
        call.reply_queued |= queued;
        !queued
    }

    /// Send a fresh call.  With the fault layer armed, its retry check keeps
    /// a copy first so it can re-send it; the check chain always ends in a
    /// reply or a counted give-up.
    fn issue(&mut self, t: SimTime, client: usize, call: NfsCall, core: &mut Core<SfsEvent>) {
        if self.faults_armed {
            self.arm_retry(t, client, 0, call.clone(), core);
        }
        core.send(t, client, call);
    }

    /// Reserve the retry check of `call` at `level`, one retry delay after
    /// `t`, at the back of the level's FIFO.  Entries of one level are
    /// reserved in pop order with one delay, so the FIFO stays in place
    /// order; only a check that becomes its level's head is queued now.
    fn arm_retry(
        &mut self,
        t: SimTime,
        client: usize,
        level: u32,
        call: NfsCall,
        core: &mut Core<SfsEvent>,
    ) {
        let place = core.reserve(t + backoff(self.config.retry_initial_timeout, level));
        let levels = &mut self.generators[client].retry_timers;
        if levels.len() <= level as usize {
            levels.resize_with(level as usize + 1, VecDeque::new);
        }
        let timers = &mut levels[level as usize];
        timers.push_back((place, call));
        if timers.len() == 1 {
            core.schedule_reserved(place, SfsEvent::RetryCheck(client, level));
        }
    }

    /// The head check of `level` fired at `t`: act on its call as a check
    /// per call would, then queue the level's next check whose call is
    /// still unanswered in its reserved place, dropping the answered ones.
    fn retry_check(&mut self, t: SimTime, client: usize, level: u32, core: &mut Core<SfsEvent>) {
        let generator = &mut self.generators[client];
        let (_, call) = generator.retry_timers[level as usize]
            .pop_front()
            .expect("a firing retry check is its level's head");
        // A call answered while its check was queued needs nothing.
        if let Some(entry) = generator.outstanding.get_mut(call.xid) {
            debug_assert_eq!(u32::from(entry.level), level);
            if level >= self.config.max_retransmits {
                // Exhausted: abandon the call as a counted failure — never a
                // silent success — on the ledger it was issued on.
                if entry.kind.is_lease() {
                    generator.lease.gave_up += 1;
                } else {
                    generator.gave_up += 1;
                }
                generator.outstanding.take(call.xid);
            } else {
                entry.level += 1;
                generator.retransmissions += 1;
                core.send(t, client, call.clone());
                self.arm_retry(t, client, level + 1, call, core);
            }
        } else {
            #[cfg(test)]
            {
                self.vain_checks += 1;
            }
        }
        let generator = &mut self.generators[client];
        let timers = &mut generator.retry_timers[level as usize];
        while let Some((place, call)) = timers.front() {
            if generator.outstanding.get(call.xid).is_some() {
                core.schedule_reserved(*place, SfsEvent::RetryCheck(client, level));
                break;
            }
            timers.pop_front();
        }
    }
}

impl Population for SfsClients {
    type Event = SfsEvent;

    fn start(&mut self, core: &mut Core<SfsEvent>) {
        for (client, generator) in self.generators.iter_mut().enumerate() {
            let gap = Duration::from_secs_f64(generator.rng.exponential(generator.mean_gap));
            core.schedule(SimTime::ZERO + gap, SfsEvent::NextArrival(client));
        }
        // Lease machinery is armed the same way as the retry layer: off (the
        // default) schedules no ticks, touches no state and replays the
        // stateless harness event for event.
        if self.config.leases {
            let clients = self.generators.len();
            for client in 0..clients {
                core.schedule(
                    lease_tick_origin(self.config.lease_renew_interval, client),
                    SfsEvent::LeaseTick(client),
                );
            }
            if self.config.churn_interval > Duration::ZERO {
                for client in 0..clients {
                    core.schedule(
                        churn_origin(self.config.churn_interval, client, clients),
                        SfsEvent::ChurnTick(client),
                    );
                }
            }
        }
    }

    fn reply(&mut self, client: u32, reply: NfsReply, arrives_at: SimTime) -> Option<SfsEvent> {
        if !self.settles(client, reply.xid, arrives_at) {
            return Some(SfsEvent::Reply(client, reply));
        }
        #[cfg(test)]
        {
            self.settled_replies += 1;
        }
        self.retire(arrives_at, client, &reply);
        None
    }

    fn handle(&mut self, t: SimTime, event: SfsEvent, core: &mut Core<SfsEvent>) {
        match event {
            SfsEvent::NextArrival(client) => {
                if t < self.end {
                    let call = self.generate(t, client, &mut core.server);
                    self.issue(t, client, call, core);
                    let generator = &mut self.generators[client];
                    let gap =
                        Duration::from_secs_f64(generator.rng.exponential(generator.mean_gap));
                    core.schedule(t + gap, SfsEvent::NextArrival(client));
                }
            }
            SfsEvent::Reply(client, reply) => self.retire(t, client, &reply),
            SfsEvent::RetryCheck(client, level) => self.retry_check(t, client, level, core),
            SfsEvent::LeaseTick(client) => {
                if t < self.end {
                    if let Some(call) = self.generators[client].lease_tick_call(t, &self.shared) {
                        self.issue(t, client, call, core);
                    }
                    // A lease-dead stream stops ticking; the server's expiry
                    // sweep reclaims its records.
                    if !self.generators[client].lease.dead {
                        core.schedule(
                            t + self.config.lease_renew_interval,
                            SfsEvent::LeaseTick(client),
                        );
                    }
                }
            }
            SfsEvent::ChurnTick(client) => {
                if t < self.end {
                    self.generators[client].lease_reboot();
                    core.schedule(t + self.config.churn_interval, SfsEvent::ChurnTick(client));
                }
            }
        }
    }
}

/// One SFS-style measurement run: N generator streams, their LAN fan-in and
/// the server, wired through the shared event loop.
pub struct SfsSystem {
    harness: Harness<SfsClients>,
}

impl SfsSystem {
    /// Build the system and pre-populate the exported filesystem.
    pub fn new(config: SfsConfig) -> Self {
        let clients = config.clients.max(1);
        assert!(
            config.scratch_file_limit >= WRITE_BURST as u64 * CHUNK,
            "scratch_file_limit must hold at least one write burst"
        );
        assert!(
            config.scratch_file_limit <= 16 * 1024 * 1024,
            "scratch_file_limit must stay inside the ≈16 MB UFS file cap"
        );
        assert!(
            !config.leases || config.lease_renew_interval > Duration::ZERO,
            "lease_renew_interval must be non-zero when leases are armed"
        );
        assert!(
            config.max_retransmits <= u32::from(u8::MAX),
            "max_retransmits must fit a call's one-byte retry level"
        );
        let mut server_config = server_config(NETWORK, config.policy, NFSDS)
            .with_presto(config.prestoserve)
            .with_spindles(config.spindles)
            .with_shards(config.shards)
            .with_cores(config.cores)
            .with_io_overlap(config.io_overlap)
            .with_inode_groups(config.inode_groups)
            .with_read_caching(config.read_caching)
            .with_unified_cache(config.cache_pages)
            .with_dirty_ratio(config.dirty_ratio)
            .with_lease_duration(config.lease_duration)
            .with_grace_period(config.grace_period);
        // The DEC 3800 of Figures 2/3 is a faster machine than the cost
        // table's reference; reflect that so the curves reach a few hundred
        // ops/sec before CPU saturation.
        server_config.cpu_speed = 1.6;
        let mut server = NfsServer::new(server_config);

        let root = server.fs().root();
        let mut files = Vec::with_capacity(config.file_count);
        for i in 0..config.file_count {
            let name = format!("sfs_file_{i:04}");
            let ino = server
                .fs_mut()
                .create_prefilled(root, &name, config.file_size, 0)
                .expect("pre-population fits the data region");
            let handle = server.handle_for_ino(ino).expect("live inode");
            files.push((Arc::<str>::from(name), handle, config.file_size));
        }
        let mean_gap = clients as f64 / config.offered_ops_per_sec.max(1e-9);
        let mut generators = Vec::with_capacity(clients);
        for client in 0..clients {
            let mut write_files = Vec::with_capacity(SCRATCH_SLOTS);
            for slot in 0..SCRATCH_SLOTS {
                let name = scratch_file_name(client, slot, 0);
                let ino = server
                    .fs_mut()
                    .create(root, &name, 0o644, 0)
                    .expect("fresh namespace");
                write_files.push(ScratchFile {
                    handle: server.handle_for_ino(ino).expect("live inode"),
                    offset: 0,
                    slot,
                    generation: 0,
                });
            }
            generators.push(SfsGenerator {
                client: client as u32,
                // Client 0 replays the single-client harness's stream; the
                // others run independent, salted streams of the same shape.
                rng: SimRng::seed_from(
                    config
                        .seed
                        .wrapping_add((client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ),
                mean_gap,
                write_files,
                created_names: Vec::new(),
                create_counter: 0,
                burst_queue: Vec::new(),
                // The space above `XID_ORIGIN`, split evenly: every
                // stream's xids stay globally unique and debuggable
                // (duplicate detection is keyed by `(client, xid)` anyway).
                outstanding: XidWindow::new(partition(
                    XID_ORIGIN..u32::MAX,
                    clients as u64,
                    client as u64,
                )),
                issued: 0,
                completed: 0,
                name_mints: 0,
                retransmissions: 0,
                gave_up: 0,
                retry_timers: Vec::new(),
                lease: LeaseState::new(client as u32),
            });
        }
        let lans = ClientLans::with_loss(
            &NETWORK.params(),
            clients,
            config.per_client_lans,
            config.loss_probability,
            config.loss_seed(),
        );
        let faults = config.fault_plan.clone();
        let population = SfsClients {
            shared: SharedFiles {
                root: server.root_handle(),
                files,
            },
            generators,
            latency: MeanLatency::default(),
            end: SimTime::ZERO + config.duration,
            faults_armed: config.faults_enabled(),
            #[cfg(test)]
            replies_as_events: false,
            #[cfg(test)]
            settled_replies: 0,
            #[cfg(test)]
            vain_checks: 0,
            config,
        };
        SfsSystem {
            harness: Harness::new(server, lans, population, faults),
        }
    }

    fn generators(&self) -> &[SfsGenerator] {
        &self.harness.clients.generators
    }

    /// Generate one call of a client's stream without transmitting it, and
    /// retire it from the stream's window of calls in flight as an instant
    /// reply would — the hook the allocation probes drive the hot loop
    /// through.  The window stays empty between calls, so the probe sees
    /// generation plus one insert and take in a true steady state.
    pub fn generate_one(&mut self, now: SimTime, client: usize) -> NfsCall {
        let harness = &mut self.harness;
        let call = harness
            .clients
            .generate(now, client, &mut harness.core.server);
        harness.clients.generators[client]
            .outstanding
            .take(call.xid);
        call
    }

    /// Run the measurement and produce one figure point.  The run ends in
    /// the harness audit, which panics if a safety oracle broke or, with the
    /// fault layer armed, if a workload or lease call was neither answered
    /// nor counted given up.
    pub fn run(&mut self) -> SfsPoint {
        self.harness.run(100_000_000 * self.clients() as u64);
        let point = self.point();
        if self.config().leases {
            // Deterministic post-run expiry sweep: any stream that stopped
            // renewing — lease-dead after a give-up, or churn-killed — has
            // its lease expire here and its state reclaimed as orphans.
            let end = self.harness.clients.end;
            self.harness.core.server.expire_leases(end);
        }
        let (issued, completed) = self.counts();
        let ledger = Ledger {
            calls: (issued, completed, self.gave_up()),
            lease_calls: self.lease_counts(),
            unfinished_clients: 0,
        };
        let clients = &self.harness.clients;
        self.harness
            .audit(&clients.config, clients.faults_armed, ledger);
        point
    }

    /// The figure point of the finished run.
    fn point(&self) -> SfsPoint {
        let clients = &self.harness.clients;
        let measured = clients.config.duration;
        SfsPoint {
            offered_ops_per_sec: clients.config.offered_ops_per_sec,
            achieved_ops_per_sec: clients.sum(|g| g.completed) as f64 / measured.as_secs_f64(),
            avg_latency_ms: clients.latency.mean().as_millis_f64(),
            server_cpu_percent: self.server().cpu_utilization_percent(measured),
        }
    }

    harness_readouts!();

    /// The configuration the system was built with.
    pub fn config(&self) -> &SfsConfig {
        &self.harness.clients.config
    }

    /// Drain the server after the measured window: flush the unified cache
    /// (and any gathered batches) to stable storage, as an unmount would.
    /// With the cache disarmed this changes nothing; with it armed it is how
    /// a sweep cell proves no acknowledged data was left volatile.
    pub fn quiesce_server(&mut self) {
        let at = self.harness.core.now().max(self.harness.clients.end);
        let mut actions = Vec::new();
        self.harness.core.server.quiesce(at, &mut actions);
    }

    /// Sum a per-stream counter over every stream.
    fn sum(&self, counter: impl Fn(&SfsGenerator) -> u64) -> u64 {
        self.harness.clients.sum(counter)
    }

    /// Operations issued and completed, across all client streams.
    pub fn counts(&self) -> (u64, u64) {
        (self.sum(|g| g.issued), self.sum(|g| g.completed))
    }

    /// Workload calls abandoned after the retransmit budget, across all
    /// streams.  When the fault layer is armed every issued call ends up
    /// either completed or here: `issued == completed + gave_up`, which
    /// [`SfsSystem::run`] audits.
    pub fn gave_up(&self) -> u64 {
        self.sum(|g| g.gave_up)
    }

    /// Calls re-sent by the retry timers, across all streams.
    pub fn retransmissions(&self) -> u64 {
        self.sum(|g| g.retransmissions)
    }

    /// Number of generator streams.
    pub fn clients(&self) -> usize {
        self.generators().len()
    }

    /// Number of distinct LAN segments feeding the server.
    pub fn lan_segments(&self) -> usize {
        self.harness.core.lans.segments()
    }

    /// Achieved operations per second of each client stream.
    pub fn per_client_achieved_ops(&self) -> Vec<f64> {
        let secs = self.config().duration.as_secs_f64().max(1e-9);
        self.generators()
            .iter()
            .map(|g| g.completed as f64 / secs)
            .collect()
    }

    /// Jain's fairness index over per-client achieved throughput.
    pub fn fairness(&self) -> f64 {
        MultiClientResult::jain_fairness(&self.per_client_achieved_ops())
    }

    /// Total name-minting allocations the generators performed (fresh CREATE
    /// names and scratch-file rotations) — everything else in steady-state op
    /// generation is allocation-free.
    pub fn name_mints(&self) -> u64 {
        self.sum(|g| g.name_mints)
    }

    /// Lease-protocol calls issued, replies applied and calls abandoned
    /// after the retransmit budget, across all streams (kept out of
    /// [`SfsSystem::counts`] and [`SfsSystem::gave_up`] so state traffic
    /// never inflates achieved ops).
    pub fn lease_counts(&self) -> (u64, u64, u64) {
        (
            self.sum(|g| g.lease.issued),
            self.sum(|g| g.lease.completed),
            self.sum(|g| g.lease.gave_up),
        )
    }

    /// Fresh lock grants and grace-window reclaims confirmed by replies,
    /// across all streams.
    pub fn lock_grants(&self) -> (u64, u64) {
        (
            self.sum(|g| g.lease.locks_granted),
            self.sum(|g| g.lease.reclaims_granted),
        )
    }

    /// Server reboots observed by clients through RENEW verifier changes.
    pub fn observed_server_reboots(&self) -> u64 {
        self.sum(|g| g.lease.server_reboots)
    }

    /// Churn reboots the client fleet performed.
    pub fn churn_reboots(&self) -> u64 {
        self.sum(|g| g.lease.churns)
    }

    /// Streams that went lease-dead (stopped renewing after a give-up).
    pub fn lease_dead_streams(&self) -> usize {
        self.generators().iter().filter(|g| g.lease.dead).count()
    }

    /// Largest append offset any scratch write file currently holds.
    pub fn max_scratch_offset(&self) -> u64 {
        self.generators()
            .iter()
            .flat_map(|g| g.write_files.iter().map(|f| f.offset))
            .max()
            .unwrap_or(0)
    }

    /// How many scratch-file rotations have happened across all streams.
    pub fn scratch_rotations(&self) -> u64 {
        self.generators()
            .iter()
            .flat_map(|g| g.write_files.iter().map(|f| f.generation as u64))
            .sum()
    }
}

/// A load sweep producing the curve of Figure 2 or Figure 3.
#[derive(Clone, Debug)]
pub struct SfsSweep {
    /// Base configuration; the offered load is overridden per point.
    pub base: SfsConfig,
}

impl SfsSweep {
    /// Create a sweep from a base configuration.
    pub fn new(base: SfsConfig) -> Self {
        SfsSweep { base }
    }

    fn point_config(&self, load: f64) -> SfsConfig {
        let mut cfg = self.base.clone();
        cfg.offered_ops_per_sec = load;
        cfg
    }

    /// Run the sweep at the given offered loads, serially.
    pub fn run(&self, loads: &[f64]) -> Vec<SfsPoint> {
        loads
            .iter()
            .map(|&load| SfsSystem::new(self.point_config(load)).run())
            .collect()
    }

    /// Run the sweep on a pool of `threads` worker threads.
    ///
    /// Every load point is an independent, deterministic simulation, so the
    /// output is bit-identical to [`SfsSweep::run`] regardless of how the
    /// points land on threads; only the wall clock changes.
    pub fn run_parallel(&self, loads: &[f64], threads: usize) -> Vec<SfsPoint> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let workers = threads.min(loads.len());
        if workers <= 1 {
            return self.run(loads);
        }
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<SfsPoint>>> =
            loads.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= loads.len() {
                        break;
                    }
                    let point = SfsSystem::new(self.point_config(loads[i])).run();
                    *results[i].lock().expect("sweep worker poisoned a point") = Some(point);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("sweep worker poisoned a point")
                    .expect("every point was claimed by a worker")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Ev;
    use wg_simcore::FaultKind;

    /// Pin the driver event's footprint.  Every schedule moves one `Ev` by
    /// value into the event queue's slab and every pop moves it back out, so
    /// a grown variant taxes the whole event loop.  The size is set by the
    /// largest payload (a reply-bearing `SfsEvent::Reply`); box a new large
    /// variant instead of raising this pin.
    #[test]
    fn driver_event_stays_within_its_pinned_footprint() {
        assert!(
            std::mem::size_of::<Ev<SfsEvent>>() <= 112,
            "Ev grew to {} bytes; box the large variant",
            std::mem::size_of::<Ev<SfsEvent>>()
        );
    }

    /// Pin a call's entry in its stream's xid window at 16 bytes, the level
    /// and the flag riding in the send time's padding.  One unanswered
    /// call holds the window open across every later call, so each byte
    /// here is paid per call sent meanwhile, and the `VecDeque` doubles.
    #[test]
    fn window_entry_stays_within_its_pinned_footprint() {
        assert_eq!(std::mem::size_of::<InFlight>(), 16);
        assert_eq!(std::mem::size_of::<Option<InFlight>>(), 16);
    }

    fn quick_config(load: f64, policy: WritePolicy) -> SfsConfig {
        SfsConfig {
            duration: Duration::from_secs(4),
            file_count: 30,
            file_size: 64 * 1024,
            ..SfsConfig::figure2(load, policy)
        }
    }

    #[test]
    fn mix_weights_sum_to_100() {
        let total: f64 = SfsMix::laddis().weights().iter().sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert!((SfsMix::laddis().write - 15.0).abs() < 1e-9);
        let steady: f64 = SfsMix::steady_state().weights().iter().sum();
        assert!((steady - 100.0).abs() < 1e-9);
    }

    #[test]
    fn light_load_is_served_with_low_latency() {
        let mut system = SfsSystem::new(quick_config(100.0, WritePolicy::Gathering));
        let point = system.run();
        let (issued, completed) = system.counts();
        assert!(issued > 300, "issued {issued}");
        // Nearly everything issued completes at light load.
        assert!(completed as f64 >= issued as f64 * 0.95);
        assert!(point.achieved_ops_per_sec > 80.0);
        assert!(
            point.avg_latency_ms < 50.0,
            "latency {}",
            point.avg_latency_ms
        );
        assert!(point.server_cpu_percent < 60.0);
    }

    #[test]
    fn saturation_caps_achieved_throughput() {
        let low = SfsSystem::new(quick_config(150.0, WritePolicy::Standard)).run();
        let high = SfsSystem::new(quick_config(3000.0, WritePolicy::Standard)).run();
        // Offered load went up 20x; achieved throughput cannot follow and
        // latency climbs.
        assert!(high.achieved_ops_per_sec < 3000.0 * 0.9);
        assert!(high.avg_latency_ms > low.avg_latency_ms);
    }

    #[test]
    fn gathering_improves_capacity_or_latency_at_heavy_load() {
        let load = 900.0;
        let without = SfsSystem::new(quick_config(load, WritePolicy::Standard)).run();
        let with = SfsSystem::new(quick_config(load, WritePolicy::Gathering)).run();
        // Figure 2's shape: at the same heavy offered load the gathering
        // server either completes more operations or answers them faster (in
        // practice both).
        let better_throughput = with.achieved_ops_per_sec >= without.achieved_ops_per_sec * 0.98;
        let better_latency = with.avg_latency_ms <= without.avg_latency_ms;
        assert!(
            better_throughput || better_latency,
            "with: {with:?}\nwithout: {without:?}"
        );
    }

    #[test]
    fn sweep_is_monotone_in_offered_load_until_saturation() {
        let sweep = SfsSweep::new(quick_config(0.0, WritePolicy::Gathering));
        let points = sweep.run(&[100.0, 300.0, 600.0]);
        assert_eq!(points.len(), 3);
        assert!(points[1].achieved_ops_per_sec > points[0].achieved_ops_per_sec);
        // Latency is non-decreasing with load.
        assert!(points[2].avg_latency_ms >= points[0].avg_latency_ms * 0.8);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let a = SfsSystem::new(quick_config(200.0, WritePolicy::Gathering)).run();
        let b = SfsSystem::new(quick_config(200.0, WritePolicy::Gathering)).run();
        assert_eq!(a.achieved_ops_per_sec, b.achieved_ops_per_sec);
        assert_eq!(a.avg_latency_ms, b.avg_latency_ms);
    }

    #[test]
    fn multi_client_streams_are_deterministic_and_disjoint() {
        let config = quick_config(400.0, WritePolicy::Gathering)
            .with_clients(3)
            .with_per_client_lans(true);
        let mut a = SfsSystem::new(config.clone());
        let pa = a.run();
        let mut b = SfsSystem::new(config);
        let pb = b.run();
        assert_eq!(pa.achieved_ops_per_sec, pb.achieved_ops_per_sec);
        assert_eq!(pa.avg_latency_ms, pb.avg_latency_ms);
        assert_eq!(a.clients(), 3);
        assert_eq!(a.lan_segments(), 3);
        // Every stream carried a share of the load.
        assert!(a.per_client_achieved_ops().iter().all(|&ops| ops > 0.0));
        assert!(a.fairness() > 0.8, "fairness {}", a.fairness());
    }

    #[test]
    fn xid_windows_are_disjoint_per_client() {
        let mut system =
            SfsSystem::new(quick_config(100.0, WritePolicy::Gathering).with_clients(4));
        let windows: Vec<_> = (0..4)
            .map(|c| partition(XID_ORIGIN..u32::MAX, 4, c))
            .collect();
        assert_eq!(windows[0].start, XID_ORIGIN);
        for pair in windows.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "windows overlap or leave a gap");
        }
        // Each stream numbers its calls from the start of its own window.
        for (client, window) in windows.iter().enumerate() {
            let call = system.generate_one(SimTime::ZERO, client);
            assert_eq!(call.xid, Xid(window.start));
        }
    }

    #[test]
    fn leases_off_keeps_the_server_stateless() {
        let mut system = SfsSystem::new(quick_config(200.0, WritePolicy::Gathering));
        system.run();
        assert_eq!(system.lease_counts(), (0, 0, 0));
        assert_eq!(
            system.server().state_stats(),
            &wg_server::StateStats::default()
        );
        assert_eq!(system.server().active_lease_clients(), 0);
        assert_eq!(system.server().held_locks(), 0);
    }

    #[test]
    fn lease_storm_registers_renews_and_locks_every_stream() {
        let clients = 4;
        let config = quick_config(300.0, WritePolicy::Gathering)
            .with_clients(clients)
            .with_leases(true)
            .with_lease_timing(
                Duration::from_millis(400),
                Duration::from_millis(1500),
                Duration::from_millis(800),
            );
        let mut system = SfsSystem::new(config);
        system.run();
        let stats = system.server().state_stats().clone();
        // Every stream registered once, renewed repeatedly and acquired its
        // disjoint byte-range lock exactly once.
        assert_eq!(stats.leases_granted, clients as u64);
        assert!(
            stats.renewals > clients as u64,
            "renewals {}",
            stats.renewals
        );
        assert_eq!(stats.locks_granted, clients as u64);
        assert_eq!(system.lock_grants(), (clients as u64, 0));
        // Healthy streams renew to the end: nothing expired, nothing held
        // back, and the post-run sweep leaves every lease and lock standing.
        assert_eq!(stats.leases_expired, 0);
        assert_eq!(system.server().active_lease_clients(), clients);
        assert_eq!(system.server().held_locks(), clients);
        assert!(system.server().state_table_bytes() > 0);
        // Disjoint byte ranges never conflict.
        assert_eq!(stats.lock_conflicts, 0);
        let (issued, applied, _) = system.lease_counts();
        assert!(issued > 0 && applied > 0);
    }

    #[test]
    fn crash_opens_grace_and_streams_reclaim_their_locks() {
        let clients = 3;
        let plan = FaultPlan::new().at(SimTime::from_millis(1200), FaultKind::ServerCrash);
        let config = quick_config(300.0, WritePolicy::Gathering)
            .with_clients(clients)
            .with_fault_plan(plan)
            .with_retry(Duration::from_millis(300), 6)
            .with_leases(true)
            .with_lease_timing(
                Duration::from_millis(400),
                Duration::from_secs(2),
                Duration::from_millis(1500),
            );
        let mut system = SfsSystem::new(config);
        system.run();
        let stats = system.server().state_stats().clone();
        // Streams held locks before the crash, observed the reboot through
        // the RENEW verifier change, and reclaimed inside the grace window.
        assert!(system.observed_server_reboots() >= 1);
        assert!(stats.locks_reclaimed >= 1, "no reclaim landed: {stats:?}");
        assert_eq!(system.lock_grants().1, stats.locks_reclaimed);
    }

    #[test]
    fn churn_reboots_reregister_and_revoke_stale_incarnations() {
        let clients = 2;
        let config = quick_config(200.0, WritePolicy::Gathering)
            .with_clients(clients)
            .with_leases(true)
            .with_lease_timing(
                Duration::from_millis(300),
                Duration::from_millis(1200),
                Duration::from_millis(600),
            )
            .with_churn(Duration::from_millis(1100));
        let mut system = SfsSystem::new(config);
        system.run();
        let stats = system.server().state_stats().clone();
        assert!(system.churn_reboots() >= clients as u64);
        // The server saw rebooted incarnations re-register (wiping the old
        // records) and re-grant their locks.
        assert!(
            stats.client_reboots >= 1,
            "reboots {}",
            stats.client_reboots
        );
        assert!(
            stats.locks_granted > clients as u64,
            "locks {}",
            stats.locks_granted
        );
    }

    #[test]
    fn scratch_rotation_keeps_offsets_inside_the_file_cap() {
        // A write-only mix against a tiny rotation limit: the old code would
        // have grown one append stream far past the limit (and, hot enough,
        // past the 16 MB UFS cap where `offset as u32` wrapped); the rotated
        // generator must never let an offset cross it.
        let limit = 256 * 1024u64;
        let mut config = quick_config(2000.0, WritePolicy::Gathering)
            .with_scratch_file_limit(limit)
            .with_clients(1);
        config.mix = SfsMix {
            write: 100.0,
            ..no_ops()
        };
        config.duration = Duration::from_secs(8);
        let mut system = SfsSystem::new(config);
        system.run();
        assert!(
            system.scratch_rotations() > 0,
            "the run was hot enough to rotate"
        );
        assert!(system.max_scratch_offset() <= limit);
        // Every scratch file on disk respects the limit too.
        let mut fs = system.server().fs().clone();
        let root = fs.root();
        let mut checked = 0;
        for slot in 0..SCRATCH_SLOTS {
            for generation in 0.. {
                let name = scratch_file_name(0, slot, generation);
                let Ok(ino) = fs.lookup(root, &name) else {
                    break;
                };
                let size = fs.getattr(ino).expect("live file").size;
                assert!(size <= limit, "{name} grew to {size} bytes");
                checked += 1;
            }
        }
        assert!(checked > SCRATCH_SLOTS, "rotation chains exist on disk");
    }

    #[test]
    fn unstable_cells_commit_their_bursts_and_lose_nothing() {
        let config = quick_config(400.0, WritePolicy::Gathering)
            .with_unified_cache(4096)
            .with_stability(StabilityMode::Unstable);
        let mut system = SfsSystem::new(config);
        let point = system.run();
        assert!(point.achieved_ops_per_sec > 0.0);
        let (unstable_writes, commits, forced) = {
            let stats = system.server().stats();
            (stats.unstable_writes, stats.commits, stats.forced_file_sync)
        };
        assert!(unstable_writes > 0, "no WRITE(UNSTABLE) was issued");
        assert!(commits > 0, "no burst was chased by a COMMIT");
        assert_eq!(forced, 0);
        // An unmount-style drain leaves nothing volatile.
        system.quiesce_server();
        assert_eq!(system.server().uncommitted_bytes(), 0);
    }

    #[test]
    fn default_cells_never_speak_v3() {
        // The paper's write path, and the same cell over the bounded
        // unified cache: neither speaks v3, and once quiesced the cached
        // cell holds nothing uncommitted either.
        let config = quick_config(200.0, WritePolicy::Gathering);
        for config in [config.clone(), config.with_unified_cache(4096)] {
            let pages = config.cache_pages;
            let mut system = SfsSystem::new(config);
            system.run();
            system.quiesce_server();
            let stats = system.server().stats();
            let v3 = (stats.unstable_writes, stats.commits, stats.forced_file_sync);
            assert_eq!(v3, (0, 0, 0), "unstable writes, commits, forced syncs");
            assert_eq!(system.server().uncommitted_bytes(), 0, "{pages} pages");
        }
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let sweep = SfsSweep::new(quick_config(0.0, WritePolicy::Gathering));
        let loads = [100.0, 250.0, 400.0, 550.0];
        let serial = sweep.run(&loads);
        let parallel = sweep.run_parallel(&loads, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.offered_ops_per_sec, p.offered_ops_per_sec);
            assert_eq!(s.achieved_ops_per_sec, p.achieved_ops_per_sec);
            assert_eq!(s.avg_latency_ms, p.avg_latency_ms);
            assert_eq!(s.server_cpu_percent, p.server_cpu_percent);
        }
    }

    #[test]
    fn parallel_sweep_stays_bit_identical_with_loss_enabled() {
        // Each cell's loss streams are seeded from the cell's own identity
        // (base seed, offered load, segment index), never from thread or
        // construction order — so a lossy sweep must replay bit-identically
        // on worker threads, retransmissions and all.
        let sweep = SfsSweep::new(
            quick_config(0.0, WritePolicy::Gathering)
                .with_clients(2)
                .with_per_client_lans(true)
                .with_loss(0.05),
        );
        let loads = [100.0, 250.0, 400.0, 550.0];
        let serial = sweep.run(&loads);
        let parallel = sweep.run_parallel(&loads, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.offered_ops_per_sec, p.offered_ops_per_sec);
            assert_eq!(s.achieved_ops_per_sec, p.achieved_ops_per_sec);
            assert_eq!(s.avg_latency_ms, p.avg_latency_ms);
            assert_eq!(s.server_cpu_percent, p.server_cpu_percent);
        }
        // The loss rate actually bit: the retry layer had work to do.
        let mut system = SfsSystem::new(sweep.point_config(250.0));
        system.run();
        assert!(system.retransmissions() > 0);
    }

    /// Run `config` with its replies settled as shipped (`false`) or every
    /// reply queued as a delivery event (`true`).
    fn run_with_replies_as_events(config: &SfsConfig, as_events: bool) -> (SfsSystem, SfsPoint) {
        let mut system = SfsSystem::new(config.clone());
        system.harness.clients.replies_as_events = as_events;
        let point = system.run();
        (system, point)
    }

    #[test]
    fn differential_settled_replies_match_the_event_path() {
        let figure2 = SfsConfig {
            duration: Duration::from_secs(3),
            ..SfsConfig::figure2(250.0, WritePolicy::Gathering)
        };
        let leased = SfsConfig {
            duration: Duration::from_secs(3),
            file_count: 30,
            file_size: 64 * 1024,
            ..SfsConfig::scaled(600.0, WritePolicy::Gathering, 4)
        }
        .with_leases(true)
        .with_lease_timing(
            Duration::from_millis(200),
            Duration::from_secs(1),
            Duration::from_millis(500),
        );
        for config in [figure2, leased] {
            let (settled, settled_point) = run_with_replies_as_events(&config, false);
            let (queued, queued_point) = run_with_replies_as_events(&config, true);
            let name = format!("{} client(s)", config.clients);
            assert_eq!(
                format!("{settled_point:?}"),
                format!("{queued_point:?}"),
                "{name}"
            );
            assert_eq!(settled.counts(), queued.counts(), "{name}");
            let per_client = settled.per_client_achieved_ops();
            assert_eq!(per_client, queued.per_client_achieved_ops(), "{name}");
            assert_eq!(settled.lease_counts(), queued.lease_counts(), "{name}");
            assert_eq!(settled.lease_counts().1 > 0, config.leases, "{name}");
            let residence = |s: &SfsSystem| {
                let r = &s.server().stats().residence;
                (r.mean(), r.percentile(99.0))
            };
            assert_eq!(residence(&settled), residence(&queued), "{name}");
            // Each completed workload call had one reply, and only those
            // replies were settled; lease replies stayed events.
            let (_, completed) = settled.counts();
            assert!(completed > 0, "{name}");
            let saved = queued.events_processed() - settled.events_processed();
            assert_eq!(saved, completed, "{name}");
            let unscheduled = queued.scheduled_total() - settled.scheduled_total();
            assert_eq!(unscheduled, completed, "{name}");
        }

        // With the fault layer armed a reply is settled unless a retry check
        // may race it: the lossy cell, `sfs_crash`'s shape, and
        // `faults.presto_battery_unstable`'s, whose calls outlive their
        // timeout, so a call's later reply is often sent before its first
        // queued one lands.
        let lossy = quick_config(250.0, WritePolicy::Gathering).with_loss(0.01);
        let crash = SfsConfig {
            duration: Duration::from_secs(20),
            ..SfsConfig::figure2(250.0, WritePolicy::Gathering)
        }
        .with_stability(StabilityMode::Unstable)
        .with_unified_cache(256)
        .with_dirty_ratio(0.1)
        .with_loss(0.01)
        .with_fault_plan(jittered_crashes(
            31,
            Duration::from_secs(5),
            Duration::from_secs(20),
        ));
        let battery = SfsConfig {
            duration: Duration::from_secs(20),
            ..SfsConfig::figure3(800.0, WritePolicy::Gathering)
        }
        .with_unified_cache(4096)
        .with_stability(StabilityMode::Unstable)
        .with_fault_plan(FaultPlan::new().at(
            SimTime::from_secs(6),
            FaultKind::BatteryFailure {
                repair_after: Duration::from_secs(6),
            },
        ));
        for (name, config) in [("lossy", lossy), ("crash", crash), ("battery", battery)] {
            assert_armed_settlement_matches_the_event_path(name, &config);
        }

        // A GETATTR on this idle server takes exactly `ROUND_TRIP`, so with
        // that timeout nearly every call's first reply lands at the very
        // instant of its retry check.  The check pops first and re-sends.
        const ROUND_TRIP: Duration = Duration::from_nanos(500_220);
        let mut tie = SfsConfig {
            duration: Duration::from_secs(10),
            file_count: 30,
            file_size: 64 * 1024,
            ..SfsConfig::figure2(20.0, WritePolicy::Gathering)
        }
        .with_loss(0.01)
        .with_retry(ROUND_TRIP, 8);
        tie.mix = SfsMix {
            getattr: 100.0,
            ..no_ops()
        };
        let settled = assert_armed_settlement_matches_the_event_path("tie", &tie);
        let (issued, _) = settled.counts();
        assert!(
            settled.retransmissions() > issued * 9 / 10,
            "{} of {issued} calls tied their check: has the GETATTR round trip moved?",
            settled.retransmissions()
        );
    }

    /// A mix of no operations, to set the ones a cell runs.
    fn no_ops() -> SfsMix {
        SfsMix {
            lookup: 0.0,
            read: 0.0,
            write: 0.0,
            getattr: 0.0,
            readdir: 0.0,
            create: 0.0,
            remove: 0.0,
            setattr: 0.0,
            statfs: 0.0,
        }
    }

    /// Run an armed `config` with its replies settled as shipped and as
    /// events, assert the two runs agree, and return the settled one.
    fn assert_armed_settlement_matches_the_event_path(name: &str, config: &SfsConfig) -> SfsSystem {
        assert!(config.faults_enabled(), "{name}");
        let (settled, settled_point) = run_with_replies_as_events(config, false);
        let (queued, queued_point) = run_with_replies_as_events(config, true);
        assert_eq!(
            format!("{settled_point:?}"),
            format!("{queued_point:?}"),
            "{name}"
        );
        assert_eq!(settled.counts(), queued.counts(), "{name}");
        assert!(settled.retransmissions() > 0, "{name}: no call was re-sent");
        assert_eq!(
            settled.retransmissions(),
            queued.retransmissions(),
            "{name}"
        );
        assert_eq!(settled.gave_up(), queued.gave_up(), "{name}");
        assert_eq!(settled.lease_counts(), queued.lease_counts(), "{name}");
        let residence = |s: &SfsSystem| {
            let r = &s.server().stats().residence;
            (r.mean(), r.percentile(99.0))
        };
        assert_eq!(residence(&settled), residence(&queued), "{name}");
        // Every settled reply is one delivery event the reference run
        // queued.  A settled call also leaves the level scans before its
        // reply would have landed, so a check that would only have found it
        // answered may never be queued; the checks that act are the same.
        let (ours, reference) = (&settled.harness.clients, &queued.harness.clients);
        assert!(ours.settled_replies > 0, "{name}");
        assert_eq!(reference.settled_replies, 0, "{name}");
        let saved = ours.settled_replies + reference.vain_checks - ours.vain_checks;
        let processed = queued.events_processed() - settled.events_processed();
        assert_eq!(processed, saved, "{name}");
        let scheduled = queued.scheduled_total() - settled.scheduled_total();
        assert_eq!(scheduled, saved, "{name}");
        settled
    }

    /// A crash about every `interval` until `horizon`, each drawn uniformly
    /// within half an interval of its slot.
    fn jittered_crashes(seed: u64, interval: Duration, horizon: Duration) -> FaultPlan {
        let mut rng = SimRng::seed_from(seed);
        let step = interval.as_nanos();
        (1..horizon.as_nanos() / step).fold(FaultPlan::new(), |plan, k| {
            let at = k * step - step / 2 + rng.next_below(step);
            plan.at(SimTime::from_nanos(at), FaultKind::ServerCrash)
        })
    }

    #[test]
    fn a_multi_client_run_reports_clean_counters() {
        let before = wg_nfsproto::payload::materialize_count();
        let mut system = SfsSystem::new(
            quick_config(300.0, WritePolicy::Gathering)
                .with_clients(2)
                .with_per_client_lans(true),
        );
        system.run();
        assert_eq!(wg_nfsproto::payload::materialize_count() - before, 0);
        assert_eq!(system.per_client_achieved_ops().len(), 2);
        assert!(system.fairness() > 0.8);
        let (issued, completed) = system.counts();
        assert!(completed > 0 && issued >= completed);
    }
}
