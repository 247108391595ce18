//! The NFS server state machine.
//!
//! One [`NfsServer`] owns everything that lives on the server host: the
//! filesystem, the storage stack, the CPU pool, the sharded request path and
//! the per-file gathering state.  The orchestrator feeds it arriving
//! datagrams and timer wake-ups ([`ServerInput`]) and receives the replies to
//! transmit plus the wake-ups to schedule ([`ServerAction`]).
//!
//! ## Sharding
//!
//! The request path is split into [`ServerConfig::shards`] independent
//! shards.  Each shard owns its own incoming socket queue, its own sub-pool
//! of nfsds and its own duplicate-request-cache partition; an arriving call
//! is routed to the shard of the inode its file handle names (`ino %
//! shards`), so everything keyed by inode — the per-file vnode records (lock
//! and gather batch), the socket-buffer scans of the mbuf hunter — stays
//! local to one shard.  The filesystem, the storage device and the CPU pool
//! ([`wg_simcore::MultiCpu`]) remain shared, as they are on a real multi-core
//! host.  With `shards = 1` and `cores = 1` the dispatch is byte-identical to
//! the paper's monolithic single-CPU server.
//!
//! All storage and CPU latencies are resolved *eagerly*: when an nfsd starts a
//! synchronous write at time `t`, the disk model immediately tells us when the
//! transfers will complete, so the nfsd's busy period and the reply time are
//! computed in one step and the only genuine asynchrony left is the
//! procrastination timer of the gathering policy (and the nfsd-free wake-ups
//! used to pull more work from the socket buffer).

use std::collections::BTreeSet;
use wg_simcore::FxHashMap;

use wg_disk::{BlockDevice, DeviceStats, Disk, DiskRequest, StripeSet};
use wg_net::SocketBuffer;
use wg_nfsproto::{
    CommitOk, DirOpOk, Fattr, NfsCall, NfsCallBody, NfsReply, NfsReplyBody, NfsStatus, ReadOk,
    RenewOk, StableHow, StatfsOk, StatusReply, WriteArgs, WriteVerfOk, Xid, NFS_MAXDATA,
};
use wg_nvram::Presto;
use wg_simcore::{Duration, MultiCpu, SimTime, Trace, TraceKind};
use wg_ufs::{FsyncFlags, InodeNumber, IoPlan, Ufs, WriteFlags, BLOCK_SIZE};

/// Clamp a 64-bit block count into a 32-bit protocol field.
fn saturate_u32(v: u64) -> u32 {
    v.min(u32::MAX as u64) as u32
}

/// Seed of the write/commit boot-instance verifier.  The live verifier is
/// this seed plus the crash count — a pure function of observable server
/// history, so replaying the same run mints the same verifiers.
const BOOT_VERIFIER_SEED: u64 = 0x1994_0606;

/// Pages one background write-behind pass drains from the unified cache
/// (64 × 8 KB = 512 KB, a few clustered transfers per pass).
const WRITEBACK_BATCH_PAGES: u64 = 64;

/// Interval between background write-behind passes over the unified cache's
/// dirty pages.  Each pass drains one batch through the storage stack (NVRAM
/// first when Presto is configured) and reschedules itself while dirty pages
/// remain.
const WRITEBACK_INTERVAL: Duration = Duration::from_millis(100);

/// How long a crashed server takes to boot before NVRAM recovery replay
/// begins (kernel boot + fsck of a clean journal + mount).
const REBOOT_TIME: Duration = Duration::from_secs(1);

use crate::config::{costs, ReplyOrder, ServerConfig, WritePolicy};
use crate::dupcache::{DupState, DuplicateRequestCache};
use crate::gather::{PendingWrite, Vnode};
use crate::handles::{attributes_to_fattr, fs_error_to_status, handle_for, ino_from_handle};
use crate::state::{ClientStateTable, StateStats};
use crate::stats::ServerStats;

/// Identifies a client host (index into the orchestrator's client table).
pub type ClientId = u32;

/// Inputs delivered to the server by the orchestrator.
#[derive(Clone, Debug)]
pub enum ServerInput {
    /// A datagram carrying one NFS call arrived at the server's NFS socket.
    Datagram {
        /// Which client sent it.
        client: ClientId,
        /// The call as a typed value: the harness hands it over without
        /// encoding it, and charges its `wire_size`.
        call: NfsCall,
        /// Its size on the wire (socket-buffer accounting).
        wire_size: usize,
        /// How many link-layer fragments it arrived in (per-fragment
        /// reassembly CPU cost).
        fragments: u32,
    },
    /// A timer previously requested via [`ServerAction::Wakeup`] fired.
    Wakeup {
        /// What to continue, as the server armed it.
        token: WakeToken,
    },
}

/// Outputs the orchestrator must act on.
#[derive(Clone, Debug)]
pub enum ServerAction {
    /// Schedule a [`ServerInput::Wakeup`] with this token at the given time.
    Wakeup {
        /// When to wake the server.
        at: SimTime,
        /// Token to echo back.
        token: WakeToken,
    },
    /// Transmit a reply to a client, starting at the given time.
    Reply {
        /// Time the reply is handed to the network.
        at: SimTime,
        /// Destination client.
        client: ClientId,
        /// The reply message.
        reply: NfsReply,
    },
}

/// A server timer: what to continue when it fires, and the boot instance
/// that armed it.  A crash forgets every continuation, so a token armed
/// before it is a no-op when it fires after the reboot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WakeToken {
    reason: WakeReason,
    /// The boot verifier of the instance that armed the timer.
    boot: u64,
}

/// What a server timer continues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WakeReason {
    /// An nfsd of the given shard became free; pull more work from that
    /// shard's socket queue.
    NfsdFree { shard: usize },
    /// A gathering nfsd's procrastination interval (or first-write latency
    /// window) expired for the given file.
    GatherContinue { nfsd: usize, ino: InodeNumber },
    /// The unified cache's background write-behind pass is due: drain one
    /// batch of dirty pages to stable storage and reschedule while dirty
    /// pages remain.
    Writeback,
}

/// The request an nfsd is serving: who sent it, under which xid, when it
/// arrived, and the nfsd answering it.
#[derive(Clone, Copy, Debug)]
struct Request {
    nfsd: usize,
    client: ClientId,
    xid: Xid,
    arrived: SimTime,
}

/// How one WRITE is served: the paper's write policy, or the NFSv3-style
/// stability routing in front of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WritePath {
    /// Data and metadata stable before the reply ([`WritePolicy::Standard`],
    /// and every `UNSTABLE` write the server cannot take lazily).
    Standard,
    /// Acknowledged from the unified cache with this boot's verifier.
    Unstable,
    /// [`WritePolicy::DangerousAsync`]: acknowledged from volatile memory.
    Dangerous,
    /// [`WritePolicy::Gathering`] and [`WritePolicy::FirstWriteLatency`].
    Gathering,
}

/// `(inode, logical block)`s acknowledged while their data was still
/// volatile: the debt a crash collects.
#[derive(Default)]
struct AckedBlocks(BTreeSet<(InodeNumber, u64)>);

/// The logical blocks that `len` bytes at `offset` touch.
fn touched_blocks(offset: u64, len: u64) -> std::ops::Range<u64> {
    match len {
        0 => 0..0,
        _ => offset / BLOCK_SIZE..(offset + len).div_ceil(BLOCK_SIZE),
    }
}

impl AckedBlocks {
    /// Record the blocks that `len` bytes at `offset` touch.
    fn record(&mut self, ino: InodeNumber, offset: u64, len: u64) {
        let lbns = touched_blocks(offset, len);
        self.0.extend(lbns.map(|lbn| (ino, lbn)));
    }

    /// Record the blocks of a stable reply's `len` bytes at `offset` that
    /// `fs` still holds dirty as the reply goes out: stability the reply
    /// promises and the data does not have.  Every stable-reply path calls
    /// this, so the crash oracle holds each policy to the rule, not only the
    /// one that breaks it by design.
    fn record_dirty(&mut self, fs: &Ufs, ino: InodeNumber, offset: u64, len: u64) {
        let lbns = touched_blocks(offset, len);
        let dirty = lbns.filter(|&lbn| fs.block_is_dirty(ino, lbn));
        self.0.extend(dirty.map(|lbn| (ino, lbn)));
    }

    /// Forget the blocks wholly or partly inside `[from, to)`: they are
    /// stable now.
    fn forget(&mut self, ino: InodeNumber, from: u64, to: u64) {
        let (first, last) = (from / BLOCK_SIZE, to.div_ceil(BLOCK_SIZE));
        self.0
            .retain(|&(i, lbn)| i != ino || lbn < first || lbn >= last);
    }

    /// Bytes of the recorded blocks that `fs` still holds dirty — what a
    /// crash at this instant loses — after which the ledger is empty.
    fn take_lost(&mut self, fs: &Ufs) -> u64 {
        let acked = std::mem::take(&mut self.0).into_iter();
        let dirty = acked.filter(|&(ino, lbn)| fs.block_is_dirty(ino, lbn));
        dirty.count() as u64 * BLOCK_SIZE
    }
}

/// A request sitting in the socket buffer.
#[derive(Clone, Debug)]
struct Incoming {
    client: ClientId,
    call: NfsCall,
    fragments: u32,
    arrived: SimTime,
}

/// Per-nfsd bookkeeping.
#[derive(Clone, Copy, Debug)]
struct Nfsd {
    free_at: SimTime,
    /// The shard whose queue this nfsd serves.
    shard: usize,
}

/// One shard of the request path: its own incoming queue and its own
/// duplicate-request-cache partition.  (Its nfsd sub-pool is the set of
/// [`Nfsd`]s whose `shard` field names it.)
struct Shard {
    sockbuf: SocketBuffer<Incoming>,
    dupcache: DuplicateRequestCache,
}

impl Shard {
    /// One of `shards` empty shards, at boot and after a crash.
    fn new(config: &ServerConfig, shards: usize) -> Self {
        // The dupcache entries and the socket-buffer memory are each one
        // machine-wide pool partitioned across the shards, not multiplied
        // by them: a sharded server must not buffer (and overload-delay)
        // four times as much traffic as the monolithic one just because
        // dispatch is split.  The floor keeps each shard able to hold at
        // least one full 8 KB write datagram (a shard that can't accept any
        // write would livelock its clients); with extreme shard counts over
        // a tiny pool the floor wins and the aggregate exceeds the
        // configured total.
        let sockbuf_bytes = (config.socket_buffer_bytes / shards).max(9 * 1024);
        Shard {
            sockbuf: SocketBuffer::with_capacity(sockbuf_bytes),
            dupcache: DuplicateRequestCache::new(config.dupcache_entries.max(1).div_ceil(shards)),
        }
    }
}

/// An active injected disk-degradation window: transfers submitted inside it
/// fail `retries` times, each failed attempt stalling the request by `stall`,
/// before the final attempt succeeds.
#[derive(Clone, Copy, Debug)]
struct DiskFault {
    from: SimTime,
    until: SimTime,
    stall: Duration,
    retries: u32,
}

/// The NFS server.
pub struct NfsServer {
    config: ServerConfig,
    fs: Ufs,
    device: Box<dyn BlockDevice>,
    cpu: MultiCpu,
    shards: Vec<Shard>,
    nfsds: Vec<Nfsd>,
    /// Every file's vnode lock and gather batch, kept until a crash.
    vnodes: FxHashMap<InodeNumber, Vnode>,
    stats: ServerStats,
    trace: Trace,
    /// Scratch buffer for the pipelined I/O loop's completion reap; reused
    /// across plans so the overlapped path stays allocation-free in steady
    /// state, like the rest of the hot loop.
    io_completions: Vec<SimTime>,
    /// While `now < recovering_until` the server is down (crashed, rebooting
    /// or replaying NVRAM) and every arriving datagram is dropped.
    recovering_until: SimTime,
    /// Logical blocks whose write was *acknowledged* as stable while the data
    /// was still volatile, recorded on every stable-reply path — by design
    /// only [`WritePolicy::DangerousAsync`] populates it.  The crash oracle
    /// walks it to count acknowledged-write loss.
    acked_volatile: AckedBlocks,
    /// Logical blocks acknowledged with `UNSTABLE` semantics and not yet
    /// covered by a COMMIT.  The crash oracle walks it to count the loss the
    /// NFSv3 contract *permits* ([`ServerStats::lost_unstable_bytes`]) —
    /// clients holding a mismatching verifier re-send this data.
    unstable_acked: AckedBlocks,
    /// The current boot instance's write verifier (changes on every crash).
    boot_verifier: u64,
    /// Whether the NVRAM battery is healthy (always true for plain disks).
    /// With Presto on a dead battery the server stops accepting `UNSTABLE`
    /// writes — like the real board it degrades to synchronous write-through
    /// rather than promising lazy stability it cannot deliver cheaply.
    battery_ok: bool,
    /// Whether a [`WakeReason::Writeback`] pass is already on the timer
    /// wheel (one pass in flight at a time keeps the drain rate equal to the
    /// configured interval).
    writeback_scheduled: bool,
    /// Active injected disk-degradation window, if any.
    disk_fault: Option<DiskFault>,
    /// Per-client leases, locks and grace-period recovery, filled by the
    /// RENEW and LOCK calls that arrive (empty while none do).
    state: ClientStateTable,
}

impl NfsServer {
    /// Build a server (filesystem, storage stack, nfsd pool) from a
    /// configuration.
    pub fn new(config: ServerConfig) -> Self {
        // A pipelined server also drains NVRAM with queued submission, so
        // Presto's background drains overlap spindles just like plan I/O.
        let device: Box<dyn BlockDevice> =
            match (config.storage.spindles, config.storage.prestoserve) {
                (1, false) => Box::new(Disk::rz26()),
                (1, true) => Box::new(Presto::new(Disk::rz26(), config.io_overlap)),
                (n, false) => Box::new(StripeSet::new(n)),
                (n, true) => Box::new(Presto::new(StripeSet::new(n), config.io_overlap)),
            };
        let shard_count = config.shards.max(1);
        // Every shard needs at least one nfsd; round-robin assignment keeps
        // the sub-pools balanced and, at shards = 1, reproduces the original
        // single pool (all nfsds on shard 0, lowest index preferred).
        let nfsd_count = config.nfsds.max(1).max(shard_count);
        let nfsds: Vec<Nfsd> = (0..nfsd_count)
            .map(|i| Nfsd {
                free_at: SimTime::ZERO,
                shard: i % shard_count,
            })
            .collect();
        let shards = (0..shard_count)
            .map(|_| Shard::new(&config, shard_count))
            .collect();
        NfsServer {
            cpu: MultiCpu::with_speed(config.cores.max(1), config.cpu_speed),
            fs: Ufs::new(1, config.fs),
            device,
            shards,
            nfsds,
            vnodes: FxHashMap::default(),
            stats: ServerStats::new(),
            trace: Trace::disabled(),
            io_completions: Vec::new(),
            recovering_until: SimTime::ZERO,
            acked_volatile: AckedBlocks::default(),
            unstable_acked: AckedBlocks::default(),
            boot_verifier: BOOT_VERIFIER_SEED,
            battery_ok: true,
            writeback_scheduled: false,
            disk_fault: None,
            state: ClientStateTable::new(shard_count, config.lease_duration, config.grace_period),
            config,
        }
    }

    /// Enable event tracing (used by the Figure 1 harness).
    pub fn enable_trace(&mut self) {
        self.trace = Trace::enabled();
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The server's filesystem (exports, test setup, read-back verification).
    pub fn fs(&self) -> &Ufs {
        &self.fs
    }

    /// Mutable access to the filesystem for experiment setup (pre-creating
    /// files outside the measured window).
    pub fn fs_mut(&mut self) -> &mut Ufs {
        &mut self.fs
    }

    /// The root directory's file handle, which clients obtain out of band (via
    /// the MOUNT protocol in real deployments).
    pub fn root_handle(&self) -> wg_nfsproto::FileHandle {
        handle_for(&self.fs, self.fs.root()).expect("root always exists")
    }

    /// Mint a handle for an inode created through [`NfsServer::fs_mut`].
    pub fn handle_for_ino(&self, ino: InodeNumber) -> Option<wg_nfsproto::FileHandle> {
        handle_for(&self.fs, ino).ok()
    }

    /// Server-side statistics.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Storage-device statistics (the "server disk" rows of the tables).
    pub fn device_stats(&self) -> DeviceStats {
        self.device.stats()
    }

    /// Per-spindle breakdown of the storage device's activity: one entry per
    /// member of a stripe set (a single entry for a lone disk), each with its
    /// own busy time and deepest observed queue.  The scale sweep records
    /// this so overlap wins show up as spindle utilisation.
    pub fn spindle_stats(&self) -> Vec<wg_disk::SpindleStats> {
        self.device.spindle_stats()
    }

    /// CPU utilisation percentage over an observed span.
    pub fn cpu_utilization_percent(&self, observed: Duration) -> f64 {
        self.cpu.utilization_percent(observed)
    }

    /// The number of datagrams dropped because a shard's socket buffer was
    /// full, over the whole run (crashes included).
    pub fn socket_drops(&self) -> u64 {
        self.stats.socket_drops
    }

    /// Number of request-path shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// `InProgress` duplicate-cache entries forcibly evicted under capacity
    /// pressure, over the whole run (crashes included).  Non-zero means a
    /// deferred gathered-write reply could have been orphaned (§6.9); the
    /// run audit asserts this stays zero.
    pub fn dupcache_evicted_in_progress(&self) -> u64 {
        self.stats.evicted_in_progress
    }

    /// Bytes of dirty, un-committed data currently in server memory.  For the
    /// policies that honour the NFS stable-storage rule this is transient
    /// (non-zero only while writes are in flight); for
    /// [`WritePolicy::DangerousAsync`] it grows without bound — which is what
    /// the crash-consistency tests assert.
    pub fn uncommitted_bytes(&self) -> u64 {
        self.fs.dirty_bytes()
    }

    /// Writes held in gather batches, their replies deferred to a metadata
    /// flush.  Non-zero only while an nfsd procrastinates on a batch or a
    /// queued WRITE for its file has been handed it; once the event queue
    /// has drained, every one counted is a reply no nfsd will ever send.
    pub fn held_gather_writes(&self) -> u64 {
        self.vnodes.values().map(|v| v.pending.len() as u64).sum()
    }

    /// The configuration the server was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Process one input, producing actions for the orchestrator.
    pub fn handle(&mut self, now: SimTime, input: ServerInput) -> Vec<ServerAction> {
        let mut actions = Vec::new();
        self.handle_into(now, input, &mut actions);
        actions
    }

    /// Process one input, appending actions to a caller-owned buffer.
    ///
    /// Orchestrators driving millions of events reuse one scratch vector
    /// across the whole run instead of allocating a fresh `Vec` per event —
    /// see the workload crate's `harness` loop.
    pub fn handle_into(
        &mut self,
        now: SimTime,
        input: ServerInput,
        actions: &mut Vec<ServerAction>,
    ) {
        match input {
            ServerInput::Datagram {
                client,
                call,
                wire_size,
                fragments,
            } => {
                self.on_datagram(now, client, call, wire_size, fragments, actions);
            }
            ServerInput::Wakeup { token } if token.boot == self.boot_verifier => {
                match token.reason {
                    WakeReason::NfsdFree { shard } => self.dispatch(now, shard, actions),
                    WakeReason::GatherContinue { nfsd, ino } => {
                        self.continue_gather(now, nfsd, ino, actions);
                    }
                    WakeReason::Writeback => self.background_writeback(now, actions),
                }
            }
            // Armed before a crash: the continuation died with it.
            ServerInput::Wakeup { .. } => {}
        }
    }

    /// The shard owning an inode's request state.
    fn shard_of_ino(&self, ino: InodeNumber) -> usize {
        (ino % self.shards.len() as u64) as usize
    }

    /// Route a call to a shard by the inode its file handle names.  The raw
    /// handle bytes are used (no staleness check), so a retransmission always
    /// lands on the same shard — and therefore the same dupcache partition —
    /// as the original, even if the file has since been removed.
    fn shard_of_call(&self, call: &NfsCall) -> usize {
        let handle = match &call.body {
            NfsCallBody::Write(a) => &a.file,
            NfsCallBody::Commit(a) => &a.file,
            NfsCallBody::Read(a) => &a.file,
            NfsCallBody::Getattr(a) | NfsCallBody::Statfs(a) => &a.file,
            NfsCallBody::Setattr(a) => &a.file,
            NfsCallBody::Lookup(a) | NfsCallBody::Remove(a) => &a.dir,
            NfsCallBody::Readdir(a) => &a.dir,
            NfsCallBody::Create(a) => &a.where_.dir,
            // State ops are routed by client, not inode: a client's lease,
            // locks and seqids live in the state-table shard `client_id %
            // shards`, and keeping its RENEW/LOCK stream on one dupcache
            // partition preserves the retransmission guarantees.
            NfsCallBody::Renew(a) => return a.client_id as usize % self.shards.len(),
            NfsCallBody::Lock(a) => return a.client_id as usize % self.shards.len(),
        };
        self.shard_of_ino(handle.inode())
    }

    fn on_datagram(
        &mut self,
        now: SimTime,
        client: ClientId,
        call: NfsCall,
        wire_size: usize,
        fragments: u32,
        actions: &mut Vec<ServerAction>,
    ) {
        // A crashed or recovering server hears nothing: the NIC is down and
        // the socket does not exist yet.  Clients find out via their
        // retransmission timeouts, exactly as with a lost datagram.
        if now < self.recovering_until {
            self.stats.dropped_during_recovery += 1;
            return;
        }
        // The detail strings are only built when tracing is on: the hot loop
        // must not pay a `format!` allocation per datagram.
        if self.trace.is_enabled() {
            self.trace.record(
                now,
                TraceKind::RequestArrived,
                format!("{:?} ({} bytes)", call.body.procedure(), wire_size),
            );
        }
        let shard = self.shard_of_call(&call);
        // Duplicate request handling happens before queueing, as the real
        // server does it in the dispatch path: drop in-progress duplicates,
        // answer completed ones from the cache.
        let dup = self.shards[shard].dupcache.lookup(client, call.xid);
        match dup {
            DupState::InProgress => {
                self.stats.duplicate_requests += 1;
                return;
            }
            DupState::Done(reply) => {
                self.stats.duplicate_requests += 1;
                let at = self.cpu.run(now, costs::REPLY_SEND);
                actions.push(ServerAction::Reply { at, client, reply });
                return;
            }
            DupState::New => {}
        }
        let incoming = Incoming {
            client,
            call,
            fragments,
            arrived: now,
        };
        if !self.shards[shard].sockbuf.offer(wire_size, incoming) {
            self.stats.socket_drops += 1;
            return;
        }
        self.dispatch(now, shard, actions);
    }

    /// Assign one shard's queued requests to its idle nfsds.
    fn dispatch(&mut self, now: SimTime, shard: usize, actions: &mut Vec<ServerAction>) {
        loop {
            if self.shards[shard].sockbuf.is_empty() {
                return;
            }
            let Some(nfsd) = self.find_idle_nfsd(shard, now) else {
                return;
            };
            let Some(incoming) = self.shards[shard].sockbuf.take() else {
                return;
            };
            self.process_request(now, nfsd, incoming, actions);
        }
    }

    /// The lowest-numbered idle nfsd of `shard`.  The constructor deals
    /// nfsds to shards round-robin, so the shard's own are `shard`, `shard +
    /// shards`, and so on.
    fn find_idle_nfsd(&self, shard: usize, now: SimTime) -> Option<usize> {
        (shard..self.nfsds.len())
            .step_by(self.shards.len())
            .find(|&i| self.nfsds[i].free_at <= now)
    }

    fn schedule_wakeup(&self, at: SimTime, reason: WakeReason, actions: &mut Vec<ServerAction>) {
        let boot = self.boot_verifier;
        let token = WakeToken { reason, boot };
        actions.push(ServerAction::Wakeup { at, token });
    }

    /// Mark an nfsd busy until `until` and arrange for its shard's dispatcher
    /// to run when it frees up.
    fn occupy_nfsd(&mut self, nfsd: usize, until: SimTime, actions: &mut Vec<ServerAction>) {
        self.nfsds[nfsd].free_at = until;
        let shard = self.nfsds[nfsd].shard;
        self.schedule_wakeup(until, WakeReason::NfsdFree { shard }, actions);
    }

    /// Answer `req` once its work is done at `done`, and keep its nfsd busy
    /// until the reply has gone out.
    fn reply_and_release(
        &mut self,
        done: SimTime,
        req: Request,
        body: NfsReplyBody,
        actions: &mut Vec<ServerAction>,
    ) {
        let reply_at = self.finish_reply(done, req, body, actions);
        self.occupy_nfsd(req.nfsd, reply_at, actions);
    }

    fn vnode_free(&self, ino: InodeNumber) -> SimTime {
        self.vnodes.get(&ino).map_or(SimTime::ZERO, |v| v.free_at)
    }

    /// The vnode of `ino`, made on first use.
    fn vnode(&mut self, ino: InodeNumber) -> &mut Vnode {
        self.vnodes.entry(ino).or_default()
    }

    fn process_request(
        &mut self,
        now: SimTime,
        nfsd: usize,
        incoming: Incoming,
        actions: &mut Vec<ServerAction>,
    ) {
        let Incoming {
            client,
            call,
            fragments,
            arrived,
        } = incoming;
        let shard = self.nfsds[nfsd].shard;
        let forced = self.shards[shard].dupcache.start(client, call.xid);
        self.stats.evicted_in_progress += u64::from(forced);
        // Per-fragment reassembly plus RPC dispatch.
        let cost = costs::PACKET_REASSEMBLY.saturating_mul(fragments as u64) + costs::RPC_DISPATCH;
        let t = self.cpu.run(now, cost);
        let req = Request {
            nfsd,
            client,
            xid: call.xid,
            arrived,
        };
        match call.body {
            NfsCallBody::Write(args) => self.handle_write(t, req, args, actions),
            other => self.handle_simple(t, req, other, actions),
        }
    }

    // ------------------------------------------------------------------
    // Non-write operations
    // ------------------------------------------------------------------

    fn handle_simple(
        &mut self,
        t: SimTime,
        req: Request,
        body: NfsCallBody,
        actions: &mut Vec<ServerAction>,
    ) {
        let now_nanos = t.as_nanos();
        let mut done = self.cpu.run(t, costs::LIGHTWEIGHT_OP);
        let reply_body = match body {
            NfsCallBody::Getattr(a) => {
                NfsReplyBody::Attr(match ino_from_handle(&self.fs, &a.file) {
                    Ok(ino) => self.fattr(ino),
                    Err(e) => StatusReply::Err(fs_error_to_status(e)),
                })
            }
            // The v2 statfs fields are 32-bit; a large configured
            // `data_capacity` overflows them, so the counts saturate instead
            // of wrapping (a wrapped `blocks` reads as a nearly empty disk).
            NfsCallBody::Statfs(_a) => NfsReplyBody::Statfs(StatusReply::Ok(StatfsOk {
                tsize: NFS_MAXDATA,
                bsize: BLOCK_SIZE as u32,
                blocks: saturate_u32(self.fs.total_block_count()),
                bfree: saturate_u32(self.fs.free_block_count()),
                bavail: saturate_u32(self.fs.free_block_count()),
            })),
            NfsCallBody::Lookup(a) => match ino_from_handle(&self.fs, &a.dir)
                .and_then(|dir| self.fs.lookup(dir, &a.name))
            {
                Ok(ino) => self.dirop(ino),
                Err(e) => NfsReplyBody::DirOp(StatusReply::Err(fs_error_to_status(e))),
            },
            NfsCallBody::Readdir(a) => {
                // The filesystem hands out an O(1) snapshot of its listing;
                // the reply (and any cached replay of it) shares its names.
                match ino_from_handle(&self.fs, &a.dir).and_then(|dir| self.fs.readdir(dir)) {
                    Ok(names) => NfsReplyBody::Readdir(StatusReply::Ok(names)),
                    Err(e) => NfsReplyBody::Readdir(StatusReply::Err(fs_error_to_status(e))),
                }
            }
            NfsCallBody::Setattr(a) => match ino_from_handle(&self.fs, &a.file).and_then(|ino| {
                let size = if a.attributes.size == u32::MAX {
                    None
                } else {
                    Some(a.attributes.size as u64)
                };
                let mode = if a.attributes.mode == u32::MAX {
                    None
                } else {
                    Some(a.attributes.mode)
                };
                self.fs.setattr(ino, mode, size, now_nanos)
            }) {
                Ok((attrs, plan)) => {
                    done = self.run_io_plan(done, plan.data.iter().chain(plan.metadata.iter()));
                    NfsReplyBody::Attr(StatusReply::Ok(attributes_to_fattr(self.fs.fsid(), &attrs)))
                }
                Err(e) => NfsReplyBody::Attr(StatusReply::Err(fs_error_to_status(e))),
            },
            NfsCallBody::Create(a) => {
                let mode = if a.attributes.mode == u32::MAX {
                    0o644
                } else {
                    a.attributes.mode
                };
                match ino_from_handle(&self.fs, &a.where_.dir)
                    .and_then(|dir| self.fs.create(dir, &a.where_.name, mode, now_nanos))
                {
                    Ok(ino) => {
                        // A create changes the directory and the new inode; both
                        // metadata updates must be stable before the reply.
                        let dir_ino = ino_from_handle(&self.fs, &a.where_.dir).expect("checked");
                        let mut plan = self
                            .fs
                            .fsync(dir_ino, FsyncFlags::MetadataOnly)
                            .unwrap_or_default();
                        if let Ok(p) = self.fs.fsync(ino, FsyncFlags::MetadataOnly) {
                            plan.extend(p);
                        }
                        done = self.run_io_plan(done, plan.data.iter().chain(plan.metadata.iter()));
                        self.dirop(ino)
                    }
                    Err(e) => NfsReplyBody::DirOp(StatusReply::Err(fs_error_to_status(e))),
                }
            }
            NfsCallBody::Remove(a) => match ino_from_handle(&self.fs, &a.dir)
                .and_then(|dir| self.fs.remove(dir, &a.name, now_nanos).map(|()| dir))
            {
                Ok(dir) => {
                    let plan = self
                        .fs
                        .fsync(dir, FsyncFlags::MetadataOnly)
                        .unwrap_or_default();
                    done = self.run_io_plan(done, plan.data.iter().chain(plan.metadata.iter()));
                    NfsReplyBody::Status(NfsStatus::Ok)
                }
                Err(e) => NfsReplyBody::Status(fs_error_to_status(e)),
            },
            NfsCallBody::Read(a) => match ino_from_handle(&self.fs, &a.file).and_then(|ino| {
                self.fs
                    .read(ino, a.offset as u64, a.count as u64)
                    .map(|r| (ino, r))
            }) {
                Ok((ino, outcome)) => {
                    // Charge the buffer-cache copy (the simulated uiomove —
                    // the real kernel copies even though the simulator no
                    // longer does) and any disk reads for missed blocks.
                    done = self.cpu.run(done, costs::copy(outcome.len() as u64));
                    done = self.run_io_plan(done, outcome.misses.iter());
                    // The payload rides the reply as-is: a fill pattern or a
                    // refcounted view of the buffer cache, never a fresh copy.
                    let data = outcome.data;
                    NfsReplyBody::Read(
                        self.fattr(ino)
                            .map(|attributes| ReadOk { attributes, data }),
                    )
                }
                Err(e) => NfsReplyBody::Read(StatusReply::Err(fs_error_to_status(e))),
            },
            // COMMIT: make a previously `UNSTABLE`-acknowledged range stable.
            // VOP_SYNCDATA over the range, one metadata flush, and the reply
            // carries the boot verifier the client compares against its
            // remembered write verifiers.  Committing already-stable data
            // (e.g. after write-behind drained it) finds nothing dirty and
            // replies at CPU speed.
            NfsCallBody::Commit(a) => match ino_from_handle(&self.fs, &a.file) {
                Ok(ino) => {
                    let from = a.offset as u64;
                    let to = if a.count == 0 {
                        u64::MAX
                    } else {
                        from + a.count as u64
                    };
                    done = done.max(self.vnode_free(ino));
                    done = self.cpu.run(done, costs::UFS_TRIP);
                    let data_plan = self.fs.sync_data(ino, from, to).unwrap_or_default();
                    let meta_plan = self
                        .fs
                        .fsync(ino, FsyncFlags::MetadataOnly)
                        .unwrap_or_default();
                    done = self.run_io_plan(done, data_plan.data.iter());
                    if !meta_plan.metadata.is_empty() {
                        done = self.run_io_plan(done, meta_plan.metadata.iter());
                        self.stats.metadata_flushes += 1;
                    }
                    self.vnode(ino).free_at = done;
                    self.stats.commits += 1;
                    self.unstable_acked.forget(ino, from, to);
                    let verf = self.boot_verifier;
                    NfsReplyBody::Commit(
                        self.fattr(ino)
                            .map(|attributes| CommitOk { attributes, verf }),
                    )
                }
                Err(e) => NfsReplyBody::Commit(StatusReply::Err(fs_error_to_status(e))),
            },
            // Client-state ops (lease renewal and byte-range locks).  Both
            // are pure table operations at lightweight-op CPU cost —
            // no storage I/O, matching lockd/statd behaviour.  Only clients
            // that send them ever enter the table.
            NfsCallBody::Renew(a) => {
                let in_grace = self.state.renew(a.client_id, a.verifier, t);
                NfsReplyBody::Renew(StatusReply::Ok(RenewOk {
                    verf: self.boot_verifier,
                    in_grace,
                }))
            }
            NfsCallBody::Lock(a) => match self.state.lock(&a, t) {
                Ok(ok) => NfsReplyBody::Lock(StatusReply::Ok(ok)),
                Err(status) => NfsReplyBody::Lock(StatusReply::Err(status)),
            },
            NfsCallBody::Write(_) => unreachable!("writes are handled by handle_write"),
        };
        self.stats.other_ops_completed.record(0);
        self.reply_and_release(done, req, reply_body, actions);
    }

    /// The attributes a reply carries for `ino`.
    fn fattr(&self, ino: InodeNumber) -> StatusReply<Fattr> {
        match self.fs.getattr(ino) {
            Ok(attrs) => StatusReply::Ok(attributes_to_fattr(self.fs.fsid(), &attrs)),
            Err(e) => StatusReply::Err(fs_error_to_status(e)),
        }
    }

    /// The LOOKUP or CREATE reply naming `ino`.
    fn dirop(&self, ino: InodeNumber) -> NfsReplyBody {
        NfsReplyBody::DirOp(match (handle_for(&self.fs, ino), self.fattr(ino)) {
            (Ok(file), StatusReply::Ok(attributes)) => {
                StatusReply::Ok(DirOpOk { file, attributes })
            }
            _ => StatusReply::Err(NfsStatus::Io),
        })
    }

    /// The WRITE reply carrying `attrs`: the v3-style verifier reply, saying
    /// the data is `committed`, when the client asked for `UNSTABLE`, and the
    /// plain v2 attribute reply otherwise.
    fn write_verf(
        &self,
        args: &WriteArgs,
        attrs: StatusReply<Fattr>,
        committed: StableHow,
    ) -> NfsReplyBody {
        if args.stable_how() != StableHow::Unstable {
            return NfsReplyBody::Attr(attrs);
        }
        let verf = self.boot_verifier;
        NfsReplyBody::WriteVerf(attrs.map(|attributes| WriteVerfOk {
            attributes,
            committed,
            verf,
        }))
    }

    /// The CPU cost of handing one transfer to the storage driver.
    /// Accelerated filesystems pay the Presto driver entry plus the CPU copy
    /// of the payload into NVRAM; plain disks only pay the driver setup (the
    /// data moves by DMA).
    fn driver_trip_cost(&self, req: &DiskRequest) -> Duration {
        if self.config.storage.prestoserve {
            costs::DRIVER_TRIP + costs::PRESTO_TRIP + costs::copy(req.len)
        } else {
            costs::DRIVER_TRIP
        }
    }

    fn trace_data_to_disk(&mut self, submit_at: SimTime, req: &DiskRequest) {
        if self.trace.is_enabled() {
            let kind = if req.kind == wg_disk::IoKind::Write {
                "write"
            } else {
                "read"
            };
            self.trace.record(
                submit_at,
                TraceKind::DataToDisk,
                format!("{kind} {} bytes @ {}", req.len, req.addr),
            );
        }
    }

    /// Execute a sequence of device requests, charging the driver setup and
    /// interrupt handling to the CPU.  Returns the time everything is stable.
    ///
    /// With [`ServerConfig::io_overlap`] off this is the paper's serial
    /// driver: each transfer's setup, device service and completion
    /// interrupt chain on the previous transfer's completion.  With it on,
    /// the plan is *pipelined* (see [`NfsServer::run_io_plan_pipelined`]).
    ///
    /// These costs are accounted with [`MultiCpu::run_overlapped`] rather
    /// than the serialising [`MultiCpu::run`]: the transfers complete at
    /// simulated times in the *future* relative to the event being
    /// processed, and letting them reserve the serial CPU ahead of time
    /// would head-of-line block requests that in reality would have been
    /// dispatched in between.  Utilisation accounting is unaffected.
    fn run_io_plan<'a>(
        &mut self,
        start: SimTime,
        reqs: impl Iterator<Item = &'a DiskRequest>,
    ) -> SimTime {
        if self.config.io_overlap {
            return self.run_io_plan_pipelined(start, reqs);
        }
        let mut done = start;
        for req in reqs {
            let trip = self.driver_trip_cost(req);
            let issue_at = self.cpu.run_overlapped(done, trip);
            let submit_at = self.disk_fault_delay(issue_at);
            let io_done = self.device.submit(submit_at, *req);
            done = self.cpu.run_overlapped(io_done, costs::INTERRUPT);
            self.trace_data_to_disk(submit_at, req);
        }
        done
    }

    /// The pipelined issue loop: pay the driver/Presto trips back-to-back to
    /// *enqueue* every transfer of the plan onto its spindle's own FIFO
    /// queue ([`BlockDevice::submit`]), then reap completions in
    /// completion order.  Each transfer still costs one interrupt, but a
    /// completion landing while the CPU is finishing the previous handler is
    /// serviced back-to-back — the natural interrupt coalescing of a busy
    /// driver.  Transfers of one plan thus overlap on independent spindles,
    /// and a shard's WRITE no longer idles the device while the CPU sets up
    /// the next transfer.
    fn run_io_plan_pipelined<'a>(
        &mut self,
        start: SimTime,
        reqs: impl Iterator<Item = &'a DiskRequest>,
    ) -> SimTime {
        let mut completions = std::mem::take(&mut self.io_completions);
        completions.clear();
        let mut submit_clock = start;
        for req in reqs {
            let trip = self.driver_trip_cost(req);
            submit_clock = self.cpu.run_overlapped(submit_clock, trip);
            let submit_at = self.disk_fault_delay(submit_clock);
            let io_done = self.device.submit(submit_at, *req);
            completions.push(io_done);
            self.trace_data_to_disk(submit_at, req);
        }
        completions.sort_unstable();
        let mut done = submit_clock;
        for &io_done in completions.iter() {
            done = self.cpu.run_overlapped(done.max(io_done), costs::INTERRUPT);
        }
        self.io_completions = completions;
        done
    }

    /// Build the reply, charge the send cost, record statistics and hand the
    /// reply to the orchestrator.  The request's `nfsd` names the thread
    /// completing it; its shard's dupcache partition — the one that routed
    /// the call — records the reply.
    fn finish_reply(
        &mut self,
        done: SimTime,
        req: Request,
        body: NfsReplyBody,
        actions: &mut Vec<ServerAction>,
    ) -> SimTime {
        // Reply construction usually happens right after an I/O completion,
        // i.e. in this event's future; account the cost without reserving the
        // serial CPU ahead of other requests (see `run_io_plan`).
        let at = self.cpu.run_overlapped(done, costs::REPLY_SEND);
        let reply = NfsReply::new(req.xid, body);
        // Cloning the reply for the cache shares the payload (Payload is
        // either a pattern or an Arc), so this is cheap even for READ data.
        let shard = self.nfsds[req.nfsd].shard;
        let dupcache = &mut self.shards[shard].dupcache;
        let forced = dupcache.complete(req.client, req.xid, reply.clone());
        self.stats.evicted_in_progress += u64::from(forced);
        self.stats.replies_sent += 1;
        self.stats.residence.record(at.since(req.arrived));
        self.trace.record(at, TraceKind::ReplySent, "");
        let client = req.client;
        actions.push(ServerAction::Reply { at, client, reply });
        at
    }

    // ------------------------------------------------------------------
    // The write path
    // ------------------------------------------------------------------

    fn handle_write(
        &mut self,
        t: SimTime,
        req: Request,
        args: WriteArgs,
        actions: &mut Vec<ServerAction>,
    ) {
        let ino = match ino_from_handle(&self.fs, &args.file) {
            Ok(ino) => ino,
            Err(e) => {
                let body = NfsReplyBody::Attr(StatusReply::Err(fs_error_to_status(e)));
                self.reply_and_release(t, req, body, actions);
                return;
            }
        };
        // A batch no nfsd procrastinates on was handed to the next WRITE
        // for its file (the mbuf hunter saw one queued): this one.  On the
        // gathering path the write joins the batch and takes it over; on any
        // other exit it flushes the batch once it has replied.
        let handed_batch = self.vnodes.get(&ino).is_some_and(Vnode::handed_off);
        let joined = self.route_write(t, req, ino, &args, actions);
        if handed_batch && !joined {
            let nfsd = req.nfsd;
            self.flush_gathered(self.nfsds[nfsd].free_at, nfsd, ino, actions);
        }
    }

    /// Serve a WRITE to `ino` on its path.  Returns whether it joined the
    /// file's gather batch, which only a write reaching the gathering path
    /// does.
    fn route_write(
        &mut self,
        t: SimTime,
        req: Request,
        ino: InodeNumber,
        args: &WriteArgs,
        actions: &mut Vec<ServerAction>,
    ) -> bool {
        // Lease gate: a *registered* client whose lease has expired had its
        // state revoked, and its writes are refused with `Expired` until it
        // re-registers (unregistered clients keep writing statelessly, as in
        // plain v2).
        if !self.state.write_admitted(req.client, t) {
            let body = NfsReplyBody::Attr(StatusReply::Err(NfsStatus::Expired));
            self.reply_and_release(t, req, body, actions);
            return false;
        }
        // NFSv3-style stability routing rides in front of the paper's policy
        // dispatch: a WRITE marked `UNSTABLE` goes to the unified cache and
        // is acknowledged with a verifier — unless the server has no cheap
        // stable destination to lazily drain it to, in which case it promotes
        // the request to FILE_SYNC (the reply says so via `committed`).
        // Clients that never mark writes unstable (the default, and all of
        // the paper's experiments) take the original paths untouched.
        let path = match (args.stable_how(), self.config.policy) {
            (StableHow::Unstable, _) if self.unstable_write_allowed() => WritePath::Unstable,
            (StableHow::Unstable, _) => {
                self.stats.forced_file_sync += 1;
                WritePath::Standard
            }
            (_, WritePolicy::Standard) => WritePath::Standard,
            (_, WritePolicy::DangerousAsync) => WritePath::Dangerous,
            (_, WritePolicy::Gathering | WritePolicy::FirstWriteLatency) => WritePath::Gathering,
        };
        let Some((t1, io)) = self.vop_write(t, req, ino, args, path, actions) else {
            return false;
        };
        match path {
            WritePath::Standard => self.standard_write(t1, io, req, ino, args, actions),
            WritePath::Unstable => self.unstable_write(t1, io, req, ino, args, actions),
            WritePath::Dangerous => self.dangerous_write(t1, io, req, ino, args, actions),
            WritePath::Gathering => self.gathering_write(t1, io, req, ino, args, actions),
        }
        path == WritePath::Gathering
    }

    /// Whether the server will honour `UNSTABLE` semantics right now.  Needs
    /// the unified cache (the write-behind machinery) and, when an NVRAM
    /// board is the drain target, a healthy battery — a dead battery leaves
    /// write-through as the only stable path, so the server degrades to
    /// synchronous FILE_SYNC exactly as the real board does.
    fn unstable_write_allowed(&self) -> bool {
        self.fs.cache_armed() && (self.battery_ok || !self.config.storage.prestoserve)
    }

    /// VOP_WRITE, the step every write path shares: wait for the vnode lock
    /// (dangerous mode never takes it), charge the copy plus the path's
    /// bookkeeping in one CPU step, and hand the data to UFS.  Returns when
    /// the copy is done and the I/O UFS left to run, having counted the
    /// write; on an error the nfsd has already replied and `None` comes
    /// back.
    fn vop_write(
        &mut self,
        t: SimTime,
        req: Request,
        ino: InodeNumber,
        args: &WriteArgs,
        path: WritePath,
        actions: &mut Vec<ServerAction>,
    ) -> Option<(SimTime, IoPlan)> {
        let (flags, extra) = match path {
            WritePath::Standard => (WriteFlags::Sync, Duration::ZERO),
            WritePath::Unstable | WritePath::Dangerous => (WriteFlags::DelayData, Duration::ZERO),
            // Accelerated filesystems take gathered data synchronously (it
            // lands in NVRAM); plain disks keep it delayed in the cache so
            // the later flush can cluster it.
            WritePath::Gathering if self.config.storage.prestoserve => {
                (WriteFlags::SyncDataOnly, costs::GATHER_BOOKKEEPING)
            }
            WritePath::Gathering => (WriteFlags::DelayData, costs::GATHER_BOOKKEEPING),
        };
        let start = match path {
            WritePath::Dangerous => t,
            _ => t.max(self.vnode_free(ino)),
        };
        let copy = costs::copy(args.data.len() as u64);
        let t1 = self.cpu.run(start, costs::UFS_TRIP + copy + extra);
        let offset = args.offset as u64;
        match self.fs.write(ino, offset, &args.data, flags, t1.as_nanos()) {
            Ok(out) => {
                self.stats.writes_completed.record(args.data.len() as u64);
                Some((t1, out.io))
            }
            Err(e) => {
                let status = StatusReply::Err(fs_error_to_status(e));
                let body = self.write_verf(args, status, StableHow::FileSync);
                self.reply_and_release(t1, req, body, actions);
                None
            }
        }
    }

    /// The baseline path: commit data and metadata synchronously under the
    /// vnode lock, then reply.  A promoted `UNSTABLE` request gets the
    /// v3-style reply saying `FILE_SYNC`, so the client learns no COMMIT is
    /// needed.
    fn standard_write(
        &mut self,
        t1: SimTime,
        io: IoPlan,
        req: Request,
        ino: InodeNumber,
        args: &WriteArgs,
        actions: &mut Vec<ServerAction>,
    ) {
        let done = self.run_io_plan(t1, io.data.iter().chain(io.metadata.iter()));
        if !io.metadata.is_empty() {
            self.trace
                .record(done, TraceKind::MetadataToDisk, "inode/indirect");
            self.stats.metadata_flushes += 1;
        }
        self.vnode(ino).free_at = done;
        let (offset, len) = (args.offset as u64, args.data.len() as u64);
        self.acked_volatile.record_dirty(&self.fs, ino, offset, len);
        self.stats.write_residence.record(done.since(req.arrived));
        let body = self.write_verf(args, self.fattr(ino), StableHow::FileSync);
        self.reply_and_release(done, req, body, actions);
    }

    /// The NFSv3-style unstable path: land the data in the unified cache,
    /// acknowledge immediately with this boot's verifier, and let write-behind
    /// (or the client's COMMIT) make it stable.  The only I/O an unstable
    /// write ever pays inline is the dirty-ratio throttle's forced writeback
    /// — the writer drains part of the backlog it helped create, which *is*
    /// the memory-pressure stall the bench measures.
    fn unstable_write(
        &mut self,
        t1: SimTime,
        io: IoPlan,
        req: Request,
        ino: InodeNumber,
        args: &WriteArgs,
        actions: &mut Vec<ServerAction>,
    ) {
        let done = self.run_io_plan(t1, io.data.iter());
        self.vnode(ino).free_at = done;
        let (offset, len) = (args.offset as u64, args.data.len() as u64);
        self.unstable_acked.record(ino, offset, len);
        self.stats.unstable_writes += 1;
        self.stats.write_residence.record(done.since(req.arrived));
        let body = self.write_verf(args, self.fattr(ino), StableHow::Unstable);
        self.reply_and_release(done, req, body, actions);
        self.ensure_writeback_scheduled(done, actions);
    }

    /// Put a write-behind pass on the timer wheel unless one is already
    /// pending or there is nothing dirty to drain.
    fn ensure_writeback_scheduled(&mut self, now: SimTime, actions: &mut Vec<ServerAction>) {
        if !self.fs.cache_armed() || self.writeback_scheduled || self.fs.dirty_resident_pages() == 0
        {
            return;
        }
        self.writeback_scheduled = true;
        self.schedule_wakeup(now + WRITEBACK_INTERVAL, WakeReason::Writeback, actions);
    }

    /// One background write-behind pass: drain a batch of the oldest dirty
    /// pages through the storage stack (NVRAM first when Presto is
    /// configured) and reschedule while dirty pages remain.
    fn background_writeback(&mut self, now: SimTime, actions: &mut Vec<ServerAction>) {
        self.writeback_scheduled = false;
        if !self.fs.cache_armed() {
            return;
        }
        let reqs = self.fs.writeback_batch(WRITEBACK_BATCH_PAGES);
        self.run_io_plan(now, reqs.iter());
        self.ensure_writeback_scheduled(now, actions);
    }

    /// "Dangerous mode": reply as soon as the data is in volatile memory.
    fn dangerous_write(
        &mut self,
        t1: SimTime,
        io: IoPlan,
        req: Request,
        ino: InodeNumber,
        args: &WriteArgs,
        actions: &mut Vec<ServerAction>,
    ) {
        // Only a dirty-ratio throttle (unified cache armed) ever puts I/O on
        // a delayed write's plan; run it so blocks the cache marked clean
        // really reached the device.
        self.run_io_plan(t1, io.data.iter());
        let (offset, len) = (args.offset as u64, args.data.len() as u64);
        self.stats.write_residence.record(t1.since(req.arrived));
        // The reply about to go out promises stability the data does not
        // have; remember which blocks the crash oracle must check.
        self.acked_volatile.record_dirty(&self.fs, ino, offset, len);
        let body = NfsReplyBody::Attr(self.fattr(ino));
        self.reply_and_release(t1, req, body, actions);
    }

    /// The gathering path (§6.8), also used — with the latency window replaced
    /// by the first write's own data transfer — for the \[SIVA93\] comparison
    /// policy.
    fn gathering_write(
        &mut self,
        t1: SimTime,
        io: IoPlan,
        req: Request,
        ino: InodeNumber,
        args: &WriteArgs,
        actions: &mut Vec<ServerAction>,
    ) {
        let nfsd = req.nfsd;
        let (offset, len) = (args.offset as u64, args.data.len() as u64);
        // For the accelerated path the data goes to NVRAM right now.
        let mut t2 = self.run_io_plan(t1, io.data.iter());
        // Queue this write's descriptor.
        let vnode = self.vnode(ino);
        vnode.free_at = t2;
        vnode.pending.push(PendingWrite {
            client: req.client,
            xid: req.xid,
            offset,
            len,
            arrived: req.arrived,
        });
        let procrastinating = vnode.procrastinating;

        // Can we leave the metadata update to somebody else: an nfsd
        // procrastinating on this file, or (the mbuf hunter) the nfsd that
        // will serve a follow-on write already waiting in the socket buffer?
        let handoff = if procrastinating {
            Some("joined existing gather")
        } else if self.config.mbuf_hunter {
            t2 = self.cpu.run(t2, costs::MBUF_HUNT);
            let found = self.socket_buffer_has_write_for(ino);
            found.then_some("mbuf hunter found follow-on write")
        } else {
            None
        };
        if let Some(how) = handoff {
            self.stats.writes_gathered += 1;
            self.trace.record(t2, TraceKind::ReplyDeferred, how);
            self.occupy_nfsd(nfsd, t2, actions);
            return;
        }

        // Nobody to hand off to: take responsibility.
        self.vnode(ino).procrastinating = true;
        let wake_at = match self.config.policy {
            WritePolicy::FirstWriteLatency => {
                // [SIVA93]: flush this write's own data immediately; its disk
                // time is the window in which other writes may arrive.
                let own_plan = self
                    .fs
                    .sync_data(ino, offset, offset + len)
                    .unwrap_or_default();
                let window_end = self.run_io_plan(t2, own_plan.data.iter());
                self.trace
                    .record(t2, TraceKind::Procrastinate, "first-write latency window");
                window_end
            }
            _ => {
                // The paper's procrastination: sleep for a transport-dependent
                // interval hoping company arrives.
                if self.trace.is_enabled() {
                    self.trace.record(
                        t2,
                        TraceKind::Procrastinate,
                        format!("{} procrastination", self.config.procrastination),
                    );
                }
                t2 + self.config.procrastination
            }
        };
        self.nfsds[nfsd].free_at = wake_at;
        self.schedule_wakeup(wake_at, WakeReason::GatherContinue { nfsd, ino }, actions);
    }

    fn socket_buffer_has_write_for(&self, ino: InodeNumber) -> bool {
        // All writes to this inode were routed to its shard, so one shard's
        // queue is the only place a follow-on write can be waiting.
        let shard = self.shard_of_ino(ino);
        self.shards[shard]
            .sockbuf
            .scan()
            .any(|inc| match &inc.call.body {
                NfsCallBody::Write(w) => ino_from_handle(&self.fs, &w.file)
                    .map(|i| i == ino)
                    .unwrap_or(false),
                _ => false,
            })
    }

    /// The procrastinating nfsd's continuation: its procrastination (or
    /// first-write latency window) ended; decide whether to hand off once more
    /// or to become the metadata writer.  The vnode exists: only a crash
    /// drops vnodes, and a crash voids this wake-up.
    fn continue_gather(
        &mut self,
        now: SimTime,
        nfsd: usize,
        ino: InodeNumber,
        actions: &mut Vec<ServerAction>,
    ) {
        // Did company arrive while we slept?
        if self.vnode(ino).pending.len() > 1 {
            self.stats.procrastination_hits += 1;
        } else {
            self.stats.procrastination_misses += 1;
        }
        // One more chance to hand off: if the socket buffer already holds a
        // follow-on write for this file, the nfsd that will serve it can do
        // the flush and cover our batch too.
        if self.config.mbuf_hunter && self.socket_buffer_has_write_for(ino) {
            self.vnode(ino).procrastinating = false;
            self.nfsds[nfsd].free_at = now;
            let shard = self.nfsds[nfsd].shard;
            self.dispatch(now, shard, actions);
            return;
        }
        self.flush_gathered(now, nfsd, ino, actions);
    }

    /// Become the metadata writer: flush gathered data, flush metadata once,
    /// send every pending reply.
    fn flush_gathered(
        &mut self,
        now: SimTime,
        nfsd: usize,
        ino: InodeNumber,
        actions: &mut Vec<ServerAction>,
    ) {
        let vnode = self.vnode(ino);
        // Writes that arrive from here on start the next batch.
        vnode.procrastinating = false;
        let (mut batch, from, to) = vnode.take_batch();
        if batch.is_empty() {
            self.nfsds[nfsd].free_at = now;
            let shard = self.nfsds[nfsd].shard;
            self.dispatch(now, shard, actions);
            return;
        }
        // VOP_SYNCDATA with the gathered range as a hint, then VOP_FSYNC for
        // the metadata.  Both are skipped naturally when the data already went
        // to NVRAM (sync_data finds nothing dirty).
        let t1 = self.cpu.run(now, costs::UFS_TRIP);
        let data_plan = self.fs.sync_data(ino, from, to).unwrap_or_default();
        let meta_plan = self
            .fs
            .fsync(ino, FsyncFlags::MetadataOnly)
            .unwrap_or_default();
        let mut done = self.run_io_plan(t1, data_plan.data.iter());
        if !meta_plan.metadata.is_empty() {
            done = self.run_io_plan(done, meta_plan.metadata.iter());
            self.trace
                .record(done, TraceKind::MetadataToDisk, "gathered metadata flush");
        }
        self.stats.record_batch(batch.len());

        // Send the pending replies.  FIFO is arrival order (the order they
        // were pushed); LIFO reverses it.
        if self.config.reply_order == ReplyOrder::Lifo {
            batch.reverse();
        }
        let fattr = self.fattr(ino);
        for w in batch {
            self.stats.write_residence.record(done.since(w.arrived));
            self.acked_volatile
                .record_dirty(&self.fs, ino, w.offset, w.len);
            let req = Request {
                nfsd,
                client: w.client,
                xid: w.xid,
                arrived: w.arrived,
            };
            done = self.finish_reply(done, req, NfsReplyBody::Attr(fattr.clone()), actions);
        }
        self.occupy_nfsd(nfsd, done, actions);
    }

    /// Drive the server alone through a script: deliver each input at its
    /// time (same-instant inputs in order), run the server's own wake-ups
    /// until none remain, and return every reply with the time it was handed
    /// to the network.  The whole-system counterpart, with clients and a
    /// network, is the workload harness.
    pub fn run_script(
        &mut self,
        inputs: impl IntoIterator<Item = (SimTime, ServerInput)>,
    ) -> Vec<(SimTime, NfsReply)> {
        let mut queue = wg_simcore::EventQueue::new();
        for (t, input) in inputs {
            queue.schedule_at(t, input);
        }
        let mut actions = Vec::new();
        let mut replies = Vec::new();
        while let Some((t, input)) = queue.pop() {
            self.handle_into(t, input, &mut actions);
            for action in actions.drain(..) {
                match action {
                    ServerAction::Wakeup { at, token } => {
                        queue.schedule_at(at, ServerInput::Wakeup { token });
                    }
                    ServerAction::Reply { at, reply, .. } => replies.push((at, reply)),
                }
            }
        }
        replies
    }

    /// Force any still-deferred state out to stable storage (used at the end
    /// of an experiment and by tests).  Returns the time everything is stable.
    pub fn quiesce(&mut self, now: SimTime, actions: &mut Vec<ServerAction>) -> SimTime {
        let pending = self.vnodes.iter().filter(|(_, v)| !v.pending.is_empty());
        let inos: Vec<InodeNumber> = pending.map(|(&ino, _)| ino).collect();
        let mut done = now;
        for ino in inos {
            // Flush on the owning shard's first nfsd, which round-robin
            // dealing numbers as the shard (nfsd 0 in the unsharded
            // configuration, exactly as before).
            let nfsd = self.shard_of_ino(ino);
            self.flush_gathered(now, nfsd, ino, actions);
            done = done.max(self.nfsds[nfsd].free_at);
        }
        // Drain whatever the unified cache still holds dirty (unstable data
        // no COMMIT covered); with the cache disarmed the batch is empty.
        if self.fs.cache_armed() {
            let reqs = self.fs.writeback_batch(u64::MAX);
            done = done.max(self.run_io_plan(now, reqs.iter()));
        }
        done.max(self.device.free_at())
    }

    /// The current boot instance's write/commit verifier (clients obtain
    /// the live value from replies; this accessor is for assertions).
    #[cfg(test)]
    fn boot_verifier(&self) -> u64 {
        self.boot_verifier
    }

    // ------------------------------------------------------------------
    // Fault injection: crash/reboot, battery failure, disk degradation
    // ------------------------------------------------------------------

    /// The server is unreachable until this time (always in the past unless
    /// a fault plan crashed it).
    #[cfg(test)]
    fn recovering_until(&self) -> SimTime {
        self.recovering_until
    }

    /// Bytes the storage stack has acknowledged as stable but not yet put on
    /// the final medium (a battery-backed accelerator's contents; zero for a
    /// plain disk).
    pub fn pending_stable_bytes(&self) -> u64 {
        self.device.pending_stable_bytes()
    }

    /// Crash the server at `now` and model its reboot.
    ///
    /// Everything volatile dies: the shards' socket buffers and duplicate
    /// request caches, the vnodes (locks and gather batches), pending timer
    /// continuations and the nfsds' in-flight work.  Before discarding the
    /// buffer cache, the recovery oracle walks every block a reply promised
    /// was stable while it was still volatile (by design, only dangerous
    /// mode's debt) and counts the ones that die with the crash into
    /// [`ServerStats::lost_acked_bytes`].  Battery-backed NVRAM survives and
    /// is replayed to disk ([`BlockDevice::crash_recover`]) during the boot
    /// window; the server accepts no traffic until the later of a one-second
    /// boot and the replay's completion, which is returned.
    pub fn crash(&mut self, now: SimTime) -> SimTime {
        self.stats.crashes += 1;
        // --- Recovery oracle bookkeeping -------------------------------
        self.stats.lost_acked_bytes += self.acked_volatile.take_lost(&self.fs);
        // Unstable-acked data dying with the crash is loss the protocol
        // *permits*: counted separately, and the verifier change below is
        // what tells clients to re-send it.
        self.stats.lost_unstable_bytes += self.unstable_acked.take_lost(&self.fs);
        // The new boot verifier also turns every pending wake-up (ends of
        // procrastination, nfsd-free dispatches, write-behind) into a no-op.
        self.boot_verifier = BOOT_VERIFIER_SEED.wrapping_add(self.stats.crashes);
        self.writeback_scheduled = false;
        // --- Discard volatile state ------------------------------------
        self.stats.discarded_dirty_bytes += self.fs.crash_discard_volatile();
        self.vnodes.clear();
        let shard_count = self.shards.len();
        for shard in self.shards.iter_mut() {
            *shard = Shard::new(&self.config, shard_count);
        }
        // --- Boot + NVRAM recovery replay ------------------------------
        let replay_done = self.device.crash_recover(now);
        let recovered = (now + REBOOT_TIME).max(replay_done);
        debug_assert_eq!(
            self.device.pending_stable_bytes(),
            0,
            "recovery replay left acknowledged data off the medium"
        );
        for nfsd in self.nfsds.iter_mut() {
            nfsd.free_at = recovered;
        }
        self.recovering_until = recovered;
        // Client state is volatile too: held locks move into the reclaimable
        // image, records die, and the grace window opens once the server is
        // back.  A no-op on an empty table.
        self.state.crash(recovered);
        recovered
    }

    /// Expire every lease older than `now` (see [`ClientStateTable::sweep`]).
    /// Drivers call this at end of run so leases abandoned mid-run (e.g. by
    /// clients that gave up retransmitting) are reclaimed deterministically.
    pub fn expire_leases(&mut self, now: SimTime) {
        self.state.sweep(now);
    }

    /// Counters of the client-state layer.
    pub fn state_stats(&self) -> &StateStats {
        self.state.stats()
    }

    /// Bytes of memory the client-state table currently pins.
    pub fn state_table_bytes(&self) -> u64 {
        self.state.table_bytes()
    }

    /// Registered clients with live leases.
    pub fn active_lease_clients(&self) -> usize {
        self.state.active_clients()
    }

    /// Byte-range locks currently held across all clients.
    pub fn held_locks(&self) -> usize {
        self.state.held_locks()
    }

    /// Whether the post-crash grace window is open at `now`.
    pub fn in_grace(&self, now: SimTime) -> bool {
        self.state.in_grace(now)
    }

    /// Fail (`healthy = false`) or repair (`healthy = true`) the NVRAM
    /// battery.  On failure the accelerator drains what it holds and degrades
    /// to write-through until repaired; a plain disk ignores both.  Returns
    /// the time the transition completes.
    pub fn set_battery(&mut self, healthy: bool, now: SimTime) -> SimTime {
        if !healthy {
            self.stats.battery_failures += 1;
        }
        self.battery_ok = healthy;
        self.device.set_battery(healthy, now)
    }

    /// Degrade the disk subsystem between `from` and `from + duration`:
    /// every transfer submitted inside the window fails `retries` times,
    /// each failed attempt stalling the request by `stall`, before the final
    /// attempt succeeds.  A second call replaces the previous window.
    pub fn inject_disk_fault(
        &mut self,
        from: SimTime,
        duration: Duration,
        stall: Duration,
        retries: u32,
    ) {
        self.disk_fault = Some(DiskFault {
            from,
            until: from + duration,
            stall,
            retries,
        });
    }

    /// The bounded-retry delay an injected disk fault adds to a transfer
    /// submitted at `t` (zero outside any window).
    fn disk_fault_delay(&mut self, t: SimTime) -> SimTime {
        match self.disk_fault {
            Some(f) if f.from <= t && t < f.until && f.retries > 0 => {
                self.stats.disk_retries += f.retries as u64;
                t + f.stall * f.retries as u64
            }
            _ => t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_nfsproto::{NfsCall, WriteArgs};

    fn write_call(
        server: &NfsServer,
        ino: InodeNumber,
        xid: u32,
        offset: u64,
        len: usize,
    ) -> NfsCall {
        let fh = server.handle_for_ino(ino).unwrap();
        NfsCall::new(
            Xid(xid),
            NfsCallBody::Write(WriteArgs::new(fh, offset as u32, vec![7u8; len])),
        )
    }

    fn datagram(call: NfsCall) -> ServerInput {
        datagram_from(1, call)
    }

    fn datagram_from(client: ClientId, call: NfsCall) -> ServerInput {
        let wire = call.wire_size();
        ServerInput::Datagram {
            client,
            call,
            wire_size: wire,
            fragments: 6,
        }
    }

    fn make_server(policy: WritePolicy) -> (NfsServer, InodeNumber) {
        let mut cfg = ServerConfig::standard();
        cfg.policy = policy;
        let mut server = NfsServer::new(cfg);
        let root = server.fs().root();
        let ino = server.fs_mut().create(root, "target", 0o644, 0).unwrap();
        (server, ino)
    }

    #[test]
    fn standard_write_replies_after_data_and_metadata_are_stable() {
        let (mut server, ino) = make_server(WritePolicy::Standard);
        let call = write_call(&server, ino, 1, 0, 8192);
        let replies = server.run_script(vec![(SimTime::ZERO, datagram(call))]);
        assert_eq!(replies.len(), 1);
        let (at, reply) = &replies[0];
        assert!(reply.body.is_ok());
        // Data + inode seek on an RZ26: the reply cannot be earlier than ~15 ms.
        assert!(*at > SimTime::from_millis(10), "reply at {at:?}");
        // Nothing dirty remains: the stable-storage contract held.
        assert_eq!(server.uncommitted_bytes(), 0);
        assert_eq!(server.device_stats().transfers.events(), 2);
    }

    #[test]
    fn gathering_batches_writes_and_reduces_disk_transactions() {
        let (mut server, ino) = make_server(WritePolicy::Gathering);
        // Eight 8 KB writes arriving 1 ms apart (well within the 8 ms
        // procrastination window).
        let inputs: Vec<_> = (0..8u64)
            .map(|i| {
                let call = write_call(&server, ino, 100 + i as u32, i * 8192, 8192);
                (SimTime::from_millis(i), datagram(call))
            })
            .collect();
        let replies = server.run_script(inputs);
        assert_eq!(replies.len(), 8);
        assert!(replies.iter().all(|(_, r)| r.body.is_ok()));
        // All replies carry the same mtime (single metadata update).
        let mtimes: Vec<_> = replies
            .iter()
            .map(|(_, r)| match &r.body {
                NfsReplyBody::Attr(StatusReply::Ok(f)) => f.mtime,
                other => panic!("unexpected body {other:?}"),
            })
            .collect();
        assert!(mtimes.windows(2).all(|w| w[0] == w[1]));
        // The whole burst cost far fewer disk transactions than 8 standard
        // writes (which would be ~16): one clustered data write, an inode and
        // an indirect block at most.
        let transfers = server.device_stats().transfers.events();
        assert!(transfers <= 4, "got {transfers} transfers");
        assert_eq!(server.stats().writes_gathered, 7);
        assert!(server.stats().mean_batch_size() >= 7.9);
        assert_eq!(server.uncommitted_bytes(), 0);
    }

    #[test]
    fn gathering_replies_are_fifo_by_default() {
        let (mut server, ino) = make_server(WritePolicy::Gathering);
        let inputs: Vec<_> = (0..5u64)
            .map(|i| {
                let call = write_call(&server, ino, 200 + i as u32, i * 8192, 8192);
                (SimTime::from_millis(i), datagram(call))
            })
            .collect();
        let replies = server.run_script(inputs);
        let xids: Vec<u32> = replies.iter().map(|(_, r)| r.xid.0).collect();
        assert_eq!(xids, vec![200, 201, 202, 203, 204]);
        // And reply times never decrease.
        assert!(replies.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn lifo_order_reverses_the_batch() {
        let mut cfg = ServerConfig::gathering();
        cfg.reply_order = ReplyOrder::Lifo;
        let mut server = NfsServer::new(cfg);
        let root = server.fs().root();
        let ino = server.fs_mut().create(root, "t", 0o644, 0).unwrap();
        let inputs: Vec<_> = (0..4u64)
            .map(|i| {
                let call = write_call(&server, ino, 300 + i as u32, i * 8192, 8192);
                (SimTime::from_millis(i), datagram(call))
            })
            .collect();
        let replies = server.run_script(inputs);
        let xids: Vec<u32> = replies.iter().map(|(_, r)| r.xid.0).collect();
        assert_eq!(xids, vec![303, 302, 301, 300]);
    }

    #[test]
    fn lone_write_pays_the_procrastination_penalty_but_still_commits() {
        let (mut server, ino) = make_server(WritePolicy::Gathering);
        let call = write_call(&server, ino, 1, 0, 8192);
        let replies = server.run_script(vec![(SimTime::ZERO, datagram(call))]);
        assert_eq!(replies.len(), 1);
        // The reply waited for the 8 ms procrastination plus the flush.
        assert!(replies[0].0 > SimTime::from_millis(8 + 10));
        assert_eq!(server.stats().procrastination_misses, 1);
        assert_eq!(server.stats().procrastination_hits, 0);
        assert_eq!(server.uncommitted_bytes(), 0);
    }

    #[test]
    fn standard_writes_to_same_file_serialise_on_the_vnode_lock() {
        let (mut server, ino) = make_server(WritePolicy::Standard);
        let inputs: Vec<_> = (0..4u64)
            .map(|i| {
                let call = write_call(&server, ino, 400 + i as u32, i * 8192, 8192);
                (SimTime::ZERO, datagram(call))
            })
            .collect();
        let replies = server.run_script(inputs);
        assert_eq!(replies.len(), 4);
        let last = replies.iter().map(|(t, _)| *t).max().unwrap();
        // Four writes, each needing two disk transactions of ~10-17 ms,
        // serialised: the last reply lands far beyond a single write's time.
        assert!(last > SimTime::from_millis(60), "last reply {last:?}");
        assert_eq!(server.device_stats().transfers.events(), 8);
    }

    #[test]
    fn dangerous_mode_replies_fast_but_leaves_uncommitted_data() {
        let (mut server, ino) = make_server(WritePolicy::DangerousAsync);
        let call = write_call(&server, ino, 1, 0, 8192);
        let replies = server.run_script(vec![(SimTime::ZERO, datagram(call))]);
        assert_eq!(replies.len(), 1);
        assert!(replies[0].0 < SimTime::from_millis(2));
        // The crash-recovery contract is violated: dirty bytes linger with no
        // disk transactions issued.
        assert_eq!(server.uncommitted_bytes(), 8192);
        assert_eq!(server.device_stats().transfers.events(), 0);
    }

    #[test]
    fn first_write_latency_policy_gathers_followers() {
        let (mut server, ino) = make_server(WritePolicy::FirstWriteLatency);
        let inputs: Vec<_> = (0..4u64)
            .map(|i| {
                let call = write_call(&server, ino, 500 + i as u32, i * 8192, 8192);
                (SimTime::from_millis(i), datagram(call))
            })
            .collect();
        let replies = server.run_script(inputs);
        assert_eq!(replies.len(), 4);
        // The first write went to disk alone (8 KB), later arrivals were
        // gathered during that window.
        assert!(server.stats().writes_gathered >= 2);
        assert_eq!(server.uncommitted_bytes(), 0);
    }

    #[test]
    fn duplicate_write_is_not_reexecuted() {
        let (mut server, ino) = make_server(WritePolicy::Gathering);
        let call = write_call(&server, ino, 42, 0, 8192);
        let dup = call.clone();
        let replies = server.run_script(vec![
            (SimTime::ZERO, datagram(call)),
            // Retransmission arrives while the original is still gathered.
            (SimTime::from_millis(2), datagram(dup.clone())),
            // And again long after the reply went out.
            (SimTime::from_millis(200), datagram(dup)),
        ]);
        // Original reply + replay of the cached reply; the in-progress
        // duplicate was dropped silently.
        assert_eq!(replies.len(), 2);
        assert_eq!(server.stats().duplicate_requests, 2);
        // The file contains the data exactly once.
        assert_eq!(server.fs().dirty_bytes(), 0);
        let mut fs = server.fs().clone();
        let read = fs.read(ino, 0, 8192).unwrap();
        assert_eq!(read.to_vec(), vec![7u8; 8192]);
    }

    #[test]
    fn pending_gathered_write_survives_dupcache_overflow() {
        // The §6.9 regression: a gathered WRITE's reply is deferred; while the
        // responsible nfsd procrastinates, unrelated traffic overflows a tiny
        // duplicate request cache.  The write's InProgress entry must survive
        // the churn so its retransmission is dropped, not re-executed.
        let mut cfg = ServerConfig::gathering();
        cfg.dupcache_entries = 4;
        let mut server = NfsServer::new(cfg);
        let root = server.fs().root();
        let ino = server.fs_mut().create(root, "target", 0o644, 0).unwrap();
        let fh = server.handle_for_ino(ino).unwrap();
        let write = write_call(&server, ino, 42, 0, 8192);
        let mut inputs = vec![(SimTime::ZERO, datagram(write.clone()))];
        // Ten lightweight requests churn through the 4-entry cache well inside
        // the 8 ms procrastination window.
        for i in 0..10u64 {
            let getattr = NfsCall::new(
                Xid(1000 + i as u32),
                NfsCallBody::Getattr(wg_nfsproto::GetattrArgs { file: fh }),
            );
            inputs.push((SimTime::from_micros(1000 + i * 100), datagram(getattr)));
        }
        // The retransmission arrives while the original is still gathered.
        inputs.push((SimTime::from_millis(5), datagram(write)));
        let replies = server.run_script(inputs);
        // One reply per getattr, exactly one for the write: the
        // retransmission was recognised as in progress and dropped.
        assert_eq!(replies.len(), 11);
        assert_eq!(
            replies.iter().filter(|(_, r)| r.xid == Xid(42)).count(),
            1,
            "the retransmitted gathered write was re-executed"
        );
        assert_eq!(server.stats().duplicate_requests, 1);
        assert_eq!(server.dupcache_evicted_in_progress(), 0);
        assert_eq!(server.uncommitted_bytes(), 0);
    }

    #[test]
    fn statfs_block_counts_saturate_instead_of_wrapping() {
        // ~35 TB of configured capacity: the true block count exceeds u32 and
        // used to wrap to a tiny number through the `as u32` casts.
        let mut cfg = ServerConfig::standard();
        cfg.fs.data_capacity = (u32::MAX as u64 + 1_000) * 8192;
        let mut server = NfsServer::new(cfg);
        let root_fh = server.root_handle();
        let call = NfsCall::new(
            Xid(1),
            NfsCallBody::Statfs(wg_nfsproto::GetattrArgs { file: root_fh }),
        );
        let replies = server.run_script(vec![(SimTime::ZERO, datagram(call))]);
        assert_eq!(replies.len(), 1);
        match &replies[0].1.body {
            NfsReplyBody::Statfs(StatusReply::Ok(s)) => {
                assert_eq!(s.blocks, u32::MAX);
                assert_eq!(s.bfree, u32::MAX);
                assert_eq!(s.bavail, u32::MAX);
            }
            other => panic!("unexpected statfs reply {other:?}"),
        }
    }

    #[test]
    fn sharded_server_serves_independent_files_and_keeps_integrity() {
        let mut cfg = ServerConfig::gathering().with_shards(4).with_cores(2);
        cfg.nfsds = 8;
        let mut server = NfsServer::new(cfg);
        assert_eq!(server.shard_count(), 4);
        let root = server.fs().root();
        // Eight files spread across the shards, five writes each.
        let inos: Vec<InodeNumber> = (0..8)
            .map(|i| {
                server
                    .fs_mut()
                    .create(root, &format!("f{i}"), 0o644, 0)
                    .unwrap()
            })
            .collect();
        let mut inputs = Vec::new();
        let mut xid = 100u32;
        for (fi, &ino) in inos.iter().enumerate() {
            for w in 0..5u64 {
                let call = write_call(&server, ino, xid, w * 8192, 8192);
                xid += 1;
                inputs.push((SimTime::from_millis(fi as u64 + w), datagram(call)));
            }
        }
        let replies = server.run_script(inputs);
        assert_eq!(replies.len(), 40);
        assert!(replies.iter().all(|(_, r)| r.body.is_ok()));
        assert_eq!(server.uncommitted_bytes(), 0);
        assert_eq!(server.dupcache_evicted_in_progress(), 0);
        // Every file holds its five blocks of fill data.
        let mut fs = server.fs().clone();
        for &ino in &inos {
            assert_eq!(fs.getattr(ino).unwrap().size, 5 * 8192);
            let read = fs.read(ino, 0, 8192).unwrap();
            assert!(read.to_vec().iter().all(|&b| b == 7));
        }
        // Gathering still worked per shard.
        assert!(server.stats().writes_gathered > 0);
    }

    #[test]
    fn sharded_duplicate_write_is_not_reexecuted() {
        // The duplicate-recognition contract holds when the dupcache is
        // partitioned: original and retransmission route to the same shard.
        let mut cfg = ServerConfig::gathering().with_shards(3);
        cfg.nfsds = 6;
        let mut server = NfsServer::new(cfg);
        let root = server.fs().root();
        let ino = server.fs_mut().create(root, "t", 0o644, 0).unwrap();
        let call = write_call(&server, ino, 7, 0, 8192);
        let dup = call.clone();
        let replies = server.run_script(vec![
            (SimTime::ZERO, datagram(call)),
            (SimTime::from_millis(2), datagram(dup.clone())),
            (SimTime::from_millis(200), datagram(dup)),
        ]);
        assert_eq!(replies.len(), 2);
        assert_eq!(server.stats().duplicate_requests, 2);
        let mut fs = server.fs().clone();
        assert_eq!(fs.read(ino, 0, 8192).unwrap().to_vec(), vec![7u8; 8192]);
    }

    #[test]
    fn overlapped_striped_flush_is_faster_and_writes_identical_bytes() {
        // 24 writes gathered into one batch whose flush spans three stripe
        // units: the pipelined plan drives all three spindles concurrently,
        // the serial plan chains them, and both land exactly the same bytes.
        let run = |overlap: bool| {
            let cfg = ServerConfig::gathering()
                .with_spindles(3)
                .with_io_overlap(overlap);
            let mut server = NfsServer::new(cfg);
            let root = server.fs().root();
            let ino = server.fs_mut().create(root, "t", 0o644, 0).unwrap();
            let inputs: Vec<_> = (0..24u64)
                .map(|i| {
                    let call = write_call(&server, ino, 900 + i as u32, i * 8192, 8192);
                    (SimTime::from_micros(i * 200), datagram(call))
                })
                .collect();
            let replies = server.run_script(inputs);
            (server, replies)
        };
        let (serial_srv, serial_replies) = run(false);
        let (ov_srv, ov_replies) = run(true);
        assert_eq!(serial_replies.len(), 24);
        assert_eq!(ov_replies.len(), 24);
        assert!(ov_replies.iter().all(|(_, r)| r.body.is_ok()));
        // Identical physical work: same bytes and transfer count on disk.
        let serial_stats = serial_srv.device_stats();
        let ov_stats = ov_srv.device_stats();
        assert_eq!(serial_stats.transfers.bytes(), ov_stats.transfers.bytes());
        assert_eq!(serial_stats.transfers.events(), ov_stats.transfers.events());
        // But the overlapped batch finishes strictly earlier.
        let last = |replies: &[(SimTime, NfsReply)]| replies.iter().map(|(t, _)| *t).max().unwrap();
        assert!(
            last(&ov_replies) < last(&serial_replies),
            "overlap {} vs serial {}",
            last(&ov_replies),
            last(&serial_replies)
        );
        assert_eq!(ov_srv.uncommitted_bytes(), 0);
        // The per-spindle breakdown shows genuine overlap: more than one
        // member did work.
        let spindles = ov_srv.spindle_stats();
        assert_eq!(spindles.len(), 3);
        assert!(
            spindles
                .iter()
                .filter(|s| s.stats.transfers.events() > 0)
                .count()
                >= 2,
            "flush never left the first spindle"
        );
    }

    #[test]
    fn overlap_on_a_single_disk_changes_nothing_about_the_data() {
        let run = |overlap: bool| {
            let cfg = ServerConfig::standard().with_io_overlap(overlap);
            let mut server = NfsServer::new(cfg);
            let root = server.fs().root();
            let ino = server.fs_mut().create(root, "t", 0o644, 0).unwrap();
            let inputs: Vec<_> = (0..4u64)
                .map(|i| {
                    let call = write_call(&server, ino, 950 + i as u32, i * 8192, 8192);
                    (SimTime::from_millis(i), datagram(call))
                })
                .collect();
            let replies = server.run_script(inputs);
            (server, replies)
        };
        let (serial_srv, serial_replies) = run(false);
        let (ov_srv, ov_replies) = run(true);
        assert_eq!(serial_replies.len(), ov_replies.len());
        assert_eq!(
            serial_srv.device_stats().transfers.bytes(),
            ov_srv.device_stats().transfers.bytes()
        );
        assert_eq!(ov_srv.uncommitted_bytes(), 0);
        // On one spindle the pipeline can only remove CPU-gap idle time, so
        // completions never get later.
        let last = |replies: &[(SimTime, NfsReply)]| replies.iter().map(|(t, _)| *t).max().unwrap();
        assert!(last(&ov_replies) <= last(&serial_replies));
    }

    #[test]
    fn failed_vop_write_replies_in_the_shape_the_write_asked_for() {
        // No data blocks at all: every path's VOP_WRITE fails, and the one
        // error reply keeps a v2 write's attribute reply and an `UNSTABLE`
        // write's verifier reply apart.
        let policies = [
            WritePolicy::Standard,
            WritePolicy::Gathering,
            WritePolicy::FirstWriteLatency,
            WritePolicy::DangerousAsync,
        ];
        for policy in policies {
            let mut cfg = ServerConfig::standard().with_unified_cache(1024);
            cfg.policy = policy;
            cfg.fs.data_capacity = 0;
            let mut server = NfsServer::new(cfg);
            let root = server.fs().root();
            let ino = server.fs_mut().create(root, "t", 0o644, 0).unwrap();
            let stable = write_call(&server, ino, 1, 0, 8192);
            let unstable = unstable_write_call(&server, ino, 2, 0, 8192);
            let replies = server.run_script(vec![
                (SimTime::ZERO, datagram(stable)),
                (SimTime::from_millis(1), datagram(unstable)),
            ]);
            let bodies: Vec<_> = replies.into_iter().map(|(_, r)| r.body).collect();
            let expected = [
                NfsReplyBody::Attr(StatusReply::Err(NfsStatus::NoSpc)),
                NfsReplyBody::WriteVerf(StatusReply::Err(NfsStatus::NoSpc)),
            ];
            assert_eq!(bodies, expected, "{policy:?}");
            assert_eq!(server.stats().writes_completed.events(), 0, "{policy:?}");
        }
    }

    /// A gathering server with one nfsd, as `edit` configures it, and the
    /// file "t".  A FILE_SYNC write to "t" makes the nfsd procrastinate; a
    /// second WRITE for "t" sent at the same instant waits in the socket
    /// buffer, so the mbuf hunter hands the batch to it when the
    /// procrastination ends.
    fn one_nfsd_gathering(edit: impl FnOnce(&mut ServerConfig)) -> (NfsServer, InodeNumber) {
        let mut cfg = ServerConfig::gathering();
        cfg.nfsds = 1;
        edit(&mut cfg);
        let mut server = NfsServer::new(cfg);
        let root = server.fs().root();
        let ino = server.fs_mut().create(root, "t", 0o644, 0).unwrap();
        (server, ino)
    }

    /// Run `setup`, then `first` (from client 1) and `handed` at `at`, and
    /// check that both writes are answered and none is left in a batch.
    fn assert_handed_batch_is_flushed(
        mut server: NfsServer,
        mut inputs: Vec<(SimTime, ServerInput)>,
        at: SimTime,
        first: NfsCall,
        handed: ServerInput,
    ) -> Vec<NfsReply> {
        inputs.push((at, datagram(first)));
        inputs.push((at, handed));
        let replies: Vec<NfsReply> = server
            .run_script(inputs)
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        for xid in [1, 2] {
            let answered = replies.iter().any(|r| r.xid.0 == xid);
            assert!(answered, "write {xid} was never answered");
        }
        assert_eq!(server.held_gather_writes(), 0);
        replies
    }

    #[test]
    fn an_unstable_write_handed_a_batch_flushes_it() {
        // With the unified cache the UNSTABLE write takes the unstable
        // path; without it the server promotes it to FILE_SYNC on the
        // standard path.  Neither joins the batch.
        for pages in [1024, 0] {
            let (server, ino) = one_nfsd_gathering(|c| c.fs.cache_pages = pages);
            let first = write_call(&server, ino, 1, 0, 8192);
            let handed = datagram(unstable_write_call(&server, ino, 2, 8192, 8192));
            assert_handed_batch_is_flushed(server, Vec::new(), SimTime::ZERO, first, handed);
        }
    }

    #[test]
    fn a_lease_refused_write_handed_a_batch_flushes_it() {
        // Client 7 registers a 100 ms lease and lets it lapse; its write is
        // refused at the lease gate.
        let (server, ino) = one_nfsd_gathering(|c| c.lease_duration = Duration::from_millis(100));
        let renew = NfsCall::new(
            Xid(9),
            NfsCallBody::Renew(wg_nfsproto::RenewArgs {
                client_id: 7,
                verifier: 1,
            }),
        );
        let setup = vec![(SimTime::ZERO, datagram_from(7, renew))];
        let lapsed = SimTime::from_millis(200);
        let first = write_call(&server, ino, 1, 0, 8192);
        let handed = datagram_from(7, write_call(&server, ino, 2, 8192, 8192));
        let replies = assert_handed_batch_is_flushed(server, setup, lapsed, first, handed);
        let refused = replies.iter().find(|r| r.xid.0 == 2).unwrap();
        let expired = NfsReplyBody::Attr(StatusReply::Err(NfsStatus::Expired));
        assert_eq!(refused.body, expired);
    }

    #[test]
    fn renew_and_lock_arm_the_lease_table_of_a_default_server() {
        // No configuration arms the table: the calls that arrive do.
        let mut server = NfsServer::new(ServerConfig::gathering());
        let root = server.fs().root();
        let ino = server.fs_mut().create(root, "locked", 0o644, 0).unwrap();
        let renew = wg_nfsproto::RenewArgs {
            client_id: 7,
            verifier: 1,
        };
        let lock = wg_nfsproto::LockArgs {
            file: server.handle_for_ino(ino).unwrap(),
            client_id: 7,
            stateid: 1,
            seqid: 1,
            offset: 0,
            count: 0,
            reclaim: false,
        };
        let replies = server.run_script(vec![
            (
                SimTime::ZERO,
                datagram_from(7, NfsCall::new(Xid(1), NfsCallBody::Renew(renew))),
            ),
            (
                SimTime::from_millis(1),
                datagram_from(7, NfsCall::new(Xid(2), NfsCallBody::Lock(lock))),
            ),
        ]);
        assert_eq!(replies.len(), 2);
        for (_, reply) in &replies {
            assert!(reply.body.is_ok(), "{:?}", reply.body);
        }
        assert_eq!(server.state_stats().leases_granted, 1);
        assert_eq!(server.active_lease_clients(), 1);
        assert_eq!(server.held_locks(), 1);
    }

    #[test]
    fn a_failed_write_handed_a_batch_flushes_it() {
        // One data block: the first write takes it, the handed one finds
        // the filesystem full and VOP_WRITE replies with an error.
        let (server, ino) = one_nfsd_gathering(|c| c.fs.data_capacity = 8192);
        let first = write_call(&server, ino, 1, 0, 8192);
        let handed = datagram(write_call(&server, ino, 2, 8192, 8192));
        let replies =
            assert_handed_batch_is_flushed(server, Vec::new(), SimTime::ZERO, first, handed);
        let failed = replies.iter().find(|r| r.xid.0 == 2).unwrap();
        let no_space = NfsReplyBody::Attr(StatusReply::Err(NfsStatus::NoSpc));
        assert_eq!(failed.body, no_space);
    }

    #[test]
    fn stale_handle_write_gets_a_stale_error() {
        let (mut server, ino) = make_server(WritePolicy::Gathering);
        let call = write_call(&server, ino, 9, 0, 1024);
        let root = server.fs().root();
        server.fs_mut().remove(root, "target", 5).unwrap();
        let replies = server.run_script(vec![(SimTime::ZERO, datagram(call))]);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].1.body.status(), NfsStatus::Stale);
    }

    /// A client may send any READ count; a zero count of a non-empty file
    /// is answered with no data.
    #[test]
    fn zero_count_read_is_answered_with_no_data() {
        let (mut server, ino) = make_server(WritePolicy::Gathering);
        let fh = server.handle_for_ino(ino).unwrap();
        let read = NfsCall::new(
            Xid(2),
            NfsCallBody::Read(wg_nfsproto::ReadArgs {
                file: fh,
                offset: 0,
                count: 0,
                totalcount: 0,
            }),
        );
        let write = datagram(write_call(&server, ino, 1, 0, 8192));
        let replies = server.run_script(vec![
            (SimTime::ZERO, write),
            (SimTime::from_millis(500), datagram(read)),
        ]);
        let (_, reply) = replies.iter().find(|(_, r)| r.xid == Xid(2)).unwrap();
        match &reply.body {
            NfsReplyBody::Read(StatusReply::Ok(ok)) => assert!(ok.data.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_write_operations_are_served() {
        let (mut server, ino) = make_server(WritePolicy::Gathering);
        let fh = server.handle_for_ino(ino).unwrap();
        let root_fh = server.root_handle();
        let calls = vec![
            NfsCall::new(
                Xid(1),
                NfsCallBody::Getattr(wg_nfsproto::GetattrArgs { file: fh }),
            ),
            NfsCall::new(
                Xid(2),
                NfsCallBody::Lookup(wg_nfsproto::DirOpArgs {
                    dir: root_fh,
                    name: "target".into(),
                }),
            ),
            NfsCall::new(
                Xid(3),
                NfsCallBody::Create(wg_nfsproto::CreateArgs {
                    where_: wg_nfsproto::DirOpArgs {
                        dir: root_fh,
                        name: "new-file".into(),
                    },
                    attributes: wg_nfsproto::Sattr::with_mode(0o600),
                }),
            ),
            NfsCall::new(
                Xid(4),
                NfsCallBody::Read(wg_nfsproto::ReadArgs {
                    file: fh,
                    offset: 0,
                    count: 4096,
                    totalcount: 0,
                }),
            ),
            NfsCall::new(
                Xid(5),
                NfsCallBody::Readdir(wg_nfsproto::ReaddirArgs {
                    dir: root_fh,
                    cookie: 0,
                    count: 4096,
                }),
            ),
            NfsCall::new(
                Xid(6),
                NfsCallBody::Statfs(wg_nfsproto::GetattrArgs { file: root_fh }),
            ),
            NfsCall::new(
                Xid(7),
                NfsCallBody::Remove(wg_nfsproto::DirOpArgs {
                    dir: root_fh,
                    name: "new-file".into(),
                }),
            ),
        ];
        let inputs: Vec<_> = calls
            .into_iter()
            .enumerate()
            .map(|(i, c)| (SimTime::from_millis(i as u64 * 30), datagram(c)))
            .collect();
        let replies = server.run_script(inputs);
        assert_eq!(replies.len(), 7);
        assert!(replies.iter().all(|(_, r)| r.body.is_ok()), "{replies:#?}");
        assert_eq!(server.stats().other_ops_completed.events(), 7);
    }

    #[test]
    fn socket_buffer_overflow_drops_requests() {
        let mut cfg = ServerConfig::gathering();
        cfg.socket_buffer_bytes = 20_000; // room for ~2 8 KB writes
        cfg.nfsds = 1;
        let mut server = NfsServer::new(cfg);
        let root = server.fs().root();
        let ino = server.fs_mut().create(root, "t", 0o644, 0).unwrap();
        // Ten writes all arriving at t=0: the single nfsd is busy with the
        // first while the rest overflow the tiny socket buffer.
        let inputs: Vec<_> = (0..10u64)
            .map(|i| {
                let call = write_call(&server, ino, 600 + i as u32, i * 8192, 8192);
                (SimTime::ZERO, datagram(call))
            })
            .collect();
        let replies = server.run_script(inputs);
        assert!(server.socket_drops() > 0);
        assert!(replies.len() < 10);
    }

    #[test]
    fn socket_drops_survive_a_crash() {
        let mut cfg = ServerConfig::gathering();
        cfg.socket_buffer_bytes = 20_000; // room for two queued 8 KB writes
        cfg.nfsds = 1;
        let mut server = NfsServer::new(cfg);
        let root = server.fs().root();
        let ino = server.fs_mut().create(root, "t", 0o644, 0).unwrap();
        // The nfsd takes the first of ten writes, two more queue, and the
        // rest overflow the buffer.
        for i in 0..10u64 {
            let call = write_call(&server, ino, 600 + i as u32, i * 8192, 8192);
            server.handle(SimTime::ZERO, datagram(call));
        }
        assert_eq!(server.socket_drops(), 7);
        // The crash discards the buffers, not the count of what they dropped.
        server.crash(SimTime::from_millis(1));
        assert_eq!(server.socket_drops(), 7);
    }

    #[test]
    fn forced_dupcache_evictions_survive_a_crash() {
        // A one-entry duplicate cache and two gathering writes taken by two
        // nfsds at one instant: the second write's entry can only be made
        // room for by forcing out the first, still in progress.
        let mut cfg = ServerConfig::gathering();
        cfg.dupcache_entries = 1;
        let mut server = NfsServer::new(cfg);
        let root = server.fs().root();
        let ino = server.fs_mut().create(root, "t", 0o644, 0).unwrap();
        for i in 0..2u64 {
            let call = write_call(&server, ino, 700 + i as u32, i * 8192, 8192);
            server.handle(SimTime::ZERO, datagram(call));
        }
        assert_eq!(server.dupcache_evicted_in_progress(), 1);
        // The crash discards the cache, not the count of what it evicted.
        server.crash(SimTime::from_millis(1));
        assert_eq!(server.dupcache_evicted_in_progress(), 1);
    }

    #[test]
    fn quiesce_flushes_orphaned_batches() {
        let (mut server, ino) = make_server(WritePolicy::DangerousAsync);
        let call = write_call(&server, ino, 1, 0, 8192);
        server.run_script(vec![(SimTime::ZERO, datagram(call))]);
        assert!(server.uncommitted_bytes() > 0);
        // Dangerous mode never flushes on its own; quiesce only drains the
        // gathering queues, so dirty bytes remain: exactly the data a crash
        // would lose.
        let mut actions = Vec::new();
        server.quiesce(SimTime::from_secs(1), &mut actions);
        assert!(server.uncommitted_bytes() > 0);
    }

    #[test]
    fn presto_gathering_cuts_metadata_work() {
        let mut cfg = ServerConfig::gathering().with_presto(true);
        cfg.procrastination = Duration::from_millis(5);
        let mut server = NfsServer::new(cfg);
        let root = server.fs().root();
        let ino = server.fs_mut().create(root, "p", 0o644, 0).unwrap();
        let inputs: Vec<_> = (0..8u64)
            .map(|i| {
                let call = write_call(&server, ino, 700 + i as u32, i * 8192, 8192);
                (SimTime::from_millis(i / 2), datagram(call))
            })
            .collect();
        let replies = server.run_script(inputs);
        assert_eq!(replies.len(), 8);
        // With NVRAM the data writes complete quickly and the metadata was
        // amortised across the batch.
        assert!(server.stats().metadata_flushes <= 2);
        assert_eq!(server.uncommitted_bytes(), 0);
    }

    // --- the unstable-write / COMMIT path -----------------------------

    fn make_unstable_server(presto: bool) -> (NfsServer, InodeNumber) {
        let cfg = ServerConfig::standard()
            .with_presto(presto)
            .with_unified_cache(1024)
            .with_stability(crate::config::StabilityMode::Unstable);
        let mut server = NfsServer::new(cfg);
        let root = server.fs().root();
        let ino = server.fs_mut().create(root, "target", 0o644, 0).unwrap();
        (server, ino)
    }

    fn unstable_write_call(
        server: &NfsServer,
        ino: InodeNumber,
        xid: u32,
        offset: u64,
        len: usize,
    ) -> NfsCall {
        let fh = server.handle_for_ino(ino).unwrap();
        NfsCall::new(
            Xid(xid),
            NfsCallBody::Write(
                WriteArgs::new(fh, offset as u32, vec![7u8; len])
                    .with_stability(StableHow::Unstable),
            ),
        )
    }

    fn commit_call(server: &NfsServer, ino: InodeNumber, xid: u32) -> NfsCall {
        let fh = server.handle_for_ino(ino).unwrap();
        NfsCall::new(
            Xid(xid),
            NfsCallBody::Commit(wg_nfsproto::CommitArgs {
                file: fh,
                offset: 0,
                count: 0,
            }),
        )
    }

    #[test]
    fn unstable_write_replies_fast_and_commit_makes_it_stable() {
        let (mut server, ino) = make_unstable_server(false);
        let call = unstable_write_call(&server, ino, 1, 0, 8192);
        let replies = server.run_script(vec![(SimTime::ZERO, datagram(call))]);
        // The write reply is the v3-style verifier reply, well before any
        // disk I/O could have finished, and marked UNSTABLE.
        let (at, reply) = &replies[0];
        match &reply.body {
            NfsReplyBody::WriteVerf(StatusReply::Ok(ok)) => {
                assert_eq!(ok.committed, StableHow::Unstable);
                assert_eq!(ok.verf, server.boot_verifier());
            }
            other => panic!("unexpected body {other:?}"),
        }
        assert!(*at < SimTime::from_millis(5), "reply at {at:?}");
        assert_eq!(server.stats().unstable_writes, 1);
        // run_script drives the write-behind wake-ups too, so by the
        // time the queue drains the data is on disk even without a COMMIT.
        assert_eq!(server.uncommitted_bytes(), 0);
        // A COMMIT over stable data is cheap and echoes the same verifier.
        let commit = commit_call(&server, ino, 2);
        let replies = server.run_script(vec![(SimTime::from_secs(1), datagram(commit))]);
        match &replies[0].1.body {
            NfsReplyBody::Commit(StatusReply::Ok(ok)) => {
                assert_eq!(ok.verf, server.boot_verifier());
            }
            other => panic!("unexpected body {other:?}"),
        }
        assert_eq!(server.stats().commits, 1);
        assert_eq!(server.stats().lost_unstable_bytes, 0);
    }

    #[test]
    fn crash_counts_uncommitted_unstable_data_and_changes_the_verifier() {
        let (mut server, ino) = make_unstable_server(false);
        // Hand the datagrams straight to the server without driving the
        // wake-up queue, so the write-behind pass never runs and the data is
        // still volatile when the crash lands.
        for i in 0..4u64 {
            let call = unstable_write_call(&server, ino, 10 + i as u32, i * 8192, 8192);
            server.handle(SimTime::from_micros(i * 10), datagram(call));
        }
        assert!(server.uncommitted_bytes() > 0);
        let verf_before = server.boot_verifier();
        server.crash(SimTime::from_millis(1));
        assert_ne!(server.boot_verifier(), verf_before);
        // All four blocks died acknowledged-but-uncommitted: permitted loss,
        // counted separately from the dangerous-mode oracle.
        assert_eq!(server.stats().lost_unstable_bytes, 4 * 8192);
        assert_eq!(server.stats().lost_acked_bytes, 0);
    }

    #[test]
    fn ack_ledger_records_only_the_blocks_a_stable_reply_leaves_dirty() {
        let (mut server, ino) = make_server(WritePolicy::Standard);
        let block = BLOCK_SIZE;
        let fs = server.fs_mut();
        let (ones, twos) = ([1u8; BLOCK_SIZE as usize], [2u8; BLOCK_SIZE as usize]);
        fs.write(ino, 0, &ones, WriteFlags::DelayData, 1).unwrap();
        fs.write(ino, block, &twos, WriteFlags::Sync, 2).unwrap();
        let mut ledger = AckedBlocks::default();
        // A reply over the delayed block promises stability it lacks; a
        // reply over the synchronously written one owes nothing.
        ledger.record_dirty(server.fs(), ino, 0, block);
        ledger.record_dirty(server.fs(), ino, block, block);
        assert_eq!(ledger.0.iter().collect::<Vec<_>>(), vec![&(ino, 0)]);
        // A crash now loses exactly the dirty block, and empties the ledger.
        assert_eq!(ledger.take_lost(server.fs()), block);
        assert!(ledger.0.is_empty());
    }

    #[test]
    fn committed_data_survives_a_crash_uncounted() {
        let (mut server, ino) = make_unstable_server(false);
        let write = unstable_write_call(&server, ino, 1, 0, 8192);
        let commit = commit_call(&server, ino, 2);
        server.run_script(vec![
            (SimTime::ZERO, datagram(write)),
            (SimTime::from_millis(1), datagram(commit)),
        ]);
        server.crash(SimTime::from_secs(1));
        assert_eq!(server.stats().lost_unstable_bytes, 0);
        assert_eq!(server.stats().lost_acked_bytes, 0);
    }

    #[test]
    fn dead_battery_promotes_unstable_writes_to_file_sync() {
        let (mut server, ino) = make_unstable_server(true);
        server.set_battery(false, SimTime::ZERO);
        let call = unstable_write_call(&server, ino, 1, 0, 8192);
        let replies = server.run_script(vec![(SimTime::from_millis(1), datagram(call))]);
        // The reply still speaks v3 (the client asked UNSTABLE) but reports
        // FILE_SYNC: the data went synchronously through the write-through
        // board, so no COMMIT is owed and a crash loses nothing.
        match &replies[0].1.body {
            NfsReplyBody::WriteVerf(StatusReply::Ok(ok)) => {
                assert_eq!(ok.committed, StableHow::FileSync);
            }
            other => panic!("unexpected body {other:?}"),
        }
        assert_eq!(server.stats().forced_file_sync, 1);
        assert_eq!(server.stats().unstable_writes, 0);
        assert_eq!(server.uncommitted_bytes(), 0);
        server.crash(SimTime::from_secs(1));
        assert_eq!(server.stats().lost_unstable_bytes, 0);
        assert_eq!(server.stats().lost_acked_bytes, 0);
        // A repaired battery restores unstable service.
        let recovered = server.recovering_until();
        server.set_battery(true, recovered);
        let call = unstable_write_call(&server, ino, 2, 0, 8192);
        server.run_script(vec![(recovered, datagram(call))]);
        assert_eq!(server.stats().unstable_writes, 1);
    }

    #[test]
    fn throttled_unstable_writer_pays_forced_writeback_inline() {
        // A 8-page cache with a 0.25 dirty ratio: the third dirty page
        // forces the writer to drain the oldest dirty page itself.
        let cfg = ServerConfig::standard()
            .with_unified_cache(8)
            .with_dirty_ratio(0.25)
            .with_stability(crate::config::StabilityMode::Unstable);
        let mut server = NfsServer::new(cfg);
        let root = server.fs().root();
        let ino = server.fs_mut().create(root, "t", 0o644, 0).unwrap();
        for i in 0..6u64 {
            let call = unstable_write_call(&server, ino, 20 + i as u32, i * 8192, 8192);
            server.handle(SimTime::from_micros(i), datagram(call));
        }
        assert!(server.fs().counters().throttle_stalls > 0);
        assert!(server.fs().counters().writeback_blocks > 0);
        // Throttled pages reached the device, not the floor.
        assert!(server.device_stats().transfers.events() > 0);
    }

    #[test]
    fn quiesce_drains_the_unified_cache() {
        let (mut server, ino) = make_unstable_server(false);
        let call = unstable_write_call(&server, ino, 1, 0, 8192);
        server.handle(SimTime::ZERO, datagram(call));
        assert!(server.uncommitted_bytes() > 0);
        let mut actions = Vec::new();
        server.quiesce(SimTime::from_millis(1), &mut actions);
        assert_eq!(server.uncommitted_bytes(), 0);
    }
}
