//! The writer fleet behind [`crate::FileCopySystem`]: N clients, each
//! copying its own byte budget into its own chain of segment files.
//!
//! The paper remarks (§6) that write gathering pays off even more with
//! "several clients", because independent write streams give the server more
//! company to gather per metadata flush — but its tables only measure one
//! client.  The fleet runs N [`FileWriterClient`]s against one shared
//! [`wg_net::Medium`] (or one LAN segment each) and one [`NfsServer`]; the
//! paper's copy is the one-client, one-file case.  The `client` field of
//! [`wg_server::ServerInput::Datagram`] carries real client ids, and replies
//! are routed back by the id the server echoes in
//! [`wg_server::ServerAction::Reply`].
//!
//! GB-scale budgets do not fit one UFS file (12 direct + 2048 indirect 8 KB
//! blocks ≈ 16 MB), so each client writes a chain of segment files of at most
//! [`ExperimentConfig::file_limit`] bytes, rolling to the next segment when
//! the previous one's `close(2)` returns — the shape of a real bulk copy of
//! many files.  Every segment's name, size and xid window is a function of
//! `(client, segment)`; segments reuse the single-client state machine
//! unchanged, and only the xid window moves per segment so the server's
//! duplicate request cache never confuses two generations of requests.
//!
//! Everything rides the zero-copy datapath: payloads are fill patterns salted
//! per client (see [`wg_client::ClientConfig::fill_salt`]), so a million-op
//! fleet run allocates no payload bytes and
//! [`crate::FileCopySystem::verify_on_disk`] can attribute every landed block
//! to the client that wrote it.

use std::collections::VecDeque;
use std::ops::Range;

use wg_client::{
    partition, ClientAction, ClientConfig, ClientInput, ClientStats, FileWriterClient,
};
use wg_nfsproto::{FileHandle, NfsReply};
use wg_server::NfsServer;
use wg_simcore::{Duration, SimTime};

use crate::harness::{Core, Population};
use crate::results::FileCopyResult;
use crate::ExperimentConfig;

/// Minimum headroom a segment's xid window keeps beyond the writes the
/// segment actually issues (file creation, close-time attribute traffic and
/// a safety margin for future per-segment requests).
const XID_SEGMENT_SLACK: u32 = 64;

/// The fill-byte salt of a client, distinct per client id (odd multiplier
/// so the mapping is a bijection modulo 256); client 0 keeps the
/// single-client pattern.
pub(crate) fn fill_salt(client: usize) -> u8 {
    (client as u8).wrapping_mul(61)
}

/// The name of one client's segment file, `mc{client:03}_seg{segment:03}`,
/// built on the stack: the paper's copy is built in a few microseconds, and
/// formatting a heap `String` for its file would add a tenth to that.
pub(crate) struct FileName {
    bytes: [u8; 46],
    len: usize,
}

impl FileName {
    pub(crate) fn new(client: usize, segment: u64) -> Self {
        let mut name = FileName {
            bytes: [0; 46],
            len: 0,
        };
        name.push(b"mc");
        name.push_number(client as u64);
        name.push(b"_seg");
        name.push_number(segment);
        name
    }

    fn push(&mut self, text: &[u8]) {
        self.bytes[self.len..self.len + text.len()].copy_from_slice(text);
        self.len += text.len();
    }

    /// Append `n` in decimal, zero-padded to three digits.
    fn push_number(&mut self, n: u64) {
        let digits = n.checked_ilog10().unwrap_or(0).max(2) as usize + 1;
        let mut rest = n;
        for slot in self.bytes[self.len..self.len + digits].iter_mut().rev() {
            *slot = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        self.len += digits;
    }

    pub(crate) fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("ASCII name")
    }
}

impl ExperimentConfig {
    /// Segment files each client's byte budget splits into (a zero budget
    /// still writes one empty file).
    pub(crate) fn segments_per_client(&self) -> u64 {
        self.file_size.div_ceil(self.file_limit.max(1)).max(1)
    }

    /// Bytes in segment `segment` of a client's chain.
    pub(crate) fn segment_size(&self, segment: u64) -> u64 {
        let start = segment.saturating_mul(self.file_limit);
        self.file_size.saturating_sub(start).min(self.file_limit)
    }

    /// The xids of segment `segment` of `client`: the full 32-bit space is
    /// split evenly across the configured client count, and each client's
    /// window evenly across its segments.  (Duplicate detection is keyed by
    /// `(client, xid)`, so cross-client collisions would even be harmless —
    /// the even split simply keeps every request globally unique and
    /// debuggable.)
    pub(crate) fn xid_window(&self, client: usize, segment: u64) -> Range<u32> {
        let client_xids = partition(0..u32::MAX, self.clients as u64, client as u64);
        partition(client_xids, self.segments_per_client(), segment)
    }

    /// Panics unless each segment's xid window covers the requests it
    /// issues.  A segment count beyond the xid space leaves windows of no
    /// xid at all, never windows that wrap into another client's.
    pub(crate) fn check_xid_capacity(&self) {
        let window = self.xid_window(0, 0).len() as u64;
        assert!(
            window >= self.xids_per_segment(),
            "xid space too small: {} clients x {} segments leaves a \
             {window}-xid window per segment but one segment can use {}; \
             raise file_limit or lower the client count",
            self.clients,
            self.segments_per_client(),
            self.xids_per_segment()
        );
    }

    /// Xids a single segment can consume: one per 8 KB write, plus slack for
    /// the surrounding per-segment requests.
    pub(crate) fn xids_per_segment(&self) -> u64 {
        self.segment_size(0).div_ceil(8192) + XID_SEGMENT_SLACK as u64
    }

    /// The writer of one segment: the paper's client with the cell's biods,
    /// stability regime and retry knobs, in the segment's xid window and
    /// with its client's fill salt.
    fn writer_config(&self, client: usize, segment: u64) -> ClientConfig {
        let paper = ClientConfig::default();
        let (initial_timeout, max_retransmits) = self
            .client_retry
            .unwrap_or((paper.initial_timeout, paper.max_retransmits));
        ClientConfig {
            biods: self.biods,
            file_size: self.segment_size(segment),
            stability: self.stability.stable_how(),
            initial_timeout,
            max_retransmits,
            xids: self.xid_window(client, segment),
            fill_salt: fill_salt(client),
            commit_interval: self.commit_interval,
        }
    }
}

/// Acked bytes, retransmissions, give-ups and paced COMMITs summed over
/// segment writers.
#[derive(Clone, Copy, Default)]
pub(crate) struct SegmentTotals {
    pub(crate) bytes_acked: u64,
    pub(crate) retransmissions: u64,
    pub(crate) gave_up: u64,
    pub(crate) paced_commits: u64,
}

impl SegmentTotals {
    fn plus(self, stats: &ClientStats) -> Self {
        self.add(SegmentTotals {
            bytes_acked: stats.bytes_acked,
            retransmissions: stats.retransmissions,
            gave_up: stats.gave_up,
            paced_commits: stats.paced_commits,
        })
    }

    fn add(self, other: SegmentTotals) -> Self {
        SegmentTotals {
            bytes_acked: self.bytes_acked + other.bytes_acked,
            retransmissions: self.retransmissions + other.retransmissions,
            gave_up: self.gave_up + other.gave_up,
            paced_commits: self.paced_commits + other.paced_commits,
        }
    }
}

/// One client of a [`WriterFleet`]: the live writer plus the segment files
/// it has yet to write.
pub(crate) struct WriterSlot {
    pub(crate) writer: FileWriterClient,
    /// The acknowledged ranges of each finished segment, in segment order
    /// (the live writer's segment is the next one), moved out of its writer
    /// when the slot rolls so the recovery oracle can re-read closed files.
    pub(crate) closed_acked: Vec<Vec<(u64, u64)>>,
    /// Segments not yet started, each with its writer's configuration:
    /// front = next.
    pending: VecDeque<(FileHandle, ClientConfig)>,
    /// Totals of the segments already finished; the live writer holds the
    /// rest.
    finished: SegmentTotals,
    completed_at: Option<SimTime>,
}

impl WriterSlot {
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
/// previous one's `close(2)` returns.
pub(crate) struct WriterFleet {
    pub(crate) slots: Vec<WriterSlot>,
    /// Action buffer reused across every client event.
    actions: Vec<ClientAction>,
}

impl WriterFleet {
    /// Create every client's segment files on `server`'s fresh filesystem
    /// (outside the measured window) and a writer chain over them, each in
    /// its own xid window (see [`ExperimentConfig::xid_window`]).
    pub(crate) fn new(config: &ExperimentConfig, server: &mut NfsServer) -> Self {
        let root = server.fs().root();
        let slots = (0..config.clients)
            .map(|client| {
                let mut segment_writer = |segment| {
                    let name = FileName::new(client, segment);
                    let ino = server
                        .fs_mut()
                        .create(root, name.as_str(), 0o644, 0)
                        .expect("fresh namespace");
                    (
                        server.handle_for_ino(ino).expect("live inode"),
                        config.writer_config(client, segment),
                    )
                };
                let (handle, first) = segment_writer(0);
                WriterSlot {
                    writer: FileWriterClient::new(first, handle),
                    closed_acked: Vec::new(),
                    pending: (1..config.segments_per_client())
                        .map(segment_writer)
                        .collect(),
                    finished: SegmentTotals::default(),
                    completed_at: None,
                }
            })
            .collect();
        WriterFleet {
            slots,
            actions: Vec::new(),
        }
    }

    /// The whole fleet as one table cell, and one row per client.  The
    /// cell covers every client's acknowledged bytes until the last one
    /// finished (or `now`); a row's throughput, retries and completion are
    /// its client's own.  The server-side quantities are shared, so every
    /// result takes them over the whole run to keep the rows comparable.
    pub(crate) fn results(
        &self,
        biods: usize,
        server: &NfsServer,
        now: SimTime,
    ) -> (FileCopyResult, Vec<FileCopyResult>) {
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
        let row = |totals: SegmentTotals, end: SimTime, finished: bool| {
            let secs = end.since(SimTime::ZERO).as_secs_f64().max(1e-9);
            FileCopyResult {
                biods,
                client_write_kb_per_sec: totals.bytes_acked as f64 / 1024.0 / secs,
                server_cpu_percent: server.cpu_utilization_percent(elapsed),
                disk_kb_per_sec: device.kb_per_sec(elapsed),
                disk_trans_per_sec: device.transfers_per_sec(elapsed),
                elapsed_secs: secs,
                mean_batch_size: server.stats().mean_batch_size(),
                retransmissions: totals.retransmissions,
                gave_up: totals.gave_up,
                completed: finished && totals.gave_up == 0,
            }
        };
        let rows = self
            .slots
            .iter()
            .map(|s| {
                row(
                    s.totals(),
                    s.completed_at.unwrap_or(now),
                    s.completed_at.is_some(),
                )
            })
            .collect();
        let all_finished = self.slots.iter().all(|s| s.completed_at.is_some());
        (row(self.totals(), last_completion, all_finished), rows)
    }

    /// Totals over every client.
    pub(crate) fn totals(&self) -> SegmentTotals {
        let slots = self.slots.iter();
        slots.fold(SegmentTotals::default(), |sum, s| sum.add(s.totals()))
    }
}

impl Population for WriterFleet {
    type Event = (usize, ClientInput);

    fn start(&mut self, core: &mut Core<Self::Event>) {
        for client in 0..self.slots.len() {
            core.schedule(SimTime::ZERO, (client, ClientInput::Start));
        }
    }

    /// Every reply is an event: it drives the writer's window and timers.
    fn reply(&mut self, client: u32, reply: NfsReply, _: SimTime) -> Option<Self::Event> {
        Some((client as usize, ClientInput::Reply(reply)))
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
                        let next = FileWriterClient::new(config, handle);
                        let done = std::mem::replace(&mut slot.writer, next);
                        slot.finished = slot.finished.plus(&done.stats());
                        slot.closed_acked.push(done.into_acked_writes());
                        core.schedule(at, (client, ClientInput::Start));
                    }
                    None => slot.completed_at = Some(at),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileCopySystem, NetworkKind};
    use wg_server::{StabilityMode, WritePolicy};

    const MB: u64 = 1024 * 1024;

    fn fleet(clients: usize, biods: usize) -> ExperimentConfig {
        ExperimentConfig::fleet(NetworkKind::Fddi, clients, biods, WritePolicy::Gathering)
    }

    #[test]
    fn layout_splits_budgets_at_the_file_limit() {
        let cfg = fleet(2, 4).with_file_size(20 * MB).with_file_limit(8 * MB);
        assert_eq!(cfg.segments_per_client(), 3);
        assert_eq!(cfg.segment_size(0), 8 * MB);
        assert_eq!(cfg.segment_size(2), 4 * MB);
        for (client, segment) in [(1, 0), (0, 12), (1234, 5), (usize::MAX, u64::MAX)] {
            assert_eq!(
                FileName::new(client, segment).as_str(),
                format!("mc{client:03}_seg{segment:03}")
            );
        }
        // The copy writes its whole budget to one file, and the fleet keeps
        // the nfsd pool at four per client.
        let copy = ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Gathering);
        assert_eq!(copy.segments_per_client(), 1);
        assert_eq!(copy.segment_size(0), copy.file_size);
        assert_eq!(
            (copy.nfsds, fleet(1, 4).nfsds, fleet(3, 4).nfsds),
            (8, 8, 12)
        );
        // Distinct clients get distinct salts and xid spaces.
        assert_ne!(fill_salt(0), fill_salt(1));
        let last_segment = cfg.segments_per_client() - 1;
        assert!(cfg.xid_window(1, 0).start >= cfg.xid_window(0, last_segment).end);
    }

    #[test]
    fn xid_partitioning_scales_past_128_clients() {
        // 256 clients split the 32-bit xid space without overlap: every
        // segment window is disjoint and wide enough for its writes.
        let cfg = fleet(256, 2)
            .with_file_size(256 * 1024)
            .with_file_limit(128 * 1024);
        cfg.check_xid_capacity();
        let mut windows: Vec<Range<u32>> = (0..256)
            .flat_map(|c| (0..cfg.segments_per_client()).map(move |s| (c, s)))
            .map(|(c, s)| cfg.xid_window(c, s))
            .collect();
        windows.sort_unstable_by_key(|w| w.start);
        // Every window is wide enough for its segment's writes, and no two
        // windows share an xid.
        assert!(windows
            .iter()
            .all(|w| w.len() as u64 >= cfg.xids_per_segment()));
        assert!(windows.windows(2).all(|w| w[0].end <= w[1].start));
    }

    #[test]
    #[should_panic(expected = "xid space too small")]
    fn oversized_segment_count_is_rejected_not_wrapped() {
        // ~4.9 billion 8 KB segments: more segments than u32 can index.  The
        // stride math must collapse to a too-narrow window and trip the
        // constructor assert, never truncate and wrap xid windows silently.
        let cfg = fleet(2, 4)
            .with_file_size(40_000_000_000_000)
            .with_file_limit(8192);
        let _ = FileCopySystem::new(cfg);
    }

    #[test]
    fn two_hundred_fifty_six_clients_run_to_completion() {
        // ROADMAP "client-count scaling past 128": a 256-client run finishes
        // and every client's data survives the fan-in.
        let mut system = FileCopySystem::new(
            fleet(256, 1)
                .with_file_size(32 * 1024)
                .with_shards(4)
                .with_cores(4)
                .with_io_overlap(true)
                .with_spindles(3),
        );
        system.run();
        let result = system.fleet_result();
        assert_eq!(result.clients.len(), 256);
        assert_eq!(result.total_bytes_acked, 256 * 32 * 1024);
        system.verify_on_disk().expect("per-client data intact");
        assert_eq!(system.server().uncommitted_bytes(), 0);
    }

    #[test]
    fn overlapped_multi_client_run_is_not_slower_and_stays_intact() {
        let run = |overlap: bool| {
            let mut system = FileCopySystem::new(
                fleet(4, 4)
                    .with_file_size(2 * MB)
                    .with_shards(4)
                    .with_spindles(3)
                    .with_io_overlap(overlap),
            );
            system.run();
            let result = system.fleet_result();
            system.verify_on_disk().expect("per-client data intact");
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
        let mut system =
            FileCopySystem::new(fleet(2, 4).with_file_size(MB).with_file_limit(512 * 1024));
        system.run();
        let result = system.fleet_result();
        assert_eq!(result.total_bytes_acked, 2 * MB);
        assert_eq!(result.clients.len(), 2);
        assert!(result.fairness > 0.8, "fairness {}", result.fairness);
        assert!(result.aggregate_kb_per_sec > 0.0);
        system.verify_on_disk().expect("per-client data intact");
        assert_eq!(system.server().uncommitted_bytes(), 0);
    }

    #[test]
    fn unstable_clients_commit_every_segment_and_verify_on_disk() {
        let mut system = FileCopySystem::new(
            fleet(3, 4)
                .with_file_size(MB)
                .with_file_limit(512 * 1024)
                .with_unified_cache(4096)
                .with_stability(StabilityMode::Unstable),
        );
        system.run();
        let result = system.fleet_result();
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
        let mut system = FileCopySystem::new(
            fleet(3, 4)
                .with_file_size(MB)
                .with_file_limit(512 * 1024)
                .with_shards(3)
                .with_cores(2)
                .with_per_client_lans(true),
        );
        assert_eq!(system.server().shard_count(), 3);
        system.run();
        let result = system.fleet_result();
        assert_eq!(result.total_bytes_acked, 3 * MB);
        system.verify_on_disk().expect("per-client data intact");
        assert_eq!(system.server().uncommitted_bytes(), 0);
        // Independent segments: no client retransmits, fairness stays high.
        assert!(result.clients.iter().all(|c| c.retransmissions == 0));
        assert!(result.fairness > 0.9, "fairness {}", result.fairness);
    }

    #[test]
    fn per_client_lans_do_not_slow_the_aggregate() {
        let run = |lans: bool, shards: usize, cores: usize| {
            let mut system = FileCopySystem::new(
                fleet(4, 4)
                    .with_file_size(MB)
                    .with_shards(shards)
                    .with_cores(cores)
                    .with_per_client_lans(lans),
            );
            system.run();
            system.fleet_result()
        };
        let shared = run(false, 1, 1);
        let sharded = run(true, 4, 4);
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
        let mut system = FileCopySystem::new(fleet(1, 15).with_file_size(MB));
        let cell = system.run();
        let result = system.fleet_result();
        assert_eq!(result.clients.len(), 1);
        let lone = &result.clients[0];
        assert_eq!(lone.retransmissions, 0);
        assert!((result.fairness - 1.0).abs() < 1e-12);
        // The whole-fleet cell of a one-client fleet is that client's row,
        // bit for bit.
        assert_eq!(cell.to_json(), lone.to_json());
        assert_eq!(result.aggregate_kb_per_sec, lone.client_write_kb_per_sec);
    }
}
