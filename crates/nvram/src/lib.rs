//! # wg-nvram — a Prestoserve-style NVRAM write accelerator
//!
//! Prestoserve (\[MORA90\], \[PRES93\]) is a board of battery-backed RAM plus a
//! driver ("Presto") that sits between the filesystem and the disk driver.  A
//! synchronous write completes as soon as the data has been *copied into
//! NVRAM*; Presto later drains dirty NVRAM to the disk with its own
//! clustering, asynchronously and in parallel with NFS processing.  Four
//! properties matter for the paper:
//!
//! 1. The write latency seen by the filesystem is a memory-copy latency, not a
//!    disk latency — so the paper's §6.6 observation that "the first write is
//!    done faster than other writes can arrive" holds and the first-write-as-
//!    latency-device gathering of \[SIVA93\] cannot work.
//! 2. Repeated writes to the same disk blocks (the inode block a stream of
//!    NFS writes keeps updating) *overwrite in place* in NVRAM, so they cost
//!    one eventual disk transfer, not one per update — Presto's own form of
//!    metadata absorption.
//! 3. The NVRAM cache is small (typically one or a few MB), so sustained
//!    write bandwidth is eventually limited by the drain bandwidth of the
//!    underlying disk at Presto's (large) transfer size — the regime of
//!    Table 4.
//! 4. Presto declines requests above a size threshold (typically 8 KB), which
//!    fall through to the underlying disk at disk speed.
//!
//! Presto drains opportunistically: a write that leaves some dirty extent at
//! least one drain transfer (128 KB) long starts a drain, while
//! shorter runs wait for company, a flush or space pressure.  The board counts
//! such extents as extents merge and drain, so the trigger is one comparison
//! per write, and it sums a write's overlap with dirty data over only the
//! extents the write can touch: neither scans the whole dirty map.
//!
//! [`Presto`] implements [`BlockDevice`] and wraps any other [`BlockDevice`],
//! so the filesystem can be pointed at a raw disk, a stripe set, or an
//! accelerated version of either — exactly the on/off configurations the
//! paper's tables compare.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};

use wg_disk::{BlockDevice, DeviceStats, DiskRequest, IoKind, SpindleStats};
use wg_simcore::{Duration, SimTime};

/// Usable NVRAM capacity in bytes.
const CACHE_BYTES: u64 = 1024 * 1024;

/// Largest single request Presto accepts; larger requests bypass the cache
/// and go straight to the underlying device.
const MAX_REQUEST: u64 = 8192;

/// Fixed driver overhead per accepted request.
const PER_REQUEST_OVERHEAD: Duration = Duration::from_micros(120);

/// Host-memory-to-NVRAM copy bandwidth in bytes per second (this copy is CPU
/// work; the server model charges it to the CPU as well).
const COPY_RATE: f64 = 40e6;

/// Transfer size Presto uses when draining contiguous dirty data to disk.
const DRAIN_TRANSFER: u64 = 128 * 1024;

/// The Prestoserve accelerator wrapping an underlying block device.
#[derive(Debug)]
pub struct Presto<D: BlockDevice> {
    disk: D,
    /// Drain onto the underlying device with queued submission: each drain
    /// transfer is submitted at once and joins its target spindle's own FIFO
    /// queue ([`BlockDevice::submit`]) instead of waiting for the whole
    /// device's set-wide [`BlockDevice::free_at`].  On a stripe set this lets
    /// concurrent drains proceed on independent spindles; on a single disk it
    /// is behaviourally identical.  `false` reproduces the serial drain
    /// exactly.
    queued_submission: bool,
    /// Dirty extents held in NVRAM and not yet issued to the disk, keyed by
    /// start address.  Extents are kept non-overlapping and merged when
    /// adjacent, which is what gives Presto its write-cancellation and
    /// clustering behaviour.
    dirty: BTreeMap<u64, u64>,
    /// Bytes covered by `dirty`.
    dirty_bytes: u64,
    /// Extents in `dirty` of at least one drain transfer: a write that
    /// leaves one starts a drain.  Kept current by [`Self::put_extent`] and
    /// [`Self::take_extent`], the only writers of `dirty`.
    long_extents: usize,
    /// Drain transfers already issued to the disk: `(completion_time, bytes)`
    /// in completion order.  Their bytes still occupy NVRAM until completion.
    inflight: VecDeque<(SimTime, u64)>,
    /// Bytes covered by `inflight`.
    inflight_bytes: u64,
    /// `false` while the battery is failed: the board can no longer promise
    /// its contents survive a crash, so Presto degrades to write-through and
    /// every write goes straight to the underlying device.
    battery_healthy: bool,
}

impl<D: BlockDevice> Presto<D> {
    /// Wrap `disk` with the 1 MB board, draining with queued submission or,
    /// as the paper's driver does, serially.
    pub fn new(disk: D, queued_submission: bool) -> Self {
        Presto {
            disk,
            queued_submission,
            dirty: BTreeMap::new(),
            dirty_bytes: 0,
            long_extents: 0,
            inflight: VecDeque::new(),
            inflight_bytes: 0,
            battery_healthy: true,
        }
    }

    /// Wrap `disk` with the 1 MB board and its serial drain.
    pub fn with_defaults(disk: D) -> Self {
        Presto::new(disk, false)
    }

    /// Apply all drain completions that have happened by `now`.
    fn advance(&mut self, now: SimTime) {
        while let Some(&(t, bytes)) = self.inflight.front() {
            if t <= now {
                self.inflight_bytes = self.inflight_bytes.saturating_sub(bytes);
                self.inflight.pop_front();
            } else {
                break;
            }
        }
    }

    /// Put the extent `[addr, addr + len)` into `dirty`, counting it if it
    /// is long enough to drain.
    fn put_extent(&mut self, addr: u64, len: u64) {
        self.long_extents += usize::from(len >= DRAIN_TRANSFER);
        self.dirty.insert(addr, len);
    }

    /// Remove the extent starting at `addr` from `dirty` and return its
    /// length, uncounting it if it was long enough to drain.
    fn take_extent(&mut self, addr: u64) -> u64 {
        let len = self
            .dirty
            .remove(&addr)
            .expect("a dirty extent starts here");
        self.long_extents -= usize::from(len >= DRAIN_TRANSFER);
        len
    }

    /// Bytes of `[addr, addr + len)` already dirty in NVRAM.
    ///
    /// The map's extents are disjoint and never touch, so only two kinds of
    /// extent can meet the range: the one starting at or before `addr`, and
    /// those starting inside it.  Only those are visited.
    fn dirty_within(&self, addr: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let end = addr + len;
        let overlap = |(&a, &l): (&u64, &u64)| (a + l).min(end).saturating_sub(a.max(addr));
        let before = self.dirty.range(..=addr).next_back().map_or(0, overlap);
        before + self.dirty.range(addr + 1..end).map(overlap).sum::<u64>()
    }

    /// Insert an extent into the dirty map, merging with neighbours and
    /// overlaps.
    ///
    /// Like [`Self::dirty_within`], this visits only the extent starting at
    /// or before `addr` and those starting inside `[addr, addr + len]`.
    fn insert_dirty(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = addr + len;
        let (mut new_start, mut new_end) = (addr, end);
        let mut merged_existing_bytes = 0u64;
        let mut merge = |a: u64, l: u64| {
            merged_existing_bytes += l;
            new_start = new_start.min(a);
            new_end = new_end.max(a + l);
        };
        if let Some((&a, &l)) = self.dirty.range(..=addr).next_back() {
            if a + l >= addr {
                self.take_extent(a);
                merge(a, l);
            }
        }
        while let Some((&a, _)) = self.dirty.range(addr..=end).next() {
            let l = self.take_extent(a);
            merge(a, l);
        }
        self.put_extent(new_start, new_end - new_start);
        self.dirty_bytes += new_end - new_start - merged_existing_bytes;
    }

    /// The original [`Self::insert_dirty`], which visits every extent below
    /// the new one's end: the differential test's oracle.
    #[cfg(test)]
    fn insert_dirty_oracle(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let mut new_start = addr;
        let mut new_end = addr + len;

        // Collect every existing extent that overlaps or touches [start, end).
        let mut to_remove = Vec::new();
        // Start from the extent at or before new_start.
        let candidates: Vec<(u64, u64)> = self
            .dirty
            .range(..new_end.saturating_add(1))
            .map(|(&a, &l)| (a, l))
            .collect();
        for (a, l) in candidates {
            let e = a + l;
            if e < new_start || a > new_end {
                continue;
            }
            // Overlapping or adjacent: merge.
            new_start = new_start.min(a);
            new_end = new_end.max(e);
            to_remove.push(a);
        }
        let mut merged_existing_bytes = 0u64;
        for a in to_remove {
            merged_existing_bytes += self.take_extent(a);
        }
        self.put_extent(new_start, new_end - new_start);
        self.dirty_bytes += new_end - new_start - merged_existing_bytes;
    }

    /// A drain is due once some dirty extent is a whole drain transfer long.
    fn drain_due(&self) -> bool {
        self.long_extents > 0
    }

    /// The original [`Self::dirty_within`], which visits every extent below
    /// the request's end: an oracle of the submit differential test.
    #[cfg(test)]
    fn dirty_within_oracle(&self, addr: u64, len: u64) -> u64 {
        self.dirty
            .range(..addr + len)
            .filter(|(&a, &l)| a + l > addr)
            .map(|(&a, &l)| {
                let s = a.max(addr);
                let e = (a + l).min(addr + len);
                e.saturating_sub(s)
            })
            .sum::<u64>()
    }

    /// The original [`Self::drain_due`], which scans every dirty extent: an
    /// oracle of the submit differential test.
    #[cfg(test)]
    fn drain_due_oracle(&self) -> bool {
        self.dirty.values().any(|&l| l >= DRAIN_TRANSFER)
    }

    /// [`BlockDevice::submit`], with its two reads of the dirty map passed
    /// in so that the differential test runs this same body over their
    /// full-scan oracles.  Inlined into `submit`, the two reads become
    /// direct calls.
    #[inline]
    fn submit_with(
        &mut self,
        now: SimTime,
        req: DiskRequest,
        dirty_within: fn(&Self, u64, u64) -> u64,
        drain_due: fn(&Self) -> bool,
    ) -> SimTime {
        if req.kind == IoKind::Read || req.len > MAX_REQUEST {
            return self.disk.submit(now, req);
        }
        if !self.battery_healthy {
            // Degraded to write-through: with no battery the board cannot
            // promise stability, so the write must reach the medium itself.
            return self.disk.submit(now.max(self.disk.free_at()), req);
        }
        self.advance(now);
        // Bytes already dirty in NVRAM are overwritten in place and need no
        // new space; only the uncovered remainder might have to wait.
        let already = dirty_within(self, req.addr, req.len);
        let new_bytes = req.len.saturating_sub(already);
        let space_at = self.time_for_space(now, new_bytes);
        self.advance(space_at);
        let copy = Duration::from_secs_f64(req.len as f64 / COPY_RATE);
        let done = space_at + PER_REQUEST_OVERHEAD + copy;
        self.insert_dirty(req.addr, req.len);

        // Opportunistically drain whole-transfer-sized runs; smaller runs wait
        // for more company (or for a flush / space pressure).
        if drain_due(self) {
            self.pump(done);
        }
        done
    }

    /// How many drain transfers Presto keeps outstanding at the disk.  Keeping
    /// this small lets dirty extents accumulate (and merge) between drains, so
    /// the disk sees large transfers even under sustained pressure.
    const MAX_INFLIGHT_DRAINS: usize = 4;

    /// Issue drain transfers to the underlying disk, keeping at most
    /// [`Self::MAX_INFLIGHT_DRAINS`] outstanding.  Completion times land in
    /// `inflight`.
    fn pump(&mut self, now: SimTime) {
        while self.dirty_bytes > 0 && self.inflight.len() < Self::MAX_INFLIGHT_DRAINS {
            // Prefer the largest extent: Presto clusters, and large sequential
            // runs are where the disk bandwidth is.
            let (&addr, &len) = match self.dirty.iter().max_by_key(|(_, &l)| l) {
                Some(kv) => kv,
                None => break,
            };
            let take = len.min(DRAIN_TRANSFER);
            self.take_extent(addr);
            if take < len {
                self.put_extent(addr + take, len - take);
            }
            self.dirty_bytes -= take;
            // Queued drains join the target spindle's own queue at `now`;
            // serial drains wait for the whole device (for a stripe set, the
            // busiest member) to go idle first.
            let start = if self.queued_submission {
                now
            } else {
                now.max(self.disk.free_at())
            };
            let done = self.disk.submit(start, DiskRequest::write(addr, take));
            self.inflight_bytes += take;
            // Keep `inflight` sorted by completion time.  Serial drains
            // complete in issue order so this appends; queued drains on a
            // stripe set can complete out of order across spindles.
            let pos = self.inflight.partition_point(|&(t, _)| t <= done);
            self.inflight.insert(pos, (done, take));
        }
    }

    /// Earliest time at which `needed` additional bytes fit in NVRAM.
    ///
    /// When the cache is full, the caller effectively waits while the drain
    /// makes progress: step forward through drain completions, issuing further
    /// drains as slots free up, until enough space exists.
    fn time_for_space(&mut self, now: SimTime, needed: u64) -> SimTime {
        let mut t = now;
        loop {
            self.advance(t);
            if self.dirty_bytes + self.inflight_bytes + needed <= CACHE_BYTES {
                return t;
            }
            // Under space pressure the drain must make progress: issue drains
            // (bounded by the in-flight limit) and step to the next
            // completion.
            self.pump(t);
            match self.inflight.front() {
                Some(&(tc, _)) => t = tc.max(t),
                // Nothing left to drain and still no room: the request is
                // larger than the whole cache, which submit() should have
                // declined; give up waiting.
                None => return t,
            }
        }
    }

    /// Force all dirty data to be issued to the underlying device, returning
    /// the time at which the NVRAM would be fully clean: the boot-time replay
    /// and a dead battery's emergency drain.
    fn flush_all(&mut self, now: SimTime) -> SimTime {
        let mut t = now;
        loop {
            self.advance(t);
            self.pump(t);
            if self.dirty_bytes == 0 {
                return self.inflight.back().map(|&(tc, _)| tc).unwrap_or(t).max(t);
            }
            match self.inflight.front() {
                Some(&(tc, _)) => t = tc.max(t),
                None => return t,
            }
        }
    }
}

impl<D: BlockDevice> BlockDevice for Presto<D> {
    /// Submit a request through the accelerator.
    ///
    /// * Writes no larger than `max_request` complete after a driver overhead
    ///   plus the NVRAM copy time, once cache space is available.
    /// * Larger writes, and all reads, bypass the accelerator and are served
    ///   by the underlying device directly (Presto only accelerates writes).
    fn submit(&mut self, now: SimTime, req: DiskRequest) -> SimTime {
        self.submit_with(now, req, Self::dirty_within, Self::drain_due)
    }

    fn stats(&self) -> DeviceStats {
        // The interesting disk statistics (the tables' "server disk" rows) are
        // those of the underlying device.
        self.disk.stats()
    }

    fn spindle_stats(&self) -> Vec<SpindleStats> {
        self.disk.spindle_stats()
    }

    fn free_at(&self) -> SimTime {
        self.disk.free_at()
    }

    /// Boot-time recovery: the battery preserved the board's contents across
    /// the crash, so everything dirty or in flight is replayed to the disk
    /// before the server may accept traffic.  Returns when the replay (and
    /// any drains the crash interrupted) completes.
    fn crash_recover(&mut self, now: SimTime) -> SimTime {
        let done = self.flush_all(now);
        self.advance(done);
        debug_assert_eq!(self.dirty_bytes + self.inflight_bytes, 0);
        done
    }

    /// Battery failure / repair.  On failure the board performs an emergency
    /// drain of everything it holds (while charge remains) and then degrades
    /// to write-through; on repair it re-arms and accepts writes again.
    fn set_battery(&mut self, healthy: bool, now: SimTime) -> SimTime {
        if healthy {
            self.battery_healthy = true;
            return now;
        }
        if !self.battery_healthy {
            return now;
        }
        self.battery_healthy = false;
        let done = self.flush_all(now);
        self.advance(done);
        done
    }

    fn pending_stable_bytes(&self) -> u64 {
        self.dirty_bytes + self.inflight_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_disk::Disk;

    fn presto() -> Presto<Disk> {
        Presto::with_defaults(Disk::rz26())
    }

    #[test]
    fn accelerated_write_is_much_faster_than_disk() {
        let mut p = presto();
        let done = p.submit(SimTime::ZERO, DiskRequest::write(100_000_000, 8192));
        // Copy of 8 KB at 25 MB/s plus overhead: well under a millisecond.
        assert!(done < SimTime::from_millis(1), "{done:?}");
        let mut raw = Disk::rz26();
        let raw_done = raw.submit(SimTime::ZERO, DiskRequest::write(100_000_000, 8192));
        assert!(raw_done > done + Duration::from_millis(5));
    }

    #[test]
    fn oversized_writes_fall_through_to_disk_speed() {
        let mut p = presto();
        let done = p.submit(SimTime::ZERO, DiskRequest::write(100_000_000, 64 * 1024));
        assert!(done > SimTime::from_millis(10));
        // The disk took the write itself; the board holds none of it.
        assert_eq!(p.stats().transfers.bytes(), 64 * 1024);
        assert_eq!(p.pending_stable_bytes(), 0);
    }

    #[test]
    fn reads_bypass_the_accelerator() {
        let mut p = presto();
        let done = p.submit(SimTime::ZERO, DiskRequest::read(200_000_000, 8192));
        assert!(done > SimTime::from_millis(5));
        assert_eq!(p.stats().transfers.events(), 1);
        assert_eq!(p.pending_stable_bytes(), 0);
    }

    #[test]
    fn sustained_writes_are_limited_by_drain_bandwidth() {
        // Pour 8 MB of 8 KB writes in as fast as the accelerator allows; the
        // completion time of the last write must reflect the disk drain rate
        // (~2 MB/s), not the copy rate (25 MB/s), because the 1 MB cache fills.
        let mut p = presto();
        let total: u64 = 8 * 1024 * 1024;
        let mut addr = 0u64;
        let mut now = SimTime::ZERO;
        while addr < total {
            now = p.submit(now, DiskRequest::write(addr, 8192));
            addr += 8192;
        }
        let secs = now.as_secs_f64();
        let rate = total as f64 / secs;
        assert!(
            (1.5e6..2.6e6).contains(&rate),
            "sustained accelerated rate {rate:.0} B/s should approach disk drain bandwidth"
        );
    }

    #[test]
    fn burst_within_cache_is_copy_speed() {
        let mut p = presto();
        // 512 KB burst fits in the 1 MB cache comfortably.
        let mut now = SimTime::ZERO;
        let mut addr = 0u64;
        while addr < 512 * 1024 {
            now = p.submit(now, DiskRequest::write(addr, 8192));
            addr += 8192;
        }
        // 512 KB at 40 MB/s is about 13 ms; allow generous overheads.
        assert!(now < SimTime::from_millis(40), "{now:?}");
        assert!(p.pending_stable_bytes() > 0);
    }

    #[test]
    fn repeated_writes_to_the_same_block_are_absorbed() {
        // The inode-block pattern: the filesystem rewrites the same 8 KB block
        // over and over.  NVRAM absorbs the overwrites; the disk sees the
        // block far fewer times than it was written.
        let mut p = presto();
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            // Every rewrite lands in NVRAM at copy speed...
            let done = p.submit(now, DiskRequest::write(16_000_000, 8192));
            assert!(done < now + Duration::from_millis(1), "{done:?}");
            now = done;
        }
        // ...and overwrites the one block the board already holds.
        assert!(p.pending_stable_bytes() <= 8192);
        let flush_done = p.flush_all(now);
        assert!(flush_done >= now);
        let disk = p.stats().transfers;
        assert!(
            disk.events() <= 3,
            "inode block hit the disk {} times",
            disk.events()
        );
        assert!(disk.bytes() <= 3 * 8192);
    }

    #[test]
    fn interleaved_data_and_metadata_still_drain_efficiently() {
        // Alternate a sequential data stream with updates of one far-away
        // metadata block, the pattern a standard NFS server produces.  The
        // drain must still move the data in large transfers.
        let mut p = presto();
        let mut now = SimTime::ZERO;
        let total_data: u64 = 4 * 1024 * 1024;
        let mut addr = 64 * 1024 * 1024;
        while addr < 64 * 1024 * 1024 + total_data {
            now = p.submit(now, DiskRequest::write(addr, 8192));
            now = p.submit(now, DiskRequest::write(16_000_000, 8192));
            addr += 8192;
        }
        p.flush_all(now);
        let stats = p.stats();
        let mean_transfer = stats.transfers.bytes() as f64 / stats.transfers.events() as f64;
        assert!(
            mean_transfer > 48.0 * 1024.0,
            "mean drain transfer only {mean_transfer:.0} bytes"
        );
        // Sustained rate stayed near the disk's large-transfer bandwidth.
        let rate = total_data as f64 / now.as_secs_f64();
        assert!(rate > 1.2e6, "rate {rate:.0} B/s");
    }

    #[test]
    fn drain_uses_large_transfers() {
        let mut p = presto();
        let mut now = SimTime::ZERO;
        let mut addr = 0u64;
        while addr < 2 * 1024 * 1024 {
            now = p.submit(now, DiskRequest::write(addr, 8192));
            addr += 8192;
        }
        // The board took the writes and holds what it has not drained yet.
        assert!(p.pending_stable_bytes() > 0);
        let flush_done = p.flush_all(now);
        assert!(flush_done >= now);
        let disk_stats = p.stats();
        // 2 MB drained with 128 KB transfers -> roughly 16 disk transactions,
        // far fewer than the 256 8 KB writes accepted.
        assert!(
            disk_stats.transfers.events() <= 20,
            "transfers {}",
            disk_stats.transfers.events()
        );
        assert_eq!(disk_stats.transfers.bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn flush_all_on_clean_cache_is_a_noop() {
        let mut p = presto();
        assert_eq!(
            p.flush_all(SimTime::from_millis(3)),
            SimTime::from_millis(3)
        );
    }

    #[test]
    fn noncontiguous_writes_still_drain() {
        let mut p = presto();
        let mut now = SimTime::ZERO;
        // Alternate between two regions so runs keep breaking.
        for i in 0..64u64 {
            let addr = if i % 2 == 0 {
                i * 8192
            } else {
                500_000_000 + i * 8192
            };
            now = p.submit(now, DiskRequest::write(addr, 8192));
        }
        let done = p.flush_all(now);
        assert!(done > now);
        assert_eq!(p.stats().transfers.bytes(), 64 * 8192);
    }

    #[test]
    fn queued_drains_overlap_spindles_of_a_stripe_set() {
        use wg_disk::StripeSet;
        // Scattered dirty regions so successive drain transfers land on
        // different members of the stripe set.
        let fill = |p: &mut Presto<StripeSet>| {
            let mut now = SimTime::ZERO;
            for i in 0..96u64 {
                let region = (i % 3) * 300_000_000;
                now = p.submit(now, DiskRequest::write(region + (i / 3) * 8192, 8192));
            }
            now
        };
        let mut serial = Presto::new(StripeSet::three_rz26(), false);
        let mut queued = Presto::new(StripeSet::three_rz26(), true);
        let t1 = fill(&mut serial);
        let t2 = fill(&mut queued);
        let serial_done = serial.flush_all(t1);
        let queued_done = queued.flush_all(t2);
        // Same data reaches the platters either way.
        assert_eq!(
            serial.stats().transfers.bytes(),
            queued.stats().transfers.bytes()
        );
        assert!(
            queued_done < serial_done,
            "queued drain {queued_done} not faster than serial {serial_done}"
        );
        // The breakdown shows more than one spindle did the work.
        let spindles = queued.spindle_stats();
        assert_eq!(spindles.len(), 3);
        assert!(
            spindles
                .iter()
                .filter(|s| s.stats.transfers.events() > 0)
                .count()
                >= 2
        );
    }

    #[test]
    fn crash_recover_replays_everything_to_disk() {
        let mut p = presto();
        let mut now = SimTime::ZERO;
        for i in 0..32u64 {
            now = p.submit(now, DiskRequest::write(i * 8192, 8192));
        }
        assert!(p.pending_stable_bytes() > 0, "nothing held in NVRAM");
        let recovered = p.crash_recover(now);
        assert!(recovered > now, "replay should take disk time");
        assert_eq!(p.pending_stable_bytes(), 0);
        assert_eq!(p.stats().transfers.bytes(), 32 * 8192);
    }

    #[test]
    fn battery_failure_degrades_to_write_through_until_repaired() {
        let mut p = presto();
        let mut now = p.submit(SimTime::ZERO, DiskRequest::write(0, 8192));
        // Failure: emergency drain empties the board.
        now = p.set_battery(false, now);
        assert_eq!(p.pending_stable_bytes(), 0);
        assert_eq!(p.stats().transfers.bytes(), 8192);
        // Degraded writes go to the disk at disk speed.
        let start = now;
        now = p.submit(now, DiskRequest::write(100_000_000, 8192));
        assert!(now > start + Duration::from_millis(5), "not write-through");
        assert_eq!(p.stats().transfers.bytes(), 2 * 8192);
        assert_eq!(p.pending_stable_bytes(), 0);
        // Repair re-arms the accelerator.
        now = p.set_battery(true, now);
        let before = now;
        let done = p.submit(now, DiskRequest::write(200_000_000, 8192));
        assert!(done < before + Duration::from_millis(1), "not re-armed");
        assert!(p.pending_stable_bytes() > 0);
    }

    #[test]
    fn extent_merging_is_exact() {
        let mut p = presto();
        // Three disjoint extents, then one write bridging all of them.
        p.submit(SimTime::ZERO, DiskRequest::write(0, 8192));
        p.submit(SimTime::ZERO, DiskRequest::write(16384, 8192));
        p.submit(SimTime::ZERO, DiskRequest::write(32768, 8192));
        assert_eq!(p.dirty.len(), 3);
        assert_eq!(p.dirty_bytes, 3 * 8192);
        p.submit(SimTime::ZERO, DiskRequest::write(8192, 8192));
        p.submit(SimTime::ZERO, DiskRequest::write(24576, 8192));
        assert_eq!(p.dirty.len(), 1);
        assert_eq!(p.dirty_bytes, 5 * 8192);
        assert_eq!(*p.dirty.get(&0).unwrap(), 5 * 8192);
    }

    /// `insert_dirty` against its original full-scan version: random
    /// overlapping, adjacent and disjoint extents, with drains splitting and
    /// removing extents in between, leave the same map and byte count.  The
    /// CI release step reruns it at optimised speed.
    #[test]
    fn differential_fuzz_insert_dirty_matches_the_full_scan_oracle() {
        for seed in 1..=8u64 {
            let mut rng = wg_simcore::SimRng::seed_from(seed);
            let (mut fast, mut oracle) = (presto(), presto());
            let mut now = SimTime::ZERO;
            for step in 0..4000 {
                // 512-byte sectors over a 2 MB span keep extents colliding.
                let addr = rng.next_below(4096) * 512;
                let len = rng.next_below(65) * 512;
                fast.insert_dirty(addr, len);
                oracle.insert_dirty_oracle(addr, len);
                if rng.chance(0.05) {
                    now += Duration::from_millis(rng.next_below(40));
                    fast.advance(now);
                    fast.pump(now);
                    oracle.advance(now);
                    oracle.pump(now);
                }
                let at = format!("seed {seed} step {step}: insert {addr}+{len}");
                assert_eq!(fast.dirty, oracle.dirty, "{at}");
                assert_eq!(fast.dirty_bytes, oracle.dirty_bytes, "{at}");
            }
        }
    }

    /// `submit` against the same body over the full-scan overlap sum and
    /// drain check it replaced: two boards driven through one random
    /// sequence of sub-8 KB, 8 KB and oversize writes, reads, time jumps,
    /// drains and battery failures and repairs return the same completion
    /// times and hold the same NVRAM state, and the long-extent count always
    /// matches a recount of the map.  The CI release step reruns it at
    /// optimised speed.
    #[test]
    fn differential_fuzz_submit_matches_the_full_scan_oracle() {
        // Writes that the drain trigger sent to the disk, and writes that
        // overlapped dirty data while the board was full: the two reads of
        // the dirty map that the oracles check must both matter.
        let (mut triggered_drains, mut squeezed_overlaps) = (0u64, 0u64);
        for seed in 1..=8u64 {
            let mut rng = wg_simcore::SimRng::seed_from(seed);
            let (mut fast, mut oracle) = (presto(), presto());
            let mut now = SimTime::ZERO;
            let mut stream = 0u64;
            // Requests arrive faster than the disk drains on even seeds, so
            // the board stays full; on odd ones it often has room.
            let pace = if seed % 2 == 0 { 2000 } else { 5000 };
            for step in 0..4000 {
                // Half the requests continue a sequential stream over 8 MB,
                // so runs grow past one drain transfer, or rewrite its tail.
                // Some rewrite one metadata block, so requests start where
                // an extent does.  The rest land anywhere in a 4 MB span of
                // 512-byte sectors, four times the board.
                let addr = match rng.next_below(10) {
                    0..=4 => stream,
                    5 | 6 => stream.saturating_sub(512 * (1 + rng.next_below(32))),
                    7 => 16_000_000,
                    _ => rng.next_below(8192) * 512,
                };
                let mut submit = |req: DiskRequest| {
                    let covered = oracle.dirty_within_oracle(req.addr, req.len);
                    let held = oracle.dirty_bytes + oracle.inflight_bytes;
                    let full = held + req.len - covered > CACHE_BYTES;
                    squeezed_overlaps += u64::from(covered > 0 && full);
                    let accepted = req.kind == IoKind::Write && req.len <= 8192;
                    let roomy = accepted && oracle.battery_healthy && !full;
                    let issued = oracle.stats().transfers.events();
                    let f = fast.submit(now, req);
                    let o = oracle.submit_with(
                        now,
                        req,
                        Presto::dirty_within_oracle,
                        Presto::drain_due_oracle,
                    );
                    // A write that found room reaches the disk only through
                    // the drain trigger.
                    let drained = oracle.stats().transfers.events() > issued;
                    triggered_drains += u64::from(roomy && drained);
                    if (stream.saturating_sub(16 * 1024)..=stream).contains(&req.addr) {
                        stream = (req.addr + req.len).max(stream) % (8 << 20);
                    }
                    (f, o)
                };
                let (f, o) = match rng.next_below(40) {
                    0 | 1 => submit(DiskRequest::read(addr, 8192)),
                    2 | 3 => submit(DiskRequest::write(
                        addr,
                        8192 + 512 * (1 + rng.next_below(32)),
                    )),
                    4..=21 => submit(DiskRequest::write(addr, 8192)),
                    22 => {
                        now += Duration::from_millis(rng.next_below(200));
                        fast.advance(now);
                        fast.pump(now);
                        oracle.advance(now);
                        oracle.pump(now);
                        (now, now)
                    }
                    23 => {
                        let healthy = rng.chance(0.75);
                        (
                            fast.set_battery(healthy, now),
                            oracle.set_battery(healthy, now),
                        )
                    }
                    _ => submit(DiskRequest::write(addr, 512 * (1 + rng.next_below(15)))),
                };
                assert_eq!(f, o, "seed {seed} step {step}: completion time");
                assert_eq!(fast.dirty, oracle.dirty, "seed {seed} step {step}");
                assert_eq!(fast.dirty_bytes, oracle.dirty_bytes);
                assert_eq!(fast.inflight, oracle.inflight);
                let long = fast
                    .dirty
                    .values()
                    .filter(|&&l| l >= DRAIN_TRANSFER)
                    .count();
                assert_eq!(fast.long_extents, long, "seed {seed} step {step}");
                now += Duration::from_micros(rng.next_below(pace));
            }
        }
        assert!(triggered_drains > 0, "no write triggered a drain");
        assert!(squeezed_overlaps > 0, "no write overlapped a full board");
    }
}
