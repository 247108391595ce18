//! The striping driver.
//!
//! Tables 5 and 6 of the paper use "a stripe set of three RZ26 disks"
//! (provided by a disk striping driver in ULTRIX).  [`StripeSet`] reproduces
//! that: the logical byte address space is split into [`STRIPE_UNIT`]-sized
//! stripe units distributed round-robin over the member disks, a logical
//! request is split at stripe-unit boundaries, and the logical completion
//! time is the latest completion among the pieces.

use crate::device::{BlockDevice, DeviceStats, DiskRequest, SpindleStats};
use crate::model::Disk;
use wg_simcore::SimTime;

/// The stripe unit in bytes: 64 KB, matching the UFS cluster size.
pub const STRIPE_UNIT: u64 = 64 * 1024;

/// Round-robin striping over RZ26 members.
#[derive(Clone, Debug)]
pub struct StripeSet {
    disks: Vec<Disk>,
}

impl StripeSet {
    /// A stripe set of `n` RZ26s.  Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "stripe set needs at least one disk");
        StripeSet {
            disks: (0..n).map(|_| Disk::rz26()).collect(),
        }
    }

    /// The 3 × RZ26 stripe set used in Tables 5 and 6.
    pub fn three_rz26() -> Self {
        StripeSet::new(3)
    }

    /// Number of member disks.
    pub fn width(&self) -> usize {
        self.disks.len()
    }

    /// The earliest time member `index` becomes idle (None past the width).
    /// The pipelined I/O loop and the invariant tests use this to observe
    /// per-spindle queues directly.
    pub fn member_free_at(&self, index: usize) -> Option<SimTime> {
        self.disks.get(index).map(|d| d.free_at())
    }

    /// Split a logical request into per-disk physical pieces.
    ///
    /// Returns `(disk_index, physical_request)` pairs in logical address
    /// order.  Exposed for unit tests.
    pub fn split(&self, req: DiskRequest) -> Vec<(usize, DiskRequest)> {
        let mut pieces = Vec::new();
        let n = self.disks.len() as u64;
        let mut addr = req.addr;
        let end = req.addr + req.len;
        while addr < end {
            let stripe_index = addr / STRIPE_UNIT;
            let within = addr % STRIPE_UNIT;
            let take = (STRIPE_UNIT - within).min(end - addr);
            let disk_index = (stripe_index % n) as usize;
            // Physical address: which stripe row this is on the member disk,
            // plus the offset within the unit.
            let row = stripe_index / n;
            let phys_addr = row * STRIPE_UNIT + within;
            pieces.push((
                disk_index,
                DiskRequest {
                    addr: phys_addr,
                    len: take,
                    kind: req.kind,
                },
            ));
            addr += take;
        }
        pieces
    }
}

impl BlockDevice for StripeSet {
    /// Submit a logical request: every piece joins its *own member's* FIFO
    /// queue at `now`, so pieces of different logical requests interleave
    /// per spindle; the logical completion is the latest piece completion.
    /// This is already queued-submission semantics — [`StripeSet`] never
    /// chains on the set-wide [`BlockDevice::free_at`]; only callers that
    /// submit each request at the previous one's completion do.
    fn submit(&mut self, now: SimTime, req: DiskRequest) -> SimTime {
        let mut done = now;
        for (disk_index, piece) in self.split(req) {
            let piece_done = self.disks[disk_index].submit(now, piece);
            done = done.max(piece_done);
        }
        done
    }

    fn stats(&self) -> DeviceStats {
        // O(width): each member merge combines totals directly.
        let mut total = DeviceStats::new();
        for d in &self.disks {
            total.merge(&d.stats());
        }
        total
    }

    fn spindle_stats(&self) -> Vec<SpindleStats> {
        self.disks.iter().flat_map(|d| d.spindle_stats()).collect()
    }

    fn free_at(&self) -> SimTime {
        self.disks
            .iter()
            .map(|d| d.free_at())
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_simcore::Duration;

    #[test]
    fn split_respects_stripe_boundaries() {
        let set = StripeSet::three_rz26();
        // A 128 KB request starting half-way into stripe unit 0.
        let pieces = set.split(DiskRequest::write(32 * 1024, 128 * 1024));
        assert_eq!(pieces.len(), 3);
        let total: u64 = pieces.iter().map(|(_, p)| p.len).sum();
        assert_eq!(total, 128 * 1024);
        // First piece fills the rest of unit 0 on disk 0.
        assert_eq!(pieces[0].0, 0);
        assert_eq!(pieces[0].1.len, 32 * 1024);
        // Second piece is the whole of unit 1 on disk 1.
        assert_eq!(pieces[1].0, 1);
        assert_eq!(pieces[1].1.len, 64 * 1024);
        // Third piece is the first half of unit 2 on disk 2.
        assert_eq!(pieces[2].0, 2);
        assert_eq!(pieces[2].1.len, 32 * 1024);
    }

    #[test]
    fn small_request_touches_one_disk() {
        let set = StripeSet::three_rz26();
        let pieces = set.split(DiskRequest::write(8192, 8192));
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].0, 0);
    }

    #[test]
    fn round_robin_distribution() {
        let set = StripeSet::three_rz26();
        assert_eq!(set.width(), 3);
        let mut seen = Vec::new();
        for unit in 0..6u64 {
            let pieces = set.split(DiskRequest::write(unit * STRIPE_UNIT, 1024));
            seen.push(pieces[0].0);
        }
        assert_eq!(seen, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn striping_beats_single_disk_for_large_sequential_io() {
        let mut single = Disk::rz26();
        let mut striped = StripeSet::three_rz26();
        let total = 4 * 1024 * 1024u64;
        let chunk = 192 * 1024u64; // spans all three disks each time
        let mut now_single = SimTime::ZERO;
        let mut now_striped = SimTime::ZERO;
        let mut addr = 0;
        while addr < total {
            now_single = single.submit(now_single, DiskRequest::write(addr, chunk));
            now_striped = striped.submit(now_striped, DiskRequest::write(addr, chunk));
            addr += chunk;
        }
        assert!(
            now_striped.as_secs_f64() < now_single.as_secs_f64() * 0.6,
            "striping gave {:.3}s vs single {:.3}s",
            now_striped.as_secs_f64(),
            now_single.as_secs_f64()
        );
    }

    #[test]
    fn stats_aggregate_member_transactions() {
        let mut set = StripeSet::three_rz26();
        set.submit(SimTime::ZERO, DiskRequest::write(0, 192 * 1024));
        let stats = set.stats();
        // One logical request, three member transactions.
        assert_eq!(stats.transfers.events(), 3);
        assert_eq!(stats.transfers.bytes(), 192 * 1024);
        assert!(stats.busy.busy_time() > Duration::ZERO);
    }

    #[test]
    fn batch_submission_interleaves_distinct_requests_across_spindles() {
        // Three 64 KB requests, one per stripe unit, land on three different
        // members.  Chained on each other's completions they serialise;
        // enqueued as a batch they run concurrently.
        let reqs = [
            DiskRequest::write(0, 64 * 1024),
            DiskRequest::write(64 * 1024, 64 * 1024),
            DiskRequest::write(128 * 1024, 64 * 1024),
        ];
        let mut chained = StripeSet::three_rz26();
        let mut clock = SimTime::ZERO;
        for &r in &reqs {
            clock = chained.submit(clock, r);
        }
        let mut batched = StripeSet::three_rz26();
        let batch_done = reqs
            .iter()
            .map(|&r| batched.submit(SimTime::ZERO, r))
            .max()
            .unwrap();
        assert!(
            batch_done.as_secs_f64() < clock.as_secs_f64() * 0.6,
            "batched {batch_done} vs chained {clock}"
        );
        // Same physical work either way: identical per-spindle totals.
        let a = chained.spindle_stats();
        let b = batched.spindle_stats();
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.stats.transfers.events(), y.stats.transfers.events());
            assert_eq!(x.stats.transfers.bytes(), y.stats.transfers.bytes());
        }
        // All three members were driven.
        assert!(b.iter().all(|s| s.stats.transfers.events() == 1));
    }

    #[test]
    fn member_free_at_exposes_per_spindle_clocks() {
        let mut set = StripeSet::three_rz26();
        set.submit(SimTime::ZERO, DiskRequest::write(0, 1024));
        assert!(set.member_free_at(0).unwrap() > SimTime::ZERO);
        assert_eq!(set.member_free_at(1).unwrap(), SimTime::ZERO);
        assert!(set.member_free_at(3).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_width_panics() {
        let _ = StripeSet::new(0);
    }
}
