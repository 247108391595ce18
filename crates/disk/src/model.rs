//! The single-spindle disk model: the DEC RZ26, a 1.05 GB, 5400 RPM SCSI
//! drive of the early 1990s and the disk in every table of the paper.
//!
//! Its timings are constants, calibrated so that:
//!
//! * a synchronous, non-sequential 8 KB write takes ≈13–16 ms (the paper's
//!   baseline tables show 61–77 such transactions per second), and
//! * large clustered sequential writes sustain ≈1.8–1.9 MB/s (the paper notes
//!   Table 4 drives the RZ26 "at the raw device write bandwidth limit for 64 K
//!   transfers").
//!
//! The 2.3 MB/s media rate is charged in integer nanoseconds
//! (`transfer_time`), which round as the f64 rate did at every length up to
//! 1 MiB; only the seek's square-root curve is computed in f64.

use std::collections::VecDeque;

use crate::device::{BlockDevice, DeviceStats, DiskRequest, SpindleStats};
use wg_simcore::{Duration, SimTime};

/// Fixed per-request controller overhead.
const CONTROLLER_OVERHEAD: Duration = Duration::from_micros(1_000);
/// Shortest (track-to-track) seek.
const TRACK_TO_TRACK_SEEK: Duration = Duration::from_micros(1_700);
/// Average seek (roughly a 1/3-stroke seek).
const AVERAGE_SEEK: Duration = Duration::from_micros(9_500);
/// Time for one full platter rotation (5400 RPM).
const ROTATION_TIME: Duration = Duration::from_micros(11_111);
/// Usable capacity in bytes (scales seek distances).
const CAPACITY: u64 = 1_050_000_000;

/// Media transfer time of `len` bytes at the sustained 2.3 MB/s, rounded
/// to the nearest nanosecond: `len × 10⁹ / 2.3 × 10⁶ = len × 10,000 / 23`
/// ns.  Doubling numerator and denominator turns the round-half-up into one
/// integer division (23 is odd, so no length falls on a tie).
fn transfer_time(len: u64) -> Duration {
    Duration::from_nanos((len * 20_000 + 23) / 46)
}

/// A FIFO, non-preemptive single-spindle RZ26.
///
/// The model tracks the byte address just past the previous transfer; a
/// request that starts exactly there is *sequential* and pays neither seek nor
/// rotational latency, which is how UFS clustering and Prestoserve draining
/// approach the raw media rate.  Any other request pays a distance-dependent
/// seek plus half a rotation on average.
#[derive(Clone, Debug)]
pub struct Disk {
    head_pos: u64,
    busy_until: SimTime,
    stats: DeviceStats,
    /// Completion times of enqueued requests not yet known to be finished:
    /// the spindle's FIFO queue, drained lazily as submissions observe later
    /// `now` values.  Only used for queue-depth observability — service
    /// times are entirely determined by `busy_until` and `head_pos`.
    queue: VecDeque<SimTime>,
    /// Deepest the queue ever got since the last stats reset.
    max_queue_depth: u64,
}

impl Disk {
    /// An idle RZ26 with its head at address zero.
    pub fn rz26() -> Self {
        Disk {
            head_pos: 0,
            busy_until: SimTime::ZERO,
            stats: DeviceStats::new(),
            queue: VecDeque::new(),
            max_queue_depth: 0,
        }
    }

    /// Pure service-time computation for a request that would start with the
    /// head at `head_pos`.
    fn service_time(&self, req: DiskRequest) -> Duration {
        let sequential = req.addr == self.head_pos;
        let mut t = CONTROLLER_OVERHEAD;
        if !sequential {
            t += self.seek_time(req.addr);
            // Half a rotation of latency on average for a non-sequential
            // access.
            t += Duration::from_nanos(ROTATION_TIME.as_nanos() / 2);
        }
        t += transfer_time(req.len);
        t
    }

    fn seek_time(&self, target: u64) -> Duration {
        let distance = self.head_pos.abs_diff(target);
        if distance == 0 {
            return Duration::ZERO;
        }
        let frac = (distance as f64 / CAPACITY as f64).clamp(0.0, 1.0);
        // Square-root seek curve pinned so that a 1/3-stroke seek costs the
        // quoted average: seek(d) = t2t + (avg - t2t) * sqrt(3 d).  The
        // fraction is at most 1, so a full-stroke seek costs
        // 1.7 + 7.8 × √3 ≈ 15.21 ms.
        let t2t = TRACK_TO_TRACK_SEEK.as_secs_f64();
        let avg = AVERAGE_SEEK.as_secs_f64();
        Duration::from_secs_f64(t2t + (avg - t2t) * (3.0 * frac).sqrt())
    }

    /// The number of requests enqueued but not yet completed at `now`
    /// (including any in service).  Drains finished entries from the queue.
    fn queue_depth_at(&mut self, now: SimTime) -> u64 {
        while self.queue.front().is_some_and(|&done| done <= now) {
            self.queue.pop_front();
        }
        self.queue.len() as u64
    }
}

impl BlockDevice for Disk {
    fn submit(&mut self, now: SimTime, req: DiskRequest) -> SimTime {
        let service = self.service_time(req);
        let start = now.max(self.busy_until);
        let done = start + service;
        self.busy_until = done;
        self.head_pos = req.addr + req.len;
        self.stats.record_transfer(req.len, service);
        self.queue_depth_at(now);
        self.queue.push_back(done);
        self.max_queue_depth = self.max_queue_depth.max(self.queue.len() as u64);
        done
    }

    fn stats(&self) -> DeviceStats {
        self.stats.clone()
    }

    fn spindle_stats(&self) -> Vec<SpindleStats> {
        vec![SpindleStats {
            stats: self.stats.clone(),
            max_queue_depth: self.max_queue_depth,
        }]
    }

    fn free_at(&self) -> SimTime {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_writes_avoid_seek_and_rotation() {
        let disk = Disk::rz26();
        let first = disk.service_time(DiskRequest::write(0, 8192));
        // Head starts at 0 so the first request is "sequential" by definition.
        let mut disk2 = Disk::rz26();
        disk2.submit(SimTime::ZERO, DiskRequest::write(0, 8192));
        let sequential = disk2.service_time(DiskRequest::write(8192, 8192));
        let random = disk2.service_time(DiskRequest::write(500_000_000, 8192));
        assert!(sequential < random);
        assert_eq!(first, sequential);
        // A sequential 8 KB transfer is only overhead + media time: well under 6 ms.
        assert!(
            sequential < Duration::from_millis(6),
            "sequential {sequential}"
        );
        // A random 8 KB write costs seek + rotation: comfortably over 10 ms.
        assert!(random > Duration::from_millis(10), "random {random}");
    }

    #[test]
    fn rz26_baseline_matches_paper_order_of_magnitude() {
        // The paper's no-gathering tables show 61-77 disk transactions/second
        // for a mix of data/inode/indirect writes.  A mid-distance 8 KB write
        // should therefore take roughly 12-17 ms.
        let mut disk = Disk::rz26();
        disk.submit(SimTime::ZERO, DiskRequest::write(100_000_000, 8192));
        let t = disk.service_time(DiskRequest::write(130_000_000, 8192));
        assert!(
            t > Duration::from_millis(10) && t < Duration::from_millis(20),
            "8K mid-seek write took {t}"
        );
    }

    /// Completion times, in ns, of one request sequence submitted back to
    /// back (each as the previous one completes): a sequential 8 KB write,
    /// a sequential 64 KB write, an 8 KB write 300 MB further on, a seek to
    /// the end of the disk, and a full-stroke seek back to the start.
    fn pinned_sequence(device: &mut impl BlockDevice) -> Vec<u64> {
        let far = 8192 + 65_536 + 300_000_000;
        let reqs = [
            DiskRequest::write(0, 8192),
            DiskRequest::write(8192, 65_536),
            DiskRequest::write(far, 8192),
            DiskRequest::write(1_050_000_000, 8192),
            DiskRequest::write(0, 8192),
        ];
        let mut now = SimTime::ZERO;
        reqs.iter()
            .map(|&req| {
                now = device.submit(now, req);
                now.as_nanos()
            })
            .collect()
    }

    #[test]
    fn rz26_completion_times_are_pinned_to_the_nanosecond() {
        let disk = pinned_sequence(&mut Disk::rz26());
        let stripe = pinned_sequence(&mut crate::StripeSet::three_rz26());
        assert_eq!(
            disk,
            [4_561_739, 34_055_652, 53_094_288, 76_328_934, 101_656_169]
        );
        assert_eq!(
            stripe,
            [4_561_739, 30_493_913, 46_480_267, 66_097_526, 82_085_417]
        );
    }

    #[test]
    fn differential_fuzz_transfer_time_matches_the_f64_rate() {
        // The integer transfer time against the f64 expression it replaced,
        // the length over 2.3e6 bytes per second rounded to the nearest
        // nanosecond: equal at every length up to 1 MiB.
        for len in 0..=1u64 << 20 {
            let want = Duration::from_secs_f64(len as f64 / 2.3e6);
            assert_eq!(transfer_time(len), want, "{len} bytes");
        }
    }

    #[test]
    fn large_sequential_transfers_approach_media_rate() {
        let mut disk = Disk::rz26();
        let mut now = SimTime::ZERO;
        let chunk = 65_536u64;
        let total = 10 * 1024 * 1024u64;
        let mut addr = 0;
        while addr < total {
            now = disk.submit(now, DiskRequest::write(addr, chunk));
            addr += chunk;
        }
        let secs = now.as_secs_f64();
        let rate = total as f64 / secs;
        // Sustained rate should be within ~20% of the media rate.
        assert!(rate > 1.8e6, "sustained sequential rate only {rate:.0} B/s");
        assert!(rate <= 2.3e6 + 1.0);
    }

    #[test]
    fn fifo_queueing_delays_later_requests() {
        let mut disk = Disk::rz26();
        let first = disk.submit(SimTime::ZERO, DiskRequest::write(200_000_000, 8192));
        // Submitted at the same instant, must wait for the first.
        let second = disk.submit(SimTime::ZERO, DiskRequest::write(400_000_000, 8192));
        assert!(second > first);
        assert_eq!(disk.free_at(), second);
    }

    #[test]
    fn stats_accumulate_per_transfer() {
        let mut disk = Disk::rz26();
        disk.submit(SimTime::ZERO, DiskRequest::write(0, 8192));
        disk.submit(SimTime::ZERO, DiskRequest::read(8192, 4096));
        let stats = disk.stats();
        assert_eq!(stats.transfers.events(), 2);
        assert_eq!(stats.transfers.bytes(), 8192 + 4096);
    }

    #[test]
    fn queue_depth_tracks_outstanding_requests() {
        let mut disk = Disk::rz26();
        assert_eq!(disk.queue_depth_at(SimTime::ZERO), 0);
        // Three requests enqueued at the same instant stack up FIFO.
        let d1 = disk.submit(SimTime::ZERO, DiskRequest::write(100_000_000, 8192));
        disk.submit(SimTime::ZERO, DiskRequest::write(300_000_000, 8192));
        let d3 = disk.submit(SimTime::ZERO, DiskRequest::write(500_000_000, 8192));
        assert_eq!(disk.queue_depth_at(SimTime::ZERO), 3);
        // After the first completes, two remain; after the last, none.
        assert_eq!(disk.queue_depth_at(d1), 2);
        assert_eq!(disk.queue_depth_at(d3), 0);
        let spindles = disk.spindle_stats();
        assert_eq!(spindles.len(), 1);
        assert_eq!(spindles[0].max_queue_depth, 3);
        assert_eq!(spindles[0].stats.transfers.events(), 3);
    }

    #[test]
    fn submit_at_and_batch_have_queued_fifo_semantics() {
        // On a single spindle, enqueueing a batch at one instant is exactly
        // chaining each request on the previous one's completion.
        let mut chained = Disk::rz26();
        let mut batched = Disk::rz26();
        let reqs = [
            DiskRequest::write(100_000_000, 8192),
            DiskRequest::write(300_000_000, 8192),
            DiskRequest::write(500_000_000, 8192),
        ];
        let mut clock = SimTime::ZERO;
        let serial: Vec<SimTime> = reqs
            .iter()
            .map(|&r| {
                clock = chained.submit(clock, r);
                clock
            })
            .collect();
        let batch: Vec<SimTime> = reqs
            .iter()
            .map(|&r| batched.submit(SimTime::ZERO, r))
            .collect();
        assert_eq!(serial, batch);
        // FIFO: completions are monotone in submission order.
        assert!(batch.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn idle_gap_is_not_busy_time() {
        let mut disk = Disk::rz26();
        let done = disk.submit(SimTime::ZERO, DiskRequest::write(0, 8192));
        // Next request arrives long after the first completed.
        let later = done + Duration::from_secs(1);
        let done2 = disk.submit(later, DiskRequest::write(8192, 8192));
        assert!(done2 > later);
        let busy = disk.stats().busy.busy_time();
        assert!(busy < Duration::from_millis(20));
    }
}
