//! The block-device interface and its statistics.

use wg_simcore::{Counter, Duration, SimTime, Utilization};

/// Whether an I/O transfers data to or from the medium.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum IoKind {
    /// A read from the medium.
    Read,
    /// A write to the medium.
    Write,
}

/// One request submitted to a block device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DiskRequest {
    /// Starting byte address on the device.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
    /// Read or write.
    pub kind: IoKind,
}

impl DiskRequest {
    /// A write request.
    pub fn write(addr: u64, len: u64) -> Self {
        DiskRequest {
            addr,
            len,
            kind: IoKind::Write,
        }
    }

    /// A read request.
    pub fn read(addr: u64, len: u64) -> Self {
        DiskRequest {
            addr,
            len,
            kind: IoKind::Read,
        }
    }
}

/// Throughput and utilisation statistics for a block device.
///
/// `transfers` counts *device transactions* — the quantity in the
/// "server disk (trans/sec)" rows of Tables 1–6.  For a stripe set, each
/// member-disk transfer counts as one transaction, matching how the paper
/// reports "server disks (trans/sec)" for the 3-drive configuration.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct DeviceStats {
    /// Completed transfers (events) and bytes moved.
    pub transfers: Counter,
    /// Accumulated medium busy time.
    pub busy: Utilization,
}

impl DeviceStats {
    /// Create zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed transfer.
    pub fn record_transfer(&mut self, bytes: u64, service: Duration) {
        self.transfers.record(bytes);
        self.busy.add_busy(service);
    }

    /// Merge the statistics of another device (used by the stripe driver).
    /// O(1): totals are combined directly, never replayed event by event.
    pub fn merge(&mut self, other: &DeviceStats) {
        self.transfers = Counter::from_totals(
            self.transfers.events() + other.transfers.events(),
            self.transfers.bytes() + other.transfers.bytes(),
        );
        self.busy.add_busy(other.busy.busy_time());
    }

    /// Disk throughput in KB/s over an observed span.
    pub fn kb_per_sec(&self, observed: Duration) -> f64 {
        self.transfers.kb_per_sec(observed)
    }

    /// Disk transactions per second over an observed span.
    pub fn transfers_per_sec(&self, observed: Duration) -> f64 {
        self.transfers.events_per_sec(observed)
    }

    /// Medium utilisation percentage over an observed span.
    pub fn utilization_percent(&self, observed: Duration) -> f64 {
        self.busy.percent(observed)
    }
}

/// Per-spindle breakdown of a device's activity, for stripe sets and sweeps
/// that need to see whether transfers actually overlapped across members.
///
/// A single [`crate::Disk`] reports one entry; a [`crate::StripeSet`] reports
/// one per member in member order; an accelerator reports its underlying
/// device's breakdown.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct SpindleStats {
    /// Transfers and busy time of this spindle alone.
    pub stats: DeviceStats,
    /// Deepest FIFO queue this spindle ever held (requests enqueued but not
    /// yet completed, including the one in service).
    pub max_queue_depth: u64,
}

impl SpindleStats {
    /// Spindle busy percentage over an observed span.
    pub fn busy_percent(&self, observed: Duration) -> f64 {
        self.stats.utilization_percent(observed)
    }
}

/// The interface the filesystem and NVRAM layers use to drive storage.
///
/// Implementations are passive service-time models: [`BlockDevice::submit`]
/// returns the simulated completion time of the request, assuming the device
/// serves requests in FIFO order.
pub trait BlockDevice {
    /// Submit a request at simulated time `now`; returns its completion time.
    ///
    /// ## Queued submission
    ///
    /// The request is enqueued at `now` on the FIFO queue of the spindle
    /// that owns its address (for a stripe set, each piece joins its own
    /// member's queue), and the returned completion time reflects only that
    /// queue's service clock.  Pieces of *different* logical requests
    /// therefore interleave per spindle instead of chaining on a set-wide
    /// [`BlockDevice::free_at`]; this is how the pipelined storage stack
    /// enqueues a whole plan at once.  Callers that want the serial
    /// behaviour submit each request at the previous one's completion time,
    /// which is exactly what the non-overlapped server I/O loop does.
    fn submit(&mut self, now: SimTime, req: DiskRequest) -> SimTime;

    /// Aggregate statistics since construction.
    fn stats(&self) -> DeviceStats;

    /// Per-spindle breakdown of the same statistics (one entry per member
    /// spindle, in member order).  The default reports the aggregate as a
    /// single spindle with no queue-depth information.
    fn spindle_stats(&self) -> Vec<SpindleStats> {
        vec![SpindleStats {
            stats: self.stats(),
            max_queue_depth: 0,
        }]
    }

    /// The time at which the device becomes idle given everything submitted
    /// so far.
    fn free_at(&self) -> SimTime;

    /// Server crash/reboot recovery hook: replay any battery-backed contents
    /// to the medium and return the time the replay completes.  Plain disks
    /// hold nothing volatile (the server discards its own dirty cache), so
    /// the default recovers instantly.
    fn crash_recover(&mut self, now: SimTime) -> SimTime {
        now
    }

    /// Battery health hook for battery-backed accelerators: `false` degrades
    /// the device to write-through until re-armed with `true`.  Returns the
    /// time the transition completes (an emergency drain may take a while).
    /// Plain disks have no battery; the default is a no-op.
    fn set_battery(&mut self, _healthy: bool, now: SimTime) -> SimTime {
        now
    }

    /// Bytes accepted and acknowledged as stable but not yet on the final
    /// medium (an accelerator's battery-backed contents).  Zero for plain
    /// disks — and required to be zero after [`BlockDevice::crash_recover`].
    fn pending_stable_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors() {
        let w = DiskRequest::write(4096, 8192);
        assert_eq!(w.kind, IoKind::Write);
        assert_eq!(w.addr, 4096);
        assert_eq!(w.len, 8192);
        let r = DiskRequest::read(0, 512);
        assert_eq!(r.kind, IoKind::Read);
    }

    #[test]
    fn stats_rates() {
        let mut s = DeviceStats::new();
        s.record_transfer(8192, Duration::from_millis(10));
        s.record_transfer(8192, Duration::from_millis(10));
        let one_sec = Duration::from_secs(1);
        assert!((s.kb_per_sec(one_sec) - 16.0).abs() < 1e-9);
        assert!((s.transfers_per_sec(one_sec) - 2.0).abs() < 1e-9);
        assert!((s.utilization_percent(one_sec) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stats_merge_preserves_totals() {
        let mut a = DeviceStats::new();
        a.record_transfer(1000, Duration::from_millis(1));
        a.record_transfer(2000, Duration::from_millis(2));
        let mut b = DeviceStats::new();
        b.record_transfer(3000, Duration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.transfers.events(), 3);
        assert_eq!(a.transfers.bytes(), 6000);
        assert_eq!(a.busy.busy_time(), Duration::from_millis(6));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = DeviceStats::new();
        a.record_transfer(500, Duration::from_millis(5));
        a.merge(&DeviceStats::new());
        assert_eq!(a.transfers.events(), 1);
        assert_eq!(a.transfers.bytes(), 500);
    }

    #[test]
    fn merge_stays_exact_at_transfer_counts_that_would_choke_a_replay() {
        // A billion-transfer history must merge instantly: the old
        // implementation replayed one synthetic event per transfer.
        let mut a = DeviceStats::new();
        a.transfers = Counter::from_totals(1_000_000_000, 8_192_000_000_000);
        let mut b = DeviceStats::new();
        b.transfers = Counter::from_totals(500_000_000, 4_096_000_000_000);
        a.merge(&b);
        assert_eq!(a.transfers.events(), 1_500_000_000);
        assert_eq!(a.transfers.bytes(), 12_288_000_000_000);
    }

    #[test]
    fn spindle_stats_percent_and_default() {
        let mut s = SpindleStats::default();
        s.stats.record_transfer(8192, Duration::from_millis(100));
        assert!((s.busy_percent(Duration::from_secs(1)) - 10.0).abs() < 1e-9);
        assert_eq!(s.max_queue_depth, 0);
    }
}
