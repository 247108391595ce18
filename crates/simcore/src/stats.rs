//! Run statistics.
//!
//! The paper's tables report four quantities per configuration: client write
//! speed (KB/s), server CPU utilisation (%), server disk throughput (KB/s) and
//! server disk transactions per second.  Figures 2 and 3 additionally report
//! average NFS response latency.  The types in this module collect exactly
//! those kinds of measurements:
//!
//! * [`Counter`] — monotone event/byte counters with rate helpers,
//! * [`Utilization`] — time-weighted busy-fraction tracking (CPU, disk, link),
//! * [`LatencyStat`] — mean / min / max / percentile latency accumulation.

use crate::time::{Duration, SimTime};

/// A monotone counter of events and bytes, with rate helpers.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct Counter {
    events: u64,
    bytes: u64,
}

impl Counter {
    /// Create a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a counter directly from totals already accumulated elsewhere.
    ///
    /// Aggregators that combine many counters (the stripe driver merging its
    /// member disks' statistics) use this to stay O(1) per merge instead of
    /// replaying one synthetic event per recorded transfer.
    pub fn from_totals(events: u64, bytes: u64) -> Self {
        Counter { events, bytes }
    }

    /// Record one event carrying `bytes` bytes.
    pub fn record(&mut self, bytes: u64) {
        self.events += 1;
        self.bytes += bytes;
    }

    /// Record one event with no byte payload.
    pub fn tick(&mut self) {
        self.events += 1;
    }

    /// Number of recorded events.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Events per second over an elapsed span (0 if the span is zero).
    pub fn events_per_sec(&self, elapsed: Duration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.events as f64 / secs
        }
    }

    /// Kilobytes (1024 bytes) per second over an elapsed span.
    pub fn kb_per_sec(&self, elapsed: Duration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / 1024.0 / secs
        }
    }
}

/// Time-weighted utilisation of a single resource (CPU, disk arm, link).
///
/// Callers mark busy intervals with [`Utilization::add_busy`]; utilisation is
/// busy time divided by observed wall-clock span.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct Utilization {
    busy: Duration,
}

impl Utilization {
    /// Create a zeroed tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a busy interval of the given length.
    pub fn add_busy(&mut self, span: Duration) {
        self.busy += span;
    }

    /// Total accumulated busy time.
    pub fn busy_time(&self) -> Duration {
        self.busy
    }

    /// Busy fraction in `[0, 1]` over the observed span (0 if span is zero).
    /// Values above 1 are clamped; they can only arise from caller bugs where
    /// overlapping busy intervals are reported for a serial resource.
    pub fn fraction(&self, observed: Duration) -> f64 {
        let secs = observed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        (self.busy.as_secs_f64() / secs).min(1.0)
    }

    /// Busy percentage in `[0, 100]` over the observed span.
    pub fn percent(&self, observed: Duration) -> f64 {
        self.fraction(observed) * 100.0
    }
}

/// Accumulates request latencies and reports summary statistics.
///
/// Samples are stored so exact percentiles can be computed; runs in this
/// repository are small enough (at most a few hundred thousand operations) that
/// storing raw samples is simpler and more accurate than a histogram sketch.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct LatencyStat {
    samples: Vec<Duration>,
    sum: Duration,
}

impl LatencyStat {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the latency of one completed operation.
    pub fn record(&mut self, latency: Duration) {
        self.sum += latency;
        self.samples.push(latency);
    }

    /// Record the latency of an operation given its start time and completion
    /// time.
    pub fn record_span(&mut self, start: SimTime, end: SimTime) {
        self.record(end.since(start));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean latency (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum.as_nanos() / self.samples.len() as u64)
    }

    /// Minimum latency (zero when empty).
    pub fn min(&self) -> Duration {
        self.samples.iter().copied().min().unwrap_or(Duration::ZERO)
    }

    /// Maximum latency (zero when empty).
    pub fn max(&self) -> Duration {
        self.samples.iter().copied().max().unwrap_or(Duration::ZERO)
    }

    /// The `p`-th percentile (0 ≤ p ≤ 100) using nearest-rank on the sorted
    /// sample set.  Returns zero when empty.
    ///
    /// Selects the rank in O(n) on a copy instead of sorting it: the element
    /// at a rank is the same whichever way the rest is ordered.
    pub fn percentile(&self, p: f64) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        let mut samples = self.samples.clone();
        let rank = Self::rank(p, samples.len());
        *samples.select_nth_unstable(rank).1
    }

    /// The nearest-rank index of the `p`-th percentile among `n > 0`
    /// samples.
    fn rank(p: f64, n: usize) -> usize {
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * (n as f64 - 1.0)).round() as usize;
        rank.min(n - 1)
    }

    /// The full-sort [`LatencyStat::percentile`] it replaced, kept as the
    /// reference the selection is tested against.
    #[cfg(test)]
    fn percentile_by_sort(&self, p: f64) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        sorted[Self::rank(p, sorted.len())]
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStat) {
        self.sum += other.sum;
        self.samples.extend_from_slice(&other.samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_from_totals_matches_replayed_events() {
        let mut replayed = Counter::new();
        replayed.record(1000);
        replayed.record(2000);
        replayed.tick();
        let direct = Counter::from_totals(3, 3000);
        assert_eq!(direct.events(), replayed.events());
        assert_eq!(direct.bytes(), replayed.bytes());
        let empty = Counter::from_totals(0, 0);
        assert_eq!(empty.events(), 0);
        assert_eq!(empty.bytes(), 0);
    }

    #[test]
    fn counter_rates() {
        let mut c = Counter::new();
        for _ in 0..10 {
            c.record(1024);
        }
        c.tick();
        assert_eq!(c.events(), 11);
        assert_eq!(c.bytes(), 10 * 1024);
        let elapsed = Duration::from_secs(2);
        assert!((c.kb_per_sec(elapsed) - 5.0).abs() < 1e-9);
        assert!((c.events_per_sec(elapsed) - 5.5).abs() < 1e-9);
        assert_eq!(c.kb_per_sec(Duration::ZERO), 0.0);
    }

    #[test]
    fn utilization_fraction() {
        let mut u = Utilization::new();
        u.add_busy(Duration::from_millis(250));
        u.add_busy(Duration::from_millis(250));
        assert!((u.fraction(Duration::from_secs(1)) - 0.5).abs() < 1e-9);
        assert!((u.percent(Duration::from_secs(1)) - 50.0).abs() < 1e-9);
        assert_eq!(u.fraction(Duration::ZERO), 0.0);
        // Over-reporting clamps to 1.
        u.add_busy(Duration::from_secs(10));
        assert_eq!(u.fraction(Duration::from_secs(1)), 1.0);
    }

    #[test]
    fn latency_summary() {
        let mut l = LatencyStat::new();
        assert!(l.is_empty());
        assert_eq!(l.mean(), Duration::ZERO);
        assert_eq!(l.percentile(99.0), Duration::ZERO);
        for ms in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            l.record(Duration::from_millis(ms));
        }
        assert_eq!(l.count(), 10);
        assert_eq!(l.min(), Duration::from_millis(1));
        assert_eq!(l.max(), Duration::from_millis(10));
        assert_eq!(l.mean(), Duration::from_nanos(5_500_000));
        assert_eq!(l.percentile(0.0), Duration::from_millis(1));
        assert_eq!(l.percentile(100.0), Duration::from_millis(10));
        assert_eq!(l.percentile(50.0), Duration::from_millis(6));
    }

    #[test]
    fn selected_percentiles_match_the_full_sort() {
        // Seeded sample sets of awkward sizes, with heavy duplication (a
        // deterministic service time repeats) and a long tail.
        let mut rng = crate::SimRng::seed_from(0x5EED);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097] {
            let mut l = LatencyStat::new();
            for _ in 0..n {
                let ns = match rng.next_below(4) {
                    0 => 390_000,
                    1 => rng.next_below(1_000),
                    _ => rng.next_below(50_000_000),
                };
                l.record(Duration::from_nanos(ns));
            }
            for p in [
                0.0, 0.1, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0, -5.0, 150.0,
            ] {
                assert_eq!(l.percentile(p), l.percentile_by_sort(p), "n {n}, p {p}");
            }
        }
    }

    #[test]
    fn latency_record_span_and_merge() {
        let mut a = LatencyStat::new();
        a.record_span(SimTime::from_millis(1), SimTime::from_millis(4));
        let mut b = LatencyStat::new();
        b.record(Duration::from_millis(7));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Duration::from_millis(7));
        assert_eq!(a.mean(), Duration::from_millis(5));
    }
}
