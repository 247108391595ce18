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

use crate::time::Duration;

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

/// Sub-buckets per power of two of [`LatencyStat::percentile`]'s histogram,
/// as a bit count.
const SUB_BITS: u32 = 5;

/// Sub-buckets per power of two.
const SUBS: usize = 1 << SUB_BITS;

/// Histogram buckets: one per value below [`SUBS`], then [`SUBS`] per power
/// of two up to `2^64`.
const BUCKETS: usize = SUBS * (u64::BITS - SUB_BITS + 1) as usize;

/// The log-linear histogram bucket of a sample of `ns` nanoseconds: a value
/// below [`SUBS`] has its own bucket, a larger one shares a bucket with the
/// values that agree with it in its leading `SUB_BITS + 1` bits.  Monotone
/// in the value, so the samples of one bucket are a contiguous run of the
/// sorted sample set.
fn bucket(ns: u64) -> usize {
    if ns < SUBS as u64 {
        return ns as usize;
    }
    let msb = u64::BITS - 1 - ns.leading_zeros();
    let sub = (ns >> (msb - SUB_BITS)) as usize & (SUBS - 1);
    (msb - SUB_BITS + 1) as usize * SUBS + sub
}

/// Samples per chunk of a [`LatencyStat`]'s store: 64 KiB of `u32`s.
const CHUNK: usize = 1 << 14;

/// Accumulates request latencies and reports summary statistics.
///
/// Every sample is kept, so percentiles are exact, which a sketch of
/// bounded size could only approximate.  A sample below 2^32 ns (4.29 s)
/// costs 4 bytes: it is stored as `u32` nanoseconds in chunks of 16,384.  A
/// longer one goes to a `u64` overflow list.  The first chunk grows by
/// doubling, so a stat with few samples holds few bytes; each later chunk
/// is allocated whole, so the store grows by adding a chunk and never
/// copies itself.  A chunk is 64 KiB, under glibc's default 128 KiB mmap
/// threshold, so chunks come from the heap, and the chunks one run frees
/// serve the next instead of being mapped and unmapped afresh.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct LatencyStat {
    /// Samples below 2^32 ns, in recording order; every chunk but the last
    /// is full.
    chunks: Vec<Vec<u32>>,
    /// Samples of 2^32 ns or more.
    overflow: Vec<u64>,
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
        self.push(latency.as_nanos());
    }

    /// Store one sample of `ns` nanoseconds.
    fn push(&mut self, ns: u64) {
        let Ok(short) = u32::try_from(ns) else {
            self.overflow.push(ns);
            return;
        };
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(short),
            _ => {
                // The first chunk doubles its way up to `CHUNK`; a later
                // one starts whole.
                let capacity = if self.chunks.is_empty() { 0 } else { CHUNK };
                let mut chunk = Vec::with_capacity(capacity);
                chunk.push(short);
                self.chunks.push(chunk);
            }
        }
    }

    /// Every sample in nanoseconds: the chunks' in recording order, then
    /// the overflow list's.
    fn samples(&self) -> impl Iterator<Item = u64> + '_ {
        let short = self.chunks.iter().flatten().map(|&ns| u64::from(ns));
        short.chain(self.overflow.iter().copied())
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum::<usize>() + self.overflow.len()
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty() && self.overflow.is_empty()
    }

    /// Mean latency (zero when empty).
    pub fn mean(&self) -> Duration {
        match self.count() {
            0 => Duration::ZERO,
            n => Duration::from_nanos(self.sum.as_nanos() / n as u64),
        }
    }

    /// Minimum latency (zero when empty).
    pub fn min(&self) -> Duration {
        Duration::from_nanos(self.samples().min().unwrap_or(0))
    }

    /// Maximum latency (zero when empty).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.samples().max().unwrap_or(0))
    }

    /// The `p`-th percentile (0 ≤ p ≤ 100) using nearest-rank on the sorted
    /// sample set.  Returns zero when empty.
    ///
    /// Selects the rank in O(n) without copying the sample set: it counts
    /// the samples into log-linear buckets, finds the bucket that holds the
    /// rank, and selects inside a copy of that bucket's samples alone.  The
    /// buckets are monotone in the value, so the result is the exact
    /// element at the rank.
    pub fn percentile(&self, p: f64) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        let rank = Self::rank(p, n);
        let mut counts = [0usize; BUCKETS];
        self.samples().for_each(|ns| counts[bucket(ns)] += 1);
        // Skip whole buckets below the rank.
        let (mut held, mut below) = (0, 0);
        while below + counts[held] <= rank {
            below += counts[held];
            held += 1;
        }
        let mut bucket_samples = Vec::with_capacity(counts[held]);
        self.samples()
            .filter(|&ns| bucket(ns) == held)
            .for_each(|ns| bucket_samples.push(ns));
        Duration::from_nanos(*bucket_samples.select_nth_unstable(rank - below).1)
    }

    /// The nearest-rank index of the `p`-th percentile among `n > 0`
    /// samples.
    fn rank(p: f64, n: usize) -> usize {
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * (n as f64 - 1.0)).round() as usize;
        rank.min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

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
    fn histogram_buckets_are_monotone_and_in_range() {
        let mut edges: Vec<u64> = (0..64).map(|b| 1u64 << b).collect();
        edges.extend(edges.clone().iter().map(|e| e - 1));
        edges.extend(edges.clone().iter().map(|e| e + 1));
        edges.extend([0, 1_000, 390_000, 50_000_000, u64::MAX - 1, u64::MAX]);
        edges.sort_unstable();
        let buckets: Vec<usize> = edges.iter().map(|&ns| bucket(ns)).collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket(SUBS as u64 - 1) + 1, bucket(SUBS as u64));
    }

    /// An accumulator holding `samples` nanosecond values, filled through
    /// the store's own `push` (the one `record` uses) but without the
    /// running sum, which values near `u64::MAX` would overflow.
    fn holding(samples: &[u64]) -> LatencyStat {
        let mut l = LatencyStat::new();
        for &ns in samples {
            l.push(ns);
        }
        l
    }

    #[test]
    fn differential_fuzz_percentiles_match_the_full_sort() {
        // Seeded sample sets of awkward sizes, with heavy duplication (a
        // deterministic service time repeats), a long tail and values either
        // side of the store's 2^32 ns overflow edge; sizes at the chunk
        // edges, all of them below 2^32 so that they fill the chunks
        // exactly, and again with overflow samples added; then all samples
        // equal, one deterministic value dominating, and values crowding the
        // top of the range.  Each set's count, min, max and percentiles must
        // be those of the set sorted.
        const EDGE: u64 = 1 << 32;
        let mut rng = crate::SimRng::seed_from(0x5EED);
        let mut sets: Vec<(String, Vec<u64>)> = Vec::new();
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097] {
            let samples: Vec<u64> = (0..n)
                .map(|_| match rng.next_below(5) {
                    0 => 390_000,
                    1 => rng.next_below(1_000),
                    2 => EDGE - 1 + rng.next_below(3),
                    _ => rng.next_below(50_000_000),
                })
                .collect();
            sets.push((format!("mixed n {n}"), samples));
        }
        for n in [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
            let mut samples: Vec<u64> = (0..n)
                .map(|_| match rng.next_below(4) {
                    0 => 390_000,
                    1 => EDGE - 1,
                    _ => rng.next_below(50_000_000),
                })
                .collect();
            sets.push((format!("short n {n}"), samples.clone()));
            samples.extend((0..64).map(|_| EDGE + rng.next_below(2)));
            sets.push((format!("short n {n} + 64 overflow"), samples));
        }
        sets.push(("all equal".into(), vec![390_000; 1000]));
        let dominated: Vec<u64> = (0..4097)
            .map(|_| match rng.next_below(100) {
                0..=94 => 390_000,
                _ => rng.next_below(50_000_000),
            })
            .collect();
        sets.push(("dominated".into(), dominated));
        let top: Vec<u64> = (0..1000)
            .map(|_| match rng.next_below(4) {
                0 => u64::MAX,
                _ => u64::MAX - rng.next_below(1 << 62),
            })
            .collect();
        sets.push(("near u64::MAX".into(), top));
        for (label, samples) in &sets {
            let l = holding(samples);
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            assert_eq!(l.count(), sorted.len(), "{label}");
            assert_eq!(l.min().as_nanos(), sorted[0], "{label}");
            assert_eq!(l.max().as_nanos(), sorted[sorted.len() - 1], "{label}");
            for p in [
                0.0, 0.1, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0, -5.0, 150.0,
            ] {
                let by_sort = sorted[LatencyStat::rank(p, sorted.len())];
                assert_eq!(l.percentile(p).as_nanos(), by_sort, "{label}, p {p}");
            }
        }
    }

    #[test]
    fn latency_record_span_and_mean() {
        let mut l = LatencyStat::new();
        l.record(SimTime::from_millis(4).since(SimTime::from_millis(1)));
        l.record(Duration::from_millis(7));
        assert_eq!(l.count(), 2);
        assert_eq!(l.max(), Duration::from_millis(7));
        assert_eq!(l.mean(), Duration::from_millis(5));
    }
}
