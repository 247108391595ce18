//! Virtual time.
//!
//! The simulation clock is a monotonically non-decreasing count of nanoseconds
//! since the start of the run.  [`SimTime`] is an absolute instant and
//! [`Duration`] is a span between instants; both are thin wrappers over `u64`
//! nanoseconds so they are `Copy`, hashable, and totally ordered.
//!
//! All hardware models in this repository (disk seek/rotation/transfer times,
//! network serialisation delays, the paper's 5/8 ms procrastination intervals)
//! are expressed as [`Duration`]s.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// An absolute instant on the simulated clock, in nanoseconds from run start.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct Duration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely far away"
    /// sentinel (e.g. "no pending timer").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since run start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since run start as a floating point value (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since run start as a floating point value (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`; saturates to zero if `earlier` is in
    /// the future (never panics, which keeps statistics code simple).
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Duration {
    /// A zero-length span.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable span.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounded to the nearest nanosecond
    /// (a half rounds up).  Negative and non-finite inputs are clamped to
    /// zero, and spans of 2^64 ns or more saturate.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Duration(0);
        }
        Duration(round_positive(s * 1e9))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// `true` if this span is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The longer of two spans.
    pub fn max(self, other: Duration) -> Duration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The shorter of two spans.
    pub fn min(self, other: Duration) -> Duration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Multiply the span by an integer factor (saturating).
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

/// `x.round() as u64` for `x > 0`, by truncation and one comparison
/// instead of a call to libm's `round`.  Below 2^52 both the truncation
/// and the subtraction are exact; from 2^52 up `x` is already an integer,
/// so the difference is zero; from 2^64 up the cast saturates, and so does
/// the increment.
fn round_positive(x: f64) -> u64 {
    let truncated = x as u64;
    truncated.saturating_add(u64::from(x - truncated as f64 >= 0.5))
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimTime::from_millis(8).as_nanos(), 8_000_000);
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(Duration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Duration::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(Duration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_millis(10);
        let d = Duration::from_millis(5);
        assert_eq!((t + d).as_nanos(), 15_000_000);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(t + d), Duration::ZERO);
        assert_eq!((t + d).since(t), d);
    }

    #[test]
    fn float_conversions() {
        let d = Duration::from_secs_f64(0.001);
        assert_eq!(d, Duration::from_millis(1));
        assert!((d.as_millis_f64() - 1.0).abs() < 1e-9);
        assert_eq!(Duration::from_secs_f64(-3.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
    }

    /// The expression `from_secs_f64` rounded with before it stopped
    /// calling libm's `round`, kept as the reference it is tested against.
    fn from_secs_f64_by_round(s: f64) -> Duration {
        if !s.is_finite() || s <= 0.0 {
            return Duration::ZERO;
        }
        Duration((s * 1e9).round() as u64)
    }

    #[test]
    fn differential_fuzz_from_secs_f64_matches_libm_round() {
        let check = |s: f64| {
            assert_eq!(
                Duration::from_secs_f64(s),
                from_secs_f64_by_round(s),
                "{s:e} s"
            );
        };
        let mut rng = crate::SimRng::seed_from(0xF10A7);
        for _ in 0..400_000 {
            // Any bit pattern: both signs, subnormals, NaNs and infinities.
            check(f64::from_bits(rng.next_u64()));
            // Seconds in [0, 10), the range the model's timings take.
            check(rng.next_f64() * 10.0);
            // A half-nanosecond point and the values an ulp either side.
            let half = (rng.next_below(10_000_000_000) as f64 + 0.5) / 1e9;
            for s in [half, half.next_down(), half.next_up()] {
                check(s);
            }
        }
        // Where the truncation stops being exact (2^52 ns) and where the
        // cast saturates (2^64 ns), a few ulps either side.
        for edge in [2f64.powi(52), 2f64.powi(63), 2f64.powi(64)] {
            let mut s = (edge / 1e9).next_down().next_down().next_down();
            for _ in 0..7 {
                check(s);
                s = s.next_up();
            }
        }
        // The rounding itself at its edges, including the largest double
        // below one half and values far past saturation.
        for x in [
            0.499_999_999_999_999_94,
            0.5,
            1.5,
            2.5,
            2f64.powi(52) - 0.5,
            2f64.powi(52),
            2f64.powi(53) + 2.0,
            2f64.powi(64).next_down(),
            2f64.powi(64),
            2f64.powi(65),
            f64::MAX,
            f64::INFINITY,
        ] {
            assert_eq!(round_positive(x), x.round() as u64, "{x:e}");
        }
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = Duration::from_millis(1);
        let y = Duration::from_millis(2);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(SimTime::ZERO - SimTime::from_millis(1), Duration::ZERO);
        assert_eq!(
            Duration::from_millis(1).saturating_sub(Duration::from_millis(2)),
            Duration::ZERO
        );
        assert_eq!(
            SimTime::MAX.saturating_add(Duration::from_millis(1)),
            SimTime::MAX
        );
        assert_eq!(Duration::MAX.saturating_mul(2), Duration::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Duration::from_millis(8)), "8.000ms");
        assert_eq!(format!("{}", SimTime::from_millis(1)), "1.000ms");
        assert_eq!(format!("{:?}", SimTime::from_secs(1)), "t=1.000000s");
    }
}
