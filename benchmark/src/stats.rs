//! Order statistics and the rules that turn raw samples into reported
//! metrics: quartiles, the SFS capacity rule and the tail-percentile rule.

/// Median and quartiles of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Spread {
    /// Quartiles by the same method as Python's
    /// `statistics.quantiles(values, n=4)` (the default, "exclusive"), so the
    /// numbers printed here match the ones a reader computes from the runs.
    /// A single value is its own median and quartiles.
    pub fn of(values: &[f64]) -> Spread {
        assert!(!values.is_empty(), "spread of an empty sample");
        let mut data = values.to_vec();
        data.sort_by(f64::total_cmp);
        let len = data.len();
        if len == 1 {
            return Spread {
                q1: data[0],
                median: data[0],
                q3: data[0],
                n: 1,
            };
        }
        let m = len + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
        };
        Spread {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            n: len,
        }
    }
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// One point of an offered-load ladder.
#[derive(Clone, Copy, Debug)]
pub struct LadderPoint {
    pub offered: f64,
    /// Share of the issued calls that completed.
    pub delivered: f64,
    pub latency_ms: f64,
}

impl LadderPoint {
    fn meets(&self, cap_ms: f64, min_delivered: f64) -> bool {
        self.latency_ms <= cap_ms && self.delivered >= min_delivered
    }
}

/// The SPEC SFS capacity of a ladder sorted by offered load: the highest
/// offered load at which that point *and every lower point* keep mean
/// latency within `cap_ms` and complete at least `min_delivered` of the
/// calls they issue.  When the first failing point failed on latency alone, the
/// capacity is interpolated linearly to where the latency curve crosses the
/// cap, so a small change in the model moves the number by a small amount
/// instead of by a whole ladder step.  Zero when the first point fails.
pub fn capacity(points: &[LadderPoint], cap_ms: f64, min_delivered: f64) -> f64 {
    let passing = points
        .iter()
        .take_while(|p| p.meets(cap_ms, min_delivered))
        .count();
    if passing == 0 {
        return 0.0;
    }
    let last = points[passing - 1];
    match points.get(passing) {
        // A failing point that delivered its load failed on latency, so its
        // latency lies above the cap and above `last`'s.
        Some(next) if next.delivered >= min_delivered => {
            let share = (cap_ms - last.latency_ms) / (next.latency_ms - last.latency_ms);
            last.offered + share * (next.offered - last.offered)
        }
        _ => last.offered,
    }
}

/// Samples that lie strictly beyond the `p`-th percentile of `n` samples,
/// under the nearest-rank rule `wg_simcore::LatencyStat::percentile` uses.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * (n as f64 - 1.0)).round() as usize;
    n - 1 - rank.min(n - 1)
}

/// A tail percentile is reported only when at least ten samples lie beyond
/// it; otherwise it is one outlier wearing a percentile's name.
pub fn tail_is_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = Spread::of(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Spread::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(Spread::of(&[4.0]).median, 4.0);
    }

    fn ladder(latencies: &[f64]) -> Vec<LadderPoint> {
        latencies
            .iter()
            .enumerate()
            .map(|(i, &latency_ms)| LadderPoint {
                offered: 100.0 * (i + 1) as f64,
                delivered: 1.0,
                latency_ms,
            })
            .collect()
    }

    #[test]
    fn capacity_interpolates_to_the_latency_cap() {
        // Crosses 50 ms halfway between 200 and 300 ops/s.
        assert_eq!(
            capacity(&ladder(&[10.0, 40.0, 60.0, 90.0]), 50.0, 0.98),
            250.0
        );
        // Exactly on the cap still passes.
        assert_eq!(capacity(&ladder(&[10.0, 50.0, 90.0]), 50.0, 0.98), 200.0);
        // A ladder that never reaches the cap reports its top load; one that
        // starts above it reports zero.
        assert_eq!(capacity(&ladder(&[10.0, 20.0]), 50.0, 0.98), 200.0);
        assert_eq!(capacity(&ladder(&[70.0, 80.0]), 50.0, 0.98), 0.0);
    }

    #[test]
    fn capacity_ignores_points_after_the_first_failure() {
        // 300 ops/s recovers below the cap, but 200 ops/s already failed, so
        // the capacity stays between 100 and 200.
        let c = capacity(&ladder(&[30.0, 70.0, 45.0, 48.0]), 50.0, 0.98);
        assert_eq!(c, 150.0);
    }

    #[test]
    fn capacity_stops_without_interpolation_on_lost_throughput() {
        let mut points = ladder(&[10.0, 20.0, 90.0]);
        points[2].delivered = 0.9;
        assert_eq!(capacity(&points, 50.0, 0.98), 200.0);
        // Under-delivery fails a point even when its latency is fine.
        let mut points = ladder(&[10.0, 20.0]);
        points[1].delivered = 0.5;
        assert_eq!(capacity(&points, 50.0, 0.98), 100.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(tail_is_supported(1000, 99.0));
        assert!(!tail_is_supported(950, 99.0));
        assert!(!tail_is_supported(0, 99.0));
        assert!(tail_is_supported(21, 50.0));
        assert!(!tail_is_supported(20, 50.0));
        assert_eq!(samples_beyond(1, 99.0), 0);
        // p99.9 needs ten times the samples p99 does.
        assert!(!tail_is_supported(5000, 99.9));
        assert!(tail_is_supported(10_001, 99.9));
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[781.4, 781.4]) - 781.4).abs() < 1e-9);
        assert!((geomean(&[100.0, 10_000.0]) - 1000.0).abs() < 1e-9);
    }
}
