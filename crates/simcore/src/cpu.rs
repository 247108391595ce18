//! Shared processor resources.
//!
//! The paper's tables report *server CPU utilisation*; the gathering result on
//! Prestoserve configurations (Tables 2, 4, 6) is a CPU-efficiency result, so
//! the CPU must be modelled as a real contended resource rather than a free
//! cost annotation.
//!
//! [`MultiCpu`] is a pool of N non-preemptive cores.  A caller that wants
//! `cost` seconds of processing starting no earlier than `ready` gets it on
//! whichever core can start it earliest; with one core that is the interval
//! `[max(ready, busy_until), max(ready, busy_until) + cost)`, which matches
//! how nfsd processing steps occupy a 1993-era single-CPU server.  Busy time
//! is accumulated for utilisation reporting, as aggregate busy time over
//! `cores × observed`.

use crate::stats::Utilization;
use crate::time::{Duration, SimTime};

/// A pool of identical cores with aggregate busy-time accounting.
///
/// Each processing step is non-preemptive and runs on the core that can start
/// it earliest (lowest index on ties, so runs stay deterministic).  With one
/// core the arithmetic — start time, completion time, accumulated busy time,
/// utilisation — is that of a single serial processor, which is what lets the
/// sharded server keep the paper's single-CPU numbers unchanged at
/// `cores = 1`.
#[derive(Clone, Debug)]
pub struct MultiCpu {
    /// Per-core `busy_until` times.
    cores: Vec<SimTime>,
    util: Utilization,
    speed_factor: f64,
}

impl MultiCpu {
    /// A pool of `cores` unit-speed cores (at least one).
    pub fn new(cores: usize) -> Self {
        Self::with_speed(cores, 1.0)
    }

    /// A pool of `cores` cores, each `factor`× faster than the reference cost
    /// table.
    ///
    /// Panics if `factor` is not strictly positive and finite.
    pub fn with_speed(cores: usize, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "invalid CPU speed factor"
        );
        MultiCpu {
            cores: vec![SimTime::ZERO; cores.max(1)],
            util: Utilization::new(),
            speed_factor: factor,
        }
    }

    /// Number of cores in the pool.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Run a processing step of length `cost` (at reference speed) that cannot
    /// begin before `ready`, on the core that can start it earliest.  Returns
    /// the completion time.
    pub fn run(&mut self, ready: SimTime, cost: Duration) -> SimTime {
        let scaled = Duration::from_secs_f64(cost.as_secs_f64() / self.speed_factor);
        let idx = self
            .cores
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("at least one core");
        let start = ready.max(self.cores[idx]);
        let end = start + scaled;
        self.cores[idx] = end;
        self.util.add_busy(scaled);
        end
    }

    /// Account CPU work without serialising on any core (used for costs that
    /// overlap with other work in reality, such as DMA completion handling
    /// spread across many devices).  Returns `ready + cost` scaled.
    pub fn run_overlapped(&mut self, ready: SimTime, cost: Duration) -> SimTime {
        let scaled = Duration::from_secs_f64(cost.as_secs_f64() / self.speed_factor);
        self.util.add_busy(scaled);
        ready + scaled
    }

    /// The earliest time at which a new processing step could start on some
    /// core.
    pub fn free_at(&self) -> SimTime {
        self.cores.iter().copied().min().expect("at least one core")
    }

    /// Total accumulated busy time across all cores.
    pub fn busy_time(&self) -> Duration {
        self.util.busy_time()
    }

    /// Aggregate utilisation percentage over an observed span: busy time
    /// divided by `cores × observed`, so a fully loaded 4-core pool reads
    /// 100 %, not 400 %.
    pub fn utilization_percent(&self, observed: Duration) -> f64 {
        self.util
            .percent(observed.saturating_mul(self.cores.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A serially shared processor with busy-time accounting: the reference
    /// a one-core [`MultiCpu`] must match bit for bit.
    struct Cpu {
        busy_until: SimTime,
        util: Utilization,
        speed_factor: f64,
    }

    impl Cpu {
        fn with_speed(factor: f64) -> Self {
            Cpu {
                busy_until: SimTime::ZERO,
                util: Utilization::new(),
                speed_factor: factor,
            }
        }

        fn run(&mut self, ready: SimTime, cost: Duration) -> SimTime {
            let scaled = Duration::from_secs_f64(cost.as_secs_f64() / self.speed_factor);
            let start = ready.max(self.busy_until);
            let end = start + scaled;
            self.busy_until = end;
            self.util.add_busy(scaled);
            end
        }
    }

    #[test]
    fn serialises_back_to_back_work() {
        let mut cpu = MultiCpu::new(1);
        let t1 = cpu.run(SimTime::ZERO, Duration::from_millis(2));
        assert_eq!(t1, SimTime::from_millis(2));
        // Second request arrives at 1 ms but must wait until 2 ms.
        let t2 = cpu.run(SimTime::from_millis(1), Duration::from_millis(3));
        assert_eq!(t2, SimTime::from_millis(5));
        assert_eq!(cpu.free_at(), SimTime::from_millis(5));
        assert_eq!(cpu.busy_time(), Duration::from_millis(5));
    }

    #[test]
    fn idle_gaps_do_not_count_as_busy() {
        let mut cpu = MultiCpu::new(1);
        cpu.run(SimTime::ZERO, Duration::from_millis(1));
        cpu.run(SimTime::from_millis(9), Duration::from_millis(1));
        assert_eq!(cpu.busy_time(), Duration::from_millis(2));
        assert!((cpu.utilization_percent(Duration::from_millis(10)) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn speed_factor_scales_cost() {
        let mut fast = MultiCpu::with_speed(1, 2.0);
        let end = fast.run(SimTime::ZERO, Duration::from_millis(4));
        assert_eq!(end, SimTime::from_millis(2));
        assert_eq!(fast.busy_time(), Duration::from_millis(2));
    }

    #[test]
    fn overlapped_work_does_not_push_busy_until() {
        let mut cpu = MultiCpu::new(1);
        let end = cpu.run_overlapped(SimTime::from_millis(5), Duration::from_millis(1));
        assert_eq!(end, SimTime::from_millis(6));
        assert_eq!(cpu.free_at(), SimTime::ZERO);
        assert_eq!(cpu.busy_time(), Duration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "invalid CPU speed factor")]
    fn zero_speed_panics() {
        let _ = MultiCpu::with_speed(1, 0.0);
    }

    #[test]
    fn one_core_multicpu_matches_cpu_exactly() {
        let mut serial = Cpu::with_speed(1.3);
        let mut multi = MultiCpu::with_speed(1, 1.3);
        // An irregular schedule: arrivals both before and after the busy edge.
        let steps = [
            (0u64, 1700u64),
            (500, 2300),
            (9000, 400),
            (9100, 800),
            (9100, 50),
        ];
        for (ready_us, cost_us) in steps {
            let a = serial.run(
                SimTime::from_micros(ready_us),
                Duration::from_micros(cost_us),
            );
            let b = multi.run(
                SimTime::from_micros(ready_us),
                Duration::from_micros(cost_us),
            );
            assert_eq!(a, b);
        }
        assert_eq!(serial.busy_until, multi.free_at());
        assert_eq!(serial.util.busy_time(), multi.busy_time());
        let span = Duration::from_millis(20);
        assert_eq!(
            serial.util.percent(span).to_bits(),
            multi.utilization_percent(span).to_bits()
        );
    }

    #[test]
    fn extra_cores_run_steps_in_parallel() {
        let mut multi = MultiCpu::new(2);
        let t1 = multi.run(SimTime::ZERO, Duration::from_millis(4));
        let t2 = multi.run(SimTime::ZERO, Duration::from_millis(4));
        // Both steps start immediately on distinct cores.
        assert_eq!(t1, SimTime::from_millis(4));
        assert_eq!(t2, SimTime::from_millis(4));
        // A third step waits for the earliest core.
        let t3 = multi.run(SimTime::ZERO, Duration::from_millis(1));
        assert_eq!(t3, SimTime::from_millis(5));
        assert_eq!(multi.busy_time(), Duration::from_millis(9));
        assert_eq!(multi.cores(), 2);
    }

    #[test]
    fn multicore_utilisation_is_aggregate() {
        let mut multi = MultiCpu::new(4);
        // One core busy for the whole 10 ms span: 25 % of the pool.
        multi.run(SimTime::ZERO, Duration::from_millis(10));
        let pct = multi.utilization_percent(Duration::from_millis(10));
        assert!((pct - 25.0).abs() < 1e-9, "pct {pct}");
    }

    #[test]
    fn zero_cores_is_clamped_to_one() {
        let mut multi = MultiCpu::new(0);
        assert_eq!(multi.cores(), 1);
        let t = multi.run(SimTime::ZERO, Duration::from_millis(1));
        assert_eq!(t, SimTime::from_millis(1));
    }
}
