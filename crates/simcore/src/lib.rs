//! # wg-simcore — deterministic discrete-event simulation engine
//!
//! This crate provides the small, reusable simulation substrate that the rest of
//! the NFS write-gathering reproduction is built on:
//!
//! * [`SimTime`] / [`Duration`] — a nanosecond-resolution virtual clock,
//! * [`EventQueue`] — a deterministic future-event list (ties broken by
//!   insertion order, so identical inputs always produce identical runs): a
//!   binary heap of packed 16-byte `(time, seq, slot)` keys over a recycled
//!   slab that parks each event once, with [`CalStats`] reporting its
//!   pending-event high-water mark; a [`Reservation`] holds an event's
//!   place in that order until the event is scheduled into it,
//! * [`Cpu`] / [`MultiCpu`] — shared processor resources with busy-time
//!   accounting, used to model server (and client) CPU utilisation; a one-core
//!   [`MultiCpu`] is bit-identical to [`Cpu`],
//! * [`stats`] — counters, time-weighted utilisation trackers and latency
//!   histograms used by every table in the paper,
//! * [`trace`] — an event trace recorder used to regenerate Figure 1,
//! * [`rng`] — a tiny deterministic PRNG so that the models that need
//!   randomness (SFS workload inter-arrivals, loss injection) do not depend on
//!   platform entropy.
//!
//! The engine is intentionally *passive*: component models (disk, NVRAM,
//! network, filesystem, client, server) are plain state machines that take the
//! current [`SimTime`] and return either completion times or action lists.  A
//! top-level orchestrator (see the `wg-workload` crate) owns the event queue
//! and routes events between components.  This keeps each model independently
//! unit-testable and keeps the whole simulation single-threaded and
//! reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod calq;
pub mod cpu;
pub mod fault;
pub mod fxmap;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use cpu::{Cpu, MultiCpu};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use fxmap::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use queue::{CalStats, EventQueue, Reservation};
pub use rng::SimRng;
pub use stats::{Counter, LatencyStat, Utilization};
pub use time::{Duration, SimTime};
pub use trace::{Trace, TraceEvent, TraceKind};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_are_usable() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::ZERO, 1);
        assert_eq!(
            q.pop().map(|(_, e)| e),
            Some((SimTime::ZERO, 1)).map(|(_, e)| e)
        );
        let _ = Cpu::new();
        let _ = SimRng::seed_from(42);
    }
}
