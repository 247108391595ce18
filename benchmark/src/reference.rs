//! A fixed unit of host work that shares no code with the simulator: an
//! event loop over a binary heap and a hash table with a small allocation
//! per event.  Timed next to every repetition, it shows how fast the host
//! is running at that moment.
//!
//! Neighbours on a shared host slow everything on it for minutes at a time,
//! by 40 % and more, and that slows this probe and the simulator alike.
//! Host times are therefore reported at the probe's nominal speed: each
//! repetition's wall time is multiplied by `NOMINAL_S` over the probe's time
//! around it.  A change to the simulator still moves them in full, since the
//! probe runs none of its code.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The probe's wall time on the recording host (2 CPUs) when nothing else
/// slowed it.  It only sets the unit: on that host, unloaded, corrected
/// times equal wall times.
pub const NOMINAL_S: f64 = 0.004;

/// Host seconds one pass of the reference work takes right now.
pub fn reference_s() -> f64 {
    let start = Instant::now();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut heap = BinaryHeap::with_capacity(1024);
    let mut table: HashMap<u64, u64> = HashMap::with_capacity(4096);
    for id in 0..1024u64 {
        heap.push(Reverse((next() % 1_000_000, id)));
    }
    for _ in 0..50_000 {
        let Reverse((t, id)) = heap.pop().expect("the heap stays full");
        *table.entry(next() % 4096).or_insert(0) += t;
        let payload = black_box(vec![t; 8]);
        heap.push(Reverse((t + next() % 1_000_000, id ^ (payload[7] & 1))));
    }
    black_box(table.len());
    start.elapsed().as_secs_f64()
}

/// The host's speed over an interval, from the probe's times just before
/// and just after it: 1.0 on an unloaded recording host, lower when slowed.
pub fn speed(before_s: f64, after_s: f64) -> f64 {
    NOMINAL_S / ((before_s + after_s) / 2.0)
}
