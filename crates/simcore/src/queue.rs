//! The future-event list.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs ordered by time,
//! with ties broken by insertion order.  The tie-break matters: the whole
//! reproduction is calibrated on deterministic runs, and two events scheduled
//! for the same nanosecond (for example a reply transmission and a disk
//! completion) must always be delivered in the same order.
//!
//! # Layout
//!
//! Events are large (the drivers' `Ev` is pinned at ≤ 112 bytes) and the
//! ordering needs only their firing time and sequence number, so the queue
//! keeps the two apart:
//!
//! ```text
//!   heap: BinaryHeap<Reverse<u128>>        slab: Vec<Option<E>>
//!   ┌──────────── 64 ───────────┬──── 40 ───┬── 24 ──┐
//!   │ firing time (ns)          │ sequence  │  slot  │ ──────► slab[slot]
//!   └───────────────────────────┴───────────┴────────┘
//! ```
//!
//! * **The slab** parks each event once.  A slot is taken from a LIFO free
//!   list on schedule and returned on pop, so the slots in use are the ones
//!   most recently touched and stay hot in cache.  The slab only grows, and
//!   only when every slot is in use, so its length is the pending-event
//!   high-water mark.
//! * **The heap** sifts only 16-byte keys.  The sequence number is unique
//!   over the queue's lifetime, so the slot bits never decide an order:
//!   pops come out in exactly `(time, seq)` order whatever slots the free
//!   list hands out.
//!
//! A heap of whole `(key, event)` entries moves ~128 bytes per sift level
//! instead of 16, enough to make the scheduler the hot path.  It is kept in
//! the tests as the reference implementation the differential fuzz pins the
//! pop order against.
//!
//! # Reserved places
//!
//! [`EventQueue::reserve`] mints the `(time, sequence)` place an event
//! scheduled now would take, without queueing anything, and
//! [`EventQueue::schedule_reserved`] puts an event in that place later, as
//! long as the queue has not popped past it.  An event scheduled through a
//! reservation pops exactly where it would have popped had it been
//! scheduled when the place was minted, so a caller can keep a backlog of
//! timers outside the queue and queue only the next one due.  A place that
//! is never scheduled only skips its sequence number.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{Duration, SimTime};

/// Width of the insertion-sequence field of a packed key.
const SEQ_BITS: u32 = 40;

/// Width of the slab-slot field of a packed key (the low bits).
const SLOT_BITS: u32 = 24;

/// Pack a scheduling key: firing time in the high 64 bits, then the
/// insertion sequence, then the slab slot.
///
/// Both bounds are hard assertions, not debug ones: a sequence that spilled
/// into the time bits, or a slot that spilled into the sequence bits, would
/// silently reorder events.
#[inline]
fn pack(at: SimTime, seq: u64, slot: usize) -> u128 {
    assert!(
        seq < 1 << SEQ_BITS,
        "event sequence {seq} exceeds its {SEQ_BITS}-bit key field"
    );
    assert!(
        slot < 1 << SLOT_BITS,
        "slab slot {slot} exceeds its {SLOT_BITS}-bit key field"
    );
    (u128::from(at.as_nanos()) << 64) | (u128::from(seq) << SLOT_BITS) | slot as u128
}

/// The firing time of a packed key.
#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// The slab slot of a packed key.
#[inline]
fn key_slot(key: u128) -> usize {
    (key as usize) & ((1 << SLOT_BITS) - 1)
}

/// The insertion sequence of a packed key.
#[inline]
fn key_seq(key: u128) -> u64 {
    ((key >> SLOT_BITS) as u64) & ((1 << SEQ_BITS) - 1)
}

/// A place in an [`EventQueue`]'s pop order: a firing time and an insertion
/// sequence, minted by [`EventQueue::reserve`] and filled by
/// [`EventQueue::schedule_reserved`].  Places order by time, then sequence,
/// exactly as the events in them pop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reservation {
    at: SimTime,
    seq: u64,
}

/// Scheduler-health counters of one [`EventQueue`].
///
/// Surfaced through the drivers' run statistics and stamped into bench
/// cells next to `host_parallelism`, so the scheduler's load is visible in
/// the recorded trajectory, not just in wall clock.  The name and the two
/// inert fields are left over from the calendar queue this type used to
/// describe; the benchmark package still reads them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CalStats {
    /// Inert, always 0: the calendar's geometry rebuilds.  Kept only until
    /// the next benchmark change stops reading it.
    pub resizes: u64,
    /// High-water mark of pending events.
    pub max_depth: u64,
    /// Inert, always 0: the calendar's direct-search fallbacks.  Kept only
    /// until the next benchmark change stops reading it.
    pub rotations: u64,
}

impl CalStats {
    /// Fold another queue's counters into an accumulated view: counts add,
    /// high-water marks take the maximum.
    pub fn absorb(&mut self, other: &CalStats) {
        self.resizes += other.resizes;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.rotations += other.rotations;
    }
}

/// A deterministic future-event list.
///
/// Events are popped in non-decreasing time order; events scheduled for the
/// same instant are popped in the order they were scheduled (FIFO), which makes
/// runs reproducible regardless of which slab slots the events occupy.
pub struct EventQueue<E> {
    /// Packed `(time, seq, slot)` keys; `Reverse` makes std's max-heap pop
    /// the smallest.
    heap: BinaryHeap<Reverse<u128>>,
    /// The pending events, addressed by the slot bits of their keys.
    slab: Vec<Option<E>>,
    /// Vacant slab slots, most recently vacated last.
    free: Vec<usize>,
    now: SimTime,
    /// One past the sequence of the most recently popped event (0 before
    /// the first pop): a place at `now` with a smaller sequence has passed,
    /// and so has every place before `now`.
    unpassed_seq: u64,
    /// The next insertion sequence: places ever reserved.
    next_seq: u64,
    /// Events ever scheduled (reserved places left empty do not count).
    scheduled_total: u64,
    clamped_past: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            now: SimTime::ZERO,
            unpassed_seq: 0,
            next_seq: 0,
            scheduled_total: 0,
            clamped_past: 0,
        }
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (or zero before any event has been popped).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at the absolute instant `at`: reserve the next place
    /// at `at` and fill it at once.
    ///
    /// Scheduling in the past is a logic error in the caller; the event is
    /// clamped to `now` so time never goes backwards, and the clamp is visible
    /// in debug builds via a debug assertion.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        // A place reserved now has not passed: no need to check it.
        let place = self.reserve(at);
        self.fill(place, event);
    }

    /// Mint the place an event scheduled at `at` now would take, without
    /// queueing anything.  Reserving consumes a sequence number whether or
    /// not the place is ever filled, so every later place orders after it.
    ///
    /// A past `at` is clamped to `now` as in [`EventQueue::schedule_at`].
    pub fn reserve(&mut self, at: SimTime) -> Reservation {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        if at < self.now {
            self.clamped_past += 1;
        }
        // Tie-break invariant: the sequence is strictly monotone over the
        // queue's lifetime — same-instant events pop in reservation order
        // *because* later reservations mint larger sequence numbers.  `pack`
        // asserts it fits its 40 bits: 2^40 places is about three days of
        // host time at the fastest recorded 4.66M events/s.
        let seq = self.next_seq;
        self.next_seq += 1;
        Reservation {
            at: at.max(self.now),
            seq,
        }
    }

    /// Put `event` in a place minted earlier by [`EventQueue::reserve`]: it
    /// pops exactly where an event scheduled at the reservation would have.
    ///
    /// # Panics
    ///
    /// If the queue has already popped the event in `place` or one after it:
    /// the event would pop out of order.
    pub fn schedule_reserved(&mut self, place: Reservation, event: E) {
        let passed = place.at < self.now || (place.at == self.now && place.seq < self.unpassed_seq);
        assert!(
            !passed,
            "the reserved place {place:?} has already passed (now {:?})",
            self.now
        );
        self.fill(place, event);
    }

    /// Queue `event` in `place`.
    fn fill(&mut self, place: Reservation, event: E) {
        self.scheduled_total += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.slab.len() - 1
            }
        };
        self.heap.push(Reverse(pack(place.at, place.seq, slot)));
    }

    /// Schedule `event` after a delay relative to the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Remove and return the earliest event, advancing the clock to its
    /// timestamp.  Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(key) = self.heap.pop()?;
        let (at, slot) = (key_time(key), key_slot(key));
        let event = self.slab[slot]
            .take()
            .expect("a pending key points at a vacant slab slot");
        self.free.push(slot);
        debug_assert!(at >= self.now);
        self.now = at;
        self.unpassed_seq = key_seq(key) + 1;
        Some((at, event))
    }

    /// Peek at the timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse(key)| key_time(key))
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (for run statistics /
    /// debugging).  A reserved place counts once an event fills it.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Number of events that were scheduled in the past and silently clamped
    /// to `now`.  Always zero in a healthy model: release builds skip the
    /// debug assertion in [`EventQueue::schedule_at`], so sweeps assert this
    /// counter instead (the same pattern as `evicted_in_progress`).
    pub fn clamped_past(&self) -> u64 {
        self.clamped_past
    }

    /// The scheduler-health counters: the pending-event high-water mark,
    /// which is the slab's length because a slot is added only when every
    /// existing one is in use.
    pub fn sched_stats(&self) -> CalStats {
        CalStats {
            max_depth: self.slab.len() as u64,
            ..CalStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::cmp::Ordering;

    struct Entry<K, E> {
        key: K,
        event: E,
    }

    impl<K: Ord, E> PartialEq for Entry<K, E> {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl<K: Ord, E> Eq for Entry<K, E> {}
    impl<K: Ord, E> PartialOrd for Entry<K, E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<K: Ord, E> Ord for Entry<K, E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Max-heap inverted: the smallest key pops first.
            other.key.cmp(&self.key)
        }
    }

    /// The `BinaryHeap` of whole `(key, event)` entries that `EventQueue`
    /// shipped with first, ordered by the full key: the reference
    /// implementation the differential fuzzes compare against.
    struct HeapQueue<K, E> {
        heap: BinaryHeap<Entry<K, E>>,
    }

    impl<K: Ord, E> HeapQueue<K, E> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
            }
        }

        fn schedule(&mut self, key: K, event: E) {
            self.heap.push(Entry { key, event });
        }

        fn pop(&mut self) -> Option<(K, E)> {
            self.heap.pop().map(|e| (e.key, e.event))
        }

        fn peek_key(&self) -> Option<&K> {
            self.heap.peek().map(|e| &e.key)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(SimTime, E)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(5), "c");
        q.schedule_at(SimTime::from_millis(1), "a");
        q.schedule_at(SimTime::from_millis(3), "b");
        let order: Vec<_> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        for (at, ties) in [
            (SimTime::from_millis(7), 100u32),
            (SimTime::from_nanos(42), 1_000),
        ] {
            let mut q = EventQueue::new();
            for i in 0..ties {
                q.schedule_at(at, i);
            }
            let order: Vec<_> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
            assert_eq!(order, (0..ties).collect::<Vec<_>>());
            assert!(q.is_empty());
        }
    }

    #[test]
    fn pops_in_time_order_across_a_wide_time_range() {
        // From one nanosecond to 2^55 ns (about a year), including the
        // neighbours of every power of two where a time-bucketed structure
        // would change slot or wrap, and a sparse far-future tail.
        let times = [
            1u64 << 50,
            0,
            1,
            65_535,
            65_536,
            1 << 45,
            1 << 22,
            (1 << 22) + 3,
            u64::from(u32::MAX),
            1 << 55,
            1 << 40,
            1 << 41,
        ];
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let got: Vec<u64> = drain(&mut q)
            .into_iter()
            .map(|(t, _)| t.as_nanos())
            .collect();
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    /// Slab slots of the pending events, in pop order.
    fn slots_in_pop_order<E>(q: &EventQueue<E>) -> Vec<usize> {
        let mut keys: Vec<u128> = q.heap.iter().map(|&Reverse(k)| k).collect();
        keys.sort_unstable();
        keys.into_iter().map(key_slot).collect()
    }

    /// Schedule one same-instant burst and check that it pops in schedule
    /// order from the slots the free list was expected to hand out.
    fn burst_pops_in_schedule_order(q: &mut EventQueue<usize>, at: SimTime, want_slots: &[usize]) {
        for i in 0..want_slots.len() {
            q.schedule_at(at, i);
        }
        let slots = slots_in_pop_order(q);
        let order: Vec<usize> = drain(q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..want_slots.len()).collect::<Vec<_>>());
        assert_eq!(slots, want_slots, "the burst missed the recycled slots");
    }

    #[test]
    fn recycled_slots_never_reorder_same_instant_events() {
        // Slot bits sit below the sequence, so which slots the LIFO free
        // list hands out must not matter.  A key that ordered the slot
        // before the sequence would pop each burst in slot order instead.
        const N: usize = 64;
        let mut q = EventQueue::new();
        // Vacate the slots in a scrambled order: slot `i` fires at
        // `(i * 37) % N`, a permutation since 37 is odd.
        for i in 0..N {
            q.schedule_at(SimTime::from_nanos((i * 37 % N) as u64), i);
        }
        drain(&mut q);
        let scrambled: Vec<usize> = q.free.iter().rev().copied().collect();
        assert_ne!(scrambled, (0..N).collect::<Vec<_>>());
        burst_pops_in_schedule_order(&mut q, SimTime::from_millis(1), &scrambled);

        // Vacate them again in ascending slot order, so the next burst
        // lands on strictly descending slots.
        let handed_out: Vec<usize> = q.free.iter().rev().copied().collect();
        for (i, &slot) in handed_out.iter().enumerate() {
            q.schedule_at(
                SimTime::from_millis(2) + Duration::from_nanos(slot as u64),
                i,
            );
        }
        drain(&mut q);
        let descending: Vec<usize> = (0..N).rev().collect();
        burst_pops_in_schedule_order(&mut q, SimTime::from_millis(3), &descending);
        // Recycling kept the slab at the high-water mark.
        assert_eq!(q.sched_stats().max_depth, N as u64);
    }

    #[test]
    fn key_packing_round_trips_at_its_bounds() {
        let max_seq = (1u64 << SEQ_BITS) - 1;
        let max_slot = (1usize << SLOT_BITS) - 1;
        let key = pack(SimTime::MAX, max_seq, max_slot);
        assert_eq!(key, u128::MAX);
        assert_eq!(key_time(key), SimTime::MAX);
        assert_eq!(key_seq(key), max_seq);
        assert_eq!(key_slot(key), max_slot);
        let key = pack(SimTime::from_nanos(7), 0, max_slot);
        assert_eq!(
            (key_time(key), key_slot(key)),
            (SimTime::from_nanos(7), max_slot)
        );
        // The sequence outranks the slot, and the time outranks both.
        assert!(pack(SimTime::ZERO, 1, 0) > pack(SimTime::ZERO, 0, max_slot));
        assert!(pack(SimTime::from_nanos(1), 0, 0) > pack(SimTime::ZERO, max_seq, max_slot));
    }

    #[test]
    #[should_panic(expected = "slab slot")]
    fn a_slot_beyond_its_field_panics() {
        pack(SimTime::ZERO, 0, 1 << SLOT_BITS);
    }

    #[test]
    #[should_panic(expected = "event sequence")]
    fn a_queue_that_exhausts_its_sequence_field_panics() {
        let mut q = EventQueue::new();
        q.next_seq = (1 << SEQ_BITS) - 1;
        q.schedule_at(SimTime::ZERO, ());
        q.schedule_at(SimTime::ZERO, ());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(2), ());
        q.schedule_in(Duration::from_millis(10), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop().unwrap();
        assert_eq!(q.now(), SimTime::from_millis(2));
        q.pop().unwrap();
        assert_eq!(q.now(), SimTime::from_millis(10));
        assert!(q.pop().is_none());
        assert_eq!(q.now(), SimTime::from_millis(10));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(4), 0u8);
        q.pop().unwrap();
        q.schedule_in(Duration::from_millis(6), 1u8);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        assert_eq!(t, SimTime::from_millis(10));
    }

    #[test]
    fn counts_are_tracked() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.sched_stats(), CalStats::default());
        q.schedule_at(SimTime::from_millis(1), ());
        q.schedule_at(SimTime::from_millis(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
        // The depth is a high-water mark: popping does not lower it, and
        // refilling up to it does not raise it.
        q.schedule_at(SimTime::from_millis(3), ());
        assert_eq!(q.sched_stats().max_depth, 2);
        q.schedule_at(SimTime::from_millis(3), ());
        assert_eq!(q.sched_stats().max_depth, 3);
        let mut acc = CalStats {
            max_depth: 10,
            ..CalStats::default()
        };
        acc.absorb(&q.sched_stats());
        assert_eq!(acc.max_depth, 10);
    }

    #[test]
    fn differential_fuzz_matches_the_heap_oracle() {
        // The full EventQueue surface (clock advance, relative schedules,
        // peeks between pops) against the whole-entry BinaryHeap oracle
        // keyed `(time, seq)`, in two stream shapes: a steady one, and a
        // bursty one with same-instant bursts and jumps of up to 2^36 ns.
        for bursty in [false, true] {
            for seed in 1..=10u64 {
                let mut rng = crate::SimRng::seed_from(seed * 0xA24B_1DE5 + u64::from(bursty));
                let mut q = EventQueue::new();
                let mut oracle: HeapQueue<(SimTime, u64), u64> = HeapQueue::new();
                let mut seq = 0u64;
                let far = if bursty { 1 << 36 } else { 1 << 34 };
                for step in 0..4_000 {
                    match rng.next_below(10) {
                        0..=5 => {
                            // Schedule at or after `now` (a past-time
                            // schedule would trip the debug assertion by
                            // design; its post-clamp shape is `at == now`,
                            // exercised here).
                            let at = match rng.next_below(8) {
                                0 => q.now(),
                                1..=5 => q.now() + Duration::from_nanos(rng.next_below(1 << 18)),
                                _ => q.now() + Duration::from_nanos(rng.next_below(far)),
                            };
                            // One schedule in four of a bursty stream is a
                            // burst of 2-9 events at one instant.
                            let burst = if bursty && rng.next_below(4) == 0 {
                                rng.next_below(8) + 2
                            } else {
                                1
                            };
                            for _ in 0..burst {
                                q.schedule_at(at, seq);
                                oracle.schedule((at, seq), seq);
                                seq += 1;
                            }
                        }
                        6 => {
                            assert_eq!(q.peek_time(), oracle.peek_key().map(|(t, _)| *t));
                        }
                        _ => {
                            let got = q.pop();
                            let want = oracle.pop().map(|((t, _), e)| (t, e));
                            assert_eq!(got, want, "seed {seed} diverged at step {step}");
                        }
                    }
                }
                while let Some(got) = q.pop() {
                    assert_eq!(Some(got), oracle.pop().map(|((t, _), e)| (t, e)));
                }
                assert_eq!(oracle.len(), 0);
            }
        }
    }

    #[test]
    fn differential_fuzz_reserved_places() {
        // Some events are reserved at one step and scheduled several steps
        // later, before their place passes; others are reserved and never
        // scheduled.  The oracle receives each scheduled event at its
        // reservation step, so the queue must pop as if every reserved
        // event had been scheduled then, and the places left empty must
        // leave no trace.
        for seed in 1..=10u64 {
            let mut rng = crate::SimRng::seed_from(seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
            let mut q = EventQueue::new();
            let mut oracle: HeapQueue<(SimTime, u64), u64> = HeapQueue::new();
            // Reserved places still waiting for their event, with the
            // oracle key and the event they will carry.
            let mut pending: Vec<(Reservation, (SimTime, u64))> = Vec::new();
            let (mut seq, mut scheduled) = (0u64, 0u64);
            for step in 0..4_000 {
                let at = match rng.next_below(8) {
                    0 => q.now(),
                    1..=5 => q.now() + Duration::from_nanos(rng.next_below(1 << 18)),
                    _ => q.now() + Duration::from_nanos(rng.next_below(1 << 30)),
                };
                match rng.next_below(12) {
                    0..=3 => {
                        q.schedule_at(at, seq);
                        oracle.schedule((at, seq), seq);
                        scheduled += 1;
                    }
                    4..=5 => {
                        let place = q.reserve(at);
                        oracle.schedule((at, seq), seq);
                        pending.push((place, (at, seq)));
                    }
                    6 => {
                        // Reserved and never scheduled.
                        q.reserve(at);
                    }
                    7..=8 if !pending.is_empty() => {
                        let i = rng.next_below(pending.len() as u64) as usize;
                        let (place, (_, event)) = pending.swap_remove(i);
                        q.schedule_reserved(place, event);
                        scheduled += 1;
                    }
                    _ => {
                        // The next event due may still be waiting in a
                        // reserved place: fill it before it passes.
                        let due = oracle.peek_key().copied();
                        if let Some(i) = pending.iter().position(|&(_, key)| Some(key) == due) {
                            let (place, (_, event)) = pending.swap_remove(i);
                            q.schedule_reserved(place, event);
                            scheduled += 1;
                        }
                        let got = q.pop();
                        let want = oracle.pop().map(|((t, _), e)| (t, e));
                        assert_eq!(got, want, "seed {seed} diverged at step {step}");
                    }
                }
                seq += 1;
            }
            for (place, (_, event)) in pending.drain(..) {
                q.schedule_reserved(place, event);
                scheduled += 1;
            }
            while let Some(got) = q.pop() {
                assert_eq!(Some(got), oracle.pop().map(|((t, _), e)| (t, e)));
            }
            assert_eq!(oracle.len(), 0);
            assert_eq!(q.scheduled_total(), scheduled, "empty places were counted");
        }
    }

    #[test]
    #[should_panic(expected = "has already passed")]
    fn scheduling_into_a_passed_place_panics() {
        let mut q = EventQueue::new();
        let place = q.reserve(SimTime::from_millis(5));
        let later = q.reserve(SimTime::from_millis(5));
        q.schedule_reserved(place, "first");
        assert_eq!(q.pop(), Some((SimTime::from_millis(5), "first")));
        // The next place at the same instant is still open, but the one
        // just popped has passed.
        q.schedule_reserved(later, "later");
        q.schedule_reserved(place, "again");
    }
}
