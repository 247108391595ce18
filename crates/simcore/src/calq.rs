//! An adaptive calendar-queue pending-event set.
//!
//! The simulator's [`crate::EventQueue`] used to sit on a `BinaryHeap`.  At
//! millions of events per second the heap itself becomes the hot path:
//! every push and pop sifts ~128-byte entries across `O(log n)` levels, and
//! the sift traffic (not the comparisons) dominates.
//! A calendar queue (Brown, CACM 1988) replaces the heap with a
//! power-of-two array of *buckets* indexed by event time, giving amortised
//! O(1) schedule and pop: an event moves exactly once on the way in and
//! once on the way out.
//!
//! # Layout
//!
//! ```text
//!             width = 1 << shift nanoseconds per bucket
//!   bucket =  (time >> shift) & (nbuckets - 1)      nbuckets = power of two
//!
//!   [ b0 ] [ b1 ] [ b2 ] [ b3 ] ... [ bN-1 ]        one "year" = N buckets
//!     |      |
//!     |      +-- events whose virtual slot ≡ 1 (mod N), any year
//!     +--------- sorted ascending by full key: minimum at the front, so
//!                pop is `pop_front` and an in-order insert is `push_back`
//! ```
//!
//! A dequeue scans forward from the current *virtual slot* (`time >>
//! shift`, not wrapped) and takes the front of the first bucket whose
//! minimum actually belongs to the slot under the cursor; a bucket whose
//! minimum lives in a later year is skipped.  If a whole year of slots is
//! fruitless (the pending set is sparse relative to the bucket span) the
//! queue falls back to a direct O(nbuckets) scan for the global minimum —
//! counted in [`CalStats::rotations`] so the bench cells expose how often
//! the calendar degraded to a linear search.
//!
//! # Determinism
//!
//! Pop order is the whole contract: the golden tables pin it bit-for-bit.
//! The queue therefore never orders by bucket position alone — buckets are
//! kept sorted by the **full key** (`(time, seq)` for [`crate::EventQueue`]),
//! and two events can only collide into the same slot when their times are
//! close, so "earliest virtual slot, then smallest key within the bucket"
//! reproduces the global key order exactly.  Because the scan always returns the true global
//! minimum, bucket count and width are *pure performance knobs*: a resize
//! can never change pop order, which is what makes the adaptive part safe.
//!
//! # Adaptivity
//!
//! The queue resizes when occupancy drifts out of band (more than two
//! events per bucket on average, or fewer than one per four buckets) and
//! re-derives the bucket width from the observed mean inter-pop gap at
//! that moment.  Rebuilds recycle the old bucket storage through a spare
//! pool, so a steady-state run settles into a fixed geometry and performs
//! no further allocations — the same hot-loop contract the op generators
//! honour (`tests/sfs_scale.rs`).

use std::cell::Cell;
use std::collections::VecDeque;

/// A totally ordered scheduling key that exposes its firing time.
///
/// The ordering must be *time-major*: `a < b` whenever
/// `a.time_ns() < b.time_ns()`.  Ties at the same instant may be broken by
/// any further fields (such as an insertion sequence) — the calendar only
/// relies on "smaller key never fires later".
pub trait CalKey: Copy + Ord {
    /// The absolute firing time, in nanoseconds.
    fn time_ns(&self) -> u64;
}

/// Scheduler-health counters of one [`CalendarQueue`].
///
/// Surfaced through the drivers' run statistics and stamped into bench
/// cells next to `host_parallelism`, so a perf regression in the pending
/// -event set is visible in the recorded trajectory, not just in wall
/// clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CalStats {
    /// Current number of buckets (always a power of two).
    pub buckets: u64,
    /// Geometry rebuilds: occupancy left the `[nbuckets/4, 2*nbuckets]`
    /// band and the bucket array was resized / the width re-derived.
    pub resizes: u64,
    /// High-water mark of events in a single bucket.
    pub max_depth: u64,
    /// Dequeues that scanned a full year without a hit and fell back to a
    /// direct minimum search (the calendar's O(n) degradation path).
    pub rotations: u64,
}

impl CalStats {
    /// Fold another queue's counters into an accumulated view: counts add,
    /// high-water marks take the maximum.
    pub fn absorb(&mut self, other: &CalStats) {
        self.buckets = self.buckets.max(other.buckets);
        self.resizes += other.resizes;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.rotations += other.rotations;
    }
}

/// Initial bucket count; also the floor the shrink path never goes below.
const MIN_BUCKETS: usize = 64;

/// Initial `log2` of the bucket width in nanoseconds (64 µs) — replaced by
/// the measured inter-pop gap at the first resize.
const INITIAL_SHIFT: u32 = 16;

/// Widest bucket the adaptation will pick (2^40 ns ≈ 18 minutes): beyond
/// this the calendar is effectively one bucket per run and a wider slot
/// buys nothing.
const MAX_SHIFT: u32 = 40;

/// Pops between width recalibrations when occupancy stays in band.
const RECAL_POPS: u64 = 256;

/// An adaptive calendar queue over keys `K` and payloads `E`.
///
/// See the [module docs](self) for the structure; the public surface is
/// deliberately minimal — the simulator-facing API (clamping, sequence
/// minting, `clamped_past` accounting) lives in the wrapper,
/// [`crate::EventQueue`].
pub struct CalendarQueue<K, E> {
    /// `buckets[(t >> shift) & mask]`, each sorted ascending by key.
    buckets: Vec<VecDeque<(K, E)>>,
    mask: usize,
    shift: u32,
    len: usize,
    /// One bit per bucket, set iff the bucket is non-empty, so the slot
    /// scan skips runs of empty buckets with `trailing_zeros` instead of
    /// probing them one by one.
    occupied: Vec<u64>,
    /// Scan cursor: no pending event has a virtual slot below this.
    /// Interior-mutable so `peek` (used by `&self` accessors upstream) can
    /// persist its scan progress and a following pop is O(1).
    scan_vslot: Cell<u64>,
    /// Bucket index whose front is the known global minimum, when a peek
    /// has located it and nothing smaller has been scheduled since.
    cursor: Cell<Option<u32>>,
    /// Recycled bucket storage for resizes (geometry rebuilds move the
    /// old deques here instead of freeing them).
    spare: Vec<VecDeque<(K, E)>>,
    /// The previous bucket array's spine, kept so a rebuild reuses its
    /// capacity instead of allocating a fresh one.
    spare_spine: Vec<VecDeque<(K, E)>>,
    /// Pop-gap sampling since the last resize, for width re-derivation.
    pops_since_resize: u64,
    first_pop_ns: u64,
    last_pop_ns: u64,
    resizes: u64,
    max_depth: u64,
    rotations: Cell<u64>,
}

impl<K: CalKey, E> Default for CalendarQueue<K, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: CalKey, E> CalendarQueue<K, E> {
    /// An empty queue with the default geometry (adapted after use).
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(MIN_BUCKETS);
        buckets.resize_with(MIN_BUCKETS, VecDeque::new);
        CalendarQueue {
            buckets,
            occupied: vec![0; MIN_BUCKETS >> 6],
            mask: MIN_BUCKETS - 1,
            shift: INITIAL_SHIFT,
            len: 0,
            scan_vslot: Cell::new(0),
            cursor: Cell::new(None),
            spare: Vec::new(),
            spare_spine: Vec::new(),
            pops_since_resize: 0,
            first_pop_ns: 0,
            last_pop_ns: 0,
            resizes: 0,
            max_depth: 0,
            rotations: Cell::new(0),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current health counters.
    pub fn stats(&self) -> CalStats {
        CalStats {
            buckets: (self.mask + 1) as u64,
            resizes: self.resizes,
            max_depth: self.max_depth,
            rotations: self.rotations.get(),
        }
    }

    #[inline]
    fn vslot(&self, k: &K) -> u64 {
        k.time_ns() >> self.shift
    }

    /// Insert into the right bucket, keeping it sorted ascending so the
    /// minimum stays at the front.  The fast path is an O(1) append: same
    /// -instant bursts (a gathered batch's replies) and chronological
    /// child schedules both arrive in increasing key order, so the new
    /// key usually sorts after everything already in the bucket.  Keys
    /// are unique (every caller mints a distinguishing sequence number),
    /// so the partition point is exact.
    #[inline]
    fn place(&mut self, key: K, event: E) {
        let idx = (self.vslot(&key) as usize) & self.mask;
        let bucket = &mut self.buckets[idx];
        match bucket.back() {
            Some((back, _)) if key < *back => {
                let pos = bucket.partition_point(|(k, _)| *k < key);
                bucket.insert(pos, (key, event));
            }
            _ => bucket.push_back((key, event)),
        }
        self.occupied[idx >> 6] |= 1 << (idx & 63);
        let depth = bucket.len() as u64;
        if depth > self.max_depth {
            self.max_depth = depth;
        }
    }

    /// Schedule one event.  O(1) amortised; the caller guarantees `key` is
    /// unique (distinct sequence field).
    pub fn schedule(&mut self, key: K, event: E) {
        let vs = self.vslot(&key);
        // Rewind the scan cursor if the new event lands below it — a peek
        // may have advanced the cursor past this slot while it was empty.
        if vs < self.scan_vslot.get() {
            self.scan_vslot.set(vs);
        }
        // Keep the cached minimum coherent without a rescan: a smaller key
        // than the cached one relocates the cursor to its bucket; anything
        // larger leaves the cached minimum the minimum.
        if let Some(b) = self.cursor.get() {
            let cached = &self.buckets[b as usize]
                .front()
                .expect("cursor points at an empty bucket")
                .0;
            if key < *cached {
                self.cursor.set(Some(((vs as usize) & self.mask) as u32));
            }
        }
        self.place(key, event);
        self.len += 1;
        self.maybe_resize();
    }

    /// Offset in slots from ring position `pos` to the next occupied
    /// bucket, looking at most `span` slots forward (wrapping around the
    /// bucket array).  `None` when every bucket in that window is empty.
    #[inline]
    fn next_occupied(&self, pos: usize, span: usize) -> Option<usize> {
        let nb = self.mask + 1;
        if nb == 64 {
            let w = self.occupied[0].rotate_right(pos as u32);
            let tz = w.trailing_zeros() as usize;
            return (tz < span).then_some(tz);
        }
        let mut off = 0usize;
        let mut i = pos;
        while off < span {
            let bit = i & 63;
            let w = self.occupied[i >> 6] >> bit;
            if w != 0 {
                let total = off + w.trailing_zeros() as usize;
                return (total < span).then_some(total);
            }
            let step = 64 - bit;
            off += step;
            i += step;
            if i >= nb {
                i -= nb;
            }
        }
        None
    }

    /// Key of the earliest pending event, locating it if necessary.
    ///
    /// Takes `&self`: scan progress and the located minimum persist in
    /// interior-mutable cells so the following [`CalendarQueue::pop`] (or
    /// the next peek) is O(1).
    pub fn peek_key(&self) -> Option<K> {
        if self.len == 0 {
            return None;
        }
        if let Some(b) = self.cursor.get() {
            return self.buckets[b as usize].front().map(|(k, _)| *k);
        }
        let nb = self.mask + 1;
        let start = self.scan_vslot.get();
        let mut off = 0usize;
        while off < nb {
            // Jump straight to the next non-empty bucket; empty runs cost
            // one `trailing_zeros`, not one probe per slot.
            let pos = ((start + off as u64) as usize) & self.mask;
            let Some(d) = self.next_occupied(pos, nb - off) else {
                break;
            };
            let vs = start + (off + d) as u64;
            let idx = (vs as usize) & self.mask;
            let (k, _) = self.buckets[idx]
                .front()
                .expect("occupied bit set on an empty bucket");
            if self.vslot(k) == vs {
                self.scan_vslot.set(vs);
                self.cursor.set(Some(idx as u32));
                return Some(*k);
            }
            // Occupied, but its minimum lives in a later year: skip it.
            off += d + 1;
        }
        // A whole year was fruitless: the pending set is sparse relative
        // to the calendar span.  Fall back to a direct minimum search
        // over the occupied buckets.
        self.rotations.set(self.rotations.get() + 1);
        let mut best: Option<(usize, K)> = None;
        for (wi, &word) in self.occupied.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let idx = (wi << 6) + w.trailing_zeros() as usize;
                w &= w - 1;
                let (k, _) = self.buckets[idx]
                    .front()
                    .expect("occupied bit set on an empty bucket");
                if best.map(|(_, bk)| *k < bk).unwrap_or(true) {
                    best = Some((idx, *k));
                }
            }
        }
        let (idx, k) = best.expect("len > 0 but every bucket is empty");
        self.scan_vslot.set(self.vslot(&k));
        self.cursor.set(Some(idx as u32));
        Some(k)
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(K, E)> {
        let key = self.peek_key()?;
        let b = self.cursor.get().expect("peek located the minimum") as usize;
        let (k, e) = self.buckets[b].pop_front().expect("cursor bucket is empty");
        debug_assert!(k == key);
        self.len -= 1;
        if self.buckets[b].is_empty() {
            self.occupied[b >> 6] &= !(1 << (b & 63));
        }
        // The next event in the same bucket at the same slot stays the
        // global minimum — the common case in tie bursts; otherwise the
        // next peek rescans from the popped slot.
        let same_slot = self.buckets[b]
            .front()
            .is_some_and(|(k2, _)| self.vslot(k2) == self.scan_vslot.get());
        if !same_slot {
            self.cursor.set(None);
        }
        let t = k.time_ns();
        if self.pops_since_resize == 0 {
            self.first_pop_ns = t;
        }
        self.last_pop_ns = t;
        self.pops_since_resize += 1;
        self.maybe_resize();
        Some((k, e))
    }

    /// Resize when occupancy leaves the `[nb/4, 2*nb]` band, and
    /// recalibrate the bucket width from the observed mean inter-pop gap
    /// both then and periodically (every [`RECAL_POPS`] pops) — a run
    /// whose event density never trips the occupancy band still settles
    /// onto a fitted width after its first few hundred events.
    fn maybe_resize(&mut self) {
        let nb = self.mask + 1;
        let grow = self.len > nb * 2;
        let shrink = nb > MIN_BUCKETS && self.len < nb / 4;
        let recalibrate = self.pops_since_resize >= RECAL_POPS;
        if !(grow || shrink || recalibrate) {
            return;
        }
        let new_nb = if grow || shrink {
            self.len.next_power_of_two().max(MIN_BUCKETS)
        } else {
            nb
        };
        let new_shift = self.derived_shift();
        let close_enough = new_shift.abs_diff(self.shift) <= 1;
        if new_nb == nb && (new_shift == self.shift || (recalibrate && close_enough)) {
            // The geometry already fits (a one-step width disagreement is
            // within the heuristic's noise — rebuilding on it would thrash
            // every recalibration window); restart the sampling window.
            self.pops_since_resize = 0;
            return;
        }
        self.rebuild(new_nb, new_shift);
    }

    /// The bucket-width exponent suggested by the pop gaps observed since
    /// the last resize: width ≈ the mean gap, rounded down to a power of
    /// two.  Narrow buckets keep depth (and therefore mid-bucket insert
    /// shifting) low; the occupancy bitmap makes the longer empty-slot
    /// runs they produce free to skip.  With too few samples (or an
    /// all-ties stream) the current width is kept — there is nothing to
    /// adapt to yet.
    fn derived_shift(&self) -> u32 {
        if self.pops_since_resize < 16 {
            return self.shift;
        }
        let span = self.last_pop_ns.saturating_sub(self.first_pop_ns);
        let gap = span / self.pops_since_resize;
        if gap == 0 {
            return self.shift;
        }
        (63 - gap.leading_zeros()).min(MAX_SHIFT)
    }

    /// Move every pending event into a fresh geometry, recycling bucket
    /// storage through the spare pool so steady state stays allocation
    /// -free once capacities have warmed up.
    fn rebuild(&mut self, new_nb: usize, new_shift: u32) {
        self.resizes += 1;
        let mut old = std::mem::take(&mut self.buckets);
        let mut spine = std::mem::take(&mut self.spare_spine);
        spine.reserve(new_nb);
        for _ in 0..new_nb {
            spine.push(self.spare.pop().unwrap_or_default());
        }
        self.buckets = spine;
        self.occupied.clear();
        self.occupied.resize(new_nb >> 6, 0);
        self.shift = new_shift;
        self.mask = new_nb - 1;
        self.cursor.set(None);
        let mut min_vslot = u64::MAX;
        for bucket in old.iter_mut() {
            // Drain front-to-back: keys come out ascending, so each lands
            // at the back of its new bucket through the O(1) fast path.
            for (k, e) in bucket.drain(..) {
                min_vslot = min_vslot.min(k.time_ns() >> new_shift);
                self.place(k, e);
            }
        }
        // Old bucket storage (emptied, capacity warmed) and the old spine
        // go back into the spare pools for the next rebuild.
        self.spare.append(&mut old);
        self.spare_spine = old;
        self.scan_vslot.set(if min_vslot == u64::MAX {
            self.last_pop_ns >> new_shift
        } else {
            min_vslot
        });
        self.pops_since_resize = 0;
    }
}

#[cfg(test)]
pub(crate) mod heap_oracle {
    //! The previous `BinaryHeap` pending-event set, kept as the reference
    //! oracle for the differential fuzz suites: it is exactly the
    //! implementation `EventQueue` shipped with before the calendar queue,
    //! made generic over the key.

    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

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

    /// A min-queue on `BinaryHeap`, ordered by the full key.
    pub struct HeapQueue<K, E> {
        heap: BinaryHeap<Entry<K, E>>,
    }

    impl<K: Ord, E> HeapQueue<K, E> {
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
            }
        }

        pub fn schedule(&mut self, key: K, event: E) {
            self.heap.push(Entry { key, event });
        }

        pub fn pop(&mut self) -> Option<(K, E)> {
            self.heap.pop().map(|e| (e.key, e.event))
        }

        pub fn peek_key(&self) -> Option<&K> {
            self.heap.peek().map(|e| &e.key)
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::heap_oracle::HeapQueue;
    use super::*;

    impl CalKey for (u64, u64) {
        fn time_ns(&self) -> u64 {
            self.0
        }
    }

    /// A tiny deterministic RNG (xorshift64*) so the fuzz streams are
    /// reproducible without any external crate.
    pub(crate) struct Rng(u64);

    impl Rng {
        pub fn new(seed: u64) -> Self {
            Rng(seed.max(1))
        }

        pub fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        pub fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn pops_in_key_order_across_slots_and_years() {
        let mut q = CalendarQueue::new();
        // Times chosen to straddle bucket widths and whole years of the
        // initial geometry.
        let times = [
            0u64,
            1,
            65_535,
            65_536,
            1 << 22,
            (1 << 22) + 3,
            u64::from(u32::MAX),
            1 << 40,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule((t, i as u64), i);
        }
        let mut got = Vec::new();
        while let Some(((t, _), _)) = q.pop() {
            got.push(t);
        }
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn ties_pop_in_seq_order() {
        let mut q = CalendarQueue::new();
        for seq in 0..1000u64 {
            q.schedule((42, seq), seq);
        }
        for want in 0..1000u64 {
            let ((_, seq), _) = q.pop().unwrap();
            assert_eq!(seq, want);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_below_the_scan_cursor_is_still_popped_first() {
        let mut q = CalendarQueue::new();
        // Park the scan far out by draining an early event, then peeking
        // at a distant one (the peek advances the persistent cursor).
        q.schedule((100, 0), "early");
        q.schedule((1 << 30, 1), "far");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.peek_key().unwrap().0, 1 << 30);
        // Now schedule between the popped slot and the far event: the
        // rewind rule must bring the cursor back or this pops out of
        // order.
        q.schedule((200, 2), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "far");
    }

    #[test]
    fn resize_preserves_order_and_recycles_storage() {
        let mut q = CalendarQueue::new();
        // Push far past the grow threshold, then drain past the shrink
        // threshold: both rebuilds must keep the pop order exact.
        let mut rng = Rng::new(7);
        let mut oracle = HeapQueue::new();
        for seq in 0..4096u64 {
            let t = rng.below(1 << 34);
            q.schedule((t, seq), seq);
            oracle.schedule((t, seq), seq);
        }
        assert!(q.stats().resizes > 0, "grow path never triggered");
        while let Some(got) = q.pop() {
            assert_eq!(Some(got), oracle.pop());
        }
        assert_eq!(oracle.len(), 0);
        let stats = q.stats();
        assert!(
            stats.resizes >= 2,
            "drain never shrank the calendar: {stats:?}"
        );
    }

    #[test]
    fn differential_fuzz_matches_the_heap_oracle() {
        // The satellite contract: seeded random schedule streams with
        // duplicate timestamps, interleaved pop/schedule and long idle
        // jumps produce pop sequences identical to the old BinaryHeap
        // implementation.
        for seed in 1..=20u64 {
            let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut q = CalendarQueue::new();
            let mut oracle = HeapQueue::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut popped = 0u64;
            for _ in 0..5_000 {
                match rng.below(100) {
                    // Schedule: mostly near-future, sometimes at `now`
                    // exactly (the post-clamp shape of a past-time
                    // schedule), sometimes far out.
                    0..=59 => {
                        let t = match rng.below(10) {
                            0 => now,
                            1..=7 => now + rng.below(1 << 20),
                            _ => now + rng.below(1 << 36),
                        };
                        q.schedule((t, seq), seq);
                        oracle.schedule((t, seq), seq);
                        seq += 1;
                    }
                    // Duplicate-timestamp burst at one instant.
                    60..=69 => {
                        let t = now + rng.below(1 << 14);
                        for _ in 0..rng.below(8) + 2 {
                            q.schedule((t, seq), seq);
                            oracle.schedule((t, seq), seq);
                            seq += 1;
                        }
                    }
                    // Interleaved pops (with occasional peeks, which
                    // advance the calendar's persistent scan state).
                    _ => {
                        if rng.below(4) == 0 {
                            assert_eq!(q.peek_key(), oracle.peek_key().copied());
                        }
                        let got = q.pop();
                        let want = oracle.pop();
                        assert_eq!(got, want, "seed {seed} diverged after {popped} pops");
                        if let Some(((t, _), _)) = got {
                            now = t;
                            popped += 1;
                        }
                    }
                }
            }
            // Full drain must agree too.
            loop {
                let got = q.pop();
                let want = oracle.pop();
                assert_eq!(got, want, "seed {seed} diverged during drain");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn sparse_far_future_events_fall_back_to_direct_search() {
        let mut q = CalendarQueue::new();
        // A handful of events spread over an enormous span: every year
        // scan is fruitless and the direct-search path must find the
        // minimum (and count the rotation).
        for (seq, t) in [1u64 << 50, 1 << 45, 1 << 55, 1 << 41].iter().enumerate() {
            q.schedule((*t, seq as u64), seq);
        }
        assert_eq!(q.peek_key().unwrap().0, 1 << 41);
        assert!(q.stats().rotations >= 1);
        let mut last = 0;
        while let Some(((t, _), _)) = q.pop() {
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn stats_track_geometry_and_depth() {
        let mut q = CalendarQueue::new();
        let s = q.stats();
        assert_eq!(s.buckets, MIN_BUCKETS as u64);
        assert_eq!(s.max_depth, 0);
        for seq in 0..10u64 {
            q.schedule((7, seq), ());
        }
        assert_eq!(q.stats().max_depth, 10);
        let mut acc = CalStats::default();
        acc.absorb(&q.stats());
        let more = CalStats {
            buckets: 32,
            resizes: 2,
            max_depth: 4,
            rotations: 1,
        };
        acc.absorb(&more);
        assert_eq!(acc.buckets, MIN_BUCKETS as u64);
        assert_eq!(acc.resizes, 2);
        assert_eq!(acc.max_depth, 10);
        assert_eq!(acc.rotations, 1);
    }
}
