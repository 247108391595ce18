//! Regression tests kept from the calendar queue that used to order the
//! events of [`EventQueue`](crate::EventQueue), now run against the heap of
//! packed keys that replaced it: 1,000 same-instant ties, and the
//! calendar's differential fuzz (same-instant bursts, long idle jumps,
//! peeks between pops) against the whole-entry heap oracle.

mod tests {
    use crate::queue::tests::HeapQueue;
    use crate::{Duration, EventQueue, SimRng, SimTime};

    #[test]
    fn ties_pop_in_seq_order() {
        let mut q = EventQueue::new();
        for seq in 0..1000u64 {
            q.schedule_at(SimTime::from_nanos(42), seq);
        }
        for want in 0..1000u64 {
            let (_, seq) = q.pop().unwrap();
            assert_eq!(seq, want);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn differential_fuzz_matches_the_heap_oracle() {
        // Seeded random schedule streams with duplicate timestamps,
        // interleaved pop/schedule and long idle jumps produce pop
        // sequences identical to the whole-entry heap keyed `(time, seq)`.
        for seed in 1..=20u64 {
            let mut rng = SimRng::seed_from(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut q = EventQueue::new();
            let mut oracle: HeapQueue<(SimTime, u64), u64> = HeapQueue::new();
            let mut seq = 0u64;
            let mut popped = 0u64;
            for _ in 0..5_000 {
                match rng.next_below(100) {
                    // Schedule: mostly near-future, sometimes at `now`
                    // exactly (the post-clamp shape of a past-time
                    // schedule), sometimes far out.
                    0..=59 => {
                        let at = match rng.next_below(10) {
                            0 => q.now(),
                            1..=7 => q.now() + Duration::from_nanos(rng.next_below(1 << 20)),
                            _ => q.now() + Duration::from_nanos(rng.next_below(1 << 36)),
                        };
                        q.schedule_at(at, seq);
                        oracle.schedule((at, seq), seq);
                        seq += 1;
                    }
                    // Duplicate-timestamp burst at one instant.
                    60..=69 => {
                        let at = q.now() + Duration::from_nanos(rng.next_below(1 << 14));
                        for _ in 0..rng.next_below(8) + 2 {
                            q.schedule_at(at, seq);
                            oracle.schedule((at, seq), seq);
                            seq += 1;
                        }
                    }
                    // Interleaved pops, with occasional peeks.
                    _ => {
                        if rng.next_below(4) == 0 {
                            assert_eq!(q.peek_time(), oracle.peek_key().map(|(t, _)| *t));
                        }
                        let got = q.pop();
                        let want = oracle.pop().map(|((t, _), e)| (t, e));
                        assert_eq!(got, want, "seed {seed} diverged after {popped} pops");
                        if got.is_some() {
                            popped += 1;
                        }
                    }
                }
            }
            // Full drain must agree too.
            loop {
                let got = q.pop();
                let want = oracle.pop().map(|((t, _), e)| (t, e));
                assert_eq!(got, want, "seed {seed} diverged during drain");
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
