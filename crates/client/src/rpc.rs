//! The RPC bookkeeping both NFS client models share.
//!
//! The file-copy writer ([`crate::FileWriterClient`]) and the LADDIS
//! streams of `wg_workload::sfs` number their calls, track the calls in
//! flight by xid and retransmit on a doubling timeout.  They do all three
//! with this module:
//!
//! * [`XidWindow`] hands out a client's xids and holds its calls in flight;
//! * [`partition`] splits the xid space into windows, one per client (and
//!   per segment file of a writer), so no two windows share an xid;
//! * [`backoff`] times every retransmission.
//!
//! Each client places its own retransmission timers: the writer arms one
//! wake-up per send, and a stream keeps one reserved place per backoff level
//! in the event queue.

use std::collections::VecDeque;
use std::ops::Range;

use wg_nfsproto::Xid;
use wg_simcore::Duration;

/// The most times [`backoff`] doubles a timeout.  The retransmission tests
/// run a writer to 20 retransmissions, the most any caller allows.
const MAX_DOUBLINGS: u32 = 20;

/// The calls in flight of one client, and the allocator of their xids.
///
/// Xids are handed out one after another from the window's range, so a
/// call's entry is simply at `xid - front`: pushing and retiring are an
/// index, not a hash.  Answered entries are emptied in place and popped
/// once they reach the front, so the window spans the calls in flight, from
/// the oldest unanswered one to the newest: one unanswered call holds it
/// open at one slot per later call, and nothing grows with run length.
#[derive(Clone, Debug)]
pub struct XidWindow<T> {
    /// Xid of the front entry, or of the next call while none is in flight.
    front: u32,
    /// One past the last xid the window may hand out.
    end: u32,
    /// The entry of each call from `front` on; `None` once answered.
    calls: VecDeque<Option<T>>,
}

impl<T> XidWindow<T> {
    /// An empty window that hands out the xids of `xids` in order.
    pub fn new(xids: Range<u32>) -> Self {
        XidWindow {
            front: xids.start,
            end: xids.end,
            calls: VecDeque::new(),
        }
    }

    /// Open an entry for a new call and return the xid it was given.
    ///
    /// Panics once the range is used up: a call never takes an xid of
    /// another client's window.
    pub fn push(&mut self, entry: T) -> Xid {
        let xid = self.front.wrapping_add(self.calls.len() as u32);
        assert!(
            xid != self.end,
            "xid window exhausted: every xid below {:#x} is taken; \
             give the client a wider range",
            self.end
        );
        self.calls.push_back(Some(entry));
        Xid(xid)
    }

    fn index(&self, xid: Xid) -> Option<usize> {
        let idx = xid.0.wrapping_sub(self.front) as usize;
        (idx < self.calls.len()).then_some(idx)
    }

    /// The entry of a call still awaiting its reply.
    pub fn get(&self, xid: Xid) -> Option<&T> {
        self.calls[self.index(xid)?].as_ref()
    }

    /// The entry of a call still awaiting its reply, to update in place.
    pub fn get_mut(&mut self, xid: Xid) -> Option<&mut T> {
        let idx = self.index(xid)?;
        self.calls[idx].as_mut()
    }

    /// Retire a call, returning its entry if it was still unanswered.
    pub fn take(&mut self, xid: Xid) -> Option<T> {
        let idx = self.index(xid)?;
        let entry = self.calls[idx].take();
        while let Some(None) = self.calls.front() {
            self.calls.pop_front();
            self.front = self.front.wrapping_add(1);
        }
        entry
    }

    /// Whether no call awaits its reply.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }
}

/// Window `index` of `parts` equal windows of `xids`.  A fleet gives each
/// client one window of the xid space, and a writer fleet each segment file
/// one window of its client's.  The remainder of an uneven split is left
/// unused.
pub fn partition(xids: Range<u32>, parts: u64, index: u64) -> Range<u32> {
    assert!(index < parts.max(1), "no window {index} of {parts}");
    let width = u64::from(xids.end - xids.start) / parts.max(1);
    let start = u64::from(xids.start) + width * index;
    start as u32..(start + width) as u32
}

/// The timeout of a call's send after `attempt` retransmissions: `initial`
/// doubled once per retransmission, saturating, and doubled at most 20
/// times.
pub fn backoff(initial: Duration, attempt: u32) -> Duration {
    initial.saturating_mul(1 << attempt.min(MAX_DOUBLINGS))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use wg_simcore::SimRng;

    /// The LADDIS streams' first xid.
    const SFS_ORIGIN: u32 = 0x2000_0000;

    #[test]
    fn xid_window_retires_calls_in_any_order() {
        let mut window = XidWindow::new(SFS_ORIGIN..u32::MAX);
        for (i, call) in ["read", "write", "lookup", "commit"]
            .into_iter()
            .enumerate()
        {
            assert_eq!(window.push(call), Xid(SFS_ORIGIN + i as u32));
        }
        // Out-of-order replies: the later calls retire, the front stays at
        // the oldest unanswered one.
        assert_eq!(window.take(Xid(SFS_ORIGIN + 2)), Some("lookup"));
        assert_eq!(window.take(Xid(SFS_ORIGIN + 1)), Some("write"));
        assert_eq!((window.front, window.calls.len()), (SFS_ORIGIN, 4));
        // A second take of the same xid, and xids on either side of the
        // window, miss.
        assert_eq!(window.take(Xid(SFS_ORIGIN + 2)), None);
        assert_eq!(window.take(Xid(SFS_ORIGIN + 4)), None);
        assert_eq!(window.take(Xid(SFS_ORIGIN - 1)), None);
        assert!(window.get(Xid(SFS_ORIGIN + 1)).is_none());
        assert_eq!(window.get(Xid(SFS_ORIGIN)), Some(&"read"));
        // Retiring the front advances it past every call already answered.
        assert_eq!(window.take(Xid(SFS_ORIGIN)), Some("read"));
        assert_eq!((window.front, window.calls.len()), (SFS_ORIGIN + 3, 1));
        // The next xid opens behind the last unanswered call.
        assert_eq!(window.push("getattr"), Xid(SFS_ORIGIN + 4));
        assert_eq!(window.take(Xid(SFS_ORIGIN + 4)), Some("getattr"));
        assert_eq!(window.take(Xid(SFS_ORIGIN + 3)), Some("commit"));
        // Every call answered: the window is empty, and the next call
        // starts a fresh one.
        assert!(window.is_empty());
        assert!(window.get(Xid(SFS_ORIGIN + 3)).is_none());
        assert_eq!(window.push("statfs"), Xid(SFS_ORIGIN + 5));
        assert_eq!((window.front, window.calls.len()), (SFS_ORIGIN + 5, 1));
    }

    #[test]
    fn differential_fuzz_xid_window_matches_a_map() {
        // Seeded pushes, takes, gets and emptiness checks against a
        // `BTreeMap` of the calls in flight.  Takes and gets name any xid:
        // a call in flight, one already answered, one below the window's
        // front, or one beyond its newest call.
        for seed in 1..=10u64 {
            let mut rng = SimRng::seed_from(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let start = rng.next_below(1 << 31) as u32;
            let mut window = XidWindow::new(start..u32::MAX);
            let mut oracle: BTreeMap<u32, u64> = BTreeMap::new();
            let mut next = start;
            for step in 0..20_000u64 {
                let xid = match rng.next_below(3) {
                    0 if !oracle.is_empty() => {
                        let nth = rng.next_below(oracle.len() as u64) as usize;
                        *oracle.keys().nth(nth).expect("in range")
                    }
                    _ => next
                        .wrapping_sub(64)
                        .wrapping_add(rng.next_below(72) as u32),
                };
                match rng.next_below(10) {
                    0..=3 => {
                        assert_eq!(window.push(step), Xid(next), "seed {seed} step {step}");
                        oracle.insert(next, step);
                        next += 1;
                    }
                    4..=6 => {
                        let want = oracle.remove(&xid);
                        assert_eq!(window.take(Xid(xid)), want, "seed {seed} step {step}");
                    }
                    7 => {
                        let want = oracle.get_mut(&xid).map(|e| {
                            *e += 1;
                            *e
                        });
                        let got = window.get_mut(Xid(xid)).map(|e| {
                            *e += 1;
                            *e
                        });
                        assert_eq!(got, want, "seed {seed} step {step}");
                    }
                    8 => {
                        let want = oracle.get(&xid);
                        assert_eq!(window.get(Xid(xid)), want, "seed {seed} step {step}");
                    }
                    _ => assert_eq!(window.is_empty(), oracle.is_empty()),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "xid window exhausted")]
    fn push_past_the_end_of_its_range_panics() {
        let mut window = XidWindow::new(7..9);
        let first = window.push(());
        window.push(());
        // An answered call does not give its xid back.
        window.take(first);
        window.push(());
    }

    #[test]
    fn partition_reproduces_both_drivers_former_windows() {
        // The copy fleet's former strides: the 32-bit space split per
        // client, each client's share split per segment file.
        for (clients, segments) in [(1u32, 1u64), (3, 2), (256, 2)] {
            let client_stride = u32::MAX / clients;
            let segment_stride = (client_stride as u64 / segments).max(1) as u32;
            for client in 0..clients {
                let client_xids = partition(0..u32::MAX, clients.into(), client.into());
                for segment in 0..segments {
                    let base = client.wrapping_mul(client_stride)
                        + (segment as u32).wrapping_mul(segment_stride);
                    assert_eq!(
                        partition(client_xids.clone(), segments, segment),
                        base..base + segment_stride,
                        "copy: client {client} of {clients}, segment {segment} of {segments}"
                    );
                }
            }
        }
        // The LADDIS streams' former stride: the space above their origin
        // split per stream.
        for clients in [1u32, 4, 256, 10_000] {
            let stride = (u32::MAX - SFS_ORIGIN) / clients;
            for client in 0..clients {
                let base = SFS_ORIGIN + stride * client;
                assert_eq!(
                    partition(SFS_ORIGIN..u32::MAX, clients.into(), client.into()),
                    base..base.wrapping_add(stride),
                    "sfs: stream {client} of {clients}"
                );
            }
        }
    }

    #[test]
    fn backoff_matches_the_writers_former_float_doubling() {
        // Every initial timeout a caller sets, at every attempt up to the
        // 20 retransmissions the retransmission tests reach, against the
        // writer's former `f64` doubling.
        for ms in [10, 50, 100, 120, 150, 300, 700, 1_100] {
            let initial = Duration::from_millis(ms);
            for attempt in 0..=20 {
                let former =
                    Duration::from_secs_f64(initial.as_secs_f64() * 2f64.powi(attempt as i32));
                assert_eq!(
                    backoff(initial, attempt),
                    former,
                    "{ms} ms, attempt {attempt}"
                );
            }
        }
    }
}
