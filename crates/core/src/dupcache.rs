//! The duplicate request cache.
//!
//! NFS clients retransmit requests they have not seen a reply for; a server
//! that blindly re-executes a retransmitted non-idempotent request (CREATE,
//! REMOVE, and — with gathering — WRITE whose reply is still pending) produces
//! wrong answers or wasted work.  \[JUSZ89\] introduced the now-standard
//! duplicate request cache: recently executed (xid, client) pairs are
//! remembered together with their replies so a retransmission can be answered
//! from the cache, and requests still *in progress* (for example a gathered
//! write whose reply is deferred) are recognised and dropped rather than
//! re-executed — the paper's §6.9 notes that being too hasty about discarding
//! these is exactly how one orphans writes on the active write queue.
//!
//! Every request crosses the cache, so each step probes its hash map once:
//! recording a start or a reply is one `entry`, and evicting the oldest
//! entry is one `entry` on its key that removes it, or keeps it and moves
//! it to the back of the eviction order if it is in progress.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use wg_simcore::FxHashMap;

use wg_nfsproto::{NfsReply, Xid};

/// What the cache knows about a transaction id.
///
/// A completed reply is held by value, so caching it allocates nothing.
/// Handing it back copies no payload bytes either: every reply payload is a
/// fill pattern or an `Arc`, so a cached READ reply over shared data hands
/// back the same `Arc` on every hit.
#[derive(Clone, Debug, PartialEq)]
pub enum DupState {
    /// Never seen: execute it.
    New,
    /// Currently being executed (or its reply is deferred on the active write
    /// queue): drop the retransmission, the reply will go out when ready.
    InProgress,
    /// Completed: the cached reply can be resent without re-executing.
    Done(NfsReply),
}

/// Key identifying a request: the client plus its transaction id.
pub type DupKey = (u32, Xid);

/// A bounded duplicate request cache.
///
/// Eviction is FIFO over `Done` entries only: an `InProgress` entry is the
/// *only* record that a gathered write's reply is still deferred on the
/// active write queue, so evicting one under capacity pressure would let the
/// client's retransmission re-execute as `New` — the §6.9 hazard that re-runs
/// the write and orphans the deferred reply.  `InProgress` keys are rotated
/// to the back of the eviction order instead; only if *every* cached entry is
/// in progress (a pathologically undersized cache) is one forcibly evicted.
/// [`DuplicateRequestCache::start`] and [`DuplicateRequestCache::complete`]
/// report each forced eviction, and the server counts them across crashes so
/// the run audit can assert zero.
#[derive(Clone, Debug)]
pub struct DuplicateRequestCache {
    capacity: usize,
    entries: FxHashMap<DupKey, DupState>,
    /// The cached keys, oldest first: exactly the keys of `entries`.
    order: VecDeque<DupKey>,
}

impl DuplicateRequestCache {
    /// Create a cache remembering up to `capacity` transactions.
    pub fn new(capacity: usize) -> Self {
        DuplicateRequestCache {
            capacity: capacity.max(1),
            entries: FxHashMap::default(),
            order: VecDeque::new(),
        }
    }

    /// Look up a request.  A miss registers nothing; callers that decide to
    /// execute the request must call [`DuplicateRequestCache::start`].
    ///
    /// A `Done` hit clones the cached reply, which shares its payload.
    pub fn lookup(&self, client: u32, xid: Xid) -> DupState {
        let state = self.entries.get(&(client, xid));
        state.cloned().unwrap_or(DupState::New)
    }

    /// Record that a request has begun executing (or has been queued with a
    /// deferred reply).  Returns `true` if making room forced an
    /// `InProgress` entry out.
    pub fn start(&mut self, client: u32, xid: Xid) -> bool {
        self.insert((client, xid), DupState::InProgress)
    }

    /// Record the reply sent for a request so retransmissions can be answered
    /// from the cache.  Returns `true` if making room forced an `InProgress`
    /// entry out.
    pub fn complete(&mut self, client: u32, xid: Xid, reply: NfsReply) -> bool {
        self.insert((client, xid), DupState::Done(reply))
    }

    fn insert(&mut self, key: DupKey, state: DupState) -> bool {
        match self.entries.entry(key) {
            Entry::Occupied(mut entry) => {
                entry.insert(state);
                false
            }
            Entry::Vacant(entry) => {
                // Insert before evicting so the new entry's own state takes
                // part in the InProgress protection below (a fresh `start`
                // must never be the entry chosen for eviction).
                entry.insert(state);
                self.order.push_back(key);
                self.order.len() > self.capacity && self.evict_one()
            }
        }
    }

    /// Evict one entry, preferring the oldest that is not `InProgress`.
    /// In-progress keys encountered on the way are rotated to the back of the
    /// order (they become the "newest" candidates, mirroring how the real
    /// cache refreshes entries it must keep).  If every entry is in progress
    /// the front one is evicted anyway — the cache cannot grow — and `true`
    /// reports the forced eviction.
    fn evict_one(&mut self) -> bool {
        for _ in 0..self.order.len() {
            let Some(front) = self.order.pop_front() else {
                return false;
            };
            match self.entries.entry(front) {
                Entry::Occupied(entry) if matches!(entry.get(), DupState::InProgress) => {
                    self.order.push_back(front);
                }
                Entry::Occupied(entry) => {
                    entry.remove();
                    return false;
                }
                Entry::Vacant(_) => return false,
            }
        }
        let Some(front) = self.order.pop_front() else {
            return false;
        };
        self.entries.remove(&front);
        true
    }

    /// Number of cached transactions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wg_nfsproto::{Fattr, NfsReplyBody, NfsStatus, Payload, ReadOk, StatusReply};

    fn reply(xid: u32) -> NfsReply {
        NfsReply::new(Xid(xid), NfsReplyBody::Status(NfsStatus::Ok))
    }

    #[test]
    fn new_then_in_progress_then_done() {
        let mut c = DuplicateRequestCache::new(16);
        assert_eq!(c.lookup(1, Xid(100)), DupState::New);
        c.start(1, Xid(100));
        assert_eq!(c.lookup(1, Xid(100)), DupState::InProgress);
        c.complete(1, Xid(100), reply(100));
        match c.lookup(1, Xid(100)) {
            DupState::Done(r) => assert_eq!(r.xid, Xid(100)),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn done_hits_share_the_cached_reply() {
        // A READ reply over real bytes, cached by value: every hit hands
        // back the same shared buffer, so replaying a retransmission's
        // answer copies no data.
        let data: Arc<[u8]> = (0..=255u8).collect();
        let read = NfsReplyBody::Read(StatusReply::Ok(ReadOk {
            attributes: Fattr::default(),
            data: Payload::Shared(Arc::clone(&data)),
        }));
        let mut c = DuplicateRequestCache::new(4);
        c.complete(1, Xid(7), NfsReply::new(Xid(7), read));
        for _ in 0..2 {
            let DupState::Done(hit) = c.lookup(1, Xid(7)) else {
                panic!("expected a Done hit");
            };
            let NfsReplyBody::Read(StatusReply::Ok(ReadOk {
                data: Payload::Shared(bytes),
                ..
            })) = hit.body
            else {
                panic!("expected the cached READ reply");
            };
            assert!(Arc::ptr_eq(&bytes, &data));
        }
    }

    #[test]
    fn clients_do_not_collide() {
        let mut c = DuplicateRequestCache::new(16);
        c.start(1, Xid(5));
        assert_eq!(c.lookup(2, Xid(5)), DupState::New);
        assert_eq!(c.lookup(1, Xid(5)), DupState::InProgress);
    }

    #[test]
    fn capacity_evicts_oldest_done_entries() {
        let mut c = DuplicateRequestCache::new(3);
        for i in 0..5u32 {
            assert!(!c.start(1, Xid(i)));
            assert!(!c.complete(1, Xid(i), reply(i)));
        }
        assert_eq!(c.len(), 3);
        // The two oldest completed entries were evicted and now look new.
        assert_eq!(c.lookup(1, Xid(0)), DupState::New);
        assert_eq!(c.lookup(1, Xid(1)), DupState::New);
        assert!(matches!(c.lookup(1, Xid(4)), DupState::Done(_)));
    }

    #[test]
    fn in_progress_entries_survive_capacity_pressure() {
        // The §6.9 regression: a gathered write's InProgress entry must outlive
        // a flood of completed transactions that overflows the cache.
        let mut c = DuplicateRequestCache::new(3);
        let mut forced = c.start(1, Xid(100)); // the deferred gathered write
        for i in 0..10u32 {
            forced |= c.start(1, Xid(i));
            forced |= c.complete(1, Xid(i), reply(i));
        }
        // Done entries churned through every slot, but the retransmission of
        // the pending write is still recognised — it is not re-executed.
        assert_eq!(c.lookup(1, Xid(100)), DupState::InProgress);
        assert_eq!(c.len(), 3);
        // Once the deferred reply goes out the entry becomes ordinary Done
        // prey and can be evicted by later traffic.
        forced |= c.complete(1, Xid(100), reply(100));
        for i in 20..24u32 {
            forced |= c.start(1, Xid(i));
            forced |= c.complete(1, Xid(i), reply(i));
        }
        assert_eq!(c.lookup(1, Xid(100)), DupState::New);
        assert!(!forced, "an in-progress entry was forced out");
    }

    #[test]
    fn all_in_progress_cache_forces_eviction_and_counts_it() {
        let mut c = DuplicateRequestCache::new(3);
        let forced: Vec<bool> = (0..5u32).map(|i| c.start(1, Xid(i))).collect();
        assert_eq!(c.len(), 3);
        // Nothing evictable existed, so the oldest in-progress entries were
        // forced out — and each start that forced one reports it.
        assert_eq!(forced, [false, false, false, true, true]);
        assert_eq!(c.lookup(1, Xid(0)), DupState::New);
        assert_eq!(c.lookup(1, Xid(4)), DupState::InProgress);
    }

    #[test]
    fn fresh_start_is_never_its_own_eviction_victim() {
        // Overflowing insert of an InProgress key while every resident entry
        // is Done: the newcomer must stay, the oldest Done must go.
        let mut c = DuplicateRequestCache::new(2);
        c.complete(1, Xid(1), reply(1));
        c.complete(1, Xid(2), reply(2));
        assert!(!c.start(1, Xid(3)));
        assert_eq!(c.lookup(1, Xid(3)), DupState::InProgress);
        assert_eq!(c.lookup(1, Xid(1)), DupState::New);
        assert!(matches!(c.lookup(1, Xid(2)), DupState::Done(_)));
    }

    #[test]
    fn updating_state_does_not_duplicate_order_entries() {
        let mut c = DuplicateRequestCache::new(2);
        c.start(1, Xid(1));
        c.complete(1, Xid(1), reply(1));
        c.start(1, Xid(2));
        assert_eq!(c.len(), 2);
        c.start(1, Xid(3));
        // Xid(1) evicted (it was the oldest), 2 and 3 remain.
        assert_eq!(c.lookup(1, Xid(1)), DupState::New);
        assert!(matches!(c.lookup(1, Xid(2)), DupState::InProgress));
        assert!(!c.is_empty());
    }
}
