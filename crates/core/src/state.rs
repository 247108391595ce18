//! Sharded per-client state: leases, byte-range locks and grace-period
//! recovery.
//!
//! The paper's v2 server is stateless by design, but every production
//! descendant (NFSv3 lockd, NFSv4 client-ID/stateid tables) carries
//! per-client state that must either survive a crash or be deliberately
//! reclaimed after one.  This module models that layer the way the request
//! path is already modelled: deterministic, allocation-light and sharded —
//! client records live in the shard `client_id % shards`, mirroring the
//! inode-sharded dispatch path.
//!
//! The life cycle:
//!
//! * RENEW registers a client (first contact) or renews its lease; a changed
//!   client boot verifier means the client rebooted, so the old incarnation's
//!   locks are revoked on the spot.
//! * LOCK grants byte-range locks keyed `(client_id, stateid, seqid)` with
//!   strict seqid monotonicity per owner; conflicting ranges are denied.  A
//!   lock is held until its owner's lease expires, the owner reboots or the
//!   server crashes.
//! * A lease that is not renewed within `lease_duration` expires *lazily but
//!   deterministically*: every state operation first sweeps its shard, so
//!   expiry happens at the same simulated instant in every run.
//! * A server crash moves all held locks into a *reclaimable image* and opens
//!   a grace window: during grace only reclaims of imaged locks are admitted,
//!   anything else gets a counted soft rejection ([`NfsStatus::Grace`]) and
//!   the client retries after the window closes.
//!
//! Two oracle counters are the state-layer twin of the crash oracle's
//! `lost_acked_bytes`: [`StateStats::grace_conflicts`] (a grant during grace
//! that collides with another client's reclaimable pre-crash lock) and
//! [`StateStats::expired_lease_writes`] (a write admitted although the
//! writer's lease had expired).  Both are asserted zero by every sweep and
//! test.
//!
//! All containers are `BTreeMap`s: expiry sweeps and crash images iterate
//! them, and orderless iteration (e.g. a `HashMap` with a randomly seeded
//! hasher) would let the same inputs produce different runs.

use std::collections::BTreeMap;

use wg_nfsproto::{LockArgs, LockOk, NfsStatus};
use wg_simcore::{Duration, SimTime};

use crate::server::ClientId;

/// One held (or reclaimable) byte-range lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LockRecord {
    ino: u64,
    stateid: u32,
    /// Exclusive end of the range (`u64::MAX` = to end of file).
    offset: u64,
    end: u64,
}

impl LockRecord {
    fn from_args(ino: u64, stateid: u32, offset: u32, count: u32) -> Self {
        let offset = offset as u64;
        let end = if count == 0 {
            u64::MAX
        } else {
            offset + count as u64
        };
        LockRecord {
            ino,
            stateid,
            offset,
            end,
        }
    }

    fn overlaps(&self, other: &LockRecord) -> bool {
        self.ino == other.ino && self.offset < other.end && other.offset < self.end
    }
}

/// One registered client: its boot verifier, lease deadline, held locks and
/// the highest seqid consumed per stateid.
#[derive(Clone, Debug)]
struct ClientRecord {
    verifier: u64,
    expires: SimTime,
    locks: Vec<LockRecord>,
    /// `(stateid, last seqid)` pairs; clients hold few owners, so a sorted
    /// Vec beats a map.
    seqids: Vec<(u32, u32)>,
}

impl ClientRecord {
    fn last_seqid(&self, stateid: u32) -> Option<u32> {
        self.seqids
            .iter()
            .find(|(s, _)| *s == stateid)
            .map(|(_, q)| *q)
    }

    fn consume_seqid(&mut self, stateid: u32, seqid: u32) {
        match self.seqids.iter_mut().find(|(s, _)| *s == stateid) {
            Some(entry) => entry.1 = seqid,
            None => self.seqids.push((stateid, seqid)),
        }
    }
}

/// Counters of the state layer; the two `*_conflicts`/`*_writes` oracles at
/// the bottom must stay zero in every run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StateStats {
    /// First-contact registrations granted.
    pub leases_granted: u64,
    /// Lease renewals of already-registered clients.
    pub renewals: u64,
    /// RENEWs whose changed verifier revealed a client reboot.
    pub client_reboots: u64,
    /// Locks revoked because their owner re-registered with a new verifier.
    pub reboot_revoked_locks: u64,
    /// Leases that expired without renewal.
    pub leases_expired: u64,
    /// Locks orphaned (revoked) by lease expiry.
    pub state_orphaned: u64,
    /// Fresh (non-reclaim) locks granted.
    pub locks_granted: u64,
    /// Pre-crash locks successfully reclaimed during grace.
    pub locks_reclaimed: u64,
    /// Non-reclaim state requests soft-rejected during the grace period.
    pub grace_rejections: u64,
    /// Reclaims rejected (outside grace, or not matching the image).
    pub reclaim_rejections: u64,
    /// Lock requests rejected for a stale or replayed seqid.
    pub seqid_rejections: u64,
    /// Lock requests denied by a conflicting held range.
    pub lock_conflicts: u64,
    /// Lock requests from unregistered (or expired) clients.
    pub expired_state_rejections: u64,
    /// Writes rejected because the writer's registered lease had expired.
    pub expired_write_rejections: u64,
    /// Reclaimable locks discarded unclaimed when the grace window closed.
    pub reclaims_forfeited: u64,
    /// ORACLE: grants during grace conflicting with another client's
    /// reclaimable pre-crash lock.  Must be zero.
    pub grace_conflicts: u64,
    /// ORACLE: writes admitted although the writer's lease had expired.
    /// Must be zero.
    pub expired_lease_writes: u64,
}

/// One shard of the table (`client_id % shards`).
#[derive(Clone, Debug)]
struct StateShard {
    clients: BTreeMap<ClientId, ClientRecord>,
    /// A lower bound on every client's `expires`, so a sweep before it has
    /// nothing to expire.  Setting a lease lowers it; a sweep that scans
    /// re-derives it.
    earliest_expiry: SimTime,
}

/// The sharded client-state table owned by the server.
#[derive(Clone, Debug)]
pub struct ClientStateTable {
    shards: Vec<StateShard>,
    lease_duration: Duration,
    grace_period: Duration,
    /// Grace is open while `now < grace_until` (ZERO = never crashed).
    grace_until: SimTime,
    /// Pre-crash lock image, reclaimable during grace only.
    reclaimable: BTreeMap<ClientId, Vec<LockRecord>>,
    stats: StateStats,
}

impl ClientStateTable {
    /// An empty table with `shards` partitions.
    pub fn new(shards: usize, lease_duration: Duration, grace_period: Duration) -> Self {
        ClientStateTable {
            shards: vec![
                StateShard {
                    clients: BTreeMap::new(),
                    earliest_expiry: SimTime::MAX,
                };
                shards.max(1)
            ],
            lease_duration,
            grace_period,
            grace_until: SimTime::ZERO,
            reclaimable: BTreeMap::new(),
            stats: StateStats::default(),
        }
    }

    fn shard_of(&self, client: ClientId) -> usize {
        client as usize % self.shards.len()
    }

    /// `true` while the post-crash grace window is open.
    pub fn in_grace(&self, now: SimTime) -> bool {
        now < self.grace_until
    }

    /// The counters.
    pub fn stats(&self) -> &StateStats {
        &self.stats
    }

    /// Registered clients with live leases.
    pub fn active_clients(&self) -> usize {
        self.shards.iter().map(|s| s.clients.len()).sum()
    }

    /// Currently held locks across all clients.
    pub fn held_locks(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.clients.values())
            .map(|c| c.locks.len())
            .sum()
    }

    /// Bytes of memory the table pins, computed arithmetically (the benches
    /// report bytes/client without touching the allocator).
    pub fn table_bytes(&self) -> u64 {
        let record =
            std::mem::size_of::<ClientRecord>() as u64 + std::mem::size_of::<ClientId>() as u64;
        let lock = std::mem::size_of::<LockRecord>() as u64;
        let seq = std::mem::size_of::<(u32, u32)>() as u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            for c in shard.clients.values() {
                bytes += record + c.locks.len() as u64 * lock + c.seqids.len() as u64 * seq;
            }
        }
        for locks in self.reclaimable.values() {
            bytes += std::mem::size_of::<ClientId>() as u64 + locks.len() as u64 * lock;
        }
        bytes
    }

    /// Expire every lease older than `now` (all shards).  Sweeps run lazily
    /// before each state operation on the touched shard; callers invoke this
    /// at end of run so abandoned leases are reclaimed deterministically.
    pub fn sweep(&mut self, now: SimTime) {
        for idx in 0..self.shards.len() {
            self.sweep_shard(idx, now);
        }
        self.close_grace_if_over(now);
    }

    fn sweep_shard(&mut self, idx: usize, now: SimTime) {
        let shard = &mut self.shards[idx];
        if now < shard.earliest_expiry {
            return;
        }
        let stats = &mut self.stats;
        let mut earliest = SimTime::MAX;
        shard.clients.retain(|_, c| {
            if c.expires > now {
                earliest = earliest.min(c.expires);
                return true;
            }
            stats.leases_expired += 1;
            stats.state_orphaned += c.locks.len() as u64;
            false
        });
        shard.earliest_expiry = earliest;
    }

    /// Forfeit the unclaimed reclaimable image once grace is over.
    fn close_grace_if_over(&mut self, now: SimTime) {
        if !self.in_grace(now) && !self.reclaimable.is_empty() {
            let forfeited: u64 = self.reclaimable.values().map(|v| v.len() as u64).sum();
            self.stats.reclaims_forfeited += forfeited;
            self.reclaimable.clear();
        }
    }

    /// RENEW: register or renew `client`.  Returns whether the server is in
    /// its grace period (the client uses this to start reclaiming).
    pub fn renew(&mut self, client: ClientId, verifier: u64, now: SimTime) -> bool {
        let idx = self.shard_of(client);
        self.sweep_shard(idx, now);
        self.close_grace_if_over(now);
        let expires = now + self.lease_duration;
        let shard = &mut self.shards[idx];
        // Calls arrive at CPU completion times, which several cores need
        // not keep in order, so a renewal may lower a lease, not only raise
        // it.
        shard.earliest_expiry = shard.earliest_expiry.min(expires);
        match shard.clients.get_mut(&client) {
            Some(record) if record.verifier == verifier => {
                record.expires = expires;
                self.stats.renewals += 1;
            }
            Some(record) => {
                // The client rebooted: its old incarnation's locks are void.
                self.stats.client_reboots += 1;
                self.stats.reboot_revoked_locks += record.locks.len() as u64;
                record.verifier = verifier;
                record.expires = expires;
                record.locks.clear();
                record.seqids.clear();
                // It also forgot its pre-crash locks; nothing of its image is
                // reclaimable any more.
                if let Some(image) = self.reclaimable.remove(&client) {
                    self.stats.reclaims_forfeited += image.len() as u64;
                }
            }
            None => {
                shard.clients.insert(
                    client,
                    ClientRecord {
                        verifier,
                        expires,
                        locks: Vec::new(),
                        seqids: Vec::new(),
                    },
                );
                self.stats.leases_granted += 1;
            }
        }
        self.in_grace(now)
    }

    /// Any held lock (other than `owner`'s own) overlapping `wanted`.
    fn conflicts_with_held(&self, owner: ClientId, wanted: &LockRecord) -> bool {
        self.shards.iter().any(|s| {
            s.clients
                .iter()
                .filter(|(&id, _)| id != owner)
                .any(|(_, c)| c.locks.iter().any(|l| l.overlaps(wanted)))
        })
    }

    /// Oracle check: a grant during grace must not collide with another
    /// client's still-reclaimable pre-crash lock.
    fn check_grace_conflict(&mut self, owner: ClientId, granted: &LockRecord, now: SimTime) {
        if !self.in_grace(now) {
            return;
        }
        let conflict = self
            .reclaimable
            .iter()
            .filter(|(&id, _)| id != owner)
            .any(|(_, locks)| locks.iter().any(|l| l.overlaps(granted)));
        if conflict {
            self.stats.grace_conflicts += 1;
        }
    }

    /// LOCK: acquire (or reclaim, during grace) a byte-range lock.
    pub fn lock(&mut self, args: &LockArgs, now: SimTime) -> Result<LockOk, NfsStatus> {
        let idx = self.shard_of(args.client_id);
        self.sweep_shard(idx, now);
        self.close_grace_if_over(now);
        let ino = args.file.inode();
        let wanted = LockRecord::from_args(ino, args.stateid, args.offset, args.count);
        // The owner must hold a live lease: state requests are what leases
        // gate (plain v2 reads/writes stay stateless).
        let Some(record) = self.shards[idx].clients.get(&args.client_id) else {
            self.stats.expired_state_rejections += 1;
            return Err(NfsStatus::Expired);
        };
        // Strict seqid monotonicity per (client, stateid): a replay or
        // reordering that slipped past the dupcache is refused, not re-run.
        if let Some(last) = record.last_seqid(args.stateid) {
            if args.seqid <= last {
                self.stats.seqid_rejections += 1;
                return Err(NfsStatus::Denied);
            }
        }
        if args.reclaim {
            // A reclaim is only valid during grace and only for a lock the
            // crashed incarnation actually held.
            let image_match = self.in_grace(now)
                && self
                    .reclaimable
                    .get(&args.client_id)
                    .map(|locks| locks.contains(&wanted))
                    .unwrap_or(false);
            if !image_match {
                self.stats.reclaim_rejections += 1;
                return Err(NfsStatus::Denied);
            }
            let image = self
                .reclaimable
                .get_mut(&args.client_id)
                .expect("matched above");
            image.retain(|l| *l != wanted);
            if image.is_empty() {
                self.reclaimable.remove(&args.client_id);
            }
            self.stats.locks_reclaimed += 1;
        } else {
            // New state during grace gets a counted soft rejection; the
            // client retries once the window is over.
            if self.in_grace(now) {
                self.stats.grace_rejections += 1;
                return Err(NfsStatus::Grace);
            }
            if self.conflicts_with_held(args.client_id, &wanted) {
                self.stats.lock_conflicts += 1;
                return Err(NfsStatus::Denied);
            }
            self.stats.locks_granted += 1;
        }
        self.check_grace_conflict(args.client_id, &wanted, now);
        let record = self.shards[idx]
            .clients
            .get_mut(&args.client_id)
            .expect("lease checked above");
        record.consume_seqid(args.stateid, args.seqid);
        record.locks.push(wanted);
        Ok(LockOk {
            stateid: args.stateid,
            seqid: args.seqid,
        })
    }

    /// Gate a WRITE from `client`: admitted unless the client is registered
    /// and its lease has expired (unregistered clients write statelessly, as
    /// in plain v2).  An expired lease is revoked on the spot and the write
    /// rejected — and the oracle counts any write that would slip through.
    pub fn write_admitted(&mut self, client: ClientId, now: SimTime) -> bool {
        let idx = self.shard_of(client);
        let expired = match self.shards[idx].clients.get(&client) {
            Some(record) => record.expires <= now,
            None => return true,
        };
        if expired {
            self.sweep_shard(idx, now);
            self.stats.expired_write_rejections += 1;
            return false;
        }
        // Oracle arm: if the admission logic above ever regresses, a write
        // admitted on an expired lease is counted, not hidden.
        if self.shards[idx]
            .clients
            .get(&client)
            .map(|r| r.expires <= now)
            .unwrap_or(false)
        {
            self.stats.expired_lease_writes += 1;
        }
        true
    }

    /// Server crash: every held lock moves into the reclaimable image, all
    /// volatile client records die, and the grace window opens until
    /// `recovered + grace_period`.
    pub fn crash(&mut self, recovered: SimTime) {
        // An unclaimed image from an *earlier* crash is gone for good.
        let stale: u64 = self.reclaimable.values().map(|v| v.len() as u64).sum();
        self.stats.reclaims_forfeited += stale;
        self.reclaimable.clear();
        for shard in self.shards.iter_mut() {
            for (&id, record) in shard.clients.iter() {
                if !record.locks.is_empty() {
                    self.reclaimable.insert(id, record.locks.clone());
                }
            }
            shard.clients.clear();
            shard.earliest_expiry = SimTime::MAX;
        }
        self.grace_until = recovered + self.grace_period;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_nfsproto::FileHandle;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn fh(ino: u64) -> FileHandle {
        FileHandle::new(1, ino, 1)
    }

    fn lock_args(client: ClientId, ino: u64, seqid: u32, reclaim: bool) -> LockArgs {
        LockArgs {
            file: fh(ino),
            client_id: client,
            stateid: client,
            seqid,
            offset: 0,
            count: 8192,
            reclaim,
        }
    }

    fn table() -> ClientStateTable {
        ClientStateTable::new(4, Duration::from_millis(100), Duration::from_millis(50))
    }

    #[test]
    fn register_renew_and_expire() {
        let mut s = table();
        assert!(!s.renew(1, 7, t(0)));
        assert_eq!(s.stats().leases_granted, 1);
        assert!(s.lock(&lock_args(1, 10, 1, false), t(10)).is_ok());
        assert_eq!(s.active_clients(), 1);
        assert_eq!(s.held_locks(), 1);
        // Renewed in time: still alive well past the original deadline.
        s.renew(1, 7, t(90));
        s.sweep(t(150));
        assert_eq!(s.stats().leases_expired, 0);
        // Not renewed: expires, and its lock is orphaned with it.
        s.sweep(t(300));
        assert_eq!(s.stats().leases_expired, 1);
        assert_eq!(s.stats().state_orphaned, 1);
        assert_eq!(s.active_clients(), 0);
        assert_eq!(s.held_locks(), 0);
    }

    #[test]
    fn seqid_must_increase() {
        let mut s = table();
        s.renew(1, 7, t(0));
        assert!(s.lock(&lock_args(1, 10, 5, false), t(1)).is_ok());
        // Replayed and stale seqids are refused.
        assert_eq!(
            s.lock(&lock_args(1, 11, 5, false), t(2)),
            Err(NfsStatus::Denied)
        );
        assert_eq!(
            s.lock(&lock_args(1, 11, 4, false), t(3)),
            Err(NfsStatus::Denied)
        );
        assert_eq!(s.stats().seqid_rejections, 2);
        assert!(s.lock(&lock_args(1, 11, 6, false), t(4)).is_ok());
    }

    #[test]
    fn conflicting_ranges_are_denied() {
        let mut s = table();
        s.renew(1, 7, t(0));
        s.renew(2, 9, t(0));
        assert!(s.lock(&lock_args(1, 10, 1, false), t(1)).is_ok());
        assert_eq!(
            s.lock(&lock_args(2, 10, 1, false), t(2)),
            Err(NfsStatus::Denied)
        );
        assert_eq!(s.stats().lock_conflicts, 1);
        // A different file is fine.
        assert!(s.lock(&lock_args(2, 11, 2, false), t(3)).is_ok());
    }

    #[test]
    fn unregistered_clients_cannot_lock_but_can_write() {
        let mut s = table();
        assert_eq!(
            s.lock(&lock_args(5, 10, 1, false), t(0)),
            Err(NfsStatus::Expired)
        );
        assert_eq!(s.stats().expired_state_rejections, 1);
        assert!(s.write_admitted(5, t(0)));
    }

    #[test]
    fn expired_lease_rejects_writes_until_reregistration() {
        let mut s = table();
        s.renew(1, 7, t(0));
        assert!(s.write_admitted(1, t(50)));
        assert!(!s.write_admitted(1, t(200)));
        assert_eq!(s.stats().expired_write_rejections, 1);
        assert_eq!(s.stats().expired_lease_writes, 0, "oracle must stay zero");
        // The expiry revoked the record, so the client is unregistered again
        // (stateless writes) until it re-registers.
        assert!(s.write_admitted(1, t(201)));
        s.renew(1, 7, t(210));
        assert!(s.write_admitted(1, t(220)));
    }

    #[test]
    fn grace_admits_only_matching_reclaims() {
        let mut s = table();
        s.renew(1, 7, t(0));
        s.renew(2, 9, t(0));
        assert!(s.lock(&lock_args(1, 10, 1, false), t(1)).is_ok());
        s.crash(t(20));
        assert!(s.in_grace(t(30)));
        assert_eq!(s.active_clients(), 0, "volatile records die with the crash");
        // Re-registration during grace reports the window.
        assert!(s.renew(1, 7, t(30)));
        assert!(s.renew(2, 9, t(30)));
        // A fresh lock during grace is soft-rejected.
        assert_eq!(
            s.lock(&lock_args(2, 11, 1, false), t(31)),
            Err(NfsStatus::Grace)
        );
        assert_eq!(s.stats().grace_rejections, 1);
        // Client 2 cannot reclaim what it never held.
        assert_eq!(
            s.lock(&lock_args(2, 10, 2, true), t(32)),
            Err(NfsStatus::Denied)
        );
        assert_eq!(s.stats().reclaim_rejections, 1);
        // Client 1 reclaims its own lock.
        assert!(s.lock(&lock_args(1, 10, 2, true), t(33)).is_ok());
        assert_eq!(s.stats().locks_reclaimed, 1);
        assert_eq!(s.stats().grace_conflicts, 0, "oracle must stay zero");
        // After grace (and a fresh renewal — the 100 ms lease from t(30)
        // expired on its own), fresh locks flow again.
        assert!(!s.in_grace(t(199)));
        assert!(!s.renew(2, 9, t(199)));
        assert!(s.lock(&lock_args(2, 11, 3, false), t(200)).is_ok());
    }

    #[test]
    fn unclaimed_image_is_forfeited_when_grace_closes() {
        let mut s = table();
        s.renew(1, 7, t(0));
        assert!(s.lock(&lock_args(1, 10, 1, false), t(1)).is_ok());
        s.crash(t(20));
        // Nobody reclaims; first state op after the window forfeits the image.
        s.sweep(t(500));
        assert_eq!(s.stats().reclaims_forfeited, 1);
        // And the range is free again.
        s.renew(2, 9, t(510));
        assert!(s.lock(&lock_args(2, 10, 1, false), t(511)).is_ok());
    }

    #[test]
    fn client_reboot_revokes_old_incarnation() {
        let mut s = table();
        s.renew(1, 7, t(0));
        assert!(s.lock(&lock_args(1, 10, 1, false), t(1)).is_ok());
        // Same client, new boot verifier: locks are void, seqids reset.
        s.renew(1, 8, t(10));
        assert_eq!(s.stats().client_reboots, 1);
        assert_eq!(s.stats().reboot_revoked_locks, 1);
        assert_eq!(s.held_locks(), 0);
        assert!(s.lock(&lock_args(1, 10, 1, false), t(11)).is_ok());
    }

    #[test]
    fn table_bytes_track_registrations() {
        let mut s = table();
        assert_eq!(s.table_bytes(), 0);
        s.renew(1, 7, t(0));
        let one = s.table_bytes();
        assert!(one > 0);
        s.renew(2, 9, t(0));
        assert_eq!(s.table_bytes(), 2 * one);
        assert!(s.lock(&lock_args(1, 10, 1, false), t(1)).is_ok());
        assert!(s.table_bytes() > 2 * one);
    }

    /// The bounded sweep against a table that forgets every shard's bound
    /// before each call, and so scans on every sweep as the table did
    /// before the bound: random renewals, reboots, locks, reclaims,
    /// admitted writes, crashes and sweeps, at times that span
    /// several leases and step back by up to 20 ms, as completion times on
    /// several cores do, return the same results and leave the same
    /// counters, clients and locks.  The CI release step reruns it at
    /// optimised speed.
    #[test]
    fn differential_fuzz_bounded_sweep_matches_the_full_sweep() {
        for seed in 1..=8u64 {
            let mut rng = wg_simcore::SimRng::seed_from(seed);
            let (mut bounded, mut full) = (table(), table());
            let mut base = 0u64;
            let mut seqid = 0u32;
            for step in 0..4000 {
                base += rng.next_below(7);
                let now = t(base.saturating_sub(rng.next_below(20)));
                // No time is below a bound of ZERO, so `full` always scans.
                for s in &mut full.shards {
                    s.earliest_expiry = SimTime::ZERO;
                }
                let client = rng.next_below(12) as ClientId;
                let ino = 10 + rng.next_below(2);
                // Seqids mostly rise; one in eight replays an older one.
                seqid += 1;
                let seq = seqid.saturating_sub(8 * u32::from(rng.chance(0.125)));
                let at = format!("seed {seed} step {step}");
                match rng.next_below(16) {
                    0..=4 => {
                        let verifier = 7 + u64::from(rng.chance(0.05));
                        let renewed = bounded.renew(client, verifier, now);
                        assert_eq!(renewed, full.renew(client, verifier, now), "{at}");
                    }
                    5..=10 => {
                        let args = LockArgs {
                            seqid: seq,
                            ..lock_args(client, ino, 0, rng.chance(0.3))
                        };
                        assert_eq!(bounded.lock(&args, now), full.lock(&args, now), "{at}");
                    }
                    11..=13 => {
                        let admitted = bounded.write_admitted(client, now);
                        assert_eq!(admitted, full.write_admitted(client, now), "{at}");
                    }
                    14 if rng.chance(0.1) => {
                        let recovered = now + Duration::from_millis(rng.next_below(20));
                        bounded.crash(recovered);
                        full.crash(recovered);
                    }
                    _ => {
                        bounded.sweep(now);
                        full.sweep(now);
                    }
                }
                assert_eq!(bounded.stats(), full.stats(), "{at}");
                assert_eq!(bounded.active_clients(), full.active_clients());
                assert_eq!(bounded.held_locks(), full.held_locks());
            }
            assert!(
                full.stats().leases_expired > 0,
                "seed {seed}: no lease expired"
            );
        }
    }
}
