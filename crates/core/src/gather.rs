//! Per-file server state: the vnode lock and the gathering algorithm's queue
//! of active writes.
//!
//! §6.2 of the paper: "A global array of nfsd state was created so that one
//! nfsd can ascertain the state of others [...] data structures that package
//! up active write requests for handoff and a queue of these active
//! requests."  In this reproduction one [`Vnode`] per file holds all of it:
//! when the file's vnode lock frees, whether an nfsd is procrastinating on
//! the file's behalf, and the writes whose replies wait on its next metadata
//! flush.

use wg_nfsproto::Xid;
use wg_simcore::SimTime;

/// One write whose data is in the filesystem but whose reply is deferred
/// until a metadata writer commits it.
#[derive(Debug)]
pub(crate) struct PendingWrite {
    /// The client that issued the write.
    pub(crate) client: u32,
    /// Its transaction id (needed to build the reply and to key the duplicate
    /// request cache).
    pub(crate) xid: Xid,
    /// Byte offset written.
    pub(crate) offset: u64,
    /// Bytes written.
    pub(crate) len: u64,
    /// When the request arrived at the server (latency accounting).
    pub(crate) arrived: SimTime,
}

/// One file's vnode: its lock and its gathering state.
#[derive(Debug, Default)]
pub(crate) struct Vnode {
    /// When the vnode lock is next free.
    pub(crate) free_at: SimTime,
    /// Whether an nfsd is procrastinating on this file's behalf, so a write
    /// that arrives now can leave the metadata flush to it.
    pub(crate) procrastinating: bool,
    /// Writes whose replies wait on the next metadata flush, in arrival
    /// order.
    pub(crate) pending: Vec<PendingWrite>,
}

impl Vnode {
    /// Whether the vnode holds writes that no nfsd procrastinates on: a
    /// batch the mbuf hunter handed to the next WRITE queued for the file.
    pub(crate) fn handed_off(&self) -> bool {
        !self.pending.is_empty() && !self.procrastinating
    }

    /// Take the pending writes for flushing, with the `[from, to)` range
    /// they cover as the `VOP_SYNCDATA` hint (`(0, 0)` when none are
    /// pending).
    pub(crate) fn take_batch(&mut self) -> (Vec<PendingWrite>, u64, u64) {
        let batch = std::mem::take(&mut self.pending);
        let from = batch.iter().map(|w| w.offset).min().unwrap_or(0);
        let to = batch.iter().map(|w| w.offset + w.len).max().unwrap_or(0);
        (batch, from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(offset: u64, len: u64) -> PendingWrite {
        PendingWrite {
            client: 1,
            xid: Xid(offset as u32),
            offset,
            len,
            arrived: SimTime::ZERO,
        }
    }

    #[test]
    fn push_tracks_range() {
        let mut v = Vnode::default();
        v.pending.push(w(16384, 8192));
        v.pending.push(w(0, 8192));
        v.pending.push(w(8192, 8192));
        let (batch, from, to) = v.take_batch();
        assert_eq!(batch.len(), 3);
        assert_eq!((from, to), (0, 24576));
    }

    #[test]
    fn first_batch_syncs_only_the_range_it_wrote() {
        // A fresh vnode's first batch must not hint `VOP_SYNCDATA` from
        // offset 0 when no pending write starts there.
        let mut v = Vnode::default();
        v.pending.push(w(16384, 8192));
        v.pending.push(w(8192, 8192));
        let (_, from, to) = v.take_batch();
        assert_eq!((from, to), (8192, 24576));
    }

    #[test]
    fn take_batch_snapshots_and_resets() {
        let mut v = Vnode::default();
        v.pending.push(w(0, 8192));
        v.pending.push(w(8192, 8192));
        let (batch, from, to) = v.take_batch();
        assert_eq!(batch.len(), 2);
        assert_eq!((from, to), (0, 16384));
        assert!(v.pending.is_empty());
        // Writes arriving during the flush belong to the next batch, whose
        // range is theirs alone.
        v.pending.push(w(16384, 8192));
        let (batch, from, to) = v.take_batch();
        assert_eq!(batch.len(), 1);
        assert_eq!((from, to), (16384, 24576));
    }

    #[test]
    fn empty_batch_range_is_safe() {
        let mut v = Vnode::default();
        let (batch, from, to) = v.take_batch();
        assert!(batch.is_empty());
        assert_eq!(from, 0);
        assert_eq!(to, 0);
    }
}
