//! The vnode-operation surface: flags, I/O plans and operation outcomes.
//!
//! Section 6.4 of the paper describes the hints the NFS server layer passes
//! down through VFS:
//!
//! * accelerated filesystems get `VOP_WRITE(IO_SYNC | IO_DATAONLY)` — push the
//!   data to Presto now, touch no metadata;
//! * non-accelerated filesystems get `VOP_WRITE(IO_DELAYDATA)` — let UFS keep
//!   the data dirty in the cache and pick its own clustering;
//! * metadata is flushed with `VOP_FSYNC(FWRITE | FWRITE_METADATA)`;
//! * gathered data is flushed with the new `VOP_SYNCDATA(from, to)`.
//!
//! The types here encode those flags and the *I/O plans* that operations
//! return: ordered lists of disk requests a real kernel would have issued
//! synchronously, which the server model then plays against a
//! [`wg_disk::BlockDevice`].

use wg_disk::DiskRequest;
use wg_nfsproto::Payload;

/// How `VOP_WRITE` should treat data and metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum WriteFlags {
    /// Fully synchronous: write the data block(s) and any changed metadata
    /// before returning.  This is the standard-server (baseline) path.
    Sync,
    /// `IO_SYNC | IO_DATAONLY`: write the data now but leave metadata dirty in
    /// memory (the accelerated-filesystem path of §6.4).
    SyncDataOnly,
    /// `IO_DELAYDATA`: leave the data dirty in the buffer cache so a later
    /// flush can cluster it (the non-accelerated gathering path of §6.4).
    DelayData,
}

/// What `VOP_FSYNC` should flush.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FsyncFlags {
    /// Flush dirty data and metadata.
    All,
    /// `FWRITE_METADATA`: flush only the inode and indirect blocks.
    MetadataOnly,
}

/// An ordered list of device requests produced by a filesystem operation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IoPlan {
    /// Data-block transfers (already clustered where possible).
    pub data: Vec<DiskRequest>,
    /// Metadata transfers: the inode block and any dirty indirect blocks.
    pub metadata: Vec<DiskRequest>,
}

impl IoPlan {
    /// An empty plan (nothing needs to touch the device).
    pub fn empty() -> Self {
        IoPlan::default()
    }

    /// Total number of device transactions in the plan.
    pub fn transactions(&self) -> usize {
        self.data.len() + self.metadata.len()
    }

    /// Total bytes moved by the plan.
    pub fn bytes(&self) -> u64 {
        self.data.iter().map(|r| r.len).sum::<u64>()
            + self.metadata.iter().map(|r| r.len).sum::<u64>()
    }

    /// `true` if the plan issues no I/O at all.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty() && self.metadata.is_empty()
    }

    /// Append another plan after this one.
    pub fn extend(&mut self, other: IoPlan) {
        self.data.extend(other.data);
        self.metadata.extend(other.metadata);
    }
}

/// The result of a `VOP_WRITE`.
#[derive(Clone, Debug)]
pub struct WriteOutcome {
    /// Device requests the write requires before it is stable, given the
    /// flags it was issued with (empty for `DelayData`).
    pub io: IoPlan,
}

/// The result of a read.
///
/// The data comes back as a [`Payload`], not a freshly filled `Vec<u8>`:
/// fill-pattern blocks stay the 8-byte `Payload::Fill` form, a whole block
/// of real bytes is handed out as the cache's own refcounted
/// `Payload::Shared` buffer, and holes or uncached blocks read as a zero
/// fill.  On the steady-state path of the simulated workloads
/// (block-aligned reads of fill-pattern files) a read therefore allocates
/// nothing at all, as the write path allocates nothing for fill payloads.
#[derive(Clone, Debug)]
pub struct ReadOutcome {
    /// The bytes read (shorter than requested at end of file), as a zero-copy
    /// payload.
    pub data: Payload,
    /// Device reads needed for blocks that were not in the cache.  The caller
    /// charges their latency before completing the read.
    pub misses: Vec<DiskRequest>,
}

impl ReadOutcome {
    /// A read that returned nothing (zero bytes asked for, or an offset at
    /// or past end of file).
    pub fn empty() -> Self {
        ReadOutcome {
            data: Payload::empty(),
            misses: Vec::new(),
        }
    }

    /// Number of bytes read.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the read returned no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flatten the payload into a plain byte vector.
    ///
    /// Verification helper for tests and post-run integrity checks; it walks
    /// the payload without touching the materialisation probe, so checking a
    /// result never masks (or fakes) a datapath regression.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.iter_bytes().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_plan_accounting() {
        let mut plan = IoPlan::empty();
        assert!(plan.is_empty());
        assert_eq!(plan.transactions(), 0);
        plan.data.push(DiskRequest::write(0, 65536));
        plan.metadata.push(DiskRequest::write(16_000_000, 8192));
        assert_eq!(plan.transactions(), 2);
        assert_eq!(plan.bytes(), 65536 + 8192);
        assert!(!plan.is_empty());

        let mut other = IoPlan::empty();
        other.data.push(DiskRequest::write(65536, 8192));
        plan.extend(other);
        assert_eq!(plan.transactions(), 3);
        assert_eq!(plan.data.len(), 2);
    }

    #[test]
    fn read_outcome_helpers() {
        let out = ReadOutcome::empty();
        assert!(out.is_empty());
        assert_eq!(out.len(), 0);
        let out = ReadOutcome {
            data: Payload::fill(3, 5),
            misses: Vec::new(),
        };
        assert_eq!(out.len(), 5);
        assert_eq!(out.to_vec(), vec![3u8; 5]);
    }

    #[test]
    fn flags_are_distinct() {
        assert_ne!(WriteFlags::Sync, WriteFlags::DelayData);
        assert_ne!(WriteFlags::Sync, WriteFlags::SyncDataOnly);
        assert_ne!(FsyncFlags::All, FsyncFlags::MetadataOnly);
    }
}
