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

use std::sync::Arc;

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

/// The data handed to `VOP_WRITE`, without forcing the caller to materialise
/// synthetic payloads.
///
/// The NFS server converts a `wg_nfsproto` payload into a `WriteSource`; the
/// filesystem stores whole-block fill writes as
/// [`BlockData::Fill`](crate::inode::BlockData::Fill) so the hot path of a
/// simulated file copy allocates no payload bytes at all.
#[derive(Clone, Copy, Debug)]
pub enum WriteSource<'a> {
    /// Real bytes to copy into the cache.
    Bytes(&'a [u8]),
    /// `len` repetitions of `byte`.
    Fill {
        /// The repeated byte value.
        byte: u8,
        /// Number of repetitions.
        len: u64,
    },
}

impl WriteSource<'_> {
    /// Number of bytes the write carries.
    pub fn len(&self) -> usize {
        match self {
            WriteSource::Bytes(b) => b.len(),
            WriteSource::Fill { len, .. } => *len as usize,
        }
    }

    /// `true` if the write carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<'a> From<&'a [u8]> for WriteSource<'a> {
    fn from(bytes: &'a [u8]) -> Self {
        WriteSource::Bytes(bytes)
    }
}

impl<'a> From<&'a Vec<u8>> for WriteSource<'a> {
    fn from(bytes: &'a Vec<u8>) -> Self {
        WriteSource::Bytes(bytes)
    }
}

impl<'a, const N: usize> From<&'a [u8; N]> for WriteSource<'a> {
    fn from(bytes: &'a [u8; N]) -> Self {
        WriteSource::Bytes(bytes)
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
/// fill-pattern blocks stay the 8-byte `Payload::Fill` form, materialised
/// blocks are handed out as refcounted `Payload::Shared` views of the buffer
/// cache, and holes or uncached blocks read as a zero fill.  On the
/// steady-state path of the simulated workloads (block-aligned reads of
/// fill-pattern files) a read therefore allocates nothing at all — the read
/// side of the zero-copy discipline PR 1 established for writes.
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
    /// A read that returned nothing (offset at or past end of file).
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

/// Builds the payload of one read from per-block segments without copying on
/// the common paths.
///
/// The accumulator tracks the cheapest representation that still describes
/// everything pushed so far and only degrades when it must:
///
/// * nothing yet → `Empty`;
/// * fill segments of one byte value (fill blocks, holes, uncached blocks)
///   coalesce into a single `Fill` — the steady-state case for synthetic
///   workloads, zero allocation;
/// * a single contiguous range of one materialised block stays a refcounted
///   `Shared` view — an aligned read of a real-bytes block, zero copy;
/// * anything mixed falls back to a flat buffer, counting any fill expansion
///   toward [`wg_nfsproto::payload::materialize_count`] so the probe tests
///   catch hot paths that degenerate into copies.
#[derive(Debug, Default)]
pub struct ReadAccumulator {
    state: AccState,
}

#[derive(Debug, Default)]
enum AccState {
    #[default]
    Empty,
    Fill {
        byte: u8,
        len: u64,
    },
    Shared {
        buf: Arc<[u8]>,
        from: usize,
        len: usize,
    },
    Mixed(Vec<u8>),
}

impl ReadAccumulator {
    /// An accumulator with nothing pushed yet.
    pub fn new() -> Self {
        ReadAccumulator::default()
    }

    /// Append `len` repetitions of `byte` (a fill block, a hole, or an
    /// uncached block reading as zeros).
    pub fn push_fill(&mut self, byte: u8, len: u64) {
        if len == 0 {
            return;
        }
        match &mut self.state {
            AccState::Empty => self.state = AccState::Fill { byte, len },
            AccState::Fill {
                byte: have,
                len: have_len,
            } if *have == byte => *have_len += len,
            _ => {
                let mixed = self.spill();
                Payload::fill(byte, len as u32).append_to(mixed);
            }
        }
    }

    /// Append `len` bytes starting at `from` within a materialised block.
    pub fn push_shared(&mut self, buf: &Arc<[u8]>, from: usize, len: usize) {
        if len == 0 {
            return;
        }
        match &mut self.state {
            AccState::Empty => {
                self.state = AccState::Shared {
                    buf: Arc::clone(buf),
                    from,
                    len,
                }
            }
            AccState::Shared {
                buf: have,
                from: have_from,
                len: have_len,
            } if Arc::ptr_eq(have, buf) && *have_from + *have_len == from => *have_len += len,
            _ => {
                let mixed = self.spill();
                mixed.extend_from_slice(&buf[from..from + len]);
            }
        }
    }

    /// Degrade the current state to a flat buffer and return it for appending.
    fn spill(&mut self) -> &mut Vec<u8> {
        if !matches!(self.state, AccState::Mixed(_)) {
            let mut mixed = Vec::new();
            match std::mem::take(&mut self.state) {
                AccState::Empty | AccState::Mixed(_) => {}
                AccState::Fill { byte, len } => {
                    Payload::fill(byte, len as u32).append_to(&mut mixed)
                }
                AccState::Shared { buf, from, len } => {
                    mixed.extend_from_slice(&buf[from..from + len])
                }
            }
            self.state = AccState::Mixed(mixed);
        }
        match &mut self.state {
            AccState::Mixed(v) => v,
            _ => unreachable!("just degraded to Mixed"),
        }
    }

    /// The accumulated payload.
    pub fn finish(self) -> Payload {
        match self.state {
            AccState::Empty => Payload::empty(),
            AccState::Fill { byte, len } => Payload::fill(byte, len as u32),
            AccState::Shared { buf, from, len } => {
                if from == 0 && len == buf.len() {
                    // A whole-block read: the reply aliases the cache buffer.
                    Payload::Shared(buf)
                } else {
                    // A sub-range of real bytes: Arc slices cannot be
                    // sub-sliced without a copy, so pay it here (partial reads
                    // of materialised blocks are off the steady-state path).
                    Payload::Shared(buf[from..from + len].into())
                }
            }
            AccState::Mixed(bytes) => Payload::from_vec(bytes),
        }
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
    fn accumulator_coalesces_same_byte_fills_without_alloc() {
        let mut acc = ReadAccumulator::new();
        acc.push_fill(7, 4096);
        acc.push_fill(7, 4096);
        acc.push_fill(9, 0); // empty segments are ignored
        assert_eq!(acc.finish(), Payload::fill(7, 8192));
    }

    #[test]
    fn accumulator_passes_whole_block_shared_views_through() {
        let buf: Arc<[u8]> = vec![1u8, 2, 3, 4].into();
        let mut acc = ReadAccumulator::new();
        acc.push_shared(&buf, 0, 4);
        match acc.finish() {
            Payload::Shared(out) => assert!(Arc::ptr_eq(&out, &buf), "copied a whole-block read"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn accumulator_extends_contiguous_ranges_of_one_buffer() {
        let buf: Arc<[u8]> = (0u8..16).collect();
        let mut acc = ReadAccumulator::new();
        acc.push_shared(&buf, 2, 4);
        acc.push_shared(&buf, 6, 4);
        assert_eq!(acc.finish(), Payload::Shared((2u8..10).collect()));
    }

    #[test]
    fn accumulator_mixes_fills_and_bytes_into_one_payload() {
        let buf: Arc<[u8]> = vec![9u8; 4].into();
        let mut acc = ReadAccumulator::new();
        acc.push_fill(1, 2);
        acc.push_shared(&buf, 0, 4);
        acc.push_fill(2, 2);
        let flat: Vec<u8> = acc.finish().iter_bytes().collect();
        assert_eq!(flat, vec![1, 1, 9, 9, 9, 9, 2, 2]);
        assert_eq!(ReadAccumulator::new().finish(), Payload::empty());
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
