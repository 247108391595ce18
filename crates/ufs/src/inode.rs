//! In-memory inodes.
//!
//! The quantities that matter to the paper are which *disk blocks* a write
//! dirties: the data block itself, the block holding the inode, and possibly
//! an indirect block.  [`Inode`] therefore tracks the FFS block map together
//! with dirty flags for the inode and the indirect block, which is exactly
//! the metadata a `VOP_FSYNC(FWRITE_METADATA)` must flush.  The block map is
//! one dense map from logical block to physical address: its first 12 slots
//! are the inode's direct pointers, and the rest are the pointers its single
//! indirect block holds.

use crate::params::FsParams;
use std::collections::BTreeMap;
use std::sync::Arc;
use wg_nfsproto::DirListing;

/// Number of direct block pointers in an FFS inode.
pub const NDADDR: usize = 12;

/// An inode number.
pub type InodeNumber = u64;

/// Whether an inode is a regular file or a directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FileKind {
    /// A regular file.
    Regular,
    /// A directory.
    Directory,
}

/// Contents of one cached file block.
///
/// The zero-copy write datapath stores whole-block fill-pattern writes (the
/// synthetic-workload case) as a single byte instead of materialising an 8 KB
/// buffer per block; reads and partial overwrites expand the pattern lazily.
///
/// Materialised contents sit behind an [`Arc`] so the read datapath can hand
/// out refcounted views of a block ([`BlockData::shared_bytes`]) instead of
/// copying it into a fresh buffer per READ.  Writes that land on a block
/// whose bytes are still shared with an outstanding reply un-share it first
/// (copy-on-write in [`BlockData::make_bytes`]), so readers always keep the
/// snapshot they were given.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockData {
    /// Every byte of the block has this value (no backing allocation).
    Fill(u8),
    /// Materialised contents, always exactly one filesystem block long.
    Bytes(Arc<[u8]>),
}

impl BlockData {
    /// Copy `out.len()` bytes starting at `from` into `out`.
    pub fn copy_range(&self, from: usize, out: &mut [u8]) {
        match self {
            BlockData::Fill(byte) => out.fill(*byte),
            BlockData::Bytes(bytes) => out.copy_from_slice(&bytes[from..from + out.len()]),
        }
    }

    /// A refcounted view of materialised contents, if the block has any.
    /// Cloning the returned [`Arc`] is how a READ shares the block without
    /// copying it.
    pub fn shared_bytes(&self) -> Option<&Arc<[u8]>> {
        match self {
            BlockData::Fill(_) => None,
            BlockData::Bytes(bytes) => Some(bytes),
        }
    }

    /// Mutable access to materialised contents, expanding a fill pattern into
    /// a real `block_size`-byte buffer first if needed.
    ///
    /// If the bytes are currently shared with a reader (refcount > 1), the
    /// block is un-shared by copying it once — the copy-on-write half of the
    /// zero-copy read contract.
    pub fn make_bytes(&mut self, block_size: usize) -> &mut [u8] {
        match self {
            BlockData::Fill(byte) => {
                *self = BlockData::Bytes(vec![*byte; block_size].into());
            }
            BlockData::Bytes(bytes) => {
                if Arc::get_mut(bytes).is_none() {
                    let unshared: Arc<[u8]> = Arc::from(&bytes[..]);
                    *self = BlockData::Bytes(unshared);
                }
            }
        }
        match self {
            BlockData::Bytes(bytes) => Arc::get_mut(bytes).expect("uniquely owned"),
            BlockData::Fill(_) => unreachable!("just materialised"),
        }
    }
}

/// One file block the filesystem knows the contents of: its physical disk
/// address, its contents, whether it is dirty (written but not yet flushed
/// to the disk) and whether it is resident in memory.
#[derive(Clone, Debug)]
pub struct CachedBlock {
    /// Physical byte address of the block on the device.
    pub phys: u64,
    /// Block contents.
    pub data: BlockData,
    /// `true` if the cached contents have not been written to the device.
    pub dirty: bool,
    /// `false` once the bounded cache evicted the (clean) page: its contents
    /// live on only on the disk, so the next read of it pays a disk read.
    pub resident: bool,
}

/// A dense map keyed by logical block index (lbn).
///
/// A file addressable through one single-indirect block spans at most
/// `NDADDR + pointers_per_block` logical blocks (~2060 under the default
/// geometry), so the map is a slot vector indexed by lbn: every lookup on
/// the write datapath is one bounds check and one `Option` discriminant away
/// from its value, where a `BTreeMap` costs a pointer chase per tree level.
/// Iteration walks the slots in index order, so every traversal is
/// ascending-lbn: flush order and free order, and with them the simulated
/// event order, follow from it.  An inode keeps two: its cached blocks (the
/// default, [`CachedBlock`]) and its block pointers (physical addresses).
#[derive(Clone, Debug)]
pub struct BlockMap<T = CachedBlock> {
    slots: Vec<Option<T>>,
    present: usize,
}

// Not derived: the derive would demand `T: Default`.
impl<T> Default for BlockMap<T> {
    fn default() -> Self {
        BlockMap {
            slots: Vec::new(),
            present: 0,
        }
    }
}

impl<T> BlockMap<T> {
    /// Number of mapped lbns.
    pub fn len(&self) -> usize {
        self.present
    }

    /// `true` if no lbn is mapped.
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }

    /// The value at `lbn`, if any.
    pub fn get(&self, lbn: u64) -> Option<&T> {
        self.slots.get(lbn as usize)?.as_ref()
    }

    /// Mutable access to the value at `lbn`, if any.
    pub fn get_mut(&mut self, lbn: u64) -> Option<&mut T> {
        self.slots.get_mut(lbn as usize)?.as_mut()
    }

    /// Insert a value at `lbn`, returning the one it displaced.
    pub fn insert(&mut self, lbn: u64, value: T) -> Option<T> {
        let slot = self.slot_mut(lbn);
        let old = slot.replace(value);
        if old.is_none() {
            self.present += 1;
        }
        old
    }

    /// The value at `lbn`, inserting `make()` first if the slot is empty.
    pub fn get_or_insert_with(&mut self, lbn: u64, make: impl FnOnce() -> T) -> &mut T {
        if self.get(lbn).is_none() {
            self.insert(lbn, make());
        }
        self.get_mut(lbn).expect("just filled")
    }

    /// Remove and return the value at `lbn`.
    pub fn remove(&mut self, lbn: u64) -> Option<T> {
        let old = self.slots.get_mut(lbn as usize)?.take();
        if old.is_some() {
            self.present -= 1;
        }
        old
    }

    /// Drop every value for which `keep` returns `false`.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &mut T) -> bool) {
        for (lbn, slot) in self.slots.iter_mut().enumerate() {
            if let Some(value) = slot {
                if !keep(lbn as u64, value) {
                    *slot = None;
                    self.present -= 1;
                }
            }
        }
    }

    /// Iterate `(lbn, value)` in ascending lbn order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(lbn, slot)| slot.as_ref().map(|v| (lbn as u64, v)))
    }

    /// Iterate `(lbn, value)` mutably over `first..=last`, ascending.
    pub fn range_mut(&mut self, first: u64, last: u64) -> impl Iterator<Item = (u64, &mut T)> {
        let lo = (first as usize).min(self.slots.len());
        let hi = ((last as usize).saturating_add(1)).min(self.slots.len());
        self.slots[lo..hi]
            .iter_mut()
            .enumerate()
            .filter_map(move |(off, slot)| slot.as_mut().map(|v| ((lo + off) as u64, v)))
    }

    /// Iterate the values in ascending lbn order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    fn slot_mut(&mut self, lbn: u64) -> &mut Option<T> {
        let at = lbn as usize;
        if at >= self.slots.len() {
            self.slots.resize_with(at + 1, || None);
        }
        &mut self.slots[at]
    }
}

/// An in-memory inode with its block map and cached blocks.
#[derive(Clone, Debug)]
pub struct Inode {
    /// The inode number.
    pub ino: InodeNumber,
    /// Generation number; bumped each time the inode is reused so old file
    /// handles become stale.
    pub generation: u32,
    /// Regular file or directory.
    pub kind: FileKind,
    /// File size in bytes.
    pub size: u64,
    /// Permission bits.
    pub mode: u32,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
    /// Link count.
    pub nlink: u32,
    /// Last-modification time in simulation nanoseconds.
    pub mtime_nanos: u64,
    /// Last-access time in simulation nanoseconds.
    pub atime_nanos: u64,
    /// Inode-change time in simulation nanoseconds.
    pub ctime_nanos: u64,
    /// Block pointers (logical block index -> physical address).  The 12
    /// direct pointers are the map's first 12 slots; the slots from
    /// `NDADDR` on are the pointers the single indirect block holds.
    pub pointers: BlockMap<u64>,
    /// Physical address of the single indirect block, if allocated.
    pub indirect: Option<u64>,
    /// Directory entries (name -> inode), present only for directories.
    /// Names are refcounted, so the READDIR listing shares their bytes.
    pub entries: BTreeMap<Arc<str>, InodeNumber>,
    /// The READDIR listing of `entries`' names.  `None` until the
    /// directory's first readdir builds it; from then on every entry change
    /// updates it in place, and each reply holds a snapshot of it.
    pub listing: Option<DirListing>,
    /// Cached data blocks keyed by logical block index.
    pub blocks: BlockMap,
    /// `true` if the on-disk inode no longer matches this in-memory copy
    /// (size, block pointers or times changed).
    pub inode_dirty: bool,
    /// `true` if only the modification time differs from the on-disk inode —
    /// the case the reference port flushes asynchronously (§4.4).
    pub mtime_only_dirty: bool,
    /// `true` if the indirect block contents changed and must be rewritten.
    pub indirect_dirty: bool,
}

impl Inode {
    /// Create a fresh inode.
    pub fn new(
        ino: InodeNumber,
        generation: u32,
        kind: FileKind,
        mode: u32,
        now_nanos: u64,
    ) -> Self {
        Inode {
            ino,
            generation,
            kind,
            size: 0,
            mode,
            uid: 0,
            gid: 0,
            nlink: 1,
            mtime_nanos: now_nanos,
            atime_nanos: now_nanos,
            ctime_nanos: now_nanos,
            pointers: BlockMap::default(),
            indirect: None,
            entries: BTreeMap::new(),
            listing: None,
            blocks: BlockMap::default(),
            inode_dirty: true,
            mtime_only_dirty: false,
            indirect_dirty: false,
        }
    }

    /// Look up the physical address of logical block `lbn`, if mapped.
    pub fn block_addr(&self, lbn: u64) -> Option<u64> {
        self.pointers.get(lbn).copied()
    }

    /// Record a mapping from logical block `lbn` to physical address `phys`,
    /// returning `true` if the mapping lives in the indirect block (and thus
    /// dirties it) rather than in the inode proper.
    pub fn map_block(&mut self, lbn: u64, phys: u64) -> bool {
        self.pointers.insert(lbn, phys);
        Inode::needs_indirect(lbn)
    }

    /// Whether a logical block index requires the indirect block.
    pub fn needs_indirect(lbn: u64) -> bool {
        lbn as usize >= NDADDR
    }

    /// The highest logical block index representable with a single indirect
    /// block under the given geometry.
    pub fn max_lbn(params: &FsParams) -> u64 {
        NDADDR as u64 + params.pointers_per_block() - 1
    }

    /// Number of 512-byte sectors the file occupies (the `blocks` field of
    /// NFS attributes).
    pub fn sectors(&self) -> u64 {
        let mapped = self.pointers.len() as u64 + u64::from(self.indirect.is_some());
        mapped * 16 // 8 KB block = 16 sectors
    }

    /// `true` if any metadata (inode or indirect block) is dirty beyond a
    /// bare mtime update.
    pub fn has_dirty_metadata(&self) -> bool {
        (self.inode_dirty && !self.mtime_only_dirty) || self.indirect_dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pin the inode's footprint.  The filesystem boxes one `Inode` per
    /// live file, so a grown field is paid once per file: the fleet
    /// benchmark builds 8,393 of them before it runs.  The block pointers
    /// live on the heap and grow with the file; box a new large field
    /// (directory-only state, say) instead of raising this pin.
    #[test]
    fn inode_stays_within_its_pinned_footprint() {
        assert!(
            std::mem::size_of::<Inode>() <= 176,
            "Inode grew to {} bytes; box the large field",
            std::mem::size_of::<Inode>()
        );
    }

    #[test]
    fn direct_and_indirect_mapping() {
        let mut ino = Inode::new(5, 1, FileKind::Regular, 0o644, 0);
        assert_eq!(ino.block_addr(0), None);
        assert!(!ino.map_block(0, 64 * 1024 * 1024));
        assert_eq!(ino.block_addr(0), Some(64 * 1024 * 1024));
        // Block 12 is the first indirect-mapped block.
        assert!(Inode::needs_indirect(12));
        assert!(!Inode::needs_indirect(11));
        assert!(ino.map_block(12, 65 * 1024 * 1024));
        assert_eq!(ino.block_addr(12), Some(65 * 1024 * 1024));
    }

    #[test]
    fn max_file_size_with_single_indirect() {
        let p = FsParams::default();
        // 12 direct + 2048 indirect pointers of 8 KB blocks ≈ 16.1 MB.
        assert_eq!(Inode::max_lbn(&p), 12 + 2048 - 1);
        let max_bytes = (Inode::max_lbn(&p) + 1) * p.block_size;
        assert!(max_bytes > 16 * 1024 * 1024);
    }

    #[test]
    fn sectors_counts_mapped_blocks_and_indirect() {
        let mut ino = Inode::new(7, 1, FileKind::Regular, 0o644, 0);
        assert_eq!(ino.sectors(), 0);
        ino.map_block(0, 1000);
        ino.map_block(1, 2000);
        assert_eq!(ino.sectors(), 32);
        ino.indirect = Some(3000);
        ino.map_block(12, 4000);
        assert_eq!(ino.sectors(), 64);
    }

    #[test]
    fn dirty_tracking_helpers() {
        let mut ino = Inode::new(9, 1, FileKind::Regular, 0o644, 0);
        assert!(ino.has_dirty_metadata()); // freshly created inode is dirty
        ino.inode_dirty = false;
        assert!(!ino.has_dirty_metadata());
        ino.inode_dirty = true;
        ino.mtime_only_dirty = true;
        assert!(!ino.has_dirty_metadata()); // mtime-only changes may be async
        ino.indirect_dirty = true;
        assert!(ino.has_dirty_metadata());
    }

    #[test]
    fn block_data_fill_materialises_lazily() {
        let mut data = BlockData::Fill(7);
        let mut out = [0u8; 4];
        data.copy_range(100, &mut out);
        assert_eq!(out, [7u8; 4]);
        // Still a fill: copy_range must not materialise.
        assert_eq!(data, BlockData::Fill(7));
        let bytes = data.make_bytes(8192);
        assert_eq!(bytes.len(), 8192);
        bytes[0] = 1;
        let mut out = [0u8; 2];
        data.copy_range(0, &mut out);
        assert_eq!(out, [1, 7]);
    }

    #[test]
    fn make_bytes_unshares_a_block_held_by_a_reader() {
        let mut data = BlockData::Bytes(vec![5u8; 16].into());
        // A reader takes a refcounted view of the block.
        let reader = Arc::clone(data.shared_bytes().expect("materialised"));
        // A writer then mutates the block: the reader's snapshot must survive.
        let bytes = data.make_bytes(16);
        bytes[0] = 9;
        assert_eq!(reader[0], 5, "reader's shared view was mutated in place");
        match &data {
            BlockData::Bytes(now) => {
                assert!(!Arc::ptr_eq(now, &reader), "write did not un-share");
                assert_eq!(now[0], 9);
            }
            other => panic!("unexpected {other:?}"),
        }
        // With no outstanding reader the next write mutates in place.
        let before = match &data {
            BlockData::Bytes(arc) => Arc::as_ptr(arc),
            _ => unreachable!(),
        };
        data.make_bytes(16)[1] = 8;
        match &data {
            BlockData::Bytes(now) => assert_eq!(Arc::as_ptr(now), before),
            other => panic!("unexpected {other:?}"),
        }
        assert!(BlockData::Fill(3).shared_bytes().is_none());
    }

    #[test]
    fn new_directory_has_empty_entries() {
        let d = Inode::new(2, 1, FileKind::Directory, 0o755, 42);
        assert_eq!(d.kind, FileKind::Directory);
        assert!(d.entries.is_empty());
        assert_eq!(d.mtime_nanos, 42);
    }
}
