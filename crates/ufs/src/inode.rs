//! In-memory inodes.
//!
//! The quantities that matter to the paper are which *disk blocks* a write
//! dirties: the data block itself, the block holding the inode, and possibly
//! an indirect block.  [`Inode`] therefore tracks the FFS block map together
//! with dirty flags for the inode and the indirect block, which is exactly
//! the metadata a `VOP_FSYNC(FWRITE_METADATA)` must flush.  The block map is
//! one dense map from logical block to physical block number: its first 12
//! slots are the inode's direct pointers, and the rest are the pointers its
//! single indirect block holds.

use crate::params::{BLOCK_SIZE, POINTERS_PER_BLOCK};
use std::collections::BTreeMap;
use std::num::NonZeroU32;
use std::sync::Arc;
use wg_nfsproto::{DirListing, Payload};

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

/// One file block the filesystem knows the contents of: its contents,
/// whether it is dirty (written but not yet flushed to the disk) and whether
/// it is resident in memory.  Its disk address is the inode's pointer for
/// the same lbn ([`Inode::pointers`]): a block is cached only once mapped.
///
/// The contents are a [`Payload`]: a whole-block fill write (the synthetic
/// workloads' case) stays an 8-byte pattern, and real bytes sit behind an
/// `Arc` that a READ shares instead of copying.  A later partial write
/// un-shares them first (see [`Payload::write_at`]), so readers keep the
/// snapshot they were given.
#[derive(Clone, Debug)]
pub struct CachedBlock {
    /// Block contents, always exactly one filesystem block long.
    pub data: Payload,
    /// `true` if the cached contents have not been written to the device.
    pub dirty: bool,
    /// `false` once the bounded cache evicted the (clean) page: its contents
    /// live on only on the disk, so the next read of it pays a disk read.
    pub resident: bool,
}

/// The byte address of physical block number `block`.
pub(crate) fn block_address(block: NonZeroU32) -> u64 {
    u64::from(block.get()) * BLOCK_SIZE
}

/// A dense map keyed by logical block index (lbn).
///
/// A file addressable through one single-indirect block spans at most
/// `Inode::MAX_LBN + 1` (2,060) logical blocks, so the map is a slot vector
/// indexed by lbn: every lookup on the write datapath is one bounds check
/// and one `Option` discriminant away from its value, where a `BTreeMap`
/// costs a pointer chase per tree level.
/// Iteration walks the slots in index order, so every traversal is
/// ascending-lbn: flush order and free order, and with them the simulated
/// event order, follow from it.  An inode keeps two: its cached blocks (the
/// default, [`CachedBlock`]) and its block pointers (block numbers).
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
    /// Block pointers (logical block index -> physical block number), 4
    /// bytes each as in FFS.  The 12 direct pointers are the map's first 12
    /// slots; the slots from `NDADDR` on are the pointers the single
    /// indirect block holds.  No block number is 0: the data region starts
    /// at block 8,192.
    pub pointers: BlockMap<NonZeroU32>,
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
        self.pointers.get(lbn).map(|&block| block_address(block))
    }

    /// Record a mapping from logical block `lbn` to physical address `phys`,
    /// returning `true` if the mapping lives in the indirect block (and thus
    /// dirties it) rather than in the inode proper.
    ///
    /// Panics unless `phys` is a block address past block 0 whose number
    /// fits a 4-byte pointer, as every block the allocator hands out is.
    pub fn map_block(&mut self, lbn: u64, phys: u64) -> bool {
        assert_eq!(phys % BLOCK_SIZE, 0, "{phys} is not a block address");
        let block = u32::try_from(phys / BLOCK_SIZE)
            .ok()
            .and_then(NonZeroU32::new);
        let block = block.unwrap_or_else(|| panic!("{phys} has no 4-byte block number"));
        self.pointers.insert(lbn, block);
        Inode::needs_indirect(lbn)
    }

    /// Whether a logical block index requires the indirect block.
    pub fn needs_indirect(lbn: u64) -> bool {
        lbn as usize >= NDADDR
    }

    /// The highest logical block index representable with a single indirect
    /// block.
    pub const MAX_LBN: u64 = NDADDR as u64 + POINTERS_PER_BLOCK - 1;

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

    /// Pin a cached block's footprint: one per block a file holds in the
    /// cache, which a 10 MB copy fills with 1,280 of them.  The block's disk
    /// address lives in the inode's pointer map, not here.
    #[test]
    fn cached_block_stays_within_its_pinned_footprint() {
        assert!(
            std::mem::size_of::<CachedBlock>() <= 24,
            "CachedBlock grew to {} bytes",
            std::mem::size_of::<CachedBlock>()
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
        // 12 direct + 2048 indirect pointers of 8 KB blocks ≈ 16.1 MB.
        assert_eq!(Inode::MAX_LBN, 12 + 2048 - 1);
        let max_bytes = (Inode::MAX_LBN + 1) * crate::params::BLOCK_SIZE;
        assert!(max_bytes > 16 * 1024 * 1024);
    }

    #[test]
    fn sectors_counts_mapped_blocks_and_indirect() {
        let mut ino = Inode::new(7, 1, FileKind::Regular, 0o644, 0);
        assert_eq!(ino.sectors(), 0);
        let data = |k: u64| crate::params::DATA_REGION_START + k * BLOCK_SIZE;
        ino.map_block(0, data(0));
        ino.map_block(1, data(1));
        assert_eq!(ino.sectors(), 32);
        ino.indirect = Some(data(2));
        ino.map_block(12, data(3));
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
    fn new_directory_has_empty_entries() {
        let d = Inode::new(2, 1, FileKind::Directory, 0o755, 42);
        assert_eq!(d.kind, FileKind::Directory);
        assert!(d.entries.is_empty());
        assert_eq!(d.mtime_nanos, 42);
    }
}
