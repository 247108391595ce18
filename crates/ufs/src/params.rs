//! Filesystem geometry and policy parameters.
//!
//! The geometry is the one the paper's experiments assume: 8 KB blocks,
//! clustering of contiguous writes into transfers of up to 64 KB, and an
//! inode region separated from the data region so metadata updates pay a
//! seek.  Only the capacity, the inode layout and the cache policy vary
//! between configurations, so only they are [`FsParams`] fields.

/// Filesystem block size in bytes (the unit of allocation and of client
/// writes; NFS v2 clients emit one write per 8 KB block).
pub const BLOCK_SIZE: u64 = 8192;

/// Largest clustered transfer the filesystem builds (the McVoy/Kleiman
/// extension; 64 KB in the paper).
pub const CLUSTER_SIZE: u64 = 64 * 1024;

/// Bytes each on-disk inode occupies (128 in FFS).
pub const INODE_SIZE: u64 = 128;

/// Disk byte address where the inode region starts.
pub const INODE_REGION_START: u64 = 16 * 1024 * 1024;

/// Disk byte address where the data region starts.
pub const DATA_REGION_START: u64 = 64 * 1024 * 1024;

/// Number of inodes that share one filesystem block (and therefore one
/// inode-block disk write).
pub const INODES_PER_BLOCK: u64 = BLOCK_SIZE / INODE_SIZE;

/// Number of block pointers an indirect block holds (4-byte pointers).
pub const POINTERS_PER_BLOCK: u64 = BLOCK_SIZE / 4;

/// Capacity and policy of one filesystem instance.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct FsParams {
    /// Usable capacity of the data region in bytes.
    pub data_capacity: u64,
    /// Whether blocks fetched from disk by reads stay resident in the buffer
    /// cache.
    ///
    /// `false` (the default) reproduces the cold-cache behaviour the paper's
    /// figures measure: every read of an uncached block pays a disk trip,
    /// even if the same block was read a nanosecond earlier.  Real UFS keeps
    /// read blocks in the buffer cache; scaled-out configurations turn this
    /// on so a bounded working set stops re-reading the same blocks from a
    /// saturated disk farm.
    pub read_caching: bool,
    /// Capacity of the unified buffer cache in pages (filesystem blocks).
    ///
    /// `0` (the default) leaves the cache unbounded — the paper-identical
    /// behaviour every golden table pins: blocks stay resident forever and no
    /// accounting is done at all.  A non-zero value arms the bounded unified
    /// cache: resident pages are tracked in LRU order, clean pages are
    /// evicted when residency exceeds the capacity, and dirty pages are
    /// subject to the [`FsParams::dirty_ratio`] writeback throttle.
    pub cache_pages: u64,
    /// Fraction of [`FsParams::cache_pages`] that may be dirty before a
    /// writer is throttled into a forced inline writeback (CAWL-style
    /// dirty-ratio control).  Only meaningful when `cache_pages > 0`.
    pub dirty_ratio: f64,
    /// Number of FFS-style inode groups the inode region is divided into.
    ///
    /// `1` (the default) is the flat layout the paper's single-disk server
    /// implies: consecutive inodes share consecutive inode blocks, so a
    /// working set of a few hundred files keeps all its inode writes inside
    /// one or two 8 KB blocks — which, behind a striping driver, all map to
    /// *one* stripe unit on *one* member spindle.  Real UFS spreads inodes
    /// across cylinder groups; with `inode_groups > 1` consecutive inodes
    /// rotate across groups spaced [`FsParams::INODE_GROUP_SPAN`] apart, so a
    /// hot working set's metadata writes spread across every member of a
    /// stripe set instead of hammering one.
    pub inode_groups: u64,
}

impl Default for FsParams {
    fn default() -> Self {
        FsParams {
            // Leave room for ~900 MB of data on the 1.05 GB RZ26.
            data_capacity: 900 * 1024 * 1024,
            read_caching: false,
            cache_pages: 0,
            dirty_ratio: 0.5,
            inode_groups: 1,
        }
    }
}

impl FsParams {
    /// Distance between the starts of two consecutive inode groups: seven
    /// stripe units.  Being coprime to every stripe width up to 13 (other
    /// than 7), consecutive groups walk all members of a stripe set instead
    /// of aliasing onto a subset.
    pub const INODE_GROUP_SPAN: u64 = 7 * wg_disk::STRIPE_UNIT;

    /// The disk address of the block containing inode `ino`.
    ///
    /// With a single inode group this is the flat layout
    /// `INODE_REGION_START + (ino / INODES_PER_BLOCK) * BLOCK_SIZE`; with
    /// more, inode `ino` lives in group `ino % inode_groups` at span-sized
    /// strides (see [`FsParams::inode_groups`]).
    pub fn inode_block_addr(&self, ino: u64) -> u64 {
        let groups = self.inode_groups.max(1);
        let group = ino % groups;
        let slot = ino / groups;
        let block_offset = (slot / INODES_PER_BLOCK) * BLOCK_SIZE;
        // A group's slots must stay inside its span: letting them run into
        // the next group's range would silently alias two different inodes
        // onto one disk address, defeating the spreading this layout models.
        assert!(
            groups == 1 || block_offset < Self::INODE_GROUP_SPAN,
            "inode {ino} overflows its group: {groups} groups hold {} inodes \
             each; raise inode_groups or shrink the working set",
            (Self::INODE_GROUP_SPAN / BLOCK_SIZE) * INODES_PER_BLOCK
        );
        let addr = INODE_REGION_START + group * Self::INODE_GROUP_SPAN + block_offset;
        // Hard assert (any caller may set the public group count, and
        // release builds strip debug_asserts): an inode block past the data
        // region start would alias onto addresses the data allocator hands
        // out, silently corrupting every seek-distance result.
        assert!(
            addr < DATA_REGION_START || groups == 1,
            "inode {ino} overflows the inode region: {groups} groups need \
             {} bytes but only {} are reserved; lower inode_groups",
            groups * Self::INODE_GROUP_SPAN,
            DATA_REGION_START - INODE_REGION_START
        );
        addr
    }

    /// The number of dirty pages the cache tolerates before throttling
    /// writers, derived from `cache_pages * dirty_ratio` and clamped to
    /// `[1, cache_pages]`.  Meaningless (returns `u64::MAX`) when the cache
    /// is unbounded.
    pub fn dirty_page_threshold(&self) -> u64 {
        if self.cache_pages == 0 {
            return u64::MAX;
        }
        let raw = (self.cache_pages as f64 * self.dirty_ratio) as u64;
        raw.clamp(1, self.cache_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        assert_eq!(INODES_PER_BLOCK, 64);
        assert_eq!(POINTERS_PER_BLOCK, 2048);
    }

    #[test]
    fn inode_blocks_are_shared_between_adjacent_inodes() {
        let p = FsParams::default();
        assert_eq!(p.inode_block_addr(0), p.inode_block_addr(63));
        assert_ne!(p.inode_block_addr(63), p.inode_block_addr(64));
        assert_eq!(p.inode_block_addr(64) - p.inode_block_addr(0), BLOCK_SIZE);
    }

    #[test]
    fn inode_groups_spread_consecutive_inodes_across_stripe_members() {
        let flat = FsParams::default();
        let grouped = FsParams {
            inode_groups: 64,
            ..FsParams::default()
        };
        // Group 0 keeps the flat layout's first block.
        assert_eq!(grouped.inode_block_addr(0), flat.inode_block_addr(0));
        // Consecutive inodes land one group span apart instead of sharing a
        // block...
        assert_eq!(
            grouped.inode_block_addr(1) - grouped.inode_block_addr(0),
            FsParams::INODE_GROUP_SPAN
        );
        // ...and therefore on different members of any stripe (6-wide here).
        let stripe_unit = wg_disk::STRIPE_UNIT;
        let member = |ino: u64| (grouped.inode_block_addr(ino) / stripe_unit) % 6;
        let members: std::collections::BTreeSet<u64> = (0..64).map(member).collect();
        assert_eq!(members.len(), 6, "all six members carry inode blocks");
        // The flat layout pins a whole working set onto one member.
        let flat_member = |ino: u64| (flat.inode_block_addr(ino) / stripe_unit) % 6;
        let flat_members: std::collections::BTreeSet<u64> = (0..64).map(flat_member).collect();
        assert_eq!(flat_members.len(), 1);
        // A group's slots stay inside the inode region.
        assert!(grouped.inode_block_addr(64 * 63 + 63) < DATA_REGION_START);
    }

    #[test]
    fn dirty_threshold_clamps_and_defaults_unbounded() {
        let p = FsParams::default();
        assert_eq!(p.cache_pages, 0, "default cache is unbounded");
        assert_eq!(p.dirty_page_threshold(), u64::MAX);
        let bounded = FsParams {
            cache_pages: 100,
            dirty_ratio: 0.5,
            ..FsParams::default()
        };
        assert_eq!(bounded.dirty_page_threshold(), 50);
        let tiny = FsParams {
            cache_pages: 4,
            dirty_ratio: 0.0,
            ..FsParams::default()
        };
        assert_eq!(tiny.dirty_page_threshold(), 1, "threshold floors at 1");
        let over = FsParams {
            cache_pages: 4,
            dirty_ratio: 9.0,
            ..FsParams::default()
        };
        assert_eq!(over.dirty_page_threshold(), 4, "threshold caps at capacity");
    }

    #[test]
    fn regions_do_not_overlap() {
        // The flat layout's inode blocks fill the inode region from its
        // start, and every inode the region holds lies below the data.
        let p = FsParams::default();
        assert_eq!(p.inode_block_addr(0), INODE_REGION_START);
        let fit = (DATA_REGION_START - INODE_REGION_START) / BLOCK_SIZE * INODES_PER_BLOCK;
        assert!(p.inode_block_addr(fit - 1) + BLOCK_SIZE <= DATA_REGION_START);
    }
}
