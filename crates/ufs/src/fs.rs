//! The filesystem proper: allocation, namespace, buffer cache and the
//! vnode operations.

use std::collections::BTreeMap;
use std::sync::Arc;
use wg_nfsproto::{DirListing, Payload};
use wg_simcore::FxHashMap;

use wg_disk::DiskRequest;

use crate::cluster::cluster_requests;
use crate::error::FsError;
use crate::inode::{block_address, CachedBlock, FileKind, Inode, InodeNumber};
use crate::params::{FsParams, BLOCK_SIZE, DATA_REGION_START};
use crate::vnode::{FsyncFlags, IoPlan, ReadOutcome, WriteFlags, WriteOutcome};

/// Maximum file-name length accepted (the NFS v2 limit).
pub const MAX_NAME_LEN: usize = 255;

/// The inode number of the root directory (2, as in FFS).
pub const ROOT_INO: InodeNumber = 2;

/// A snapshot of an inode's externally visible attributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FileAttributes {
    /// Inode number.
    pub ino: InodeNumber,
    /// Generation (for stale-handle detection).
    pub generation: u32,
    /// File or directory.
    pub kind: FileKind,
    /// Size in bytes.
    pub size: u64,
    /// Mode bits.
    pub mode: u32,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
    /// Link count.
    pub nlink: u32,
    /// 512-byte sectors occupied.
    pub sectors: u64,
    /// Modification time (simulation nanoseconds).
    pub mtime_nanos: u64,
    /// Access time (simulation nanoseconds).
    pub atime_nanos: u64,
    /// Change time (simulation nanoseconds).
    pub ctime_nanos: u64,
}

/// Cumulative counters of `VOP_READ` calls and of the unified cache's
/// evictions, throttle stalls and write-behind, for tests and metric
/// snapshots.  The server charges each filesystem trip's CPU cost from its
/// own cost table, not from these.
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct UfsCounters {
    /// `VOP_READ` calls.
    pub reads: u64,
    /// Clean pages evicted by the bounded unified cache (0 while the cache is
    /// unbounded).
    pub cache_evictions: u64,
    /// Times a writer was forced into an inline writeback because the dirty
    /// ratio crossed the configured threshold.
    pub throttle_stalls: u64,
    /// Dirty pages cleaned through [`Ufs::writeback_batch`] — the unified
    /// cache's write-behind path (both background and throttle-forced).
    pub writeback_blocks: u64,
}

/// A UFS-like filesystem instance.
#[derive(Clone, Debug)]
pub struct Ufs {
    params: FsParams,
    fsid: u32,
    /// Every inode, indexed by its number.  A number is minted as the
    /// table's length and never reused, so the table is dense: numbers 0
    /// and 1 and each removed file leave an 8-byte `None`.  Inodes are
    /// boxed, so growing the table moves pointers, not inodes.
    inodes: Vec<Option<Box<Inode>>>,
    generation_counter: u32,
    /// Next unallocated offset within the data region, in bytes.
    alloc_cursor: u64,
    /// Physical addresses of freed blocks available for reuse.
    free_blocks: Vec<u64>,
    counters: UfsCounters,
    /// Unified-cache LRU order: monotone tick -> resident page.  Empty (and
    /// never touched) while `params.cache_pages == 0`, so the unbounded
    /// default pays no bookkeeping at all.
    lru: BTreeMap<u64, (InodeNumber, u64)>,
    /// Reverse index of `lru`: resident page -> its current tick.
    lru_index: FxHashMap<(InodeNumber, u64), u64>,
    /// Next LRU tick (deterministic recency stamp; no wall clock involved).
    lru_tick: u64,
    /// Number of resident pages currently dirty (tracked incrementally so the
    /// dirty-ratio throttle is O(1) per write).
    cache_dirty: u64,
}

impl Ufs {
    /// Create a filesystem with the given geometry; the root directory exists
    /// as inode [`ROOT_INO`].
    pub fn new(fsid: u32, params: FsParams) -> Self {
        let root = Inode::new(ROOT_INO, 1, FileKind::Directory, 0o755, 0);
        let mut inodes = vec![None; ROOT_INO as usize];
        inodes.push(Some(Box::new(root)));
        Ufs {
            params,
            fsid,
            inodes,
            generation_counter: 1,
            alloc_cursor: 0,
            free_blocks: Vec::new(),
            counters: UfsCounters::default(),
            lru: BTreeMap::new(),
            lru_index: FxHashMap::default(),
            lru_tick: 0,
            cache_dirty: 0,
        }
    }

    /// A filesystem with default geometry.
    pub fn with_defaults(fsid: u32) -> Self {
        Ufs::new(fsid, FsParams::default())
    }

    /// The filesystem id used in file handles and attributes.
    pub fn fsid(&self) -> u32 {
        self.fsid
    }

    /// The geometry/policy parameters.
    pub fn params(&self) -> &FsParams {
        &self.params
    }

    /// The root directory inode number.
    pub fn root(&self) -> InodeNumber {
        ROOT_INO
    }

    /// Operation counters.
    pub fn counters(&self) -> UfsCounters {
        self.counters
    }

    /// Free data blocks remaining (approximate, for STATFS).
    pub fn free_block_count(&self) -> u64 {
        let used = self.alloc_cursor / BLOCK_SIZE - self.free_blocks.len() as u64;
        self.total_block_count().saturating_sub(used)
    }

    /// Total data blocks in the filesystem (for STATFS).
    pub fn total_block_count(&self) -> u64 {
        self.params.data_capacity / BLOCK_SIZE
    }

    /// The live inode numbered `ino`.  Numbers arrive in client file
    /// handles, so any `u64` can: 0, 1, one past the newest inode,
    /// `u64::MAX` and a removed file's number all find no inode.
    fn inode(&self, ino: InodeNumber) -> Result<&Inode, FsError> {
        let i = usize::try_from(ino).map_err(|_| FsError::StaleInode)?;
        let slot = self.inodes.get(i).and_then(Option::as_deref);
        slot.ok_or(FsError::StaleInode)
    }

    fn inode_mut(&mut self, ino: InodeNumber) -> Result<&mut Inode, FsError> {
        let i = usize::try_from(ino).map_err(|_| FsError::StaleInode)?;
        let slot = self.inodes.get_mut(i).and_then(Option::as_deref_mut);
        slot.ok_or(FsError::StaleInode)
    }

    /// The generation number of a live inode (stale-handle checks compare
    /// against the generation packed in the client's file handle).
    pub fn generation_of(&self, ino: InodeNumber) -> Result<u32, FsError> {
        Ok(self.inode(ino)?.generation)
    }

    /// A free block's address: the last one freed, or the next one the
    /// cursor reaches.  A block whose number would not fit an inode's 4-byte
    /// pointer is out of space, as past FFS's 32-bit `daddr_t`.
    fn allocate_block(&mut self) -> Result<u64, FsError> {
        if let Some(addr) = self.free_blocks.pop() {
            return Ok(addr);
        }
        let addr = DATA_REGION_START + self.alloc_cursor;
        if self.alloc_cursor + BLOCK_SIZE > self.params.data_capacity
            || addr / BLOCK_SIZE > u64::from(u32::MAX)
        {
            return Err(FsError::NoSpace);
        }
        self.alloc_cursor += BLOCK_SIZE;
        Ok(addr)
    }

    // ------------------------------------------------------------------
    // Unified buffer cache
    //
    // One bounded pool accounts for every resident file page — pages made
    // resident by writes and pages kept resident by read caching alike.
    // Armed by `params.cache_pages > 0`; the unbounded default (the paper's
    // configuration) skips every hook below.
    // ------------------------------------------------------------------

    /// Whether the bounded unified cache (and with it the dirty-ratio
    /// throttle and write-behind) is armed.
    pub fn cache_armed(&self) -> bool {
        self.params.cache_pages > 0
    }

    /// Move `(ino, lbn)` to the most-recently-used end of the LRU order,
    /// inserting it if it was not yet tracked.
    fn cache_touch(&mut self, ino: InodeNumber, lbn: u64) {
        let key = (ino, lbn);
        if let Some(old) = self.lru_index.get(&key).copied() {
            self.lru.remove(&old);
        }
        self.lru_tick += 1;
        self.lru.insert(self.lru_tick, key);
        self.lru_index.insert(key, self.lru_tick);
    }

    /// Drop `(ino, lbn)` from the accounting (the page is no longer
    /// resident).  `was_dirty` keeps the incremental dirty count honest.
    fn cache_forget(&mut self, ino: InodeNumber, lbn: u64, was_dirty: bool) {
        if let Some(tick) = self.lru_index.remove(&(ino, lbn)) {
            self.lru.remove(&tick);
            if was_dirty {
                self.cache_dirty -= 1;
            }
        }
    }

    /// Evict clean pages in LRU order until residency fits `cache_pages`.
    /// Dirty pages are skipped — they are cleaned by writeback, never
    /// discarded.  An evicted page leaves memory, not the file: its contents
    /// are on the disk, and the next read of it pays a disk read for them.
    fn cache_evict_clean(&mut self) {
        let capacity = self.params.cache_pages;
        if self.lru_index.len() as u64 <= capacity {
            return;
        }
        let mut over = self.lru_index.len() as u64 - capacity;
        let mut to_evict = Vec::new();
        for (&tick, &(ino, lbn)) in self.lru.iter() {
            if over == 0 {
                break;
            }
            if !self.block_is_dirty(ino, lbn) {
                to_evict.push((tick, ino, lbn));
                over -= 1;
            }
        }
        for (tick, ino, lbn) in to_evict {
            if let Some(block) = self.block_mut(ino, lbn) {
                block.resident = false;
            }
            self.lru.remove(&tick);
            self.lru_index.remove(&(ino, lbn));
            self.counters.cache_evictions += 1;
        }
    }

    /// Clean up to `max_blocks` of the oldest dirty resident pages and return
    /// the clustered disk writes that make them stable.  This is the unified
    /// cache's write-behind path: the server's background writeback events
    /// and the dirty-ratio throttle both drain through here.  The pages stay
    /// resident (now clean, hence evictable).
    pub fn writeback_batch(&mut self, max_blocks: u64) -> Vec<DiskRequest> {
        if !self.cache_armed() || max_blocks == 0 {
            return Vec::new();
        }
        let mut picked: Vec<(InodeNumber, u64)> = Vec::new();
        for &(ino, lbn) in self.lru.values() {
            if picked.len() as u64 >= max_blocks {
                break;
            }
            if self.block_is_dirty(ino, lbn) {
                picked.push((ino, lbn));
            }
        }
        let mut extents = Vec::new();
        for (ino, lbn) in picked {
            let Ok(n) = self.inode_mut(ino) else { continue };
            if let Some(block) = n.blocks.get_mut(lbn) {
                block.dirty = false;
                let number = n.pointers.get(lbn).expect("a cached block is mapped");
                extents.push((block_address(*number), BLOCK_SIZE));
            }
        }
        self.cache_dirty -= extents.len() as u64;
        self.counters.writeback_blocks += extents.len() as u64;
        extents.sort_unstable();
        cluster_requests(extents)
    }

    /// Enforce the dirty-ratio throttle and the residency bound after a
    /// mutation.  Returns the forced-writeback requests the caller must issue
    /// synchronously (empty unless the dirty threshold was crossed).
    fn cache_enforce(&mut self) -> Vec<DiskRequest> {
        let mut forced = Vec::new();
        let threshold = self.params.dirty_page_threshold();
        if self.cache_dirty > threshold {
            forced = self.writeback_batch(self.cache_dirty - threshold);
            self.counters.throttle_stalls += 1;
        }
        self.cache_evict_clean();
        forced
    }

    /// Resident pages currently tracked by the unified cache (0 while
    /// unbounded — the default does no accounting).
    #[cfg(test)]
    fn resident_pages(&self) -> u64 {
        self.lru_index.len() as u64
    }

    /// Dirty resident pages as tracked by the unified cache accounting.
    pub fn dirty_resident_pages(&self) -> u64 {
        self.cache_dirty
    }

    // ------------------------------------------------------------------
    // Namespace operations
    // ------------------------------------------------------------------

    /// Look up `name` in directory `dir`.
    pub fn lookup(&mut self, dir: InodeNumber, name: &str) -> Result<InodeNumber, FsError> {
        let d = self.inode(dir)?;
        if d.kind != FileKind::Directory {
            return Err(FsError::NotADirectory);
        }
        d.entries.get(name).copied().ok_or(FsError::NotFound)
    }

    /// Create a regular file.  Returns the new inode number.
    pub fn create(
        &mut self,
        dir: InodeNumber,
        name: &str,
        mode: u32,
        now_nanos: u64,
    ) -> Result<InodeNumber, FsError> {
        if name.is_empty() || name.len() > MAX_NAME_LEN {
            return Err(FsError::NameTooLong);
        }
        {
            let d = self.inode(dir)?;
            if d.kind != FileKind::Directory {
                return Err(FsError::NotADirectory);
            }
            if d.entries.contains_key(name) {
                return Err(FsError::Exists);
            }
        }
        let ino = self.inodes.len() as InodeNumber;
        self.generation_counter += 1;
        let generation = self.generation_counter;
        let node = Inode::new(ino, generation, FileKind::Regular, mode, now_nanos);
        self.inodes.push(Some(Box::new(node)));
        let d = self.inode_mut(dir)?;
        let name: Arc<str> = Arc::from(name);
        if let Some(listing) = &mut d.listing {
            listing.insert(Arc::clone(&name));
        }
        d.entries.insert(name, ino);
        d.mtime_nanos = now_nanos;
        d.inode_dirty = true;
        d.mtime_only_dirty = false;
        Ok(ino)
    }

    /// Remove a file.  The freed inode's blocks return to the allocator and
    /// later handles to it become stale.
    pub fn remove(&mut self, dir: InodeNumber, name: &str, now_nanos: u64) -> Result<(), FsError> {
        let target = {
            let d = self.inode(dir)?;
            if d.kind != FileKind::Directory {
                return Err(FsError::NotADirectory);
            }
            *d.entries.get(name).ok_or(FsError::NotFound)?
        };
        // Free the target's blocks: ascending lbn, then the indirect block.
        if let Some(t) = self.inodes[target as usize].take() {
            self.free_blocks
                .extend(t.pointers.values().map(|&block| block_address(block)));
            self.free_blocks.extend(t.indirect);
            if self.cache_armed() {
                for (lbn, b) in t.blocks.iter() {
                    self.cache_forget(target, lbn, b.dirty);
                }
            }
        }
        let d = self.inode_mut(dir)?;
        d.entries.remove(name);
        if let Some(listing) = &mut d.listing {
            listing.remove(name);
        }
        d.mtime_nanos = now_nanos;
        d.inode_dirty = true;
        d.mtime_only_dirty = false;
        Ok(())
    }

    /// List the names in a directory, as an O(1) snapshot.
    ///
    /// The directory's first readdir builds its [`DirListing`] in one pass
    /// over the entries; creates and removes then keep it current, so each
    /// later readdir is a reference-count bump and each change copies only
    /// the part a snapshot still shares.  The proto layer's READDIR reply
    /// (and the duplicate request cache behind it) carries the snapshot
    /// onward without copying names.  Building at first readdir rather than
    /// at create keeps directories nobody lists free of the cost.
    pub fn readdir(&mut self, dir: InodeNumber) -> Result<DirListing, FsError> {
        let d = self.inode_mut(dir)?;
        if d.kind != FileKind::Directory {
            return Err(FsError::NotADirectory);
        }
        let listing = d.listing.get_or_insert_with(|| {
            DirListing::from_sorted(d.entries.keys().cloned()).expect("map keys are sorted")
        });
        Ok(listing.clone())
    }

    /// Attributes of an inode.
    pub fn getattr(&self, ino: InodeNumber) -> Result<FileAttributes, FsError> {
        let n = self.inode(ino)?;
        Ok(FileAttributes {
            ino: n.ino,
            generation: n.generation,
            kind: n.kind,
            size: n.size,
            mode: n.mode,
            uid: n.uid,
            gid: n.gid,
            nlink: n.nlink,
            sectors: n.sectors(),
            mtime_nanos: n.mtime_nanos,
            atime_nanos: n.atime_nanos,
            ctime_nanos: n.ctime_nanos,
        })
    }

    /// Change attributes: mode and/or truncation to a new size.  Returns the
    /// new attributes plus the metadata I/O needed to make the change stable.
    pub fn setattr(
        &mut self,
        ino: InodeNumber,
        new_mode: Option<u32>,
        new_size: Option<u64>,
        now_nanos: u64,
    ) -> Result<(FileAttributes, IoPlan), FsError> {
        let mut freed: Vec<u64> = Vec::new();
        let mut dropped: Vec<(u64, bool)> = Vec::new();
        {
            let n = self.inode_mut(ino)?;
            if let Some(mode) = new_mode {
                n.mode = mode;
                n.inode_dirty = true;
                n.mtime_only_dirty = false;
            }
            if let Some(size) = new_size {
                if size < n.size {
                    // Truncate: drop blocks wholly beyond the new size.
                    let keep_blocks = size.div_ceil(BLOCK_SIZE);
                    for lbn in keep_blocks..=Inode::MAX_LBN {
                        if let Some(block) = n.pointers.remove(lbn) {
                            freed.push(block_address(block));
                            n.indirect_dirty |= Inode::needs_indirect(lbn);
                            if let Some(b) = n.blocks.remove(lbn) {
                                dropped.push((lbn, b.dirty));
                            }
                        }
                    }
                }
                n.size = size;
                n.inode_dirty = true;
                n.mtime_only_dirty = false;
                n.mtime_nanos = now_nanos;
            }
            n.ctime_nanos = now_nanos;
        }
        self.free_blocks.extend(freed);
        if self.cache_armed() {
            for (lbn, was_dirty) in dropped {
                self.cache_forget(ino, lbn, was_dirty);
            }
        }
        let plan = self.fsync(ino, FsyncFlags::MetadataOnly)?;
        Ok((self.getattr(ino)?, plan))
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    /// `VOP_WRITE`: copy the source bytes into the file at `offset`,
    /// allocating blocks as needed, and return the I/O the chosen flags
    /// require.
    ///
    /// The source is anything convertible to a [`Payload`]: a payload
    /// (shared, not copied) or borrowed bytes (copied once).  Each block's
    /// part of it is stored with [`Payload::write_at`], so a whole-block fill
    /// is stored as the pattern — the zero-copy path the simulated workloads
    /// take for every write — and a block-aligned, block-sized shared
    /// payload as the writer's buffer.
    pub fn write(
        &mut self,
        ino: InodeNumber,
        offset: u64,
        data: impl Into<Payload>,
        flags: WriteFlags,
        now_nanos: u64,
    ) -> Result<WriteOutcome, FsError> {
        let data = data.into();
        let cache_armed = self.cache_armed();
        let data_len = data.len() as u64;

        // Validate and plan allocations first (so ENOSPC leaves no partial
        // allocation behind for the common whole-block case).
        {
            let n = self.inode(ino)?;
            if n.kind != FileKind::Regular {
                return Err(FsError::IsADirectory);
            }
            if data.is_empty() {
                return Ok(WriteOutcome {
                    io: IoPlan::empty(),
                });
            }
            let last_lbn = (offset + data_len - 1) / BLOCK_SIZE;
            if last_lbn > Inode::MAX_LBN {
                return Err(FsError::FileTooLarge);
            }
        }

        let first_lbn = offset / BLOCK_SIZE;
        let last_lbn = (offset + data_len - 1) / BLOCK_SIZE;

        let mut allocated = false;

        // Allocate the indirect block first if this write is the first to
        // need it.
        let needs_indirect = Inode::needs_indirect(last_lbn);
        if needs_indirect && self.inode(ino)?.indirect.is_none() {
            let addr = self.allocate_block()?;
            let n = self.inode_mut(ino)?;
            n.indirect = Some(addr);
            n.indirect_dirty = true;
            allocated = true;
        }

        for lbn in first_lbn..=last_lbn {
            // Ensure the block is mapped.
            if self.inode(ino)?.block_addr(lbn).is_none() {
                let p = self.allocate_block()?;
                let n = self.inode_mut(ino)?;
                if n.map_block(lbn, p) {
                    n.indirect_dirty = true;
                }
                allocated = true;
            }

            // Store this block's part of the data.
            let block_start = lbn * BLOCK_SIZE;
            let from = offset.max(block_start);
            let to = (offset + data_len).min(block_start + BLOCK_SIZE);
            let piece = data.slice((from - offset) as usize..(to - offset) as usize);
            let n = self.inode_mut(ino)?;
            let block = n.blocks.get_or_insert_with(lbn, || CachedBlock {
                data: Payload::fill(0, BLOCK_SIZE as u32),
                dirty: false,
                resident: true,
            });
            let was_dirty = block.dirty;
            block.data.write_at((from - block_start) as usize, piece);
            block.dirty = true;
            block.resident = true;
            if cache_armed {
                if !was_dirty {
                    self.cache_dirty += 1;
                }
                self.cache_touch(ino, lbn);
            }
        }

        // Update size and times.
        let n = self.inode_mut(ino)?;
        let end = offset + data_len;
        let grew = end > n.size;
        if grew {
            n.size = end;
        }
        n.mtime_nanos = now_nanos;
        n.ctime_nanos = now_nanos;
        let structural_change = allocated || grew;
        if structural_change {
            n.inode_dirty = true;
            n.mtime_only_dirty = false;
        } else if !n.inode_dirty {
            // Only the timestamps changed; the reference port flushes this
            // asynchronously (§4.4).
            n.inode_dirty = true;
            n.mtime_only_dirty = true;
        }

        // Build the I/O plan the flags require.
        let mut io = match flags {
            WriteFlags::DelayData => IoPlan::empty(),
            WriteFlags::SyncDataOnly => {
                let data_reqs = self.flush_extents(ino, first_lbn, last_lbn)?;
                IoPlan {
                    data: data_reqs,
                    metadata: Vec::new(),
                }
            }
            WriteFlags::Sync => {
                let data_reqs = self.flush_extents(ino, first_lbn, last_lbn)?;
                let metadata = if self.inode(ino)?.has_dirty_metadata() {
                    self.metadata_requests(ino)?
                } else {
                    Vec::new()
                };
                IoPlan {
                    data: data_reqs,
                    metadata,
                }
            }
        };

        // Bounded-cache enforcement: a writer that pushes the dirty count
        // over the threshold pays for the forced writeback inline (the
        // throttle stall), and clean pages beyond capacity are evicted.
        if cache_armed {
            let forced = self.cache_enforce();
            io.data.extend(forced);
        }

        Ok(WriteOutcome { io })
    }

    /// Mark the cached blocks in `[first_lbn, last_lbn]` clean and return
    /// the clustered write requests covering the ones that were dirty.
    fn flush_extents(
        &mut self,
        ino: InodeNumber,
        first_lbn: u64,
        last_lbn: u64,
    ) -> Result<Vec<DiskRequest>, FsError> {
        let n = self.inode_mut(ino)?;
        let mut extents = Vec::new();
        for (lbn, block) in n.blocks.range_mut(first_lbn, last_lbn) {
            if block.dirty {
                block.dirty = false;
                let number = n.pointers.get(lbn).expect("a cached block is mapped");
                extents.push((block_address(*number), BLOCK_SIZE));
            }
        }
        if self.cache_armed() {
            self.cache_dirty -= extents.len() as u64;
        }
        Ok(cluster_requests(extents))
    }

    /// `VOP_SYNCDATA`: flush all dirty data blocks whose byte range intersects
    /// `[from, to)`, clustered into large transfers.  The paper's gathering
    /// server calls this with beginning/ending offsets as hints once it
    /// becomes the metadata writer.
    pub fn sync_data(&mut self, ino: InodeNumber, from: u64, to: u64) -> Result<IoPlan, FsError> {
        // The blocks overlapping [from, to) are lbns [from/bs, (to-1)/bs];
        // walking just those keeps a flush of a small gathered span
        // O(span), not O(file blocks).
        let data = if to > from {
            self.flush_extents(ino, from / BLOCK_SIZE, (to - 1) / BLOCK_SIZE)?
        } else {
            // An empty range flushes nothing, but a stale inode is an error.
            self.inode(ino)?;
            Vec::new()
        };
        Ok(IoPlan {
            data,
            metadata: Vec::new(),
        })
    }

    /// `VOP_FSYNC`: flush metadata (and, for [`FsyncFlags::All`], any dirty
    /// data) of the file.
    pub fn fsync(&mut self, ino: InodeNumber, flags: FsyncFlags) -> Result<IoPlan, FsError> {
        let mut plan = IoPlan::empty();
        if flags == FsyncFlags::All {
            let size = self.inode(ino)?.size;
            let data_plan = self.sync_data(ino, 0, size.max(1))?;
            plan.extend(data_plan);
        }
        let metadata = self.metadata_requests(ino)?;
        plan.metadata.extend(metadata);
        Ok(plan)
    }

    /// The metadata writes currently needed for `ino`: the block holding the
    /// inode (if the inode is dirty) and the indirect block (if dirty).  The
    /// dirty flags are reset, modelling the writes being issued.
    fn metadata_requests(&mut self, ino: InodeNumber) -> Result<Vec<DiskRequest>, FsError> {
        let inode_block_addr = self.params.inode_block_addr(ino);
        let n = self.inode_mut(ino)?;
        let mut reqs = Vec::new();
        if n.inode_dirty {
            reqs.push(DiskRequest::write(inode_block_addr, BLOCK_SIZE));
        }
        if n.indirect_dirty {
            if let Some(addr) = n.indirect {
                reqs.push(DiskRequest::write(addr, BLOCK_SIZE));
            }
        }
        n.inode_dirty = false;
        n.mtime_only_dirty = false;
        n.indirect_dirty = false;
        Ok(reqs)
    }

    /// `VOP_READ`: read up to `len` bytes at `offset`.
    ///
    /// The result carries a zero-copy [`wg_nfsproto::Payload`] instead of a
    /// freshly filled buffer: the parts of the blocks the read covers, joined
    /// by [`Payload::concat`] (see [`ReadOutcome`]).  Holes and uncached
    /// blocks read as a zero fill.  Block-aligned reads — every READ the
    /// simulated workloads issue — allocate nothing.
    pub fn read(
        &mut self,
        ino: InodeNumber,
        offset: u64,
        len: u64,
    ) -> Result<ReadOutcome, FsError> {
        self.counters.reads += 1;
        let n = self.inode(ino)?;
        if n.kind != FileKind::Regular {
            return Err(FsError::IsADirectory);
        }
        if len == 0 || offset >= n.size {
            return Ok(ReadOutcome::empty());
        }
        let end = (offset + len).min(n.size);
        let cache_reads = self.params.read_caching;
        let cache_armed = self.cache_armed();
        let mut misses = Vec::new();
        // Only tracked when read caching is on; the default cold-cache read
        // path stays free of this bookkeeping.
        let mut missed_blocks: Vec<u64> = Vec::new();
        // Resident blocks this read hit — with the bounded cache armed their
        // LRU recency must advance, or a scan would evict the hot set.
        let mut hits: Vec<u64> = Vec::new();
        let first_lbn = offset / BLOCK_SIZE;
        let last_lbn = (end - 1) / BLOCK_SIZE;
        for lbn in first_lbn..=last_lbn {
            match n.blocks.get(lbn) {
                Some(b) if b.resident => {
                    if cache_armed {
                        hits.push(lbn);
                    }
                }
                // Mapped on disk but not resident: a real server would read
                // it; report the miss so the caller charges disk latency.
                _ => {
                    if let Some(phys) = n.block_addr(lbn) {
                        misses.push(DiskRequest::read(phys, BLOCK_SIZE));
                        if cache_reads {
                            missed_blocks.push(lbn);
                        }
                    }
                }
            }
        }
        // The contents of an evicted block are what was written to it;
        // those of a block never written through the cache (a pre-populated
        // file) read as zeros, as do holes.
        let data = Payload::concat((first_lbn..=last_lbn).map(|lbn| {
            let block_start = lbn * BLOCK_SIZE;
            let from = (offset.max(block_start) - block_start) as usize;
            let to = (end.min(block_start + BLOCK_SIZE) - block_start) as usize;
            match n.blocks.get(lbn) {
                Some(b) => b.data.slice(from..to),
                None => Payload::fill(0, (to - from) as u32),
            }
        }));
        // With read caching on, the blocks this read fetched from disk stay
        // resident (clean, as the zero fill the caller was handed), so the
        // next read of the same block is a cache hit instead of another disk
        // trip.  Off by default: the paper's cold-cache behaviour — every
        // read of an uncached block pays the disk — is what the original
        // figures measure.
        //
        // Known simplification: the block becomes resident at read-*issue*
        // time, so a second reader arriving while the fetch is still in
        // flight gets a free hit instead of blocking on the busy buffer the
        // way a real cache would.  The optimism is bounded by one disk
        // service time per cold block (the filesystem has no clock to do
        // better with) and vanishes once the working set has been touched.
        if !missed_blocks.is_empty() {
            let n = self.inode_mut(ino)?;
            for &lbn in &missed_blocks {
                let block = n.blocks.get_or_insert_with(lbn, || CachedBlock {
                    data: Payload::fill(0, BLOCK_SIZE as u32),
                    dirty: false,
                    resident: true,
                });
                block.resident = true;
            }
        }
        if cache_armed {
            for lbn in hits {
                self.cache_touch(ino, lbn);
            }
            for lbn in missed_blocks {
                self.cache_touch(ino, lbn);
            }
            // Read-inserted pages count against the same bound as written
            // ones — that is the "unified" in unified buffer cache.
            self.cache_evict_clean();
        }
        Ok(ReadOutcome { data, misses })
    }

    /// Create a file of `size` bytes whose blocks are allocated on disk but
    /// not resident in the cache.  Used to pre-populate filesystems for
    /// read-heavy workloads (SPEC SFS-style) so that reads actually miss.
    pub fn create_prefilled(
        &mut self,
        dir: InodeNumber,
        name: &str,
        size: u64,
        now_nanos: u64,
    ) -> Result<InodeNumber, FsError> {
        let ino = self.create(dir, name, 0o644, now_nanos)?;
        let blocks = size.div_ceil(BLOCK_SIZE);
        if blocks > 0 && blocks - 1 > Inode::MAX_LBN {
            return Err(FsError::FileTooLarge);
        }
        if Inode::needs_indirect(blocks.saturating_sub(1)) && blocks > 0 {
            let addr = self.allocate_block()?;
            let n = self.inode_mut(ino)?;
            n.indirect = Some(addr);
        }
        for lbn in 0..blocks {
            let p = self.allocate_block()?;
            let n = self.inode_mut(ino)?;
            n.map_block(lbn, p);
        }
        let n = self.inode_mut(ino)?;
        n.size = size;
        n.inode_dirty = false;
        n.indirect_dirty = false;
        n.mtime_only_dirty = false;
        Ok(ino)
    }

    /// Total bytes of dirty cached data across all files (used by tests and
    /// by the crash-consistency checks).
    pub fn dirty_bytes(&self) -> u64 {
        self.inodes
            .iter()
            .flatten()
            .map(|n| n.blocks.values().filter(|b| b.dirty).count() as u64 * BLOCK_SIZE)
            .sum()
    }

    /// `true` if the inode has any dirty data or metadata.
    pub fn is_dirty(&self, ino: InodeNumber) -> Result<bool, FsError> {
        let n = self.inode(ino)?;
        Ok(n.inode_dirty || n.indirect_dirty || n.blocks.values().any(|b| b.dirty))
    }

    /// `true` if the given logical block of the inode is cached dirty (its
    /// contents exist only in volatile memory and would not survive a crash).
    pub fn block_is_dirty(&self, ino: InodeNumber, lbn: u64) -> bool {
        let block = self.inode(ino).ok().and_then(|n| n.blocks.get(lbn));
        block.is_some_and(|b| b.dirty)
    }

    fn block_mut(&mut self, ino: InodeNumber, lbn: u64) -> Option<&mut CachedBlock> {
        self.inode_mut(ino).ok()?.blocks.get_mut(lbn)
    }

    /// Server crash: discard every volatile (dirty) cached block and all
    /// dirty-metadata markers, keeping only what had reached stable storage.
    /// Physical block mappings survive (they model the on-disk inode as of
    /// the last metadata sync), so a post-crash read of a discarded block
    /// falls back to the disk and sees its stale contents — modeled as
    /// zero-fill plus a disk-read miss.  Returns the number of data bytes
    /// discarded.
    pub fn crash_discard_volatile(&mut self) -> u64 {
        let armed = self.cache_armed();
        let mut discarded = 0u64;
        if armed {
            // Every dirty page is resident and every resident page is in
            // `lru_index`, so the index names every page a crash touches.
            // Recency is re-seeded in (ino, lbn) order, the table's own —
            // arbitrary but deterministic, so replays stay bit-identical.
            let mut pages: Vec<(InodeNumber, u64)> = self.lru_index.keys().copied().collect();
            pages.sort_unstable();
            self.lru.clear();
            self.lru_index.clear();
            self.cache_dirty = 0;
            for (ino, lbn) in pages {
                let n = self
                    .inode_mut(ino)
                    .expect("a resident page's inode is live");
                if n.blocks.get(lbn).is_some_and(|b| b.dirty) {
                    n.blocks.remove(lbn);
                    discarded += BLOCK_SIZE;
                } else {
                    self.cache_touch(ino, lbn);
                }
            }
        }
        for n in self.inodes.iter_mut().flatten() {
            if !armed {
                let before = n.blocks.len();
                n.blocks.retain(|_, b| !b.dirty);
                discarded += (before - n.blocks.len()) as u64 * BLOCK_SIZE;
            }
            n.inode_dirty = false;
            n.mtime_only_dirty = false;
            n.indirect_dirty = false;
        }
        discarded
    }

    /// The original [`Self::crash_discard_volatile`], which walks every
    /// cached block of every inode twice: the differential test's oracle.
    #[cfg(test)]
    fn crash_discard_volatile_oracle(&mut self) -> u64 {
        let mut discarded = 0u64;
        for n in self.inodes.iter_mut().flatten() {
            let before = n.blocks.len();
            n.blocks.retain(|_, b| !b.dirty);
            discarded += (before - n.blocks.len()) as u64 * BLOCK_SIZE;
            n.inode_dirty = false;
            n.mtime_only_dirty = false;
            n.indirect_dirty = false;
        }
        if self.cache_armed() {
            // Rebuild the cache accounting from the surviving (all clean)
            // resident pages.  Recency is re-seeded in (ino, lbn) order, the
            // table's own — arbitrary but deterministic, so replays stay
            // bit-identical.
            self.lru.clear();
            self.lru_index.clear();
            self.cache_dirty = 0;
            let resident = self.inodes.iter().flatten().flat_map(|n| {
                let pages = n.blocks.iter().filter(|(_, b)| b.resident);
                pages.map(|(lbn, _)| (n.ino, lbn))
            });
            for (ino, lbn) in resident.collect::<Vec<_>>() {
                self.cache_touch(ino, lbn);
            }
        }
        discarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BS: u64 = 8192;

    fn fs() -> Ufs {
        Ufs::with_defaults(1)
    }

    #[test]
    fn create_lookup_remove_cycle() {
        let mut u = fs();
        let root = u.root();
        let f = u.create(root, "a.dat", 0o644, 10).unwrap();
        assert_eq!(u.lookup(root, "a.dat").unwrap(), f);
        assert_eq!(u.create(root, "a.dat", 0o644, 10), Err(FsError::Exists));
        assert_eq!(u.lookup(root, "missing"), Err(FsError::NotFound));
        u.remove(root, "a.dat", 20).unwrap();
        assert_eq!(u.lookup(root, "a.dat"), Err(FsError::NotFound));
        assert_eq!(u.getattr(f), Err(FsError::StaleInode));
    }

    #[test]
    fn generations_differ_across_reuse() {
        let mut u = fs();
        let root = u.root();
        let a = u.create(root, "a", 0o644, 0).unwrap();
        let gen_a = u.generation_of(a).unwrap();
        u.remove(root, "a", 1).unwrap();
        let b = u.create(root, "b", 0o644, 2).unwrap();
        let gen_b = u.generation_of(b).unwrap();
        assert_ne!(gen_a, gen_b);
    }

    #[test]
    fn first_write_to_new_file_needs_data_and_inode_io() {
        let mut u = fs();
        let root = u.root();
        let f = u.create(root, "f", 0o644, 0).unwrap();
        let out = u
            .write(f, 0, &[7u8; BS as usize], WriteFlags::Sync, 100)
            .unwrap();
        assert_eq!(u.getattr(f).unwrap().size, BS);
        assert_eq!(out.io.data.len(), 1);
        // The allocation changed the inode, so the plan carries the inode
        // block write (no indirect block needed yet).
        assert_eq!(out.io.metadata.len(), 1);
        assert_eq!(out.io.metadata[0].addr, u.params().inode_block_addr(f));
        assert_eq!(out.io.metadata[0].len, BS);
    }

    #[test]
    fn overwrite_of_allocated_block_is_mtime_only() {
        let mut u = fs();
        let root = u.root();
        let f = u.create(root, "f", 0o644, 0).unwrap();
        u.write(f, 0, &[1u8; BS as usize], WriteFlags::Sync, 100)
            .unwrap();
        let out = u
            .write(f, 0, &[2u8; BS as usize], WriteFlags::Sync, 200)
            .unwrap();
        assert_eq!(u.getattr(f).unwrap().size, BS);
        assert_eq!(out.io.data.len(), 1);
        // §4.4: the inode update for a pure mtime change is asynchronous.
        assert!(out.io.metadata.is_empty());
    }

    #[test]
    fn sequential_file_write_uses_indirect_blocks_after_96k() {
        let mut u = fs();
        let root = u.root();
        let f = u.create(root, "big", 0o644, 0).unwrap();
        // Write 13 blocks; block 12 needs the indirect block.
        for i in 0..13u64 {
            let out = u
                .write(f, i * BS, &[i as u8; BS as usize], WriteFlags::Sync, i)
                .unwrap();
            if i == 12 {
                // Metadata now includes the inode block and the indirect block.
                assert_eq!(out.io.metadata.len(), 2);
            }
        }
        let attrs = u.getattr(f).unwrap();
        assert_eq!(attrs.size, 13 * BS);
    }

    #[test]
    fn delayed_writes_issue_no_io_until_syncdata() {
        let mut u = fs();
        let root = u.root();
        let f = u.create(root, "g", 0o644, 0).unwrap();
        for i in 0..8u64 {
            let out = u
                .write(f, i * BS, &[3u8; BS as usize], WriteFlags::DelayData, i)
                .unwrap();
            assert!(out.io.is_empty());
        }
        assert!(u.is_dirty(f).unwrap());
        assert_eq!(u.dirty_bytes(), 8 * BS);
        let plan = u.sync_data(f, 0, 8 * BS).unwrap();
        // Eight contiguous dirty blocks cluster into one 64 KB transfer.
        assert_eq!(plan.data.len(), 1);
        assert_eq!(plan.data[0].len, 64 * 1024);
        assert_eq!(u.dirty_bytes(), 0);
        // Metadata is still dirty until fsync.
        let meta = u.fsync(f, FsyncFlags::MetadataOnly).unwrap();
        assert_eq!(meta.metadata.len(), 1);
        assert!(!u.is_dirty(f).unwrap());
    }

    #[test]
    fn crash_discard_drops_dirty_blocks_and_keeps_clean_ones() {
        let mut u = fs();
        let root = u.root();
        let f = u.create(root, "victim", 0o644, 0).unwrap();
        // Block 0 reaches stable storage; blocks 1..4 stay volatile.
        u.write(f, 0, &[7u8; BS as usize], WriteFlags::Sync, 1)
            .unwrap();
        for i in 1..4u64 {
            u.write(f, i * BS, &[9u8; BS as usize], WriteFlags::DelayData, i)
                .unwrap();
        }
        assert!(u.block_is_dirty(f, 1));
        assert!(!u.block_is_dirty(f, 0));
        let discarded = u.crash_discard_volatile();
        assert_eq!(discarded, 3 * BS);
        assert_eq!(u.dirty_bytes(), 0);
        assert!(!u.is_dirty(f).unwrap());
        // The durable block survives with its contents...
        let kept = u.read(f, 0, BS).unwrap().to_vec();
        assert!(kept.iter().all(|&b| b == 7));
        // ...while a discarded block reads back from the (stale) disk as a
        // zero-fill miss, not as the acknowledged-but-lost data.
        let lost = u.read(f, BS, BS).unwrap();
        assert!(lost.to_vec().iter().all(|&b| b == 0));
        // A second crash with nothing volatile discards nothing.
        assert_eq!(u.crash_discard_volatile(), 0);
    }

    #[test]
    fn gathering_reduces_transactions_three_to_one() {
        // The paper's core claim in miniature: N writes via the standard path
        // cost ~2 transactions each (data + inode, +indirect occasionally),
        // while the same N writes delayed and flushed once cost N/8 data
        // transfers + 1-2 metadata writes.
        let n_blocks = 16u64;

        let mut standard = fs();
        let root = standard.root();
        let f = standard.create(root, "std", 0o644, 0).unwrap();
        let mut standard_ops = 0usize;
        for i in 0..n_blocks {
            let out = standard
                .write(f, i * BS, &[0u8; BS as usize], WriteFlags::Sync, i)
                .unwrap();
            standard_ops += out.io.transactions();
        }

        let mut gathered = fs();
        let root = gathered.root();
        let g = gathered.create(root, "gth", 0o644, 0).unwrap();
        for i in 0..n_blocks {
            gathered
                .write(g, i * BS, &[0u8; BS as usize], WriteFlags::DelayData, i)
                .unwrap();
        }
        let mut gathered_ops = gathered
            .sync_data(g, 0, n_blocks * BS)
            .unwrap()
            .transactions();
        gathered_ops += gathered
            .fsync(g, FsyncFlags::MetadataOnly)
            .unwrap()
            .transactions();

        assert!(
            standard_ops >= (2 * n_blocks) as usize,
            "standard {standard_ops}"
        );
        // 128 KB of data clusters into 3 transfers (the indirect block breaks
        // physical contiguity once at block 12) plus inode + indirect metadata.
        assert!(gathered_ops <= 5, "gathered {gathered_ops}");
        assert!(
            gathered_ops * 6 <= standard_ops,
            "gathered {gathered_ops} vs standard {standard_ops}"
        );
    }

    #[test]
    fn sync_dataonly_leaves_metadata_dirty() {
        let mut u = fs();
        let root = u.root();
        let f = u.create(root, "p", 0o644, 0).unwrap();
        let out = u
            .write(f, 0, &[9u8; BS as usize], WriteFlags::SyncDataOnly, 5)
            .unwrap();
        assert_eq!(out.io.data.len(), 1);
        assert!(out.io.metadata.is_empty());
        let meta = u.fsync(f, FsyncFlags::MetadataOnly).unwrap();
        assert_eq!(meta.metadata.len(), 1);
        let again = u.fsync(f, FsyncFlags::MetadataOnly).unwrap();
        assert!(again.metadata.is_empty());
    }

    #[test]
    fn read_returns_written_bytes() {
        let mut u = fs();
        let root = u.root();
        let f = u.create(root, "r", 0o644, 0).unwrap();
        let payload: Vec<u8> = (0..BS as usize * 2).map(|i| (i % 251) as u8).collect();
        u.write(f, 0, &payload, WriteFlags::DelayData, 1).unwrap();
        let got = u.read(f, 0, payload.len() as u64).unwrap();
        assert_eq!(got.to_vec(), payload);
        assert!(got.misses.is_empty());
        // Partial read across a block boundary.
        let got = u.read(f, BS - 100, 200).unwrap();
        assert_eq!(
            got.to_vec(),
            payload[(BS - 100) as usize..(BS + 100) as usize]
        );
        // Read past EOF.
        let got = u.read(f, payload.len() as u64 + 5, 100).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn aligned_reads_share_the_cache_instead_of_copying() {
        let mut u = fs();
        let root = u.root();
        let f = u.create(root, "z", 0o644, 0).unwrap();
        // A fill-pattern block reads back as the pattern itself.
        let fill = Payload::fill(5, BS as u32);
        u.write(f, 0, &fill, WriteFlags::DelayData, 1).unwrap();
        let got = u.read(f, 0, BS).unwrap();
        assert_eq!(got.data, fill);
        assert!(matches!(got.data, Payload::Fill { .. }));
        // A materialised block reads back as a refcounted view of the cache.
        let real: Vec<u8> = (0..BS).map(|i| (i % 251) as u8).collect();
        u.write(f, BS, &real, WriteFlags::DelayData, 2).unwrap();
        let got = u.read(f, BS, BS).unwrap();
        let n = u.inode(f).unwrap();
        match (&got.data, &n.blocks.get(1).unwrap().data) {
            (Payload::Shared(out), Payload::Shared(cached)) => {
                assert!(Arc::ptr_eq(out, cached), "aligned read copied the block");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Overwriting the block does not disturb the outstanding view.
        let snapshot = got.data.clone();
        u.write(f, BS, &[0u8; BS as usize], WriteFlags::DelayData, 3)
            .unwrap();
        assert_eq!(snapshot.materialize()[..], real[..]);
        assert_eq!(u.read(f, BS, BS).unwrap().to_vec(), vec![0u8; BS as usize]);
    }

    #[test]
    fn unaligned_writes_roundtrip() {
        let mut u = fs();
        let root = u.root();
        let f = u.create(root, "u", 0o644, 0).unwrap();
        u.write(f, 100, b"hello", WriteFlags::Sync, 1).unwrap();
        u.write(f, BS - 2, b"spanning", WriteFlags::Sync, 2)
            .unwrap();
        let got = u.read(f, 100, 5).unwrap();
        assert_eq!(got.to_vec(), b"hello");
        let got = u.read(f, BS - 2, 8).unwrap();
        assert_eq!(got.to_vec(), b"spanning");
        assert_eq!(u.getattr(f).unwrap().size, BS - 2 + 8);
    }

    #[test]
    fn prefilled_files_produce_read_misses() {
        let mut u = fs();
        let root = u.root();
        let f = u.create_prefilled(root, "cold", 64 * 1024, 0).unwrap();
        assert_eq!(u.getattr(f).unwrap().size, 64 * 1024);
        assert!(!u.is_dirty(f).unwrap());
        let got = u.read(f, 0, 8192).unwrap();
        assert_eq!(got.misses.len(), 1);
        assert_eq!(got.len(), 8192);
        // The default cache is cold for reads: the same block misses again.
        let again = u.read(f, 0, 8192).unwrap();
        assert_eq!(again.misses.len(), 1);
    }

    /// A zero-byte read returns before any block arithmetic: it is empty
    /// and plans no disk read, even of a block that is not resident.
    #[test]
    fn zero_length_read_is_empty_and_plans_no_io() {
        let mut u = fs();
        let root = u.root();
        let f = u.create_prefilled(root, "cold", 4 * BS, 0).unwrap();
        u.write(f, BS, &[9u8; 100], WriteFlags::DelayData, 1)
            .unwrap();
        for offset in [0, BS + 10] {
            let got = u.read(f, offset, 0).unwrap();
            assert!(got.is_empty(), "offset {offset}");
            assert!(got.misses.is_empty(), "offset {offset}");
        }
        assert_eq!(u.read(f, 0, 1).unwrap().misses.len(), 1);
    }

    #[test]
    fn read_caching_keeps_fetched_blocks_resident() {
        let params = FsParams {
            read_caching: true,
            ..FsParams::default()
        };
        let mut u = Ufs::new(1, params);
        let root = u.root();
        let f = u.create_prefilled(root, "warm", 64 * 1024, 0).unwrap();
        // First read of each block pays the disk...
        let cold = u.read(f, 0, 16384).unwrap();
        assert_eq!(cold.misses.len(), 2);
        assert_eq!(cold.len(), 16384);
        // ...re-reads are cache hits with identical contents, and the cached
        // blocks are clean (a flush has nothing to write).
        let warm = u.read(f, 0, 16384).unwrap();
        assert!(warm.misses.is_empty());
        assert_eq!(warm.to_vec(), cold.to_vec());
        assert!(!u.is_dirty(f).unwrap());
        // An untouched block still misses once.
        let tail = u.read(f, 32768, 8192).unwrap();
        assert_eq!(tail.misses.len(), 1);
    }

    #[test]
    fn enospc_is_reported() {
        let mut u = Ufs::new(
            1,
            FsParams {
                data_capacity: 64 * BS,
                ..FsParams::default()
            },
        );
        let root = u.root();
        let f = u.create(root, "fill", 0o644, 0).unwrap();
        let mut hit_enospc = false;
        for i in 0..100u64 {
            match u.write(f, i * BS, &[0u8; BS as usize], WriteFlags::Sync, i) {
                Ok(_) => {}
                Err(FsError::NoSpace) => {
                    hit_enospc = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(hit_enospc);
    }

    /// An inode's block pointer is a 4-byte block number, as in FFS.  The
    /// last block one can hold maps, and its data flushes to its address;
    /// the allocator refuses the block past it with `NoSpace` even though
    /// the configured capacity has room for it.
    #[test]
    fn blocks_past_a_four_byte_pointer_are_no_space() {
        let last = u64::from(u32::MAX) * BS;
        let mut u = Ufs::new(
            1,
            FsParams {
                data_capacity: last - DATA_REGION_START + 2 * BS,
                ..FsParams::default()
            },
        );
        u.alloc_cursor = last - DATA_REGION_START;
        let root = u.root();
        let f = u.create(root, "edge", 0o644, 0).unwrap();
        let out = u
            .write(f, 0, &[3u8; BS as usize], WriteFlags::SyncDataOnly, 1)
            .unwrap();
        assert_eq!(u.inode(f).unwrap().block_addr(0), Some(last));
        assert_eq!(out.io.data.len(), 1);
        assert_eq!(out.io.data[0].addr, last);
        let past = u.write(f, BS, &[4u8; BS as usize], WriteFlags::Sync, 2);
        assert_eq!(past.err(), Some(FsError::NoSpace));
    }

    #[test]
    fn file_too_large_is_reported() {
        let mut u = fs();
        let root = u.root();
        let f = u.create(root, "huge", 0o644, 0).unwrap();
        let too_far = (Inode::MAX_LBN + 1) * BS;
        assert!(matches!(
            u.write(f, too_far, &[1u8; 1], WriteFlags::Sync, 0),
            Err(FsError::FileTooLarge)
        ));
    }

    #[test]
    fn directories_reject_data_ops_and_track_entries() {
        let mut u = fs();
        let root = u.root();
        assert!(matches!(
            u.write(root, 0, b"x", WriteFlags::Sync, 0),
            Err(FsError::IsADirectory)
        ));
        assert!(matches!(u.read(root, 0, 10), Err(FsError::IsADirectory)));
        u.create(root, "inner", 0o644, 1).unwrap();
        assert!(u.readdir(root).unwrap().iter().map(|n| &**n).eq(["inner"]));
        u.remove(root, "inner", 3).unwrap();
        assert!(u.readdir(root).unwrap().is_empty());
    }

    #[test]
    fn readdir_shares_the_listing_until_the_directory_changes() {
        let names = |l: &DirListing| l.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        let mut u = fs();
        let root = u.root();
        u.create(root, "a", 0o644, 0).unwrap();
        let first = u.readdir(root).unwrap();
        assert!(
            first.ptr_eq(&u.readdir(root).unwrap()),
            "unchanged directory must share one listing"
        );
        u.create(root, "b", 0o644, 1).unwrap();
        let second = u.readdir(root).unwrap();
        u.remove(root, "a", 2).unwrap();
        let third = u.readdir(root).unwrap();
        // Each snapshot keeps exactly what the directory held when taken.
        assert_eq!(names(&first), ["a"]);
        assert_eq!(names(&second), ["a", "b"]);
        assert_eq!(names(&third), ["b"]);

        // A large directory: a create or remove after a readdir leaves the
        // earlier snapshot intact, and the new listing shares every run of
        // names with it but the one the change touched.
        for i in 0..1000 {
            u.create(root, &format!("f{i:04}"), 0o644, 3).unwrap();
        }
        let before = u.readdir(root).unwrap();
        assert!(before.ptr_eq(&u.readdir(root).unwrap()));
        u.create(root, "f0500x", 0o644, 4).unwrap();
        let created = u.readdir(root).unwrap();
        u.remove(root, "f0250", 5).unwrap();
        let removed = u.readdir(root).unwrap();
        assert_eq!(
            (before.len(), created.len(), removed.len()),
            (1001, 1002, 1001)
        );
        assert!(!before.iter().any(|n| &n[..] == "f0500x"));
        assert!(created.iter().any(|n| &n[..] == "f0250"));
        assert!(u.inode(root).unwrap().entries.keys().eq(removed.iter()));
        for (old, new) in [(&before, &created), (&created, &removed)] {
            assert!(!old.ptr_eq(new));
            assert_eq!(old.runs_not_shared_with(new), 1, "one run copied");
            assert_eq!(new.runs_not_shared_with(old), 1, "one run copied");
        }
    }

    #[test]
    fn setattr_truncate_frees_blocks_and_reports_metadata_io() {
        let mut u = fs();
        let root = u.root();
        let f = u.create(root, "t", 0o644, 0).unwrap();
        for i in 0..4u64 {
            u.write(f, i * BS, &[1u8; BS as usize], WriteFlags::Sync, i)
                .unwrap();
        }
        let free_before = u.free_block_count();
        let (attrs, plan) = u.setattr(f, Some(0o600), Some(BS), 100).unwrap();
        assert_eq!(attrs.size, BS);
        assert_eq!(attrs.mode, 0o600);
        assert!(!plan.metadata.is_empty());
        assert!(u.free_block_count() > free_before);
        // Reading past the new size returns nothing.
        assert!(u.read(f, BS, 100).unwrap().is_empty());
    }

    #[test]
    fn statfs_counts_fsid_and_root() {
        let mut u = fs();
        let root = u.root();
        assert!(u.total_block_count() > 0);
        let before_free = u.free_block_count();
        let f = u.create(root, "c", 0o644, 0).unwrap();
        u.write(f, 0, &[0u8; BS as usize], WriteFlags::Sync, 1)
            .unwrap();
        assert_eq!(u.free_block_count(), before_free - 1);
        assert_eq!(u.fsid(), 1);
        assert_eq!(u.root(), ROOT_INO);
    }

    #[test]
    fn stale_inode_errors_everywhere() {
        let mut u = fs();
        let root = u.root();
        let removed = u.create(root, "gone", 0o644, 0).unwrap();
        u.remove(root, "gone", 1).unwrap();
        // Inode numbers arrive in client file handles, so any u64 can: the
        // never-minted 0 and 1, one past the newest inode, u64::MAX and a
        // removed file's number.
        for ino in [999, 0, 1, removed + 1, u64::MAX, removed] {
            assert_eq!(u.getattr(ino), Err(FsError::StaleInode));
            assert_eq!(u.generation_of(ino), Err(FsError::StaleInode));
            assert!(matches!(u.read(ino, 0, 1), Err(FsError::StaleInode)));
            assert!(matches!(
                u.write(ino, 0, b"x", WriteFlags::Sync, 0),
                Err(FsError::StaleInode)
            ));
            assert!(matches!(
                u.setattr(ino, None, Some(0), 0),
                Err(FsError::StaleInode)
            ));
            assert_eq!(u.sync_data(ino, 0, 1), Err(FsError::StaleInode));
            assert_eq!(u.fsync(ino, FsyncFlags::All), Err(FsError::StaleInode));
            assert_eq!(u.lookup(ino, "x"), Err(FsError::StaleInode));
            assert_eq!(u.create(ino, "x", 0o644, 0), Err(FsError::StaleInode));
            assert_eq!(u.readdir(ino), Err(FsError::StaleInode));
        }
    }

    /// `allocate_block` pops `free_blocks`, so the order `remove` frees a
    /// file's blocks in decides where every later file lands, and through
    /// that every simulated number.  The file crosses `NDADDR`, so it holds
    /// direct pointers, indirect pointers and the indirect block itself.
    #[test]
    fn removed_blocks_are_reused_last_freed_first() {
        let mut u = fs();
        let root = u.root();
        let f = u.create(root, "f", 0o644, 0).unwrap();
        for lbn in 0..14u64 {
            u.write(f, lbn * BS, &[1u8; BS as usize], WriteFlags::Sync, lbn)
                .unwrap();
        }
        let n = u.inode(f).unwrap();
        let mut expected = vec![n.indirect.unwrap()];
        expected.extend((0..14).rev().map(|lbn| n.block_addr(lbn).unwrap()));
        let fresh = u.alloc_cursor + DATA_REGION_START;
        u.remove(root, "f", 20).unwrap();
        let reused: Vec<u64> = (0..15).map(|_| u.allocate_block().unwrap()).collect();
        assert_eq!(reused, expected);
        // Only then does the allocator cut a new block.
        assert_eq!(u.allocate_block(), Ok(fresh));
    }

    #[test]
    fn fsync_all_flushes_data_and_metadata() {
        let mut u = fs();
        let root = u.root();
        let f = u.create(root, "fa", 0o644, 0).unwrap();
        for i in 0..4u64 {
            u.write(f, i * BS, &[5u8; BS as usize], WriteFlags::DelayData, i)
                .unwrap();
        }
        let plan = u.fsync(f, FsyncFlags::All).unwrap();
        assert_eq!(plan.data.len(), 1); // one 32 KB clustered transfer
        assert_eq!(plan.data[0].len, 4 * BS);
        assert_eq!(plan.metadata.len(), 1);
        assert!(!u.is_dirty(f).unwrap());
    }

    fn bounded(cache_pages: u64, dirty_ratio: f64, read_caching: bool) -> Ufs {
        Ufs::new(
            1,
            FsParams {
                cache_pages,
                dirty_ratio,
                read_caching,
                ..FsParams::default()
            },
        )
    }

    #[test]
    fn unbounded_default_does_no_cache_accounting() {
        let mut u = fs();
        let root = u.root();
        let f = u.create(root, "f", 0o644, 0).unwrap();
        for i in 0..32u64 {
            u.write(f, i * BS, &[1u8; BS as usize], WriteFlags::DelayData, i)
                .unwrap();
        }
        assert_eq!(u.resident_pages(), 0, "unbounded cache tracks nothing");
        assert_eq!(u.dirty_resident_pages(), 0);
        let c = u.counters();
        assert_eq!(c.cache_evictions, 0);
        assert_eq!(c.throttle_stalls, 0);
        assert_eq!(c.writeback_blocks, 0);
        assert!(u.writeback_batch(100).is_empty());
    }

    #[test]
    fn bounded_cache_evicts_clean_lru_pages() {
        let mut u = bounded(4, 0.5, false);
        let root = u.root();
        let f = u.create(root, "f", 0o644, 0).unwrap();
        // Sync writes leave every block clean, so eviction alone bounds
        // residency.
        for i in 0..6u64 {
            u.write(f, i * BS, &[1u8; BS as usize], WriteFlags::Sync, i)
                .unwrap();
        }
        assert_eq!(u.resident_pages(), 4);
        assert_eq!(u.counters().cache_evictions, 2);
        // The two oldest blocks were dropped: reading them misses the disk.
        assert_eq!(u.read(f, 0, BS).unwrap().misses.len(), 1);
        assert_eq!(u.read(f, BS, BS).unwrap().misses.len(), 1);
        // A recent block is still resident.
        assert!(u.read(f, 5 * BS, BS).unwrap().misses.is_empty());
    }

    #[test]
    fn evicted_page_keeps_its_contents_on_disk() {
        // A one-page cache: once block 0 is written back, writing block 1
        // evicts it.
        let mut u = bounded(1, 1.0, false);
        let root = u.root();
        let f = u.create(root, "f", 0o644, 0).unwrap();
        u.write(f, 0, &[0xABu8; BS as usize], WriteFlags::DelayData, 0)
            .unwrap();
        assert_eq!(u.writeback_batch(1).len(), 1);
        u.write(f, BS, &[1u8; BS as usize], WriteFlags::Sync, 1)
            .unwrap();
        assert_eq!(u.counters().cache_evictions, 1);
        // Reading it back pays one disk read and returns what was written.
        let read = u.read(f, 0, BS).unwrap();
        assert_eq!(read.misses.len(), 1);
        assert_eq!(read.to_vec(), vec![0xABu8; BS as usize]);
    }

    #[test]
    fn dirty_ratio_throttle_forces_inline_writeback() {
        let mut u = bounded(8, 0.5, false);
        let root = u.root();
        let f = u.create(root, "f", 0o644, 0).unwrap();
        // Threshold = 4 dirty pages.  The first four delayed writes issue no
        // I/O...
        for i in 0..4u64 {
            let out = u
                .write(f, i * BS, &[2u8; BS as usize], WriteFlags::DelayData, i)
                .unwrap();
            assert!(out.io.is_empty(), "write {i} under threshold issued I/O");
        }
        // ...the fifth crosses the threshold and pays for the forced
        // writeback of the oldest dirty page inline.
        let out = u
            .write(f, 4 * BS, &[2u8; BS as usize], WriteFlags::DelayData, 4)
            .unwrap();
        assert_eq!(out.io.data.len(), 1, "throttled write carries the flush");
        let c = u.counters();
        assert_eq!(c.throttle_stalls, 1);
        assert_eq!(c.writeback_blocks, 1);
        assert_eq!(u.dirty_resident_pages(), 4);
        assert_eq!(u.dirty_bytes(), 4 * BS);
        // The cleaned page is block 0 (oldest): it is now evictable but
        // still resident with its contents.
        assert!(!u.block_is_dirty(f, 0));
        assert!(u.block_is_dirty(f, 4));
    }

    #[test]
    fn writeback_batch_cleans_oldest_dirty_and_clusters() {
        let mut u = bounded(16, 1.0, false);
        let root = u.root();
        let f = u.create(root, "f", 0o644, 0).unwrap();
        for i in 0..8u64 {
            u.write(f, i * BS, &[3u8; BS as usize], WriteFlags::DelayData, i)
                .unwrap();
        }
        assert_eq!(u.dirty_resident_pages(), 8);
        // A partial batch drains the oldest pages first.
        let reqs = u.writeback_batch(3);
        assert_eq!(reqs.iter().map(|r| r.len).sum::<u64>(), 3 * BS);
        assert!(!u.block_is_dirty(f, 0));
        assert!(!u.block_is_dirty(f, 2));
        assert!(u.block_is_dirty(f, 3));
        assert_eq!(u.dirty_resident_pages(), 5);
        // The rest clusters into one contiguous transfer.
        let reqs = u.writeback_batch(100);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].len, 5 * BS);
        assert_eq!(u.dirty_resident_pages(), 0);
        assert_eq!(u.dirty_bytes(), 0);
        assert_eq!(u.counters().writeback_blocks, 8);
        // Pages stay resident (clean) after writeback.
        assert_eq!(u.resident_pages(), 8);
    }

    #[test]
    fn bounded_read_cache_evicts_beyond_capacity_and_tracks_recency() {
        let mut u = bounded(2, 0.5, true);
        let root = u.root();
        let f = u.create_prefilled(root, "cold", 4 * BS, 0).unwrap();
        // Fill the two slots with blocks 0 and 1.
        assert_eq!(u.read(f, 0, BS).unwrap().misses.len(), 1);
        assert_eq!(u.read(f, BS, BS).unwrap().misses.len(), 1);
        assert_eq!(u.resident_pages(), 2);
        // Touch block 0 so block 1 is the LRU victim...
        assert!(u.read(f, 0, BS).unwrap().misses.is_empty());
        // ...then pull in block 2: block 1 is evicted, block 0 survives.
        assert_eq!(u.read(f, 2 * BS, BS).unwrap().misses.len(), 1);
        assert_eq!(u.resident_pages(), 2);
        assert!(u.read(f, 0, BS).unwrap().misses.is_empty());
        assert_eq!(u.read(f, BS, BS).unwrap().misses.len(), 1, "1 was evicted");
    }

    #[test]
    fn cache_accounting_survives_truncate_remove_and_crash() {
        let mut u = bounded(32, 0.5, false);
        let root = u.root();
        let f = u.create(root, "f", 0o644, 0).unwrap();
        for i in 0..8u64 {
            let flags = if i < 4 {
                WriteFlags::Sync
            } else {
                WriteFlags::DelayData
            };
            u.write(f, i * BS, &[4u8; BS as usize], flags, i).unwrap();
        }
        assert_eq!(u.resident_pages(), 8);
        assert_eq!(u.dirty_resident_pages(), 4);
        // Truncate away the two newest (dirty) blocks.
        u.setattr(f, None, Some(6 * BS), 100).unwrap();
        assert_eq!(u.resident_pages(), 6);
        assert_eq!(u.dirty_resident_pages(), 2);
        // Crash: dirty pages vanish, accounting is rebuilt over the clean
        // survivors.
        let discarded = u.crash_discard_volatile();
        assert_eq!(discarded, 2 * BS);
        assert_eq!(u.resident_pages(), 4);
        assert_eq!(u.dirty_resident_pages(), 0);
        // Remove drops the file's pages from the accounting entirely.
        u.remove(root, "f", 200).unwrap();
        assert_eq!(u.resident_pages(), 0);
        assert_eq!(u.dirty_resident_pages(), 0);
    }

    /// What the armed crash discard relies on: every dirty block is
    /// resident, and the resident blocks are exactly `lru_index`'s keys.
    fn assert_index_names_every_resident_block(u: &Ufs, at: &str) {
        let mut resident = Vec::new();
        for n in u.inodes.iter().flatten() {
            for (lbn, b) in n.blocks.iter() {
                assert!(
                    b.resident || !b.dirty,
                    "{at}: dirty block {}:{lbn} evicted",
                    n.ino
                );
                if b.resident {
                    resident.push((n.ino, lbn));
                }
            }
        }
        let mut indexed: Vec<_> = u.lru_index.keys().copied().collect();
        indexed.sort_unstable();
        assert_eq!(resident, indexed, "{at}");
    }

    /// Every cached block with its flags and contents, and every inode's
    /// metadata flags, in (ino, lbn) order.
    type BlockState = (InodeNumber, u64, Option<u64>, Payload, bool, bool);
    type InodeFlags = (InodeNumber, bool, bool, bool);
    fn cache_state(u: &Ufs) -> (Vec<BlockState>, Vec<InodeFlags>) {
        let inodes = u.inodes.iter().flatten();
        let blocks = inodes.clone().flat_map(|n| {
            let each = n.blocks.iter();
            each.map(|(lbn, b)| {
                let addr = n.block_addr(lbn);
                (n.ino, lbn, addr, b.data.clone(), b.dirty, b.resident)
            })
        });
        let flags = inodes.map(|n| (n.ino, n.inode_dirty, n.mtime_only_dirty, n.indirect_dirty));
        (blocks.collect(), flags.collect())
    }

    /// The armed cache's crash discard, which visits only the pages in
    /// `lru_index`, against the two-walk discard it replaced: an armed
    /// 16-page cache, with and without read caching, driven through random
    /// delayed, synchronous and partial writes, reads, write-behind batches,
    /// `sync_data` calls, truncations, removes and crashes, discards the same
    /// bytes and leaves the same blocks, counts and LRU order.  The CI
    /// release step reruns it at optimised speed.
    #[test]
    fn differential_fuzz_crash_discard_matches_the_full_walk() {
        let mut discarded = 0u64;
        for seed in 1..=8u64 {
            let mut rng = wg_simcore::SimRng::seed_from(seed);
            let cache = || bounded(16, 0.5, seed % 2 == 0);
            let (mut fast, mut oracle) = (cache(), cache());
            let root = fast.root();
            let names = ["a", "b", "c"];
            for u in [&mut fast, &mut oracle] {
                for name in names {
                    u.create(root, name, 0o644, 0).unwrap();
                }
            }
            for step in 0..2000u64 {
                let at = format!("seed {seed} step {step}");
                let name = names[rng.next_below(3) as usize];
                // 24 blocks per file: the direct blocks and the first
                // indirect ones.
                let offset = rng.next_below(24) * BS + u64::from(rng.chance(0.2)) * 512;
                let len = (1 + rng.next_below(2)) * BS - u64::from(rng.chance(0.2)) * 512;
                let flags = match rng.next_below(8) {
                    0 => WriteFlags::Sync,
                    1 => WriteFlags::SyncDataOnly,
                    _ => WriteFlags::DelayData,
                };
                let (op, batch, byte) = (rng.next_below(20), rng.next_below(8), step as u8);
                if op == 19 {
                    let lost = fast.crash_discard_volatile();
                    assert_eq!(lost, oracle.crash_discard_volatile_oracle(), "{at}");
                    discarded += lost;
                } else {
                    for u in [&mut fast, &mut oracle] {
                        let f = u.lookup(root, name).unwrap();
                        match op {
                            0..=9 => {
                                let data = Payload::fill(byte, len as u32);
                                u.write(f, offset, data, flags, step).unwrap();
                            }
                            10..=12 => drop(u.read(f, offset, len).unwrap()),
                            13 | 14 => drop(u.writeback_batch(batch)),
                            15 => drop(u.sync_data(f, offset, offset + len).unwrap()),
                            16 => drop(u.setattr(f, None, Some(offset), step).unwrap()),
                            _ => {
                                u.remove(root, name, step).unwrap();
                                u.create(root, name, 0o644, step).unwrap();
                            }
                        }
                    }
                }
                assert_index_names_every_resident_block(&fast, &at);
                assert_eq!(cache_state(&fast), cache_state(&oracle), "{at}");
                assert_eq!(fast.lru, oracle.lru, "{at}");
                assert_eq!(fast.lru_index, oracle.lru_index, "{at}");
                assert_eq!(fast.cache_dirty, oracle.cache_dirty, "{at}");
            }
        }
        assert!(discarded > 0, "no crash found a dirty block");
    }

    #[test]
    fn name_length_limit_enforced() {
        let mut u = fs();
        let root = u.root();
        let long = "x".repeat(MAX_NAME_LEN + 1);
        assert_eq!(u.create(root, &long, 0o644, 0), Err(FsError::NameTooLong));
        assert_eq!(u.create(root, "", 0o644, 0), Err(FsError::NameTooLong));
    }
}
