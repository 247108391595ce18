//! # wg-ufs — a UFS-like filesystem model with write clustering
//!
//! The paper's server sits on top of "a BSD 4.3 filesystem (UFS) with
//! extensions that cluster reads and writes into larger device request sizes
//! (up to 64K)" in the style of McVoy & Kleiman (\[MCVO91\]).  Write gathering
//! is entirely about how many *disk transactions* that filesystem issues for a
//! burst of NFS writes, so this crate reproduces the parts of UFS that
//! determine the transaction count and layout:
//!
//! * the FFS-style on-disk structure — inodes with 12 direct block pointers
//!   and a single indirect block of 2048 pointers, 8 KB blocks ([`inode`]),
//! * block allocation with an inode region and a data region so that data and
//!   metadata writes land at different disk addresses (and therefore cost
//!   seeks) ([`fs`]),
//! * a per-file buffer cache with dirty tracking, so delayed writes
//!   (`IO_DELAYDATA`) accumulate in memory until a flush clusters them into
//!   contiguous transfers of up to 64 KB ([`fs`], [`cluster`]),
//! * the vnode-operation surface the paper extends: `VOP_WRITE` with the new
//!   `IO_DATAONLY`/`IO_DELAYDATA` flags, `VOP_FSYNC` with `FWRITE_METADATA`,
//!   and the new `VOP_SYNCDATA` ([`vnode`]).
//!
//! The filesystem stores real bytes (reads return what was written) but is
//! *passive with respect to time*: operations return [`vnode::IoPlan`]s — the
//! disk requests that a real UFS would have issued synchronously — and the
//! caller (the NFS server model) submits them to a [`wg_disk::BlockDevice`]
//! and deals with the resulting latencies.  This separation keeps the block
//! accounting testable in isolation, which is where the paper's 3N → N claim
//! lives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod error;
pub mod fs;
pub mod inode;
pub mod params;
pub mod vnode;

pub use cluster::cluster_requests;
pub use error::FsError;
pub use fs::{FileAttributes, Ufs};
pub use inode::{FileKind, Inode, InodeNumber};
pub use params::{FsParams, BLOCK_SIZE, CLUSTER_SIZE};
pub use vnode::{FsyncFlags, IoPlan, ReadOutcome, WriteFlags, WriteOutcome};
