//! # wg-server — an NFS v2 server with write gathering
//!
//! This crate is the reproduction of the paper's contribution: the NFS server
//! layer of ULTRIX/OSF/1 extended with *write gathering* (Juszczak, USENIX
//! Winter 1994).  The server is modelled as a deterministic state machine
//! driven by a virtual clock; it owns the filesystem ([`wg_ufs::Ufs`]), the
//! storage device (a raw disk, a stripe set, or a Prestoserve-accelerated
//! version of either), the shared CPU, the bounded socket buffer, a pool of
//! `nfsd` service threads, and a duplicate request cache.
//!
//! ## Write policies
//!
//! The server implements four interchangeable write policies
//! ([`WritePolicy`]):
//!
//! * [`WritePolicy::Standard`] — the reference-port baseline: every WRITE is
//!   committed (data, then metadata) before its reply is sent, all under the
//!   file's vnode lock.
//! * [`WritePolicy::Gathering`] — the paper's §6.8 algorithm: hand the data to
//!   UFS (delayed for plain disks, data-only-sync for accelerated ones), then
//!   try to leave the metadata update to another nfsd; procrastinate once for
//!   a transport-dependent interval if nobody else is around; otherwise become
//!   the metadata writer, flush gathered data with `VOP_SYNCDATA`, flush
//!   metadata once with `VOP_FSYNC`, and send every pending reply FIFO.
//! * [`WritePolicy::FirstWriteLatency`] — the \[SIVA93\] alternative the paper
//!   compares against: the first write's own synchronous data transfer is the
//!   latency window during which other writes may arrive.
//! * [`WritePolicy::DangerousAsync`] — "dangerous mode": reply after the data
//!   reaches volatile memory.  Included because the paper discusses it as the
//!   industry's other answer; it violates the crash-recovery contract and the
//!   crash-consistency tests demonstrate exactly that.
//!
//! ## Interface
//!
//! The orchestrator (see `wg-workload`) feeds the server [`ServerInput`]s —
//! arriving datagrams and timer wake-ups — and receives [`ServerAction`]s —
//! replies to transmit and wake-ups to schedule.  Everything in between
//! (socket buffer, nfsd scheduling, vnode locks, gathering, disk and NVRAM
//! latencies, CPU contention) happens inside this crate and is unit-tested
//! here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod dupcache;
mod gather;
pub mod handles;
pub mod server;
pub mod state;
pub mod stats;

pub use config::{ReplyOrder, ServerConfig, StabilityMode, StorageConfig, WritePolicy};
pub use dupcache::DuplicateRequestCache;
pub use handles::{attributes_to_fattr, fs_error_to_status, handle_for, ino_from_handle};
pub use server::{ClientId, NfsServer, ServerAction, ServerInput, WakeToken};
pub use state::{ClientStateTable, StateStats};
pub use stats::ServerStats;
pub use wg_ufs::FsParams;
