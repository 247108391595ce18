//! # wg-nfsproto — ONC RPC framing and the NFS version 2 protocol
//!
//! The paper's server speaks the Sun NFS version 2 protocol over ONC RPC/UDP
//! (\[SAND85\]).  This crate defines, from scratch:
//!
//! * the NFS v2 on-the-wire data types — file handles, [`Fattr`] file
//!   attributes, [`Sattr`] settable attributes, [`NfsStatus`] result codes
//!   ([`attr`], [`handle`]),
//! * the argument and result structures of the NFS v2 procedures the
//!   reproduction exercises (WRITE, READ, LOOKUP, GETATTR, SETATTR, CREATE,
//!   REMOVE, READDIR, STATFS, ...) together with their XDR encodings
//!   ([`procs`]),
//! * ONC RPC call/reply framing with transaction ids used for duplicate
//!   request detection ([`rpc`]),
//! * [`DirListing`], the sorted READDIR name list that replies share by
//!   snapshot ([`listing`]),
//! * a convenience [`message`] layer that bundles a complete request or reply
//!   as one Rust value plus its wire size, which is what the network and
//!   socket-buffer models operate on.
//!
//! The encoding layer keeps the simulated wire honest about sizes: messages
//! cross the simulated network as typed values, and the network and socket
//! buffer charge each one its arithmetic `wire_size()`, which tests pin to
//! the length of its real XDR encoding.  Bytes exist only in
//! `to_wire`/`from_wire`, which the round-trip tests,
//! `wire_sizes_match_real_encodings` and the benchmark's encode/decode
//! micro replays call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod handle;
pub mod listing;
pub mod message;
pub mod payload;
pub mod procs;
pub mod rpc;

pub use attr::{Fattr, FileType, NfsStatus, Sattr, Timeval};
pub use handle::FileHandle;
pub use listing::DirListing;
pub use message::{NfsCall, NfsCallBody, NfsReply, NfsReplyBody, WireMessage};
pub use payload::Payload;
pub use procs::{
    CommitArgs, CommitOk, CreateArgs, DirOpArgs, DirOpOk, GetattrArgs, LockArgs, LockOk,
    LookupArgs, ProcNumber, ReadArgs, ReadOk, ReaddirArgs, RemoveArgs, RenewArgs, RenewOk,
    SetattrArgs, StableHow, StatfsOk, StatusReply, UnlockArgs, WriteArgs, WriteVerf, WriteVerfOk,
};
pub use rpc::{AuthFlavor, RejectReason, RpcCallHeader, RpcReplyHeader, RpcReplyStatus, Xid};

/// Maximum NFS v2 read/write transfer size in bytes (the classic 8 KB limit
/// that shapes the whole paper: clients emit 8 KB writes, servers see 8 KB
/// requests, UFS clusters them into up to 64 KB disk transfers).
pub const NFS_MAXDATA: u32 = 8192;

/// NFS v2 file handle size in bytes.
pub const NFS_FHSIZE: usize = 32;

/// The RPC program number assigned to NFS.
pub const NFS_PROGRAM: u32 = 100003;

/// The NFS protocol version this crate implements.
pub const NFS_VERSION: u32 = 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_constants_match_rfc1094() {
        assert_eq!(NFS_MAXDATA, 8192);
        assert_eq!(NFS_FHSIZE, 32);
        assert_eq!(NFS_PROGRAM, 100003);
        assert_eq!(NFS_VERSION, 2);
    }
}
