//! # wg-nfsproto — ONC RPC framing and the NFS version 2 protocol
//!
//! The paper's server speaks the Sun NFS version 2 protocol over ONC RPC/UDP
//! (\[SAND85\]).  This crate defines, from scratch:
//!
//! * the NFS v2 on-the-wire data types — file handles, [`Fattr`] file
//!   attributes, [`Sattr`] settable attributes, [`NfsStatus`] result codes
//!   ([`attr`], [`handle`]),
//! * the argument and result structures of the twelve procedures the
//!   simulated clients call, together with their XDR encodings
//!   ([`procs`]): the nine LADDIS operations of NFS v2 (WRITE, READ,
//!   LOOKUP, GETATTR, SETATTR, CREATE, REMOVE, READDIR, STATFS), plus
//!   COMMIT, RENEW and LOCK grafted past the v2 range,
//! * ONC RPC call/reply framing with transaction ids used for duplicate
//!   request detection ([`rpc`]): AUTH_UNIX calls and accepted replies,
//!   the only framing the simulation exchanges,
//! * [`Payload`], the bytes a WRITE carries and a READ returns: a fill
//!   pattern or a shared buffer, the one form simulated bytes take down to
//!   the filesystem's buffer cache ([`payload`]),
//! * [`DirListing`], the sorted READDIR name list that replies share by
//!   snapshot ([`listing`]),
//! * a convenience [`message`] layer that bundles a complete request or reply
//!   as one Rust value plus its wire size, which is what the network and
//!   socket-buffer models operate on.
//!
//! Each type states its wire layout once.  The plain argument and result
//! structs, [`Fattr`], [`Sattr`] and [`Timeval`] are declared with
//! [`wg_xdr::xdr_struct!`], and the code tables [`NfsStatus`], [`FileType`]
//! and [`ProcNumber`] with [`wg_xdr::xdr_enum!`]: one field or value list
//! gives each its encoder, its decoder and its `xdr_size`.  The types whose
//! wire form is not their fields in order ([`FileHandle`], [`Xid`], the two
//! RPC headers, [`StatusReply`], [`DirListing`], [`Payload`], and
//! [`StableHow`] with its lenient decode) write `xdr_size` beside `encode`.
//!
//! Messages cross the simulated network as typed values, and the network
//! and socket buffer charge each one its `wire_size()`, the sum of the
//! `xdr_size` of the values `to_wire` encodes.  Encoded bytes exist only in
//! `to_wire`/`from_wire`, which the round-trip tests, the wire-size tests
//! and the benchmark's encode/decode micro replays call.

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
pub use message::{NfsCall, NfsCallBody, NfsReply, NfsReplyBody};
pub use payload::Payload;
pub use procs::{
    CommitArgs, CommitOk, CreateArgs, DirOpArgs, DirOpOk, GetattrArgs, LockArgs, LockOk,
    ProcNumber, ReadArgs, ReadOk, ReaddirArgs, RenewArgs, RenewOk, SetattrArgs, StableHow,
    StatfsOk, StatusReply, WriteArgs, WriteVerf, WriteVerfOk,
};
pub use rpc::{RpcCallHeader, RpcReplyHeader, Xid};

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
