//! Whole-message convenience layer.
//!
//! The simulation passes complete NFS requests and replies between the client,
//! network and server models.  [`NfsCall`] and [`NfsReply`] bundle the RPC
//! transaction id with a typed procedure body, and can be flattened to (and
//! parsed back from) the real bytes of a UDP datagram with `to_wire` and
//! `from_wire`.  The wire size is what the network model charges for
//! transmission and what the server socket-buffer model counts against its
//! capacity, so the sizes here must be faithful: an 8 KB write really
//! occupies a little more than 8 KB on the wire once RPC and NFS headers are
//! added.  `wire_size` sums the `xdr_size` of the very values `to_wire`
//! encodes (the header, then the body's arguments, or its tag and results),
//! so a size can never drift from its encoding.

use crate::attr::{Fattr, NfsStatus};
use crate::listing::DirListing;
use crate::procs::{
    CommitArgs, CommitOk, CreateArgs, DirOpArgs, DirOpOk, GetattrArgs, LockArgs, LockOk,
    ProcNumber, ReadArgs, ReadOk, ReaddirArgs, RenewArgs, RenewOk, SetattrArgs, StatfsOk,
    StatusReply, WriteArgs, WriteVerfOk,
};
use crate::rpc::{RpcCallHeader, RpcReplyHeader, Xid};
use wg_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder, XdrError};

/// The typed body of an NFS call.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum NfsCallBody {
    /// GETATTR.
    Getattr(GetattrArgs),
    /// SETATTR.
    Setattr(SetattrArgs),
    /// LOOKUP.
    Lookup(DirOpArgs),
    /// READ.
    Read(ReadArgs),
    /// WRITE.
    Write(WriteArgs),
    /// CREATE.
    Create(CreateArgs),
    /// REMOVE.
    Remove(DirOpArgs),
    /// READDIR.
    Readdir(ReaddirArgs),
    /// STATFS.
    Statfs(GetattrArgs),
    /// COMMIT (only issued by clients running the unstable-write protocol).
    Commit(CommitArgs),
    /// RENEW (only issued by clients running the lease protocol).
    Renew(RenewArgs),
    /// LOCK (lease protocol).
    Lock(LockArgs),
}

/// Evaluate `$then` with `$args` bound to a call body's arguments, the value
/// the wire carries after the RPC header: the one match `to_wire` encodes
/// and `wire_size` sizes.  A macro rather than a `&dyn XdrEncode`, so the
/// size the hot loop takes of every message is a static match.
macro_rules! with_args {
    ($body:expr, |$args:ident| $then:expr) => {
        match $body {
            NfsCallBody::Getattr($args) | NfsCallBody::Statfs($args) => $then,
            NfsCallBody::Setattr($args) => $then,
            NfsCallBody::Lookup($args) | NfsCallBody::Remove($args) => $then,
            NfsCallBody::Read($args) => $then,
            NfsCallBody::Write($args) => $then,
            NfsCallBody::Create($args) => $then,
            NfsCallBody::Readdir($args) => $then,
            NfsCallBody::Commit($args) => $then,
            NfsCallBody::Renew($args) => $then,
            NfsCallBody::Lock($args) => $then,
        }
    };
}

impl NfsCallBody {
    /// The procedure this body belongs to.
    pub fn procedure(&self) -> ProcNumber {
        match self {
            NfsCallBody::Getattr(_) => ProcNumber::Getattr,
            NfsCallBody::Setattr(_) => ProcNumber::Setattr,
            NfsCallBody::Lookup(_) => ProcNumber::Lookup,
            NfsCallBody::Read(_) => ProcNumber::Read,
            NfsCallBody::Write(_) => ProcNumber::Write,
            NfsCallBody::Create(_) => ProcNumber::Create,
            NfsCallBody::Remove(_) => ProcNumber::Remove,
            NfsCallBody::Readdir(_) => ProcNumber::Readdir,
            NfsCallBody::Statfs(_) => ProcNumber::Statfs,
            NfsCallBody::Commit(_) => ProcNumber::Commit,
            NfsCallBody::Renew(_) => ProcNumber::Renew,
            NfsCallBody::Lock(_) => ProcNumber::Lock,
        }
    }

    fn decode_args(proc_: ProcNumber, dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(match proc_ {
            ProcNumber::Getattr => NfsCallBody::Getattr(GetattrArgs::decode(dec)?),
            ProcNumber::Setattr => NfsCallBody::Setattr(SetattrArgs::decode(dec)?),
            ProcNumber::Lookup => NfsCallBody::Lookup(DirOpArgs::decode(dec)?),
            ProcNumber::Read => NfsCallBody::Read(ReadArgs::decode(dec)?),
            ProcNumber::Write => NfsCallBody::Write(WriteArgs::decode(dec)?),
            ProcNumber::Create => NfsCallBody::Create(CreateArgs::decode(dec)?),
            ProcNumber::Remove => NfsCallBody::Remove(DirOpArgs::decode(dec)?),
            ProcNumber::Readdir => NfsCallBody::Readdir(ReaddirArgs::decode(dec)?),
            ProcNumber::Statfs => NfsCallBody::Statfs(GetattrArgs::decode(dec)?),
            ProcNumber::Commit => NfsCallBody::Commit(CommitArgs::decode(dec)?),
            ProcNumber::Renew => NfsCallBody::Renew(RenewArgs::decode(dec)?),
            ProcNumber::Lock => NfsCallBody::Lock(LockArgs::decode(dec)?),
        })
    }
}

/// A complete NFS call: transaction id plus typed body.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NfsCall {
    /// Transaction id chosen by the client (reused on retransmission).
    pub xid: Xid,
    /// Procedure-specific arguments.
    pub body: NfsCallBody,
}

impl NfsCall {
    /// Bundle a transaction id with a call body.
    pub fn new(xid: Xid, body: NfsCallBody) -> Self {
        NfsCall { xid, body }
    }

    /// The RPC header the call travels under.
    fn header(&self) -> RpcCallHeader {
        RpcCallHeader {
            xid: self.xid,
            procedure: self.body.procedure(),
        }
    }

    /// Serialise to wire bytes (RPC call header + XDR arguments).
    pub fn to_wire(&self) -> Vec<u8> {
        let mut enc = XdrEncoder::with_capacity(self.wire_size());
        self.header().encode(&mut enc);
        with_args!(&self.body, |args| args.encode(&mut enc));
        enc.into_bytes()
    }

    /// Parse a call from wire bytes, validating the RPC header.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, XdrError> {
        let mut dec = XdrDecoder::new(bytes);
        let header = RpcCallHeader::decode(&mut dec)?;
        let body = NfsCallBody::decode_args(header.procedure, &mut dec)?;
        if dec.remaining() != 0 {
            return Err(XdrError::TrailingBytes(dec.remaining()));
        }
        Ok(NfsCall {
            xid: header.xid,
            body,
        })
    }

    /// The size of this call on the wire, in bytes: the sizes of the two
    /// values [`NfsCall::to_wire`] encodes, read off their layouts without
    /// encoding or allocating anything.
    pub fn wire_size(&self) -> usize {
        self.header().xdr_size() + with_args!(&self.body, |args| args.xdr_size())
    }
}

/// The typed body of an NFS reply.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum NfsReplyBody {
    /// GETATTR / SETATTR / WRITE reply ("attrstat").
    Attr(StatusReply<Fattr>),
    /// LOOKUP / CREATE reply ("diropres").
    DirOp(StatusReply<DirOpOk>),
    /// READ reply ("readres").
    Read(StatusReply<ReadOk>),
    /// REMOVE / RMDIR reply: just a status.
    Status(NfsStatus),
    /// READDIR reply: names only (entries are summarised as a name list in
    /// this reproduction; cookies and eof handling live in the server model).
    /// The listing is a snapshot, so caching or replaying the reply never
    /// clones the names.
    Readdir(StatusReply<DirListing>),
    /// STATFS reply.
    Statfs(StatusReply<StatfsOk>),
    /// WRITE reply carrying stability + boot verifier, emitted only by a
    /// server running the unstable-write protocol (a plain v2 server answers
    /// writes with [`NfsReplyBody::Attr`], keeping the default wire format
    /// untouched).
    WriteVerf(StatusReply<WriteVerfOk>),
    /// COMMIT reply.
    Commit(StatusReply<CommitOk>),
    /// RENEW reply (lease protocol).
    Renew(StatusReply<RenewOk>),
    /// LOCK reply (lease protocol).
    Lock(StatusReply<LockOk>),
}

/// Evaluate `$then` with `$results` bound to a reply body's results, the
/// value the wire carries after the body tag: the one match `to_wire`
/// encodes and `wire_size` sizes, static for the reason `with_args!` is.
macro_rules! with_results {
    ($body:expr, |$results:ident| $then:expr) => {
        match $body {
            NfsReplyBody::Attr($results) => $then,
            NfsReplyBody::DirOp($results) => $then,
            NfsReplyBody::Read($results) => $then,
            NfsReplyBody::Status($results) => $then,
            NfsReplyBody::Readdir($results) => $then,
            NfsReplyBody::Statfs($results) => $then,
            NfsReplyBody::WriteVerf($results) => $then,
            NfsReplyBody::Commit($results) => $then,
            NfsReplyBody::Renew($results) => $then,
            NfsReplyBody::Lock($results) => $then,
        }
    };
}

impl NfsReplyBody {
    /// The NFS status carried by the reply.
    pub fn status(&self) -> NfsStatus {
        match self {
            NfsReplyBody::Attr(r) => r.status(),
            NfsReplyBody::DirOp(r) => r.status(),
            NfsReplyBody::Read(r) => r.status(),
            NfsReplyBody::Status(s) => *s,
            NfsReplyBody::Readdir(r) => r.status(),
            NfsReplyBody::Statfs(r) => r.status(),
            NfsReplyBody::WriteVerf(r) => r.status(),
            NfsReplyBody::Commit(r) => r.status(),
            NfsReplyBody::Renew(r) => r.status(),
            NfsReplyBody::Lock(r) => r.status(),
        }
    }

    /// `true` if the reply reports success.
    pub fn is_ok(&self) -> bool {
        self.status().is_ok()
    }

    fn tag(&self) -> u32 {
        match self {
            NfsReplyBody::Attr(_) => 1,
            NfsReplyBody::DirOp(_) => 2,
            NfsReplyBody::Read(_) => 3,
            NfsReplyBody::Status(_) => 4,
            NfsReplyBody::Readdir(_) => 5,
            NfsReplyBody::Statfs(_) => 6,
            NfsReplyBody::WriteVerf(_) => 7,
            NfsReplyBody::Commit(_) => 8,
            NfsReplyBody::Renew(_) => 9,
            NfsReplyBody::Lock(_) => 10,
        }
    }
}

/// A complete NFS reply: the transaction id it answers plus a typed body.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NfsReply {
    /// The transaction this reply answers.
    pub xid: Xid,
    /// Procedure-specific results.
    pub body: NfsReplyBody,
}

impl NfsReply {
    /// Bundle a transaction id with a reply body.
    pub fn new(xid: Xid, body: NfsReplyBody) -> Self {
        NfsReply { xid, body }
    }

    /// Serialise to wire bytes (RPC reply header + a body tag + XDR results).
    ///
    /// The body tag is a one-word extension over the strict v2 wire format:
    /// real NFS clients know which procedure a reply answers by matching the
    /// xid against their outstanding-call table, but the simulation's decoder
    /// is stateless, so the tag makes parsing self-contained.  The size cost
    /// (4 bytes) is negligible relative to header sizes.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut enc = XdrEncoder::with_capacity(self.wire_size());
        RpcReplyHeader { xid: self.xid }.encode(&mut enc);
        self.body.tag().encode(&mut enc);
        with_results!(&self.body, |results| results.encode(&mut enc));
        enc.into_bytes()
    }

    /// Parse a reply from wire bytes.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, XdrError> {
        let mut dec = XdrDecoder::new(bytes);
        let header = RpcReplyHeader::decode(&mut dec)?;
        let tag = dec.get_u32()?;
        let body = match tag {
            1 => NfsReplyBody::Attr(StatusReply::decode(&mut dec)?),
            2 => NfsReplyBody::DirOp(StatusReply::decode(&mut dec)?),
            3 => NfsReplyBody::Read(StatusReply::decode(&mut dec)?),
            4 => NfsReplyBody::Status(NfsStatus::decode(&mut dec)?),
            5 => NfsReplyBody::Readdir(StatusReply::decode(&mut dec)?),
            6 => NfsReplyBody::Statfs(StatusReply::decode(&mut dec)?),
            7 => NfsReplyBody::WriteVerf(StatusReply::decode(&mut dec)?),
            8 => NfsReplyBody::Commit(StatusReply::decode(&mut dec)?),
            9 => NfsReplyBody::Renew(StatusReply::decode(&mut dec)?),
            10 => NfsReplyBody::Lock(StatusReply::decode(&mut dec)?),
            other => {
                return Err(XdrError::InvalidEnum {
                    type_name: "NfsReplyBody(tag)",
                    value: other,
                })
            }
        };
        if dec.remaining() != 0 {
            return Err(XdrError::TrailingBytes(dec.remaining()));
        }
        Ok(NfsReply {
            xid: header.xid,
            body,
        })
    }

    /// The size of this reply on the wire, in bytes: the sizes of the three
    /// values [`NfsReply::to_wire`] encodes, read off their layouts without
    /// encoding or allocating anything.
    pub fn wire_size(&self) -> usize {
        RpcReplyHeader { xid: self.xid }.xdr_size()
            + self.body.tag().xdr_size()
            + with_results!(&self.body, |results| results.xdr_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::FileHandle;
    use crate::NFS_MAXDATA;

    fn fh() -> FileHandle {
        FileHandle::new(1, 10, 1)
    }

    fn listing(names: &[&str]) -> DirListing {
        DirListing::from_sorted(names.iter().map(|n| (*n).into())).expect("sorted names")
    }

    /// A READDIR listing spanning several runs, with name lengths 1..=7 so
    /// every XDR padding case appears.
    fn many_runs() -> DirListing {
        let names: std::collections::BTreeSet<std::sync::Arc<str>> = (0..300)
            .map(|i| format!("{i:0w$}", w = 1 + i % 7).into())
            .collect();
        DirListing::from_sorted(names).expect("a set iterates in order")
    }

    #[test]
    fn write_call_roundtrip_and_size() {
        let call = NfsCall::new(
            Xid(1001),
            NfsCallBody::Write(WriteArgs::new(fh(), 16384, vec![7u8; NFS_MAXDATA as usize])),
        );
        let wire = call.to_wire();
        // An 8 KB write occupies a bit more than 8 KB on the wire.
        assert!(wire.len() > NFS_MAXDATA as usize);
        assert!(wire.len() < NFS_MAXDATA as usize + 256);
        let back = NfsCall::from_wire(&wire).unwrap();
        assert_eq!(back, call);
        assert_eq!(back.body.procedure(), ProcNumber::Write);
    }

    #[test]
    fn every_call_body_roundtrips() {
        let bodies = vec![
            NfsCallBody::Getattr(GetattrArgs { file: fh() }),
            NfsCallBody::Setattr(SetattrArgs {
                file: fh(),
                attributes: crate::Sattr::with_mode(0o644),
            }),
            NfsCallBody::Lookup(DirOpArgs {
                dir: fh(),
                name: "a.txt".into(),
            }),
            NfsCallBody::Read(ReadArgs {
                file: fh(),
                offset: 0,
                count: 8192,
                totalcount: 0,
            }),
            NfsCallBody::Write(WriteArgs::new(fh(), 0, vec![1, 2, 3])),
            NfsCallBody::Create(CreateArgs {
                where_: DirOpArgs {
                    dir: fh(),
                    name: "new".into(),
                },
                attributes: crate::Sattr::with_mode(0o600),
            }),
            NfsCallBody::Remove(DirOpArgs {
                dir: fh(),
                name: "old".into(),
            }),
            NfsCallBody::Readdir(ReaddirArgs {
                dir: fh(),
                cookie: 0,
                count: 1024,
            }),
            NfsCallBody::Statfs(GetattrArgs { file: fh() }),
            NfsCallBody::Commit(CommitArgs {
                file: fh(),
                offset: 0,
                count: 65536,
            }),
            NfsCallBody::Write(
                WriteArgs::new(fh(), 0, vec![4, 5, 6])
                    .with_stability(crate::procs::StableHow::Unstable),
            ),
            NfsCallBody::Renew(RenewArgs {
                client_id: 3,
                verifier: 0xFEED_F00D,
            }),
            NfsCallBody::Lock(LockArgs {
                file: fh(),
                client_id: 3,
                stateid: 3,
                seqid: 1,
                offset: 0,
                count: 8192,
                reclaim: false,
            }),
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let call = NfsCall::new(Xid(i as u32), body);
            let back = NfsCall::from_wire(&call.to_wire()).unwrap();
            assert_eq!(back, call);
        }
    }

    #[test]
    fn every_reply_body_roundtrips() {
        let replies = vec![
            NfsReplyBody::Attr(StatusReply::Ok(Fattr::default())),
            NfsReplyBody::Attr(StatusReply::Err(NfsStatus::NoSpc)),
            NfsReplyBody::DirOp(StatusReply::Ok(DirOpOk {
                file: fh(),
                attributes: Fattr::default(),
            })),
            NfsReplyBody::DirOp(StatusReply::Err(NfsStatus::NoEnt)),
            NfsReplyBody::Read(StatusReply::Ok(ReadOk {
                attributes: Fattr::default(),
                data: vec![9; 100].into(),
            })),
            NfsReplyBody::Status(NfsStatus::Ok),
            NfsReplyBody::Status(NfsStatus::Stale),
            NfsReplyBody::Readdir(StatusReply::Ok(listing(&["a", "b"]))),
            NfsReplyBody::Readdir(StatusReply::Ok(many_runs())),
            NfsReplyBody::Statfs(StatusReply::Ok(StatfsOk {
                tsize: 8192,
                bsize: 8192,
                blocks: 1,
                bfree: 1,
                bavail: 1,
            })),
            NfsReplyBody::WriteVerf(StatusReply::Ok(WriteVerfOk {
                attributes: Fattr::default(),
                committed: crate::procs::StableHow::Unstable,
                verf: 0x1122_3344_5566_7788,
            })),
            NfsReplyBody::WriteVerf(StatusReply::Err(NfsStatus::NoSpc)),
            NfsReplyBody::Commit(StatusReply::Ok(CommitOk {
                attributes: Fattr::default(),
                verf: 42,
            })),
            NfsReplyBody::Commit(StatusReply::Err(NfsStatus::Io)),
            NfsReplyBody::Renew(StatusReply::Ok(RenewOk {
                verf: 0x1994_0606,
                in_grace: true,
            })),
            NfsReplyBody::Renew(StatusReply::Err(NfsStatus::Expired)),
            NfsReplyBody::Lock(StatusReply::Ok(LockOk {
                stateid: 3,
                seqid: 1,
            })),
            NfsReplyBody::Lock(StatusReply::Err(NfsStatus::Grace)),
            NfsReplyBody::Lock(StatusReply::Err(NfsStatus::Denied)),
        ];
        for (i, body) in replies.into_iter().enumerate() {
            let reply = NfsReply::new(Xid(i as u32), body);
            let back = NfsReply::from_wire(&reply.to_wire()).unwrap();
            assert_eq!(back, reply);
        }
    }

    /// The arithmetic `wire_size` must agree with the real encoder for every
    /// call and reply shape the simulation produces, including names and
    /// payloads whose lengths exercise XDR padding.
    #[test]
    fn wire_sizes_match_real_encodings() {
        use crate::payload::Payload;
        let calls = vec![
            NfsCallBody::Getattr(GetattrArgs { file: fh() }),
            NfsCallBody::Statfs(GetattrArgs { file: fh() }),
            NfsCallBody::Setattr(SetattrArgs {
                file: fh(),
                attributes: crate::Sattr::with_mode(0o644),
            }),
            NfsCallBody::Lookup(DirOpArgs {
                dir: fh(),
                name: "a".into(),
            }),
            NfsCallBody::Lookup(DirOpArgs {
                dir: fh(),
                name: "abcd".into(),
            }),
            NfsCallBody::Remove(DirOpArgs {
                dir: fh(),
                name: "abcde".into(),
            }),
            NfsCallBody::Read(ReadArgs {
                file: fh(),
                offset: 0,
                count: 8192,
                totalcount: 0,
            }),
            NfsCallBody::Write(WriteArgs::new(fh(), 0, Payload::fill(7, NFS_MAXDATA))),
            NfsCallBody::Write(WriteArgs::new(fh(), 0, vec![1, 2, 3])),
            NfsCallBody::Write(WriteArgs::new(fh(), 0, Vec::new())),
            NfsCallBody::Create(CreateArgs {
                where_: DirOpArgs {
                    dir: fh(),
                    name: "scratch_01".into(),
                },
                attributes: crate::Sattr::with_mode(0o600),
            }),
            NfsCallBody::Readdir(ReaddirArgs {
                dir: fh(),
                cookie: 0,
                count: 4096,
            }),
            NfsCallBody::Commit(CommitArgs {
                file: fh(),
                offset: 8192,
                count: 0,
            }),
            NfsCallBody::Write(
                WriteArgs::new(fh(), 0, Payload::fill(7, 8192))
                    .with_stability(crate::procs::StableHow::Unstable),
            ),
            NfsCallBody::Renew(RenewArgs {
                client_id: 7,
                verifier: u64::MAX,
            }),
            NfsCallBody::Lock(LockArgs {
                file: fh(),
                client_id: 7,
                stateid: 7,
                seqid: 9,
                offset: 4096,
                count: 0,
                reclaim: true,
            }),
        ];
        for body in calls {
            let call = NfsCall::new(Xid(9), body);
            assert_eq!(
                call.wire_size(),
                call.to_wire().len(),
                "{:?}",
                call.body.procedure()
            );
        }

        let replies = vec![
            NfsReplyBody::Attr(StatusReply::Ok(Fattr::default())),
            NfsReplyBody::Attr(StatusReply::Err(NfsStatus::NoSpc)),
            NfsReplyBody::DirOp(StatusReply::Ok(DirOpOk {
                file: fh(),
                attributes: Fattr::default(),
            })),
            NfsReplyBody::DirOp(StatusReply::Err(NfsStatus::NoEnt)),
            NfsReplyBody::Read(StatusReply::Ok(ReadOk {
                attributes: Fattr::default(),
                data: crate::Payload::fill(9, 100),
            })),
            NfsReplyBody::Read(StatusReply::Ok(ReadOk {
                attributes: Fattr::default(),
                data: vec![1, 2, 3, 4, 5].into(),
            })),
            NfsReplyBody::Read(StatusReply::Err(NfsStatus::Io)),
            NfsReplyBody::Status(NfsStatus::Stale),
            NfsReplyBody::Readdir(StatusReply::Ok(listing(&["a", "file_with_longer_name"]))),
            NfsReplyBody::Readdir(StatusReply::Ok(many_runs())),
            NfsReplyBody::Readdir(StatusReply::Ok(DirListing::default())),
            NfsReplyBody::Readdir(StatusReply::Err(NfsStatus::NotDir)),
            NfsReplyBody::Statfs(StatusReply::Ok(StatfsOk {
                tsize: 8192,
                bsize: 8192,
                blocks: 1,
                bfree: 1,
                bavail: 1,
            })),
            NfsReplyBody::Statfs(StatusReply::Err(NfsStatus::Io)),
            NfsReplyBody::WriteVerf(StatusReply::Ok(WriteVerfOk {
                attributes: Fattr::default(),
                committed: crate::procs::StableHow::FileSync,
                verf: u64::MAX,
            })),
            NfsReplyBody::WriteVerf(StatusReply::Err(NfsStatus::NoSpc)),
            NfsReplyBody::Commit(StatusReply::Ok(CommitOk {
                attributes: Fattr::default(),
                verf: 7,
            })),
            NfsReplyBody::Commit(StatusReply::Err(NfsStatus::Stale)),
            NfsReplyBody::Renew(StatusReply::Ok(RenewOk {
                verf: 1,
                in_grace: false,
            })),
            NfsReplyBody::Renew(StatusReply::Err(NfsStatus::Expired)),
            NfsReplyBody::Lock(StatusReply::Ok(LockOk {
                stateid: 1,
                seqid: 2,
            })),
            NfsReplyBody::Lock(StatusReply::Err(NfsStatus::Grace)),
        ];
        for body in replies {
            let reply = NfsReply::new(Xid(9), body);
            assert_eq!(reply.wire_size(), reply.to_wire().len(), "{:?}", reply.body);
        }
    }

    /// Random draws for the fuzz below.
    mod draw {
        use super::*;
        use crate::attr::{FileType, Sattr, Timeval};
        use crate::payload::Payload;
        use crate::procs::StableHow;
        use std::collections::BTreeSet;
        use std::sync::Arc;
        use wg_simcore::SimRng;

        pub fn word(rng: &mut SimRng) -> u32 {
            rng.next_u64() as u32
        }

        pub fn handle(rng: &mut SimRng) -> FileHandle {
            FileHandle::new(word(rng), rng.next_u64(), word(rng))
        }

        fn time(rng: &mut SimRng) -> Timeval {
            Timeval {
                seconds: word(rng),
                useconds: word(rng),
            }
        }

        pub fn fattr(rng: &mut SimRng) -> Fattr {
            Fattr {
                ftype: FileType::from_code(rng.next_below(6) as u32).unwrap(),
                mode: word(rng),
                nlink: word(rng),
                uid: word(rng),
                gid: word(rng),
                size: word(rng),
                blocksize: word(rng),
                rdev: word(rng),
                blocks: word(rng),
                fsid: word(rng),
                fileid: word(rng),
                atime: time(rng),
                mtime: time(rng),
                ctime: time(rng),
            }
        }

        pub fn sattr(rng: &mut SimRng) -> Sattr {
            Sattr {
                mode: word(rng),
                uid: word(rng),
                gid: word(rng),
                size: word(rng),
                atime: time(rng),
                mtime: time(rng),
            }
        }

        pub fn stable(rng: &mut SimRng) -> StableHow {
            StableHow::from_wire(rng.next_below(2) as u32)
        }

        /// A name of 0 to 255 bytes.
        pub fn name(rng: &mut SimRng) -> Arc<str> {
            let len = rng.next_below(256);
            let name: String = (0..len)
                .map(|_| char::from(b'a' + rng.next_below(26) as u8))
                .collect();
            name.into()
        }

        pub fn dir_op(rng: &mut SimRng) -> DirOpArgs {
            DirOpArgs {
                dir: handle(rng),
                name: name(rng),
            }
        }

        /// A fill or a shared payload of 0 to 8,192 bytes.
        pub fn payload(rng: &mut SimRng) -> Payload {
            let len = rng.next_below(8193) as usize;
            if rng.chance(0.5) {
                return Payload::fill(word(rng) as u8, len as u32);
            }
            let mut bytes = vec![0; len];
            rng.fill_bytes(&mut bytes);
            Payload::from(bytes.as_slice())
        }

        /// A listing of 0 to 300 names.
        pub fn listing(rng: &mut SimRng) -> DirListing {
            let len = rng.next_below(301) as usize;
            let mut names = BTreeSet::new();
            while names.len() < len {
                names.insert(name(rng));
            }
            DirListing::from_sorted(names).expect("a set iterates in order")
        }

        /// Any status but `Ok`, drawn from the RFC 1094 range and the
        /// grafted codes without restating the table.
        pub fn error(rng: &mut SimRng) -> NfsStatus {
            loop {
                let code = match rng.next_below(2) {
                    0 => 1 + rng.next_below(70),
                    _ => 10_010 + rng.next_below(4),
                };
                if let Ok(status) = NfsStatus::from_code(code as u32) {
                    return status;
                }
            }
        }

        /// Either arm of a status reply.
        pub fn reply<T>(rng: &mut SimRng, ok: impl FnOnce(&mut SimRng) -> T) -> StatusReply<T> {
            if rng.chance(0.5) {
                StatusReply::Ok(ok(rng))
            } else {
                StatusReply::Err(error(rng))
            }
        }
    }

    /// Seeded random values of every call and reply body: both arms of
    /// every status reply, both `StableHow` values, fill and shared payloads
    /// of 0 to 8,192 bytes, names of 0 to 255 bytes, listings of 0 to 300
    /// names and random attributes.  Each message's `wire_size` must equal
    /// the length of its encoding, each body value's `xdr_size` the length
    /// of its own, and `from_wire` must give the message back.  The CI
    /// release step reruns it at optimised speed.
    #[test]
    fn differential_fuzz_wire_sizes_match_encodings() {
        use draw::*;
        use wg_simcore::SimRng;
        use wg_xdr::to_bytes;
        let mut rng = SimRng::seed_from(38);
        for _ in 0..4_000 {
            let r = &mut rng;
            let body = match r.next_below(12) {
                0 => NfsCallBody::Getattr(GetattrArgs { file: handle(r) }),
                1 => NfsCallBody::Setattr(SetattrArgs {
                    file: handle(r),
                    attributes: sattr(r),
                }),
                2 => NfsCallBody::Lookup(dir_op(r)),
                3 => NfsCallBody::Read(ReadArgs {
                    file: handle(r),
                    offset: word(r),
                    count: word(r),
                    totalcount: word(r),
                }),
                4 => NfsCallBody::Write(
                    WriteArgs::new(handle(r), word(r), payload(r)).with_stability(stable(r)),
                ),
                5 => NfsCallBody::Create(CreateArgs {
                    where_: dir_op(r),
                    attributes: sattr(r),
                }),
                6 => NfsCallBody::Remove(dir_op(r)),
                7 => NfsCallBody::Readdir(ReaddirArgs {
                    dir: handle(r),
                    cookie: word(r),
                    count: word(r),
                }),
                8 => NfsCallBody::Statfs(GetattrArgs { file: handle(r) }),
                9 => NfsCallBody::Commit(CommitArgs {
                    file: handle(r),
                    offset: word(r),
                    count: word(r),
                }),
                10 => NfsCallBody::Renew(RenewArgs {
                    client_id: word(r),
                    verifier: r.next_u64(),
                }),
                _ => NfsCallBody::Lock(LockArgs {
                    file: handle(r),
                    client_id: word(r),
                    stateid: word(r),
                    seqid: word(r),
                    offset: word(r),
                    count: word(r),
                    reclaim: r.chance(0.5),
                }),
            };
            let call = NfsCall::new(Xid(word(r)), body);
            let wire = call.to_wire();
            assert_eq!(call.wire_size(), wire.len(), "{call:?}");
            with_args!(&call.body, |args| {
                assert_eq!(args.xdr_size(), to_bytes(args).len(), "{call:?}")
            });
            assert_eq!(NfsCall::from_wire(&wire).as_ref(), Ok(&call));

            let body = match r.next_below(10) {
                0 => NfsReplyBody::Attr(reply(r, fattr)),
                1 => NfsReplyBody::DirOp(reply(r, |r| DirOpOk {
                    file: handle(r),
                    attributes: fattr(r),
                })),
                2 => NfsReplyBody::Read(reply(r, |r| ReadOk {
                    attributes: fattr(r),
                    data: payload(r),
                })),
                3 if r.chance(0.5) => NfsReplyBody::Status(NfsStatus::Ok),
                3 => NfsReplyBody::Status(error(r)),
                4 => NfsReplyBody::Readdir(reply(r, listing)),
                5 => NfsReplyBody::Statfs(reply(r, |r| StatfsOk {
                    tsize: word(r),
                    bsize: word(r),
                    blocks: word(r),
                    bfree: word(r),
                    bavail: word(r),
                })),
                6 => NfsReplyBody::WriteVerf(reply(r, |r| WriteVerfOk {
                    attributes: fattr(r),
                    committed: stable(r),
                    verf: r.next_u64(),
                })),
                7 => NfsReplyBody::Commit(reply(r, |r| CommitOk {
                    attributes: fattr(r),
                    verf: r.next_u64(),
                })),
                8 => NfsReplyBody::Renew(reply(r, |r| RenewOk {
                    verf: r.next_u64(),
                    in_grace: r.chance(0.5),
                })),
                _ => NfsReplyBody::Lock(reply(r, |r| LockOk {
                    stateid: word(r),
                    seqid: word(r),
                })),
            };
            let reply = NfsReply::new(Xid(word(r)), body);
            let wire = reply.to_wire();
            assert_eq!(reply.wire_size(), wire.len(), "{reply:?}");
            with_results!(&reply.body, |results| {
                assert_eq!(results.xdr_size(), to_bytes(results).len(), "{reply:?}")
            });
            assert_eq!(NfsReply::from_wire(&wire).as_ref(), Ok(&reply));
        }
    }

    #[test]
    fn reply_status_helpers() {
        let ok = NfsReplyBody::Attr(StatusReply::Ok(Fattr::default()));
        assert!(ok.is_ok());
        let bad = NfsReplyBody::Status(NfsStatus::Io);
        assert!(!bad.is_ok());
        assert_eq!(bad.status(), NfsStatus::Io);
    }

    #[test]
    fn call_and_reply_cannot_be_confused() {
        let call = NfsCall::new(Xid(5), NfsCallBody::Getattr(GetattrArgs { file: fh() }));
        assert!(NfsReply::from_wire(&call.to_wire()).is_err());
        let reply = NfsReply::new(Xid(5), NfsReplyBody::Status(NfsStatus::Ok)).to_wire();
        assert!(NfsCall::from_wire(&reply).is_err());
    }

    #[test]
    fn garbage_wire_bytes_are_rejected_not_panicking() {
        let garbage = vec![0xFF; 40];
        assert!(NfsCall::from_wire(&garbage).is_err());
        assert!(NfsReply::from_wire(&garbage).is_err());
        assert!(NfsCall::from_wire(&[]).is_err());
        // Tag 0, the NULL reply's, is no reply the server sends.
        let mut null_reply = NfsReply::new(Xid(5), NfsReplyBody::Status(NfsStatus::Ok)).to_wire();
        let tag = RpcReplyHeader { xid: Xid(5) }.xdr_size();
        null_reply[tag..tag + 4].fill(0);
        assert_eq!(
            NfsReply::from_wire(&null_reply),
            Err(XdrError::InvalidEnum {
                type_name: "NfsReplyBody(tag)",
                value: 0
            })
        );
    }
}
