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
//! added.

use std::sync::OnceLock;

use crate::attr::{Fattr, NfsStatus, Sattr};
use crate::listing::DirListing;
use crate::procs::{
    CommitArgs, CommitOk, CreateArgs, DirOpArgs, DirOpOk, GetattrArgs, LockArgs, LockOk,
    ProcNumber, ReadArgs, ReadOk, ReaddirArgs, RenewArgs, RenewOk, SetattrArgs, StatfsOk,
    StatusReply, WriteArgs, WriteVerfOk,
};
use crate::rpc::{RpcCallHeader, RpcReplyHeader, Xid};
use crate::NFS_FHSIZE;
use wg_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder, XdrError};

/// Wire size of an XDR variable-length opaque (or string) of `len` bytes:
/// the length word plus the data padded to a 4-byte boundary.
pub(crate) fn opaque_wire_size(len: usize) -> usize {
    4 + len.div_ceil(4) * 4
}

/// Wire size of a full attribute block (fixed at 68 bytes per RFC 1094, but
/// derived from the encoder so the two can never disagree).
fn fattr_wire_size() -> usize {
    static SIZE: OnceLock<usize> = OnceLock::new();
    *SIZE.get_or_init(|| {
        let mut enc = XdrEncoder::new();
        Fattr::default().encode(&mut enc);
        enc.len()
    })
}

/// Wire size of a settable-attribute block (fixed at 32 bytes).
fn sattr_wire_size() -> usize {
    static SIZE: OnceLock<usize> = OnceLock::new();
    *SIZE.get_or_init(|| {
        let mut enc = XdrEncoder::new();
        Sattr::default().encode(&mut enc);
        enc.len()
    })
}

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

    fn encode_args(&self, enc: &mut XdrEncoder) {
        match self {
            NfsCallBody::Getattr(a) | NfsCallBody::Statfs(a) => a.encode(enc),
            NfsCallBody::Setattr(a) => a.encode(enc),
            NfsCallBody::Lookup(a) | NfsCallBody::Remove(a) => a.encode(enc),
            NfsCallBody::Read(a) => a.encode(enc),
            NfsCallBody::Write(a) => a.encode(enc),
            NfsCallBody::Create(a) => a.encode(enc),
            NfsCallBody::Readdir(a) => a.encode(enc),
            NfsCallBody::Commit(a) => a.encode(enc),
            NfsCallBody::Renew(a) => a.encode(enc),
            NfsCallBody::Lock(a) => a.encode(enc),
        }
    }

    /// Encoded size of the procedure arguments, computed arithmetically.
    ///
    /// The simulation's hot loop needs wire sizes for network serialisation
    /// and socket-buffer accounting on every message; materialising the full
    /// encoding (8 KB+ per write) just to measure it was the single largest
    /// allocation source in the simulator.  [`NfsCall::wire_size`] asserts
    /// equality with the real encoder in tests.
    fn args_wire_size(&self) -> usize {
        const FH: usize = NFS_FHSIZE; // file handles are fixed-size opaques
        match self {
            NfsCallBody::Getattr(_) | NfsCallBody::Statfs(_) => FH,
            NfsCallBody::Setattr(_) => FH + sattr_wire_size(),
            NfsCallBody::Lookup(a) | NfsCallBody::Remove(a) => FH + opaque_wire_size(a.name.len()),
            NfsCallBody::Read(_) => FH + 12,
            NfsCallBody::Write(a) => FH + 12 + a.data.xdr_size(),
            NfsCallBody::Create(a) => {
                FH + opaque_wire_size(a.where_.name.len()) + sattr_wire_size()
            }
            NfsCallBody::Readdir(_) => FH + 8,
            NfsCallBody::Commit(_) => FH + 8,
            // client_id word + 8-byte verifier.
            NfsCallBody::Renew(_) => 12,
            // client_id, stateid, seqid, offset, count, reclaim words.
            NfsCallBody::Lock(_) => FH + 24,
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

    /// Serialise to wire bytes (RPC call header + XDR arguments).
    pub fn to_wire(&self) -> Vec<u8> {
        let mut enc = XdrEncoder::with_capacity(256);
        RpcCallHeader {
            xid: self.xid,
            procedure: self.body.procedure(),
        }
        .encode(&mut enc);
        self.body.encode_args(&mut enc);
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

    /// The size of this call on the wire, in bytes.
    ///
    /// Pure arithmetic — nothing is encoded and nothing is allocated.  The
    /// `wire_sizes_match_real_encodings` test pins this against
    /// [`NfsCall::to_wire`] for every procedure.
    pub fn wire_size(&self) -> usize {
        RpcCallHeader::WIRE_SIZE + self.body.args_wire_size()
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

    /// Encoded size of the reply results (excluding header and body tag),
    /// computed arithmetically — see [`NfsCallBody::args_wire_size`].
    fn results_wire_size(&self) -> usize {
        // Every status-discriminated reply starts with the 4-byte status word.
        match self {
            NfsReplyBody::Attr(StatusReply::Ok(_)) => 4 + fattr_wire_size(),
            NfsReplyBody::DirOp(StatusReply::Ok(_)) => 4 + NFS_FHSIZE + fattr_wire_size(),
            NfsReplyBody::Read(StatusReply::Ok(r)) => 4 + fattr_wire_size() + r.data.xdr_size(),
            NfsReplyBody::Readdir(StatusReply::Ok(names)) => 4 + names.xdr_size(),
            NfsReplyBody::Statfs(StatusReply::Ok(_)) => 4 + 20,
            // status + fattr + stable_how word + 8-byte verifier.
            NfsReplyBody::WriteVerf(StatusReply::Ok(_)) => 4 + fattr_wire_size() + 4 + 8,
            // status + fattr + 8-byte verifier.
            NfsReplyBody::Commit(StatusReply::Ok(_)) => 4 + fattr_wire_size() + 8,
            // status + 8-byte verifier + in_grace word.
            NfsReplyBody::Renew(StatusReply::Ok(_)) => 4 + 12,
            // status + stateid + seqid words.
            NfsReplyBody::Lock(StatusReply::Ok(_)) => 4 + 8,
            NfsReplyBody::Attr(StatusReply::Err(_))
            | NfsReplyBody::DirOp(StatusReply::Err(_))
            | NfsReplyBody::Read(StatusReply::Err(_))
            | NfsReplyBody::Readdir(StatusReply::Err(_))
            | NfsReplyBody::Statfs(StatusReply::Err(_))
            | NfsReplyBody::WriteVerf(StatusReply::Err(_))
            | NfsReplyBody::Commit(StatusReply::Err(_))
            | NfsReplyBody::Renew(StatusReply::Err(_))
            | NfsReplyBody::Lock(StatusReply::Err(_))
            | NfsReplyBody::Status(_) => 4,
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
        let mut enc = XdrEncoder::with_capacity(128);
        RpcReplyHeader { xid: self.xid }.encode(&mut enc);
        enc.put_u32(self.body.tag());
        match &self.body {
            NfsReplyBody::Attr(r) => r.encode(&mut enc),
            NfsReplyBody::DirOp(r) => r.encode(&mut enc),
            NfsReplyBody::Read(r) => r.encode(&mut enc),
            NfsReplyBody::Status(s) => s.encode(&mut enc),
            NfsReplyBody::Readdir(r) => r.encode(&mut enc),
            NfsReplyBody::Statfs(r) => r.encode(&mut enc),
            NfsReplyBody::WriteVerf(r) => r.encode(&mut enc),
            NfsReplyBody::Commit(r) => r.encode(&mut enc),
            NfsReplyBody::Renew(r) => r.encode(&mut enc),
            NfsReplyBody::Lock(r) => r.encode(&mut enc),
        }
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

    /// The size of this reply on the wire, in bytes.
    ///
    /// Pure arithmetic — nothing is encoded and nothing is allocated (the
    /// body tag word is included).
    pub fn wire_size(&self) -> usize {
        RpcReplyHeader::WIRE_SIZE + 4 + self.body.results_wire_size()
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
        let tag = RpcReplyHeader::WIRE_SIZE;
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
