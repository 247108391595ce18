//! NFS v2 procedure numbers and their argument/result structures.
//!
//! The write-gathering experiments exercise WRITE heavily, but the SPEC SFS
//! (LADDIS) workload of Figures 2–3 mixes in LOOKUP, GETATTR, READ, READDIR
//! and the other procedures, so the full v2 procedure table is represented
//! here and the structures used by the workload all have real XDR encodings.

use crate::attr::Sattr;
use crate::handle::FileHandle;
use crate::payload::Payload;
use crate::{Fattr, NfsStatus};
use wg_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder, XdrError};

/// The NFS version 2 procedure numbers (RFC 1094 §2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ProcNumber {
    /// Do nothing (used for pinging).
    Null,
    /// Get file attributes.
    Getattr,
    /// Set file attributes.
    Setattr,
    /// Obsolete root procedure.
    Root,
    /// Look up a file name in a directory.
    Lookup,
    /// Read a symbolic link.
    Readlink,
    /// Read from a file.
    Read,
    /// Obsolete write-to-cache procedure.
    Writecache,
    /// Write to a file — the operation this whole repository is about.
    Write,
    /// Create a file.
    Create,
    /// Remove a file.
    Remove,
    /// Rename a file.
    Rename,
    /// Create a hard link.
    Link,
    /// Create a symbolic link.
    Symlink,
    /// Create a directory.
    Mkdir,
    /// Remove a directory.
    Rmdir,
    /// Read entries from a directory.
    Readdir,
    /// Get filesystem statistics.
    Statfs,
    /// Commit cached unstable writes to stable storage (the NFSv3 procedure
    /// this reproduction grafts onto the v2 table as number 18, one past the
    /// v2 range, so the paper's procedures keep their original numbers).
    Commit,
    /// Register a client and renew its lease (the NFSv4 RENEW/SETCLIENTID
    /// pair collapsed into one procedure, grafted past the v2 range like
    /// COMMIT; carries the client's boot verifier so a changed verifier
    /// doubles as re-registration after a client reboot).
    Renew,
    /// Acquire or reclaim a byte-range lock under the client's lease.
    Lock,
    /// Release a byte-range lock.
    Unlock,
}

impl ProcNumber {
    /// The wire procedure number.
    pub fn number(self) -> u32 {
        match self {
            ProcNumber::Null => 0,
            ProcNumber::Getattr => 1,
            ProcNumber::Setattr => 2,
            ProcNumber::Root => 3,
            ProcNumber::Lookup => 4,
            ProcNumber::Readlink => 5,
            ProcNumber::Read => 6,
            ProcNumber::Writecache => 7,
            ProcNumber::Write => 8,
            ProcNumber::Create => 9,
            ProcNumber::Remove => 10,
            ProcNumber::Rename => 11,
            ProcNumber::Link => 12,
            ProcNumber::Symlink => 13,
            ProcNumber::Mkdir => 14,
            ProcNumber::Rmdir => 15,
            ProcNumber::Readdir => 16,
            ProcNumber::Statfs => 17,
            ProcNumber::Commit => 18,
            ProcNumber::Renew => 19,
            ProcNumber::Lock => 20,
            ProcNumber::Unlock => 21,
        }
    }

    /// Parse a wire procedure number.
    pub fn from_number(n: u32) -> Result<Self, XdrError> {
        Ok(match n {
            0 => ProcNumber::Null,
            1 => ProcNumber::Getattr,
            2 => ProcNumber::Setattr,
            3 => ProcNumber::Root,
            4 => ProcNumber::Lookup,
            5 => ProcNumber::Readlink,
            6 => ProcNumber::Read,
            7 => ProcNumber::Writecache,
            8 => ProcNumber::Write,
            9 => ProcNumber::Create,
            10 => ProcNumber::Remove,
            11 => ProcNumber::Rename,
            12 => ProcNumber::Link,
            13 => ProcNumber::Symlink,
            14 => ProcNumber::Mkdir,
            15 => ProcNumber::Rmdir,
            16 => ProcNumber::Readdir,
            17 => ProcNumber::Statfs,
            18 => ProcNumber::Commit,
            19 => ProcNumber::Renew,
            20 => ProcNumber::Lock,
            21 => ProcNumber::Unlock,
            other => {
                return Err(XdrError::InvalidEnum {
                    type_name: "ProcNumber",
                    value: other,
                })
            }
        })
    }
}

/// Arguments of GETATTR: just the file handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GetattrArgs {
    /// Target file.
    pub file: FileHandle,
}

impl XdrEncode for GetattrArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.file.encode(enc);
    }
}

impl XdrDecode for GetattrArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(GetattrArgs {
            file: FileHandle::decode(dec)?,
        })
    }
}

/// Arguments of SETATTR.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SetattrArgs {
    /// Target file.
    pub file: FileHandle,
    /// Attributes to change.
    pub attributes: Sattr,
}

impl XdrEncode for SetattrArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.file.encode(enc);
        self.attributes.encode(enc);
    }
}

impl XdrDecode for SetattrArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(SetattrArgs {
            file: FileHandle::decode(dec)?,
            attributes: Sattr::decode(dec)?,
        })
    }
}

/// Arguments naming an entry within a directory (LOOKUP, and the directory
/// halves of CREATE/REMOVE/MKDIR/RMDIR).
///
/// The name is a refcounted `Arc<str>` rather than an owned `String`: load
/// generators issue millions of LOOKUPs against a fixed namespace, and an
/// interned name lets them build each call body with a pointer bump instead
/// of a heap allocation per operation.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DirOpArgs {
    /// The directory file handle.
    pub dir: FileHandle,
    /// The entry name (shared, clone-without-allocating).
    pub name: std::sync::Arc<str>,
}

impl XdrEncode for DirOpArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.dir.encode(enc);
        enc.put_string(&self.name);
    }
}

impl XdrDecode for DirOpArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(DirOpArgs {
            dir: FileHandle::decode(dec)?,
            name: dec.get_string()?.into(),
        })
    }
}

/// Arguments of LOOKUP (alias of [`DirOpArgs`], kept as its own name for
/// call-site clarity).
pub type LookupArgs = DirOpArgs;

/// Arguments of REMOVE / RMDIR (alias of [`DirOpArgs`]).
pub type RemoveArgs = DirOpArgs;

/// The successful result of LOOKUP and CREATE: the new handle plus its
/// attributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DirOpOk {
    /// Handle of the found or created file.
    pub file: FileHandle,
    /// Its attributes.
    pub attributes: Fattr,
}

impl XdrEncode for DirOpOk {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.file.encode(enc);
        self.attributes.encode(enc);
    }
}

impl XdrDecode for DirOpOk {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(DirOpOk {
            file: FileHandle::decode(dec)?,
            attributes: Fattr::decode(dec)?,
        })
    }
}

/// Arguments of READ.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ReadArgs {
    /// Target file.
    pub file: FileHandle,
    /// Byte offset to read from.
    pub offset: u32,
    /// Number of bytes to read (at most [`crate::NFS_MAXDATA`]).
    pub count: u32,
    /// Hint field present in the v2 protocol but unused by servers.
    pub totalcount: u32,
}

impl XdrEncode for ReadArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.file.encode(enc);
        enc.put_u32(self.offset);
        enc.put_u32(self.count);
        enc.put_u32(self.totalcount);
    }
}

impl XdrDecode for ReadArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(ReadArgs {
            file: FileHandle::decode(dec)?,
            offset: dec.get_u32()?,
            count: dec.get_u32()?,
            totalcount: dec.get_u32()?,
        })
    }
}

/// The successful result of READ: post-read attributes and the data.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ReadOk {
    /// File attributes after the read.
    pub attributes: Fattr,
    /// The bytes read (shared, so caching and replaying the reply is cheap).
    pub data: Payload,
}

impl XdrEncode for ReadOk {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.attributes.encode(enc);
        self.data.encode(enc);
    }
}

impl XdrDecode for ReadOk {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(ReadOk {
            attributes: Fattr::decode(dec)?,
            data: Payload::decode(dec)?,
        })
    }
}

/// How stable a WRITE must be before the server may reply — the NFSv3
/// `stable_how` argument, carried in the v2 message's obsolete `beginoffset`
/// field so the default (`FileSync`, encoded as 0) keeps every v2 write
/// byte-identical on the wire.
///
/// The wire values therefore differ from RFC 1813 (which puts UNSTABLE at 0):
/// here 0 must mean "fully synchronous" because that is what a zeroed
/// obsolete field has always meant to this server.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum StableHow {
    /// Data and metadata must be on stable storage before the reply (the v2
    /// semantics; the default).
    #[default]
    FileSync,
    /// The server may reply once the data is cached in volatile memory; the
    /// client must hold its copy until a matching COMMIT succeeds.
    Unstable,
    /// Data must be stable but metadata may be deferred.
    DataSync,
}

impl StableHow {
    /// The wire encoding (the value carried in `beginoffset`).
    pub fn to_wire(self) -> u32 {
        match self {
            StableHow::FileSync => 0,
            StableHow::Unstable => 1,
            StableHow::DataSync => 2,
        }
    }

    /// Decode a wire value; anything unknown is treated as the conservative
    /// `FileSync` (an old client writing garbage into an obsolete field gets
    /// the strongest guarantee, never a weaker one).
    pub fn from_wire(v: u32) -> Self {
        match v {
            1 => StableHow::Unstable,
            2 => StableHow::DataSync,
            _ => StableHow::FileSync,
        }
    }
}

/// A server boot instance verifier: changes on every reboot so clients can
/// detect that cached unstable writes died with a crash and must be re-sent.
pub type WriteVerf = u64;

/// Arguments of WRITE — the request at the heart of the paper.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WriteArgs {
    /// Target file.
    pub file: FileHandle,
    /// Obsolete field kept for wire compatibility ("beginoffset").
    pub beginoffset: u32,
    /// Byte offset at which to write.
    pub offset: u32,
    /// Obsolete field kept for wire compatibility ("totalcount").
    pub totalcount: u32,
    /// The data to write (at most [`crate::NFS_MAXDATA`] bytes), carried
    /// without per-copy allocation (see [`Payload`]).
    pub data: Payload,
}

impl WriteArgs {
    /// Convenience constructor for the common case.
    pub fn new(file: FileHandle, offset: u32, data: impl Into<Payload>) -> Self {
        let data = data.into();
        WriteArgs {
            file,
            beginoffset: 0,
            offset,
            totalcount: data.len() as u32,
            data,
        }
    }

    /// A write of `len` repetitions of `byte` — the synthetic-workload case,
    /// allocation-free end to end.
    pub fn fill(file: FileHandle, offset: u32, byte: u8, len: u32) -> Self {
        WriteArgs::new(file, offset, Payload::fill(byte, len))
    }

    /// Request a different stability level (see [`StableHow`]); the default
    /// constructors produce `FileSync`, whose encoding is the all-zero
    /// obsolete field of a v2 write.
    pub fn with_stability(mut self, stable: StableHow) -> Self {
        self.beginoffset = stable.to_wire();
        self
    }

    /// The stability this write requests.
    pub fn stable_how(&self) -> StableHow {
        StableHow::from_wire(self.beginoffset)
    }

    /// Number of data bytes carried.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if this write carries no data.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl XdrEncode for WriteArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.file.encode(enc);
        enc.put_u32(self.beginoffset);
        enc.put_u32(self.offset);
        enc.put_u32(self.totalcount);
        self.data.encode(enc);
    }
}

impl XdrDecode for WriteArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(WriteArgs {
            file: FileHandle::decode(dec)?,
            beginoffset: dec.get_u32()?,
            offset: dec.get_u32()?,
            totalcount: dec.get_u32()?,
            data: Payload::decode(dec)?,
        })
    }
}

/// Arguments of COMMIT: flush the given byte range (count = 0 means "to the
/// end of the file") of previously-unstable writes to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CommitArgs {
    /// Target file.
    pub file: FileHandle,
    /// Start of the range to commit.
    pub offset: u32,
    /// Length of the range (0 = everything from `offset` on).
    pub count: u32,
}

impl XdrEncode for CommitArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.file.encode(enc);
        enc.put_u32(self.offset);
        enc.put_u32(self.count);
    }
}

impl XdrDecode for CommitArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(CommitArgs {
            file: FileHandle::decode(dec)?,
            offset: dec.get_u32()?,
            count: dec.get_u32()?,
        })
    }
}

/// The successful result of a WRITE answered by a server running the
/// unstable-write protocol: post-write attributes, how far the data actually
/// got, and the boot verifier the client checks at COMMIT time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WriteVerfOk {
    /// File attributes after the write.
    pub attributes: Fattr,
    /// The stability the server actually provided (it may promote an
    /// UNSTABLE request to `FileSync`, e.g. while NVRAM runs degraded).
    pub committed: StableHow,
    /// The server's boot instance verifier.
    pub verf: WriteVerf,
}

impl XdrEncode for WriteVerfOk {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.attributes.encode(enc);
        enc.put_u32(self.committed.to_wire());
        enc.put_u64(self.verf);
    }
}

impl XdrDecode for WriteVerfOk {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(WriteVerfOk {
            attributes: Fattr::decode(dec)?,
            committed: StableHow::from_wire(dec.get_u32()?),
            verf: dec.get_u64()?,
        })
    }
}

/// The successful result of COMMIT: post-flush attributes plus the boot
/// verifier (a mismatch against the one seen at write time tells the client
/// the server rebooted and its cached writes must be re-sent).
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CommitOk {
    /// File attributes after the flush.
    pub attributes: Fattr,
    /// The server's boot instance verifier.
    pub verf: WriteVerf,
}

impl XdrEncode for CommitOk {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.attributes.encode(enc);
        enc.put_u64(self.verf);
    }
}

impl XdrDecode for CommitOk {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(CommitOk {
            attributes: Fattr::decode(dec)?,
            verf: dec.get_u64()?,
        })
    }
}

/// Arguments of RENEW: register (or re-register) the client and renew its
/// lease.  A verifier that differs from the one on record means the client
/// rebooted: the server discards the old incarnation's state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RenewArgs {
    /// The client's stable identity.
    pub client_id: u32,
    /// The client's boot instance verifier.
    pub verifier: u64,
}

impl XdrEncode for RenewArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(self.client_id);
        enc.put_u64(self.verifier);
    }
}

impl XdrDecode for RenewArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(RenewArgs {
            client_id: dec.get_u32()?,
            verifier: dec.get_u64()?,
        })
    }
}

/// The successful result of RENEW: the server's boot verifier (a change
/// tells the client the server rebooted and held locks must be reclaimed)
/// and whether the server is currently in its grace period.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RenewOk {
    /// The server's boot instance verifier.
    pub verf: WriteVerf,
    /// `true` while the post-crash grace period is open.
    pub in_grace: bool,
}

impl XdrEncode for RenewOk {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u64(self.verf);
        enc.put_u32(self.in_grace as u32);
    }
}

impl XdrDecode for RenewOk {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(RenewOk {
            verf: dec.get_u64()?,
            in_grace: dec.get_u32()? != 0,
        })
    }
}

/// Arguments of LOCK: acquire (or, during grace, reclaim) a byte-range lock
/// keyed by `(client_id, stateid, seqid)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LockArgs {
    /// Target file.
    pub file: FileHandle,
    /// The owning client.
    pub client_id: u32,
    /// The lock-owner state identifier chosen by the client.
    pub stateid: u32,
    /// Per-owner sequence number; the server rejects replays and reordering
    /// by requiring strict monotonicity.
    pub seqid: u32,
    /// Start of the locked range.
    pub offset: u32,
    /// Length of the locked range (0 = to end of file).
    pub count: u32,
    /// `true` when re-asserting a lock held before a server crash; only
    /// admitted during the grace period.
    pub reclaim: bool,
}

impl XdrEncode for LockArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.file.encode(enc);
        enc.put_u32(self.client_id);
        enc.put_u32(self.stateid);
        enc.put_u32(self.seqid);
        enc.put_u32(self.offset);
        enc.put_u32(self.count);
        enc.put_u32(self.reclaim as u32);
    }
}

impl XdrDecode for LockArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(LockArgs {
            file: FileHandle::decode(dec)?,
            client_id: dec.get_u32()?,
            stateid: dec.get_u32()?,
            seqid: dec.get_u32()?,
            offset: dec.get_u32()?,
            count: dec.get_u32()?,
            reclaim: dec.get_u32()? != 0,
        })
    }
}

/// The successful result of LOCK: the granted state identity echoed back.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LockOk {
    /// The lock-owner state identifier.
    pub stateid: u32,
    /// The sequence number the grant consumed.
    pub seqid: u32,
}

impl XdrEncode for LockOk {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(self.stateid);
        enc.put_u32(self.seqid);
    }
}

impl XdrDecode for LockOk {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(LockOk {
            stateid: dec.get_u32()?,
            seqid: dec.get_u32()?,
        })
    }
}

/// Arguments of UNLOCK: release a byte-range lock.  The reply is a bare
/// status.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct UnlockArgs {
    /// Target file.
    pub file: FileHandle,
    /// The owning client.
    pub client_id: u32,
    /// The lock-owner state identifier.
    pub stateid: u32,
    /// Per-owner sequence number (same monotonicity rule as LOCK).
    pub seqid: u32,
    /// Start of the range to release.
    pub offset: u32,
    /// Length of the range to release.
    pub count: u32,
}

impl XdrEncode for UnlockArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.file.encode(enc);
        enc.put_u32(self.client_id);
        enc.put_u32(self.stateid);
        enc.put_u32(self.seqid);
        enc.put_u32(self.offset);
        enc.put_u32(self.count);
    }
}

impl XdrDecode for UnlockArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(UnlockArgs {
            file: FileHandle::decode(dec)?,
            client_id: dec.get_u32()?,
            stateid: dec.get_u32()?,
            seqid: dec.get_u32()?,
            offset: dec.get_u32()?,
            count: dec.get_u32()?,
        })
    }
}

/// Arguments of CREATE / MKDIR.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CreateArgs {
    /// Directory and name to create in.
    pub where_: DirOpArgs,
    /// Initial attributes.
    pub attributes: Sattr,
}

impl XdrEncode for CreateArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.where_.encode(enc);
        self.attributes.encode(enc);
    }
}

impl XdrDecode for CreateArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(CreateArgs {
            where_: DirOpArgs::decode(dec)?,
            attributes: Sattr::decode(dec)?,
        })
    }
}

/// Arguments of READDIR.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ReaddirArgs {
    /// Directory to list.
    pub dir: FileHandle,
    /// Opaque resume cookie (0 to start).
    pub cookie: u32,
    /// Maximum reply size the client will accept.
    pub count: u32,
}

impl XdrEncode for ReaddirArgs {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.dir.encode(enc);
        enc.put_u32(self.cookie);
        enc.put_u32(self.count);
    }
}

impl XdrDecode for ReaddirArgs {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(ReaddirArgs {
            dir: FileHandle::decode(dec)?,
            cookie: dec.get_u32()?,
            count: dec.get_u32()?,
        })
    }
}

/// The successful result of STATFS.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StatfsOk {
    /// Optimal transfer size.
    pub tsize: u32,
    /// Filesystem block size.
    pub bsize: u32,
    /// Total blocks.
    pub blocks: u32,
    /// Free blocks.
    pub bfree: u32,
    /// Blocks available to non-superusers.
    pub bavail: u32,
}

impl XdrEncode for StatfsOk {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(self.tsize);
        enc.put_u32(self.bsize);
        enc.put_u32(self.blocks);
        enc.put_u32(self.bfree);
        enc.put_u32(self.bavail);
    }
}

impl XdrDecode for StatfsOk {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(StatfsOk {
            tsize: dec.get_u32()?,
            bsize: dec.get_u32()?,
            blocks: dec.get_u32()?,
            bfree: dec.get_u32()?,
            bavail: dec.get_u32()?,
        })
    }
}

/// A generic "status or value" reply body used by GETATTR/SETATTR/WRITE
/// (attrstat), LOOKUP/CREATE (diropres), READ (readres) and STATFS.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum StatusReply<T> {
    /// The operation succeeded and produced `T`.
    Ok(T),
    /// The operation failed with the given status.
    Err(NfsStatus),
}

impl<T> StatusReply<T> {
    /// `true` if the reply is a success.
    pub fn is_ok(&self) -> bool {
        matches!(self, StatusReply::Ok(_))
    }

    /// The status code carried by the reply.
    pub fn status(&self) -> NfsStatus {
        match self {
            StatusReply::Ok(_) => NfsStatus::Ok,
            StatusReply::Err(s) => *s,
        }
    }

    /// Build a success body from the value, keeping an error status.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> StatusReply<U> {
        match self {
            StatusReply::Ok(v) => StatusReply::Ok(f(v)),
            StatusReply::Err(s) => StatusReply::Err(s),
        }
    }
}

impl<T: XdrEncode> XdrEncode for StatusReply<T> {
    fn encode(&self, enc: &mut XdrEncoder) {
        match self {
            StatusReply::Ok(v) => {
                NfsStatus::Ok.encode(enc);
                v.encode(enc);
            }
            StatusReply::Err(s) => s.encode(enc),
        }
    }
}

impl<T: XdrDecode> XdrDecode for StatusReply<T> {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let status = NfsStatus::decode(dec)?;
        if status.is_ok() {
            Ok(StatusReply::Ok(T::decode(dec)?))
        } else {
            Ok(StatusReply::Err(status))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_xdr::{from_bytes, to_bytes};

    fn fh() -> FileHandle {
        FileHandle::new(1, 42, 7)
    }

    #[test]
    fn proc_numbers_roundtrip() {
        for n in 0..=21u32 {
            let p = ProcNumber::from_number(n).unwrap();
            assert_eq!(p.number(), n);
        }
        assert!(ProcNumber::from_number(22).is_err());
        assert_eq!(ProcNumber::Write.number(), 8);
        assert_eq!(ProcNumber::Commit.number(), 18);
        assert_eq!(ProcNumber::Renew.number(), 19);
        assert_eq!(ProcNumber::Lock.number(), 20);
        assert_eq!(ProcNumber::Unlock.number(), 21);
    }

    #[test]
    fn state_args_and_results_roundtrip() {
        let renew = RenewArgs {
            client_id: 42,
            verifier: 0x1994_0606_0000_0001,
        };
        assert_eq!(from_bytes::<RenewArgs>(&to_bytes(&renew)).unwrap(), renew);

        let rok = RenewOk {
            verf: 0xDEAD_BEEF,
            in_grace: true,
        };
        assert_eq!(from_bytes::<RenewOk>(&to_bytes(&rok)).unwrap(), rok);

        let lock = LockArgs {
            file: fh(),
            client_id: 42,
            stateid: 7,
            seqid: 3,
            offset: 8192,
            count: 4096,
            reclaim: true,
        };
        assert_eq!(from_bytes::<LockArgs>(&to_bytes(&lock)).unwrap(), lock);

        let lok = LockOk {
            stateid: 7,
            seqid: 3,
        };
        assert_eq!(from_bytes::<LockOk>(&to_bytes(&lok)).unwrap(), lok);

        let unlock = UnlockArgs {
            file: fh(),
            client_id: 42,
            stateid: 7,
            seqid: 4,
            offset: 8192,
            count: 4096,
        };
        assert_eq!(
            from_bytes::<UnlockArgs>(&to_bytes(&unlock)).unwrap(),
            unlock
        );
    }

    #[test]
    fn stable_how_rides_the_obsolete_beginoffset_unchanged_by_default() {
        // The default constructors keep the field at zero, so a FileSync
        // write is bit-for-bit the v2 message the golden tables were
        // recorded against.
        let args = WriteArgs::fill(fh(), 0, 7, 8192);
        assert_eq!(args.stable_how(), StableHow::FileSync);
        assert_eq!(args.beginoffset, 0);
        let unstable = WriteArgs::fill(fh(), 0, 7, 8192).with_stability(StableHow::Unstable);
        assert_eq!(unstable.stable_how(), StableHow::Unstable);
        let back: WriteArgs = from_bytes(&to_bytes(&unstable)).unwrap();
        assert_eq!(back.stable_how(), StableHow::Unstable);
        // Unknown junk in the obsolete field degrades to the strongest
        // guarantee, never a weaker one.
        assert_eq!(StableHow::from_wire(99), StableHow::FileSync);
        for s in [
            StableHow::FileSync,
            StableHow::Unstable,
            StableHow::DataSync,
        ] {
            assert_eq!(StableHow::from_wire(s.to_wire()), s);
        }
    }

    #[test]
    fn commit_args_and_results_roundtrip() {
        let args = CommitArgs {
            file: fh(),
            offset: 8192,
            count: 0,
        };
        let back: CommitArgs = from_bytes(&to_bytes(&args)).unwrap();
        assert_eq!(back, args);

        let wok = WriteVerfOk {
            attributes: Fattr::default(),
            committed: StableHow::Unstable,
            verf: 0xDEAD_BEEF_0000_0001,
        };
        let back: WriteVerfOk = from_bytes(&to_bytes(&wok)).unwrap();
        assert_eq!(back, wok);

        let cok = CommitOk {
            attributes: Fattr::default(),
            verf: 2,
        };
        let back: CommitOk = from_bytes(&to_bytes(&cok)).unwrap();
        assert_eq!(back, cok);
    }

    #[test]
    fn write_args_roundtrip() {
        let args = WriteArgs::new(fh(), 24576, vec![0xAB; 8192]);
        assert_eq!(args.len(), 8192);
        assert!(!args.is_empty());
        let bytes = to_bytes(&args);
        // handle (32) + 3 u32 (12) + length prefix (4) + data (8192).
        assert_eq!(bytes.len(), 32 + 12 + 4 + 8192);
        let back: WriteArgs = from_bytes(&bytes).unwrap();
        assert_eq!(back, args);
    }

    #[test]
    fn read_args_and_result_roundtrip() {
        let args = ReadArgs {
            file: fh(),
            offset: 8192,
            count: 8192,
            totalcount: 0,
        };
        let back: ReadArgs = from_bytes(&to_bytes(&args)).unwrap();
        assert_eq!(back, args);

        let ok = ReadOk {
            attributes: Fattr::default(),
            data: vec![1, 2, 3, 4, 5].into(),
        };
        let back: ReadOk = from_bytes(&to_bytes(&ok)).unwrap();
        assert_eq!(back, ok);
    }

    #[test]
    fn dirop_and_create_roundtrip() {
        let lookup = DirOpArgs {
            dir: fh(),
            name: "data.out".into(),
        };
        let back: DirOpArgs = from_bytes(&to_bytes(&lookup)).unwrap();
        assert_eq!(back, lookup);

        let create = CreateArgs {
            where_: lookup.clone(),
            attributes: Sattr::with_mode(0o644),
        };
        let back: CreateArgs = from_bytes(&to_bytes(&create)).unwrap();
        assert_eq!(back, create);

        let ok = DirOpOk {
            file: fh(),
            attributes: Fattr::default(),
        };
        let back: DirOpOk = from_bytes(&to_bytes(&ok)).unwrap();
        assert_eq!(back, ok);
    }

    #[test]
    fn getattr_setattr_readdir_statfs_roundtrip() {
        let g = GetattrArgs { file: fh() };
        assert_eq!(from_bytes::<GetattrArgs>(&to_bytes(&g)).unwrap(), g);

        let s = SetattrArgs {
            file: fh(),
            attributes: Sattr::with_mode(0o600),
        };
        assert_eq!(from_bytes::<SetattrArgs>(&to_bytes(&s)).unwrap(), s);

        let rd = ReaddirArgs {
            dir: fh(),
            cookie: 0,
            count: 4096,
        };
        assert_eq!(from_bytes::<ReaddirArgs>(&to_bytes(&rd)).unwrap(), rd);

        let sf = StatfsOk {
            tsize: 8192,
            bsize: 8192,
            blocks: 100_000,
            bfree: 60_000,
            bavail: 55_000,
        };
        assert_eq!(from_bytes::<StatfsOk>(&to_bytes(&sf)).unwrap(), sf);
    }

    #[test]
    fn status_reply_both_arms_roundtrip() {
        let ok: StatusReply<Fattr> = StatusReply::Ok(Fattr::default());
        assert!(ok.is_ok());
        assert_eq!(ok.status(), NfsStatus::Ok);
        let back: StatusReply<Fattr> = from_bytes(&to_bytes(&ok)).unwrap();
        assert_eq!(back, ok);

        let err: StatusReply<Fattr> = StatusReply::Err(NfsStatus::NoSpc);
        assert!(!err.is_ok());
        assert_eq!(err.status(), NfsStatus::NoSpc);
        let back: StatusReply<Fattr> = from_bytes(&to_bytes(&err)).unwrap();
        assert_eq!(back, err);
    }
}
