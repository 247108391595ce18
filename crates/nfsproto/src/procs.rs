//! The NFS procedures the simulated clients call, and their argument and
//! result structures.
//!
//! The write-gathering experiments exercise WRITE heavily, but the SPEC SFS
//! (LADDIS) workload of Figures 2–3 mixes in the other eight LADDIS
//! operations (GETATTR, SETATTR, LOOKUP, READ, CREATE, REMOVE, READDIR and
//! STATFS), and the extensions add COMMIT, RENEW and LOCK.  Those twelve are
//! represented here, each with a real XDR encoding; the v2 procedures no
//! client calls are not.

use crate::attr::Sattr;
use crate::handle::FileHandle;
use crate::payload::Payload;
use crate::{Fattr, NfsStatus};
use wg_xdr::{xdr_enum, xdr_struct, XdrDecode, XdrDecoder, XdrEncode, XdrEncoder, XdrError};

xdr_enum! {
    /// The procedures the simulated clients call, with their wire numbers:
    /// the nine LADDIS operations keep their NFS version 2 numbers (RFC 1094
    /// §2.2), and three more are grafted past the v2 range.  A number no
    /// client calls is refused.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
    pub enum ProcNumber {
        /// Get file attributes.
        Getattr = 1,
        /// Set file attributes.
        Setattr = 2,
        /// Look up a file name in a directory.
        Lookup = 4,
        /// Read from a file.
        Read = 6,
        /// Write to a file — the operation this whole repository is about.
        Write = 8,
        /// Create a file.
        Create = 9,
        /// Remove a file.
        Remove = 10,
        /// Read entries from a directory.
        Readdir = 16,
        /// Get filesystem statistics.
        Statfs = 17,
        /// Commit cached unstable writes to stable storage (the NFSv3
        /// procedure this reproduction grafts onto the v2 table as number 18,
        /// one past the v2 range, so the paper's procedures keep their
        /// original numbers).
        Commit = 18,
        /// Register a client and renew its lease (the NFSv4
        /// RENEW/SETCLIENTID pair collapsed into one procedure, grafted past
        /// the v2 range like COMMIT; carries the client's boot verifier so a
        /// changed verifier doubles as re-registration after a client
        /// reboot).
        Renew = 19,
        /// Acquire or reclaim a byte-range lock under the client's lease.
        Lock = 20,
    }
}

xdr_struct! {
    /// Arguments of GETATTR: just the file handle.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
    pub struct GetattrArgs {
        /// Target file.
        pub file: FileHandle,
    }
}

xdr_struct! {
    /// Arguments of SETATTR.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
    pub struct SetattrArgs {
        /// Target file.
        pub file: FileHandle,
        /// Attributes to change.
        pub attributes: Sattr,
    }
}

xdr_struct! {
    /// Arguments naming an entry within a directory (LOOKUP and REMOVE, and
    /// the directory half of CREATE).
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
}

xdr_struct! {
    /// The successful result of LOOKUP and CREATE: the new handle plus its
    /// attributes.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
    pub struct DirOpOk {
        /// Handle of the found or created file.
        pub file: FileHandle,
        /// Its attributes.
        pub attributes: Fattr,
    }
}

xdr_struct! {
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
}

xdr_struct! {
    /// The successful result of READ: post-read attributes and the data.
    #[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
    pub struct ReadOk {
        /// File attributes after the read.
        pub attributes: Fattr,
        /// The bytes read (shared, so caching and replaying the reply is
        /// cheap).
        pub data: Payload,
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
}

impl StableHow {
    /// The wire encoding (the value carried in `beginoffset`).
    pub fn to_wire(self) -> u32 {
        match self {
            StableHow::FileSync => 0,
            StableHow::Unstable => 1,
        }
    }

    /// Decode a wire value; anything unknown is treated as the conservative
    /// `FileSync` (an old client writing garbage into an obsolete field gets
    /// the strongest guarantee, never a weaker one).
    pub fn from_wire(v: u32) -> Self {
        match v {
            1 => StableHow::Unstable,
            _ => StableHow::FileSync,
        }
    }
}

impl XdrEncode for StableHow {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(self.to_wire());
    }

    fn xdr_size(&self) -> usize {
        4
    }
}

/// Lenient, as [`StableHow::from_wire`] is: no word is refused.
impl XdrDecode for StableHow {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(StableHow::from_wire(dec.get_u32()?))
    }
}

/// A server boot instance verifier: changes on every reboot so clients can
/// detect that cached unstable writes died with a crash and must be re-sent.
pub type WriteVerf = u64;

xdr_struct! {
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

xdr_struct! {
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
}

xdr_struct! {
    /// The successful result of a WRITE answered by a server running the
    /// unstable-write protocol: post-write attributes, how far the data
    /// actually got, and the boot verifier the client checks at COMMIT time.
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
}

xdr_struct! {
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
}

xdr_struct! {
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
}

xdr_struct! {
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
}

xdr_struct! {
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
}

xdr_struct! {
    /// The successful result of LOCK: the granted state identity echoed back.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
    pub struct LockOk {
        /// The lock-owner state identifier.
        pub stateid: u32,
        /// The sequence number the grant consumed.
        pub seqid: u32,
    }
}

xdr_struct! {
    /// Arguments of CREATE.
    #[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
    pub struct CreateArgs {
        /// Directory and name to create in.
        pub where_: DirOpArgs,
        /// Initial attributes.
        pub attributes: Sattr,
    }
}

xdr_struct! {
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
}

xdr_struct! {
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

    fn xdr_size(&self) -> usize {
        match self {
            StatusReply::Ok(v) => 4 + v.xdr_size(),
            StatusReply::Err(_) => 4,
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
        let called = [1, 2, 4, 6, 8, 9, 10, 16, 17, 18, 19, 20];
        for n in called {
            let p = ProcNumber::from_code(n).unwrap();
            assert_eq!(p.code(), n);
        }
        // NULL, ROOT, READLINK, WRITECACHE, RENAME, LINK, SYMLINK, MKDIR and
        // RMDIR, and the two numbers past LOCK: no client calls them.
        for n in [0, 3, 5, 7, 11, 12, 13, 14, 15, 21, 22] {
            assert_eq!(
                ProcNumber::from_code(n),
                Err(XdrError::InvalidEnum {
                    type_name: "ProcNumber",
                    value: n
                })
            );
        }
        assert_eq!(ProcNumber::Write.code(), 8);
        assert_eq!(ProcNumber::Commit.code(), 18);
        assert_eq!(ProcNumber::Renew.code(), 19);
        assert_eq!(ProcNumber::Lock.code(), 20);
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
    }

    /// `in_grace` and `reclaim` are XDR booleans: 0 and 1 decode, any other
    /// word is refused.
    #[test]
    fn state_booleans_refuse_words_other_than_0_and_1() {
        let rok = to_bytes(&RenewOk {
            verf: 1,
            in_grace: true,
        });
        let lock = to_bytes(&LockArgs {
            file: fh(),
            client_id: 42,
            stateid: 7,
            seqid: 3,
            offset: 0,
            count: 0,
            reclaim: true,
        });
        // Each boolean is its message's last word.
        let two = |mut bytes: Vec<u8>| {
            let last = bytes.len() - 4;
            assert_eq!(bytes[last..], [0, 0, 0, 1]);
            bytes[last..].copy_from_slice(&[0, 0, 0, 2]);
            bytes
        };
        assert_eq!(
            from_bytes::<RenewOk>(&two(rok)),
            Err(XdrError::InvalidBool(2))
        );
        assert_eq!(
            from_bytes::<LockArgs>(&two(lock)),
            Err(XdrError::InvalidBool(2))
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
        for s in [StableHow::FileSync, StableHow::Unstable] {
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
