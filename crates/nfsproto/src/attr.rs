//! NFS v2 file attributes and status codes.
//!
//! Every successful NFS v2 reply that touches a file carries a full [`Fattr`]
//! attribute block back to the client.  The paper leans on this: a gathering
//! server answers a burst of writes with replies that all carry the *same*
//! file modification time, because a single metadata update covered them all
//! (§6, "all the replies have the same file modify time in the returned file
//! attributes").

use wg_xdr::{xdr_enum, xdr_struct};

xdr_enum! {
    /// NFS v2 status codes (RFC 1094 "stat").
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
    pub enum NfsStatus {
        /// The call completed successfully.
        Ok = 0,
        /// Not owner.
        Perm = 1,
        /// No such file or directory.
        NoEnt = 2,
        /// I/O error.
        Io = 5,
        /// Permission denied.
        Access = 13,
        /// File exists.
        Exist = 17,
        /// Not a directory.
        NotDir = 20,
        /// Is a directory.
        IsDir = 21,
        /// File too large.
        FBig = 27,
        /// No space left on device — the error sync-on-close exists to
        /// surface.
        NoSpc = 28,
        /// Read-only filesystem.
        Rofs = 30,
        /// File name too long.
        NameTooLong = 63,
        /// Directory not empty.
        NotEmpty = 66,
        /// Disk quota exceeded.
        Dquot = 69,
        /// Invalid (stale) file handle: the file referred to no longer
        /// exists.
        Stale = 70,
        /// Lock conflict or bad seqid — the state operation was refused (the
        /// NFSv4 NFS4ERR_DENIED code, grafted onto the v2 table like COMMIT
        /// is).
        Denied = 10010,
        /// The client's lease has expired; its state was revoked and it must
        /// re-register (NFS4ERR_EXPIRED).
        Expired = 10011,
        /// The server is in its post-crash grace period: only reclaims are
        /// admitted, new state requests must be retried after it ends
        /// (NFS4ERR_GRACE).
        Grace = 10013,
    }
}

impl NfsStatus {
    /// `true` for the success status.
    pub fn is_ok(self) -> bool {
        self == NfsStatus::Ok
    }
}

xdr_enum! {
    /// NFS v2 file types ("ftype").
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
    pub enum FileType {
        /// A non-file (the null type).
        None = 0,
        /// A regular file.
        Regular = 1,
        /// A directory.
        Directory = 2,
        /// A block special device.
        BlockDev = 3,
        /// A character special device.
        CharDev = 4,
        /// A symbolic link.
        Symlink = 5,
    }
}

xdr_struct! {
    /// An NFS v2 timestamp: seconds and microseconds.
    #[derive(
        Clone,
        Copy,
        Debug,
        Default,
        PartialEq,
        Eq,
        PartialOrd,
        Ord,
        Hash,
        serde::Serialize,
        serde::Deserialize,
    )]
    pub struct Timeval {
        /// Whole seconds.
        pub seconds: u32,
        /// Microseconds within the second.
        pub useconds: u32,
    }
}

impl Timeval {
    /// Build a timestamp from a nanosecond count (e.g. a simulation clock
    /// reading), truncating to microsecond resolution as the protocol does.
    pub fn from_nanos(ns: u64) -> Self {
        let us = ns / 1_000;
        Timeval {
            seconds: (us / 1_000_000) as u32,
            useconds: (us % 1_000_000) as u32,
        }
    }
}

xdr_struct! {
    /// The full NFS v2 file attribute block ("fattr") returned by most
    /// replies.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
    pub struct Fattr {
        /// File type.
        pub ftype: FileType,
        /// Protection mode bits.
        pub mode: u32,
        /// Hard link count.
        pub nlink: u32,
        /// Owner user id.
        pub uid: u32,
        /// Owner group id.
        pub gid: u32,
        /// File size in bytes.
        pub size: u32,
        /// Preferred block size.
        pub blocksize: u32,
        /// Device number for special files.
        pub rdev: u32,
        /// Number of disk blocks used.
        pub blocks: u32,
        /// Filesystem identifier.
        pub fsid: u32,
        /// Inode number.
        pub fileid: u32,
        /// Last access time.
        pub atime: Timeval,
        /// Last modification time — the field write gathering causes to be
        /// shared across a burst of replies.
        pub mtime: Timeval,
        /// Last status change time.
        pub ctime: Timeval,
    }
}

impl Default for Fattr {
    fn default() -> Self {
        Fattr {
            ftype: FileType::Regular,
            mode: 0o644,
            nlink: 1,
            uid: 0,
            gid: 0,
            size: 0,
            blocksize: 8192,
            rdev: 0,
            blocks: 0,
            fsid: 0,
            fileid: 0,
            atime: Timeval::default(),
            mtime: Timeval::default(),
            ctime: Timeval::default(),
        }
    }
}

xdr_struct! {
    /// Settable attributes ("sattr") supplied on CREATE and SETATTR;
    /// `u32::MAX` in any field means "do not change".
    #[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
    pub struct Sattr {
        /// Protection mode bits, or `u32::MAX` to leave unchanged.
        pub mode: u32,
        /// Owner uid, or `u32::MAX`.
        pub uid: u32,
        /// Owner gid, or `u32::MAX`.
        pub gid: u32,
        /// New size (0 truncates), or `u32::MAX`.
        pub size: u32,
        /// New access time.
        pub atime: Timeval,
        /// New modification time.
        pub mtime: Timeval,
    }
}

impl Default for Sattr {
    fn default() -> Self {
        Sattr {
            mode: u32::MAX,
            uid: u32::MAX,
            gid: u32::MAX,
            size: u32::MAX,
            atime: Timeval::default(),
            mtime: Timeval::default(),
        }
    }
}

impl Sattr {
    /// A sattr that sets only the mode, as a typical CREATE does.
    pub fn with_mode(mode: u32) -> Self {
        Sattr {
            mode,
            ..Sattr::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_xdr::{from_bytes, to_bytes};

    #[test]
    fn status_codes_match_rfc1094() {
        assert_eq!(NfsStatus::Ok.code(), 0);
        assert_eq!(NfsStatus::NoEnt.code(), 2);
        assert_eq!(NfsStatus::NoSpc.code(), 28);
        assert_eq!(NfsStatus::Stale.code(), 70);
        assert!(NfsStatus::Ok.is_ok());
        assert!(!NfsStatus::Io.is_ok());
    }

    #[test]
    fn status_roundtrip_all_variants() {
        for s in [
            NfsStatus::Ok,
            NfsStatus::Perm,
            NfsStatus::NoEnt,
            NfsStatus::Io,
            NfsStatus::Access,
            NfsStatus::Exist,
            NfsStatus::NotDir,
            NfsStatus::IsDir,
            NfsStatus::FBig,
            NfsStatus::NoSpc,
            NfsStatus::Rofs,
            NfsStatus::NameTooLong,
            NfsStatus::NotEmpty,
            NfsStatus::Dquot,
            NfsStatus::Stale,
            NfsStatus::Denied,
            NfsStatus::Expired,
            NfsStatus::Grace,
        ] {
            assert_eq!(NfsStatus::from_code(s.code()).unwrap(), s);
            let bytes = to_bytes(&s);
            assert_eq!(from_bytes::<NfsStatus>(&bytes).unwrap(), s);
        }
        assert!(NfsStatus::from_code(999).is_err());
    }

    #[test]
    fn filetype_roundtrip() {
        for t in [
            FileType::None,
            FileType::Regular,
            FileType::Directory,
            FileType::BlockDev,
            FileType::CharDev,
            FileType::Symlink,
        ] {
            let bytes = to_bytes(&t);
            assert_eq!(from_bytes::<FileType>(&bytes).unwrap(), t);
        }
        assert!(FileType::from_code(42).is_err());
    }

    #[test]
    fn timeval_from_nanos() {
        let t = Timeval::from_nanos(3_000_123_456);
        assert_eq!(t.seconds, 3);
        assert_eq!(t.useconds, 123);
        let bytes = to_bytes(&t);
        assert_eq!(bytes.len(), 8);
        assert_eq!(from_bytes::<Timeval>(&bytes).unwrap(), t);
    }

    #[test]
    fn fattr_roundtrip_and_wire_size() {
        let attr = Fattr {
            size: 81920,
            blocks: 160,
            fileid: 77,
            mtime: Timeval {
                seconds: 12,
                useconds: 34,
            },
            ..Fattr::default()
        };
        let bytes = to_bytes(&attr);
        // 17 32-bit words per RFC 1094: ftype + 10 scalar fields + 3 timevals.
        assert_eq!(bytes.len(), 68);
        assert_eq!(from_bytes::<Fattr>(&bytes).unwrap(), attr);
    }

    #[test]
    fn sattr_defaults_mean_no_change() {
        let s = Sattr::default();
        assert_eq!(s.mode, u32::MAX);
        assert_eq!(s.size, u32::MAX);
        let with_mode = Sattr::with_mode(0o600);
        assert_eq!(with_mode.mode, 0o600);
        assert_eq!(with_mode.uid, u32::MAX);
        let bytes = to_bytes(&with_mode);
        assert_eq!(from_bytes::<Sattr>(&bytes).unwrap(), with_mode);
    }
}
