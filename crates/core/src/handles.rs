//! Conversions between filesystem types and protocol types.
//!
//! File handles pack the filesystem id, inode number and generation (see
//! [`wg_nfsproto::FileHandle`]); the helpers here mint handles from inodes,
//! validate presented handles against the live filesystem (producing the
//! `NFSERR_STALE` the paper's §6.9 worries about), and translate attributes
//! and errors between the two vocabularies.

use wg_nfsproto::{Fattr, FileHandle, FileType, NfsStatus, Timeval};
use wg_ufs::{FileAttributes, FileKind, FsError, InodeNumber, Ufs};

/// Mint the file handle for a live inode.
pub fn handle_for(fs: &Ufs, ino: InodeNumber) -> Result<FileHandle, FsError> {
    let generation = fs.generation_of(ino)?;
    Ok(FileHandle::new(fs.fsid(), ino, generation))
}

/// Validate a client-presented handle and extract the inode number.
///
/// Returns [`FsError::StaleInode`] if the filesystem id does not match, the
/// inode no longer exists, or the generation differs (the inode was freed and
/// reused since the client obtained the handle).
pub fn ino_from_handle(fs: &Ufs, handle: &FileHandle) -> Result<InodeNumber, FsError> {
    if handle.fsid() != fs.fsid() {
        return Err(FsError::StaleInode);
    }
    let ino = handle.inode();
    let generation = fs.generation_of(ino)?;
    if generation != handle.generation() {
        return Err(FsError::StaleInode);
    }
    Ok(ino)
}

/// Translate a filesystem error into the NFS status code the v2 protocol
/// defines for it.
pub fn fs_error_to_status(err: FsError) -> NfsStatus {
    match err {
        FsError::StaleInode => NfsStatus::Stale,
        FsError::NotFound => NfsStatus::NoEnt,
        FsError::Exists => NfsStatus::Exist,
        FsError::NotADirectory => NfsStatus::NotDir,
        FsError::IsADirectory => NfsStatus::IsDir,
        FsError::NoSpace => NfsStatus::NoSpc,
        FsError::FileTooLarge => NfsStatus::FBig,
        FsError::NotEmpty => NfsStatus::NotEmpty,
        FsError::NameTooLong => NfsStatus::NameTooLong,
    }
}

/// Build the protocol attribute block from filesystem attributes.
pub fn attributes_to_fattr(fsid: u32, a: &FileAttributes) -> Fattr {
    Fattr {
        ftype: match a.kind {
            FileKind::Regular => FileType::Regular,
            FileKind::Directory => FileType::Directory,
        },
        mode: a.mode,
        nlink: a.nlink,
        uid: a.uid,
        gid: a.gid,
        size: a.size.min(u32::MAX as u64) as u32,
        blocksize: 8192,
        rdev: 0,
        blocks: a.sectors.min(u32::MAX as u64) as u32,
        fsid,
        fileid: a.ino.min(u32::MAX as u64) as u32,
        atime: Timeval::from_nanos(a.atime_nanos),
        mtime: Timeval::from_nanos(a.mtime_nanos),
        ctime: Timeval::from_nanos(a.ctime_nanos),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_round_trip_for_live_files() {
        let mut fs = Ufs::with_defaults(7);
        let root = fs.root();
        let ino = fs.create(root, "f", 0o644, 0).unwrap();
        let fh = handle_for(&fs, ino).unwrap();
        assert_eq!(fh.fsid(), 7);
        assert_eq!(ino_from_handle(&fs, &fh).unwrap(), ino);
    }

    #[test]
    fn stale_handles_are_rejected() {
        let mut fs = Ufs::with_defaults(1);
        let root = fs.root();
        let ino = fs.create(root, "f", 0o644, 0).unwrap();
        let fh = handle_for(&fs, ino).unwrap();
        fs.remove(root, "f", 1).unwrap();
        assert_eq!(ino_from_handle(&fs, &fh), Err(FsError::StaleInode));
        // Recreate a file that happens to reuse nothing; the old handle stays
        // stale because the generation moved on.
        let ino2 = fs.create(root, "f", 0o644, 2).unwrap();
        let fh2 = handle_for(&fs, ino2).unwrap();
        assert_ne!(fh.to_wire_bytes(), fh2.to_wire_bytes());
        // Wrong filesystem id is also stale.
        let other = Ufs::with_defaults(2);
        assert_eq!(ino_from_handle(&other, &fh2), Err(FsError::StaleInode));
        // The inode number is the client's to forge: the never-minted 0
        // and 1, one past the newest inode, u64::MAX and the removed file's
        // number are all stale, never a panic.
        for number in [0, 1, ino2 + 1, u64::MAX, ino] {
            let forged = FileHandle::new(fs.fsid(), number, fh.generation());
            assert_eq!(ino_from_handle(&fs, &forged), Err(FsError::StaleInode));
        }
    }

    #[test]
    fn error_mapping_covers_every_variant() {
        assert_eq!(fs_error_to_status(FsError::StaleInode), NfsStatus::Stale);
        assert_eq!(fs_error_to_status(FsError::NotFound), NfsStatus::NoEnt);
        assert_eq!(fs_error_to_status(FsError::Exists), NfsStatus::Exist);
        assert_eq!(
            fs_error_to_status(FsError::NotADirectory),
            NfsStatus::NotDir
        );
        assert_eq!(fs_error_to_status(FsError::IsADirectory), NfsStatus::IsDir);
        assert_eq!(fs_error_to_status(FsError::NoSpace), NfsStatus::NoSpc);
        assert_eq!(fs_error_to_status(FsError::FileTooLarge), NfsStatus::FBig);
        assert_eq!(fs_error_to_status(FsError::NotEmpty), NfsStatus::NotEmpty);
        assert_eq!(
            fs_error_to_status(FsError::NameTooLong),
            NfsStatus::NameTooLong
        );
    }

    #[test]
    fn fattr_reflects_file_state() {
        let mut fs = Ufs::with_defaults(3);
        let root = fs.root();
        let ino = fs.create(root, "f", 0o640, 0).unwrap();
        fs.write(
            ino,
            0,
            &vec![0u8; 16384],
            wg_ufs::WriteFlags::Sync,
            5_000_000_000,
        )
        .unwrap();
        let attrs = fs.getattr(ino).unwrap();
        let fattr = attributes_to_fattr(fs.fsid(), &attrs);
        assert_eq!(fattr.size, 16384);
        assert_eq!(fattr.mode, 0o640);
        assert_eq!(fattr.ftype, FileType::Regular);
        assert_eq!(fattr.fsid, 3);
        assert_eq!(fattr.mtime.seconds, 5);
        assert!(fattr.blocks >= 32);
        let dir_attrs = fs.getattr(root).unwrap();
        let dir_fattr = attributes_to_fattr(fs.fsid(), &dir_attrs);
        assert_eq!(dir_fattr.ftype, FileType::Directory);
    }
}
