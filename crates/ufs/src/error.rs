//! Filesystem errors.

use std::fmt;

/// Errors returned by filesystem operations.
///
/// These map one-to-one onto the NFS status codes the server returns to
/// clients (the mapping lives in the server crate so this crate stays
/// protocol-agnostic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsError {
    /// The inode number does not name a live file (e.g. it was removed); the
    /// NFS-visible consequence is a stale file handle.
    StaleInode,
    /// A directory entry was not found.
    NotFound,
    /// An entry with that name already exists.
    Exists,
    /// The operation requires a directory but the inode is a regular file.
    NotADirectory,
    /// The operation requires a regular file but the inode is a directory.
    IsADirectory,
    /// The data region is exhausted.
    NoSpace,
    /// The file would exceed what a single indirect block can map.
    FileTooLarge,
    /// A name exceeded the protocol's length limit.
    NameTooLong,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            FsError::StaleInode => "stale inode (file no longer exists)",
            FsError::NotFound => "no such file or directory",
            FsError::Exists => "file exists",
            FsError::NotADirectory => "not a directory",
            FsError::IsADirectory => "is a directory",
            FsError::NoSpace => "no space left on device",
            FsError::FileTooLarge => "file too large",
            FsError::NameTooLong => "file name too long",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for FsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        assert_eq!(FsError::NoSpace.to_string(), "no space left on device");
        assert!(FsError::StaleInode.to_string().contains("stale"));
        assert!(FsError::FileTooLarge.to_string().contains("large"));
    }
}
