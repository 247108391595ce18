//! NFS v2 file handles.
//!
//! A file handle is a 32-byte opaque token minted by the server that the
//! client presents on every subsequent operation.  In this reproduction a
//! handle packs a filesystem id, an inode number and a generation counter
//! (exactly the information a 4.3BSD-derived server put in its handles); the
//! rest is zero padding.  The generation counter is what makes handles go
//! *stale*: when an inode is freed and reused, the generation bumps and old
//! handles referring to the previous file are rejected with
//! [`NfsStatus::Stale`](crate::NfsStatus::Stale), the case §6.9 of the paper
//! warns must not orphan gathered writes.

use crate::NFS_FHSIZE;
use wg_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder, XdrError};

/// A 32-byte opaque NFS v2 file handle.
///
/// In memory only the three meaningful fields are stored (16 bytes — half
/// the wire size).  Handles are embedded in almost every call and reply
/// body, and those bodies ride inside every scheduled event, so the
/// in-memory size is pure hot-path bytes; the zero padding exists only on
/// the wire and is reconstructed at encode time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct FileHandle {
    fsid: u32,
    generation: u32,
    inode: u64,
}

impl FileHandle {
    /// Construct a handle from its components.
    pub fn new(fsid: u32, inode: u64, generation: u32) -> Self {
        FileHandle {
            fsid,
            generation,
            inode,
        }
    }

    /// Construct a handle from raw bytes received off the wire.  The
    /// padding bytes (16..32) are not preserved; every handle this server
    /// mints has them zeroed, and re-encoding zero-fills them again.
    pub fn from_bytes(bytes: [u8; NFS_FHSIZE]) -> Self {
        FileHandle {
            fsid: u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
            inode: u64::from_be_bytes(bytes[4..12].try_into().unwrap()),
            generation: u32::from_be_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]),
        }
    }

    /// The filesystem id encoded in the handle.
    pub fn fsid(&self) -> u32 {
        self.fsid
    }

    /// The inode number encoded in the handle.
    pub fn inode(&self) -> u64 {
        self.inode
    }

    /// The inode generation encoded in the handle.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// The raw 32 wire bytes: the packed fields plus zero padding.
    pub fn to_wire_bytes(&self) -> [u8; NFS_FHSIZE] {
        let mut bytes = [0u8; NFS_FHSIZE];
        bytes[0..4].copy_from_slice(&self.fsid.to_be_bytes());
        bytes[4..12].copy_from_slice(&self.inode.to_be_bytes());
        bytes[12..16].copy_from_slice(&self.generation.to_be_bytes());
        bytes
    }
}

impl std::fmt::Debug for FileHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fh(fsid={}, ino={}, gen={})",
            self.fsid(),
            self.inode(),
            self.generation()
        )
    }
}

impl XdrEncode for FileHandle {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_opaque_fixed(&self.to_wire_bytes());
    }

    fn xdr_size(&self) -> usize {
        NFS_FHSIZE
    }
}

impl XdrDecode for FileHandle {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let raw = dec.get_opaque_fixed(NFS_FHSIZE)?;
        let mut bytes = [0u8; NFS_FHSIZE];
        bytes.copy_from_slice(&raw);
        Ok(FileHandle::from_bytes(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_xdr::{from_bytes, to_bytes};

    #[test]
    fn packs_and_unpacks_fields() {
        let fh = FileHandle::new(3, 0xDEAD_BEEF_1234, 17);
        assert_eq!(fh.fsid(), 3);
        assert_eq!(fh.inode(), 0xDEAD_BEEF_1234);
        assert_eq!(fh.generation(), 17);
    }

    #[test]
    fn wire_size_is_32_bytes() {
        let fh = FileHandle::new(1, 2, 3);
        assert_eq!(to_bytes(&fh).len(), NFS_FHSIZE);
        assert_eq!(fh.xdr_size(), NFS_FHSIZE);
    }

    #[test]
    fn xdr_roundtrip() {
        let fh = FileHandle::new(9, 123456789, 42);
        let bytes = to_bytes(&fh);
        let back: FileHandle = from_bytes(&bytes).unwrap();
        assert_eq!(back, fh);
    }

    #[test]
    fn different_generation_is_a_different_handle() {
        let a = FileHandle::new(1, 100, 1);
        let b = FileHandle::new(1, 100, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_is_readable() {
        let fh = FileHandle::new(1, 5, 2);
        assert_eq!(format!("{fh:?}"), "fh(fsid=1, ino=5, gen=2)");
    }
}
