//! Zero-copy write/read payloads.
//!
//! Every simulated 8 KB WRITE used to materialise a fresh `Vec<u8>`, clone it
//! into the socket-buffer entry and the duplicate request cache, and copy it
//! again into the filesystem's block cache — the reproduction of a paper
//! about cheap writes was itself write-path-bound.  [`Payload`] replaces the
//! raw byte vector with a shared, pattern-aware representation:
//!
//! * [`Payload::Fill`] describes the synthetic workload case — `len` copies
//!   of one byte — in 8 bytes, with `Clone` a register copy and no backing
//!   allocation at all;
//! * [`Payload::Shared`] carries real bytes behind an [`Arc`], so cloning a
//!   call or reply (socket buffer, duplicate request cache, retransmission
//!   replay) bumps a reference count instead of copying kilobytes.
//!
//! The filesystem's buffer cache holds each block as a `Payload` too, so a
//! WRITE's data is stored and a READ's reply assembled without leaving this
//! representation: [`Payload::write_at`] stores a write into a block
//! (copy-on-write), [`Payload::slice`] takes the part of a block a read
//! covers, and [`Payload::concat`] joins those parts into the reply.
//!
//! Equality is *logical* (a `Fill` equals a `Shared` with the same bytes), so
//! protocol round-trip tests are unaffected by which representation a value
//! happens to use.  The [`materialize`](Payload::materialize) probe counts
//! every time a `Fill` is expanded into real bytes; the zero-copy regression
//! test asserts the count stays at zero across an entire simulated file copy.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wg_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder, XdrError};

/// Number of times a [`Payload::Fill`] has been expanded into a real byte
/// buffer since process start (see [`materialize_count`]).
static MATERIALIZED: AtomicU64 = AtomicU64::new(0);

/// Global count of fill-payload materialisations.
///
/// The zero-copy datapath test snapshots this counter, runs a simulated file
/// copy whose writes are all `Fill` payloads, and asserts the count did not
/// move: no per-write payload bytes were allocated anywhere in the client,
/// network, server, cache or filesystem path.
pub fn materialize_count() -> u64 {
    MATERIALIZED.load(Ordering::Relaxed)
}

/// The data carried by a WRITE request or a READ reply.
#[derive(Clone)]
pub enum Payload {
    /// `len` repetitions of `byte`, never materialised unless explicitly
    /// asked for.  This is what synthetic workloads send.
    Fill {
        /// The repeated byte value.
        byte: u8,
        /// Number of repetitions.
        len: u32,
    },
    /// Real bytes, shared by reference count.
    Shared(Arc<[u8]>),
}

impl Payload {
    /// An empty payload.
    pub fn empty() -> Self {
        Payload::Fill { byte: 0, len: 0 }
    }

    /// A payload of `len` copies of `byte` (no allocation).
    pub fn fill(byte: u8, len: u32) -> Self {
        Payload::Fill { byte, len }
    }

    /// Wrap real bytes.  If the bytes are one repeated value the compact
    /// [`Payload::Fill`] form is chosen, which keeps payloads decoded from
    /// the wire as cheap as the ones the workload generators build directly.
    fn from_vec(bytes: Vec<u8>) -> Self {
        match bytes.split_first() {
            None => Payload::empty(),
            Some((first, rest)) if rest.iter().all(|b| b == first) => Payload::Fill {
                byte: *first,
                len: bytes.len() as u32,
            },
            _ => Payload::Shared(bytes.into()),
        }
    }

    /// Number of data bytes.
    pub fn len(&self) -> usize {
        match self {
            Payload::Fill { len, .. } => *len as usize,
            Payload::Shared(bytes) => bytes.len(),
        }
    }

    /// `true` if the payload carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes in `range` as a payload of their own.
    ///
    /// Part of a fill is a fill, and a range covering a whole shared buffer
    /// is that buffer (a reference-count bump).  Only part of a shared
    /// buffer is copied, since an `Arc<[u8]>` cannot be sub-sliced.
    pub fn slice(&self, range: Range<usize>) -> Payload {
        debug_assert!(range.end <= self.len(), "{range:?} past {}", self.len());
        match self {
            Payload::Fill { byte, .. } => Payload::fill(*byte, range.len() as u32),
            Payload::Shared(bytes) if range.len() == bytes.len() => {
                Payload::Shared(Arc::clone(bytes))
            }
            Payload::Shared(bytes) => Payload::Shared(bytes[range].into()),
        }
    }

    /// Overwrite the bytes from offset `at` on with `src`'s.
    ///
    /// A `src` as long as this payload replaces it outright, so a
    /// whole-block write stores the writer's fill or shared buffer without
    /// copying it.  A shorter one writes into this payload's own bytes,
    /// expanding a fill first and copying a buffer a reader still shares
    /// first (copy-on-write), so every reader keeps the bytes it was given.
    pub fn write_at(&mut self, at: usize, src: Payload) {
        if at == 0 && src.len() == self.len() {
            *self = src;
            return;
        }
        let dst = &mut self.make_mut()[at..at + src.len()];
        match src {
            Payload::Fill { byte, .. } => dst.fill(byte),
            Payload::Shared(bytes) => dst.copy_from_slice(&bytes),
        }
    }

    /// Mutable access to the bytes.  A fill is expanded into a buffer first,
    /// and a buffer a reader still shares is copied once, so the reader's
    /// bytes never change under it.
    ///
    /// The expansion does not count toward [`materialize_count`]: it gives a
    /// cached block real bytes to be written into, where the probe counts
    /// payloads flattened on their way to a reply.
    fn make_mut(&mut self) -> &mut [u8] {
        if let Payload::Fill { byte, len } = *self {
            *self = Payload::Shared(vec![byte; len as usize].into());
        }
        match self {
            Payload::Shared(bytes) => Arc::make_mut(bytes),
            Payload::Fill { .. } => unreachable!("a fill was expanded above"),
        }
    }

    /// One payload holding `pieces`' bytes in order: a read assembled from
    /// the parts of the blocks it covers.
    ///
    /// Adjacent same-byte fills coalesce into one fill, and a lone piece is
    /// returned as it is (a whole-block `Shared` piece stays the cache's own
    /// buffer), so neither allocates.  Anything else is flattened once into
    /// one buffer, and every fill that expands counts toward
    /// [`materialize_count`].
    pub fn concat(pieces: impl IntoIterator<Item = Payload>) -> Payload {
        let mut pieces = pieces.into_iter().filter(|piece| !piece.is_empty());
        let mut joined = pieces.next().unwrap_or_else(Payload::empty);
        while let Some(piece) = pieces.next() {
            match (&mut joined, &piece) {
                (Payload::Fill { byte, len }, Payload::Fill { byte: b, len: n }) if byte == b => {
                    *len += n
                }
                _ => {
                    let mut flat = Vec::new();
                    joined.append_to(&mut flat);
                    piece.append_to(&mut flat);
                    pieces.for_each(|rest| rest.append_to(&mut flat));
                    return Payload::from_vec(flat);
                }
            }
        }
        joined
    }

    /// Expand to a concrete byte buffer.
    ///
    /// For `Shared` payloads this is a reference-count bump.  For `Fill`
    /// payloads it allocates — and increments the probe counter behind
    /// [`materialize_count`], which is how the zero-copy test catches hot
    /// paths that fell back to real bytes.
    pub fn materialize(&self) -> Arc<[u8]> {
        match self {
            Payload::Fill { byte, len } => {
                MATERIALIZED.fetch_add(1, Ordering::Relaxed);
                vec![*byte; *len as usize].into()
            }
            Payload::Shared(bytes) => Arc::clone(bytes),
        }
    }

    /// Append the payload's bytes to a caller-owned buffer.
    ///
    /// Expanding a `Fill` counts toward [`materialize_count`] exactly like
    /// [`Payload::materialize`]: this is the honest flattening primitive
    /// [`Payload::concat`] uses, so the zero-copy probe still catches a hot
    /// path that degenerates into byte copies.
    fn append_to(&self, out: &mut Vec<u8>) {
        match self {
            Payload::Fill { byte, len } => {
                if *len > 0 {
                    MATERIALIZED.fetch_add(1, Ordering::Relaxed);
                }
                out.resize(out.len() + *len as usize, *byte);
            }
            Payload::Shared(bytes) => out.extend_from_slice(bytes),
        }
    }

    /// Iterate the payload's bytes without materialising it (test helper and
    /// slow-path consumer).
    pub fn iter_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        let (fill, slice): (Option<(u8, u32)>, &[u8]) = match self {
            Payload::Fill { byte, len } => (Some((*byte, *len)), &[]),
            Payload::Shared(bytes) => (None, bytes),
        };
        let fill_iter = fill
            .into_iter()
            .flat_map(|(byte, len)| std::iter::repeat_n(byte, len as usize));
        fill_iter.chain(slice.iter().copied())
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Fill { byte, len } => write!(f, "Payload::Fill({byte:#04x} x {len})"),
            Payload::Shared(bytes) => write!(f, "Payload::Shared({} bytes)", bytes.len()),
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Payload::Fill { byte: a, len: la }, Payload::Fill { byte: b, len: lb }) => {
                la == lb && (*la == 0 || a == b)
            }
            (Payload::Shared(a), Payload::Shared(b)) => a == b,
            (Payload::Fill { byte, len }, Payload::Shared(s))
            | (Payload::Shared(s), Payload::Fill { byte, len }) => {
                s.len() == *len as usize && s.iter().all(|x| x == byte)
            }
        }
    }
}

impl Eq for Payload {}

/// On the wire a payload is an XDR variable-length opaque, whichever form
/// it has; a decoded one takes the form its bytes convert to (see
/// `From<Vec<u8>>`).
impl XdrEncode for Payload {
    fn encode(&self, enc: &mut XdrEncoder) {
        match self {
            Payload::Fill { byte, len } => enc.put_opaque_fill(*byte, *len as usize),
            Payload::Shared(bytes) => enc.put_opaque(bytes),
        }
    }

    fn xdr_size(&self) -> usize {
        wg_xdr::opaque_size(self.len())
    }
}

impl XdrDecode for Payload {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(Payload::from_vec(dec.get_opaque()?))
    }
}

/// Owned bytes become a [`Payload::Fill`] if they are one repeated value,
/// and a `Shared` buffer otherwise.
impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload::from_vec(bytes)
    }
}

/// Borrowed bytes are copied into a `Shared` buffer as they are, without the
/// fill detection of `From<Vec<u8>>`: a caller that passes real bytes
/// (a test, or the benchmark's UFS replay) gets real bytes stored.
impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Payload::Shared(bytes.into())
    }
}

impl From<&Vec<u8>> for Payload {
    fn from(bytes: &Vec<u8>) -> Self {
        Payload::from(bytes.as_slice())
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(bytes: &[u8; N]) -> Self {
        Payload::from(bytes.as_slice())
    }
}

impl From<&Payload> for Payload {
    fn from(payload: &Payload) -> Self {
        payload.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Held by every test that moves the global probe counter or reads it
    /// for an exact count: cargo runs tests on parallel threads.
    fn probe_lock() -> MutexGuard<'static, ()> {
        static PROBE: Mutex<()> = Mutex::new(());
        PROBE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn fill_and_shared_compare_logically() {
        let fill = Payload::fill(7, 4);
        let shared = Payload::Shared(vec![7u8; 4].into());
        assert_eq!(fill, shared);
        assert_eq!(shared, fill);
        assert_ne!(fill, Payload::fill(8, 4));
        assert_ne!(fill, Payload::fill(7, 5));
        assert_ne!(shared, Payload::Shared(vec![7u8, 7, 7, 8].into()));
        // Empty payloads are equal regardless of the fill byte.
        assert_eq!(Payload::fill(1, 0), Payload::fill(2, 0));
        assert_eq!(Payload::empty(), Payload::Shared(Vec::new().into()));
    }

    #[test]
    fn from_vec_detects_uniform_bytes() {
        assert!(matches!(
            Payload::from_vec(vec![5; 100]),
            Payload::Fill { byte: 5, len: 100 }
        ));
        assert!(matches!(Payload::from_vec(vec![1, 2]), Payload::Shared(_)));
        assert_eq!(Payload::from_vec(Vec::new()).len(), 0);
        // Borrowed bytes are stored as they are, uniform or not.
        assert!(matches!(Payload::from(&[5u8; 100]), Payload::Shared(_)));
    }

    #[test]
    fn len_and_xdr_size() {
        assert_eq!(Payload::fill(0, 8192).len(), 8192);
        assert_eq!(Payload::fill(0, 8192).xdr_size(), 4 + 8192);
        assert_eq!(Payload::fill(0, 5).xdr_size(), 4 + 8); // padded
        assert_eq!(Payload::empty().xdr_size(), 4);
        assert!(Payload::empty().is_empty());
        assert!(!Payload::fill(1, 1).is_empty());
        let shared = Payload::Shared(vec![1, 2, 3].into());
        assert_eq!(shared.len(), 3);
        assert_eq!(shared.xdr_size(), 4 + 4);
    }

    #[test]
    fn xdr_roundtrip_both_representations() {
        for payload in [
            Payload::fill(0xAB, 8192),
            Payload::fill(0, 0),
            Payload::fill(9, 5),
            Payload::Shared(vec![1, 2, 3, 4, 5, 6, 7].into()),
        ] {
            let mut enc = XdrEncoder::new();
            payload.encode(&mut enc);
            let bytes = enc.into_bytes();
            assert_eq!(bytes.len(), payload.xdr_size(), "{payload:?}");
            let mut dec = XdrDecoder::new(&bytes);
            let back = Payload::decode(&mut dec).unwrap();
            assert_eq!(back, payload, "{payload:?}");
            assert_eq!(dec.remaining(), 0);
        }
    }

    #[test]
    fn materialize_counts_fill_expansions_only() {
        let _probe = probe_lock();
        let before = materialize_count();
        let shared = Payload::Shared(vec![3u8; 16].into());
        let bytes = shared.materialize();
        assert_eq!(&bytes[..], &[3u8; 16]);
        assert_eq!(
            materialize_count(),
            before,
            "Shared materialise must not count"
        );
        let fill = Payload::fill(4, 8);
        let bytes = fill.materialize();
        assert_eq!(&bytes[..], &[4u8; 8]);
        assert!(materialize_count() > before, "Fill materialise must count");
    }

    #[test]
    fn append_to_counts_like_materialize() {
        let _probe = probe_lock();
        let mut out = Vec::new();
        let before = materialize_count();
        Payload::Shared(vec![1u8, 2, 3].into()).append_to(&mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(materialize_count(), before, "Shared append must not count");
        Payload::fill(9, 0).append_to(&mut out);
        assert_eq!(
            materialize_count(),
            before,
            "empty Fill append must not count"
        );
        Payload::fill(7, 4).append_to(&mut out);
        assert_eq!(out, vec![1, 2, 3, 7, 7, 7, 7]);
        assert!(materialize_count() > before, "Fill append must count");
    }

    #[test]
    fn iter_bytes_matches_materialize() {
        let _probe = probe_lock();
        for payload in [Payload::fill(6, 10), Payload::Shared(vec![1, 2, 3].into())] {
            let collected: Vec<u8> = payload.iter_bytes().collect();
            assert_eq!(&collected[..], &payload.materialize()[..]);
        }
    }

    #[test]
    fn clone_is_shallow_for_shared() {
        let payload = Payload::Shared(vec![1u8; 1024].into());
        let clone = payload.clone();
        let (Payload::Shared(a), Payload::Shared(b)) = (&payload, &clone) else {
            panic!("expected shared payloads");
        };
        assert!(Arc::ptr_eq(a, b), "clone must share the allocation");
    }

    #[test]
    fn make_mut_expands_a_fill_lazily() {
        let mut data = Payload::fill(7, 8192);
        assert!(matches!(data, Payload::Fill { .. }));
        let bytes = data.make_mut();
        assert_eq!(bytes.len(), 8192);
        bytes[0] = 1;
        assert!(matches!(data, Payload::Shared(_)));
        assert_eq!(data.slice(0..2), Payload::Shared(vec![1, 7].into()));
    }

    #[test]
    fn make_mut_unshares_a_buffer_held_by_a_reader() {
        let mut data = Payload::Shared(vec![5u8; 16].into());
        // A reader takes a refcounted view of the block.
        let reader = data.slice(0..16);
        // A writer then mutates the block: the reader's snapshot must survive.
        data.write_at(0, Payload::fill(9, 1));
        assert_eq!(reader, Payload::fill(5, 16), "reader's view was mutated");
        let (Payload::Shared(now), Payload::Shared(held)) = (&data, &reader) else {
            panic!("expected shared payloads");
        };
        assert!(!Arc::ptr_eq(now, held), "write did not un-share");
        assert_eq!(now[0], 9);
        // With no outstanding reader the next write mutates in place.
        let before = Arc::as_ptr(now);
        drop(reader);
        data.make_mut()[1] = 8;
        let Payload::Shared(now) = &data else {
            panic!("expected a shared payload");
        };
        assert_eq!(Arc::as_ptr(now), before);
        assert_eq!(now[..3], [9, 8, 5]);
        // A write as long as the payload replaces it without copying.
        data.write_at(0, Payload::fill(3, 16));
        assert!(matches!(data, Payload::Fill { byte: 3, len: 16 }));
    }

    #[test]
    fn concat_coalesces_same_byte_fills_without_alloc() {
        let pieces = [Payload::fill(7, 4096), Payload::fill(7, 4096)];
        // Empty pieces are ignored.
        let joined = Payload::concat(pieces.into_iter().chain([Payload::fill(9, 0)]));
        assert!(matches!(joined, Payload::Fill { byte: 7, len: 8192 }));
    }

    #[test]
    fn concat_passes_a_whole_shared_piece_through() {
        let buf: Arc<[u8]> = vec![1u8, 2, 3, 4].into();
        let piece = Payload::Shared(Arc::clone(&buf)).slice(0..4);
        match Payload::concat([piece]) {
            Payload::Shared(out) => assert!(Arc::ptr_eq(&out, &buf), "copied a whole-block read"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn concat_joins_ranges_of_one_buffer() {
        let block = Payload::Shared((0u8..16).collect());
        let joined = Payload::concat([block.slice(2..6), block.slice(6..10)]);
        assert_eq!(joined, Payload::Shared((2u8..10).collect()));
        assert_eq!(block.slice(2..6), Payload::Shared((2u8..6).collect()));
    }

    #[test]
    fn concat_mixes_fills_and_bytes_into_one_payload() {
        let _probe = probe_lock();
        let before = materialize_count();
        let pieces = [
            Payload::fill(1, 2),
            Payload::Shared(vec![9u8; 4].into()),
            Payload::fill(2, 2),
        ];
        let flat: Vec<u8> = Payload::concat(pieces).iter_bytes().collect();
        assert_eq!(flat, vec![1, 1, 9, 9, 9, 9, 2, 2]);
        assert!(materialize_count() > before, "flattened fills must count");
        assert_eq!(Payload::concat([]), Payload::empty());
    }
}
