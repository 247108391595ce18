//! The XDR encoder.

/// An append-only XDR encoder.
///
/// All quantities are written big-endian; opaque data is padded with zero
/// bytes to the next 4-byte boundary as RFC 1014 requires.
#[derive(Clone, Debug, Default)]
pub struct XdrEncoder {
    buf: Vec<u8>,
}

impl XdrEncoder {
    /// Create an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an encoder with pre-allocated capacity (useful for 8 KB write
    /// payloads).
    pub fn with_capacity(cap: usize) -> Self {
        XdrEncoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the encoder and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// A view of the encoded bytes without consuming the encoder.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append an unsigned 32-bit integer.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append an unsigned 64-bit integer (XDR "unsigned hyper").
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a boolean (encoded as a 32-bit 0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(u32::from(v));
    }

    /// Append fixed-length opaque data (padded to a 4-byte boundary, no length
    /// prefix).  The decoder must know the length out of band.
    pub fn put_opaque_fixed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
        self.pad_to_boundary(data.len());
    }

    /// Append variable-length opaque data: a 32-bit length followed by the
    /// bytes, padded to a 4-byte boundary.
    pub fn put_opaque(&mut self, data: &[u8]) {
        self.put_u32(data.len() as u32);
        self.put_opaque_fixed(data);
    }

    /// Append variable-length opaque data consisting of `len` repetitions of
    /// one byte, without the caller having to materialise a buffer (the
    /// zero-copy write path encodes fill payloads this way).
    pub fn put_opaque_fill(&mut self, byte: u8, len: usize) {
        self.put_u32(len as u32);
        self.buf.resize(self.buf.len() + len, byte);
        self.pad_to_boundary(len);
    }

    /// Append a string (variable-length opaque holding UTF-8 bytes).
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque(s.as_bytes());
    }

    fn pad_to_boundary(&mut self, payload_len: usize) {
        let pad = (4 - payload_len % 4) % 4;
        for _ in 0..pad {
            self.buf.push(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_big_endian() {
        let mut e = XdrEncoder::new();
        e.put_u32(0x0102_0304);
        assert_eq!(e.as_bytes(), &[1, 2, 3, 4]);
        let mut e = XdrEncoder::new();
        e.put_u64(0x0102_0304_0506_0708);
        assert_eq!(e.as_bytes(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn opaque_is_padded_to_four_bytes() {
        let mut e = XdrEncoder::new();
        e.put_opaque(b"abcde");
        // 4 length bytes + 5 data bytes + 3 padding bytes.
        assert_eq!(e.len(), 12);
        assert_eq!(&e.as_bytes()[..4], &[0, 0, 0, 5]);
        assert_eq!(&e.as_bytes()[9..], &[0, 0, 0]);
    }

    #[test]
    fn fixed_opaque_has_no_length_prefix() {
        let mut e = XdrEncoder::new();
        e.put_opaque_fixed(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(e.len(), 8);
        let mut e = XdrEncoder::new();
        e.put_opaque_fixed(&[9]);
        assert_eq!(e.len(), 4);
    }

    #[test]
    fn string_and_bool_encoding() {
        let mut e = XdrEncoder::new();
        e.put_bool(true);
        e.put_bool(false);
        e.put_string("ok");
        assert_eq!(
            e.as_bytes(),
            &[0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, b'o', b'k', 0, 0]
        );
    }

    #[test]
    fn opaque_fill_matches_materialised_encoding() {
        for len in [0usize, 1, 3, 4, 5, 8192] {
            let mut fill = XdrEncoder::new();
            fill.put_opaque_fill(0xAB, len);
            let mut plain = XdrEncoder::new();
            plain.put_opaque(&vec![0xAB; len]);
            assert_eq!(fill.as_bytes(), plain.as_bytes(), "len {len}");
        }
    }

    #[test]
    fn with_capacity_and_len_helpers() {
        let e = XdrEncoder::with_capacity(64);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }
}
