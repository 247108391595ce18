//! The XDR decoder.

use crate::error::XdrError;

/// A cursor over an XDR-encoded byte slice.
///
/// Every accessor validates bounds and padding so that a corrupted datagram
/// can never cause a panic or out-of-bounds read in the server.
#[derive(Clone, Debug)]
pub struct XdrDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> XdrDecoder<'a> {
    /// Create a decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        XdrDecoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current byte offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], XdrError> {
        if self.remaining() < n {
            return Err(XdrError::UnexpectedEof {
                wanted: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read an unsigned 32-bit integer.
    pub fn get_u32(&mut self) -> Result<u32, XdrError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read an unsigned 64-bit integer.
    pub fn get_u64(&mut self) -> Result<u64, XdrError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a boolean (must be 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool, XdrError> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(XdrError::InvalidBool(other)),
        }
    }

    /// Read fixed-length opaque data of `len` bytes (plus padding).
    pub fn get_opaque_fixed(&mut self, len: usize) -> Result<Vec<u8>, XdrError> {
        let data = self.take(len)?.to_vec();
        self.skip_padding(len)?;
        Ok(data)
    }

    /// Read variable-length opaque data (length prefix, bytes, padding).
    pub fn get_opaque(&mut self) -> Result<Vec<u8>, XdrError> {
        let len = self.get_u32()? as usize;
        if len > self.remaining() {
            return Err(XdrError::LengthTooLarge {
                claimed: len,
                remaining: self.remaining(),
            });
        }
        self.get_opaque_fixed(len)
    }

    /// Read a string (variable-length opaque validated as UTF-8).
    pub fn get_string(&mut self) -> Result<String, XdrError> {
        let bytes = self.get_opaque()?;
        String::from_utf8(bytes).map_err(|_| XdrError::InvalidUtf8)
    }

    fn skip_padding(&mut self, payload_len: usize) -> Result<(), XdrError> {
        let pad = (4 - payload_len % 4) % 4;
        if pad == 0 {
            return Ok(());
        }
        let bytes = self.take(pad)?;
        if bytes.iter().any(|&b| b != 0) {
            return Err(XdrError::NonZeroPadding);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::XdrEncoder;

    #[test]
    fn roundtrip_all_primitives() {
        let mut e = XdrEncoder::new();
        e.put_u32(123);
        e.put_u64(1 << 40);
        e.put_bool(true);
        e.put_opaque(b"hello world");
        e.put_opaque_fixed(&[9; 16]);
        e.put_string("filename.txt");
        let bytes = e.into_bytes();

        let mut d = XdrDecoder::new(&bytes);
        assert_eq!(d.get_u32().unwrap(), 123);
        assert_eq!(d.get_u64().unwrap(), 1 << 40);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_opaque().unwrap(), b"hello world");
        assert_eq!(d.get_opaque_fixed(16).unwrap(), vec![9; 16]);
        assert_eq!(d.get_string().unwrap(), "filename.txt");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut d = XdrDecoder::new(&[0, 0]);
        assert!(matches!(
            d.get_u32(),
            Err(XdrError::UnexpectedEof {
                wanted: 4,
                available: 2
            })
        ));
    }

    #[test]
    fn bad_bool_is_rejected() {
        let mut e = XdrEncoder::new();
        e.put_u32(3);
        let bytes = e.into_bytes();
        let mut d = XdrDecoder::new(&bytes);
        assert_eq!(d.get_bool(), Err(XdrError::InvalidBool(3)));
    }

    #[test]
    fn oversized_opaque_length_is_rejected() {
        let mut e = XdrEncoder::new();
        e.put_u32(1000); // claims 1000 bytes follow
        e.put_u32(0);
        let bytes = e.into_bytes();
        let mut d = XdrDecoder::new(&bytes);
        assert!(matches!(
            d.get_opaque(),
            Err(XdrError::LengthTooLarge { claimed: 1000, .. })
        ));
    }

    #[test]
    fn nonzero_padding_is_rejected() {
        // length 1, payload 'a', padding deliberately corrupted.
        let bytes = [0, 0, 0, 1, b'a', 1, 0, 0];
        let mut d = XdrDecoder::new(&bytes);
        assert_eq!(d.get_opaque(), Err(XdrError::NonZeroPadding));
    }

    #[test]
    fn invalid_utf8_string_is_rejected() {
        let mut e = XdrEncoder::new();
        e.put_opaque(&[0xff, 0xfe, 0xfd]);
        let bytes = e.into_bytes();
        let mut d = XdrDecoder::new(&bytes);
        assert_eq!(d.get_string(), Err(XdrError::InvalidUtf8));
    }

    #[test]
    fn position_tracks_progress() {
        let mut e = XdrEncoder::new();
        e.put_u32(1);
        e.put_u32(2);
        let bytes = e.into_bytes();
        let mut d = XdrDecoder::new(&bytes);
        assert_eq!(d.position(), 0);
        d.get_u32().unwrap();
        assert_eq!(d.position(), 4);
        assert_eq!(d.remaining(), 4);
    }
}
