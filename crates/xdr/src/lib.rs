//! # wg-xdr — External Data Representation (XDR, RFC 1014) from scratch
//!
//! NFS version 2 and the ONC RPC layer it rides on encode every message with
//! XDR.  This crate implements the subset of XDR that NFS v2 needs:
//!
//! * 32-bit signed/unsigned integers and 64-bit hyper integers, big-endian,
//! * booleans and enums (as 32-bit integers),
//! * fixed-length and variable-length opaque data (padded to 4-byte
//!   boundaries),
//! * strings (variable-length opaque with UTF-8 validation on decode),
//! * optional data ("pointer" encoding: a boolean followed by the value).
//!
//! The encoder appends to a growable byte buffer; the decoder is a cursor over
//! a byte slice.  Both are written without `unsafe` and both check bounds
//! explicitly, returning [`XdrError`] on malformed input.  The simulated
//! server never decodes bytes (calls reach it as typed values); the NFS
//! message round trips use the decoder, and their tests feed it random and
//! corrupted bytes as untrusted input.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decode;
pub mod encode;
pub mod error;

pub use decode::XdrDecoder;
pub use encode::XdrEncoder;
pub use error::XdrError;

/// Types that can be written to an XDR stream.
pub trait XdrEncode {
    /// Append this value's XDR representation to the encoder.
    fn encode(&self, enc: &mut XdrEncoder);
}

/// Types that can be read back from an XDR stream.
pub trait XdrDecode: Sized {
    /// Parse a value of this type from the decoder's current position.
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError>;
}

impl XdrEncode for u32 {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(*self);
    }
}

impl XdrDecode for u32 {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_u32()
    }
}

impl XdrEncode for i32 {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_i32(*self);
    }
}

impl XdrDecode for i32 {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_i32()
    }
}

impl XdrEncode for u64 {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u64(*self);
    }
}

impl XdrDecode for u64 {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_u64()
    }
}

impl XdrEncode for bool {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_bool(*self);
    }
}

impl XdrDecode for bool {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_bool()
    }
}

impl XdrEncode for String {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_string(self);
    }
}

impl XdrDecode for String {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_string()
    }
}

impl<T: XdrEncode> XdrEncode for Option<T> {
    fn encode(&self, enc: &mut XdrEncoder) {
        match self {
            Some(v) => {
                enc.put_bool(true);
                v.encode(enc);
            }
            None => enc.put_bool(false),
        }
    }
}

impl<T: XdrDecode> XdrDecode for Option<T> {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        if dec.get_bool()? {
            Ok(Some(T::decode(dec)?))
        } else {
            Ok(None)
        }
    }
}

impl<T: XdrEncode> XdrEncode for Vec<T> {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(self.len() as u32);
        for item in self {
            item.encode(enc);
        }
    }
}

impl<T: XdrDecode> XdrDecode for Vec<T> {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let n = dec.get_u32()? as usize;
        // Guard against absurd lengths from corrupted input: each element
        // consumes at least 4 bytes of the remaining stream.
        if n > dec.remaining() / 4 + 1 {
            return Err(XdrError::LengthTooLarge {
                claimed: n,
                remaining: dec.remaining(),
            });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: XdrEncode> XdrEncode for std::sync::Arc<T> {
    fn encode(&self, enc: &mut XdrEncoder) {
        (**self).encode(enc);
    }
}

impl<T: XdrDecode> XdrDecode for std::sync::Arc<T> {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(std::sync::Arc::new(T::decode(dec)?))
    }
}

// `Arc<str>` is not covered by the blanket `Arc<T>` impls (`str` is
// unsized); on the wire it is an ordinary XDR string.
impl XdrEncode for std::sync::Arc<str> {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_string(self);
    }
}

impl XdrDecode for std::sync::Arc<str> {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(dec.get_string()?.into())
    }
}

/// Encode any [`XdrEncode`] value into a fresh byte vector.
pub fn to_bytes<T: XdrEncode>(value: &T) -> Vec<u8> {
    let mut enc = XdrEncoder::new();
    value.encode(&mut enc);
    enc.into_bytes()
}

/// Decode an [`XdrDecode`] value from a byte slice, requiring that the whole
/// slice is consumed.
pub fn from_bytes<T: XdrDecode>(bytes: &[u8]) -> Result<T, XdrError> {
    let mut dec = XdrDecoder::new(bytes);
    let v = T::decode(&mut dec)?;
    if dec.remaining() != 0 {
        return Err(XdrError::TrailingBytes(dec.remaining()));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        assert_eq!(from_bytes::<u32>(&to_bytes(&7u32)).unwrap(), 7);
        assert_eq!(from_bytes::<i32>(&to_bytes(&-7i32)).unwrap(), -7);
        assert_eq!(from_bytes::<u64>(&to_bytes(&u64::MAX)).unwrap(), u64::MAX);
        assert!(from_bytes::<bool>(&to_bytes(&true)).unwrap());
        assert_eq!(
            from_bytes::<String>(&to_bytes(&"hello".to_string())).unwrap(),
            "hello"
        );
    }

    #[test]
    fn roundtrip_option_and_vec() {
        let v: Option<u32> = Some(99);
        assert_eq!(from_bytes::<Option<u32>>(&to_bytes(&v)).unwrap(), Some(99));
        let n: Option<u32> = None;
        assert_eq!(from_bytes::<Option<u32>>(&to_bytes(&n)).unwrap(), None);
        let list = vec![1u32, 2, 3, 4];
        assert_eq!(from_bytes::<Vec<u32>>(&to_bytes(&list)).unwrap(), list);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&5u32);
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            from_bytes::<u32>(&bytes),
            Err(XdrError::TrailingBytes(4))
        ));
    }

    #[test]
    fn absurd_vec_length_rejected() {
        // Claims 2^31 elements but provides none.
        let bytes = to_bytes(&0x8000_0000u32);
        assert!(matches!(
            from_bytes::<Vec<u32>>(&bytes),
            Err(XdrError::LengthTooLarge { .. })
        ));
    }
}
