//! # wg-xdr — External Data Representation (XDR, RFC 1014) from scratch
//!
//! NFS version 2 and the ONC RPC layer it rides on encode every message with
//! XDR.  This crate implements the subset of XDR that the simulated
//! messages use:
//!
//! * 32-bit unsigned integers and 64-bit unsigned hyper integers, big-endian,
//! * booleans and enums (as 32-bit integers),
//! * fixed-length and variable-length opaque data (padded to 4-byte
//!   boundaries),
//! * strings (variable-length opaque with UTF-8 validation on decode),
//! * variable-length arrays (a count followed by the elements).
//!
//! The encoder appends to a growable byte buffer; the decoder is a cursor over
//! a byte slice.  Both are written without `unsafe` and both check bounds
//! explicitly, returning [`XdrError`] on malformed input.  The simulated
//! server never decodes bytes (calls reach it as typed values); the NFS
//! message round trips use the decoder, and their tests feed it random and
//! corrupted bytes as untrusted input.
//!
//! A type states its wire layout once.  [`XdrEncode`] pairs `encode` with
//! `xdr_size`, the number of bytes `encode` appends, so a message's size is
//! read off the same layout that writes it, without encoding anything.  Two
//! macros derive all three methods from a declaration: [`xdr_struct!`] for
//! a struct whose wire form is its fields in order, and [`xdr_enum!`] for
//! an enum sent as one 32-bit word per value.

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

    /// The number of bytes [`XdrEncode::encode`] appends, computed without
    /// encoding.
    fn xdr_size(&self) -> usize;
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

    fn xdr_size(&self) -> usize {
        4
    }
}

impl XdrDecode for u32 {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_u32()
    }
}

impl XdrEncode for u64 {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u64(*self);
    }

    fn xdr_size(&self) -> usize {
        8
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

    fn xdr_size(&self) -> usize {
        4
    }
}

impl XdrDecode for bool {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        dec.get_bool()
    }
}

impl<T: XdrEncode> XdrEncode for Vec<T> {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(self.len() as u32);
        for item in self {
            item.encode(enc);
        }
    }

    fn xdr_size(&self) -> usize {
        4 + self.iter().map(T::xdr_size).sum::<usize>()
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

// A shared name (`Arc<str>`) is an ordinary XDR string on the wire.
impl XdrEncode for std::sync::Arc<str> {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_string(self);
    }

    fn xdr_size(&self) -> usize {
        opaque_size(self.len())
    }
}

impl XdrDecode for std::sync::Arc<str> {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(dec.get_string()?.into())
    }
}

/// The bytes a variable-length opaque or string of `len` bytes takes on the
/// wire: its length word and its data padded to a 4-byte boundary.
pub fn opaque_size(len: usize) -> usize {
    4 + len.div_ceil(4) * 4
}

/// Encode any [`XdrEncode`] value into a fresh byte vector.
pub fn to_bytes<T: XdrEncode + ?Sized>(value: &T) -> Vec<u8> {
    let mut enc = XdrEncoder::with_capacity(value.xdr_size());
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

/// Declare a struct whose XDR form is its fields in declaration order, and
/// derive its [`XdrEncode`] and [`XdrDecode`] impls from that one list.
///
/// The struct is written as usual, with its attributes and doc comments;
/// every field's type must implement both traits.  `encode` writes the
/// fields in order, `decode` reads them back in the same order, and
/// `xdr_size` is the sum of the fields' sizes.
///
/// ```
/// wg_xdr::xdr_struct! {
///     /// Two words on the wire.
///     #[derive(Debug, PartialEq)]
///     pub struct Point {
///         /// Across.
///         pub x: u32,
///         /// Down.
///         pub y: u32,
///     }
/// }
/// let p = Point { x: 1, y: 2 };
/// assert_eq!(wg_xdr::XdrEncode::xdr_size(&p), 8);
/// assert_eq!(wg_xdr::from_bytes::<Point>(&wg_xdr::to_bytes(&p)), Ok(p));
/// ```
#[macro_export]
macro_rules! xdr_struct {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_attr:meta])* $field_vis:vis $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$field_attr])* $field_vis $field: $ty),*
        }

        impl $crate::XdrEncode for $name {
            fn encode(&self, enc: &mut $crate::XdrEncoder) {
                $($crate::XdrEncode::encode(&self.$field, enc);)*
            }

            fn xdr_size(&self) -> usize {
                0 $(+ $crate::XdrEncode::xdr_size(&self.$field))*
            }
        }

        impl $crate::XdrDecode for $name {
            fn decode(
                dec: &mut $crate::XdrDecoder<'_>,
            ) -> ::core::result::Result<Self, $crate::XdrError> {
                ::core::result::Result::Ok($name {
                    $($field: <$ty as $crate::XdrDecode>::decode(dec)?),*
                })
            }
        }
    };
}

/// Declare a `Copy` enum sent as one 32-bit word per value, and derive its
/// wire codes and its [`XdrEncode`] and [`XdrDecode`] impls from its
/// discriminants.
///
/// Each variant is written with the word that stands for it.  The macro
/// adds `code`, a value's word, and `from_code`, which refuses a word no
/// variant lists as [`XdrError::InvalidEnum`] with the enum's name; the XDR
/// impls write and read that word.
///
/// ```
/// wg_xdr::xdr_enum! {
///     /// A traffic light.
///     #[derive(Clone, Copy, Debug, PartialEq)]
///     pub enum Light {
///         /// Stop.
///         Red = 1,
///         /// Go.
///         Green = 3,
///     }
/// }
/// assert_eq!(Light::Green.code(), 3);
/// assert_eq!(Light::from_code(1), Ok(Light::Red));
/// assert_eq!(
///     Light::from_code(2),
///     Err(wg_xdr::XdrError::InvalidEnum { type_name: "Light", value: 2 })
/// );
/// ```
#[macro_export]
macro_rules! xdr_enum {
    (
        $(#[$attr:meta])*
        $vis:vis enum $name:ident {
            $($(#[$variant_attr:meta])* $variant:ident = $code:literal),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis enum $name {
            $($(#[$variant_attr])* $variant = $code),*
        }

        impl $name {
            /// The word that stands for this value on the wire.
            $vis fn code(self) -> u32 {
                self as u32
            }

            /// The value a wire word stands for; a word no value has is
            /// refused as an unknown discriminant of this type.
            $vis fn from_code(code: u32) -> ::core::result::Result<Self, $crate::XdrError> {
                match code {
                    $($code => ::core::result::Result::Ok($name::$variant),)*
                    value => ::core::result::Result::Err($crate::XdrError::InvalidEnum {
                        type_name: ::core::stringify!($name),
                        value,
                    }),
                }
            }
        }

        impl $crate::XdrEncode for $name {
            fn encode(&self, enc: &mut $crate::XdrEncoder) {
                enc.put_u32(self.code());
            }

            fn xdr_size(&self) -> usize {
                4
            }
        }

        impl $crate::XdrDecode for $name {
            fn decode(
                dec: &mut $crate::XdrDecoder<'_>,
            ) -> ::core::result::Result<Self, $crate::XdrError> {
                $name::from_code(dec.get_u32()?)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        assert_eq!(from_bytes::<u32>(&to_bytes(&7u32)).unwrap(), 7);
        assert_eq!(from_bytes::<u64>(&to_bytes(&u64::MAX)).unwrap(), u64::MAX);
        assert!(from_bytes::<bool>(&to_bytes(&true)).unwrap());
        let name: std::sync::Arc<str> = "hello".into();
        assert_eq!(
            from_bytes::<std::sync::Arc<str>>(&to_bytes(&name)).unwrap(),
            name
        );
    }

    /// XDR optional data (`type *name`) is a variable-length array of at
    /// most one element (RFC 1014 §3.19), so the `Vec` impls carry both of
    /// its arms: a present value is the word 1 and the value, an absent one
    /// the word 0.
    #[test]
    fn roundtrip_option_and_vec() {
        let present = vec![99u32];
        assert_eq!(to_bytes(&present), [0, 0, 0, 1, 0, 0, 0, 99]);
        assert_eq!(
            from_bytes::<Vec<u32>>(&to_bytes(&present)).unwrap(),
            present
        );
        let absent: Vec<u32> = Vec::new();
        assert_eq!(to_bytes(&absent), [0, 0, 0, 0]);
        assert_eq!(from_bytes::<Vec<u32>>(&to_bytes(&absent)).unwrap(), absent);
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
