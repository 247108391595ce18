//! Decoding errors.

use std::fmt;

/// Errors produced while decoding an XDR stream.
///
/// Encoding is infallible (the encoder owns its buffer); every variant here
/// describes malformed or truncated input encountered by the decoder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XdrError {
    /// The stream ended before the requested number of bytes was available.
    UnexpectedEof {
        /// Bytes the caller asked for.
        wanted: usize,
        /// Bytes still available.
        available: usize,
    },
    /// A boolean field held a value other than 0 or 1.
    InvalidBool(u32),
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// Non-zero bytes were found in the padding of an opaque field.
    NonZeroPadding,
    /// A length prefix claimed more items/bytes than the stream could hold.
    LengthTooLarge {
        /// The claimed number of elements or bytes.
        claimed: usize,
        /// Bytes remaining in the stream.
        remaining: usize,
    },
    /// A discriminant value did not correspond to any known enum arm.
    InvalidEnum {
        /// The name of the enum being decoded.
        type_name: &'static str,
        /// The unrecognised discriminant.
        value: u32,
    },
    /// A value decoded cleanly but breaks a rule of the type it decodes
    /// to; the text names the type and the rule.
    InvalidValue(&'static str),
    /// The full message was decoded but bytes remained in the buffer.
    TrailingBytes(usize),
}

impl fmt::Display for XdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XdrError::UnexpectedEof { wanted, available } => {
                write!(
                    f,
                    "unexpected end of XDR stream: wanted {wanted} bytes, {available} available"
                )
            }
            XdrError::InvalidBool(v) => write!(f, "invalid XDR boolean value {v}"),
            XdrError::InvalidUtf8 => write!(f, "XDR string is not valid UTF-8"),
            XdrError::NonZeroPadding => write!(f, "non-zero bytes in XDR padding"),
            XdrError::LengthTooLarge { claimed, remaining } => {
                write!(
                    f,
                    "XDR length {claimed} exceeds remaining stream size {remaining}"
                )
            }
            XdrError::InvalidEnum { type_name, value } => {
                write!(f, "invalid discriminant {value} for XDR enum {type_name}")
            }
            XdrError::InvalidValue(rule) => write!(f, "invalid XDR value: {rule}"),
            XdrError::TrailingBytes(n) => write!(f, "{n} trailing bytes after XDR message"),
        }
    }
}

impl std::error::Error for XdrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = XdrError::UnexpectedEof {
            wanted: 8,
            available: 3,
        };
        assert!(e.to_string().contains("wanted 8"));
        assert!(XdrError::InvalidBool(7).to_string().contains('7'));
        assert!(XdrError::InvalidEnum {
            type_name: "NfsStatus",
            value: 42
        }
        .to_string()
        .contains("NfsStatus"));
        assert!(XdrError::TrailingBytes(4).to_string().contains('4'));
        assert!(XdrError::LengthTooLarge {
            claimed: 10,
            remaining: 2
        }
        .to_string()
        .contains("10"));
        assert!(XdrError::NonZeroPadding.to_string().contains("padding"));
        assert!(XdrError::InvalidUtf8.to_string().contains("UTF-8"));
        assert!(XdrError::InvalidValue("names unsorted")
            .to_string()
            .contains("names unsorted"));
    }
}
