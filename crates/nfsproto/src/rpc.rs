//! ONC RPC (RFC 1057) call and reply framing.
//!
//! NFS v2 requests travel as RPC *call* messages and come back as RPC *reply*
//! messages.  The transaction id ([`Xid`]) chosen by the client is what the
//! server's duplicate request cache keys on when a retransmission arrives
//! (\[JUSZ89\]); the reproduction therefore carries real xids end to end.

use crate::procs::ProcNumber;
use wg_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder, XdrError};

/// An RPC transaction identifier chosen by the client.
///
/// A retransmission of a request reuses the xid of the original, which is how
/// the server recognises duplicates.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct Xid(pub u32);

impl XdrEncode for Xid {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(self.0);
    }

    fn xdr_size(&self) -> usize {
        4
    }
}

impl XdrDecode for Xid {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(Xid(dec.get_u32()?))
    }
}

const MSG_TYPE_CALL: u32 = 0;
const MSG_TYPE_REPLY: u32 = 1;
const RPC_VERSION: u32 = 2;
const MSG_ACCEPTED: u32 = 0;
const ACCEPT_SUCCESS: u32 = 0;
const AUTH_NULL: u32 = 0;
const AUTH_UNIX: u32 = 1;

/// The AUTH_UNIX credential body every call carries (RFC 1057 §9.2).
const UNIX_CREDENTIAL: [u8; 32] = [
    0, 0, 0, 0, // stamp
    0, 0, 0, 9, b's', b'i', b'm', b'c', b'l', b'i', b'e', b'n', b't', 0, 0, 0, // machine name
    0, 0, 0, 0, // uid: root
    0, 0, 0, 0, // gid: root
    0, 0, 0, 0, // no auxiliary gids
];

/// Read a word that must be `want`; any other value is refused as an
/// unknown `type_name`.
fn expect_word(
    dec: &mut XdrDecoder<'_>,
    want: u32,
    type_name: &'static str,
) -> Result<(), XdrError> {
    match dec.get_u32()? {
        value if value == want => Ok(()),
        value => Err(XdrError::InvalidEnum { type_name, value }),
    }
}

/// Read an authenticator (flavor and opaque body) that must be `flavor`
/// with `body`.
fn expect_auth(
    dec: &mut XdrDecoder<'_>,
    flavor: u32,
    body: &[u8],
    type_name: &'static str,
) -> Result<(), XdrError> {
    expect_word(dec, flavor, type_name)?;
    match dec.get_opaque()? {
        got if got == body => Ok(()),
        _ => Err(XdrError::InvalidValue("RPC authenticator body")),
    }
}

/// The fixed part of an RPC call message: everything up to (but not
/// including) the procedure-specific arguments.
///
/// Only the transaction id and the procedure vary.  The encoder writes the
/// rest as constants: RPC version 2, program [`crate::NFS_PROGRAM`] at
/// version [`crate::NFS_VERSION`], an AUTH_UNIX root credential and an
/// AUTH_NULL verifier.  The decoder refuses any other value of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RpcCallHeader {
    /// Transaction id.
    pub xid: Xid,
    /// The procedure called.
    pub procedure: ProcNumber,
}

impl XdrEncode for RpcCallHeader {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.xid.encode(enc);
        enc.put_u32(MSG_TYPE_CALL);
        enc.put_u32(RPC_VERSION);
        enc.put_u32(crate::NFS_PROGRAM);
        enc.put_u32(crate::NFS_VERSION);
        self.procedure.encode(enc);
        enc.put_u32(AUTH_UNIX);
        enc.put_opaque(&UNIX_CREDENTIAL);
        enc.put_u32(AUTH_NULL);
        enc.put_opaque(&[]);
    }

    /// Ten words (xid, message type, RPC version, program, version,
    /// procedure, and the flavor and body length of the credential and of
    /// the verifier) and the credential body.
    fn xdr_size(&self) -> usize {
        4 * 10 + UNIX_CREDENTIAL.len()
    }
}

impl XdrDecode for RpcCallHeader {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let xid = Xid::decode(dec)?;
        expect_word(dec, MSG_TYPE_CALL, "RpcMessageType(call)")?;
        expect_word(dec, RPC_VERSION, "RpcVersion")?;
        expect_word(dec, crate::NFS_PROGRAM, "RpcProgram")?;
        expect_word(dec, crate::NFS_VERSION, "RpcProgramVersion")?;
        let procedure = ProcNumber::decode(dec)?;
        expect_auth(dec, AUTH_UNIX, &UNIX_CREDENTIAL, "RpcCredentialFlavor")?;
        expect_auth(dec, AUTH_NULL, &[], "RpcVerifierFlavor")?;
        Ok(RpcCallHeader { xid, procedure })
    }
}

/// The fixed part of an RPC reply message.  The server never rejects a
/// call, so every reply is accepted and successful, with an AUTH_NULL
/// verifier; only the transaction id varies, and the decoder refuses any
/// other value of the rest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RpcReplyHeader {
    /// Transaction id copied from the call.
    pub xid: Xid,
}

impl XdrEncode for RpcReplyHeader {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.xid.encode(enc);
        enc.put_u32(MSG_TYPE_REPLY);
        enc.put_u32(MSG_ACCEPTED);
        enc.put_u32(AUTH_NULL);
        enc.put_opaque(&[]);
        enc.put_u32(ACCEPT_SUCCESS);
    }

    /// Six words: xid, message type, disposition, the verifier's flavor and
    /// body length, accept status.
    fn xdr_size(&self) -> usize {
        4 * 6
    }
}

impl XdrDecode for RpcReplyHeader {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let xid = Xid::decode(dec)?;
        expect_word(dec, MSG_TYPE_REPLY, "RpcMessageType(reply)")?;
        expect_word(dec, MSG_ACCEPTED, "RpcReplyDisposition")?;
        expect_auth(dec, AUTH_NULL, &[], "RpcVerifierFlavor")?;
        expect_word(dec, ACCEPT_SUCCESS, "RpcAcceptStatus")?;
        Ok(RpcReplyHeader { xid })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_xdr::{from_bytes, to_bytes};

    #[test]
    fn call_header_roundtrip() {
        let hdr = RpcCallHeader {
            xid: Xid(0xABCD),
            procedure: ProcNumber::Write,
        };
        let bytes = to_bytes(&hdr);
        let back: RpcCallHeader = from_bytes(&bytes).unwrap();
        assert_eq!(back, hdr);
        assert_eq!(bytes.len(), hdr.xdr_size());
        // RPC version 2, program 100003, NFS version 2, procedure 8.
        let word = |i: usize| u32::from_be_bytes(bytes[4 * i..4 * i + 4].try_into().unwrap());
        assert_eq!([word(2), word(3), word(4), word(5)], [2, 100003, 2, 8]);
    }

    #[test]
    fn accepted_reply_roundtrip() {
        let hdr = RpcReplyHeader { xid: Xid(42) };
        let bytes = to_bytes(&hdr);
        let back: RpcReplyHeader = from_bytes(&bytes).unwrap();
        assert_eq!(back, hdr);
        assert_eq!(bytes.len(), hdr.xdr_size());
    }

    /// A call or reply that differs from the simulation's framing in one
    /// constant word is refused as an unknown discriminant.
    #[test]
    fn foreign_framing_is_refused() {
        let call = to_bytes(&RpcCallHeader {
            xid: Xid(1),
            procedure: ProcNumber::Write,
        });
        let reply = to_bytes(&RpcReplyHeader { xid: Xid(1) });
        type Decode = fn(&[u8]) -> Result<(), XdrError>;
        let as_call: Decode = |b| from_bytes::<RpcCallHeader>(b).map(drop);
        let as_reply: Decode = |b| from_bytes::<RpcReplyHeader>(b).map(drop);
        // (what, message, decoder, index of the changed word, its value)
        let cases = [
            ("an AUTH_NULL credential", &call, as_call, 6, 0),
            ("RPC version 3", &call, as_call, 2, 3),
            ("program 100005", &call, as_call, 3, 100_005),
            ("NFS version 3", &call, as_call, 4, 3),
            ("a MSG_DENIED reply", &reply, as_reply, 2, 1),
        ];
        for (what, message, decode, index, value) in cases {
            let mut bytes = message.clone();
            bytes[4 * index..4 * index + 4].copy_from_slice(&u32::to_be_bytes(value));
            assert!(
                matches!(decode(&bytes), Err(XdrError::InvalidEnum { .. })),
                "{what}: {:?}",
                decode(&bytes)
            );
        }
    }

    #[test]
    fn reply_is_not_a_call() {
        let reply = to_bytes(&RpcReplyHeader { xid: Xid(1) });
        assert!(from_bytes::<RpcCallHeader>(&reply).is_err());
        let call = to_bytes(&RpcCallHeader {
            xid: Xid(1),
            procedure: ProcNumber::Getattr,
        });
        assert!(from_bytes::<RpcReplyHeader>(&call).is_err());
    }
}
