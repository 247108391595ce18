//! ONC RPC (RFC 1057) call and reply framing.
//!
//! NFS v2 requests travel as RPC *call* messages and come back as RPC *reply*
//! messages.  The transaction id ([`Xid`]) chosen by the client is what the
//! server's duplicate request cache keys on when a retransmission arrives
//! (\[JUSZ89\]); the reproduction therefore carries real xids end to end.

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
}

impl XdrDecode for Xid {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(Xid(dec.get_u32()?))
    }
}

/// RPC authentication flavors.  The reproduction only uses `AUTH_UNIX`
/// (flavor 1) and `AUTH_NULL` (flavor 0), like the reference port.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AuthFlavor {
    /// No authentication.
    Null,
    /// Traditional uid/gid credential.
    Unix,
}

impl AuthFlavor {
    fn code(self) -> u32 {
        match self {
            AuthFlavor::Null => 0,
            AuthFlavor::Unix => 1,
        }
    }

    fn from_code(code: u32) -> Result<Self, XdrError> {
        match code {
            0 => Ok(AuthFlavor::Null),
            1 => Ok(AuthFlavor::Unix),
            other => Err(XdrError::InvalidEnum {
                type_name: "AuthFlavor",
                value: other,
            }),
        }
    }
}

/// The fixed part of an RPC call message: everything up to (but not
/// including) the procedure-specific arguments.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RpcCallHeader {
    /// Transaction id.
    pub xid: Xid,
    /// RPC version (always 2).
    pub rpc_version: u32,
    /// Program number (100003 for NFS).
    pub program: u32,
    /// Program version (2 for NFS v2).
    pub version: u32,
    /// Procedure number within the program.
    pub procedure: u32,
    /// Credential flavor.
    pub auth: AuthFlavor,
    /// Caller uid carried in the AUTH_UNIX credential (0 when AUTH_NULL).
    pub uid: u32,
    /// Caller gid carried in the AUTH_UNIX credential (0 when AUTH_NULL).
    pub gid: u32,
}

impl RpcCallHeader {
    /// A call header for an NFS v2 procedure using AUTH_UNIX root credentials.
    pub fn nfs_call(xid: Xid, procedure: u32) -> Self {
        RpcCallHeader {
            xid,
            rpc_version: 2,
            program: crate::NFS_PROGRAM,
            version: crate::NFS_VERSION,
            procedure,
            auth: AuthFlavor::Unix,
            uid: 0,
            gid: 0,
        }
    }
}

const MSG_TYPE_CALL: u32 = 0;
const MSG_TYPE_REPLY: u32 = 1;

impl XdrEncode for RpcCallHeader {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.xid.encode(enc);
        enc.put_u32(MSG_TYPE_CALL);
        enc.put_u32(self.rpc_version);
        enc.put_u32(self.program);
        enc.put_u32(self.version);
        enc.put_u32(self.procedure);
        // Credential: flavor + opaque body.
        enc.put_u32(self.auth.code());
        match self.auth {
            AuthFlavor::Null => enc.put_opaque(&[]),
            AuthFlavor::Unix => {
                // stamp, machine name, uid, gid, gids<> packed as opaque body.
                let mut body = XdrEncoder::new();
                body.put_u32(0); // stamp
                body.put_string("simclient");
                body.put_u32(self.uid);
                body.put_u32(self.gid);
                body.put_u32(0); // no auxiliary gids
                enc.put_opaque(body.as_bytes());
            }
        }
        // Verifier: AUTH_NULL.
        enc.put_u32(0);
        enc.put_opaque(&[]);
    }
}

impl XdrDecode for RpcCallHeader {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let xid = Xid::decode(dec)?;
        let msg_type = dec.get_u32()?;
        if msg_type != MSG_TYPE_CALL {
            return Err(XdrError::InvalidEnum {
                type_name: "RpcMessageType(call)",
                value: msg_type,
            });
        }
        let rpc_version = dec.get_u32()?;
        let program = dec.get_u32()?;
        let version = dec.get_u32()?;
        let procedure = dec.get_u32()?;
        let auth = AuthFlavor::from_code(dec.get_u32()?)?;
        let cred_body = dec.get_opaque()?;
        let (uid, gid) = match auth {
            AuthFlavor::Null => (0, 0),
            AuthFlavor::Unix => {
                let mut body = XdrDecoder::new(&cred_body);
                let _stamp = body.get_u32()?;
                let _machine = body.get_string()?;
                let uid = body.get_u32()?;
                let gid = body.get_u32()?;
                (uid, gid)
            }
        };
        // Verifier.
        let _verf_flavor = dec.get_u32()?;
        let _verf_body = dec.get_opaque()?;
        Ok(RpcCallHeader {
            xid,
            rpc_version,
            program,
            version,
            procedure,
            auth,
            uid,
            gid,
        })
    }
}

/// Why an RPC call was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RejectReason {
    /// RPC version mismatch.
    RpcMismatch,
    /// Authentication failure.
    AuthError,
    /// Program unavailable on this server.
    ProgramUnavailable,
    /// Program version not supported.
    ProgramMismatch,
    /// Procedure number not recognised.
    ProcedureUnavailable,
    /// The arguments could not be decoded.
    GarbageArgs,
}

/// The disposition of an RPC reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RpcReplyStatus {
    /// The call was accepted and executed; procedure results follow.
    Accepted,
    /// The call was rejected before execution.
    Rejected(RejectReason),
}

/// The fixed part of an RPC reply message.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RpcReplyHeader {
    /// Transaction id copied from the call.
    pub xid: Xid,
    /// Accept/reject disposition.
    pub status: RpcReplyStatus,
}

impl RpcReplyHeader {
    /// An accepted-reply header for the given transaction.
    pub fn accepted(xid: Xid) -> Self {
        RpcReplyHeader {
            xid,
            status: RpcReplyStatus::Accepted,
        }
    }
}

impl XdrEncode for RpcReplyHeader {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.xid.encode(enc);
        enc.put_u32(MSG_TYPE_REPLY);
        match self.status {
            RpcReplyStatus::Accepted => {
                enc.put_u32(0); // MSG_ACCEPTED
                enc.put_u32(0); // verifier flavor AUTH_NULL
                enc.put_opaque(&[]);
                enc.put_u32(0); // accept status SUCCESS
            }
            RpcReplyStatus::Rejected(reason) => {
                enc.put_u32(1); // MSG_DENIED
                let code = match reason {
                    RejectReason::RpcMismatch => 0,
                    RejectReason::AuthError => 1,
                    RejectReason::ProgramUnavailable => 2,
                    RejectReason::ProgramMismatch => 3,
                    RejectReason::ProcedureUnavailable => 4,
                    RejectReason::GarbageArgs => 5,
                };
                enc.put_u32(code);
            }
        }
    }
}

impl XdrDecode for RpcReplyHeader {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let xid = Xid::decode(dec)?;
        let msg_type = dec.get_u32()?;
        if msg_type != MSG_TYPE_REPLY {
            return Err(XdrError::InvalidEnum {
                type_name: "RpcMessageType(reply)",
                value: msg_type,
            });
        }
        let disposition = dec.get_u32()?;
        let status = match disposition {
            0 => {
                let _verf_flavor = dec.get_u32()?;
                let _verf_body = dec.get_opaque()?;
                let accept = dec.get_u32()?;
                if accept != 0 {
                    return Err(XdrError::InvalidEnum {
                        type_name: "RpcAcceptStatus",
                        value: accept,
                    });
                }
                RpcReplyStatus::Accepted
            }
            1 => {
                let code = dec.get_u32()?;
                let reason = match code {
                    0 => RejectReason::RpcMismatch,
                    1 => RejectReason::AuthError,
                    2 => RejectReason::ProgramUnavailable,
                    3 => RejectReason::ProgramMismatch,
                    4 => RejectReason::ProcedureUnavailable,
                    5 => RejectReason::GarbageArgs,
                    other => {
                        return Err(XdrError::InvalidEnum {
                            type_name: "RejectReason",
                            value: other,
                        })
                    }
                };
                RpcReplyStatus::Rejected(reason)
            }
            other => {
                return Err(XdrError::InvalidEnum {
                    type_name: "RpcReplyDisposition",
                    value: other,
                })
            }
        };
        Ok(RpcReplyHeader { xid, status })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_xdr::{from_bytes, to_bytes};

    #[test]
    fn call_header_roundtrip() {
        let hdr = RpcCallHeader::nfs_call(Xid(0xABCD), 8);
        let bytes = to_bytes(&hdr);
        let back: RpcCallHeader = from_bytes(&bytes).unwrap();
        assert_eq!(back, hdr);
        assert_eq!(back.program, crate::NFS_PROGRAM);
        assert_eq!(back.version, 2);
        assert_eq!(back.procedure, 8);
    }

    #[test]
    fn null_auth_call_roundtrip() {
        let hdr = RpcCallHeader {
            auth: AuthFlavor::Null,
            uid: 0,
            gid: 0,
            ..RpcCallHeader::nfs_call(Xid(5), 1)
        };
        let bytes = to_bytes(&hdr);
        let back: RpcCallHeader = from_bytes(&bytes).unwrap();
        assert_eq!(back.auth, AuthFlavor::Null);
    }

    #[test]
    fn accepted_reply_roundtrip() {
        let hdr = RpcReplyHeader::accepted(Xid(42));
        let bytes = to_bytes(&hdr);
        let back: RpcReplyHeader = from_bytes(&bytes).unwrap();
        assert_eq!(back, hdr);
    }

    #[test]
    fn rejected_reply_roundtrip() {
        for reason in [
            RejectReason::RpcMismatch,
            RejectReason::AuthError,
            RejectReason::ProgramUnavailable,
            RejectReason::ProgramMismatch,
            RejectReason::ProcedureUnavailable,
            RejectReason::GarbageArgs,
        ] {
            let hdr = RpcReplyHeader {
                xid: Xid(7),
                status: RpcReplyStatus::Rejected(reason),
            };
            let bytes = to_bytes(&hdr);
            let back: RpcReplyHeader = from_bytes(&bytes).unwrap();
            assert_eq!(back, hdr);
        }
    }

    #[test]
    fn reply_is_not_a_call() {
        let reply = to_bytes(&RpcReplyHeader::accepted(Xid(1)));
        assert!(from_bytes::<RpcCallHeader>(&reply).is_err());
        let call = to_bytes(&RpcCallHeader::nfs_call(Xid(1), 1));
        assert!(from_bytes::<RpcReplyHeader>(&call).is_err());
    }
}
