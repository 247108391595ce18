//! Wire-level protocol integration: every request and reply used by the
//! simulation survives a trip through real XDR bytes, malformed input is
//! rejected without panics, and the duplicate request cache interacts
//! correctly with retransmitted wire messages.

use wg_nfsproto::{
    CreateArgs, DirOpArgs, Fattr, FileHandle, GetattrArgs, NfsCall, NfsCallBody, NfsReply,
    NfsReplyBody, NfsStatus, ReadArgs, ReadOk, Sattr, SetattrArgs, StatusReply, WriteArgs, Xid,
    NFS_MAXDATA,
};

fn fh(ino: u64) -> FileHandle {
    FileHandle::new(1, ino, 3)
}

#[test]
fn a_full_conversation_round_trips_over_the_wire() {
    let calls = vec![
        NfsCall::new(
            Xid(2),
            NfsCallBody::Create(CreateArgs {
                where_: DirOpArgs {
                    dir: fh(2),
                    name: "report.txt".into(),
                },
                attributes: Sattr::with_mode(0o644),
            }),
        ),
        NfsCall::new(
            Xid(3),
            NfsCallBody::Write(WriteArgs::new(fh(5), 0, vec![0xAA; NFS_MAXDATA as usize])),
        ),
        NfsCall::new(
            Xid(4),
            NfsCallBody::Read(ReadArgs {
                file: fh(5),
                offset: 0,
                count: 8192,
                totalcount: 0,
            }),
        ),
        NfsCall::new(
            Xid(5),
            NfsCallBody::Setattr(SetattrArgs {
                file: fh(5),
                attributes: Sattr::with_mode(0o600),
            }),
        ),
        NfsCall::new(Xid(6), NfsCallBody::Getattr(GetattrArgs { file: fh(5) })),
    ];
    for call in calls {
        let wire = call.to_wire();
        // The wire form is self-contained and parses back to the same value.
        let parsed = NfsCall::from_wire(&wire).expect("valid call");
        assert_eq!(parsed, call);
        // Sizes are sane: every call fits a UDP datagram with the v2 limit.
        assert!(wire.len() <= NFS_MAXDATA as usize + 512);
    }

    let replies = vec![
        NfsReply::new(
            Xid(3),
            NfsReplyBody::Attr(StatusReply::Ok(Fattr::default())),
        ),
        NfsReply::new(
            Xid(4),
            NfsReplyBody::Read(StatusReply::Ok(ReadOk {
                attributes: Fattr::default(),
                data: vec![0xAA; 8192].into(),
            })),
        ),
        NfsReply::new(Xid(9), NfsReplyBody::Status(NfsStatus::Stale)),
        NfsReply::new(
            Xid(10),
            NfsReplyBody::Attr(StatusReply::Err(NfsStatus::NoSpc)),
        ),
    ];
    for reply in replies {
        let parsed = NfsReply::from_wire(&reply.to_wire()).expect("valid reply");
        assert_eq!(parsed, reply);
    }
}

#[test]
fn an_8k_write_fragments_like_the_paper_says() {
    // "network traffic will resemble a freight train of 8K (actually a little
    // larger due to protocol headers, etc.) datagrams fragmented into
    // transport units"
    let call = NfsCall::new(
        Xid(77),
        NfsCallBody::Write(WriteArgs::new(fh(1), 0, vec![1; 8192])),
    );
    let size = call.wire_size();
    assert!(size > 8192 && size < 8192 + 300, "wire size {size}");
    let ethernet = wg_net::MediumParams::ethernet();
    let fddi = wg_net::MediumParams::fddi();
    assert_eq!(ethernet.fragments_for(size), 6);
    assert_eq!(fddi.fragments_for(size), 2);
}

#[test]
fn retransmitted_wire_messages_are_recognised_by_the_dup_cache() {
    use wg_server::dupcache::{DupState, DuplicateRequestCache};
    let mut cache = DuplicateRequestCache::new(64);
    let call = NfsCall::new(
        Xid(500),
        NfsCallBody::Write(WriteArgs::new(fh(9), 8192, vec![2; 1024])),
    );
    // First arrival: new, server starts it.
    let parsed = NfsCall::from_wire(&call.to_wire()).unwrap();
    assert_eq!(cache.lookup(1, parsed.xid), DupState::New);
    cache.start(1, parsed.xid);
    // A retransmission decodes to the same xid and is recognised in-progress.
    let retrans = NfsCall::from_wire(&call.to_wire()).unwrap();
    assert_eq!(retrans.xid, parsed.xid);
    assert_eq!(cache.lookup(1, retrans.xid), DupState::InProgress);
    // After completion the cached reply is replayed, byte-identical on the
    // wire.
    let reply = NfsReply::new(
        parsed.xid,
        NfsReplyBody::Attr(StatusReply::Ok(Fattr::default())),
    );
    cache.complete(1, parsed.xid, std::sync::Arc::new(reply.clone()));
    match cache.lookup(1, retrans.xid) {
        DupState::Done(cached) => assert_eq!(cached.to_wire(), reply.to_wire()),
        other => panic!("expected Done, got {other:?}"),
    }
}

/// Arbitrary byte strings never panic the parsers and are (almost always)
/// rejected; flipping bytes of a valid message never panics either.
///
/// A deterministic seeded driver replaces the original `proptest` strategy
/// (the build environment is offline); the property checked is unchanged.
#[test]
fn malformed_wire_input_is_rejected_safely() {
    let mut rng = wg_simcore::SimRng::seed_from(0xBAD_F00D);
    for _ in 0..128 {
        let len = rng.next_below(600) as usize;
        let mut garbage = vec![0u8; len];
        rng.fill_bytes(&mut garbage);
        let _ = NfsCall::from_wire(&garbage);
        let _ = NfsReply::from_wire(&garbage);

        let call = NfsCall::new(
            Xid(1),
            NfsCallBody::Write(WriteArgs::new(fh(1), 0, vec![3; 64])),
        );
        let mut wire = call.to_wire();
        let idx = (rng.next_below(100) as usize) % wire.len();
        wire[idx] = rng.next_below(256) as u8;
        // Must not panic; may or may not decode depending on which byte moved.
        let _ = NfsCall::from_wire(&wire);
    }
}

/// Round-tripping write calls preserves offset and payload exactly.
#[test]
fn write_calls_roundtrip() {
    let mut rng = wg_simcore::SimRng::seed_from(0xC0FFEE);
    for _ in 0..128 {
        let offset = rng.next_below(16_000_000) as u32;
        let xid = rng.next_u64() as u32;
        let len = 1 + rng.next_below(NFS_MAXDATA as u64 - 1) as usize;
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let call = NfsCall::new(
            Xid(xid),
            NfsCallBody::Write(WriteArgs::new(fh(7), offset, data)),
        );
        let back = NfsCall::from_wire(&call.to_wire()).unwrap();
        assert_eq!(back, call);
    }
}
