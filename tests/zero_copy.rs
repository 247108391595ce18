//! Zero-copy datapath probes.
//!
//! The client's synthetic writes are fill-pattern [`wg_nfsproto::Payload`]s.
//! If any stage of the datapath — client send, socket buffer, duplicate
//! request cache, gathering queue, UFS block cache — falls back to real
//! bytes, it must call `Payload::materialize`, which bumps a global counter.
//! These tests pin the counter at zero across whole simulated runs, which is
//! the "no per-write payload byte allocation" guarantee of the zero-copy
//! refactor.
//!
//! Each probe lives in this dedicated integration binary so no unrelated
//! test in the same process can touch the counter concurrently.

use wg_nfsproto::payload::materialize_count;
use wg_nfsproto::{NfsCall, NfsCallBody, NfsReply, NfsReplyBody, Payload, ReadArgs, StatusReply};
use wg_nfsproto::{WriteArgs, Xid};
use wg_server::{NfsServer, ServerConfig, ServerInput, WritePolicy};
use wg_simcore::SimTime;
use wg_workload::{ExperimentConfig, FileCopySystem, NetworkKind};

/// Drive a server through scripted calls, collecting its replies.
fn run_server(server: &mut NfsServer, inputs: Vec<(SimTime, NfsCall)>) -> Vec<NfsReply> {
    let script = inputs.into_iter().map(|(t, call)| {
        let wire_size = call.wire_size();
        let datagram = ServerInput::Datagram {
            client: 0,
            call,
            wire_size,
            fragments: 2,
        };
        (t, datagram)
    });
    server
        .run_script(script)
        .into_iter()
        .map(|(_, reply)| reply)
        .collect()
}

#[test]
fn read_back_never_materializes_fill_payloads() {
    // Write a file through the gathering server, then read every block back
    // N times: the whole round trip — UFS block cache, READ handler, reply,
    // duplicate request cache — must hand the fill patterns through without
    // expanding a single one into bytes.
    const BLOCKS: u64 = 64;
    const ROUNDS: u32 = 3;
    let before = materialize_count();
    let mut server = NfsServer::new(ServerConfig::gathering());
    let root = server.fs().root();
    let ino = server.fs_mut().create(root, "readback", 0o644, 0).unwrap();
    let fh = server.handle_for_ino(ino).unwrap();

    let writes: Vec<(SimTime, NfsCall)> = (0..BLOCKS)
        .map(|b| {
            let call = NfsCall::new(
                Xid(0x100 + b as u32),
                NfsCallBody::Write(WriteArgs::fill(fh, (b * 8192) as u32, b as u8, 8192)),
            );
            (SimTime::from_millis(b), call)
        })
        .collect();
    let write_replies = run_server(&mut server, writes);
    assert_eq!(write_replies.len() as u64, BLOCKS);
    assert!(write_replies.iter().all(|r| r.body.is_ok()));

    let mut reads = Vec::new();
    for round in 0..ROUNDS {
        for b in 0..BLOCKS {
            let xid = Xid(0x9000 + round * BLOCKS as u32 + b as u32);
            let call = NfsCall::new(
                xid,
                NfsCallBody::Read(ReadArgs {
                    file: fh,
                    offset: (b * 8192) as u32,
                    count: 8192,
                    totalcount: 0,
                }),
            );
            reads.push((SimTime::from_millis(2_000 + (round as u64) * 500 + b), call));
        }
    }
    let replies = run_server(&mut server, reads);
    assert_eq!(replies.len() as u64, BLOCKS * ROUNDS as u64);
    let check_read_replies = |replies: &[NfsReply]| {
        for reply in replies {
            let block = (reply.xid.0 - 0x9000) % BLOCKS as u32;
            match &reply.body {
                NfsReplyBody::Read(StatusReply::Ok(ok)) => {
                    assert_eq!(ok.data, Payload::fill(block as u8, 8192), "block {block}");
                    assert!(
                        matches!(ok.data, Payload::Fill { .. }),
                        "block {block} came back as real bytes, not the pattern"
                    );
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
    };
    check_read_replies(&replies);

    // Retransmit the last round's xids: the duplicate request cache must
    // replay its Arc-shared READ replies — correct payloads, no re-execution,
    // still no materialisation.
    let duplicates_before = server.stats().duplicate_requests;
    let reads_before = server.fs().counters().reads;
    let retransmits: Vec<(SimTime, NfsCall)> = (0..BLOCKS)
        .map(|b| {
            let xid = Xid(0x9000 + (ROUNDS - 1) * BLOCKS as u32 + b as u32);
            let call = NfsCall::new(
                xid,
                NfsCallBody::Read(ReadArgs {
                    file: fh,
                    offset: (b * 8192) as u32,
                    count: 8192,
                    totalcount: 0,
                }),
            );
            (SimTime::from_millis(10_000 + b), call)
        })
        .collect();
    let replays = run_server(&mut server, retransmits);
    assert_eq!(replays.len() as u64, BLOCKS);
    check_read_replies(&replays);
    assert_eq!(
        server.stats().duplicate_requests - duplicates_before,
        BLOCKS,
        "retransmitted READs were not recognised as duplicates"
    );
    assert_eq!(
        server.fs().counters().reads,
        reads_before,
        "a duplicate READ was re-executed instead of replayed from the cache"
    );

    assert_eq!(
        materialize_count(),
        before,
        "a fill payload was materialised somewhere on the read datapath"
    );
}

#[test]
fn file_copy_never_materializes_fill_payloads() {
    let before = materialize_count();
    // Every policy exercises a different server path (sync commit, delayed
    // data + gathered flush, first-write latency window, async): none may
    // expand a fill payload into bytes.
    for policy in [
        WritePolicy::Standard,
        WritePolicy::Gathering,
        WritePolicy::FirstWriteLatency,
        WritePolicy::DangerousAsync,
    ] {
        let mut system = FileCopySystem::new(
            ExperimentConfig::new(NetworkKind::Fddi, 15, policy).with_file_size(1024 * 1024),
        );
        let result = system.run();
        assert!(
            result.client_write_kb_per_sec > 0.0,
            "{policy:?} produced no throughput"
        );
    }
    assert_eq!(
        materialize_count(),
        before,
        "a fill payload was materialised somewhere on the write datapath"
    );
}

#[test]
fn fill_payload_data_still_lands_in_the_filesystem() {
    // Zero materialisation must not mean zero data: the fill patterns have to
    // be readable back out of the UFS block cache, byte for byte.
    let before = materialize_count();
    let mut system = FileCopySystem::new(
        ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Gathering)
            .with_file_size(256 * 1024),
    );
    system.run();
    assert_eq!(materialize_count(), before);
    let mut fs = system.server().fs().clone();
    let root = fs.root();
    let ino = fs.lookup(root, &FileCopySystem::file_name(0, 0)).unwrap();
    for block in [0u64, 7, 31] {
        let data = fs.read(ino, block * 8192, 8192).unwrap().to_vec();
        assert!(
            data.iter().all(|&b| b == block as u8),
            "block {block} corrupted"
        );
    }
}
