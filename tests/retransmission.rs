//! Retransmission and overload behaviour across the client/server boundary:
//! lost datagrams and socket-buffer overruns are recovered by the client's
//! timeout/backoff machinery, the duplicate request cache keeps re-executed
//! work correct, and the file still ends up intact.

use wg_server::{NfsServer, ServerConfig, ServerInput, WritePolicy};
use wg_simcore::{Duration, FaultKind, FaultPlan, SimTime};
use wg_workload::{ExperimentConfig, FileCopySystem, NetworkKind};

/// A copy over a network that drops a fraction `loss` of the datagrams in
/// each direction for the whole run.  Short retransmit timeouts keep the
/// test fast while still exercising backoff.
fn run_lossy(policy: WritePolicy, file_size: u64, biods: usize, loss: f64) -> FileCopySystem {
    let lossy = FaultPlan::new().at(
        SimTime::ZERO,
        FaultKind::LossBurst {
            duration: Duration::from_secs(3600),
            probability: loss,
            segment: None,
        },
    );
    let mut system = FileCopySystem::new(
        ExperimentConfig::new(NetworkKind::Fddi, biods, policy)
            .with_file_size(file_size)
            .with_fault_plan(lossy)
            .with_client_retry(Duration::from_millis(120), 20),
    );
    assert!(system.run().completed);
    system
}

fn target_size(server: &NfsServer) -> u64 {
    let mut fs = server.fs().clone();
    let ino = fs
        .lookup(fs.root(), &FileCopySystem::file_name(0, 0))
        .unwrap();
    fs.getattr(ino).unwrap().size
}

#[test]
fn lossy_network_is_survived_by_retransmission() {
    for policy in [WritePolicy::Standard, WritePolicy::Gathering] {
        let system = run_lossy(policy, 256 * 1024, 4, 0.10);
        assert!(system.lost_datagrams() > 0, "the loss injector never fired");
        let stats = system.client().stats();
        assert!(
            stats.retransmissions > 0,
            "{policy:?}: no retransmissions despite loss"
        );
        assert_eq!(
            stats.bytes_acked,
            256 * 1024,
            "{policy:?}: data went missing"
        );
        // The file is complete and correct on the server despite duplicates
        // and losses.
        assert_eq!(target_size(system.server()), 256 * 1024);
        assert_eq!(system.lost_acked_bytes_on_disk(), 0, "{policy:?}: corrupt");
        assert_eq!(system.server().uncommitted_bytes(), 0);
    }
}

#[test]
fn duplicate_requests_from_retransmission_are_absorbed() {
    let system = run_lossy(WritePolicy::Gathering, 128 * 1024, 2, 0.20);
    // With 20% loss and a small window, retransmissions definitely happened;
    // some of them raced the original and were recognised as duplicates.
    assert!(system.client().stats().retransmissions > 0);
    // Every original request was answered exactly once per distinct xid the
    // server executed: replies may exceed the block count only because cached
    // replies were replayed to late retransmissions, never because a write was
    // executed twice.
    assert_eq!(target_size(system.server()), 128 * 1024);
    assert!(
        system.server().stats().replies_sent >= 16,
        "at least one reply per block"
    );
}

#[test]
fn loss_free_runs_never_retransmit() {
    let system = run_lossy(WritePolicy::Gathering, 128 * 1024, 4, 0.0);
    assert_eq!(system.lost_datagrams(), 0);
    assert_eq!(system.client().stats().retransmissions, 0);
    assert_eq!(system.client().stats().bytes_acked, 128 * 1024);
}

#[test]
fn tiny_socket_buffer_forces_drops_and_recovery() {
    // A server with a pathologically small socket buffer drops bursts; the
    // client's retransmission recovers them and the copy still completes.
    let mut system = FileCopySystem::new_customized(
        ExperimentConfig::new(NetworkKind::Fddi, 8, WritePolicy::Gathering)
            .with_file_size(256 * 1024)
            .with_client_retry(Duration::from_millis(150), 10),
        |server| {
            server.socket_buffer_bytes = 18_000; // two 8 KB writes at most
            server.nfsds = 1;
        },
    );
    assert!(system.run().completed);
    assert!(
        system.server().socket_drops() > 0,
        "the tiny buffer never overflowed"
    );
    assert!(system.client().stats().retransmissions > 0);
    assert_eq!(system.client().stats().bytes_acked, 256 * 1024);
    assert_eq!(system.server().uncommitted_bytes(), 0);
}

#[test]
fn retransmitted_state_ops_hit_the_dupcache_not_the_state_table() {
    // Lock and renew traffic rides the same duplicate-request cache as
    // writes, sharded by client id rather than by file.  A retransmitted
    // LOCK must be absorbed by the cache (in-progress drop or cached
    // replay), never re-executed against the state table — and even if one
    // slipped past, strict seqid monotonicity would refuse it.
    use wg_nfsproto::{LockArgs, NfsCall, NfsCallBody, RenewArgs, WriteArgs, Xid};

    let mut cfg = ServerConfig::gathering();
    cfg.nfsds = 4;
    cfg.shards = 4;
    let mut server = NfsServer::new(cfg);
    let root = server.fs().root();
    // Pad the inode allocator so the locked file's inode does not hash to
    // the same shard as the client's state ops: the write must gather on a
    // different nfsd or it would serialise behind the LOCK stream.
    server.fs_mut().create(root, "pad", 0o644, 0).unwrap();
    let ino = server.fs_mut().create(root, "locked", 0o644, 0).unwrap();
    let fh = server.handle_for_ino(ino).unwrap();

    const CLIENT: u32 = 7;
    assert_ne!(
        ino % 4,
        u64::from(CLIENT) % 4,
        "test precondition: write and state ops on distinct shards"
    );
    let dg = |call: NfsCall| {
        let wire = call.wire_size();
        ServerInput::Datagram {
            client: CLIENT,
            call,
            wire_size: wire,
            fragments: 2,
        }
    };
    let renew = NfsCall::new(
        Xid(10),
        NfsCallBody::Renew(RenewArgs {
            client_id: CLIENT,
            verifier: 0xBEEF,
        }),
    );
    let write = NfsCall::new(
        Xid(42),
        NfsCallBody::Write(WriteArgs::new(fh, 0, vec![3u8; 8192])),
    );
    let lock = |xid: u32, seqid: u32| {
        NfsCall::new(
            Xid(xid),
            NfsCallBody::Lock(LockArgs {
                file: fh,
                client_id: CLIENT,
                stateid: 1,
                seqid,
                offset: 0,
                count: 8192,
                reclaim: false,
            }),
        )
    };
    let ms = SimTime::from_millis;
    let inputs = vec![
        // Register the lease, then park a gathered WRITE whose reply is
        // deferred through the procrastination window.
        (ms(0), dg(renew)),
        (ms(1), dg(write.clone())),
        // Retransmitted while still gathered: the InProgress entry eats it.
        (ms(3), dg(write)),
        // First LOCK, then a same-xid retransmission long after the reply
        // went out: the cached reply is replayed verbatim.
        (ms(4), dg(lock(100, 1))),
        (ms(40), dg(lock(100, 1))),
        // A stale seqid under a fresh xid slips past the dupcache; the
        // state table's monotonicity check refuses it.
        (ms(41), dg(lock(101, 1))),
        // The client's genuine next lock proceeds normally.
        (ms(42), dg(lock(102, 2))),
    ];

    let replies = server.run_script(inputs);

    let by_xid = |x: u32| replies.iter().filter(|(_, r)| r.xid == Xid(x)).count();
    // The gathered write answered once; its in-window retransmit was dropped.
    assert_eq!(by_xid(42), 1, "retransmitted gathered write re-executed");
    // The first lock answered twice (original + cached replay), and the two
    // replies are byte-for-byte identical.
    assert_eq!(by_xid(100), 2);
    let bodies: Vec<_> = replies
        .iter()
        .filter(|(_, r)| r.xid == Xid(100))
        .map(|(_, r)| r.body.clone())
        .collect();
    assert_eq!(bodies[0], bodies[1], "cached lock replay diverged");
    assert_eq!(by_xid(101), 1);
    assert_eq!(by_xid(102), 1);

    // One in-progress drop (the write) + one cached replay (the lock).
    assert_eq!(server.stats().duplicate_requests, 2);
    assert_eq!(server.dupcache_evicted_in_progress(), 0);
    // The state table saw exactly two grants and refused the stale seqid;
    // the retransmissions never touched it.
    let st = server.state_stats();
    assert_eq!(st.leases_granted, 1);
    assert_eq!(st.locks_granted, 2);
    assert_eq!(st.seqid_rejections, 1);
    assert_eq!(st.grace_conflicts, 0);
    assert_eq!(st.expired_lease_writes, 0);
    assert_eq!(server.uncommitted_bytes(), 0);
}
