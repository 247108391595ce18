//! Micro-benchmarks of the individual substrates: XDR encoding, the UFS write
//! and clustering paths, the disk and NVRAM service-time models, and the
//! server's per-request processing.  These are the hot paths of the
//! simulation; tracking them keeps the table-regeneration harness fast enough
//! to iterate on.
//!
//! Criterion is unavailable offline, so this is a plain `harness = false`
//! bench: each case runs a fixed number of iterations around a
//! `std::time::Instant` and prints the mean per-iteration time.

use std::time::Instant;

use wg_disk::{BlockDevice, Disk, DiskRequest, StripeSet};
use wg_nfsproto::{FileHandle, NfsCall, NfsCallBody, WriteArgs, Xid};
use wg_nvram::Presto;
use wg_server::{NfsServer, ServerConfig, ServerInput, WritePolicy};
use wg_simcore::SimTime;
use wg_ufs::{FsyncFlags, Ufs, WriteFlags};

fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) {
    // One warm-up iteration, then the measured batch.
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let per_iter = start.elapsed() / iters;
    println!("{name:<44} {per_iter:>12.2?}/iter  ({iters} iters)");
}

fn bench_xdr() {
    let call = NfsCall::new(
        Xid(1),
        NfsCallBody::Write(WriteArgs::new(
            FileHandle::new(1, 10, 1),
            0,
            vec![7u8; 8192],
        )),
    );
    bench("xdr/encode_8k_write", 2000, || call.to_wire());
    let wire = call.to_wire();
    bench("xdr/decode_8k_write", 2000, || {
        NfsCall::from_wire(&wire).unwrap()
    });
}

fn bench_ufs() {
    bench("ufs/delayed_write_plus_clustered_flush_1mb", 200, || {
        let mut fs = Ufs::with_defaults(1);
        let root = fs.root();
        let ino = fs.create(root, "f", 0o644, 0).unwrap();
        for i in 0..128u64 {
            fs.write(ino, i * 8192, &[1u8; 8192], WriteFlags::DelayData, i)
                .unwrap();
        }
        let plan = fs.fsync(ino, FsyncFlags::All).unwrap();
        assert!(plan.transactions() < 32);
        plan.transactions()
    });
    bench("ufs/synchronous_writes_1mb", 200, || {
        let mut fs = Ufs::with_defaults(1);
        let root = fs.root();
        let ino = fs.create(root, "f", 0o644, 0).unwrap();
        let mut ops = 0;
        for i in 0..128u64 {
            ops += fs
                .write(ino, i * 8192, &[1u8; 8192], WriteFlags::Sync, i)
                .unwrap()
                .io
                .transactions();
        }
        ops
    });
}

fn bench_devices() {
    bench("devices/rz26_random_8k_writes", 500, || {
        let mut disk = Disk::rz26();
        let mut now = SimTime::ZERO;
        for i in 0..256u64 {
            now = disk.submit(
                now,
                DiskRequest::write((i * 7919 * 8192) % 900_000_000, 8192),
            );
        }
        now
    });
    bench("devices/stripe_sequential_64k_writes", 500, || {
        let mut set = StripeSet::three_rz26();
        let mut now = SimTime::ZERO;
        for i in 0..256u64 {
            now = set.submit(now, DiskRequest::write(i * 65536, 65536));
        }
        now
    });
    bench("devices/presto_accepts_8k_writes", 500, || {
        let mut p = Presto::with_defaults(Disk::rz26());
        let mut now = SimTime::ZERO;
        for i in 0..256u64 {
            now = p.submit(now, DiskRequest::write(i * 8192, 8192));
        }
        now
    });
}

fn bench_server() {
    for (name, policy) in [
        ("server/standard_write_path", WritePolicy::Standard),
        ("server/gathering_write_path", WritePolicy::Gathering),
    ] {
        bench(name, 100, || {
            let mut cfg = ServerConfig::standard();
            cfg.policy = policy;
            let mut server = NfsServer::new(cfg);
            let root = server.fs().root();
            let ino = server.fs_mut().create(root, "t", 0o644, 0).unwrap();
            let fh = server.handle_for_ino(ino).unwrap();
            // Spaced widely enough that the slow (standard) policy never
            // overruns the socket buffer: the benchmark measures per-request
            // processing cost, not overload behaviour.
            let writes = (0..64u64).map(|i| {
                let call = NfsCall::new(
                    Xid(i as u32),
                    NfsCallBody::Write(WriteArgs::new(fh, (i * 8192) as u32, vec![1u8; 8192])),
                );
                let wire_size = call.wire_size();
                let datagram = ServerInput::Datagram {
                    client: 0,
                    call,
                    wire_size,
                    fragments: 2,
                };
                (SimTime::from_micros(i * 2_000), datagram)
            });
            let replies = server.run_script(writes).len();
            assert!(replies >= 32, "server answered only {replies} of 64 writes");
            replies
        });
    }
}

fn main() {
    bench_xdr();
    bench_ufs();
    bench_devices();
    bench_server();
}
