//! Micro replays: each layer's public calls timed in isolation (the cases of
//! `crates/bench/benches/microbench.rs`), plus the event queue holding a
//! shallow and a deep pending set.  They give every layer a host cost that
//! does not depend on the workload around it.

use std::hint::black_box;
use std::time::Instant;

use wg_disk::{BlockDevice, Disk, DiskRequest, StripeSet};
use wg_nfsproto::{FileHandle, NfsCall, NfsCallBody, WriteArgs, Xid};
use wg_nvram::Presto;
use wg_server::{NfsServer, ServerAction, ServerConfig, ServerInput, WritePolicy};
use wg_simcore::{Duration, EventQueue, SimTime};
use wg_ufs::{FsyncFlags, Ufs, WriteFlags};

use crate::stats::Spread;

/// Batches per case; the reported value is their median.
const BATCHES: u32 = 5;

/// Host nanoseconds per call of `f`, which makes `calls` calls each time it
/// runs: the median over [`BATCHES`] batches lasting `budget_s` together.
fn per_call_ns(budget_s: f64, calls: u64, mut f: impl FnMut() -> u64) -> f64 {
    let warm_up = Instant::now();
    black_box(f());
    let once = warm_up.elapsed().as_secs_f64().max(1e-9);
    let iters = (budget_s / f64::from(BATCHES) / once).ceil().max(1.0) as u64;
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_secs_f64() * 1e9 / (iters * calls) as f64
        })
        .collect();
    Spread::of(&per_call).median
}

/// Every micro case as `(metric, value, unit)`, each case lasting about
/// `budget_s` host seconds.
pub fn replays(budget_s: f64) -> Vec<(&'static str, f64, &'static str)> {
    let call = NfsCall::new(
        Xid(1),
        NfsCallBody::Write(WriteArgs::new(
            FileHandle::new(1, 10, 1),
            0,
            vec![7u8; 8192],
        )),
    );
    let wire = call.to_wire();
    let cases: Vec<(&'static str, u64, Case)> = vec![
        ("simcore.micro_schedule_pop_ns.d16", 1024, schedule_pop(16)),
        (
            "simcore.micro_schedule_pop_ns.d4096",
            1024,
            schedule_pop(4096),
        ),
        (
            "nfsproto.micro_encode_8k_ns",
            1,
            Box::new(|| call.to_wire().len() as u64),
        ),
        (
            "nfsproto.micro_decode_8k_ns",
            1,
            Box::new(|| u64::from(NfsCall::from_wire(&wire).expect("round trip").xid.0)),
        ),
        (
            "ufs.micro_clustered_flush_1mb_us",
            1,
            Box::new(|| ufs_megabyte(false)),
        ),
        (
            "ufs.micro_sync_writes_1mb_us",
            1,
            Box::new(|| ufs_megabyte(true)),
        ),
        (
            "disk.micro_rz26_submit_ns",
            256,
            Box::new(|| submit_256(Disk::rz26(), 7919 * 8192, 8192)),
        ),
        (
            "disk.micro_stripe_submit_ns",
            256,
            Box::new(|| submit_256(StripeSet::three_rz26(), 65536, 65536)),
        ),
        (
            "nvram.micro_presto_submit_ns",
            256,
            Box::new(|| submit_256(Presto::with_defaults(Disk::rz26()), 8192, 8192)),
        ),
        (
            "server.micro_write_us.standard",
            64,
            Box::new(|| server_writes(WritePolicy::Standard, false)),
        ),
        (
            "server.micro_write_us.gathering",
            64,
            Box::new(|| server_writes(WritePolicy::Gathering, false)),
        ),
        (
            "server.micro_write_us.presto",
            64,
            Box::new(|| server_writes(WritePolicy::Standard, true)),
        ),
    ];
    cases
        .into_iter()
        .map(|(name, calls, case)| {
            let ns = per_call_ns(budget_s, calls, case);
            if name.contains("_us") {
                (name, ns / 1e3, "us")
            } else {
                (name, ns, "ns")
            }
        })
        .collect()
}

type Case<'a> = Box<dyn FnMut() -> u64 + 'a>;

/// A steady-state hold model: the queue keeps `depth` events pending, and
/// each call pops the earliest and reschedules it up to 2 ms later.
fn schedule_pop<'a>(depth: u64) -> Case<'a> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut hold = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        Duration::from_nanos(1 + state % 2_000_000)
    };
    let mut queue = EventQueue::new();
    for event in 0..depth {
        queue.schedule_at(SimTime::ZERO + hold(), event);
    }
    Box::new(move || {
        let mut sum = 0;
        for _ in 0..1024 {
            let (t, event) = queue.pop().expect("the hold model keeps the queue full");
            sum ^= event;
            queue.schedule_at(t + hold(), event);
        }
        sum
    })
}

/// Write 1 MB in 8 KB blocks to a fresh file: delayed writes plus one
/// clustered fsync, or synchronous writes.
fn ufs_megabyte(sync: bool) -> u64 {
    let mut fs = Ufs::with_defaults(1);
    let root = fs.root();
    let ino = fs.create(root, "f", 0o644, 0).expect("fresh filesystem");
    let flags = if sync {
        WriteFlags::Sync
    } else {
        WriteFlags::DelayData
    };
    let mut transactions = 0;
    for i in 0..128u64 {
        let outcome = fs
            .write(ino, i * 8192, &[1u8; 8192], flags, i)
            .expect("write fits");
        transactions += outcome.io.transactions();
    }
    if !sync {
        transactions += fs
            .fsync(ino, FsyncFlags::All)
            .expect("fsync")
            .transactions();
    }
    transactions as u64
}

/// Submit 256 writes of `len` bytes at addresses `stride` apart (wrapping
/// inside a 900 MB region) back to back.
fn submit_256(mut device: impl BlockDevice, stride: u64, len: u64) -> u64 {
    let mut now = SimTime::ZERO;
    for i in 0..256u64 {
        now = device.submit(now, DiskRequest::write((i * stride) % 900_000_000, len));
    }
    now.as_nanos()
}

/// 64 sequential 8 KB writes to one file, 2 ms apart: per-request cost, not
/// overload (a slow policy may still drop a few at the socket buffer).
fn server_writes(policy: WritePolicy, presto: bool) -> u64 {
    let mut config = ServerConfig::standard();
    config.policy = policy;
    config.storage.prestoserve = presto;
    let mut server = NfsServer::new(config);
    let root = server.fs().root();
    let ino = server
        .fs_mut()
        .create(root, "t", 0o644, 0)
        .expect("fresh filesystem");
    let fh = server.handle_for_ino(ino).expect("live inode");
    let mut queue = EventQueue::new();
    for i in 0..64u64 {
        let call = NfsCall::new(
            Xid(i as u32),
            NfsCallBody::Write(WriteArgs::new(fh, (i * 8192) as u32, vec![1u8; 8192])),
        );
        let wire_size = call.wire_size();
        queue.schedule_at(
            SimTime::from_micros(i * 2_000),
            ServerInput::Datagram {
                client: 0,
                call,
                wire_size,
                fragments: 2,
            },
        );
    }
    let mut actions = Vec::new();
    let mut replies = 0;
    while let Some((t, input)) = queue.pop() {
        server.handle_into(t, input, &mut actions);
        for action in actions.drain(..) {
            match action {
                ServerAction::Wakeup { at, token } => {
                    queue.schedule_at(at, ServerInput::Wakeup { token })
                }
                ServerAction::Reply { .. } => replies += 1,
            }
        }
    }
    assert!(
        replies >= 32,
        "the server answered only {replies} of 64 writes"
    );
    replies
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_case_reports_a_positive_time() {
        let cases = replays(0.002);
        assert_eq!(cases.len(), 12);
        for (name, value, unit) in cases {
            assert!(value > 0.0 && value.is_finite(), "{name} = {value}");
            assert_eq!(unit == "us", name.contains("_us"));
        }
    }
}
