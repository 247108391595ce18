//! Randomized tests for the filesystem: data integrity and transaction
//! accounting invariants that the write-gathering result relies on.
//!
//! Deterministic seeded drivers (via [`wg_simcore::SimRng`]) replace the
//! original `proptest` strategies because the build environment is offline;
//! the invariants checked are unchanged.

use wg_nfsproto::Payload;
use wg_simcore::SimRng;
use wg_ufs::{FsyncFlags, Ufs, WriteFlags};

const BS: u64 = 8192;

/// A reference model: the file is just a growable byte vector.
fn apply_reference(reference: &mut Vec<u8>, offset: u64, data: &[u8]) {
    let end = offset as usize + data.len();
    if reference.len() < end {
        reference.resize(end, 0);
    }
    reference[offset as usize..end].copy_from_slice(data);
}

/// What a read of `len` bytes at `offset` returns by the reference model.
fn read_reference(reference: &[u8], offset: u64, len: u64) -> Vec<u8> {
    let from = (offset as usize).min(reference.len());
    let to = ((offset + len) as usize).min(reference.len());
    reference[from..to].to_vec()
}

/// Whatever sequence of writes is applied — fill payloads, uniform and
/// non-uniform real bytes, whole blocks and unaligned spans — a read of any
/// range returns exactly what a plain byte-vector model says it holds, and
/// every payload an earlier read returned still holds what it held then:
/// later writes copy a block a reader shares instead of changing it.
#[test]
fn write_read_matches_reference_model() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from(seed);
        let mut fs = Ufs::with_defaults(1);
        let root = fs.root();
        let ino = fs.create(root, "file", 0o644, 0).unwrap();
        let mut reference: Vec<u8> = Vec::new();
        // Every payload read so far, with the bytes it held when read.
        let mut reads: Vec<(Payload, Vec<u8>)> = Vec::new();

        let ops = 1 + rng.next_below(24);
        for i in 0..ops {
            // Keep offsets within the single-indirect limit.
            let (offset, len) = if rng.chance(0.5) {
                (rng.next_below(12) * BS, (1 + rng.next_below(2)) * BS)
            } else {
                (rng.next_below(100 * 1024), 1 + rng.next_below(2999))
            };
            let flags = if rng.chance(0.5) {
                WriteFlags::DelayData
            } else {
                WriteFlags::Sync
            };
            let fill = rng.next_below(256) as u8;
            let mut data = vec![fill; len as usize];
            match rng.next_below(3) {
                0 => fs.write(ino, offset, Payload::fill(fill, len as u32), flags, i),
                1 => fs.write(ino, offset, &data, flags, i),
                _ => {
                    rng.fill_bytes(&mut data);
                    fs.write(ino, offset, &data, flags, i)
                }
            }
            .unwrap();
            apply_reference(&mut reference, offset, &data);

            let at = rng.next_below(reference.len() as u64 + BS);
            let len = rng.next_below(3 * BS);
            let read = fs.read(ino, at, len).unwrap();
            let want = read_reference(&reference, at, len);
            assert_eq!(read.to_vec(), want, "seed {seed} op {i}");
            reads.push((read.data, want));
        }

        let attrs = fs.getattr(ino).unwrap();
        assert_eq!(attrs.size, reference.len() as u64, "seed {seed}");
        let read = fs.read(ino, 0, reference.len() as u64).unwrap();
        assert_eq!(read.to_vec(), reference, "seed {seed}");
        for (n, (payload, want)) in reads.iter().enumerate() {
            let held: Vec<u8> = payload.iter_bytes().collect();
            assert_eq!(
                held, *want,
                "seed {seed}: read {n} changed under its reader"
            );
        }
    }
}

/// After fsync(All), no dirty state remains and a second fsync issues no
/// further I/O (flush is idempotent).
#[test]
fn fsync_is_idempotent() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from(1000 + seed);
        let mut fs = Ufs::with_defaults(1);
        let root = fs.root();
        let ino = fs.create(root, "file", 0o644, 0).unwrap();
        let writes = 1 + rng.next_below(19);
        for i in 0..writes {
            let block = rng.next_below(64);
            let fill = rng.next_below(256) as u8;
            fs.write(
                ino,
                block * BS,
                &[fill; BS as usize],
                WriteFlags::DelayData,
                i,
            )
            .unwrap();
        }
        let first = fs.fsync(ino, FsyncFlags::All).unwrap();
        assert!(!first.is_empty(), "seed {seed}");
        assert!(!fs.is_dirty(ino).unwrap(), "seed {seed}");
        let second = fs.fsync(ino, FsyncFlags::All).unwrap();
        assert!(
            second.is_empty(),
            "seed {seed}: second fsync still issued {} transactions",
            second.transactions()
        );
    }
}

/// The delayed-then-flush path never issues more data transactions than the
/// per-write synchronous path, and both write identical bytes.
#[test]
fn gathering_never_issues_more_transactions() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from(2000 + seed);
        let count = 1 + rng.next_below(29);
        let blocks: Vec<u64> = (0..count).map(|_| rng.next_below(80)).collect();

        let mut sync_fs = Ufs::with_defaults(1);
        let root = sync_fs.root();
        let a = sync_fs.create(root, "a", 0o644, 0).unwrap();
        let mut sync_ops = 0usize;
        for (i, b) in blocks.iter().enumerate() {
            let out = sync_fs
                .write(a, b * BS, &[1u8; BS as usize], WriteFlags::Sync, i as u64)
                .unwrap();
            sync_ops += out.io.transactions();
        }

        let mut delay_fs = Ufs::with_defaults(1);
        let root = delay_fs.root();
        let b_ino = delay_fs.create(root, "b", 0o644, 0).unwrap();
        for (i, b) in blocks.iter().enumerate() {
            delay_fs
                .write(
                    b_ino,
                    b * BS,
                    &[1u8; BS as usize],
                    WriteFlags::DelayData,
                    i as u64,
                )
                .unwrap();
        }
        let mut delay_ops = delay_fs
            .sync_data(b_ino, 0, u64::MAX)
            .unwrap()
            .transactions();
        delay_ops += delay_fs
            .fsync(b_ino, FsyncFlags::MetadataOnly)
            .unwrap()
            .transactions();

        assert!(
            delay_ops <= sync_ops,
            "seed {seed}: delayed {delay_ops} > sync {sync_ops}"
        );

        let size = sync_fs.getattr(a).unwrap().size;
        assert_eq!(size, delay_fs.getattr(b_ino).unwrap().size, "seed {seed}");
        let left = sync_fs.read(a, 0, size).unwrap().to_vec();
        let right = delay_fs.read(b_ino, 0, size).unwrap().to_vec();
        assert_eq!(left, right, "seed {seed}");
    }
}

/// Clustered flush transfers never exceed the configured cluster size and
/// cover exactly the dirty bytes.
#[test]
fn clustered_transfers_respect_cluster_size() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from(3000 + seed);
        let start = rng.next_below(50);
        let count = 1 + rng.next_below(39);
        let mut fs = Ufs::with_defaults(1);
        let root = fs.root();
        let ino = fs.create(root, "file", 0o644, 0).unwrap();
        for i in 0..count {
            fs.write(
                ino,
                (start + i) * BS,
                &[7u8; BS as usize],
                WriteFlags::DelayData,
                i,
            )
            .unwrap();
        }
        let plan = fs.sync_data(ino, 0, u64::MAX).unwrap();
        for req in &plan.data {
            assert!(req.len <= wg_ufs::CLUSTER_SIZE, "seed {seed}");
            assert!(req.len % BS == 0, "seed {seed}");
        }
        let total: u64 = plan.data.iter().map(|r| r.len).sum();
        assert_eq!(total, count * BS, "seed {seed}");
    }
}
