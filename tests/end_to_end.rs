//! End-to-end integration: client → network → server → UFS → disk/NVRAM for
//! every combination of network, storage and write policy, checking both the
//! performance plumbing (throughput is produced, statistics add up) and the
//! functional plumbing (the bytes the client wrote are the bytes the
//! filesystem holds).

use wg_server::WritePolicy;
use wg_workload::{ExperimentConfig, FileCopySystem, NetworkKind};

const FILE: u64 = 1024 * 1024;

fn run(
    network: NetworkKind,
    biods: usize,
    policy: WritePolicy,
    presto: bool,
    spindles: usize,
) -> (wg_workload::FileCopyResult, FileCopySystem) {
    let mut system = FileCopySystem::new(
        ExperimentConfig::new(network, biods, policy)
            .with_presto(presto)
            .with_spindles(spindles)
            .with_file_size(FILE),
    );
    let result = system.run();
    (result, system)
}

#[test]
fn every_configuration_completes_and_preserves_data() {
    for network in [NetworkKind::Ethernet, NetworkKind::Fddi] {
        for presto in [false, true] {
            for spindles in [1usize, 3] {
                for policy in [
                    WritePolicy::Standard,
                    WritePolicy::Gathering,
                    WritePolicy::FirstWriteLatency,
                ] {
                    let (result, system) = run(network, 4, policy, presto, spindles);
                    assert!(
                        result.client_write_kb_per_sec > 0.0,
                        "no throughput for {network:?}/{policy:?}/presto={presto}/spindles={spindles}"
                    );
                    assert_eq!(result.retransmissions, 0);
                    // Functional check: every block carries its fill pattern.
                    let mut fs = system.server().fs().clone();
                    let root = fs.root();
                    let ino = fs.lookup(root, &FileCopySystem::file_name(0, 0)).unwrap();
                    assert_eq!(fs.getattr(ino).unwrap().size, FILE);
                    for block in [0u64, 1, 63, 127] {
                        let data = fs.read(ino, block * 8192, 8192).unwrap().to_vec();
                        assert!(
                            data.iter().all(|&b| b == block as u8),
                            "block {block} corrupted under {policy:?}"
                        );
                    }
                    // Stable-storage check for the conforming policies.
                    assert_eq!(
                        system.server().uncommitted_bytes(),
                        0,
                        "{policy:?} left dirty data behind"
                    );
                }
            }
        }
    }
}

#[test]
fn client_byte_accounting_matches_server_side() {
    let (result, system) = run(NetworkKind::Fddi, 7, WritePolicy::Gathering, false, 1);
    let client = system.client().stats();
    assert_eq!(client.bytes_acked, FILE);
    assert_eq!(client.requests_sent, FILE / 8192);
    // The server answered every request exactly once.
    assert_eq!(system.server().stats().replies_sent, FILE / 8192);
    // Disk wrote at least the file (data) once; with gathering the metadata
    // overhead is small.
    let disk = system.server().device_stats();
    assert!(disk.transfers.bytes() >= FILE);
    assert!(disk.transfers.bytes() < FILE * 2);
    assert!(result.elapsed_secs > 0.0);
}

#[test]
fn gathering_beats_standard_and_loses_to_nothing_dangerous() {
    let (standard, _) = run(NetworkKind::Fddi, 15, WritePolicy::Standard, false, 1);
    let (gathering, _) = run(NetworkKind::Fddi, 15, WritePolicy::Gathering, false, 1);
    let (dangerous, sys) = run(NetworkKind::Fddi, 15, WritePolicy::DangerousAsync, false, 1);
    assert!(
        gathering.client_write_kb_per_sec > standard.client_write_kb_per_sec * 2.0,
        "gathering {:.0} vs standard {:.0}",
        gathering.client_write_kb_per_sec,
        standard.client_write_kb_per_sec
    );
    // Dangerous mode is faster still — but only because it cheats.
    assert!(dangerous.client_write_kb_per_sec > gathering.client_write_kb_per_sec);
    assert!(sys.server().uncommitted_bytes() > 0);
}

#[test]
fn disk_transactions_per_byte_shrink_with_gathering() {
    let (standard, _) = run(NetworkKind::Fddi, 15, WritePolicy::Standard, false, 1);
    let (gathering, _) = run(NetworkKind::Fddi, 15, WritePolicy::Gathering, false, 1);
    let std_tx_per_kb = standard.disk_trans_per_sec / standard.disk_kb_per_sec;
    let gat_tx_per_kb = gathering.disk_trans_per_sec / gathering.disk_kb_per_sec;
    assert!(
        gat_tx_per_kb < std_tx_per_kb * 0.55,
        "expected a large reduction in transactions per KB: {gat_tx_per_kb:.4} vs {std_tx_per_kb:.4}"
    );
    assert!(gathering.mean_batch_size > 3.0);
}

#[test]
fn runs_are_deterministic() {
    let (a, _) = run(NetworkKind::Ethernet, 7, WritePolicy::Gathering, true, 1);
    let (b, _) = run(NetworkKind::Ethernet, 7, WritePolicy::Gathering, true, 1);
    assert_eq!(a.client_write_kb_per_sec, b.client_write_kb_per_sec);
    assert_eq!(a.disk_trans_per_sec, b.disk_trans_per_sec);
    assert_eq!(a.server_cpu_percent, b.server_cpu_percent);
    assert_eq!(a.elapsed_secs, b.elapsed_secs);
}
