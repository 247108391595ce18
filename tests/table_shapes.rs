//! Shape checks against the paper's tables.
//!
//! The reproduction is not expected to match 1993 absolute numbers, but the
//! qualitative claims of the Results section must hold.  Each test states the
//! claim it checks.  A reduced (2 MB) copy keeps the suite fast; the `paper`
//! binary regenerates the full 10 MB versions.

use wg_server::WritePolicy;
use wg_workload::{ExperimentConfig, FileCopyResult, FileCopySystem, NetworkKind};

const FILE: u64 = 2 * 1024 * 1024;

fn cell(
    network: NetworkKind,
    biods: usize,
    policy: WritePolicy,
    presto: bool,
    spindles: usize,
) -> FileCopyResult {
    FileCopySystem::new(
        ExperimentConfig::new(network, biods, policy)
            .with_presto(presto)
            .with_spindles(spindles)
            .with_file_size(FILE),
    )
    .run()
}

/// Table 1/3 claim: without gathering, client write speed is pinned by the
/// synchronous per-write disk work and barely moves with more biods.
#[test]
fn baseline_throughput_is_flat_in_biods() {
    for network in [NetworkKind::Ethernet, NetworkKind::Fddi] {
        let few = cell(network, 0, WritePolicy::Standard, false, 1);
        let many = cell(network, 15, WritePolicy::Standard, false, 1);
        assert!(
            many.client_write_kb_per_sec < few.client_write_kb_per_sec * 1.35,
            "{network:?}: {:.0} -> {:.0} KB/s should be nearly flat",
            few.client_write_kb_per_sec,
            many.client_write_kb_per_sec
        );
    }
}

/// Table 1/3/5 claim: with gathering, throughput rises strongly with the biod
/// count (228% gain at 15 biods on Ethernet, 5x on FDDI).
#[test]
fn gathering_scales_with_biods() {
    for (network, factor) in [(NetworkKind::Fddi, 3.0), (NetworkKind::Ethernet, 1.5)] {
        let baseline = cell(network, 15, WritePolicy::Standard, false, 1);
        let gathered = cell(network, 15, WritePolicy::Gathering, false, 1);
        assert!(
            gathered.client_write_kb_per_sec > baseline.client_write_kb_per_sec * factor,
            "{network:?}: gathering {:.0} KB/s vs standard {:.0} KB/s (wanted > {factor}x)",
            gathered.client_write_kb_per_sec,
            baseline.client_write_kb_per_sec
        );
        let none = cell(network, 0, WritePolicy::Gathering, false, 1);
        assert!(
            gathered.client_write_kb_per_sec > none.client_write_kb_per_sec * 2.0,
            "{network:?}: gathering should improve with biods"
        );
    }
}

/// §6.10 / Table 1 claim: the 0-biod (dumb PC) case loses with gathering, but
/// the loss is modest (the paper measured about 15%).
#[test]
fn zero_biod_penalty_is_bounded() {
    let standard = cell(NetworkKind::Ethernet, 0, WritePolicy::Standard, false, 1);
    let gathering = cell(NetworkKind::Ethernet, 0, WritePolicy::Gathering, false, 1);
    let ratio = gathering.client_write_kb_per_sec / standard.client_write_kb_per_sec;
    assert!(ratio < 1.0, "gathering should not win with zero biods");
    assert!(ratio > 0.6, "penalty too large: ratio {ratio:.2}");
}

/// Table 1 vs Table 5 claim: striping helps the gathering server (bigger
/// clustered transfers have somewhere to go) much more than the baseline.
#[test]
fn striping_benefits_gathering_more_than_standard() {
    let std_1 = cell(NetworkKind::Fddi, 15, WritePolicy::Standard, false, 1);
    let std_3 = cell(NetworkKind::Fddi, 15, WritePolicy::Standard, false, 3);
    let gat_1 = cell(NetworkKind::Fddi, 15, WritePolicy::Gathering, false, 1);
    let gat_3 = cell(NetworkKind::Fddi, 15, WritePolicy::Gathering, false, 3);
    let std_gain = std_3.client_write_kb_per_sec / std_1.client_write_kb_per_sec;
    let gat_gain = gat_3.client_write_kb_per_sec / gat_1.client_write_kb_per_sec;
    assert!(
        gat_gain >= std_gain * 0.95,
        "striping gain with gathering ({gat_gain:.2}x) should at least match the baseline ({std_gain:.2}x)"
    );
    assert!(
        gat_3.client_write_kb_per_sec > std_3.client_write_kb_per_sec * 2.5,
        "on the stripe set gathering should win big"
    );
}

/// Table 2 claim: under Prestoserve the baseline is already fast (NVRAM hides
/// the latency), and gathering's value is CPU efficiency — CPU per byte moved
/// drops even if client throughput gives a little.
#[test]
fn presto_gathering_saves_cpu_per_byte() {
    let without = cell(NetworkKind::Ethernet, 7, WritePolicy::Standard, true, 1);
    let with = cell(NetworkKind::Ethernet, 7, WritePolicy::Gathering, true, 1);
    assert!(
        without.client_write_kb_per_sec
            > cell(NetworkKind::Ethernet, 7, WritePolicy::Standard, false, 1)
                .client_write_kb_per_sec
                * 2.0,
        "Prestoserve should transform the baseline"
    );
    let cpu_per_kb_without = without.server_cpu_percent / without.client_write_kb_per_sec;
    let cpu_per_kb_with = with.server_cpu_percent / with.client_write_kb_per_sec;
    assert!(
        cpu_per_kb_with < cpu_per_kb_without * 0.95,
        "gathering should reduce CPU per KB: {cpu_per_kb_with:.5} vs {cpu_per_kb_without:.5}"
    );
    assert!(with.client_write_kb_per_sec > without.client_write_kb_per_sec * 0.75);
}

/// The core 3N -> N claim, measured at the disk: transactions per kilobyte of
/// client data drop by a large factor with gathering.
#[test]
fn disk_transactions_per_kb_drop_sharply() {
    let standard = cell(NetworkKind::Fddi, 15, WritePolicy::Standard, false, 1);
    let gathering = cell(NetworkKind::Fddi, 15, WritePolicy::Gathering, false, 1);
    let std_ratio = standard.disk_trans_per_sec / standard.client_write_kb_per_sec;
    let gat_ratio = gathering.disk_trans_per_sec / gathering.client_write_kb_per_sec;
    assert!(
        gat_ratio < std_ratio / 2.0,
        "transactions per client KB: gathering {gat_ratio:.4} vs standard {std_ratio:.4}"
    );
}
