//! Write clustering.
//!
//! \[MCVO91\] extended SunOS UFS so that physically contiguous dirty blocks are
//! written with one large transfer instead of one per block; the paper's UFS
//! had the equivalent extension with 64 KB maximum transfers.  Gathered NFS
//! writes only pay off fully if the data flush is clustered: eight gathered
//! 8 KB writes should become one 64 KB disk transaction, not eight.

use wg_disk::DiskRequest;

use crate::params::CLUSTER_SIZE;

/// Coalesce `(physical_address, length)` extents into clustered write
/// requests.
///
/// Extents are sorted by address; runs that are physically contiguous are
/// merged, and merged runs are split so no single transfer exceeds
/// [`CLUSTER_SIZE`] bytes.  Extents that are not contiguous with their
/// neighbours become individual transfers, exactly as UFS would issue them.
pub fn cluster_requests(mut extents: Vec<(u64, u64)>) -> Vec<DiskRequest> {
    if extents.is_empty() {
        return Vec::new();
    }
    extents.sort_unstable_by_key(|&(addr, _)| addr);

    // Merge contiguous extents.
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(extents.len());
    for (addr, len) in extents {
        if len == 0 {
            continue;
        }
        match merged.last_mut() {
            Some((last_addr, last_len)) if *last_addr + *last_len == addr => {
                *last_len += len;
            }
            _ => merged.push((addr, len)),
        }
    }

    // Split merged runs at the maximum transfer size.
    let mut out = Vec::new();
    for (mut addr, mut len) in merged {
        while len > CLUSTER_SIZE {
            out.push(DiskRequest::write(addr, CLUSTER_SIZE));
            addr += CLUSTER_SIZE;
            len -= CLUSTER_SIZE;
        }
        if len > 0 {
            out.push(DiskRequest::write(addr, len));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const K8: u64 = 8192;
    const K64: u64 = 64 * 1024;

    #[test]
    fn eight_contiguous_blocks_become_one_transfer() {
        let extents: Vec<_> = (0..8).map(|i| (i * K8, K8)).collect();
        let reqs = cluster_requests(extents);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].addr, 0);
        assert_eq!(reqs[0].len, K64);
    }

    #[test]
    fn large_runs_split_at_cluster_size() {
        // 20 contiguous blocks = 160 KB -> 64 + 64 + 32 KB.
        let extents: Vec<_> = (0..20).map(|i| (i * K8, K8)).collect();
        let reqs = cluster_requests(extents);
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].len, K64);
        assert_eq!(reqs[1].len, K64);
        assert_eq!(reqs[2].len, 4 * K8);
        assert_eq!(reqs[1].addr, K64);
        assert_eq!(reqs[2].addr, 2 * K64);
    }

    #[test]
    fn non_contiguous_blocks_stay_separate() {
        let extents = vec![(0, K8), (3 * K8, K8), (10 * K8, K8)];
        let reqs = cluster_requests(extents);
        assert_eq!(reqs.len(), 3);
        assert!(reqs.iter().all(|r| r.len == K8));
    }

    #[test]
    fn unsorted_input_is_handled() {
        let extents = vec![(2 * K8, K8), (0, K8), (K8, K8)];
        let reqs = cluster_requests(extents);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].len, 3 * K8);
    }

    #[test]
    fn empty_and_zero_length_extents() {
        assert!(cluster_requests(vec![]).is_empty());
        let reqs = cluster_requests(vec![(0, 0), (K8, K8)]);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].addr, K8);
    }

    #[test]
    fn random_access_pattern_still_amortises_partially() {
        // Two separate contiguous runs.
        let mut extents: Vec<_> = (0..4).map(|i| (i * K8, K8)).collect();
        extents.extend((100..104).map(|i| (i * K8, K8)));
        let reqs = cluster_requests(extents);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].len, 4 * K8);
        assert_eq!(reqs[1].len, 4 * K8);
    }
}
