//! Server-side statistics.

use wg_simcore::{Counter, Duration, LatencyStat};

/// Everything the benchmark harness needs from the server side of a run: the
/// CPU and disk numbers reported in the paper's tables, plus gathering
/// effectiveness counters used by the ablation benches and tests.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// WRITE requests completed (replies sent) and payload bytes they carried.
    pub writes_completed: Counter,
    /// Non-write NFS operations completed.
    pub other_ops_completed: Counter,
    /// Per-operation server residence time (arrival to reply transmission),
    /// all operation types.  Every sample is kept, 4 bytes each below
    /// 4.29 s, so its percentiles are exact (see [`LatencyStat`]).
    pub residence: LatencyStat,
    /// Per-WRITE server residence time, kept the same way.
    pub write_residence: LatencyStat,
    /// Number of metadata flushes performed (VOP_FSYNC calls that issued I/O).
    pub metadata_flushes: u64,
    /// Number of writes whose reply was deferred onto another nfsd's flush.
    pub writes_gathered: u64,
    /// Number of gathered batches by size: `batch_sizes[k]` is how many
    /// flushes covered exactly `k` writes (index 0 unused).
    pub batch_sizes: Vec<u64>,
    /// Procrastination sleeps that ended with at least one extra write
    /// gathered ("successes").
    pub procrastination_hits: u64,
    /// Procrastination sleeps that expired without company ("failures": the
    /// server fell back to standard behaviour for that write).
    pub procrastination_misses: u64,
    /// Requests found already in progress or answered from the duplicate
    /// request cache.
    pub duplicate_requests: u64,
    /// Requests dropped because the socket buffer was full.
    pub socket_drops: u64,
    /// `InProgress` duplicate-cache entries forced out because a shard's
    /// whole partition was in progress at once.  Non-zero means a deferred
    /// gathered-write reply could be orphaned by a retransmission (§6.9).
    pub evicted_in_progress: u64,
    /// Replies sent in total.
    pub replies_sent: u64,
    /// Injected server crashes survived (fault injection only).
    pub crashes: u64,
    /// Bytes of *acknowledged* write data lost to a crash: data a reply
    /// promised was stable but that was still volatile when the server died.
    /// The recovery oracle — zero for every policy that honours the NFS
    /// stable-storage rule, positive only under
    /// [`crate::WritePolicy::DangerousAsync`].
    pub lost_acked_bytes: u64,
    /// Total dirty (volatile) bytes discarded across injected crashes,
    /// acknowledged or not.
    pub discarded_dirty_bytes: u64,
    /// Datagrams dropped because they arrived while the server was down or
    /// replaying NVRAM during boot recovery.
    pub dropped_during_recovery: u64,
    /// Disk transfer attempts that failed and were retried inside an injected
    /// disk-degradation window.
    pub disk_retries: u64,
    /// NVRAM battery failures injected.
    pub battery_failures: u64,
    /// WRITE requests accepted with `UNSTABLE` semantics: acknowledged from
    /// the unified buffer cache, made stable later by write-behind or COMMIT.
    pub unstable_writes: u64,
    /// COMMIT requests completed.
    pub commits: u64,
    /// Bytes of *unstable* (acknowledged-uncommitted) write data discarded by
    /// a crash.  Unlike [`ServerStats::lost_acked_bytes`] this is loss the
    /// NFSv3 contract permits: the reply's verifier told the client the data
    /// was volatile, and a verifier mismatch after reboot makes the client
    /// re-send it.
    pub lost_unstable_bytes: u64,
    /// WRITE(UNSTABLE) requests the server promoted to FILE_SYNC because it
    /// had no stable destination to lazily drain them to (unified cache
    /// disarmed, or an NVRAM board running write-through on a dead battery).
    pub forced_file_sync: u64,
}

impl ServerStats {
    /// Create zeroed statistics.
    pub fn new() -> Self {
        ServerStats {
            batch_sizes: vec![0; 65],
            ..ServerStats::default()
        }
    }

    /// Record a flush that covered `n` writes.
    pub fn record_batch(&mut self, n: usize) {
        if self.batch_sizes.is_empty() {
            self.batch_sizes = vec![0; 65];
        }
        let idx = n.min(self.batch_sizes.len() - 1);
        self.batch_sizes[idx] += 1;
        self.metadata_flushes += 1;
    }

    /// Mean number of writes covered by one metadata flush.
    pub fn mean_batch_size(&self) -> f64 {
        let total_batches: u64 = self.batch_sizes.iter().sum();
        if total_batches == 0 {
            return 0.0;
        }
        let total_writes: u64 = self
            .batch_sizes
            .iter()
            .enumerate()
            .map(|(k, count)| k as u64 * count)
            .sum();
        total_writes as f64 / total_batches as f64
    }

    /// Client-visible write throughput in KB/s over an observed span.
    pub fn write_kb_per_sec(&self, observed: Duration) -> f64 {
        self.writes_completed.kb_per_sec(observed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_accounting() {
        let mut s = ServerStats::new();
        s.record_batch(1);
        s.record_batch(7);
        s.record_batch(8);
        assert_eq!(s.metadata_flushes, 3);
        assert!((s.mean_batch_size() - 16.0 / 3.0).abs() < 1e-9);
        // Oversized batches clamp into the last bucket instead of panicking.
        s.record_batch(500);
        assert_eq!(s.batch_sizes.last().copied().unwrap(), 1);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = ServerStats::new();
        assert_eq!(s.mean_batch_size(), 0.0);
        assert_eq!(s.write_kb_per_sec(Duration::from_secs(1)), 0.0);
    }

    #[test]
    fn throughput_helper() {
        let mut s = ServerStats::new();
        for _ in 0..10 {
            s.writes_completed.record(8192);
        }
        assert!((s.write_kb_per_sec(Duration::from_secs(1)) - 80.0).abs() < 1e-9);
    }
}
