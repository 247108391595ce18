//! Result records shaped like the paper's tables and figures.

/// One cell-set of Tables 1–6: the four quantities the paper reports for a
/// given (network, storage, policy, biod-count) configuration.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct FileCopyResult {
    /// Number of client biods.
    pub biods: usize,
    /// "client write speed (KB/sec.)"
    pub client_write_kb_per_sec: f64,
    /// "server cpu util. (%)"
    pub server_cpu_percent: f64,
    /// "server disk (KB/sec)"
    pub disk_kb_per_sec: f64,
    /// "server disk (trans/sec)"
    pub disk_trans_per_sec: f64,
    /// Wall-clock seconds of simulated time the copy took.
    pub elapsed_secs: f64,
    /// Mean number of writes covered by one metadata flush (1.0 for the
    /// standard server).
    pub mean_batch_size: f64,
    /// Client retransmissions observed (should be 0 on a private network).
    pub retransmissions: u64,
    /// Writes the client abandoned after exhausting its retransmit budget.
    /// Always a counted failure: any cell with `gave_up > 0` also reports
    /// `completed: false`.
    pub gave_up: u64,
    /// `true` if the copy ran to completion (the client's close returned).
    /// An incomplete run reports elapsed time up to the moment the event
    /// queue drained, which must never be mistaken for a slow-but-finished
    /// cell — multi-client sweeps check this flag per client.
    pub completed: bool,
}

/// A row of one of the paper's tables: the same configuration swept across
/// biod counts, with and without gathering.
#[derive(Clone, Debug, serde::Serialize)]
pub struct TableRow {
    /// Row label, e.g. "client write speed (KB/sec.)".
    pub label: String,
    /// One value per biod-count column.
    pub values: Vec<f64>,
}

impl TableRow {
    /// Render the row in the paper's fixed-width style.
    pub fn render(&self) -> String {
        let mut out = format!("{:<34}", self.label);
        for v in &self.values {
            out.push_str(&format!("{:>8.0}", v));
        }
        out
    }
}

/// The outcome of one multi-client scale-out run: per-client cells plus the
/// aggregate and fairness view the paper's "several clients" remarks call for.
#[derive(Clone, Debug, serde::Serialize)]
pub struct MultiClientResult {
    /// One result per client, in client-id order.
    pub clients: Vec<FileCopyResult>,
    /// Combined client throughput: total acknowledged bytes over the span
    /// from start to the last client's completion.
    pub aggregate_kb_per_sec: f64,
    /// Total bytes acknowledged across all clients.
    pub total_bytes_acked: u64,
    /// Simulated seconds from start to the last completion.
    pub elapsed_secs: f64,
    /// Jain's fairness index over per-client throughput: 1.0 when every
    /// client got an equal share, approaching 1/n when one client starved
    /// the rest.
    pub fairness: f64,
    /// Slowest single client's throughput (KB/s).
    pub min_client_kb_per_sec: f64,
    /// Fastest single client's throughput (KB/s).
    pub max_client_kb_per_sec: f64,
    /// `true` only if every client ran to completion.
    pub completed: bool,
}

impl MultiClientResult {
    /// Jain's fairness index of a throughput vector.
    pub fn jain_fairness(rates: &[f64]) -> f64 {
        if rates.is_empty() {
            return 1.0;
        }
        let sum: f64 = rates.iter().sum();
        let sum_sq: f64 = rates.iter().map(|r| r * r).sum();
        if sum_sq <= 0.0 {
            return 1.0;
        }
        sum * sum / (rates.len() as f64 * sum_sq)
    }
}

/// One point of Figure 2 or Figure 3: offered load vs achieved throughput and
/// average latency.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct SfsPoint {
    /// Offered load in NFS operations per second.
    pub offered_ops_per_sec: f64,
    /// Achieved throughput in operations per second.
    pub achieved_ops_per_sec: f64,
    /// Average response time in milliseconds.
    pub avg_latency_ms: f64,
    /// Server CPU utilisation percentage at this load.
    pub server_cpu_percent: f64,
}

/// Minimal hand-rolled JSON emission for the result records.
///
/// The build environment has no network access, so the real `serde_json`
/// cannot be pulled in; the harness binaries instead assemble their machine
/// readable output from these helpers.
pub mod json {
    use super::{FileCopyResult, MultiClientResult, SfsPoint};

    /// Format an `f64` the way JSON expects (no NaN/inf; stable shortest-ish
    /// representation is fine for harness output).
    pub fn number(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    /// Render a JSON string literal with the escaping RFC 8259 requires
    /// (quote, backslash, and control characters).
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Render a JSON object from pre-rendered `(key, value)` pairs, keys
    /// escaped like any string.
    pub fn object(fields: &[(&str, String)]) -> String {
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", string(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// Render a JSON array from pre-rendered values.
    pub fn array(values: &[String]) -> String {
        format!("[{}]", values.join(","))
    }

    impl FileCopyResult {
        /// The record as a JSON object string.
        pub fn to_json(&self) -> String {
            object(&[
                ("biods", self.biods.to_string()),
                (
                    "client_write_kb_per_sec",
                    number(self.client_write_kb_per_sec),
                ),
                ("server_cpu_percent", number(self.server_cpu_percent)),
                ("disk_kb_per_sec", number(self.disk_kb_per_sec)),
                ("disk_trans_per_sec", number(self.disk_trans_per_sec)),
                ("elapsed_secs", number(self.elapsed_secs)),
                ("mean_batch_size", number(self.mean_batch_size)),
                ("retransmissions", self.retransmissions.to_string()),
                ("gave_up", self.gave_up.to_string()),
                ("completed", self.completed.to_string()),
            ])
        }
    }

    impl MultiClientResult {
        /// The record as a JSON object string.
        pub fn to_json(&self) -> String {
            let clients: Vec<String> = self.clients.iter().map(|c| c.to_json()).collect();
            object(&[
                ("clients", array(&clients)),
                ("aggregate_kb_per_sec", number(self.aggregate_kb_per_sec)),
                ("total_bytes_acked", self.total_bytes_acked.to_string()),
                ("elapsed_secs", number(self.elapsed_secs)),
                ("fairness", number(self.fairness)),
                ("min_client_kb_per_sec", number(self.min_client_kb_per_sec)),
                ("max_client_kb_per_sec", number(self.max_client_kb_per_sec)),
                ("completed", self.completed.to_string()),
            ])
        }
    }

    impl SfsPoint {
        /// The record as a JSON object string.
        pub fn to_json(&self) -> String {
            object(&[
                ("offered_ops_per_sec", number(self.offered_ops_per_sec)),
                ("achieved_ops_per_sec", number(self.achieved_ops_per_sec)),
                ("avg_latency_ms", number(self.avg_latency_ms)),
                ("server_cpu_percent", number(self.server_cpu_percent)),
            ])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_row_renders_fixed_width() {
        let row = TableRow {
            label: "client write speed (KB/sec.)".into(),
            values: vec![165.0, 194.0, 201.0],
        };
        let s = row.render();
        assert!(s.starts_with("client write speed"));
        assert!(s.contains("165"));
        assert!(s.contains("201"));
        assert_eq!(s.len(), 34 + 3 * 8);
    }

    #[test]
    fn results_serialize() {
        let r = FileCopyResult {
            biods: 7,
            client_write_kb_per_sec: 493.0,
            server_cpu_percent: 16.0,
            disk_kb_per_sec: 610.0,
            disk_trans_per_sec: 24.0,
            elapsed_secs: 20.0,
            mean_batch_size: 6.5,
            retransmissions: 0,
            gave_up: 0,
            completed: true,
        };
        let json = r.to_json();
        assert!(json.contains("\"biods\":7"));
        assert!(json.contains("\"completed\":true"));
        let p = SfsPoint {
            offered_ops_per_sec: 500.0,
            achieved_ops_per_sec: 480.0,
            avg_latency_ms: 12.0,
            server_cpu_percent: 55.0,
        };
        assert!(p.to_json().contains("480"));
        let m = MultiClientResult {
            clients: vec![r],
            aggregate_kb_per_sec: 493.0,
            total_bytes_acked: 10 * 1024 * 1024,
            elapsed_secs: 20.0,
            fairness: 1.0,
            min_client_kb_per_sec: 493.0,
            max_client_kb_per_sec: 493.0,
            completed: true,
        };
        let mj = m.to_json();
        assert!(mj.contains("\"fairness\":1"));
        assert!(mj.contains("\"clients\":[{"));
        // String escaping covers quotes, backslashes and control characters.
        assert_eq!(json::string("plain"), "\"plain\"");
        assert_eq!(json::string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json::string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn jain_fairness_index() {
        assert_eq!(MultiClientResult::jain_fairness(&[]), 1.0);
        assert_eq!(MultiClientResult::jain_fairness(&[0.0, 0.0]), 1.0);
        let equal = MultiClientResult::jain_fairness(&[100.0, 100.0, 100.0, 100.0]);
        assert!((equal - 1.0).abs() < 1e-12);
        // One client hogging everything tends toward 1/n.
        let starved = MultiClientResult::jain_fairness(&[400.0, 0.0, 0.0, 0.0]);
        assert!((starved - 0.25).abs() < 1e-12);
        let uneven = MultiClientResult::jain_fairness(&[300.0, 100.0]);
        assert!(uneven > 0.5 && uneven < 1.0);
    }
}
