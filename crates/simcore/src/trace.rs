//! Event trace recording.
//!
//! Figure 1 of the paper is a `tcpdump`-style timeline comparing a standard
//! server against a gathering server for a 4-biod sequential writer: write
//! requests arriving, data and metadata going to disk, and replies leaving.
//! [`Trace`] records exactly that information from the simulation so the
//! `paper` bin's Figure 1 section can print the same picture.

use crate::time::SimTime;

/// The category of a traced event, mirroring the annotations in Figure 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize)]
pub enum TraceKind {
    /// A write request datagram arrived at the server socket buffer.
    RequestArrived,
    /// An nfsd queued its reply on the active-write queue (gathering).
    ReplyDeferred,
    /// An nfsd began procrastinating, waiting for a follow-on write.
    Procrastinate,
    /// File data was written to disk or NVRAM (one transfer).
    DataToDisk,
    /// Metadata (inode / indirect blocks) was written to disk or NVRAM.
    MetadataToDisk,
    /// A reply left the server.
    ReplySent,
}

/// One traced event.
#[derive(Clone, Debug, serde::Serialize)]
pub struct TraceEvent {
    /// When the event happened.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
    /// Free-form detail (byte counts, offsets, block numbers).
    pub detail: String,
}

/// An append-only event trace.
///
/// Recording can be disabled (the default for large benchmark runs) so that
/// the per-event allocation cost does not perturb timing-independent results
/// or bloat memory.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// A disabled trace: `record` calls are cheap no-ops.
    pub fn disabled() -> Self {
        Trace {
            enabled: false,
            events: Vec::new(),
        }
    }

    /// An enabled trace that stores every recorded event.
    pub fn enabled() -> Self {
        Trace {
            enabled: true,
            events: Vec::new(),
        }
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event (no-op when disabled).
    pub fn record(&mut self, at: SimTime, kind: TraceKind, detail: impl Into<String>) {
        if self.enabled {
            self.events.push(TraceEvent {
                at,
                kind,
                detail: detail.into(),
            });
        }
    }

    /// All recorded events in recording order.  That is not time order: the
    /// server records a write's disk and reply events when it plans them,
    /// with the future times they happen at, before events it records later
    /// with earlier times.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events of one kind.
    pub fn count_of(&self, kind: TraceKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(SimTime::ZERO, TraceKind::RequestArrived, "w0");
        assert!(!t.is_enabled());
        assert!(t.events().is_empty());
    }

    #[test]
    fn enabled_trace_keeps_order_and_counts() {
        let mut t = Trace::enabled();
        t.record(
            SimTime::from_millis(1),
            TraceKind::RequestArrived,
            "8K write",
        );
        t.record(SimTime::from_millis(2), TraceKind::DataToDisk, "8K");
        t.record(SimTime::from_millis(3), TraceKind::MetadataToDisk, "inode");
        t.record(SimTime::from_millis(4), TraceKind::ReplySent, "");
        assert_eq!(t.events().len(), 4);
        assert_eq!(t.count_of(TraceKind::DataToDisk), 1);
        assert_eq!(t.count_of(TraceKind::ReplyDeferred), 0);
        let kinds: Vec<TraceKind> = t.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                TraceKind::RequestArrived,
                TraceKind::DataToDisk,
                TraceKind::MetadataToDisk,
                TraceKind::ReplySent
            ]
        );
        assert_eq!(t.events()[0].detail, "8K write");
    }
}
