//! The shared network medium.

use wg_simcore::{Counter, Duration, SimRng, SimTime, Utilization};

/// Calibration of one network segment.
#[derive(Clone, Debug, serde::Serialize)]
pub struct MediumParams {
    /// Signalling time of one bit, in nanoseconds: the raw rate's inverse,
    /// exact in integer nanoseconds for both of the paper's networks
    /// (100 ns at 10 Mb/s, 10 ns at 100 Mb/s).
    pub ns_per_bit: u64,
    /// Maximum link-layer payload per packet (the IP fragment size).
    pub mtu_payload: u32,
    /// Link + IP/UDP header bytes charged per packet.
    pub header_bytes: u32,
    /// Fixed per-packet gap (preamble, inter-frame spacing, token latency).
    pub per_packet_gap: Duration,
    /// One-way propagation/latency floor for a datagram.
    pub propagation: Duration,
    /// The paper's empirically derived procrastination interval for this
    /// medium (§6.6: "approx. 8 msec for Ethernet ... 5 msec for FDDI").
    pub procrastination: Duration,
}

impl MediumParams {
    /// Private 10 Mb/s Ethernet, as used in Tables 1 and 2.
    pub fn ethernet() -> Self {
        MediumParams {
            ns_per_bit: 100,
            mtu_payload: 1472,
            header_bytes: 42,
            per_packet_gap: Duration::from_micros(50),
            propagation: Duration::from_micros(100),
            procrastination: Duration::from_millis(8),
        }
    }

    /// Private 100 Mb/s FDDI ring, as used in Tables 3–6 and Figures 1–3.
    pub fn fddi() -> Self {
        MediumParams {
            ns_per_bit: 10,
            mtu_payload: 4312,
            header_bytes: 40,
            per_packet_gap: Duration::from_micros(15),
            propagation: Duration::from_micros(80),
            procrastination: Duration::from_millis(5),
        }
    }

    /// Number of link packets needed to carry a UDP datagram of `bytes`
    /// payload bytes.
    pub fn fragments_for(&self, bytes: usize) -> u32 {
        if bytes == 0 {
            return 1;
        }
        bytes.div_ceil(self.mtu_payload as usize) as u32
    }

    /// Pure serialisation time of a datagram of `bytes` payload bytes
    /// (fragment headers and inter-packet gaps included, propagation
    /// excluded).
    fn serialisation_time(&self, bytes: usize) -> Duration {
        let fragments = self.fragments_for(bytes) as u64;
        let wire_bytes = bytes as u64 + fragments * self.header_bytes as u64;
        Duration::from_nanos(wire_bytes * 8 * self.ns_per_bit)
            + self.per_packet_gap.saturating_mul(fragments)
    }
}

/// The result of attempting to transmit a datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransmitOutcome {
    /// The datagram will be fully received at the given time.
    Delivered {
        /// Arrival time of the last fragment at the receiver.
        arrives_at: SimTime,
    },
    /// The datagram was lost (a fragment was dropped); the sender will only
    /// find out via its retransmission timer.
    Lost,
}

/// A shared, half-duplex network segment carrying NFS traffic between one or
/// more clients and the server.
///
/// Both directions contend for the same signalling capacity, as they did on
/// the paper's private Ethernet and FDDI segments.
#[derive(Clone, Debug)]
pub struct Medium {
    params: MediumParams,
    busy_until: SimTime,
    loss_probability: f64,
    rng: SimRng,
    to_server: Counter,
    to_client: Counter,
    busy: Utilization,
    lost: u64,
    /// Injected loss windows: while `from <= now < until`, datagrams are
    /// additionally dropped with the window's probability (a probability of
    /// 1.0 or more is a clean partition).  Empty in every default run.
    windows: Vec<(SimTime, SimTime, f64)>,
}

/// Direction of a transfer on the segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Client-to-server (requests).
    ToServer,
    /// Server-to-client (replies).
    ToClient,
}

impl Medium {
    /// A loss-free segment (the paper's case study assumes "we don't have any
    /// lost requests or responses").
    pub fn new(params: MediumParams) -> Self {
        Medium {
            params,
            busy_until: SimTime::ZERO,
            loss_probability: 0.0,
            rng: SimRng::seed_from(0),
            to_server: Counter::new(),
            to_client: Counter::new(),
            busy: Utilization::new(),
            lost: 0,
            windows: Vec::new(),
        }
    }

    /// A segment that independently drops each datagram with probability
    /// `loss_probability`, used by the retransmission tests and ablations.
    pub fn with_loss(params: MediumParams, loss_probability: f64, seed: u64) -> Self {
        let mut m = Medium::new(params);
        m.loss_probability = loss_probability.clamp(0.0, 1.0);
        m.rng = SimRng::seed_from(seed);
        m
    }

    /// The segment's calibration.
    pub fn params(&self) -> &MediumParams {
        &self.params
    }

    /// Inject a loss window: between `from` (inclusive) and `until`
    /// (exclusive) datagrams are additionally dropped with `probability`.
    /// A probability of 1.0 or more partitions the segment outright: every
    /// datagram in the window is dropped, and the partition decision itself
    /// consumes no randomness, so the base loss stream of the surviving
    /// traffic is exactly what it would have been without the window.
    pub fn inject_loss_window(&mut self, from: SimTime, until: SimTime, probability: f64) {
        self.windows.push((from, until, probability.max(0.0)));
    }

    /// The injected-window loss probability active at `now` (0.0 outside all
    /// windows; overlapping windows take the maximum).
    fn window_probability(&self, now: SimTime) -> f64 {
        self.windows
            .iter()
            .filter(|&&(from, until, _)| from <= now && now < until)
            .map(|&(_, _, p)| p)
            .fold(0.0, f64::max)
    }

    /// Transmit a datagram of `bytes` payload bytes in the given direction,
    /// starting no earlier than `now`.
    pub fn transmit(&mut self, now: SimTime, bytes: usize, dir: Direction) -> TransmitOutcome {
        let ser = self.params.serialisation_time(bytes);
        let start = now.max(self.busy_until);
        let end = start + ser;
        self.busy_until = end;
        self.busy.add_busy(ser);
        // Base loss draw first, for every datagram, so the base rng stream —
        // and with it the fate of traffic outside any window — is identical
        // whether or not loss windows were injected.
        if self.loss_probability > 0.0 && self.rng.chance(self.loss_probability) {
            self.lost += 1;
            return TransmitOutcome::Lost;
        }
        if !self.windows.is_empty() {
            let window_p = self.window_probability(now);
            if window_p >= 1.0 {
                // Clean partition: drop without a random draw.
                self.lost += 1;
                return TransmitOutcome::Lost;
            }
            if window_p > 0.0 && self.rng.chance(window_p) {
                self.lost += 1;
                return TransmitOutcome::Lost;
            }
        }
        match dir {
            Direction::ToServer => self.to_server.record(bytes as u64),
            Direction::ToClient => self.to_client.record(bytes as u64),
        }
        TransmitOutcome::Delivered {
            arrives_at: end + self.params.propagation,
        }
    }

    /// Bytes and datagrams carried toward the server.
    pub fn to_server_stats(&self) -> &Counter {
        &self.to_server
    }

    /// Bytes and datagrams carried toward the client(s).
    pub fn to_client_stats(&self) -> &Counter {
        &self.to_client
    }

    /// Number of datagrams dropped by loss injection.
    pub fn lost_datagrams(&self) -> u64 {
        self.lost
    }

    /// Segment utilisation percentage over an observed span.
    pub fn utilization_percent(&self, observed: Duration) -> f64 {
        self.busy.percent(observed)
    }

    /// The time the segment becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_counts_match_mtu() {
        let eth = MediumParams::ethernet();
        assert_eq!(eth.fragments_for(0), 1);
        assert_eq!(eth.fragments_for(1000), 1);
        assert_eq!(eth.fragments_for(1472), 1);
        assert_eq!(eth.fragments_for(1473), 2);
        // A little over 8 KB (RPC header + 8 KB data) needs 6 Ethernet fragments.
        assert_eq!(eth.fragments_for(8300), 6);
        let fddi = MediumParams::fddi();
        assert_eq!(fddi.fragments_for(8300), 2);
    }

    #[test]
    fn an_8k_write_takes_about_7ms_on_ethernet() {
        // 8300 bytes + 6*42 header bytes = 8552 bytes = 68416 bits at 10 Mb/s
        // = 6.84 ms, plus 6 * 50 us of gaps = 7.14 ms.
        let eth = MediumParams::ethernet();
        let t = eth.serialisation_time(8300);
        assert!(
            t > Duration::from_millis(6) && t < Duration::from_millis(8),
            "{t}"
        );
        // And well under 1 ms on FDDI.
        let fddi = MediumParams::fddi();
        assert!(fddi.serialisation_time(8300) < Duration::from_millis(1));
    }

    #[test]
    fn differential_fuzz_serialisation_matches_the_f64_rate() {
        // The integer charge against the f64 expression it replaced, which
        // divided the wire bits by the rate in bits per second and rounded
        // the seconds to the nearest nanosecond: equal at every datagram
        // size up to 1 MiB on both networks.
        for (params, bits_per_sec) in [
            (MediumParams::ethernet(), 10e6),
            (MediumParams::fddi(), 100e6),
        ] {
            for bytes in 0..=1 << 20 {
                let fragments = params.fragments_for(bytes) as u64;
                let wire_bytes = bytes as u64 + fragments * params.header_bytes as u64;
                let want = Duration::from_secs_f64(wire_bytes as f64 * 8.0 / bits_per_sec)
                    + params.per_packet_gap.saturating_mul(fragments);
                assert_eq!(params.serialisation_time(bytes), want, "{bytes} bytes");
            }
        }
    }

    #[test]
    fn shared_medium_serialises_traffic() {
        let mut m = Medium::new(MediumParams::ethernet());
        let a = m.transmit(SimTime::ZERO, 8300, Direction::ToServer);
        let b = m.transmit(SimTime::ZERO, 8300, Direction::ToServer);
        let (ta, tb) = match (a, b) {
            (
                TransmitOutcome::Delivered { arrives_at: ta },
                TransmitOutcome::Delivered { arrives_at: tb },
            ) => (ta, tb),
            _ => panic!("no loss expected"),
        };
        assert!(tb > ta);
        // Second datagram waits for the first: arrival gap equals one
        // serialisation time.
        let gap = tb.since(ta);
        let ser = m.params().serialisation_time(8300);
        assert_eq!(gap, ser);
    }

    #[test]
    fn replies_and_requests_contend() {
        let mut m = Medium::new(MediumParams::fddi());
        m.transmit(SimTime::ZERO, 8300, Direction::ToServer);
        let request_ser = m.params().serialisation_time(8300);
        let reply = m.transmit(SimTime::ZERO, 128, Direction::ToClient);
        match reply {
            TransmitOutcome::Delivered { arrives_at } => {
                // The reply had to wait for the request occupying the segment.
                assert!(arrives_at > SimTime::ZERO + request_ser);
            }
            TransmitOutcome::Lost => panic!("no loss expected"),
        }
        assert_eq!(m.to_server_stats().events(), 1);
        assert_eq!(m.to_client_stats().events(), 1);
    }

    #[test]
    fn procrastination_intervals_match_the_paper() {
        assert_eq!(
            MediumParams::ethernet().procrastination,
            Duration::from_millis(8)
        );
        assert_eq!(
            MediumParams::fddi().procrastination,
            Duration::from_millis(5)
        );
    }

    #[test]
    fn loss_injection_drops_some_datagrams() {
        let mut m = Medium::with_loss(MediumParams::ethernet(), 0.5, 99);
        let mut lost = 0;
        for i in 0..200 {
            let outcome = m.transmit(SimTime::from_millis(i * 10), 1000, Direction::ToServer);
            if outcome == TransmitOutcome::Lost {
                lost += 1;
            }
        }
        assert!(lost > 50 && lost < 150, "lost {lost}");
        assert_eq!(m.lost_datagrams(), lost);
    }

    #[test]
    fn zero_loss_never_drops() {
        let mut m = Medium::new(MediumParams::fddi());
        for i in 0..100 {
            assert!(matches!(
                m.transmit(SimTime::from_millis(i), 512, Direction::ToClient),
                TransmitOutcome::Delivered { .. }
            ));
        }
        assert_eq!(m.lost_datagrams(), 0);
    }

    #[test]
    fn partition_window_drops_everything_inside_and_nothing_outside() {
        let mut m = Medium::new(MediumParams::fddi());
        m.inject_loss_window(SimTime::from_millis(100), SimTime::from_millis(200), 1.0);
        assert!(matches!(
            m.transmit(SimTime::from_millis(50), 512, Direction::ToServer),
            TransmitOutcome::Delivered { .. }
        ));
        assert_eq!(
            m.transmit(SimTime::from_millis(150), 512, Direction::ToServer),
            TransmitOutcome::Lost
        );
        assert!(matches!(
            m.transmit(SimTime::from_millis(250), 512, Direction::ToServer),
            TransmitOutcome::Delivered { .. }
        ));
        assert_eq!(m.lost_datagrams(), 1);
    }

    #[test]
    fn partition_window_does_not_perturb_the_base_loss_stream() {
        // The same seeded lossy medium must make identical base-loss
        // decisions about the surviving traffic whether or not a partition
        // window swallowed unrelated datagrams in between.
        let drops = |partition: bool| {
            let mut m = Medium::with_loss(MediumParams::ethernet(), 0.3, 1234);
            if partition {
                m.inject_loss_window(SimTime::from_millis(400), SimTime::from_millis(600), 1.0);
            }
            let mut outcomes = Vec::new();
            for i in 0..100u64 {
                let t = SimTime::from_millis(i * 10);
                let lost = m.transmit(t, 512, Direction::ToServer) == TransmitOutcome::Lost;
                // Only compare traffic outside the partition.
                if !(SimTime::from_millis(400) <= t && t < SimTime::from_millis(600)) {
                    outcomes.push(lost);
                }
            }
            outcomes
        };
        assert_eq!(drops(false), drops(true));
    }

    #[test]
    fn burst_window_drops_extra_datagrams() {
        let mut m = Medium::new(MediumParams::fddi());
        m.inject_loss_window(SimTime::ZERO, SimTime::from_secs(10), 0.5);
        let mut lost = 0;
        for i in 0..200u64 {
            if m.transmit(SimTime::from_millis(i * 10), 512, Direction::ToServer)
                == TransmitOutcome::Lost
            {
                lost += 1;
            }
        }
        assert!(lost > 50 && lost < 150, "lost {lost}");
    }

    #[test]
    fn utilization_reflects_busy_time() {
        let mut m = Medium::new(MediumParams::ethernet());
        m.transmit(SimTime::ZERO, 8300, Direction::ToServer);
        let util = m.utilization_percent(Duration::from_millis(100));
        assert!(util > 5.0 && util < 10.0, "util {util}");
        assert!(m.free_at() > SimTime::ZERO);
    }
}
