//! The one serial event loop every workload driver runs on.
//!
//! A driver is a client [`Population`] — the file-writer fleet behind the
//! file-copy system, or the SFS generator streams — plugged
//! into a [`Harness`] that owns everything else: the event queue, the LAN
//! fan-in ([`ClientLans`]), the server, the fault plan and the scheduler
//! counters.  The harness pops events in `(time, insertion)` order, hands
//! client events to the population, runs server events, sends their replies
//! over the addressed client's segment, and applies injected faults.  A
//! population decides what its clients do, including whether a reply that
//! crossed the wire reaches its client as a queued delivery event or is
//! settled the moment it is sent (see [`Population::reply`]).

use wg_net::medium::{Direction, MediumParams};
use wg_net::{Medium, TransmitOutcome};
use wg_nfsproto::{NfsCall, NfsReply};
use wg_server::{NfsServer, ServerAction, ServerInput, WritePolicy};
use wg_simcore::{EventQueue, FaultKind, FaultPlan, Reservation, SimTime};

/// The clients of one run: what they do when their events fire.
pub(crate) trait Population {
    /// A client-side event (start, timer, reply delivery, ...).
    type Event;

    /// Schedule the clients' first events.  Runs before the fault plan's
    /// places are reserved, so a client event scheduled here and a fault at
    /// the same instant fire client first.
    fn start(&mut self, core: &mut Core<Self::Event>);

    /// `reply` to `client` crossed the wire and reaches the client at
    /// `arrives_at`.  Return the event that delivers it then, or settle it
    /// now and return `None` when nothing the run does before `arrives_at`
    /// can tell the difference.
    fn reply(&mut self, client: u32, reply: NfsReply, arrives_at: SimTime) -> Option<Self::Event>;

    /// Handle one client event at `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, core: &mut Core<Self::Event>);
}

/// One queued event: a population's client event, a server input, or a
/// fault-plan event.
pub(crate) enum Ev<E> {
    Client(E),
    Server(ServerInput),
    /// An injected fault fires (scheduled only when the plan is non-empty).
    Fault(FaultKind),
    /// The NVRAM battery comes back after a `BatteryFailure`.
    BatteryRepair,
}

/// The network fan-in of a run: one segment shared by every client, or one
/// private LAN per client, every segment terminating at the one server.
pub(crate) struct ClientLans {
    media: Vec<Medium>,
}

impl ClientLans {
    /// Build a loss-free fan-in: `clients` private segments when
    /// `per_client` is set, one shared segment otherwise.  Loss windows
    /// injected later draw from each segment's zero-seeded stream.
    pub(crate) fn new(params: &MediumParams, clients: usize, per_client: bool) -> Self {
        let count = if per_client { clients.max(1) } else { 1 };
        ClientLans {
            media: (0..count).map(|_| Medium::new(params.clone())).collect(),
        }
    }

    /// Build the fan-in with every segment dropping datagrams at
    /// `loss_probability`.  Each segment's loss stream is seeded from
    /// `(seed, segment index)` alone — never from construction order or
    /// wall-clock — so a sweep cell built on a worker thread draws exactly
    /// the loss pattern the same cell draws in a serial sweep.
    pub(crate) fn with_loss(
        params: &MediumParams,
        clients: usize,
        per_client: bool,
        loss_probability: f64,
        seed: u64,
    ) -> Self {
        let count = if per_client { clients.max(1) } else { 1 };
        ClientLans {
            media: (0..count)
                .map(|segment| {
                    Medium::with_loss(
                        params.clone(),
                        loss_probability,
                        Self::segment_seed(seed, segment),
                    )
                })
                .collect(),
        }
    }

    /// Per-segment rng seed: a splitmix-style mix of the base seed and the
    /// segment index, so adjacent segments do not share prefixes.
    fn segment_seed(seed: u64, segment: usize) -> u64 {
        let mut z = seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((segment as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Open a loss window on one segment (`Some(idx)`, clamped into range) or
    /// on every segment (`None`).
    fn inject_loss_window(
        &mut self,
        segment: Option<usize>,
        from: SimTime,
        until: SimTime,
        probability: f64,
    ) {
        match segment {
            Some(idx) => {
                let idx = idx.min(self.media.len() - 1);
                self.media[idx].inject_loss_window(from, until, probability);
            }
            None => {
                for medium in &mut self.media {
                    medium.inject_loss_window(from, until, probability);
                }
            }
        }
    }

    /// The segment a client transmits and receives on.
    fn medium_mut(&mut self, client: usize) -> &mut Medium {
        let idx = if self.media.len() > 1 { client } else { 0 };
        &mut self.media[idx]
    }

    /// Number of distinct segments.
    pub(crate) fn segments(&self) -> usize {
        self.media.len()
    }

    /// Datagrams dropped on every segment, both directions.
    pub(crate) fn lost_datagrams(&self) -> u64 {
        self.media.iter().map(Medium::lost_datagrams).sum()
    }
}

/// Everything a population acts on: the queue, the LAN fan-in and the
/// server.
pub(crate) struct Core<E> {
    pub(crate) server: NfsServer,
    pub(crate) lans: ClientLans,
    queue: EventQueue<Ev<E>>,
    /// The faults fired so far, in firing order.
    #[cfg(test)]
    faults_fired: Vec<FaultKind>,
}

impl<E> Core<E> {
    /// Schedule a client event.
    pub(crate) fn schedule(&mut self, at: SimTime, event: E) {
        self.queue.schedule_at(at, Ev::Client(event));
    }

    /// Reserve the place a client event scheduled at `at` now would take
    /// (see [`EventQueue::reserve`]).
    pub(crate) fn reserve(&mut self, at: SimTime) -> Reservation {
        self.queue.reserve(at)
    }

    /// Schedule a client event into a place reserved earlier.
    pub(crate) fn schedule_reserved(&mut self, place: Reservation, event: E) {
        self.queue.schedule_reserved(place, Ev::Client(event));
    }

    /// Send `call` from `client` at `at` over the client's segment.  A
    /// datagram the network drops never arrives; recovering it is the
    /// client's business.
    pub(crate) fn send(&mut self, at: SimTime, client: usize, call: NfsCall) {
        let size = call.wire_size();
        let medium = self.lans.medium_mut(client);
        let fragments = medium.params().fragments_for(size);
        if let TransmitOutcome::Delivered { arrives_at } =
            medium.transmit(at, size, Direction::ToServer)
        {
            self.queue.schedule_at(
                arrives_at,
                Ev::Server(ServerInput::Datagram {
                    client: client as u32,
                    call,
                    wire_size: size,
                    fragments,
                }),
            );
        }
    }

    /// The simulated time of the last popped event.
    pub(crate) fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The event queue, for its counters.
    pub(crate) fn queue(&self) -> &EventQueue<Ev<E>> {
        &self.queue
    }

    /// Queue the next fault of the plan, if any, in the place reserved for
    /// it.
    fn queue_next_fault(&mut self, faults: &mut impl Iterator<Item = (Reservation, FaultKind)>) {
        if let Some((place, kind)) = faults.next() {
            self.queue.schedule_reserved(place, Ev::Fault(kind));
        }
    }

    fn fault(&mut self, t: SimTime, kind: FaultKind) {
        #[cfg(test)]
        self.faults_fired.push(kind);
        match kind {
            FaultKind::ServerCrash => {
                self.server.crash(t);
            }
            FaultKind::BatteryFailure { repair_after } => {
                self.server.set_battery(false, t);
                self.queue.schedule_at(t + repair_after, Ev::BatteryRepair);
            }
            FaultKind::DiskDegrade {
                duration,
                stall,
                retries,
            } => {
                self.server.inject_disk_fault(t, duration, stall, retries);
            }
            FaultKind::LossBurst {
                duration,
                probability,
                segment,
            } => {
                self.lans
                    .inject_loss_window(segment, t, t + duration, probability);
            }
        }
    }
}

/// A population wired to the server through one deterministic event loop.
pub(crate) struct Harness<P: Population> {
    pub(crate) core: Core<P::Event>,
    pub(crate) clients: P,
    faults: FaultPlan,
    events_processed: u64,
}

impl<P: Population> Harness<P> {
    /// Wire `clients` to `server` over `lans`.  An empty fault plan schedules
    /// nothing, so the run is identical to one without the fault layer.
    pub(crate) fn new(server: NfsServer, lans: ClientLans, clients: P, faults: FaultPlan) -> Self {
        Harness {
            core: Core {
                server,
                lans,
                queue: EventQueue::new(),
                #[cfg(test)]
                faults_fired: Vec::new(),
            },
            clients,
            faults,
            events_processed: 0,
        }
    }

    /// Number of events processed by the most recent [`Harness::run`].
    pub(crate) fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Run until the queue drains.  Every event the run schedules is either
    /// handled or still pending when the queue empties, so `max_events` is a
    /// runaway guard (a retransmission storm that never converges), not a
    /// horizon.  The server-action buffer is allocated once, so the steady
    /// loop performs no per-event allocation.
    ///
    /// Every fault's place is reserved up front, in plan order (which is
    /// firing order), but only the next one due is queued: each fault queues
    /// its successor as it fires, so a long plan costs one queued event.
    pub(crate) fn run(&mut self, max_events: u64) {
        self.events_processed = 0;
        self.clients.start(&mut self.core);
        let core = &mut self.core;
        let mut faults = self
            .faults
            .events()
            .iter()
            .map(|event| (core.queue.reserve(event.at), event.kind))
            .collect::<Vec<_>>()
            .into_iter();
        core.queue_next_fault(&mut faults);
        let mut server_actions: Vec<ServerAction> = Vec::new();
        while let Some((t, ev)) = core.queue.pop() {
            self.events_processed += 1;
            assert!(
                self.events_processed < max_events,
                "runaway simulation: {} events without draining (simulated time {t:?}, \
                 {} events still queued, {} scheduled in total)",
                self.events_processed,
                core.queue.len(),
                core.queue.scheduled_total(),
            );
            match ev {
                Ev::Client(event) => self.clients.handle(t, event, core),
                Ev::Server(input) => {
                    core.server.handle_into(t, input, &mut server_actions);
                    for action in server_actions.drain(..) {
                        match action {
                            ServerAction::Wakeup { at, token } => core
                                .queue
                                .schedule_at(at, Ev::Server(ServerInput::Wakeup { token })),
                            ServerAction::Reply { at, client, reply } => {
                                let size = reply.wire_size();
                                if let TransmitOutcome::Delivered { arrives_at } = core
                                    .lans
                                    .medium_mut(client as usize)
                                    .transmit(at, size, Direction::ToClient)
                                {
                                    if let Some(event) =
                                        self.clients.reply(client, reply, arrives_at)
                                    {
                                        core.queue.schedule_at(arrives_at, Ev::Client(event));
                                    }
                                }
                            }
                        }
                    }
                }
                Ev::Fault(kind) => {
                    core.queue_next_fault(&mut faults);
                    core.fault(t, kind);
                }
                Ev::BatteryRepair => {
                    core.server.set_battery(true, t);
                }
            }
        }
    }

    /// The end-of-run audit both drivers' `run()` ends in, once the queue
    /// has drained: read the safety oracles and the orphaned gather writes
    /// off the server and the queue, add the clients' `ledger`, and panic
    /// with one line naming every broken oracle, its count and `config` (the
    /// cell's repro).  `faults_armed` says whether the run injected faults
    /// or loss.
    pub(crate) fn audit(&self, config: &dyn std::fmt::Debug, faults_armed: bool, ledger: Ledger) {
        let server = &self.core.server;
        let state = server.state_stats();
        let oracles = Oracles {
            policy: server.config().policy,
            faults_armed,
            lost_acked_bytes: server.stats().lost_acked_bytes,
            evicted_in_progress: server.dupcache_evicted_in_progress(),
            grace_conflicts: state.grace_conflicts,
            expired_lease_writes: state.expired_lease_writes,
            clamped_past: self.core.queue.clamped_past(),
            orphaned_gather_writes: server.held_gather_writes(),
            ledger,
        };
        let broken = oracles.violations();
        if !broken.is_empty() {
            let named: Vec<String> = broken.iter().map(|(n, c)| format!("{n}={c}")).collect();
            panic!("run audit failed: {} in {config:?}", named.join(", "));
        }
    }
}

/// Calls neither answered nor counted given up (or counted twice) among
/// `(issued, completed, gave_up)`.
fn unaccounted((issued, completed, gave_up): (u64, u64, u64)) -> u64 {
    issued.abs_diff(completed + gave_up)
}

/// The clients' side of the audit.
#[derive(Clone, Copy, Default)]
pub(crate) struct Ledger {
    /// Workload calls (the SFS mix): issued, completed, given up.
    pub(crate) calls: (u64, u64, u64),
    /// Lease-protocol calls (RENEW and LOCK): issued, completed, given up.
    pub(crate) lease_calls: (u64, u64, u64),
    /// Clients that never finished their copy.
    pub(crate) unfinished_clients: u64,
}

/// The safety oracles of one finished run.
struct Oracles {
    policy: WritePolicy,
    faults_armed: bool,
    /// Acknowledged write bytes a crash destroyed.
    lost_acked_bytes: u64,
    /// `InProgress` duplicate-cache entries evicted (§6.9).
    evicted_in_progress: u64,
    /// Fresh locks granted in grace over a reclaimable pre-crash lock.
    grace_conflicts: u64,
    /// Writes admitted under an expired lease.
    expired_lease_writes: u64,
    /// Events scheduled into the simulated past.
    clamped_past: u64,
    /// Writes still held in gather batches.  The queue has drained, so no
    /// nfsd can still be procrastinating on one: their replies are lost.
    orphaned_gather_writes: u64,
    ledger: Ledger,
}

impl Oracles {
    /// Every broken oracle with its count.  Only `DangerousAsync` may lose
    /// acknowledged writes.  Calls must balance only once the fault layer's
    /// retry chains have drained them (a disarmed run may end with calls in
    /// a socket buffer), and a copy must finish only when nothing was
    /// injected.
    fn violations(&self) -> Vec<(&'static str, u64)> {
        let unless = |exempt: bool, count: u64| if exempt { 0 } else { count };
        let (armed, ledger) = (self.faults_armed, &self.ledger);
        let lost = unless(
            self.policy == WritePolicy::DangerousAsync,
            self.lost_acked_bytes,
        );
        let calls = unless(!armed, unaccounted(ledger.calls));
        let lease_calls = unless(!armed, unaccounted(ledger.lease_calls));
        [
            ("lost_acked_bytes", lost),
            ("evicted_in_progress", self.evicted_in_progress),
            ("grace_conflicts", self.grace_conflicts),
            ("expired_lease_writes", self.expired_lease_writes),
            ("clamped_past", self.clamped_past),
            ("orphaned_gather_writes", self.orphaned_gather_writes),
            ("call_conservation", calls),
            ("lease_call_conservation", lease_calls),
            (
                "unfinished_clients",
                unless(armed, ledger.unfinished_clients),
            ),
        ]
        .into_iter()
        .filter(|&(_, count)| count > 0)
        .collect()
    }
}

/// The scheduler and server readouts every driver exposes, delegated to its
/// `harness` field.
macro_rules! harness_readouts {
    () => {
        /// Number of events processed by the most recent run.
        pub fn events_processed(&self) -> u64 {
            self.harness.events_processed()
        }

        /// Total events ever scheduled.
        pub fn scheduled_total(&self) -> u64 {
            self.harness.core.queue().scheduled_total()
        }

        /// Events scheduled into the simulated past and clamped (must stay
        /// zero; see [`wg_simcore::EventQueue::clamped_past`]).
        pub fn clamped_past(&self) -> u64 {
            self.harness.core.queue().clamped_past()
        }

        /// Scheduler-health counters of the event queue: the pending-event
        /// high-water mark (`max_depth`; the other two fields are inert).
        pub fn sched_stats(&self) -> wg_simcore::CalStats {
            self.harness.core.queue().sched_stats()
        }

        /// Datagrams the network dropped, over every LAN segment and both
        /// directions (injected loss and loss windows).
        pub fn lost_datagrams(&self) -> u64 {
            self.harness.core.lans.lost_datagrams()
        }

        /// The server, for post-run inspection (data integrity, stats).
        pub fn server(&self) -> &wg_server::NfsServer {
            &self.harness.core.server
        }
    };
}
pub(crate) use harness_readouts;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sfs::{SfsConfig, SfsSystem};
    use crate::system::{ExperimentConfig, FileCopySystem, NetworkKind};
    use wg_server::{FsParams, ServerConfig, StabilityMode::Unstable, StorageConfig};
    use wg_simcore::Duration;

    /// One client event at `at`, which notes how many faults had fired
    /// when it ran.
    struct Probe {
        at: SimTime,
        faults_seen: Option<usize>,
    }

    impl Population for Probe {
        type Event = ();

        fn start(&mut self, core: &mut Core<()>) {
            core.schedule(self.at, ());
        }

        fn reply(&mut self, _: u32, _: NfsReply, _: SimTime) -> Option<()> {
            None
        }

        fn handle(&mut self, _: SimTime, _: (), core: &mut Core<()>) {
            self.faults_seen = Some(core.faults_fired.len());
        }
    }

    #[test]
    fn a_long_fault_plan_is_queued_one_fault_at_a_time_in_plan_order() {
        // 200 crashes 10 ms apart, and two more faults at the 100th's
        // instant, where the probe's client event falls too.
        let at = SimTime::from_secs(1);
        let plan = FaultPlan::crash_every(Duration::from_millis(10), Duration::from_secs(2))
            .at(
                at,
                FaultKind::LossBurst {
                    duration: Duration::from_millis(5),
                    probability: 0.5,
                    segment: None,
                },
            )
            .at(
                at,
                FaultKind::DiskDegrade {
                    duration: Duration::from_millis(5),
                    stall: Duration::from_millis(1),
                    retries: 1,
                },
            );
        let server = NfsServer::new(ServerConfig::gathering());
        let lans = ClientLans::new(&MediumParams::fddi(), 1, false);
        let probe = Probe {
            at,
            faults_seen: None,
        };
        let mut harness = Harness::new(server, lans, probe, plan.clone());
        harness.run(u64::MAX);
        // Every fault fired, the three at one instant in plan order.
        let planned: Vec<FaultKind> = plan.events().iter().map(|e| e.kind).collect();
        assert_eq!(harness.core.faults_fired, planned);
        // The client event started before the plan, so it fired before
        // every fault at its instant.
        let earlier = plan.events().iter().filter(|e| e.at < at).count();
        assert_eq!(earlier, 99);
        assert_eq!(harness.clients.faults_seen, Some(earlier));
        // The queue held the probe's event and one fault, never the plan.
        assert_eq!(harness.core.queue.sched_stats().max_depth, 2);
        assert_eq!(harness.events_processed(), 1 + plan.len() as u64);
    }

    /// The violations of a gathering run, with the fault layer `armed` or
    /// not, once `edit` has broken it.
    fn broken(armed: bool, edit: impl FnOnce(&mut Oracles)) -> Vec<(&'static str, u64)> {
        let mut oracles = Oracles {
            policy: WritePolicy::Gathering,
            faults_armed: armed,
            lost_acked_bytes: 0,
            evicted_in_progress: 0,
            grace_conflicts: 0,
            expired_lease_writes: 0,
            clamped_past: 0,
            orphaned_gather_writes: 0,
            ledger: Ledger::default(),
        };
        edit(&mut oracles);
        oracles.violations()
    }

    /// One call short of balancing: 5 issued, 3 completed, 1 given up.
    const SHORT: (u64, u64, u64) = (5, 3, 1);

    #[test]
    fn each_broken_oracle_is_reported_alone_with_its_count() {
        assert!(broken(false, |_| {}).is_empty() && broken(true, |_| {}).is_empty());
        let lost = broken(false, |o| o.lost_acked_bytes = 8192);
        assert_eq!(lost, [("lost_acked_bytes", 8192)]);
        let evicted = broken(true, |o| o.evicted_in_progress = 2);
        assert_eq!(evicted, [("evicted_in_progress", 2)]);
        let grace = broken(false, |o| o.grace_conflicts = 3);
        assert_eq!(grace, [("grace_conflicts", 3)]);
        let expired = broken(true, |o| o.expired_lease_writes = 4);
        assert_eq!(expired, [("expired_lease_writes", 4)]);
        let clamped = broken(false, |o| o.clamped_past = 5);
        assert_eq!(clamped, [("clamped_past", 5)]);
        let orphaned = broken(true, |o| o.orphaned_gather_writes = 7);
        assert_eq!(orphaned, [("orphaned_gather_writes", 7)]);
        let calls = broken(true, |o| o.ledger.calls = SHORT);
        assert_eq!(calls, [("call_conservation", 1)]);
        let lease_calls = broken(true, |o| o.ledger.lease_calls = SHORT);
        assert_eq!(lease_calls, [("lease_call_conservation", 1)]);
        let unfinished = broken(false, |o| o.ledger.unfinished_clients = 6);
        assert_eq!(unfinished, [("unfinished_clients", 6)]);
    }

    #[test]
    fn dangerous_async_exempts_lost_acked_bytes_and_nothing_else() {
        let dangerous = |o: &mut Oracles| {
            o.policy = WritePolicy::DangerousAsync;
            o.lost_acked_bytes = 1 << 21;
        };
        assert!(broken(true, dangerous).is_empty());
        let also_clamped = broken(true, |o| {
            dangerous(o);
            o.clamped_past = 1;
            o.ledger.calls = SHORT;
        });
        assert_eq!(
            also_clamped,
            [("clamped_past", 1), ("call_conservation", 1)]
        );
    }

    #[test]
    fn call_conservation_is_skipped_while_the_fault_layer_is_disarmed() {
        // A disarmed run may end with calls still in a socket buffer.
        let short = |o: &mut Oracles| {
            o.ledger.calls = SHORT;
            o.ledger.lease_calls = SHORT;
        };
        assert!(broken(false, short).is_empty());
        assert_eq!(broken(true, short).len(), 2);
    }

    #[test]
    fn an_unfinished_copy_is_reported_only_without_faults() {
        let unfinished = |o: &mut Oracles| o.ledger.unfinished_clients = 1;
        assert_eq!(broken(false, unfinished), [("unfinished_clients", 1)]);
        // Under an injected fault an incomplete copy is a legitimate
        // outcome (a client gave up), counted in its result.
        assert!(broken(true, unfinished).is_empty());
    }

    /// Every server knob as a `name=value` token, durations in nanoseconds.
    /// Each field is named with no `..`, so a knob added later fails to
    /// compile here until every driver's lowering of it is pinned below.
    fn knobs(config: &ServerConfig) -> String {
        let ServerConfig {
            nfsds,
            policy,
            reply_order,
            storage:
                StorageConfig {
                    spindles,
                    prestoserve,
                },
            procrastination,
            mbuf_hunter,
            socket_buffer_bytes,
            cpu_speed,
            dupcache_entries,
            fs:
                FsParams {
                    data_capacity,
                    read_caching,
                    cache_pages,
                    dirty_ratio,
                    inode_groups,
                },
            shards,
            cores,
            io_overlap,
            stability,
            lease_duration,
            grace_period,
        } = config;
        let ns = |d: &Duration| d.as_nanos();
        format!(
            "nfsds={nfsds} policy={policy:?} reply_order={reply_order:?} spindles={spindles} \
             prestoserve={prestoserve} procrastination={} mbuf_hunter={mbuf_hunter} \
             socket_buffer_bytes={socket_buffer_bytes} cpu_speed={cpu_speed} \
             dupcache_entries={dupcache_entries} data_capacity={data_capacity} \
             read_caching={read_caching} cache_pages={cache_pages} dirty_ratio={dirty_ratio} \
             inode_groups={inode_groups} shards={shards} cores={cores} io_overlap={io_overlap} \
             stability={stability:?} lease_duration={} grace_period={}",
            ns(procrastination),
            ns(lease_duration),
            ns(grace_period)
        )
    }

    #[test]
    fn each_driver_lowers_its_cells_onto_the_standard_server() {
        use WritePolicy::{Gathering, Standard};

        // `set` lists what a cell changes; every knob it leaves alone must
        // read `ServerConfig::standard()`'s value.
        let pin = |got: &ServerConfig, set: &str| {
            let standard = knobs(&ServerConfig::standard());
            let mut want: Vec<&str> = standard.split(' ').collect();
            for knob in set.split_whitespace() {
                let name = knob.split('=').next();
                let at = want.iter().position(|w| w.split('=').next() == name);
                want[at.expect("a knob name")] = knob;
            }
            assert_eq!(knobs(got).split(' ').collect::<Vec<_>>(), want);
        };
        let copy = |config, set| pin(FileCopySystem::new(config).server().config(), set);
        let sfs = |config, set: &str| pin(SfsSystem::new(config).server().config(), set);

        // Table 1: Ethernet, 15 biods, gathering.
        let table1 = ExperimentConfig::new(NetworkKind::Ethernet, 15, Gathering);
        copy(table1, "policy=Gathering");
        // Table 6: FDDI, 23 biods, Presto over the three-spindle stripe.
        let table6 = ExperimentConfig::new(NetworkKind::Fddi, 23, Standard)
            .with_presto(true)
            .with_spindles(3);
        let set = "spindles=3 prestoserve=true procrastination=5000000";
        copy(table6, set);
        // A four-client fleet whose 1 GB aggregate raises the data region.
        let fleet = ExperimentConfig::fleet(NetworkKind::Fddi, 4, 7, Gathering)
            .with_shards(4)
            .with_cores(4)
            .with_io_overlap(true)
            .with_per_client_lans(true)
            .with_unified_cache(4096)
            .with_stability(Unstable)
            .with_file_size(256 << 20);
        let set = "nfsds=16 policy=Gathering procrastination=5000000 data_capacity=1342177280 \
                   cache_pages=4096 shards=4 cores=4 io_overlap=true";
        copy(fleet, set);
        // The SFS server: a DEC 3800 with 32 nfsds and six spindles on FDDI,
        // under the streams' lease timing.
        let figure2 = "nfsds=32 spindles=6 procrastination=5000000 cpu_speed=1.6 \
                       lease_duration=3000000000 grace_period=500000000";
        sfs(SfsConfig::figure2(200.0, Standard), figure2);
        let presto = format!("{figure2} policy=Gathering prestoserve=true");
        sfs(SfsConfig::figure3(200.0, Gathering), &presto);
        // The benchmark's `sfs_fleet` and `sfs_crash` shapes.
        let mut fleet = SfsConfig::scaled(1200.0, Gathering, 256).with_leases(true);
        fleet.prestoserve = true;
        let set = "read_caching=true inode_groups=64 shards=4 cores=4 io_overlap=true";
        sfs(fleet, &format!("{presto} {set}"));
        let crash = SfsConfig::figure2(250.0, Gathering)
            .with_stability(Unstable)
            .with_unified_cache(256)
            .with_dirty_ratio(0.1);
        let set = "policy=Gathering cache_pages=256 dirty_ratio=0.1";
        sfs(crash, &format!("{figure2} {set}"));
    }
}
