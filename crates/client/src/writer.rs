//! The sequential file-writer client.

use std::ops::Range;

use wg_nfsproto::{
    CommitArgs, FileHandle, NfsCall, NfsCallBody, NfsReply, NfsReplyBody, StableHow, StatusReply,
    WriteArgs, Xid,
};
use wg_simcore::{Duration, SimTime};

use crate::rpc::{backoff, XidWindow};

/// Bytes per write request (8 KB, the NFS v2 maximum).
const CHUNK_SIZE: u64 = 8192;

/// Client configuration.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Number of biod write-behind daemons (0 models the single-threaded
    /// "dumb PC" worst case of §6.10).
    pub biods: usize,
    /// Total bytes to write (the paper copies a 10 MB file).
    pub file_size: u64,
    /// Client-side CPU time to produce one chunk and traverse the client NFS
    /// code ("a reasonably quick single threaded client" spends little here).
    pub generate_cost: Duration,
    /// Initial retransmission timeout (the paper quotes 1.1 s), doubled
    /// per retransmission by [`backoff`].
    pub initial_timeout: Duration,
    /// Give up after this many retransmissions of one request.
    pub max_retransmits: u32,
    /// The xids the client numbers its requests with, in order.  Clients
    /// sharing a server each get their own range ([`crate::partition`]);
    /// the client panics if its requests use the range up.
    pub xids: Range<u32>,
    /// Added (wrapping) to the per-block fill byte of every write payload.
    /// Multi-client runs give each client a distinct salt so integrity checks
    /// can tell whose data landed in a block; 0 preserves the single-client
    /// pattern (block index modulo 256).
    pub fill_salt: u8,
    /// Stability the client requests on every WRITE.  The default
    /// [`StableHow::FileSync`] is the v2 behaviour of the paper's clients.
    /// With [`StableHow::Unstable`] the client runs the NFSv3-style
    /// async-write protocol: replies marked `UNSTABLE` are tracked as
    /// uncommitted alongside their write verifier, a COMMIT is issued at
    /// close, and a verifier mismatch in the COMMIT reply (the server
    /// rebooted and lost the cache) makes the client re-send the affected
    /// ranges and commit again.
    pub stability: StableHow,
    /// Periodic COMMIT pacing for unstable mode: once this many bytes have
    /// been acknowledged `UNSTABLE` since the last COMMIT, issue one
    /// immediately (without blocking the application) instead of letting the
    /// whole file pile up until close.  `0` (the default) keeps the
    /// close-only behaviour; v2-mode clients never commit either way.
    pub commit_interval: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            biods: 4,
            file_size: 10 * 1024 * 1024,
            generate_cost: Duration::from_micros(300),
            initial_timeout: Duration::from_millis(1100),
            max_retransmits: 10,
            xids: 0x0001_0000..u32::MAX,
            fill_salt: 0,
            stability: StableHow::FileSync,
            commit_interval: 0,
        }
    }
}

/// Inputs delivered to the client by the orchestrator.
#[derive(Clone, Debug)]
pub enum ClientInput {
    /// Begin the transfer.
    Start,
    /// A reply arrived from the server.
    Reply(NfsReply),
    /// A timer requested via [`ClientAction::Wakeup`] fired.
    Wakeup {
        /// Which timer fired.
        token: TimerKind,
    },
}

/// Outputs the orchestrator must act on.
#[derive(Clone, Debug)]
pub enum ClientAction {
    /// Transmit a call to the server starting at the given time.
    Send {
        /// When the datagram is handed to the network.
        at: SimTime,
        /// The call to send.
        call: NfsCall,
    },
    /// Schedule a [`ClientInput::Wakeup`].
    Wakeup {
        /// When to wake the client.
        at: SimTime,
        /// The timer to echo back.
        token: TimerKind,
    },
    /// The transfer finished (all data written and acknowledged, i.e. the
    /// `close(2)` returned).
    Completed {
        /// Completion time.
        at: SimTime,
    },
}

/// Measured results of one client run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// Bytes acknowledged by the server.
    pub bytes_acked: u64,
    /// Write requests sent, excluding retransmissions.
    pub requests_sent: u64,
    /// Retransmissions sent.
    pub retransmissions: u64,
    /// Requests abandoned after `max_retransmits` went unanswered.  Any
    /// non-zero value means the copy did NOT complete: the bytes were never
    /// acknowledged and must not be reported as silently written.
    pub gave_up: u64,
    /// When the transfer started.
    pub started_at: SimTime,
    /// When the close completed.
    pub completed_at: SimTime,
    /// Total time the application process spent blocked waiting for a reply
    /// (directly or in close).
    pub blocked_time: Duration,
    /// COMMIT requests sent (unstable mode only; excludes retransmissions).
    pub commits_sent: u64,
    /// COMMIT replies whose verifier did not match the one some uncommitted
    /// write was acknowledged under — each one means the server rebooted with
    /// the client's data in its cache.
    pub verifier_mismatches: u64,
    /// Bytes re-sent because a verifier mismatch voided their acknowledgement.
    pub resent_bytes: u64,
    /// COMMITs issued by interval pacing (a subset of `commits_sent`).
    pub paced_commits: u64,
}

impl ClientStats {
    /// Client write speed in KB/s, the first row of every table.
    pub fn write_kb_per_sec(&self) -> f64 {
        let elapsed = self.completed_at.since(self.started_at).as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        self.bytes_acked as f64 / 1024.0 / elapsed
    }
}

/// A writer's timer.  Each wake-up carries its own meaning.  Only a
/// retransmission wake-up outlives its purpose — a writer has one chunk
/// wake-up pending while it generates and none once it finishes — and one
/// that fires after its request was answered, or after its writer finished
/// and the next segment's writer took over, names a request that is no
/// longer outstanding and is a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerKind {
    /// The application finished generating a chunk.
    GenerateDone,
    /// The retransmission timer of request `xid`, armed when it was sent
    /// after `attempt` retransmissions (a later send makes it stale).
    Retransmit {
        /// The request the timer guards.
        xid: Xid,
        /// The attempt the timer was armed for.
        attempt: u32,
    },
}

/// What an outstanding request is (drives reply handling and retransmission).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReqKind {
    Write,
    Commit,
}

#[derive(Clone, Copy, Debug)]
struct Outstanding {
    kind: ReqKind,
    offset: u64,
    len: u64,
    attempt: u32,
    /// `true` if the application process itself is blocked on this request
    /// (it could not be handed to a biod).
    app_blocking: bool,
    /// Index of the biod carrying it, if any.
    biod: Option<usize>,
}

/// Where the application process is in its run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AppState {
    /// Not started yet.
    Idle,
    /// Generating the next chunk (a timer is pending).
    Generating,
    /// Blocked waiting for the reply to the request it sent itself.
    BlockedOnRequest(Xid),
    /// All chunks issued; waiting for outstanding replies (sync-on-close).
    Closing,
    /// Finished.
    Done,
}

/// The file-writer client state machine.
#[derive(Clone, Debug)]
pub struct FileWriterClient {
    config: ClientConfig,
    handle: FileHandle,
    /// Block indices still to be issued, in issue order (front = next).
    remaining: Vec<u64>,
    next_block_cursor: usize,
    biod_busy: Vec<bool>,
    /// The requests in flight, which also hands out their xids.
    outstanding: XidWindow<Outstanding>,
    app: AppState,
    stats: ClientStats,
    blocked_since: Option<SimTime>,
    /// Every `(offset, len)` the server acknowledged, in acknowledgement
    /// order.  The fault-injection recovery oracle walks this after a crash:
    /// each acknowledged range must still be readable from stable storage.
    /// In unstable mode a range only lands here once a COMMIT whose verifier
    /// matches its write verifier succeeds (or the server promoted the write
    /// to FILE_SYNC) — so the oracle's promise stays exactly "this data is
    /// on stable storage".
    acked_writes: Vec<(u64, u64)>,
    /// Unstable-acknowledged ranges not yet covered by a matching COMMIT:
    /// `(offset, len, verifier the WRITE reply carried)`.
    uncommitted: Vec<(u64, u64, u64)>,
    /// Set when a COMMIT exhausted its retransmissions: stop trying (the
    /// uncommitted data stays un-acked, a counted failure).
    commit_gave_up: bool,
    /// A paced (interval-triggered) COMMIT is outstanding; pacing never
    /// stacks a second one behind it.
    paced_commit_inflight: bool,
}

impl FileWriterClient {
    /// Create a client that will write `config.file_size` bytes to the file
    /// identified by `handle`.
    pub fn new(config: ClientConfig, handle: FileHandle) -> Self {
        let blocks = config.file_size.div_ceil(CHUNK_SIZE);
        FileWriterClient {
            biod_busy: vec![false; config.biods],
            remaining: (0..blocks).collect(),
            next_block_cursor: 0,
            outstanding: XidWindow::new(config.xids.clone()),
            app: AppState::Idle,
            stats: ClientStats::default(),
            blocked_since: None,
            acked_writes: Vec::with_capacity(blocks as usize),
            uncommitted: Vec::new(),
            commit_gave_up: false,
            paced_commit_inflight: false,
            handle,
            config,
        }
    }

    /// Measured statistics (final once [`ClientAction::Completed`] has been
    /// emitted).
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// `true` once the transfer (including sync-on-close) has finished.
    pub fn is_done(&self) -> bool {
        self.app == AppState::Done
    }

    /// The client's configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Every `(offset, len)` range the server has acknowledged so far, in
    /// acknowledgement order.  Used by the fault-injection recovery oracle.
    /// In unstable mode, only ranges a successful COMMIT covered.
    pub fn acked_writes(&self) -> &[(u64, u64)] {
        &self.acked_writes
    }

    /// The finished client's [`FileWriterClient::acked_writes`], moved out.
    pub fn into_acked_writes(self) -> Vec<(u64, u64)> {
        self.acked_writes
    }

    /// Ranges acknowledged with `UNSTABLE` semantics and not yet covered by a
    /// matching COMMIT (empty for v2-mode clients and after a clean close).
    pub fn uncommitted_ranges(&self) -> &[(u64, u64, u64)] {
        &self.uncommitted
    }

    /// The fill byte this client writes into the block at `offset`: the
    /// block index plus [`ClientConfig::fill_salt`], as every WRITE's payload
    /// is built.
    pub fn fill_byte_for(&self, offset: u64) -> u8 {
        ((offset / CHUNK_SIZE) as u8).wrapping_add(self.config.fill_salt)
    }

    /// Process one input, producing actions for the orchestrator.
    pub fn handle(&mut self, now: SimTime, input: ClientInput) -> Vec<ClientAction> {
        let mut actions = Vec::new();
        self.handle_into(now, input, &mut actions);
        actions
    }

    /// Process one input, appending actions to a caller-owned buffer.
    ///
    /// Orchestrators driving millions of events reuse one scratch vector
    /// across the whole run instead of allocating a fresh `Vec` per event —
    /// see the workload crate's `harness` loop.
    pub fn handle_into(
        &mut self,
        now: SimTime,
        input: ClientInput,
        actions: &mut Vec<ClientAction>,
    ) {
        match input {
            ClientInput::Start => {
                self.stats.started_at = now;
                self.start_generating(now, actions);
            }
            ClientInput::Reply(reply) => self.on_reply(now, reply, actions),
            ClientInput::Wakeup {
                token: TimerKind::GenerateDone,
            } => self.on_chunk_ready(now, actions),
            ClientInput::Wakeup {
                token: TimerKind::Retransmit { xid, attempt },
            } => self.on_retransmit_timer(now, xid, attempt, actions),
        }
    }

    fn start_generating(&mut self, now: SimTime, actions: &mut Vec<ClientAction>) {
        if self.next_block_cursor >= self.remaining.len() {
            self.enter_close(now, actions);
            return;
        }
        self.app = AppState::Generating;
        actions.push(ClientAction::Wakeup {
            at: now + self.config.generate_cost,
            token: TimerKind::GenerateDone,
        });
    }

    /// The application produced a chunk that must go to the wire.
    fn on_chunk_ready(&mut self, now: SimTime, actions: &mut Vec<ClientAction>) {
        let block = self.remaining[self.next_block_cursor];
        self.next_block_cursor += 1;
        let offset = block * CHUNK_SIZE;
        let len = CHUNK_SIZE.min(self.config.file_size - offset.min(self.config.file_size));

        // Hand off to an idle biod, or send it ourselves and block.
        let idle_biod = self.biod_busy.iter().position(|b| !b);
        let app_blocking = idle_biod.is_none();
        if let Some(b) = idle_biod {
            self.biod_busy[b] = true;
        }
        let xid = self.outstanding.push(Outstanding {
            kind: ReqKind::Write,
            offset,
            len,
            attempt: 0,
            app_blocking,
            biod: idle_biod,
        });
        self.stats.requests_sent += 1;
        self.send_request(now, xid, actions);

        if app_blocking {
            self.app = AppState::BlockedOnRequest(xid);
            self.blocked_since = Some(now);
        } else {
            // Keep generating in parallel with the biod's request.
            self.start_generating(now, actions);
        }
    }

    /// (Re-)send the request `xid`.  Its [`Outstanding`] entry must already
    /// be in the window: the entry's kind/offset/len drive the wire body and
    /// its current `attempt` drives the retransmission backoff.
    fn send_request(&mut self, now: SimTime, xid: Xid, actions: &mut Vec<ClientAction>) {
        let out = *self.outstanding.get(xid).expect("a request in flight");
        let body = match out.kind {
            ReqKind::Write => {
                // Deterministic, recognisable payload: the low byte of the
                // block index (salted per client in multi-client runs), so
                // end-to-end tests can verify data integrity at the server.
                // Carried as a fill pattern — no payload bytes are allocated
                // anywhere on the simulated datapath.
                let fill = self.fill_byte_for(out.offset);
                NfsCallBody::Write(
                    WriteArgs::fill(self.handle, out.offset as u32, fill, out.len as u32)
                        .with_stability(self.config.stability),
                )
            }
            // Commit the whole file (count = 0 = to EOF): this client's close
            // wants everything stable, not a range.
            ReqKind::Commit => NfsCallBody::Commit(CommitArgs {
                file: self.handle,
                offset: 0,
                count: 0,
            }),
        };
        let call = NfsCall::new(xid, body);
        actions.push(ClientAction::Send { at: now, call });
        // Arm the retransmission timer for this attempt.
        actions.push(ClientAction::Wakeup {
            at: now + backoff(self.config.initial_timeout, out.attempt),
            token: TimerKind::Retransmit {
                xid,
                attempt: out.attempt,
            },
        });
    }

    fn on_reply(&mut self, now: SimTime, reply: NfsReply, actions: &mut Vec<ClientAction>) {
        let Some(out) = self.outstanding.take(reply.xid) else {
            // A reply for something already answered (e.g. the reply to a
            // retransmission we had given up on): ignore.
            return;
        };
        match out.kind {
            ReqKind::Write => {
                self.stats.bytes_acked += out.len;
                match &reply.body {
                    // Acknowledged volatile: remember the range and the
                    // verifier; only a matching COMMIT makes it "acked".
                    NfsReplyBody::WriteVerf(StatusReply::Ok(ok))
                        if ok.committed == StableHow::Unstable =>
                    {
                        self.uncommitted.push((out.offset, out.len, ok.verf));
                        self.maybe_paced_commit(now, actions);
                    }
                    // FILE_SYNC semantics (v2 reply, or a promoted unstable
                    // write whose WriteVerf says FILE_SYNC): stable now.
                    _ => self.acked_writes.push((out.offset, out.len)),
                }
            }
            ReqKind::Commit => {
                self.paced_commit_inflight = false;
                if let NfsReplyBody::Commit(StatusReply::Ok(ok)) = &reply.body {
                    self.on_commit_ok(ok.verf);
                }
                // An error reply leaves everything uncommitted (never acked);
                // the close path below decides whether to try again.
            }
        }
        if let Some(b) = out.biod {
            self.biod_busy[b] = false;
        }
        if out.app_blocking {
            if let Some(since) = self.blocked_since.take() {
                self.stats.blocked_time += now.since(since);
            }
        }
        match self.app {
            AppState::BlockedOnRequest(xid) if xid == reply.xid => {
                // The application wakes up and keeps writing (after a
                // verifier mismatch, `start_generating` picks up the
                // re-queued blocks; after a clean commit it falls through to
                // the close path and finishes).
                self.start_generating(now, actions);
            }
            AppState::Closing if self.outstanding.is_empty() => {
                self.enter_close(now, actions);
            }
            _ => {}
        }
    }

    /// Interval pacing: once `commit_interval` bytes sit uncommitted, issue
    /// a COMMIT now — carried by nobody (no biod, no blocked application),
    /// just an outstanding request the close path will wait on like any
    /// other.  At most one paced COMMIT is in flight at a time.
    fn maybe_paced_commit(&mut self, now: SimTime, actions: &mut Vec<ClientAction>) {
        if self.config.commit_interval == 0 || self.paced_commit_inflight || self.commit_gave_up {
            return;
        }
        let pending: u64 = self.uncommitted.iter().map(|&(_, len, _)| len).sum();
        if pending < self.config.commit_interval {
            return;
        }
        self.stats.paced_commits += 1;
        self.paced_commit_inflight = true;
        self.send_commit(now, false, actions);
    }

    /// Send a whole-file COMMIT, with the application blocked on it or not;
    /// returns its xid.
    fn send_commit(
        &mut self,
        now: SimTime,
        app_blocking: bool,
        actions: &mut Vec<ClientAction>,
    ) -> Xid {
        let xid = self.outstanding.push(Outstanding {
            kind: ReqKind::Commit,
            offset: 0,
            len: 0,
            attempt: 0,
            app_blocking,
            biod: None,
        });
        self.stats.commits_sent += 1;
        self.send_request(now, xid, actions);
        xid
    }

    /// A COMMIT succeeded with verifier `verf`: uncommitted ranges whose
    /// write verifier matches are stable now; ranges acknowledged under a
    /// different boot's verifier were lost to a reboot and must be re-sent.
    fn on_commit_ok(&mut self, verf: u64) {
        let mut mismatched = false;
        let mut requeue: Vec<u64> = Vec::new();
        for &(offset, len, wverf) in &self.uncommitted {
            if wverf == verf {
                self.acked_writes.push((offset, len));
            } else {
                mismatched = true;
                // The acknowledgement was voided along with the data; the
                // re-sent write will count these bytes again.
                self.stats.bytes_acked -= len;
                self.stats.resent_bytes += len;
                requeue.push(offset / CHUNK_SIZE);
            }
        }
        self.uncommitted.clear();
        if mismatched {
            self.stats.verifier_mismatches += 1;
            self.remaining.extend(requeue);
        }
    }

    fn on_retransmit_timer(
        &mut self,
        now: SimTime,
        xid: Xid,
        attempt: u32,
        actions: &mut Vec<ClientAction>,
    ) {
        let Some(out) = self.outstanding.get_mut(xid) else {
            return; // already answered
        };
        if out.attempt != attempt {
            return; // stale timer from an earlier attempt
        }
        if out.attempt >= self.config.max_retransmits {
            // Give up: in a real client this surfaces as a hard error or a
            // "server not responding" console message.  Treat the data as
            // unacknowledged — counted, never silently absorbed — and carry
            // on so the run terminates.
            self.stats.gave_up += 1;
            let out = self.outstanding.take(xid).expect("present");
            if out.kind == ReqKind::Commit {
                self.commit_gave_up = true;
                self.paced_commit_inflight = false;
            }
            if let Some(b) = out.biod {
                self.biod_busy[b] = false;
            }
            if self.app == AppState::BlockedOnRequest(xid) {
                self.start_generating(now, actions);
            } else if self.app == AppState::Closing && self.outstanding.is_empty() {
                self.finish(now, actions);
            }
            return;
        }
        out.attempt += 1;
        self.stats.retransmissions += 1;
        self.send_request(now, xid, actions);
    }

    fn enter_close(&mut self, now: SimTime, actions: &mut Vec<ClientAction>) {
        if !self.outstanding.is_empty() {
            // sync-on-close: block until every outstanding request is
            // answered (the blocked clock may already be running if we got
            // here from a reply in the Closing state).
            self.app = AppState::Closing;
            self.blocked_since.get_or_insert(now);
            return;
        }
        // Everything answered.  An unstable-mode close owes the server a
        // COMMIT for whatever is still volatile; the application blocks on
        // it like on any request it sends itself.
        if !self.uncommitted.is_empty() && !self.commit_gave_up {
            let xid = self.send_commit(now, true, actions);
            self.app = AppState::BlockedOnRequest(xid);
            self.blocked_since.get_or_insert(now);
            return;
        }
        self.finish(now, actions);
    }

    fn finish(&mut self, now: SimTime, actions: &mut Vec<ClientAction>) {
        if let Some(since) = self.blocked_since.take() {
            self.stats.blocked_time += now.since(since);
        }
        self.app = AppState::Done;
        self.stats.completed_at = now;
        actions.push(ClientAction::Completed { at: now });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_nfsproto::{Fattr, NfsReplyBody, StatusReply};

    fn handle() -> FileHandle {
        FileHandle::new(1, 10, 1)
    }

    fn ok_reply(xid: Xid) -> NfsReply {
        NfsReply::new(xid, NfsReplyBody::Attr(StatusReply::Ok(Fattr::default())))
    }

    /// Drive `client` to completion against a scripted server: `serve` sees
    /// each call as it is sent and returns the delay and reply to deliver,
    /// or `None` to lose the call.  Returns the inputs still queued when the
    /// client finished.
    fn drive(
        client: &mut FileWriterClient,
        mut serve: impl FnMut(SimTime, &NfsCall) -> Option<(Duration, NfsReply)>,
    ) -> Vec<ClientInput> {
        let mut queue = wg_simcore::EventQueue::new();
        queue.schedule_at(SimTime::ZERO, ClientInput::Start);
        let mut guard = 0u64;
        while let Some((t, input)) = queue.pop() {
            guard += 1;
            assert!(guard < 2_000_000, "runaway client simulation");
            for action in client.handle(t, input) {
                match action {
                    ClientAction::Send { at, call } => {
                        if let Some((delay, reply)) = serve(at, &call) {
                            queue.schedule_at(at + delay, ClientInput::Reply(reply));
                        }
                    }
                    ClientAction::Wakeup { at, token } => {
                        queue.schedule_at(at, ClientInput::Wakeup { token });
                    }
                    ClientAction::Completed { .. } => {}
                }
            }
            if client.is_done() {
                break;
            }
        }
        assert!(client.is_done());
        std::iter::from_fn(|| queue.pop().map(|(_, input)| input)).collect()
    }

    /// Drive a client against a perfect server that answers each write
    /// after `service` time.
    fn run_against_ideal_server(mut client: FileWriterClient, service: Duration) -> ClientStats {
        drive(&mut client, |_, call| Some((service, ok_reply(call.xid))));
        client.stats()
    }

    #[test]
    fn writes_whole_file_and_completes() {
        let cfg = ClientConfig {
            file_size: 256 * 1024,
            biods: 4,
            ..ClientConfig::default()
        };
        let client = FileWriterClient::new(cfg, handle());
        let stats = run_against_ideal_server(client, Duration::from_millis(5));
        assert_eq!(stats.bytes_acked, 256 * 1024);
        assert_eq!(stats.requests_sent, 32);
        assert_eq!(stats.retransmissions, 0);
        assert!(stats.completed_at > stats.started_at);
        assert!(stats.write_kb_per_sec() > 0.0);
    }

    #[test]
    fn zero_biods_fully_serialises_requests() {
        let service = Duration::from_millis(10);
        let cfg = ClientConfig {
            file_size: 80 * 1024, // 10 chunks
            biods: 0,
            generate_cost: Duration::from_micros(100),
            ..ClientConfig::default()
        };
        let stats = run_against_ideal_server(FileWriterClient::new(cfg, handle()), service);
        // Each write waits for its own reply: at least 10 * 10 ms.
        let elapsed = stats.completed_at.since(stats.started_at);
        assert!(elapsed >= Duration::from_millis(100));
        assert!(stats.blocked_time >= Duration::from_millis(95));
    }

    #[test]
    fn more_biods_means_more_overlap_and_higher_throughput() {
        let service = Duration::from_millis(10);
        let make = |biods| {
            let cfg = ClientConfig {
                file_size: 400 * 1024,
                biods,
                generate_cost: Duration::from_micros(100),
                ..ClientConfig::default()
            };
            run_against_ideal_server(FileWriterClient::new(cfg, handle()), service)
                .write_kb_per_sec()
        };
        let none = make(0);
        let four = make(4);
        let fifteen = make(15);
        assert!(
            four > none * 2.0,
            "0 biods {none:.0} KB/s vs 4 biods {four:.0} KB/s"
        );
        assert!(
            fifteen >= four,
            "4 biods {four:.0} vs 15 biods {fifteen:.0}"
        );
    }

    #[test]
    fn window_never_exceeds_biods_plus_one() {
        let cfg = ClientConfig {
            file_size: 800 * 1024,
            biods: 3,
            generate_cost: Duration::from_micros(50),
            ..ClientConfig::default()
        };
        let service = Duration::from_millis(20);
        let mut sends = Vec::new();
        drive(&mut FileWriterClient::new(cfg, handle()), |at, call| {
            sends.push(at);
            Some((service, ok_reply(call.xid)))
        });
        // A request is in flight from its send until its reply lands.
        let max_in_flight = sends
            .iter()
            .map(|&t| sends.iter().filter(|&&s| s <= t && s + service > t).count())
            .max()
            .unwrap_or(0);
        // 3 biods plus the blocked application process itself, and the
        // window is really used.
        assert_eq!(max_in_flight, 4, "window reached {max_in_flight}");
    }

    #[test]
    fn lost_requests_are_retransmitted_with_backoff() {
        let cfg = ClientConfig {
            file_size: 16 * 1024, // 2 chunks
            biods: 0,
            initial_timeout: Duration::from_millis(100),
            ..ClientConfig::default()
        };
        let mut client = FileWriterClient::new(cfg, handle());
        let mut sends: Vec<(SimTime, Xid)> = Vec::new();
        drive(&mut client, |at, call| {
            sends.push((at, call.xid));
            // Drop the first two transmissions of the first xid; answer
            // everything else promptly.
            let sent_so_far = sends.iter().filter(|(_, x)| *x == call.xid).count();
            let dropped = call.xid == sends[0].1 && sent_so_far <= 2;
            (!dropped).then(|| (Duration::from_millis(5), ok_reply(call.xid)))
        });
        let stats = client.stats();
        assert_eq!(stats.retransmissions, 2);
        assert_eq!(stats.bytes_acked, 16 * 1024);
        // Backoff: the second retransmission waited twice as long as the first.
        let first_xid = sends[0].1;
        let times: Vec<SimTime> = sends
            .iter()
            .filter(|(_, x)| *x == first_xid)
            .map(|(t, _)| *t)
            .collect();
        assert_eq!(times.len(), 3);
        let gap1 = times[1].since(times[0]);
        let gap2 = times[2].since(times[1]);
        assert!(gap2 > gap1, "expected backoff: {gap1} then {gap2}");
    }

    #[test]
    fn gives_up_after_max_retransmits() {
        let cfg = ClientConfig {
            file_size: 8 * 1024,
            biods: 0,
            initial_timeout: Duration::from_millis(10),
            max_retransmits: 3,
            ..ClientConfig::default()
        };
        let mut client = FileWriterClient::new(cfg, handle());
        // Never answer anything.
        drive(&mut client, |_, _| None);
        let stats = client.stats();
        assert_eq!(stats.retransmissions, 3);
        assert_eq!(stats.bytes_acked, 0);
        // The abandoned request is a *counted* failure, never silent success.
        assert_eq!(stats.gave_up, 1);
        assert!(client.acked_writes().is_empty());
    }

    #[test]
    fn a_finished_writers_wakeups_fire_nothing_in_the_next_writer() {
        // A writer finishes its segment with the retransmission wake-ups of
        // its answered writes still pending, as a rolling fleet client does
        // at every segment's close.
        let segment = |xids| {
            let cfg = ClientConfig {
                file_size: 64 * 1024,
                xids,
                ..ClientConfig::default()
            };
            FileWriterClient::new(cfg, handle())
        };
        let mut old = segment(0x1000..0x2000);
        let stale = drive(&mut old, |_, call| {
            Some((Duration::from_millis(1), ok_reply(call.xid)))
        });
        assert!(!stale.is_empty(), "the finished writer left no wake-ups");
        // The next segment's writer gets its first write out, with that
        // write's retransmission wake-up and the next chunk's pending.
        let mut fresh = segment(0x2000..0x3000);
        let started = fresh.handle(old.stats().completed_at, ClientInput::Start);
        let Some(&ClientAction::Wakeup { at, token }) = started.first() else {
            panic!("the fresh writer did not start generating");
        };
        fresh.handle(at, ClientInput::Wakeup { token });
        assert_eq!(fresh.stats().requests_sent, 1);
        // None of the finished writer's wake-ups may act on the fresh
        // writer: no retransmission, no early chunk.
        for input in stale {
            let actions = fresh.handle(at, input);
            assert!(actions.is_empty(), "a stale timer acted: {actions:?}");
        }
        assert_eq!(fresh.stats().requests_sent, 1);
        assert_eq!(fresh.stats().retransmissions, 0);
    }

    #[test]
    #[should_panic(expected = "xid window exhausted")]
    fn a_writer_panics_at_the_end_of_its_xid_range() {
        // Eight 8 KB writes in a window of four xids: the fifth write must
        // not take the xid of the next segment's window.
        let cfg = ClientConfig {
            file_size: 64 * 1024,
            xids: 0x1000..0x1004,
            ..ClientConfig::default()
        };
        let mut client = FileWriterClient::new(cfg, handle());
        drive(&mut client, |_, call| {
            Some((Duration::from_millis(1), ok_reply(call.xid)))
        });
    }

    /// A toy unstable-mode server: acknowledges writes `UNSTABLE` under the
    /// current verifier, answers COMMIT with the current verifier, and
    /// "crashes" (verifier bump) just before acknowledging the given write.
    fn run_unstable_client(
        mut client: FileWriterClient,
        crash_after_writes: Option<u64>,
    ) -> FileWriterClient {
        let mut verf = 100u64;
        let mut writes_seen = 0u64;
        drive(&mut client, |_, call| {
            let body = match &call.body {
                NfsCallBody::Write(_) => {
                    writes_seen += 1;
                    if Some(writes_seen) == crash_after_writes {
                        // The server reboots: cached data dies, the next
                        // boot mints a new verifier.
                        verf += 1;
                    }
                    NfsReplyBody::WriteVerf(StatusReply::Ok(wg_nfsproto::WriteVerfOk {
                        attributes: Fattr::default(),
                        committed: StableHow::Unstable,
                        verf,
                    }))
                }
                NfsCallBody::Commit(_) => {
                    NfsReplyBody::Commit(StatusReply::Ok(wg_nfsproto::CommitOk {
                        attributes: Fattr::default(),
                        verf,
                    }))
                }
                other => panic!("unexpected call {other:?}"),
            };
            Some((Duration::from_millis(1), NfsReply::new(call.xid, body)))
        });
        client
    }

    #[test]
    fn unstable_close_commits_and_only_then_reports_acked() {
        let cfg = ClientConfig {
            file_size: 64 * 1024, // 8 chunks
            biods: 4,
            stability: StableHow::Unstable,
            ..ClientConfig::default()
        };
        let client = run_unstable_client(FileWriterClient::new(cfg, handle()), None);
        let stats = client.stats();
        assert_eq!(stats.commits_sent, 1);
        assert_eq!(stats.verifier_mismatches, 0);
        assert_eq!(stats.bytes_acked, 64 * 1024);
        // Every range moved from uncommitted to acked via the COMMIT.
        assert!(client.uncommitted_ranges().is_empty());
        let total: u64 = client.acked_writes().iter().map(|(_, l)| l).sum();
        assert_eq!(total, 64 * 1024);
    }

    #[test]
    fn commit_interval_paces_commits_through_the_transfer() {
        // 64 KB file, COMMIT every 16 KB: pacing fires repeatedly instead of
        // one close-time COMMIT over the whole file.
        let cfg = ClientConfig {
            file_size: 64 * 1024,
            biods: 0, // serialise so the pacing points are exact
            stability: StableHow::Unstable,
            commit_interval: 16 * 1024,
            ..ClientConfig::default()
        };
        let client = run_unstable_client(FileWriterClient::new(cfg, handle()), None);
        let stats = client.stats();
        assert!(
            stats.paced_commits >= 3,
            "expected repeated paced COMMITs, got {}",
            stats.paced_commits
        );
        assert!(stats.commits_sent >= stats.paced_commits);
        assert_eq!(stats.verifier_mismatches, 0);
        assert_eq!(stats.bytes_acked, 64 * 1024);
        assert!(client.uncommitted_ranges().is_empty());
        // Pacing off: exactly the single close-time COMMIT as before.
        let cfg_off = ClientConfig {
            file_size: 64 * 1024,
            biods: 0,
            stability: StableHow::Unstable,
            ..ClientConfig::default()
        };
        let baseline = run_unstable_client(FileWriterClient::new(cfg_off, handle()), None);
        assert_eq!(baseline.stats().commits_sent, 1);
        assert_eq!(baseline.stats().paced_commits, 0);
    }

    #[test]
    fn verifier_mismatch_resends_lost_ranges_and_recommits() {
        let cfg = ClientConfig {
            file_size: 64 * 1024, // 8 chunks
            biods: 0,             // serialise so "crash after 5 writes" is exact
            stability: StableHow::Unstable,
            ..ClientConfig::default()
        };
        // The server "reboots" before acknowledging the 6th write: writes
        // 1–5 carry the old verifier, 6–8 the new one.  The close-time
        // COMMIT returns the new verifier, voiding writes 1–5.
        let client = run_unstable_client(FileWriterClient::new(cfg, handle()), Some(6));
        let stats = client.stats();
        assert_eq!(stats.verifier_mismatches, 1);
        assert_eq!(stats.resent_bytes, 5 * 8192);
        assert_eq!(stats.commits_sent, 2, "a second COMMIT covers the re-send");
        // After recovery everything is acked exactly once.
        assert_eq!(stats.bytes_acked, 64 * 1024);
        assert!(client.uncommitted_ranges().is_empty());
        let mut offsets: Vec<u64> = client.acked_writes().iter().map(|(o, _)| *o).collect();
        offsets.sort_unstable();
        assert_eq!(offsets, (0..8u64).map(|b| b * 8192).collect::<Vec<_>>());
    }

    #[test]
    fn promoted_file_sync_replies_need_no_commit() {
        // A server with no stable lazy destination answers UNSTABLE requests
        // with committed = FILE_SYNC; the client must not track them as
        // uncommitted nor send a COMMIT.
        let cfg = ClientConfig {
            file_size: 32 * 1024,
            biods: 4,
            stability: StableHow::Unstable,
            ..ClientConfig::default()
        };
        let mut client = FileWriterClient::new(cfg, handle());
        drive(&mut client, |_, call| {
            let body = match &call.body {
                NfsCallBody::Write(_) => {
                    NfsReplyBody::WriteVerf(StatusReply::Ok(wg_nfsproto::WriteVerfOk {
                        attributes: Fattr::default(),
                        committed: StableHow::FileSync,
                        verf: 7,
                    }))
                }
                other => panic!("no COMMIT expected, got {other:?}"),
            };
            Some((Duration::from_millis(1), NfsReply::new(call.xid, body)))
        });
        assert_eq!(client.stats().commits_sent, 0);
        assert_eq!(client.stats().bytes_acked, 32 * 1024);
        assert_eq!(client.acked_writes().len(), 4);
    }

    #[test]
    fn empty_file_completes_immediately() {
        let cfg = ClientConfig {
            file_size: 0,
            ..ClientConfig::default()
        };
        let mut client = FileWriterClient::new(cfg, handle());
        let actions = client.handle(SimTime::ZERO, ClientInput::Start);
        assert!(matches!(
            actions.as_slice(),
            [ClientAction::Completed { .. }]
        ));
        assert!(client.is_done());
    }
}
