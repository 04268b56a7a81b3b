//! The client half of protocol v2: [`SessionCore`], the sans-IO session
//! machine every client runs on [`SimTime`] stamps — the live network
//! client and coordination link over TCP, [`ClosedLoopClient`] over
//! simulated links — and that closed-loop client, which mirrors the
//! paper's client setup: a configurable number of outstanding requests
//! ("proposers have 10 threads, each one submitting requests", §8.3.1),
//! each answered by the first reply, or for multi-partition operations
//! like scans by one reply from every involved partition (§7.2).
//!
//! One replica per partition answers a command's first execution, so a
//! request normally gets exactly the replies it waits for: one, or one
//! per addressed partition. A request left unanswered — its answering
//! replica crashed, or the client cannot hear it — is re-sent unchanged
//! to the next member of the group, and every replica that executed it
//! answers the re-send from its session table's reply cache. A request
//! that must be answered by one named replica goes to that replica as a
//! [`ClientMsg::RequestHere`], and the replica answers it too.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use common::hist::Histogram;
use common::ids::{ClientId, NodeId, PartitionId, RequestId, RingId};
use common::msg::Msg;
use common::process::{Ctx, Process, Timer};
use common::time::SimTime;
use common::value::SESSION_CTL;
use common::wire::client::{
    parse_open_reply, parse_reply, ClientMsg, ClientReply, ErrorCode, SessionCtl, ST_OK,
    ST_UNKNOWN_SESSION,
};
use common::wire::Wire;
use coord::Registry;
use rand::rngs::StdRng;

use crate::session::SessionLimits;

/// One finished request: every reply that completed it, in arrival
/// order (one per answering replica for fan-out operations).
#[derive(Clone, Debug)]
pub struct Completion {
    /// The request's per-session sequence number.
    pub seq: u64,
    /// `(replica, service payload)` per reply that counted.
    pub replies: Vec<(NodeId, Bytes)>,
}

/// What [`SessionCore::on_reply`] wants the transport driver to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Nothing; keep pumping.
    None,
    /// A completion is ready to take.
    Completed(u64),
    /// The session homed on this ring is gone server-side
    /// (expired/evicted): the core has queued its re-open, and re-sends
    /// the ring's in-flight requests once that is answered. Sessions on
    /// other rings are unaffected.
    SessionLost(RingId),
    /// The session homed on this ring opened; the ring's in-flight
    /// requests are queued under it.
    Opened(RingId),
    /// Re-send `seq` to `to` now (server redirect).
    Resend(u64, NodeId),
    /// The server rejected `seq` outright; fail it.
    Failed(u64, ErrorCode, String),
}

/// One in-flight request.
#[derive(Clone, Debug)]
pub struct Inflight {
    /// The multicast group the command targets.
    pub group: RingId,
    /// The encoded service command (kept for re-sends).
    pub cmd: Bytes,
    /// Partitions that must answer before the request completes; empty
    /// means the first reply completes it (single-partition rule).
    pub need: Vec<PartitionId>,
    /// Complete only on a reply from this specific replica (used to
    /// observe a recovered replica's state). The request's frame is a
    /// [`ClientMsg::RequestHere`], which the driver sends to it.
    pub want_replica: Option<NodeId>,
    /// Replicas that already answered (dedup for fan-out counting).
    pub answered: HashSet<NodeId>,
    /// Partitions that answered so far.
    pub parts: HashSet<PartitionId>,
    /// Accepted replies (status-stripped service payloads).
    pub replies: Vec<(NodeId, Bytes)>,
    /// Last (re-)send time.
    pub last_sent: SimTime,
    /// Times the request was queued so far: drivers rotate through the
    /// group's proposer candidates by it.
    pub route_pos: usize,
}

/// One session-control request in flight ([`SessionCtl::Open`] or
/// [`SessionCtl::KeepAlive`]), by its correlation token.
#[derive(Debug)]
struct Control {
    group: RingId,
    ctl: SessionCtl,
    last_sent: SimTime,
    sends: usize,
}

/// The sans-IO v2 client session machine, one for every client of the
/// protocol: the simulator's [`ClosedLoopClient`], the live network
/// client and the live coordination link each drive one, and it never
/// asks which.
/// It owns seq allocation, window accounting, reply matching (with
/// session echo filtering: one reply per partition is the normal case,
/// one per replica after a re-send), out-of-order completion, cumulative-ack
/// tracking and each ring's session lifecycle: open by token, a
/// keep-alive every TTL/3, and on [`ST_UNKNOWN_SESSION`] — answering a
/// request or a keep-alive — a re-open followed by a re-send of that
/// ring's in-flight requests unchanged. No sockets, no clocks beyond the
/// [`SimTime`] stamps the driver passes in — unit-testable in isolation.
///
/// Frames leave through [`SessionCore::outbox`]; where each goes, when
/// an unanswered one goes again and when to fail over are the driver's.
///
/// Sessions are **per home ring**: each multicast group the client talks
/// to gets its own replica-assigned session id, opened through that
/// ring's own ordered stream — so a single-partition command never drags
/// the global ring into its session bookkeeping. One global seq space
/// spans every ring (the cumulative ack only ever covers finished seqs,
/// so it stays safe to report to any of them); control tokens have a
/// space of their own.
pub struct SessionCore {
    /// Replica-assigned session ids by home ring; a ring is absent until
    /// its open completes. Ordered, so keep-alives go out in ring order
    /// and a simulation replays.
    pub sessions: BTreeMap<RingId, u64>,
    /// The partition of each replica, for the fan-out completion rule.
    pub replica_partitions: HashMap<NodeId, PartitionId>,
    /// Effective window (server grant, capped by the client's wish).
    pub window: usize,
    /// The client's wish (grants are clamped to it).
    wanted_window: usize,
    /// TTL requested for every session.
    ttl: Duration,
    /// Next per-session sequence number to allocate (starts at 1).
    next_seq: u64,
    /// Highest seq such that all seqs ≤ it completed (reported to
    /// replicas as the cache-prune ack).
    pub acked: u64,
    /// Completed seqs above `acked` (out-of-order completions).
    done_above_ack: BTreeSet<u64>,
    /// In-flight requests by seq.
    pub inflight: BTreeMap<u64, Inflight>,
    /// Session-control requests in flight, by token.
    control: BTreeMap<u64, Control>,
    next_token: u64,
    /// When the next keep-alive round falls due (set by the first tick).
    next_keepalive: Option<SimTime>,
    /// Frames for the driver to route, each with how often it went
    /// before (drivers rotate replicas by it).
    pub outbox: Vec<(usize, ClientMsg)>,
    /// Finished requests not yet taken by the caller.
    ready: VecDeque<Completion>,
    /// Requests that failed with a server error, by seq.
    failed: HashMap<u64, (ErrorCode, String)>,
}

impl SessionCore {
    /// A core keeping up to `wanted_window` requests in flight, opening
    /// sessions with `ttl`.
    pub fn new(wanted_window: usize, ttl: Duration) -> Self {
        SessionCore {
            sessions: BTreeMap::new(),
            replica_partitions: HashMap::new(),
            window: wanted_window.max(1),
            wanted_window: wanted_window.max(1),
            ttl,
            next_seq: 1,
            acked: 0,
            done_above_ack: BTreeSet::new(),
            inflight: BTreeMap::new(),
            control: BTreeMap::new(),
            next_token: 1,
            next_keepalive: None,
            outbox: Vec::new(),
            ready: VecDeque::new(),
            failed: HashMap::new(),
        }
    }

    /// The session id for requests targeting `group` (0 until opened).
    pub fn session_for(&self, group: RingId) -> u64 {
        self.sessions.get(&group).copied().unwrap_or(0)
    }

    /// Adopts a freshly opened session id for `group`. In-flight requests
    /// (submitted against a lost session of that ring) **keep their
    /// sequence numbers** — callers already hold them as correlation
    /// handles, so renumbering would detach completions from the requests
    /// they answer. The global ack accounting is untouched: every seq
    /// that ever left the in-flight map was marked done when it did, so
    /// the cumulative ack never waits for a seq no session will execute.
    pub fn adopt_session(&mut self, group: RingId, session: u64) {
        self.sessions.insert(group, session);
    }

    /// True when another request fits in the window.
    pub fn has_capacity(&self) -> bool {
        self.inflight.len() < self.window.max(1)
    }

    /// True when `n` more requests keep every seq within the window of
    /// the cumulative ack: a server refuses a seq further out
    /// ([`ST_WINDOW_EXCEEDED`](common::wire::client::ST_WINDOW_EXCEEDED))
    /// however few requests are in flight.
    pub fn fits(&self, n: usize) -> bool {
        self.next_seq + n as u64 <= self.acked + 1 + self.window.max(1) as u64
    }

    /// Allocates a seq, registers the in-flight entry and queues its
    /// frame — or, while `group` has no session, opens one: the request
    /// goes once the open is answered. The caller checks
    /// [`SessionCore::has_capacity`] first (submitting beyond the window
    /// is allowed but the server may refuse the overhang).
    pub fn begin(
        &mut self,
        group: RingId,
        cmd: Bytes,
        need: Vec<PartitionId>,
        want_replica: Option<NodeId>,
        now: SimTime,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inflight.insert(
            seq,
            Inflight {
                group,
                cmd,
                need,
                want_replica,
                answered: HashSet::new(),
                parts: HashSet::new(),
                replies: Vec::new(),
                last_sent: now,
                route_pos: 0,
            },
        );
        if self.sessions.contains_key(&group) {
            self.resend(seq, now);
        } else {
            self.open(group, now);
        }
        seq
    }

    /// The request frame for in-flight `seq`, under its ring's session;
    /// none while that ring has no session. A request that wants one
    /// replica's answer is a [`ClientMsg::RequestHere`], for the driver
    /// to send to that replica.
    pub fn request_frame(&self, seq: u64) -> Option<ClientMsg> {
        let req = self.inflight.get(&seq)?;
        let (session, seq) = (*self.sessions.get(&req.group)?, RequestId::new(seq));
        let (ack, group, cmd) = (self.acked, req.group, req.cmd.clone());
        Some(match req.want_replica {
            Some(_) => ClientMsg::RequestHere {
                session,
                seq,
                ack,
                group,
                cmd,
            },
            None => ClientMsg::RequestV2 {
                session,
                seq,
                ack,
                group,
                cmd,
            },
        })
    }

    /// Queues in-flight `seq` again, unchanged, if its ring has a
    /// session.
    fn resend(&mut self, seq: u64, now: SimTime) {
        let Some(frame) = self.request_frame(seq) else {
            return;
        };
        let req = self.inflight.get_mut(&seq).expect("framed above");
        self.outbox.push((req.route_pos, frame));
        req.last_sent = now;
        req.route_pos = req.route_pos.wrapping_add(1);
    }

    /// Queues again, unchanged, everything in flight on `group`: its
    /// session control, and its requests if it has a session.
    pub fn resend_ring(&mut self, group: RingId, now: SimTime) {
        self.resend_where(now, |g, _| g == group);
    }

    /// Queues again, unchanged, everything unanswered for `every`.
    pub fn retry(&mut self, now: SimTime, every: Duration) {
        self.resend_where(now, |_, sent| now.since(sent) >= every);
    }

    /// Queues again, unchanged, the control requests and requests `which`
    /// picks by group and last send.
    fn resend_where(&mut self, now: SimTime, which: impl Fn(RingId, SimTime) -> bool) {
        let control = self
            .control
            .iter()
            .filter(|(_, c)| which(c.group, c.last_sent));
        for token in control.map(|(token, _)| *token).collect::<Vec<_>>() {
            self.send_control(token, now);
        }
        let requests = self
            .inflight
            .iter()
            .filter(|(_, r)| which(r.group, r.last_sent));
        for seq in requests.map(|(seq, _)| *seq).collect::<Vec<_>>() {
            self.resend(seq, now);
        }
    }

    /// When the longest-unanswered request or control request went out.
    pub fn oldest_unanswered(&self) -> Option<SimTime> {
        let requests = self.inflight.values().map(|r| r.last_sent);
        requests
            .chain(self.control.values().map(|c| c.last_sent))
            .min()
    }

    /// Opens `group`'s session unless it is open or opening.
    pub fn open(&mut self, group: RingId, now: SimTime) {
        let opening = |c: &Control| c.group == group && matches!(c.ctl, SessionCtl::Open { .. });
        if !self.sessions.contains_key(&group) && !self.control.values().any(opening) {
            let (token, ttl_ms) = (self.next_token, self.ttl.as_millis() as u64);
            self.control_request(group, SessionCtl::Open { token, ttl_ms }, now);
        }
    }

    /// Sends a keep-alive for every open session that has none in flight
    /// once every TTL/3.
    pub fn tick(&mut self, now: SimTime) {
        let every = (self.ttl / 3).max(Duration::from_millis(100));
        let due = self.next_keepalive.get_or_insert(now + every);
        if now < *due {
            return;
        }
        *due = now + every;
        let open: Vec<(RingId, u64)> = self.sessions.iter().map(|(g, s)| (*g, *s)).collect();
        for (group, session) in open {
            let alive = |c: &Control| c.ctl == SessionCtl::KeepAlive { session };
            if !self.control.values().any(alive) {
                self.control_request(group, SessionCtl::KeepAlive { session }, now);
            }
        }
    }

    fn control_request(&mut self, group: RingId, ctl: SessionCtl, now: SimTime) {
        let token = self.next_token;
        self.next_token += 1;
        let control = Control {
            group,
            ctl,
            last_sent: now,
            sends: 0,
        };
        self.control.insert(token, control);
        self.send_control(token, now);
    }

    fn send_control(&mut self, token: u64, now: SimTime) {
        let c = self.control.get_mut(&token).expect("in flight");
        let frame = ClientMsg::RequestV2 {
            session: SESSION_CTL,
            seq: RequestId::new(token),
            ack: 0,
            group: c.group,
            cmd: c.ctl.to_bytes(),
        };
        self.outbox.push((c.sends, frame));
        c.last_sent = now;
        c.sends += 1;
    }

    /// `group`'s session `session` is gone server-side: unless it was
    /// already replaced, open another.
    fn session_lost(&mut self, group: RingId, session: u64, now: SimTime) {
        if self.sessions.get(&group) == Some(&session) {
            self.sessions.remove(&group);
            let ours = |c: &Control| c.ctl == SessionCtl::KeepAlive { session };
            self.control.retain(|_, c| !ours(c));
            self.open(group, now);
        }
    }

    /// A session-control reply: an open answered adopts its session and
    /// sends what waited for it; a keep-alive the server no longer knows
    /// re-opens the session.
    fn on_control(&mut self, token: u64, payload: &Bytes, now: SimTime) -> Action {
        let Some(c) = self.control.get(&token) else {
            return Action::None;
        };
        let group = c.group;
        match c.ctl {
            SessionCtl::Open { .. } => {
                // A refused open stays in flight; the driver retries it.
                let Some(session) = parse_open_reply(payload) else {
                    return Action::None;
                };
                self.control.remove(&token);
                self.adopt_session(group, session);
                self.resend_ring(group, now);
                Action::Opened(group)
            }
            SessionCtl::KeepAlive { session } => {
                self.control.remove(&token);
                if parse_reply(payload).is_some_and(|(st, _)| st == ST_UNKNOWN_SESSION) {
                    self.session_lost(group, session, now);
                    return Action::SessionLost(group);
                }
                Action::None
            }
            SessionCtl::Expire { .. } => Action::None,
        }
    }

    fn mark_done(&mut self, seq: u64) {
        self.done_above_ack.insert(seq);
        while self.done_above_ack.remove(&(self.acked + 1)) {
            self.acked += 1;
        }
    }

    /// Abandons an in-flight request (caller timeout). The seq is marked
    /// done so the cumulative ack keeps advancing — which also tells
    /// replicas to treat any late delivery of it as stale (at-most-once
    /// for timed-out requests).
    pub fn abandon(&mut self, seq: u64) {
        if self.inflight.remove(&seq).is_some() {
            self.mark_done(seq);
        }
    }

    /// Feeds one server frame; returns what the driver should do. `now`
    /// stamps whatever the reply makes the core send.
    pub fn on_reply(&mut self, reply: &ClientReply, now: SimTime) -> Action {
        match reply {
            ClientReply::WelcomeV2 { window, .. } | ClientReply::CreditGrant { window } => {
                // The server's grant is authoritative, the client's wish
                // the ceiling.
                self.window = (*window as usize).clamp(1, self.wanted_window);
                Action::None
            }
            ClientReply::ResponseV2 {
                session,
                seq,
                from_replica,
                payload,
            } => {
                if *session == SESSION_CTL {
                    return self.on_control(seq.raw(), payload, now);
                }
                let raw = seq.raw();
                let Some(group) = self.inflight.get(&raw).map(|r| r.group) else {
                    return Action::None; // completed, abandoned, or foreign
                };
                if *session != self.session_for(group) {
                    // A different session on this request's home ring is
                    // a straggler of an earlier incarnation — the exact
                    // mis-match the v1 wall-clock seq base papered over.
                    return Action::None;
                }
                let Some((status, body)) = parse_reply(payload) else {
                    return Action::None;
                };
                match status {
                    ST_OK => self.on_ok(raw, *from_replica, body),
                    ST_UNKNOWN_SESSION => {
                        self.session_lost(group, *session, now);
                        Action::SessionLost(group)
                    }
                    _ => Action::None, // window exceeded, stale: retried
                }
            }
            ClientReply::Redirect { seq, to, .. } => {
                if self.inflight.contains_key(&seq.raw()) {
                    Action::Resend(seq.raw(), *to)
                } else {
                    Action::None
                }
            }
            ClientReply::ErrorV2 { seq, code, detail } => {
                let raw = seq.raw();
                if self.inflight.remove(&raw).is_some() {
                    self.mark_done(raw);
                    // Bounded: pipelined callers that never query
                    // failures (poll_reply-only loops) must not leak one
                    // entry per rejection for the process lifetime.
                    if self.failed.len() >= 1024 {
                        self.failed.clear();
                    }
                    self.failed.insert(raw, (*code, detail.clone()));
                    Action::Failed(raw, *code, detail.clone())
                } else {
                    Action::None
                }
            }
            // v1 frames and pongs carry nothing for a v2 session.
            _ => Action::None,
        }
    }

    fn on_ok(&mut self, seq: u64, from: NodeId, body: Bytes) -> Action {
        let Some(req) = self.inflight.get_mut(&seq) else {
            return Action::None; // duplicate after completion
        };
        if !req.answered.insert(from) {
            return Action::None; // duplicate reply from the same replica
        }
        req.replies.push((from, body));
        if let Some(p) = self.replica_partitions.get(&from) {
            req.parts.insert(*p);
        }
        let done = match (&req.want_replica, req.need.is_empty()) {
            (Some(want), _) => from == *want,
            (None, true) => true,
            (None, false) => req.need.iter().all(|p| req.parts.contains(p)),
        };
        if !done {
            return Action::None;
        }
        let req = self.inflight.remove(&seq).expect("checked above");
        self.mark_done(seq);
        self.ready.push_back(Completion {
            seq,
            replies: req.replies,
        });
        Action::Completed(seq)
    }

    /// Takes the oldest finished request, if any.
    pub fn take_ready(&mut self) -> Option<Completion> {
        self.ready.pop_front()
    }

    /// Takes the completion for one specific seq, if finished.
    pub fn take_seq(&mut self, seq: u64) -> Option<Completion> {
        let at = self.ready.iter().position(|c| c.seq == seq)?;
        self.ready.remove(at)
    }

    /// The recorded failure for `seq`, if the server rejected it.
    pub fn take_failure(&mut self, seq: u64) -> Option<(ErrorCode, String)> {
        self.failed.remove(&seq)
    }
}

/// One generated command.
#[derive(Clone, Debug)]
pub struct CommandSpec {
    /// The multicast group to address.
    pub group: RingId,
    /// Service-specific command bytes.
    pub cmd: Bytes,
    /// Partitions that must answer before the operation completes
    /// (1 for single-partition commands; one per involved partition for
    /// scans / multi-appends).
    pub partitions: Vec<PartitionId>,
    /// Additional sub-requests issued as part of the same operation to
    /// other groups (e.g. scans on independent rings, one per partition).
    pub also: Vec<(RingId, Bytes)>,
    /// A follow-up operation issued when this one completes; latency is
    /// measured end-to-end (client-side read-modify-write).
    pub followup: Option<Box<CommandSpec>>,
    /// Label for per-operation-type latency (Figure 4's workload-F
    /// breakdown).
    pub label: &'static str,
}

impl CommandSpec {
    /// A single-group command answered by `partitions`.
    pub fn simple(group: RingId, cmd: Bytes, partitions: Vec<PartitionId>) -> Self {
        CommandSpec {
            group,
            cmd,
            partitions,
            also: Vec::new(),
            followup: None,
            label: "op",
        }
    }

    /// Sets the op-type label.
    #[must_use]
    pub fn labeled(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }
}

/// Generates the client's command stream.
pub trait CommandGen: 'static {
    /// Produces the next command.
    fn next(&mut self, rng: &mut StdRng) -> CommandSpec;
}

impl<F: FnMut(&mut StdRng) -> CommandSpec + 'static> CommandGen for F {
    fn next(&mut self, rng: &mut StdRng) -> CommandSpec {
        self(rng)
    }
}

/// Aggregated client-side measurements, shared with the harness.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Requests completed (all required partitions answered).
    pub completed: u64,
    /// Request frames sent (including re-sends).
    pub sent: u64,
    /// End-to-end latency histogram (nanoseconds).
    pub latency: Histogram,
    /// Completions after `warmup`, for steady-state throughput.
    pub completed_after_warmup: u64,
    /// Bytes of command payload completed.
    pub payload_bytes: u64,
    /// Latency broken down by operation label (Figure 4 bottom).
    pub latency_by: BTreeMap<&'static str, Histogram>,
}

/// Shared handle to [`ClientStats`].
pub type SharedClientStats = Rc<RefCell<ClientStats>>;

/// One workload operation in flight: a request per target group.
struct Op {
    spec: CommandSpec,
    started: SimTime,
    /// Requests of the current stage not yet completed.
    waiting: usize,
}

const TIMER_TICK: u32 = 20;
const TIMER_ISSUE: u32 = 21;

/// Session TTL of a simulated client; its keep-alives go every TTL/3.
const SESSION_TTL: Duration = Duration::from_secs(30);

/// A closed-loop client process driving one service through a
/// [`SessionCore`].
pub struct ClosedLoopClient {
    registry: Registry,
    /// Per group: the proposer to contact first (typically the nearest
    /// member), then the ring's other members, which re-sends rotate to.
    route: HashMap<RingId, Vec<NodeId>>,
    /// The partitions replicating each target group.
    group_partitions: HashMap<RingId, Vec<PartitionId>>,
    gen: Box<dyn CommandGen>,
    outstanding: usize,
    core: SessionCore,
    /// Operations under way by id, and the operation each seq serves.
    ops: HashMap<u64, Op>,
    /// Operations whose current stage waits to start, oldest first.
    stages: VecDeque<u64>,
    op_of: HashMap<u64, u64>,
    next_op: u64,
    stats: SharedClientStats,
    retry_after: Duration,
    warmup: SimTime,
    /// Minimum spacing between issued requests (rate cap); zero = none.
    min_gap: Duration,
    next_free: SimTime,
    /// A deferred issue is scheduled (rate cap).
    issue_armed: bool,
}

impl ClosedLoopClient {
    /// Creates a client keeping `outstanding` requests in flight,
    /// generated by `gen`, sent to `proposers`. Replicas know a simulated
    /// client by its node id, so `_id` names nothing on the wire.
    ///
    /// The client's session window is twice what it can have in flight —
    /// `outstanding` operations, each on up to every group of
    /// `proposers` — and at least the default session table's
    /// ([`SessionLimits::max_cached`]); replicas whose clients keep more
    /// than that in flight need a table that admits it, as a live
    /// deployment sizes its table by its credit window.
    pub fn new(
        _id: ClientId,
        registry: Registry,
        proposers: HashMap<RingId, NodeId>,
        gen: impl CommandGen,
        outstanding: usize,
    ) -> Self {
        let in_flight = outstanding.max(1) * proposers.len().max(1);
        let window = (2 * in_flight).max(SessionLimits::default().max_cached);
        ClosedLoopClient {
            registry,
            route: (proposers.into_iter()).map(|(g, p)| (g, vec![p])).collect(),
            group_partitions: HashMap::new(),
            gen: Box::new(gen),
            outstanding: outstanding.max(1),
            core: SessionCore::new(window, SESSION_TTL),
            ops: HashMap::new(),
            stages: VecDeque::new(),
            op_of: HashMap::new(),
            next_op: 0,
            stats: Rc::new(RefCell::new(ClientStats::default())),
            retry_after: Duration::from_secs(2),
            warmup: SimTime::ZERO,
            min_gap: Duration::ZERO,
            next_free: SimTime::ZERO,
            issue_armed: false,
        }
    }

    /// Shared handle to the measurements.
    pub fn stats(&self) -> SharedClientStats {
        self.stats.clone()
    }

    /// Completions before `warmup` are excluded from
    /// [`ClientStats::completed_after_warmup`].
    #[must_use]
    pub fn with_warmup(mut self, warmup: SimTime) -> Self {
        self.warmup = warmup;
        self
    }

    /// How long a request waits unanswered before [`SessionCore::retry`]
    /// sends it again.
    #[must_use]
    pub fn with_retry_after(mut self, retry_after: Duration) -> Self {
        self.retry_after = retry_after;
        self
    }

    /// Caps the client's injection rate at `ops_per_sec` — models a
    /// client machine with bounded generation capacity (the paper runs
    /// one client machine per region).
    #[must_use]
    pub fn with_rate_cap(mut self, ops_per_sec: f64) -> Self {
        if ops_per_sec > 0.0 {
            self.min_gap = Duration::from_secs_f64(1.0 / ops_per_sec);
        }
        self
    }

    /// Learns each target group's members and their partitions.
    fn learn_routes(&mut self) {
        for (&group, route) in &mut self.route {
            if let Ok(cfg) = self.registry.ring(group) {
                let proposer = route[0];
                route.extend(cfg.members().iter().filter(|m| **m != proposer));
            }
            let partitions = self.group_partitions.entry(group).or_default();
            for replica in self.registry.subscribers(group) {
                if let Some(p) = self.registry.partition_of(replica) {
                    self.core.replica_partitions.insert(replica, p);
                    partitions.push(p);
                }
            }
        }
    }

    /// Issues operations until `outstanding` are under way, as far as the
    /// rate cap allows, then starts waiting stages, oldest first, as far
    /// as the session window allows: a replica refuses a seq further
    /// than the window beyond the ack its frame carries.
    fn top_up(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        while self.ops.len() < self.outstanding {
            if now < self.next_free {
                if !self.issue_armed {
                    self.issue_armed = true;
                    ctx.schedule_at(self.next_free, Timer::of_kind(TIMER_ISSUE));
                }
                break;
            }
            self.next_free = now + self.min_gap;
            let spec = self.gen.next(ctx.rng());
            self.next_op += 1;
            let op = Op {
                spec,
                started: now,
                waiting: 0,
            };
            self.ops.insert(self.next_op, op);
            self.stages.push_back(self.next_op);
        }
        while let Some(&op) = self.stages.front() {
            if !self.core.fits(1 + self.ops[&op].spec.also.len()) {
                break;
            }
            self.stages.pop_front();
            self.start(op, now);
        }
        self.flush(ctx);
    }

    /// Begins the current stage of operation `op`: a request per target
    /// group, each completing once the partitions of `spec.partitions`
    /// that replicate its group answered.
    fn start(&mut self, op: u64, now: SimTime) {
        let spec = &self.ops[&op].spec;
        let targets = std::iter::once((spec.group, spec.cmd.clone())).chain(spec.also.clone());
        let mut waiting = 0;
        for (group, cmd) in targets {
            let Some(replicating) = self.group_partitions.get(&group) else {
                continue; // no proposer for the group
            };
            let need = (spec.partitions.iter().copied())
                .filter(|p| replicating.contains(p))
                .collect();
            let seq = self.core.begin(group, cmd, need, None, now);
            self.op_of.insert(seq, op);
            waiting += 1;
        }
        self.ops.get_mut(&op).expect("under way").waiting = waiting;
    }

    /// Routes what the core queued: each frame to a member of its group,
    /// rotated by how often it went before.
    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        for (tries, frame) in std::mem::take(&mut self.core.outbox) {
            let ClientMsg::RequestV2 { group, session, .. } = &frame else {
                continue;
            };
            let Some(route) = self.route.get(group) else {
                continue;
            };
            if *session != SESSION_CTL {
                self.stats.borrow_mut().sent += 1;
            }
            ctx.send(route[tries % route.len()], Msg::Client(frame));
        }
    }

    /// Request `seq` completed: its operation finishes once every
    /// request of its stage did.
    fn complete(&mut self, seq: u64, ctx: &mut Ctx<'_>) {
        let Some(op_id) = self.op_of.remove(&seq) else {
            return;
        };
        let op = self.ops.get_mut(&op_id).expect("under way");
        op.waiting -= 1;
        if op.waiting > 0 {
            return;
        }
        if let Some(followup) = op.spec.followup.take() {
            // Client-side composite op (read-modify-write): the next
            // stage keeps the original start time, so the recorded
            // latency is end-to-end.
            op.spec = *followup;
            self.stages.push_back(op_id);
            return;
        }
        let op = self.ops.remove(&op_id).expect("present");
        let now = ctx.now();
        let mut stats = self.stats.borrow_mut();
        stats.completed += 1;
        stats.payload_bytes += op.spec.cmd.len() as u64;
        let elapsed = now.since(op.started);
        stats.latency.record_duration(elapsed);
        (stats.latency_by.entry(op.spec.label).or_default()).record_duration(elapsed);
        if now >= self.warmup {
            stats.completed_after_warmup += 1;
        }
    }
}

impl Process for ClosedLoopClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.learn_routes();
        self.top_up(ctx);
        ctx.schedule(
            self.retry_after.min(SESSION_TTL / 3),
            Timer::of_kind(TIMER_TICK),
        );
    }

    fn on_message(&mut self, _from: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        let Msg::Reply(reply) = msg else {
            return;
        };
        let now = ctx.now();
        let action = self.core.on_reply(&reply, now);
        if let Action::Resend(seq, to) = action {
            if let Some(frame) = self.core.request_frame(seq) {
                self.stats.borrow_mut().sent += 1;
                ctx.send(to, Msg::Client(frame));
            }
        }
        while let Some(done) = self.core.take_ready() {
            self.complete(done.seq, ctx);
        }
        self.top_up(ctx);
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        if timer.kind == TIMER_ISSUE {
            self.issue_armed = false;
        } else if timer.kind == TIMER_TICK {
            let every = self.retry_after.min(SESSION_TTL / 3);
            ctx.schedule(every, Timer::of_kind(TIMER_TICK));
            self.core.retry(ctx.now(), self.retry_after);
            self.core.tick(ctx.now());
        }
        self.top_up(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::frame_ok;

    #[test]
    fn stats_default_is_empty() {
        let s = ClientStats::default();
        assert_eq!(s.completed, 0);
        assert!(s.latency.is_empty());
    }

    const TTL: Duration = Duration::from_secs(30);

    fn resp(session: u64, seq: u64, from: u32, body: &'static [u8]) -> ClientReply {
        ClientReply::ResponseV2 {
            session,
            seq: RequestId::new(seq),
            from_replica: NodeId::new(from),
            payload: frame_ok(&Bytes::from_static(body)),
        }
    }

    fn parts() -> HashMap<NodeId, PartitionId> {
        [
            (NodeId::new(0), PartitionId::new(0)),
            (NodeId::new(1), PartitionId::new(0)),
            (NodeId::new(2), PartitionId::new(1)),
            (NodeId::new(3), PartitionId::new(1)),
        ]
        .into_iter()
        .collect()
    }

    fn begin(core: &mut SessionCore, group: u16) -> u64 {
        core.begin(
            RingId::new(group),
            Bytes::from_static(b"cmd"),
            Vec::new(),
            None,
            SimTime::ZERO,
        )
    }

    /// The satellite regression for the deleted wall-clock `seq_base`
    /// hack: a straggler reply from a *previous invocation* (same client
    /// id, same seq number, different session) must never complete a new
    /// invocation's request. Under v1 both invocations shared one
    /// unstructured seq space, so only the wall-clock base kept them
    /// apart; under v2 the session echo makes the filter structural.
    #[test]
    fn straggler_reply_from_previous_session_is_ignored() {
        let mut core = SessionCore::new(8, TTL);
        core.adopt_session(RingId::new(0), 7); // this invocation's session
        let seq = begin(&mut core, 0);
        assert_eq!(seq, 1, "fresh sessions start their seq space at 1");

        // A reply to the previous invocation's seq 1 (session 3) arrives
        // late — same client id, same seq number.
        let action = core.on_reply(&resp(3, 1, 0, b"stale"), SimTime::ZERO);
        assert_eq!(action, Action::None);
        assert!(core.take_ready().is_none(), "straggler must not complete");
        assert!(core.inflight.contains_key(&1), "request still in flight");

        // The genuine reply (session echo matches) completes it.
        let action = core.on_reply(&resp(7, 1, 0, b"real"), SimTime::ZERO);
        assert_eq!(action, Action::Completed(1));
        let c = core.take_ready().expect("completed");
        assert_eq!(c.replies[0].1, Bytes::from_static(b"real"));
    }

    #[test]
    fn completions_surface_out_of_order_and_ack_is_cumulative() {
        let mut core = SessionCore::new(8, TTL);
        core.adopt_session(RingId::new(0), 1);
        let s1 = begin(&mut core, 0);
        let s2 = begin(&mut core, 0);
        let s3 = begin(&mut core, 0);
        core.on_reply(&resp(1, s3, 0, b"c"), SimTime::ZERO);
        core.on_reply(&resp(1, s2, 0, b"b"), SimTime::ZERO);
        assert_eq!(core.take_ready().unwrap().seq, s3);
        assert_eq!(core.take_ready().unwrap().seq, s2);
        assert_eq!(core.acked, 0, "ack waits for the contiguous prefix");
        core.on_reply(&resp(1, s1, 0, b"a"), SimTime::ZERO);
        assert_eq!(core.acked, 3, "ack jumps over the out-of-order window");
    }

    #[test]
    fn duplicate_replies_complete_once() {
        let mut core = SessionCore::new(8, TTL);
        core.adopt_session(RingId::new(0), 1);
        let seq = begin(&mut core, 0);
        assert_eq!(
            core.on_reply(&resp(1, seq, 0, b"x"), SimTime::ZERO),
            Action::Completed(seq)
        );
        // Redundant replica answers after completion: dropped.
        assert_eq!(
            core.on_reply(&resp(1, seq, 1, b"x"), SimTime::ZERO),
            Action::None
        );
        assert!(core.take_ready().is_some());
        assert!(core.take_ready().is_none());
    }

    #[test]
    fn fanout_completes_when_every_partition_answered() {
        let mut core = SessionCore::new(8, TTL);
        core.replica_partitions = parts();
        core.adopt_session(RingId::new(2), 1);
        let seq = core.begin(
            RingId::new(2),
            Bytes::from_static(b"scan"),
            vec![PartitionId::new(0), PartitionId::new(1)],
            None,
            SimTime::ZERO,
        );
        assert_eq!(
            core.on_reply(&resp(1, seq, 0, b"p0"), SimTime::ZERO),
            Action::None
        );
        // Second replica of the same partition does not finish the scan.
        assert_eq!(
            core.on_reply(&resp(1, seq, 1, b"p0"), SimTime::ZERO),
            Action::None
        );
        assert_eq!(
            core.on_reply(&resp(1, seq, 2, b"p1"), SimTime::ZERO),
            Action::Completed(seq)
        );
        let c = core.take_ready().unwrap();
        assert_eq!(c.replies.len(), 3, "every counted reply is kept");
    }

    #[test]
    fn window_capacity_and_credit_grants() {
        let mut core = SessionCore::new(4, TTL);
        core.adopt_session(RingId::new(0), 1);
        // The server narrows the window to 2.
        core.on_reply(&ClientReply::CreditGrant { window: 2 }, SimTime::ZERO);
        assert_eq!(core.window, 2);
        begin(&mut core, 0);
        begin(&mut core, 0);
        assert!(!core.has_capacity());
        // A grant beyond the client's wish is clamped.
        core.on_reply(&ClientReply::CreditGrant { window: 1000 }, SimTime::ZERO);
        assert_eq!(core.window, 4);
    }

    #[test]
    fn unknown_session_reply_signals_reopen_and_resubmission() {
        let mut core = SessionCore::new(8, TTL);
        core.adopt_session(RingId::new(0), 5);
        let s1 = begin(&mut core, 0);
        let s2 = begin(&mut core, 0);
        let s3 = begin(&mut core, 0);
        // s2 completes before the session is lost.
        core.on_reply(&resp(5, s2, 0, b"done"), SimTime::ZERO);
        let lost = ClientReply::ResponseV2 {
            session: 5,
            seq: RequestId::new(s1),
            from_replica: NodeId::new(0),
            payload: Bytes::from_static(&[ST_UNKNOWN_SESSION]),
        };
        assert_eq!(
            core.on_reply(&lost, SimTime::ZERO),
            Action::SessionLost(RingId::new(0))
        );
        // Re-open: in-flight requests KEEP their seqs — callers hold
        // them as correlation handles.
        core.adopt_session(RingId::new(0), 9);
        assert_eq!(core.session_for(RingId::new(0)), 9);
        assert!(core.inflight.contains_key(&s1) && core.inflight.contains_key(&s3));
        assert_eq!(
            core.on_reply(&resp(9, s1, 0, b"again"), SimTime::ZERO),
            Action::Completed(s1)
        );
        // The already-finished s2 does not wedge the cumulative ack.
        assert_eq!(
            core.on_reply(&resp(9, s3, 0, b"tail"), SimTime::ZERO),
            Action::Completed(s3)
        );
        assert_eq!(core.acked, s3);
    }

    #[test]
    fn abandoned_requests_unblock_the_cumulative_ack() {
        let mut core = SessionCore::new(8, TTL);
        core.adopt_session(RingId::new(0), 1);
        let s1 = begin(&mut core, 0);
        let s2 = begin(&mut core, 0);
        core.on_reply(&resp(1, s2, 0, b"b"), SimTime::ZERO);
        assert_eq!(core.acked, 0);
        core.abandon(s1); // caller timed out on s1
        assert_eq!(core.acked, 2, "ack advances past the abandoned seq");
    }

    #[test]
    fn redirect_targets_the_named_node() {
        let mut core = SessionCore::new(8, TTL);
        core.adopt_session(RingId::new(3), 1);
        let seq = begin(&mut core, 3);
        let action = core.on_reply(
            &ClientReply::Redirect {
                seq: RequestId::new(seq),
                group: RingId::new(3),
                to: NodeId::new(2),
            },
            SimTime::ZERO,
        );
        assert_eq!(action, Action::Resend(seq, NodeId::new(2)));
    }

    /// `(session, seq, cmd)` of every frame the core queued, drained.
    fn sent(core: &mut SessionCore) -> Vec<(u64, u64, Bytes)> {
        let frames = core.outbox.drain(..).map(|(_, frame)| frame);
        frames
            .map(|frame| match frame {
                ClientMsg::RequestV2 {
                    session, seq, cmd, ..
                } => (session, seq.raw(), cmd),
                other => panic!("not a request: {other:?}"),
            })
            .collect()
    }

    /// A session-control answer to `token` from replica 0.
    fn control_reply(token: u64, payload: Bytes) -> ClientReply {
        ClientReply::ResponseV2 {
            session: SESSION_CTL,
            seq: RequestId::new(token),
            from_replica: NodeId::new(0),
            payload,
        }
    }

    fn opened(token: u64, session: u64) -> ClientReply {
        let mut id = bytes::BytesMut::new();
        common::wire::put_varint(&mut id, session);
        control_reply(token, frame_ok(&id.freeze()))
    }

    /// The one session machine owns a ring's session lifecycle: a request
    /// begun before its ring's session opens goes only once the open is
    /// answered, under that session and with its original seq; and a
    /// keep-alive the server no longer knows re-opens the session and
    /// re-sends the ring's in-flight requests unchanged.
    #[test]
    fn the_core_opens_keeps_alive_and_reopens_a_rings_session() {
        let (ring, t0) = (RingId::new(2), SimTime::from_secs(1));
        let mut core = SessionCore::new(8, TTL);
        let cmd = Bytes::from_static(b"cmd");
        let seq = core.begin(ring, cmd.clone(), Vec::new(), None, t0);
        let open = sent(&mut core);
        assert_eq!(open.len(), 1, "only the open leaves: {open:?}");
        let (session, token, mut ctl) = open[0].clone();
        assert_eq!(session, SESSION_CTL);
        assert!(matches!(
            SessionCtl::decode(&mut ctl),
            Ok(SessionCtl::Open { ttl_ms: 30_000, .. })
        ));
        assert_eq!(core.on_reply(&opened(token, 7), t0), Action::Opened(ring));
        assert_eq!(sent(&mut core), [(7, seq, cmd.clone())], "sent once opened");

        // A keep-alive every TTL/3; the server answers it: it no longer
        // knows the session.
        core.tick(t0);
        assert!(sent(&mut core).is_empty(), "not due yet");
        let t1 = t0 + TTL / 3;
        core.tick(t1);
        let keep = sent(&mut core);
        assert_eq!(keep.len(), 1);
        let (_, token, mut ctl) = keep[0].clone();
        assert_eq!(
            SessionCtl::decode(&mut ctl),
            Ok(SessionCtl::KeepAlive { session: 7 })
        );
        let lost = control_reply(token, Bytes::from_static(&[ST_UNKNOWN_SESSION]));
        assert_eq!(core.on_reply(&lost, t1), Action::SessionLost(ring));
        assert_eq!(core.session_for(ring), 0);
        let reopen = sent(&mut core);
        assert_eq!(reopen.len(), 1, "only the re-open leaves: {reopen:?}");
        assert_eq!(reopen[0].0, SESSION_CTL);
        core.on_reply(&opened(reopen[0].1, 9), t1);
        assert_eq!(sent(&mut core), [(9, seq, cmd)], "re-sent unchanged");
        assert_eq!(
            core.on_reply(&resp(9, seq, 0, b"done"), t1),
            Action::Completed(seq)
        );
    }
}
