//! The live network client: protocol v2, pipelined, exactly-once.
//!
//! A [`LiveClient`] opens framed-TCP connections to every serving node
//! (replicas answer clients *directly*, like the paper's UDP responses —
//! so the client must be reachable from any replica that may execute its
//! commands), performs the v2 handshake on each, and runs every command
//! under one replicated **session**:
//!
//! * the session is opened through the ordered command stream itself
//!   (on the deployment's global ring), so its id is unique by
//!   construction — no wall-clock sequence base, no client-side entropy;
//! * requests carry `(session, seq)`; replicas deduplicate inside the
//!   deterministic state machine and answer retries from a reply cache,
//!   so the client's failover re-send is **safe by design** even for
//!   non-idempotent commands;
//! * replies echo the session id, so a straggler answer from an earlier
//!   client incarnation can never be mis-matched;
//! * up to `window` requests ride in flight concurrently (credit granted
//!   by the server at handshake, resizable via `CreditGrant`), and
//!   completions surface out of submission order.
//!
//! The session machine — reply matching, the window, each ring's
//! session open, keep-alive and re-open — is the sans-IO `SessionCore`,
//! which the coordination link ([`crate::link`]) drives too;
//! [`LiveClient`] wraps it with sockets, routing, retries and blocking
//! conveniences ([`LiveClient::request`], [`LiveClient::request_fanout`],
//! [`LiveClient::request_from`]).
//!
//! A client starts no thread: its sockets live in a `net::Net` turned on
//! the caller's thread, which feeds each reply it reads to the core.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use bytes::Bytes;
use common::error::{Error, Result};
use common::ids::{ClientId, NodeId, PartitionId, RequestId, RingId};
use common::obs::Counter;
use common::value::SESSION_CTL;
use common::wire::client::{ClientMsg, ClientReply, ErrorCode, FEAT_ALL};
use common::wire::Wire;
use multiring::session::{parse_open_reply, parse_reply, SessionCtl, ST_OK, ST_UNKNOWN_SESSION};

use crate::net::{ConnId, Event, Net, Reader};

/// How a client finds and talks to a deployment.
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// Give up on a request after this long.
    pub timeout: Duration,
    /// Re-send an unanswered request this often (safe: retries are
    /// deduplicated server-side).
    pub retry_every: Duration,
    /// Requests the client *wants* to keep in flight; the effective
    /// window is capped by the server's credit grant.
    pub window: usize,
    /// Session TTL requested at open: how long the session may sit idle
    /// (no requests, no keep-alives) before servers expire it.
    pub session_ttl: Duration,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            timeout: Duration::from_secs(10),
            retry_every: Duration::from_secs(1),
            window: 64,
            session_ttl: Duration::from_secs(30),
        }
    }
}

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
pub(crate) enum Action {
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
pub(crate) struct Inflight {
    /// The multicast group the command targets.
    pub group: RingId,
    /// The encoded service command (kept for re-sends).
    pub cmd: Bytes,
    /// Partitions that must answer before the request completes; empty
    /// means the first reply completes it (single-partition rule).
    pub need: Vec<PartitionId>,
    /// Complete only on a reply from this specific replica (used to
    /// observe a recovered replica's state).
    pub want_replica: Option<NodeId>,
    /// Replicas that already answered (dedup for fan-out counting).
    pub answered: HashSet<NodeId>,
    /// Partitions that answered so far.
    pub parts: HashSet<PartitionId>,
    /// Accepted replies (status-stripped service payloads).
    pub replies: Vec<(NodeId, Bytes)>,
    /// Last (re-)send time.
    pub last_sent: Instant,
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
    last_sent: Instant,
    sends: usize,
}

/// The sans-IO v2 client session machine, one for every client of the
/// protocol: a [`LiveClient`] and the coordination link
/// ([`crate::link::CoordLink`]) each drive one, and it never asks which.
/// It owns seq allocation, window accounting, reply matching (with
/// session echo filtering), out-of-order completion, cumulative-ack
/// tracking and each ring's session lifecycle: open by token, a
/// keep-alive every TTL/3, and on [`ST_UNKNOWN_SESSION`] — answering a
/// request or a keep-alive — a re-open followed by a re-send of that
/// ring's in-flight requests unchanged. No sockets, no clocks beyond the
/// instants the driver passes in — unit-testable in isolation.
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
pub(crate) struct SessionCore {
    /// Replica-assigned session ids by home ring; a ring is absent until
    /// its open completes.
    pub sessions: HashMap<RingId, u64>,
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
    next_keepalive: Option<Instant>,
    /// Frames for the driver to route, each with how often it went
    /// before (drivers rotate replicas by it).
    pub outbox: Vec<(usize, ClientMsg)>,
    /// Finished requests not yet taken by the caller.
    ready: VecDeque<Completion>,
    /// Requests that failed with a server error, by seq.
    failed: HashMap<u64, (ErrorCode, String)>,
}

impl SessionCore {
    pub(crate) fn new(wanted_window: usize, ttl: Duration) -> Self {
        SessionCore {
            sessions: HashMap::new(),
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
    pub(crate) fn session_for(&self, group: RingId) -> u64 {
        self.sessions.get(&group).copied().unwrap_or(0)
    }

    /// Adopts a freshly opened session id for `group`. In-flight requests
    /// (submitted against a lost session of that ring) **keep their
    /// sequence numbers** — callers already hold them as correlation
    /// handles, so renumbering would detach completions from the requests
    /// they answer. The global ack accounting is untouched: every seq
    /// that ever left the in-flight map was marked done when it did, so
    /// the cumulative ack never waits for a seq no session will execute.
    pub(crate) fn adopt_session(&mut self, group: RingId, session: u64) {
        self.sessions.insert(group, session);
    }

    /// True when another request fits in the window.
    pub(crate) fn has_capacity(&self) -> bool {
        self.inflight.len() < self.window.max(1)
    }

    /// Allocates a seq, registers the in-flight entry and queues its
    /// frame — or, while `group` has no session, opens one: the request
    /// goes once the open is answered. The caller checks
    /// [`SessionCore::has_capacity`] first (submitting beyond the window
    /// is allowed but the server may refuse the overhang).
    pub(crate) fn begin(
        &mut self,
        group: RingId,
        cmd: Bytes,
        need: Vec<PartitionId>,
        want_replica: Option<NodeId>,
        now: Instant,
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
    /// none while that ring has no session.
    pub(crate) fn request_frame(&self, seq: u64) -> Option<ClientMsg> {
        let req = self.inflight.get(&seq)?;
        Some(ClientMsg::RequestV2 {
            session: *self.sessions.get(&req.group)?,
            seq: RequestId::new(seq),
            ack: self.acked,
            group: req.group,
            cmd: req.cmd.clone(),
        })
    }

    /// Queues in-flight `seq` again, unchanged, if its ring has a
    /// session.
    fn resend(&mut self, seq: u64, now: Instant) {
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
    pub(crate) fn resend_ring(&mut self, group: RingId, now: Instant) {
        self.resend_where(now, |g, _| g == group);
    }

    /// Queues again, unchanged, everything unanswered for `every`.
    pub(crate) fn retry(&mut self, now: Instant, every: Duration) {
        self.resend_where(now, |_, sent| now.duration_since(sent) >= every);
    }

    /// Queues again, unchanged, the control requests and requests `which`
    /// picks by group and last send.
    fn resend_where(&mut self, now: Instant, which: impl Fn(RingId, Instant) -> bool) {
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
    pub(crate) fn oldest_unanswered(&self) -> Option<Instant> {
        let requests = self.inflight.values().map(|r| r.last_sent);
        requests
            .chain(self.control.values().map(|c| c.last_sent))
            .min()
    }

    /// Opens `group`'s session unless it is open or opening.
    pub(crate) fn open(&mut self, group: RingId, now: Instant) {
        let opening = |c: &Control| c.group == group && matches!(c.ctl, SessionCtl::Open { .. });
        if !self.sessions.contains_key(&group) && !self.control.values().any(opening) {
            let (token, ttl_ms) = (self.next_token, self.ttl.as_millis() as u64);
            self.control_request(group, SessionCtl::Open { token, ttl_ms }, now);
        }
    }

    /// Sends a keep-alive for every open session that has none in flight
    /// once every TTL/3.
    pub(crate) fn tick(&mut self, now: Instant) {
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

    fn control_request(&mut self, group: RingId, ctl: SessionCtl, now: Instant) {
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

    fn send_control(&mut self, token: u64, now: Instant) {
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
    fn session_lost(&mut self, group: RingId, session: u64, now: Instant) {
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
    fn on_control(&mut self, token: u64, payload: &Bytes, now: Instant) -> Action {
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
    pub(crate) fn abandon(&mut self, seq: u64) {
        if self.inflight.remove(&seq).is_some() {
            self.mark_done(seq);
        }
    }

    /// Feeds one server frame; returns what the driver should do. `now`
    /// stamps whatever the reply makes the core send.
    pub(crate) fn on_reply(
        &mut self,
        reply: &ClientReply,
        replica_partitions: &HashMap<NodeId, PartitionId>,
        now: Instant,
    ) -> Action {
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
                    ST_OK => self.on_ok(raw, *from_replica, body, replica_partitions),
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

    fn on_ok(
        &mut self,
        seq: u64,
        from: NodeId,
        body: Bytes,
        replica_partitions: &HashMap<NodeId, PartitionId>,
    ) -> Action {
        let Some(req) = self.inflight.get_mut(&seq) else {
            return Action::None; // duplicate after completion
        };
        if !req.answered.insert(from) {
            return Action::None; // duplicate reply from the same replica
        }
        req.replies.push((from, body));
        if let Some(p) = replica_partitions.get(&from) {
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
    pub(crate) fn take_ready(&mut self) -> Option<Completion> {
        self.ready.pop_front()
    }

    /// Takes the completion for one specific seq, if finished.
    pub(crate) fn take_seq(&mut self, seq: u64) -> Option<Completion> {
        let at = self.ready.iter().position(|c| c.seq == seq)?;
        self.ready.remove(at)
    }

    /// The recorded failure for `seq`, if the server rejected it.
    pub(crate) fn take_failure(&mut self, seq: u64) -> Option<(ErrorCode, String)> {
        self.failed.remove(&seq)
    }
}

/// A connected v2 client.
pub struct LiveClient {
    id: ClientId,
    opts: ClientOptions,
    addrs: HashMap<NodeId, SocketAddr>,
    /// Every socket of the client, turned by the caller's thread.
    net: Net<ClientReply, ()>,
    events: Vec<Event<ClientReply, ()>>,
    /// Replies read off the sockets and not yet fed to the core.
    inbox: VecDeque<ClientReply>,
    conns: HashMap<NodeId, ConnId>,
    /// Per-node reconnect backoff: no dial attempts before the marked
    /// instant. Keeps the retry path fast while a node is down — a
    /// blocking dial loop here would throttle reply consumption below
    /// the retry rate and wedge the whole pipeline.
    down_until: HashMap<NodeId, Instant>,
    /// Candidate proposers per multicast group, in preference order.
    route: HashMap<RingId, Vec<NodeId>>,
    /// Partition each server replica belongs to (fan-out completion).
    replica_partitions: HashMap<NodeId, PartitionId>,
    core: SessionCore,
}

impl LiveClient {
    /// Connects to every server, performs the v2 handshake on each, and
    /// prepares (but does not yet open) the exactly-once sessions —
    /// a session opens lazily per multicast group, on the first request
    /// targeting it, through that group's own ordered stream. A client
    /// that only ever touches one partition therefore never opens (or
    /// keeps alive) a session anywhere else.
    ///
    /// Connecting is best-effort per server: a deployment with one node
    /// down still has quorum, so the client comes up as long as *some*
    /// server is reachable (and reconnects to the rest lazily).
    ///
    /// # Errors
    ///
    /// Fails only when no server at all can be reached.
    pub fn connect(
        id: ClientId,
        servers: &[(NodeId, SocketAddr)],
        route: HashMap<RingId, Vec<NodeId>>,
        replica_partitions: HashMap<NodeId, PartitionId>,
        opts: ClientOptions,
    ) -> Result<Self> {
        let core = SessionCore::new(opts.window, opts.session_ttl);
        let mut client = LiveClient {
            id,
            opts,
            addrs: servers.iter().copied().collect(),
            // Not a node's writer: `writer_vectored_frames` counts those.
            net: Net::new("amcast-client-dial".into(), Counter::default())?,
            events: Vec::new(),
            inbox: VecDeque::new(),
            conns: HashMap::new(),
            down_until: HashMap::new(),
            route,
            replica_partitions,
            core,
        };
        let mut reached = 0usize;
        let mut last_err = None;
        let nodes: Vec<NodeId> = client.addrs.keys().copied().collect();
        for node in nodes {
            // Patient initial dial: the deployment may still be binding
            // its listeners.
            match client.open_conn(node, 10) {
                Ok(_) => reached += 1,
                Err(e) => last_err = Some(e),
            }
        }
        if reached == 0 {
            return Err(last_err.unwrap_or(Error::Config("no servers configured".into())));
        }
        Ok(client)
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The session's effective pipeline window right now: the server's
    /// latest `CreditGrant` clamped to the client's wish.
    /// Shrinks while the serving node sheds load and re-expands once its
    /// backlog drains.
    pub fn current_window(&self) -> usize {
        self.core.window
    }

    /// Diagnostics: `(open sessions, in-flight count, lowest in-flight
    /// seq, cumulative ack)`.
    pub fn stats(&self) -> (u64, usize, Option<u64>, u64) {
        (
            self.core.sessions.len() as u64,
            self.core.inflight.len(),
            self.core.inflight.keys().next().copied(),
            self.core.acked,
        )
    }

    /// Dials `node` up to `attempts` times and says hello.
    fn open_conn(&mut self, node: NodeId, attempts: u32) -> Result<ConnId> {
        let addr = self
            .addrs
            .get(&node)
            .copied()
            .ok_or(Error::UnknownNode(node))?;
        if let Some(until) = self.down_until.get(&node) {
            if Instant::now() < *until {
                return Err(Error::Timeout("node in reconnect backoff"));
            }
        }
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..attempts.max(1) {
            let replies = Reader::Frames(|buf| buf.try_next());
            match self.net.connect(addr, replies, Duration::from_millis(250)) {
                Ok(conn) => {
                    let hello = ClientMsg::HelloV2 {
                        client: self.id,
                        features: FEAT_ALL,
                    };
                    self.net.send(conn, &hello);
                    self.conns.insert(node, conn);
                    self.down_until.remove(&node);
                    self.turn(Duration::ZERO);
                    return Ok(conn);
                }
                Err(e) => {
                    last_err = Some(e);
                    if attempt + 1 < attempts {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                }
            }
        }
        // Back off: a dead node must fail *fast* on the retry path (its
        // group mates take the traffic) instead of stalling the pump.
        self.down_until
            .insert(node, Instant::now() + Duration::from_millis(500));
        Err(Error::Io(last_err.expect("looped at least once")))
    }

    /// Re-establishes the connection to `node` (after a server restart).
    ///
    /// # Errors
    ///
    /// Fails if the server cannot be reached.
    pub fn reconnect(&mut self, node: NodeId) -> Result<()> {
        if let Some(conn) = self.conns.remove(&node) {
            self.net.close(conn);
        }
        self.down_until.remove(&node);
        self.open_conn(node, 10).map(|_| ())
    }

    /// One turn of the client's sockets, waiting at most `timeout`.
    fn turn(&mut self, timeout: Duration) {
        self.net.wait(timeout, &mut self.events);
        for event in self.events.drain(..) {
            match event {
                Event::Frame(_, reply) => self.inbox.push_back(reply),
                Event::Closed(conn) => self.conns.retain(|_, c| *c != conn),
                Event::Accepted(..) | Event::LinkDown(_) | Event::Mail(()) => {}
            }
        }
    }

    /// Sends `msg` to `node`, dialling if need be; it has left when this
    /// returns `Ok`. Two tries: the server may have restarted.
    fn send_to(&mut self, node: NodeId, msg: &ClientMsg) -> Result<()> {
        for _ in 0..2 {
            let known = self.conns.get(&node).copied();
            let conn = known.map_or_else(|| self.open_conn(node, 1), Ok)?;
            self.net.send(conn, msg);
            self.turn(Duration::ZERO);
            if self.conns.get(&node) == Some(&conn) {
                return Ok(());
            }
        }
        Err(Error::Timeout("connection closed on send"))
    }

    /// Sends `msg` to a proposer of `group`; `prefer` rotates through the
    /// candidate list so retries fail over. Returns the node that took it.
    fn send_routed(&mut self, group: RingId, prefer: usize, msg: &ClientMsg) -> Result<NodeId> {
        let candidates = self.route.get(&group).cloned().unwrap_or_default();
        let mut last_err = Error::Config(format!("no proposer routed for group {group}"));
        for i in 0..candidates.len() {
            let node = candidates[(prefer + i) % candidates.len()];
            match self.send_to(node, msg) {
                Ok(()) => return Ok(node),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Routes what the core queued: each frame to a proposer of its
    /// group, rotated by how often it went before. The last routing
    /// failure is returned; the frames behind it still go.
    fn flush(&mut self) -> Result<()> {
        let mut frames = std::mem::take(&mut self.core.outbox);
        let mut sent = Ok(());
        for (tries, frame) in frames.drain(..) {
            if let ClientMsg::RequestV2 { group, .. } = &frame {
                if let Err(e) = self.send_routed(*group, tries, &frame) {
                    sent = Err(e);
                }
            }
        }
        self.core.outbox = frames;
        sent
    }

    fn resend_to(&mut self, seq: u64, node: NodeId) {
        let (Some(req), Some(frame)) = (self.core.inflight.get(&seq), self.core.request_frame(seq))
        else {
            return;
        };
        // Prefer the redirect target for this group from now on.
        if let Some(candidates) = self.route.get_mut(&req.group) {
            if let Some(at) = candidates.iter().position(|n| *n == node) {
                candidates.swap(0, at);
            }
        }
        if self.send_to(node, &frame).is_ok() {
            if let Some(req) = self.core.inflight.get_mut(&seq) {
                req.last_sent = Instant::now();
                req.route_pos = 0;
            }
        }
    }

    /// One pump step: unless replies are already waiting, a turn of up
    /// to `wait`; then greedily drains every reply read (replies arrive
    /// in redundant bursts — one per replica per retry — and consumption
    /// must always outpace production or the pipeline wedges behind a
    /// growing backlog), feeds the core, performs the resulting actions,
    /// fires due retries and keep-alives, and routes what the core
    /// queued — a request that waited for its session's open goes as
    /// soon as the open's answer is read.
    fn pump(&mut self, wait: Duration) {
        if self.inbox.is_empty() {
            self.turn(wait);
        }
        let now = Instant::now();
        while let Some(reply) = self.inbox.pop_front() {
            if let Action::Resend(seq, to) =
                self.core.on_reply(&reply, &self.replica_partitions, now)
            {
                self.resend_to(seq, to);
            }
        }
        self.core.retry(now, self.opts.retry_every);
        self.core.tick(now);
        let _ = self.flush();
    }

    fn submit_with(
        &mut self,
        group: RingId,
        cmd: Bytes,
        need: Vec<PartitionId>,
        want_replica: Option<NodeId>,
    ) -> Result<u64> {
        let deadline = Instant::now() + self.opts.timeout;
        // Respect the credit window: drain completions until a slot
        // frees (replies both free slots and advance the ack).
        while !self.core.has_capacity() {
            if Instant::now() >= deadline {
                return Err(Error::Timeout("client window full"));
            }
            self.pump(Duration::from_millis(10));
        }
        let seq = self
            .core
            .begin(group, cmd, need, want_replica, Instant::now());
        self.flush()?;
        Ok(seq)
    }

    /// Fire-and-forget submit for pipelined callers: sends the request
    /// and returns its sequence number without waiting. Completions
    /// surface through [`LiveClient::poll_reply`], possibly out of
    /// submission order. Blocks only while the credit window is full.
    ///
    /// # Errors
    ///
    /// Fails if no proposer for `group` is reachable or the window stays
    /// full past the configured timeout.
    pub fn submit(&mut self, group: RingId, cmd: Bytes) -> Result<RequestId> {
        self.submit_with(group, cmd, Vec::new(), None)
            .map(RequestId::new)
    }

    /// The next completed request, if one finishes within `timeout`.
    /// Returns the completing reply `(seq, replica, payload)`. Unlike
    /// protocol v1 there are no duplicate completions to filter: each
    /// submitted request completes exactly once.
    pub fn poll_reply(&mut self, timeout: Duration) -> Option<(RequestId, NodeId, Bytes)> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(c) = self.core.take_ready() {
                let (replica, payload) = c.replies.into_iter().next()?;
                return Some((RequestId::new(c.seq), replica, payload));
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.pump((deadline - now).min(Duration::from_millis(50)));
        }
    }

    /// Blocks until `seq` finishes (or the deadline passes). A timed-out
    /// request is abandoned: the cumulative ack advances past it, which
    /// also marks any late delivery stale server-side (at-most-once for
    /// timed-out requests).
    fn wait_for(&mut self, seq: u64, context: &'static str) -> Result<Completion> {
        let deadline = Instant::now() + self.opts.timeout;
        loop {
            if let Some(c) = self.core.take_seq(seq) {
                return Ok(c);
            }
            if let Some((code, detail)) = self.core.take_failure(seq) {
                return Err(Error::Config(format!(
                    "server rejected request ({code:?}): {detail}"
                )));
            }
            let now = Instant::now();
            if now >= deadline {
                self.core.abandon(seq);
                return Err(Error::Timeout(context));
            }
            self.pump((deadline - now).min(Duration::from_millis(50)));
        }
    }

    /// Submits `cmd` to `group` and waits for the first reply. Safe for
    /// non-idempotent commands: retries and failover re-sends are
    /// deduplicated by the replicated session table.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Timeout`] when no replica answers in time.
    pub fn request(&mut self, group: RingId, cmd: Bytes) -> Result<Bytes> {
        let seq = self.submit_with(group, cmd, Vec::new(), None)?;
        let c = self.wait_for(seq, "client request")?;
        Ok(c.replies.into_iter().next().expect("completed").1)
    }

    /// Submits `cmd` to `group` and waits for a reply from one *specific*
    /// replica — used to observe that a given replica (say, one that just
    /// recovered) executes and answers with up-to-date state.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Timeout`] when `replica` does not answer in
    /// time.
    pub fn request_from(&mut self, group: RingId, cmd: Bytes, replica: NodeId) -> Result<Bytes> {
        let seq = self.submit_with(group, cmd, Vec::new(), Some(replica))?;
        let c = self.wait_for(seq, "client request (specific replica)")?;
        let payload = c
            .replies
            .into_iter()
            .find(|(n, _)| *n == replica)
            .map(|(_, p)| p)
            .expect("completed on the wanted replica");
        Ok(payload)
    }

    /// Submits `cmd` to `group` and waits until every partition in
    /// `partitions` answered (pass an empty slice for "any one reply") —
    /// the completion rule of the paper's multi-partition scans (§7.2).
    /// Returns `(replica, payload)` per answering replica.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Timeout`] if the required partitions do not
    /// all answer in time.
    pub fn request_fanout(
        &mut self,
        group: RingId,
        cmd: Bytes,
        partitions: &[PartitionId],
    ) -> Result<Vec<(NodeId, Bytes)>> {
        let seq = self.submit_with(group, cmd, partitions.to_vec(), None)?;
        let c = self.wait_for(seq, "client request")?;
        Ok(c.replies)
    }
}

/// Fetches one node's metrics snapshot over the client protocol: dials
/// `addr`, sends a [`ClientMsg::StatsRequest`], and waits for the
/// matching [`ClientReply::Stats`]. No hello, no session — the stats
/// plane is a read-only side channel any connection may use.
///
/// # Errors
///
/// Fails if the node is unreachable or does not answer within `timeout`.
pub fn fetch_stats(addr: SocketAddr, timeout: Duration) -> Result<common::obs::ObsSnapshot> {
    let token = 0x57A75;
    crate::net::call(
        addr,
        &ClientMsg::StatsRequest { token },
        timeout,
        |reply| match reply {
            ClientReply::Stats { token: t, snapshot } if t == token => Some(snapshot),
            _ => None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiring::session::frame_ok;

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
            Instant::now(),
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
        let action = core.on_reply(&resp(3, 1, 0, b"stale"), &parts(), Instant::now());
        assert_eq!(action, Action::None);
        assert!(core.take_ready().is_none(), "straggler must not complete");
        assert!(core.inflight.contains_key(&1), "request still in flight");

        // The genuine reply (session echo matches) completes it.
        let action = core.on_reply(&resp(7, 1, 0, b"real"), &parts(), Instant::now());
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
        core.on_reply(&resp(1, s3, 0, b"c"), &parts(), Instant::now());
        core.on_reply(&resp(1, s2, 0, b"b"), &parts(), Instant::now());
        assert_eq!(core.take_ready().unwrap().seq, s3);
        assert_eq!(core.take_ready().unwrap().seq, s2);
        assert_eq!(core.acked, 0, "ack waits for the contiguous prefix");
        core.on_reply(&resp(1, s1, 0, b"a"), &parts(), Instant::now());
        assert_eq!(core.acked, 3, "ack jumps over the out-of-order window");
    }

    #[test]
    fn duplicate_replies_complete_once() {
        let mut core = SessionCore::new(8, TTL);
        core.adopt_session(RingId::new(0), 1);
        let seq = begin(&mut core, 0);
        assert_eq!(
            core.on_reply(&resp(1, seq, 0, b"x"), &parts(), Instant::now()),
            Action::Completed(seq)
        );
        // Redundant replica answers after completion: dropped.
        assert_eq!(
            core.on_reply(&resp(1, seq, 1, b"x"), &parts(), Instant::now()),
            Action::None
        );
        assert!(core.take_ready().is_some());
        assert!(core.take_ready().is_none());
    }

    #[test]
    fn fanout_completes_when_every_partition_answered() {
        let mut core = SessionCore::new(8, TTL);
        core.adopt_session(RingId::new(2), 1);
        let seq = core.begin(
            RingId::new(2),
            Bytes::from_static(b"scan"),
            vec![PartitionId::new(0), PartitionId::new(1)],
            None,
            Instant::now(),
        );
        assert_eq!(
            core.on_reply(&resp(1, seq, 0, b"p0"), &parts(), Instant::now()),
            Action::None
        );
        // Second replica of the same partition does not finish the scan.
        assert_eq!(
            core.on_reply(&resp(1, seq, 1, b"p0"), &parts(), Instant::now()),
            Action::None
        );
        assert_eq!(
            core.on_reply(&resp(1, seq, 2, b"p1"), &parts(), Instant::now()),
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
        core.on_reply(
            &ClientReply::CreditGrant { window: 2 },
            &parts(),
            Instant::now(),
        );
        assert_eq!(core.window, 2);
        begin(&mut core, 0);
        begin(&mut core, 0);
        assert!(!core.has_capacity());
        // A grant beyond the client's wish is clamped.
        core.on_reply(
            &ClientReply::CreditGrant { window: 1000 },
            &parts(),
            Instant::now(),
        );
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
        core.on_reply(&resp(5, s2, 0, b"done"), &parts(), Instant::now());
        let lost = ClientReply::ResponseV2 {
            session: 5,
            seq: RequestId::new(s1),
            from_replica: NodeId::new(0),
            payload: Bytes::from_static(&[ST_UNKNOWN_SESSION]),
        };
        assert_eq!(
            core.on_reply(&lost, &parts(), Instant::now()),
            Action::SessionLost(RingId::new(0))
        );
        // Re-open: in-flight requests KEEP their seqs — callers hold
        // them as correlation handles.
        core.adopt_session(RingId::new(0), 9);
        assert_eq!(core.session_for(RingId::new(0)), 9);
        assert!(core.inflight.contains_key(&s1) && core.inflight.contains_key(&s3));
        assert_eq!(
            core.on_reply(&resp(9, s1, 0, b"again"), &parts(), Instant::now()),
            Action::Completed(s1)
        );
        // The already-finished s2 does not wedge the cumulative ack.
        assert_eq!(
            core.on_reply(&resp(9, s3, 0, b"tail"), &parts(), Instant::now()),
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
        core.on_reply(&resp(1, s2, 0, b"b"), &parts(), Instant::now());
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
            &parts(),
            Instant::now(),
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
        let (ring, t0) = (RingId::new(2), Instant::now());
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
        assert_eq!(
            core.on_reply(&opened(token, 7), &parts(), t0),
            Action::Opened(ring)
        );
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
        assert_eq!(
            core.on_reply(&lost, &parts(), t1),
            Action::SessionLost(ring)
        );
        assert_eq!(core.session_for(ring), 0);
        let reopen = sent(&mut core);
        assert_eq!(reopen.len(), 1, "only the re-open leaves: {reopen:?}");
        assert_eq!(reopen[0].0, SESSION_CTL);
        core.on_reply(&opened(reopen[0].1, 9), &parts(), t1);
        assert_eq!(sent(&mut core), [(9, seq, cmd)], "re-sent unchanged");
        assert_eq!(
            core.on_reply(&resp(9, seq, 0, b"done"), &parts(), t1),
            Action::Completed(seq)
        );
    }
}
