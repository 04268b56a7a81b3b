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
//! The reply-matching and window logic lives in the sans-IO
//! `SessionCore`; [`LiveClient`] wraps it with sockets, retries,
//! keep-alives and blocking conveniences ([`LiveClient::request`],
//! [`LiveClient::request_fanout`], [`LiveClient::request_from`]).
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
use multiring::session::{
    parse_open_reply, parse_reply, SessionCtl, ST_OK, ST_STALE, ST_UNKNOWN_SESSION,
    ST_WINDOW_EXCEEDED,
};

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
    /// (expired/evicted); re-open it and re-submit its in-flight
    /// requests. Sessions on other rings are unaffected.
    SessionLost(RingId),
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
    /// Rotates through the group's proposer candidates on re-sends.
    pub route_pos: usize,
}

/// The sans-IO session state machine: seq allocation, window accounting,
/// reply matching (with session echo filtering), out-of-order completion
/// and cumulative-ack tracking. No sockets, no clocks beyond the
/// instants the driver passes in — unit-testable in isolation.
///
/// Sessions are **per home ring**: each multicast group the client talks
/// to gets its own replica-assigned session id, opened through that
/// ring's own ordered stream — so a single-partition command never drags
/// the global ring into its session bookkeeping. One global seq space
/// spans every ring (the cumulative ack only ever covers finished seqs,
/// so it stays safe to report to any of them).
pub(crate) struct SessionCore {
    /// Replica-assigned session ids by home ring; a ring is absent until
    /// its open completes.
    pub sessions: HashMap<RingId, u64>,
    /// Effective window (server grant, capped by the client's wish).
    pub window: usize,
    /// The client's wish (grants are clamped to it).
    wanted_window: usize,
    /// Next per-session sequence number to allocate (starts at 1).
    next_seq: u64,
    /// Highest seq such that all seqs ≤ it completed (reported to
    /// replicas as the cache-prune ack).
    pub acked: u64,
    /// Completed seqs above `acked` (out-of-order completions).
    done_above_ack: BTreeSet<u64>,
    /// In-flight requests by seq.
    pub inflight: BTreeMap<u64, Inflight>,
    /// Finished requests not yet taken by the caller.
    ready: VecDeque<Completion>,
    /// Requests that failed with a server error, by seq.
    failed: HashMap<u64, (ErrorCode, String)>,
}

impl SessionCore {
    pub(crate) fn new(wanted_window: usize) -> Self {
        SessionCore {
            sessions: HashMap::new(),
            window: wanted_window.max(1),
            wanted_window: wanted_window.max(1),
            next_seq: 1,
            acked: 0,
            done_above_ack: BTreeSet::new(),
            inflight: BTreeMap::new(),
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

    /// Allocates a seq and registers the in-flight entry. The caller
    /// checks [`SessionCore::has_capacity`] first (submitting beyond the
    /// window is allowed but the server may refuse the overhang).
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
        seq
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

    /// Feeds one server frame; returns what the driver should do.
    pub(crate) fn on_reply(
        &mut self,
        reply: &ClientReply,
        replica_partitions: &HashMap<NodeId, PartitionId>,
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
                    // Control replies are handled by the driver's open
                    // path.
                    return Action::None;
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
                    ST_UNKNOWN_SESSION => Action::SessionLost(group),
                    ST_WINDOW_EXCEEDED | ST_STALE => Action::None,
                    _ => Action::None,
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

    /// In-flight seqs due for a re-send.
    pub(crate) fn due_for_retry(&self, now: Instant, every: Duration) -> Vec<u64> {
        self.inflight
            .iter()
            .filter(|(_, r)| now.duration_since(r.last_sent) >= every)
            .map(|(seq, _)| *seq)
            .collect()
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
    /// Correlation tokens for session-control commands.
    next_token: u64,
    last_keepalive: Instant,
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
        let window = opts.window;
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
            core: SessionCore::new(window),
            next_token: 0,
            last_keepalive: Instant::now(),
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

    /// The open session id for `group` (0 before the first request
    /// targeting that group).
    pub fn session(&self, group: RingId) -> u64 {
        self.core.session_for(group)
    }

    /// Every `(home ring, session id)` pair currently open.
    pub fn sessions(&self) -> Vec<(RingId, u64)> {
        let mut v: Vec<(RingId, u64)> = self.core.sessions.iter().map(|(r, s)| (*r, *s)).collect();
        v.sort_unstable_by_key(|(r, _)| *r);
        v
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

    fn request_frame(&self, seq: u64, group: RingId, cmd: Bytes) -> ClientMsg {
        ClientMsg::RequestV2 {
            session: self.core.session_for(group),
            seq: RequestId::new(seq),
            ack: self.core.acked,
            group,
            cmd,
        }
    }

    /// Ensures the exactly-once session homed on `group` is open, opening
    /// (or re-opening after an expiry) it through that ring's own ordered
    /// stream if not. Other rings' sessions are untouched.
    fn ensure_session(&mut self, group: RingId, deadline: Instant) -> Result<()> {
        if self.core.session_for(group) != 0 {
            return Ok(());
        }
        self.next_token += 1;
        let token = self.next_token;
        let open = SessionCtl::Open {
            token,
            ttl_ms: self.opts.session_ttl.as_millis() as u64,
        }
        .to_bytes();
        let msg = ClientMsg::RequestV2 {
            session: SESSION_CTL,
            seq: RequestId::new(token),
            ack: 0,
            group,
            cmd: open,
        };
        let mut prefer = 0usize;
        self.send_routed(group, prefer, &msg)?;
        let mut next_retry = Instant::now() + self.opts.retry_every;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(Error::Timeout("session open"));
            }
            if now >= next_retry {
                prefer += 1;
                self.send_routed(group, prefer, &msg)?;
                next_retry = now + self.opts.retry_every;
            }
            if self.inbox.is_empty() {
                let wait = deadline
                    .min(next_retry)
                    .saturating_duration_since(now)
                    .min(Duration::from_millis(50));
                self.turn(wait);
            }
            while let Some(reply) = self.inbox.pop_front() {
                match reply {
                    ClientReply::ResponseV2 {
                        session: SESSION_CTL,
                        seq,
                        payload,
                        ..
                    } if seq.raw() == token => {
                        if let Some(id) = parse_open_reply(&payload) {
                            self.core.adopt_session(group, id);
                            self.last_keepalive = Instant::now();
                            // Re-send this ring's surviving in-flight
                            // requests under the new session (failover
                            // re-open path).
                            let seqs: Vec<u64> = self
                                .core
                                .inflight
                                .iter()
                                .filter(|(_, r)| r.group == group)
                                .map(|(s, _)| *s)
                                .collect();
                            for seq in seqs {
                                let _ = self.resend(seq);
                            }
                            return Ok(());
                        }
                    }
                    other => {
                        let _ = self.core.on_reply(&other, &self.replica_partitions);
                    }
                }
            }
        }
    }

    fn resend(&mut self, seq: u64) -> Result<()> {
        let Some(req) = self.core.inflight.get(&seq) else {
            return Ok(());
        };
        let (group, cmd, pos) = (req.group, req.cmd.clone(), req.route_pos);
        let frame = self.request_frame(seq, group, cmd);
        let taken = self.send_routed(group, pos, &frame);
        if let Some(req) = self.core.inflight.get_mut(&seq) {
            req.last_sent = Instant::now();
            req.route_pos = pos.wrapping_add(1);
        }
        taken.map(|_| ())
    }

    fn resend_to(&mut self, seq: u64, node: NodeId) {
        let Some(req) = self.core.inflight.get(&seq) else {
            return;
        };
        let frame = self.request_frame(seq, req.group, req.cmd.clone());
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
    /// and fires due retries and keep-alives.
    fn pump(&mut self, wait: Duration) -> Result<()> {
        if self.inbox.is_empty() {
            self.turn(wait);
        }
        while let Some(reply) = self.inbox.pop_front() {
            match self.core.on_reply(&reply, &self.replica_partitions) {
                Action::Resend(seq, to) => self.resend_to(seq, to),
                Action::SessionLost(group) => {
                    // That ring's session expired or was evicted: open a
                    // new one; ensure_session re-sends the ring's
                    // in-flight requests (same seqs) under it.
                    self.core.sessions.remove(&group);
                    let deadline = Instant::now() + self.opts.timeout;
                    self.ensure_session(group, deadline)?;
                }
                Action::None | Action::Completed(_) | Action::Failed(..) => {}
            }
        }
        let now = Instant::now();
        for seq in self.core.due_for_retry(now, self.opts.retry_every) {
            let _ = self.resend(seq);
        }
        if !self.core.sessions.is_empty()
            && now.duration_since(self.last_keepalive) >= self.opts.session_ttl / 3
        {
            self.last_keepalive = now;
            let open: Vec<(RingId, u64)> = self
                .core
                .sessions
                .iter()
                .filter(|(_, s)| **s != 0)
                .map(|(r, s)| (*r, *s))
                .collect();
            for (group, session) in open {
                self.next_token += 1;
                let msg = ClientMsg::RequestV2 {
                    session: SESSION_CTL,
                    seq: RequestId::new(self.next_token),
                    ack: 0,
                    group,
                    cmd: SessionCtl::KeepAlive { session }.to_bytes(),
                };
                let _ = self.send_routed(group, 0, &msg);
            }
        }
        Ok(())
    }

    fn submit_with(
        &mut self,
        group: RingId,
        cmd: Bytes,
        need: Vec<PartitionId>,
        want_replica: Option<NodeId>,
    ) -> Result<u64> {
        let deadline = Instant::now() + self.opts.timeout;
        self.ensure_session(group, deadline)?;
        // Respect the credit window: drain completions until a slot
        // frees (replies both free slots and advance the ack).
        while !self.core.has_capacity() {
            if Instant::now() >= deadline {
                return Err(Error::Timeout("client window full"));
            }
            self.pump(Duration::from_millis(10))?;
        }
        let seq = self
            .core
            .begin(group, cmd, need, want_replica, Instant::now());
        self.resend(seq)?;
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
            let wait = (deadline - now).min(Duration::from_millis(50));
            if self.pump(wait).is_err() {
                return None;
            }
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
            let wait = (deadline - now).min(Duration::from_millis(50));
            self.pump(wait)?;
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
        let mut core = SessionCore::new(8);
        core.adopt_session(RingId::new(0), 7); // this invocation's session
        let seq = begin(&mut core, 0);
        assert_eq!(seq, 1, "fresh sessions start their seq space at 1");

        // A reply to the previous invocation's seq 1 (session 3) arrives
        // late — same client id, same seq number.
        let action = core.on_reply(&resp(3, 1, 0, b"stale"), &parts());
        assert_eq!(action, Action::None);
        assert!(core.take_ready().is_none(), "straggler must not complete");
        assert!(core.inflight.contains_key(&1), "request still in flight");

        // The genuine reply (session echo matches) completes it.
        let action = core.on_reply(&resp(7, 1, 0, b"real"), &parts());
        assert_eq!(action, Action::Completed(1));
        let c = core.take_ready().expect("completed");
        assert_eq!(c.replies[0].1, Bytes::from_static(b"real"));
    }

    #[test]
    fn completions_surface_out_of_order_and_ack_is_cumulative() {
        let mut core = SessionCore::new(8);
        core.adopt_session(RingId::new(0), 1);
        let s1 = begin(&mut core, 0);
        let s2 = begin(&mut core, 0);
        let s3 = begin(&mut core, 0);
        core.on_reply(&resp(1, s3, 0, b"c"), &parts());
        core.on_reply(&resp(1, s2, 0, b"b"), &parts());
        assert_eq!(core.take_ready().unwrap().seq, s3);
        assert_eq!(core.take_ready().unwrap().seq, s2);
        assert_eq!(core.acked, 0, "ack waits for the contiguous prefix");
        core.on_reply(&resp(1, s1, 0, b"a"), &parts());
        assert_eq!(core.acked, 3, "ack jumps over the out-of-order window");
    }

    #[test]
    fn duplicate_replies_complete_once() {
        let mut core = SessionCore::new(8);
        core.adopt_session(RingId::new(0), 1);
        let seq = begin(&mut core, 0);
        assert_eq!(
            core.on_reply(&resp(1, seq, 0, b"x"), &parts()),
            Action::Completed(seq)
        );
        // Redundant replica answers after completion: dropped.
        assert_eq!(
            core.on_reply(&resp(1, seq, 1, b"x"), &parts()),
            Action::None
        );
        assert!(core.take_ready().is_some());
        assert!(core.take_ready().is_none());
    }

    #[test]
    fn fanout_completes_when_every_partition_answered() {
        let mut core = SessionCore::new(8);
        core.adopt_session(RingId::new(2), 1);
        let seq = core.begin(
            RingId::new(2),
            Bytes::from_static(b"scan"),
            vec![PartitionId::new(0), PartitionId::new(1)],
            None,
            Instant::now(),
        );
        assert_eq!(
            core.on_reply(&resp(1, seq, 0, b"p0"), &parts()),
            Action::None
        );
        // Second replica of the same partition does not finish the scan.
        assert_eq!(
            core.on_reply(&resp(1, seq, 1, b"p0"), &parts()),
            Action::None
        );
        assert_eq!(
            core.on_reply(&resp(1, seq, 2, b"p1"), &parts()),
            Action::Completed(seq)
        );
        let c = core.take_ready().unwrap();
        assert_eq!(c.replies.len(), 3, "every counted reply is kept");
    }

    #[test]
    fn window_capacity_and_credit_grants() {
        let mut core = SessionCore::new(4);
        core.adopt_session(RingId::new(0), 1);
        // The server narrows the window to 2.
        core.on_reply(&ClientReply::CreditGrant { window: 2 }, &parts());
        assert_eq!(core.window, 2);
        begin(&mut core, 0);
        begin(&mut core, 0);
        assert!(!core.has_capacity());
        // A grant beyond the client's wish is clamped.
        core.on_reply(&ClientReply::CreditGrant { window: 1000 }, &parts());
        assert_eq!(core.window, 4);
    }

    #[test]
    fn unknown_session_reply_signals_reopen_and_resubmission() {
        let mut core = SessionCore::new(8);
        core.adopt_session(RingId::new(0), 5);
        let s1 = begin(&mut core, 0);
        let s2 = begin(&mut core, 0);
        let s3 = begin(&mut core, 0);
        // s2 completes before the session is lost.
        core.on_reply(&resp(5, s2, 0, b"done"), &parts());
        let lost = ClientReply::ResponseV2 {
            session: 5,
            seq: RequestId::new(s1),
            from_replica: NodeId::new(0),
            payload: Bytes::from_static(&[ST_UNKNOWN_SESSION]),
        };
        assert_eq!(
            core.on_reply(&lost, &parts()),
            Action::SessionLost(RingId::new(0))
        );
        // Re-open: in-flight requests KEEP their seqs — callers hold
        // them as correlation handles.
        core.adopt_session(RingId::new(0), 9);
        assert_eq!(core.session_for(RingId::new(0)), 9);
        assert!(core.inflight.contains_key(&s1) && core.inflight.contains_key(&s3));
        assert_eq!(
            core.on_reply(&resp(9, s1, 0, b"again"), &parts()),
            Action::Completed(s1)
        );
        // The already-finished s2 does not wedge the cumulative ack.
        assert_eq!(
            core.on_reply(&resp(9, s3, 0, b"tail"), &parts()),
            Action::Completed(s3)
        );
        assert_eq!(core.acked, s3);
    }

    #[test]
    fn abandoned_requests_unblock_the_cumulative_ack() {
        let mut core = SessionCore::new(8);
        core.adopt_session(RingId::new(0), 1);
        let s1 = begin(&mut core, 0);
        let s2 = begin(&mut core, 0);
        core.on_reply(&resp(1, s2, 0, b"b"), &parts());
        assert_eq!(core.acked, 0);
        core.abandon(s1); // caller timed out on s1
        assert_eq!(core.acked, 2, "ack advances past the abandoned seq");
    }

    #[test]
    fn redirect_targets_the_named_node() {
        let mut core = SessionCore::new(8);
        core.adopt_session(RingId::new(3), 1);
        let seq = begin(&mut core, 3);
        let action = core.on_reply(
            &ClientReply::Redirect {
                seq: RequestId::new(seq),
                group: RingId::new(3),
                to: NodeId::new(2),
            },
            &parts(),
        );
        assert_eq!(action, Action::Resend(seq, NodeId::new(2)));
    }
}
