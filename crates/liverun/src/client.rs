//! The live network client: protocol v2, pipelined, exactly-once.
//!
//! A [`LiveClient`] opens framed-TCP connections to every serving node
//! (replicas answer clients *directly*, like the paper's UDP responses —
//! so the client must be reachable from any replica that may execute its
//! commands), performs the v2 handshake on each, and runs every command
//! under one replicated **session**:
//!
//! * one replica per partition — the one that decides first — answers a
//!   command's first execution, so a request normally gets one reply, or
//!   one per addressed partition; a request that replica leaves
//!   unanswered (it crashed, or this client is not connected to it) is
//!   re-sent after [`ClientOptions::retry_every`], and every replica
//!   answers the re-send;
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
//! session open, keep-alive and re-open — is the sans-IO
//! [`multiring::client::SessionCore`], which the coordination link
//! ([`crate::link`]) and the simulator's clients drive too;
//! [`LiveClient`] wraps it with sockets, a clock, routing, retries and
//! blocking conveniences ([`LiveClient::request`], [`LiveClient::request_fanout`],
//! [`LiveClient::request_from`]).
//!
//! A client starts no thread: its sockets live in a `net::Net` turned on
//! the caller's thread, which feeds each reply it reads to the core.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use bytes::Bytes;
use common::error::{Error, Result};
use common::ids::{ClientId, NodeId, PartitionId, RequestId, RingId};
use common::obs::Counter;
use common::transport::WallClock;
use common::wire::client::{ClientMsg, ClientReply, FEAT_ALL};
pub use multiring::client::Completion;
use multiring::client::{Action, SessionCore};

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
    /// Stamps the core's sends on its time axis.
    clock: WallClock,
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
        let mut core = SessionCore::new(opts.window, opts.session_ttl);
        core.replica_partitions = replica_partitions;
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
            clock: WallClock::start(),
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
            let replies: Reader<ClientReply> = |buf| buf.try_next();
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
    /// group, rotated by how often it went before — a
    /// [`ClientMsg::RequestHere`] to the replica whose answer it wants,
    /// while that replica takes it. The last routing failure is
    /// returned; the frames behind it still go.
    fn flush(&mut self) -> Result<()> {
        let mut frames = std::mem::take(&mut self.core.outbox);
        let mut sent = Ok(());
        for (tries, frame) in frames.drain(..) {
            let group = match &frame {
                ClientMsg::RequestHere { seq, group, .. } => {
                    let want = (self.core.inflight.get(&seq.raw())).and_then(|r| r.want_replica);
                    if want.is_some_and(|node| self.send_to(node, &frame).is_ok()) {
                        continue;
                    }
                    *group
                }
                ClientMsg::RequestV2 { group, .. } => *group,
                _ => continue,
            };
            if let Err(e) = self.send_routed(group, tries, &frame) {
                sent = Err(e);
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
                req.last_sent = self.clock.now();
                req.route_pos = 0;
            }
        }
    }

    /// One pump step: unless replies are already waiting, a turn of up
    /// to `wait`; then greedily drains every reply read (one per
    /// answering partition, and after a retry one per replica —
    /// consumption must always outpace production or the pipeline wedges
    /// behind a growing backlog), feeds the core, performs the resulting actions,
    /// fires due retries and keep-alives, and routes what the core
    /// queued — a request that waited for its session's open goes as
    /// soon as the open's answer is read.
    fn pump(&mut self, wait: Duration) {
        if self.inbox.is_empty() {
            self.turn(wait);
        }
        let now = self.clock.now();
        while let Some(reply) = self.inbox.pop_front() {
            if let Action::Resend(seq, to) = self.core.on_reply(&reply, now) {
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
            .begin(group, cmd, need, want_replica, self.clock.now());
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
    /// Returns the completing reply `(seq, replica, payload)`: for a
    /// single-partition request the one reply its partition sends. Unlike
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

    /// Submits `cmd` to `group` and waits for its reply — normally the
    /// only one, from the replica that decides first. Safe for
    /// non-idempotent commands: retries and failover re-sends are
    /// deduplicated by the replicated session table, and every replica
    /// answers them.
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
    /// recovered) executes and answers with up-to-date state. The request
    /// goes to `replica` as a [`ClientMsg::RequestHere`], so it answers
    /// the first execution whichever replica of its partition answers
    /// for the others.
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
    /// Returns `(replica, payload)` per answering replica: normally one
    /// per partition, more when a retry let every replica answer.
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
