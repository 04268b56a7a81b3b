//! The coordination client as a sans-IO link.
//!
//! [`CoordLink`] is everything a client of an `amcoordd` ensemble keeps
//! between frames, and nothing else: no socket, no thread, no lock. What
//! goes in is reply frames ([`CoordLink::on_reply`]), "the connection to
//! this replica closed" ([`CoordLink::on_closed`]) and the clock
//! ([`CoordLink::tick`]); what comes out is the frames to send
//! ([`CoordLink::take_outbox`]) and the replica to send them to
//! ([`CoordLink::replica`]), plus a replica to hang up on after a
//! failover ([`CoordLink::take_hangup`]).
//!
//! **The link is a protocol-v2 client** ([`common::wire::client`]), like
//! any data client: it says `HelloV2` on every connection, opens an
//! exactly-once session on [`COORD_RING`] with [`SessionCtl::Open`],
//! keeps it alive every third of its TTL with [`SessionCtl::KeepAlive`],
//! and sends every [`CoordOp`] as a `RequestV2` under that session, from
//! one sequence space with a cumulative ack. The ensemble's session
//! table answers a re-sent `(session, seq)` from its reply cache, so a
//! write in flight at a failover is re-sent unchanged and applied once.
//! Its state:
//!
//! * **the cache** — configuration reads (rings, subscribers, partitions,
//!   metadata) are served from a local mirror fed by the replies that
//!   carry them and by the watch: on every connection the link sends a
//!   [`CoordOp::WatchAll`] outside any session, and the replica answers
//!   it with the events of every command it applies;
//! * **the pending table** — everything asked and not yet answered, by
//!   sequence number;
//! * **the session**, with the ephemerals registered under it
//!   (re-registered if the session is ever lost and reopened);
//! * **replica rotation** — a replica whose connection closes, or that
//!   leaves a request unanswered for [`CoordClientOptions::timeout`], is
//!   abandoned for the next one.
//!
//! **A call is a poll.** [`CoordLink::poll`] answers a cache hit at once.
//! Otherwise the first call queues the operation and returns
//! [`Poll::Pending`]; an identical call while it is in flight queues
//! nothing; the first identical call after the reply lands gets that reply,
//! once. An event loop can therefore ask on every turn — a ring node
//! re-reporting a failure on each liveness tick sends one request — and
//! never waits.
//!
//! **A disconnect keeps the cache.** Failing over re-arms the watch on
//! the next replica, re-sends what is pending and re-fetches every cached
//! entry, so the cache is refreshed without waiting for some read to
//! miss; until the answers land it keeps serving what it had (epochs
//! fence a stale ring config).
//!
//! [`LinkCoord`] makes a link a [`Coord`] backend. It drives the link
//! through a caller's-thread [`Driver`] until an event loop takes it over
//! ([`LinkCoord::hand_over`]), after which calls only poll. The drivers
//! live in `liverun`, next to the sockets.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::task::Poll;
use std::time::{Duration, Instant, SystemTime};

use bytes::Bytes;
use common::error::{Error, Result};
use common::ids::{ClientId, NodeId, RequestId, RingId, SessionId};
use common::value::{NO_SESSION, SESSION_CTL};
use common::wire::client::{
    parse_open_reply, parse_reply, ClientMsg, ClientReply, SessionCtl, FEAT_ALL, ST_OK,
    ST_UNKNOWN_SESSION,
};
use common::wire::coord::{
    decode_reply, CoordEvent, CoordOk, CoordOp, ElectOutcome, PartitionWire, RingConfigWire,
};
use common::wire::Wire;
use parking_lot::Mutex;

use crate::registry::Coord;

/// The ring an `amcoordd` ensemble orders its own log on, and the group
/// every coordination request names.
pub const COORD_RING: RingId = RingId::new(0);

/// Client ids below this belong to the ensemble itself (its replicas
/// gossip their own ring's configuration under them); links draw theirs
/// above it.
pub const LINK_CLIENT_BASE: u32 = 1 << 16;

/// A client id for a new link: the ensemble routes replies by client id,
/// so two links on one replica must not share one. Drawn from the pid,
/// the clock and a process-wide counter over 2^30 values.
fn fresh_client_id() -> ClientId {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let nanos =
        (SystemTime::now().duration_since(SystemTime::UNIX_EPOCH)).map_or(0, |d| d.subsec_nanos());
    let mix = std::process::id().wrapping_mul(0x9e37_79b9)
        ^ nanos
        ^ NEXT
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x85eb_ca6b);
    ClientId::new(LINK_CLIENT_BASE + mix % ((1 << 30) - LINK_CLIENT_BASE))
}

/// How a client finds and talks to the ensemble.
#[derive(Clone, Debug)]
pub struct CoordClientOptions {
    /// A replica that leaves a request unanswered this long is abandoned
    /// for the next one.
    pub timeout: Duration,
    /// TTL requested for the client's session.
    pub session_ttl: Duration,
    /// How long connecting waits for the session to open. Bootstrap is
    /// racy by design — nodes launch concurrently with the ensemble,
    /// which needs a moment to form its ring — so connecting is patient
    /// where calls are not.
    pub connect_deadline: Duration,
}

impl Default for CoordClientOptions {
    fn default() -> Self {
        CoordClientOptions {
            timeout: Duration::from_secs(3),
            session_ttl: Duration::from_secs(3),
            connect_deadline: Duration::from_secs(20),
        }
    }
}

#[derive(Debug, Default)]
struct Cache {
    rings: BTreeMap<RingId, RingConfigWire>,
    subscribers: BTreeMap<RingId, Vec<NodeId>>,
    partitions: Option<Vec<PartitionWire>>,
    meta: BTreeMap<String, (u64, Bytes)>,
}

impl Cache {
    fn install_ring(&mut self, cfg: &RingConfigWire) {
        let newer = self
            .rings
            .get(&cfg.ring)
            .is_none_or(|cur| cfg.epoch >= cur.epoch);
        if newer {
            self.rings.insert(cfg.ring, cfg.clone());
        }
    }

    /// Serves `op` when the cache holds its answer.
    fn get(&self, op: &CoordOp) -> Option<CoordOk> {
        Some(match op {
            CoordOp::GetRing { ring } => CoordOk::Ring(Some(self.rings.get(ring)?.clone())),
            CoordOp::Subscribers { ring } => CoordOk::Nodes(self.subscribers.get(ring)?.clone()),
            CoordOp::Partitions => CoordOk::Partitions(self.partitions.clone()?),
            CoordOp::GetPartition { partition: id } => {
                let ps = self.partitions.as_ref()?;
                CoordOk::Partition(ps.iter().find(|p| p.partition == *id).cloned())
            }
            CoordOp::PartitionOf { replica } => {
                let ps = self.partitions.as_ref()?;
                let of = ps.iter().find(|p| p.replicas.contains(replica));
                CoordOk::PartitionOf(of.map(|p| p.partition))
            }
            CoordOp::GetMeta { key } => CoordOk::Meta(Some(self.meta.get(key)?.clone())),
            _ => return None,
        })
    }

    /// The reads that re-fill every entry the cache holds.
    fn refetches(&self) -> Vec<CoordOp> {
        let rings = self.rings.keys().map(|&ring| CoordOp::GetRing { ring });
        let subs = (self.subscribers.keys()).map(|&ring| CoordOp::Subscribers { ring });
        let parts = self.partitions.iter().map(|_| CoordOp::Partitions);
        let meta = (self.meta.keys()).map(|key| CoordOp::GetMeta { key: key.clone() });
        rings.chain(subs).chain(parts).chain(meta).collect()
    }
}

/// What the link asked a replica.
#[derive(Debug)]
enum Ask {
    /// Open the link's session.
    Open,
    /// Keep this session alive.
    KeepAlive(u64),
    /// A coordination operation, asked by a caller of
    /// [`CoordLink::poll`], who collects the reply, or by the link's own
    /// upkeep.
    Op { op: CoordOp, caller: bool },
}

#[derive(Debug)]
struct Pending {
    ask: Ask,
    sent: Instant,
}

/// A client of an `amcoordd` ensemble as a state machine (see the module
/// docs).
#[derive(Debug)]
pub struct CoordLink {
    addrs: Vec<SocketAddr>,
    opts: CoordClientOptions,
    /// Index of the replica frames go to.
    at: usize,
    client: ClientId,
    /// The link's one sequence space: session requests and control
    /// tokens alike.
    next_seq: u64,
    pending: BTreeMap<u64, Pending>,
    /// Replies to callers, each handed to the first identical poll.
    answered: Vec<(CoordOp, Result<CoordOk>, Instant)>,
    outbox: Vec<ClientMsg>,
    hangup: Option<SocketAddr>,
    cache: Cache,
    session: Option<SessionId>,
    /// Ephemerals registered under our own session.
    mine: Vec<(String, Bytes)>,
    next_keepalive: Instant,
}

impl CoordLink {
    /// A link to the ensemble at `addrs` (at least one), starting at the
    /// first: it queues the hello, the watch and the session open.
    pub fn new(addrs: Vec<SocketAddr>, opts: CoordClientOptions, now: Instant) -> Self {
        assert!(!addrs.is_empty(), "a coordination link needs a replica");
        let mut link = CoordLink {
            addrs,
            next_keepalive: now + keepalive_every(&opts),
            opts,
            at: 0,
            client: fresh_client_id(),
            next_seq: 1,
            pending: BTreeMap::new(),
            answered: Vec::new(),
            outbox: Vec::new(),
            hangup: None,
            cache: Cache::default(),
            session: None,
            mine: Vec::new(),
        };
        link.send(Ask::Open, now);
        link.reconnect(now);
        link
    }

    /// The replica the link talks to.
    pub fn replica(&self) -> SocketAddr {
        self.addrs[self.at]
    }

    /// The link's own session, once open.
    pub fn session(&self) -> Option<SessionId> {
        self.session
    }

    /// Applies `op`, or polls for its answer (see the module docs).
    pub fn poll(&mut self, op: &CoordOp, now: Instant) -> Poll<Result<CoordOk>> {
        if let Some(hit) = self.cache.get(op) {
            return Poll::Ready(Ok(hit));
        }
        if let Some(i) = self.answered.iter().position(|(o, _, _)| o == op) {
            return Poll::Ready(self.answered.swap_remove(i).1);
        }
        let asked = |p: &Pending| matches!(&p.ask, Ask::Op { op: o, caller: true } if o == op);
        if !self.pending.values().any(asked) {
            if let CoordOp::RegisterEphemeral {
                session,
                key,
                value,
            } = op
            {
                if Some(*session) == self.session {
                    self.mine.retain(|(k, _)| k != key);
                    self.mine.push((key.clone(), value.clone()));
                }
            }
            let op = op.clone();
            self.send(Ask::Op { op, caller: true }, now);
        }
        Poll::Pending
    }

    /// Feeds one frame from the replica.
    pub fn on_reply(&mut self, reply: ClientReply, now: Instant) {
        let ClientReply::ResponseV2 {
            session,
            seq,
            payload,
            ..
        } = reply
        else {
            return;
        };
        let (status, body) = parse_reply(&payload).unwrap_or_default();
        if session == NO_SESSION {
            // The watch: the events of a command the replica applied.
            if let Ok((_, events)) = decode_reply(&body) {
                for event in events {
                    self.on_event(event, now);
                }
            }
            return;
        }
        let seq = seq.raw();
        let Some(p) = self.pending.remove(&seq) else {
            return;
        };
        let (op, caller) = match p.ask {
            // A refused open is tried again when a keep-alive falls due.
            Ask::Open => {
                if let Some(id) = parse_open_reply(&payload) {
                    self.opened(SessionId::new(id), now);
                }
                return;
            }
            Ask::KeepAlive(session) => {
                if status == ST_UNKNOWN_SESSION {
                    self.session_lost(session, now);
                }
                return;
            }
            Ask::Op { op, caller } => (op, caller),
        };
        if status == ST_UNKNOWN_SESSION {
            // Not executed: it goes again under the next session.
            self.pending.insert(
                seq,
                Pending {
                    ask: Ask::Op { op, caller },
                    sent: now,
                },
            );
            return self.session_lost(session, now);
        }
        let result = match decode_reply(&body) {
            _ if status != ST_OK => Err(Error::Config(format!(
                "coordination request refused (status {status})"
            ))),
            Ok((result, _)) => result.map_err(Error::Config),
            Err(e) => Err(Error::Wire(e)),
        };
        if let Ok(body) = &result {
            self.update_cache(&op, body, now);
        }
        if caller {
            self.answered.push((op, result, now));
        }
    }

    /// The connection to `replica` closed: fail over to the next one.
    pub fn on_closed(&mut self, replica: SocketAddr, now: Instant) {
        if replica == self.replica() {
            self.fail_over(now);
        }
    }

    /// Advances the clock: abandons a replica that sat on a request for
    /// the timeout, forgets replies nobody collected, and keeps the
    /// session alive.
    pub fn tick(&mut self, now: Instant) {
        let timeout = self.opts.timeout;
        if (self.pending.values()).any(|p| now.duration_since(p.sent) >= timeout) {
            self.hangup = Some(self.replica());
            self.fail_over(now);
        }
        self.answered
            .retain(|(_, _, at)| now.duration_since(*at) < timeout);
        if now >= self.next_keepalive {
            self.next_keepalive = now + keepalive_every(&self.opts);
            match self.session {
                Some(session) => {
                    let alive =
                        |p: &Pending| matches!(p.ask, Ask::KeepAlive(s) if s == session.raw());
                    if !self.pending.values().any(alive) {
                        self.send(Ask::KeepAlive(session.raw()), now);
                    }
                }
                None => self.open_session(now),
            }
        }
    }

    /// The frames to send to [`CoordLink::replica`], oldest first.
    pub fn take_outbox(&mut self) -> Vec<ClientMsg> {
        std::mem::take(&mut self.outbox)
    }

    /// A replica the link abandoned while its connection was still up:
    /// the driver closes that connection.
    pub fn take_hangup(&mut self) -> Option<SocketAddr> {
        self.hangup.take()
    }

    /// The connection under the link was replaced (a failover, or an
    /// event loop taking the link over): say hello, re-arm the watch,
    /// re-send everything pending unchanged — the session's reply cache
    /// answers a request that was already applied — and re-fetch the
    /// cache.
    pub fn reconnect(&mut self, now: Instant) {
        self.outbox.clear();
        self.outbox.push(ClientMsg::HelloV2 {
            client: self.client,
            features: FEAT_ALL,
        });
        self.outbox.push(ClientMsg::RequestV2 {
            session: NO_SESSION,
            seq: RequestId::new(0),
            ack: 0,
            group: COORD_RING,
            cmd: CoordOp::WatchAll.to_bytes(),
        });
        for p in self.pending.values_mut() {
            p.sent = now;
        }
        self.resend(|_| true);
        for op in self.cache.refetches() {
            self.upkeep(op, now);
        }
    }

    fn fail_over(&mut self, now: Instant) {
        self.at = (self.at + 1) % self.addrs.len();
        self.reconnect(now);
    }

    /// Every sequence number below this one is answered (or abandoned).
    fn ack(&self) -> u64 {
        self.pending.keys().next().copied().unwrap_or(self.next_seq) - 1
    }

    /// The request frame for `ask` under sequence number `seq`; none for
    /// an operation while the link has no session.
    fn frame(&self, seq: u64, ask: &Ask) -> Option<ClientMsg> {
        let (session, cmd) = match ask {
            Ask::Open => {
                let ttl_ms = self.opts.session_ttl.as_millis() as u64;
                let open = SessionCtl::Open { token: seq, ttl_ms };
                (SESSION_CTL, open.to_bytes())
            }
            Ask::KeepAlive(session) => {
                let keep = SessionCtl::KeepAlive { session: *session };
                (SESSION_CTL, keep.to_bytes())
            }
            Ask::Op { op, .. } => (self.session?.raw(), op.to_bytes()),
        };
        Some(ClientMsg::RequestV2 {
            session,
            seq: RequestId::new(seq),
            ack: self.ack(),
            group: COORD_RING,
            cmd,
        })
    }

    /// Queues again the pending requests `which` picks, unchanged.
    fn resend(&mut self, which: impl Fn(&Ask) -> bool) {
        let frames: Vec<ClientMsg> = (self.pending.iter())
            .filter(|(_, p)| which(&p.ask))
            .filter_map(|(seq, p)| self.frame(*seq, &p.ask))
            .collect();
        self.outbox.extend(frames);
    }

    fn send(&mut self, ask: Ask, now: Instant) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq, Pending { ask, sent: now });
        if let Some(frame) = self.frame(seq, &self.pending[&seq].ask) {
            self.outbox.push(frame);
        }
    }

    /// Sends one of the link's own operations unless an identical one is
    /// in flight.
    fn upkeep(&mut self, op: CoordOp, now: Instant) {
        let asked = |p: &Pending| matches!(&p.ask, Ask::Op { op: o, .. } if *o == op);
        if !self.pending.values().any(asked) {
            self.send(Ask::Op { op, caller: false }, now);
        }
    }

    fn open_session(&mut self, now: Instant) {
        if !self.pending.values().any(|p| matches!(p.ask, Ask::Open)) {
            self.send(Ask::Open, now);
        }
    }

    /// The session opened: send what waited for it, and register our
    /// ephemerals under it.
    fn opened(&mut self, session: SessionId, now: Instant) {
        self.session = Some(session);
        self.resend(|ask| matches!(ask, Ask::Op { .. }));
        for (key, value) in self.mine.clone() {
            let op = CoordOp::RegisterEphemeral {
                session,
                key,
                value,
            };
            self.upkeep(op, now);
        }
    }

    /// `session` is gone on the ensemble; if it was ours, open another.
    fn session_lost(&mut self, session: u64, now: Instant) {
        if self.session.map(SessionId::raw) == Some(session) {
            self.session = None;
            self.open_session(now);
        }
    }

    /// Folds one watched event into the cache. A retry answered from the
    /// ensemble's reply cache carries its events again, so an event may
    /// repeat or arrive stale: each is either fenced by its epoch or only
    /// makes the link re-read the entry.
    fn on_event(&mut self, event: CoordEvent, now: Instant) {
        let refetch = match event {
            CoordEvent::RingChanged { cfg } => return self.cache.install_ring(&cfg),
            CoordEvent::SubscribersChanged { ring, .. } => (self.cache.subscribers)
                .contains_key(&ring)
                .then_some(CoordOp::Subscribers { ring }),
            CoordEvent::PartitionsChanged => {
                (self.cache.partitions.take()).map(|_| CoordOp::Partitions)
            }
            CoordEvent::MetaChanged { key, .. } => {
                (self.cache.meta.remove(&key)).map(|_| CoordOp::GetMeta { key })
            }
        };
        if let Some(op) = refetch {
            self.upkeep(op, now);
        }
    }

    /// Folds a reply into the cache.
    fn update_cache(&mut self, op: &CoordOp, body: &CoordOk, now: Instant) {
        let cache = &mut self.cache;
        match (op, body) {
            (_, CoordOk::Config(cfg) | CoordOk::Election(ElectOutcome::Lost(cfg))) => {
                cache.install_ring(cfg);
            }
            (CoordOp::GetRing { .. }, CoordOk::Ring(Some(cfg))) => cache.install_ring(cfg),
            (CoordOp::Subscribers { ring }, CoordOk::Nodes(subs)) => {
                cache.subscribers.insert(*ring, subs.clone());
            }
            (CoordOp::Partitions, CoordOk::Partitions(ps)) => cache.partitions = Some(ps.clone()),
            (CoordOp::GetMeta { key }, CoordOk::Meta(Some(m))) => {
                cache.meta.insert(key.clone(), m.clone());
            }
            // Writes through this link: the old entry goes; a read
            // re-fills it. Subscriptions and the won election's ring are
            // re-fetched instead, keeping the old answer meanwhile (ring
            // nodes and trim rounds read them from event loops).
            (CoordOp::SetMeta { key, .. }, _) => {
                cache.meta.remove(key);
            }
            (CoordOp::RegisterPartition { .. } | CoordOp::EnsurePartition { .. }, _) => {
                cache.partitions = None;
            }
            (CoordOp::Subscribe { ring, .. }, _) => {
                self.upkeep(CoordOp::Subscribers { ring: *ring }, now);
            }
            (CoordOp::ElectCoordinator { ring, .. }, CoordOk::Election(ElectOutcome::Won(_))) => {
                self.upkeep(CoordOp::GetRing { ring: *ring }, now);
            }
            _ => {}
        }
    }
}

fn keepalive_every(opts: &CoordClientOptions) -> Duration {
    (opts.session_ttl / 3).max(Duration::from_millis(100))
}

/// Moves a link's frames over a transport on the caller's thread.
pub trait Driver: Send {
    /// Sends what `link` has queued, waits at most `wait` for the replica
    /// to answer, and feeds back what arrived and the clock.
    fn turn(&mut self, link: &mut CoordLink, wait: Duration);
}

/// A [`CoordLink`] as a [`Coord`] backend.
///
/// While it has a [`Driver`], a call turns the driver until its answer
/// arrives (for up to twice the link's timeout: one failover); after
/// [`LinkCoord::hand_over`] a call only polls, and an event loop moves
/// the frames through [`LinkCoord::with_link`].
pub struct LinkCoord {
    state: Mutex<(CoordLink, Option<Box<dyn Driver>>)>,
}

impl std::fmt::Debug for LinkCoord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkCoord").finish_non_exhaustive()
    }
}

impl LinkCoord {
    /// `link`, driven on its callers' threads by `driver`.
    pub fn new(link: CoordLink, driver: Box<dyn Driver>) -> Self {
        LinkCoord {
            state: Mutex::new((link, Some(driver))),
        }
    }

    /// Turns the driver until `done` holds or `wait` passes; `done`'s
    /// last verdict.
    pub fn drive_until(&self, wait: Duration, done: impl Fn(&CoordLink) -> bool) -> bool {
        let deadline = Instant::now() + wait;
        let mut state = self.state.lock();
        let (link, driver) = &mut *state;
        while !done(link) {
            let left = deadline.saturating_duration_since(Instant::now());
            let Some(driver) = driver.as_mut().filter(|_| !left.is_zero()) else {
                return false;
            };
            driver.turn(link, left);
        }
        true
    }

    /// Hands the link to an event loop: the driver and its connection are
    /// dropped, the link reconnects through whatever the loop dials, and
    /// calls from now on only poll.
    pub fn hand_over(&self) {
        let mut state = self.state.lock();
        state.1 = None;
        state.0.reconnect(Instant::now());
    }

    /// Runs `f` on the link (for the event loop that drives it).
    pub fn with_link<R>(&self, f: impl FnOnce(&mut CoordLink) -> R) -> R {
        f(&mut self.state.lock().0)
    }
}

impl Coord for LinkCoord {
    fn call(&self, op: CoordOp) -> Result<CoordOk> {
        let mut state = self.state.lock();
        let (link, driver) = &mut *state;
        let Some(driver) = driver else {
            return match link.poll(&op, Instant::now()) {
                Poll::Ready(result) => result,
                Poll::Pending => Err(Error::Timeout("coordination reply pending")),
            };
        };
        // What arrived since the last call first: events keep the cache
        // current.
        driver.turn(link, Duration::ZERO);
        let deadline = Instant::now() + link.opts.timeout * 2;
        loop {
            let now = Instant::now();
            if let Poll::Ready(result) = link.poll(&op, now) {
                return result;
            }
            if now >= deadline {
                return Err(Error::Timeout("coordination service unreachable"));
            }
            driver.turn(link, deadline - now);
        }
    }

    fn session(&self) -> Option<SessionId> {
        self.state.lock().0.session()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use common::ids::Epoch;
    use common::wire::coord::{encode_reply, CoordResult};
    use common::wire::put_varint;

    const SESSION: u64 = 4;

    fn addrs() -> Vec<SocketAddr> {
        vec![([127, 0, 0, 1], 1).into(), ([127, 0, 0, 1], 2).into()]
    }

    fn ring_cfg(epoch: u64) -> RingConfigWire {
        let members = vec![NodeId::new(0), NodeId::new(1)];
        RingConfigWire {
            ring: RingId::new(3),
            members: members.clone(),
            acceptors: members,
            coordinator: NodeId::new(0),
            epoch: Epoch::new(epoch),
        }
    }

    fn response(session: u64, seq: u64, status: &[u8], body: &[u8]) -> ClientReply {
        let mut payload = BytesMut::from(status);
        payload.extend_from_slice(body);
        ClientReply::ResponseV2 {
            session,
            seq: RequestId::new(seq),
            from_replica: NodeId::new(0),
            payload: payload.freeze(),
        }
    }

    /// The session-framed answer to an operation.
    fn answer(session: u64, seq: u64, result: CoordResult) -> ClientReply {
        response(session, seq, &[ST_OK], &encode_reply(&result, &[]))
    }

    fn opened(seq: u64, session: u64) -> ClientReply {
        let mut id = BytesMut::new();
        put_varint(&mut id, session);
        response(SESSION_CTL, seq, &[ST_OK], &id)
    }

    /// `(session, seq, cmd)` of every request queued, hellos skipped.
    fn requests(link: &mut CoordLink) -> Vec<(u64, u64, Bytes)> {
        let msgs = link.take_outbox().into_iter();
        msgs.filter_map(|msg| match msg {
            ClientMsg::RequestV2 {
                session, seq, cmd, ..
            } => Some((session, seq.raw(), cmd)),
            _ => None,
        })
        .collect()
    }

    /// The operations queued, watch included, session control skipped.
    fn ops(link: &mut CoordLink) -> Vec<CoordOp> {
        (requests(link).into_iter())
            .filter(|(session, _, _)| *session != SESSION_CTL)
            .map(|(_, _, mut cmd)| CoordOp::decode(&mut cmd).unwrap())
            .collect()
    }

    /// A link whose session is open and whose start-up frames are gone.
    fn open_link(now: Instant) -> CoordLink {
        let mut link = CoordLink::new(addrs(), CoordClientOptions::default(), now);
        let ctl: Vec<_> = (requests(&mut link).into_iter())
            .filter(|(session, _, _)| *session == SESSION_CTL)
            .collect();
        assert_eq!(ctl.len(), 1, "one session open");
        link.on_reply(opened(ctl[0].1, SESSION), now);
        assert_eq!(link.session(), Some(SessionId::new(SESSION)));
        link
    }

    #[test]
    fn a_call_is_a_poll_answered_once() {
        let now = Instant::now();
        let mut link = open_link(now);
        let report = CoordOp::ReportFailure {
            ring: RingId::new(3),
            failed: NodeId::new(1),
            seen_epoch: Epoch::new(1),
        };
        assert!(link.poll(&report, now).is_pending());
        assert!(link.poll(&report, now).is_pending(), "in flight");
        let sent = requests(&mut link);
        assert_eq!(sent.len(), 1, "one request for both calls");
        assert_eq!(sent[0].0, SESSION, "sent under the link's session");
        link.on_reply(
            answer(SESSION, sent[0].1, Ok(CoordOk::Config(ring_cfg(2)))),
            now,
        );
        assert!(matches!(
            link.poll(&report, now),
            Poll::Ready(Ok(CoordOk::Config(_)))
        ));
        assert!(link.poll(&report, now).is_pending(), "answered once");
        // The reply's config is cached: a read of the ring answers at once.
        let get = CoordOp::GetRing {
            ring: RingId::new(3),
        };
        let Poll::Ready(Ok(CoordOk::Ring(Some(cfg)))) = link.poll(&get, now) else {
            panic!("a cache hit");
        };
        assert_eq!(cfg.epoch, Epoch::new(2));
    }

    #[test]
    fn a_disconnect_keeps_the_cache_and_refetches_it_from_the_next_replica() {
        let now = Instant::now();
        let mut link = open_link(now);
        let get = CoordOp::GetRing {
            ring: RingId::new(3),
        };
        assert!(link.poll(&get, now).is_pending());
        let seq = requests(&mut link)[0].1;
        link.on_reply(
            answer(SESSION, seq, Ok(CoordOk::Ring(Some(ring_cfg(1))))),
            now,
        );
        let first = link.replica();
        link.on_closed(addrs()[1], now); // not ours: ignored
        assert_eq!(link.replica(), first);
        link.on_closed(first, now);
        assert_ne!(link.replica(), first);
        assert!(link.poll(&get, now).is_ready(), "the cache survives");
        assert!(matches!(
            link.outbox.first(),
            Some(ClientMsg::HelloV2 { .. })
        ));
        assert_eq!(ops(&mut link), [CoordOp::WatchAll, get]);
    }

    /// Exactly-once across a failover: the write in flight is re-sent
    /// with its `(session, seq)`, never answered "timed out", and the
    /// answer reaches the caller once however often it arrives.
    #[test]
    fn a_write_in_flight_at_a_failover_is_resent_unchanged_and_answered_once() {
        let now = Instant::now();
        let mut link = open_link(now);
        let set = CoordOp::SetMeta {
            key: "k".into(),
            value: Bytes::from_static(b"v"),
            expected_version: None,
        };
        assert!(link.poll(&set, now).is_pending());
        let Some(ClientMsg::RequestV2 { seq, ack, .. }) = link.outbox.first().cloned() else {
            panic!("a request");
        };
        assert_eq!(ack, seq.raw() - 1, "everything before it is answered");
        let sent = requests(&mut link);
        assert_eq!(sent.len(), 1);
        link.on_closed(link.replica(), now);
        assert!(
            link.poll(&set, now).is_pending(),
            "not answered by the failover"
        );
        let resent = requests(&mut link);
        assert!(
            resent.contains(&sent[0]),
            "re-sent unchanged: {resent:?} lacks {:?}",
            sent[0]
        );
        let (session, seq, _) = sent[0];
        // The new replica answers from the session's reply cache; the
        // first replica's late answer to the original arrives too.
        link.on_reply(answer(session, seq, Ok(CoordOk::Version(1))), now);
        link.on_reply(answer(session, seq, Ok(CoordOk::Version(1))), now);
        assert!(matches!(
            link.poll(&set, now),
            Poll::Ready(Ok(CoordOk::Version(1)))
        ));
        assert!(link.poll(&set, now).is_pending(), "answered once");
    }

    #[test]
    fn a_silent_replica_is_abandoned_and_a_lost_session_reopened() {
        let now = Instant::now();
        let mut link = open_link(now);
        let key = "nodes/1".to_string();
        let register = CoordOp::RegisterEphemeral {
            session: SessionId::new(SESSION),
            key: key.clone(),
            value: Bytes::from_static(b"a"),
        };
        assert!(link.poll(&register, now).is_pending());
        let sent = requests(&mut link);
        let first = link.replica();
        let later = now + CoordClientOptions::default().timeout;
        link.tick(later);
        assert_eq!(link.take_hangup(), Some(first));
        let resent = requests(&mut link);
        assert_eq!(resent[0].2, CoordOp::WatchAll.to_bytes());
        assert!(resent.contains(&sent[0]), "the write goes again, unchanged");
        assert!(link.poll(&register, later).is_pending(), "never timed out");
        // The ensemble expired the session: the write is refused unrun,
        // the link opens another session and registers its ephemerals
        // again.
        link.on_reply(
            response(SESSION, sent[0].1, &[ST_UNKNOWN_SESSION], &[]),
            later,
        );
        assert_eq!(link.session(), None);
        let open = requests(&mut link).pop().expect("a session open");
        assert_eq!(open.0, SESSION_CTL);
        link.on_reply(opened(open.1, SESSION + 1), later);
        let again = CoordOp::RegisterEphemeral {
            session: SessionId::new(SESSION + 1),
            key,
            value: Bytes::from_static(b"a"),
        };
        let sent_after = requests(&mut link);
        assert!(sent_after.iter().all(|(s, _, _)| *s == SESSION + 1));
        let after: Vec<CoordOp> = (sent_after.into_iter())
            .map(|(_, _, mut cmd)| CoordOp::decode(&mut cmd).unwrap())
            .collect();
        assert_eq!(after, [register, again]);
    }
}
