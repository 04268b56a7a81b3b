//! The coordination client as a sans-IO link.
//!
//! [`CoordLink`] is everything a client of an `amcoordd` ensemble keeps
//! between frames, and nothing else: no socket, no thread, no lock. What
//! goes in is reply and event frames ([`CoordLink::on_reply`]), "the
//! connection to this replica closed" ([`CoordLink::on_closed`]) and the
//! clock ([`CoordLink::tick`]); what comes out is the frames to send
//! ([`CoordLink::take_outbox`]) and the replica to send them to
//! ([`CoordLink::replica`]), plus a replica to hang up on after a
//! failover ([`CoordLink::take_hangup`]). Its state:
//!
//! * **the cache** — configuration reads (rings, subscribers, partitions,
//!   metadata) are served from a local mirror fed by the replies that
//!   carry them and by pushed [`CoordEvent`]s: the link sends
//!   [`CoordOp::WatchAll`] on every connection;
//! * **the pending table** — requests in flight by request id;
//! * **the session** — a TTL session opened at start and kept alive
//!   every third of its TTL, with the ephemerals registered under it
//!   (re-registered if the session ever expires and is reopened);
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
//! the next replica and re-fetches every cached entry, so the cache is
//! refreshed without waiting for some read to miss; until the answers
//! land it keeps serving what it had (epochs fence a stale ring config).
//!
//! [`LinkCoord`] makes a link a [`Coord`] backend. It drives the link
//! through a caller's-thread [`Driver`] until an event loop takes it over
//! ([`LinkCoord::hand_over`]), after which calls only poll. The drivers
//! live in `liverun`, next to the sockets.

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::task::Poll;
use std::time::{Duration, Instant};

use bytes::Bytes;
use common::error::{Error, Result};
use common::ids::{NodeId, RingId, SessionId};
use common::wire::coord::{
    CoordEvent, CoordMsg, CoordOk, CoordOp, CoordReply, ElectOutcome, OpKind, PartitionWire,
    RingConfigWire,
};
use parking_lot::Mutex;

use crate::registry::{Coord, EVENT_BACKLOG};

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

#[derive(Debug)]
struct Pending {
    op: CoordOp,
    sent: Instant,
    /// Asked by a caller of [`CoordLink::poll`], who collects the reply;
    /// otherwise the link's own upkeep.
    caller: bool,
}

/// A client of an `amcoordd` ensemble as a state machine (see the module
/// docs).
#[derive(Debug)]
pub struct CoordLink {
    addrs: Vec<SocketAddr>,
    opts: CoordClientOptions,
    /// Index of the replica frames go to.
    at: usize,
    next_req: u64,
    pending: BTreeMap<u64, Pending>,
    /// Replies to callers, each handed to the first identical poll.
    answered: Vec<(CoordOp, Result<CoordOk>, Instant)>,
    outbox: Vec<CoordMsg>,
    hangup: Option<SocketAddr>,
    cache: Cache,
    events: VecDeque<CoordEvent>,
    session: Option<SessionId>,
    /// Ephemerals registered under our own session.
    mine: Vec<(String, Bytes)>,
    next_keepalive: Instant,
}

impl CoordLink {
    /// A link to the ensemble at `addrs` (at least one), starting at the
    /// first: it queues the watch and the session open.
    pub fn new(addrs: Vec<SocketAddr>, opts: CoordClientOptions, now: Instant) -> Self {
        assert!(!addrs.is_empty(), "a coordination link needs a replica");
        let mut link = CoordLink {
            addrs,
            next_keepalive: now + keepalive_every(&opts),
            opts,
            at: 0,
            next_req: 1,
            pending: BTreeMap::new(),
            answered: Vec::new(),
            outbox: Vec::new(),
            hangup: None,
            cache: Cache::default(),
            events: VecDeque::new(),
            session: None,
            mine: Vec::new(),
        };
        link.send(CoordOp::WatchAll, false, now);
        link.open_session(now);
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
        if !self.pending.values().any(|p| p.caller && p.op == *op) {
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
            self.send(op.clone(), true, now);
        }
        Poll::Pending
    }

    /// Feeds one frame from the replica.
    pub fn on_reply(&mut self, reply: CoordReply, now: Instant) {
        let (req, result) = match reply {
            CoordReply::Event(event) => return self.on_event(event, now),
            CoordReply::Ok { req, body } => (req, Ok(body)),
            CoordReply::Err { req, reason } => (req, Err(Error::Config(reason))),
        };
        let Some(p) = self.pending.remove(&req) else {
            return;
        };
        if let Ok(body) = &result {
            self.update_cache(&p.op, body, now);
        }
        if p.caller {
            self.answered.push((p.op, result, now));
            return;
        }
        match (p.op, result) {
            (CoordOp::OpenSession { .. }, Ok(CoordOk::Session(id))) => {
                self.session = Some(id);
                for (key, value) in self.mine.clone() {
                    let op = CoordOp::RegisterEphemeral {
                        session: id,
                        key,
                        value,
                    };
                    self.send(op, false, now);
                }
            }
            (CoordOp::KeepAlive { session }, Err(Error::Config(reason)))
                if reason.contains("unknown session") =>
            {
                self.session_lost(session, now);
            }
            _ => {}
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
                Some(session) => self.send_once(CoordOp::KeepAlive { session }, now),
                None => self.open_session(now),
            }
        }
    }

    /// The frames to send to [`CoordLink::replica`], oldest first.
    pub fn take_outbox(&mut self) -> Vec<CoordMsg> {
        std::mem::take(&mut self.outbox)
    }

    /// A replica the link abandoned while its connection was still up:
    /// the driver closes that connection.
    pub fn take_hangup(&mut self) -> Option<SocketAddr> {
        self.hangup.take()
    }

    /// The oldest event not yet taken; the link keeps the last
    /// [`EVENT_BACKLOG`].
    pub fn next_event(&mut self) -> Option<CoordEvent> {
        self.events.pop_front()
    }

    /// The connection under the link was replaced (a failover, or an
    /// event loop taking the link over): re-arm the watch, re-fetch the
    /// cache, and re-send what was in flight. A caller's write that was
    /// in flight may or may not have been applied; it is answered with a
    /// timeout and the caller decides (every registry write is idempotent
    /// or epoch-guarded).
    pub fn reconnect(&mut self, now: Instant) {
        self.outbox.clear();
        let mut resend = vec![(CoordOp::WatchAll, false)];
        for p in std::mem::take(&mut self.pending).into_values() {
            if p.caller && p.op.kind() != OpKind::Read {
                let lost = Err(Error::Timeout("coordination connection lost"));
                self.answered.push((p.op, lost, now));
            } else if p.op != CoordOp::WatchAll {
                resend.push((p.op, p.caller));
            }
        }
        for op in self.cache.refetches() {
            if !resend.iter().any(|(o, _)| *o == op) {
                resend.push((op, false));
            }
        }
        for (op, caller) in resend {
            self.send(op, caller, now);
        }
    }

    fn fail_over(&mut self, now: Instant) {
        self.at = (self.at + 1) % self.addrs.len();
        self.reconnect(now);
    }

    fn send(&mut self, op: CoordOp, caller: bool, now: Instant) {
        let req = self.next_req;
        self.next_req += 1;
        self.outbox.push(CoordMsg {
            req,
            op: op.clone(),
        });
        self.pending.insert(
            req,
            Pending {
                op,
                sent: now,
                caller,
            },
        );
    }

    /// Sends one of the link's own requests unless it is in flight.
    fn send_once(&mut self, op: CoordOp, now: Instant) {
        if !self.pending.values().any(|p| !p.caller && p.op == op) {
            self.send(op, false, now);
        }
    }

    fn open_session(&mut self, now: Instant) {
        let ttl_ms = self.opts.session_ttl.as_millis() as u64;
        self.send_once(CoordOp::OpenSession { ttl_ms }, now);
    }

    /// `session` is gone on the ensemble; if it was ours, open another.
    fn session_lost(&mut self, session: SessionId, now: Instant) {
        if self.session == Some(session) {
            self.session = None;
            self.open_session(now);
        }
    }

    fn on_event(&mut self, event: CoordEvent, now: Instant) {
        match &event {
            CoordEvent::RingChanged { cfg } => self.cache.install_ring(cfg),
            CoordEvent::SubscribersChanged { ring, subscribers } => {
                self.cache.subscribers.insert(*ring, subscribers.clone());
            }
            CoordEvent::PartitionsChanged => {
                if self.cache.partitions.take().is_some() {
                    self.send(CoordOp::Partitions, false, now);
                }
            }
            CoordEvent::MetaChanged { key, .. } => {
                if self.cache.meta.remove(key).is_some() {
                    self.send(CoordOp::GetMeta { key: key.clone() }, false, now);
                }
            }
            CoordEvent::SessionExpired { session } => self.session_lost(*session, now),
            CoordEvent::EphemeralChanged { .. } => {}
        }
        if self.events.len() == EVENT_BACKLOG {
            self.events.pop_front();
        }
        self.events.push_back(event);
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
                self.send(CoordOp::Subscribers { ring: *ring }, false, now);
            }
            (CoordOp::ElectCoordinator { ring, .. }, CoordOk::Election(ElectOutcome::Won(_))) => {
                self.send(CoordOp::GetRing { ring: *ring }, false, now);
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

    fn next_event(&self, timeout: Duration) -> Option<CoordEvent> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock();
        let (link, driver) = &mut *state;
        loop {
            if let Some(event) = link.next_event() {
                return Some(event);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            driver.as_mut()?.turn(link, left);
            if left.is_zero() {
                return link.next_event();
            }
        }
    }

    fn session(&self) -> Option<SessionId> {
        self.state.lock().0.session()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::ids::Epoch;

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

    /// A link whose session is open and whose start-up frames are gone.
    fn open_link(now: Instant) -> CoordLink {
        let mut link = CoordLink::new(addrs(), CoordClientOptions::default(), now);
        for msg in link.take_outbox() {
            let body = match msg.op {
                CoordOp::OpenSession { .. } => CoordOk::Session(SessionId::new(4)),
                _ => CoordOk::Unit,
            };
            link.on_reply(CoordReply::Ok { req: msg.req, body }, now);
        }
        assert_eq!(link.session(), Some(SessionId::new(4)));
        link
    }

    fn ops(link: &mut CoordLink) -> Vec<CoordOp> {
        link.take_outbox().into_iter().map(|m| m.op).collect()
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
        let sent = link.take_outbox();
        assert_eq!(sent.len(), 1, "one request for both calls");
        let body = CoordOk::Config(ring_cfg(2));
        link.on_reply(
            CoordReply::Ok {
                req: sent[0].req,
                body,
            },
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
        let req = link.take_outbox()[0].req;
        let body = CoordOk::Ring(Some(ring_cfg(1)));
        link.on_reply(CoordReply::Ok { req, body }, now);
        let first = link.replica();
        link.on_closed(addrs()[1], now); // not ours: ignored
        assert_eq!(link.replica(), first);
        link.on_closed(first, now);
        assert_ne!(link.replica(), first);
        assert!(link.poll(&get, now).is_ready(), "the cache survives");
        assert_eq!(ops(&mut link), [CoordOp::WatchAll, get]);
    }

    #[test]
    fn a_silent_replica_is_abandoned_and_a_lost_session_reopened() {
        let now = Instant::now();
        let mut link = open_link(now);
        let key = "nodes/1".to_string();
        let register = CoordOp::RegisterEphemeral {
            session: SessionId::new(4),
            key: key.clone(),
            value: Bytes::from_static(b"a"),
        };
        assert!(link.poll(&register, now).is_pending());
        let first = link.replica();
        let later = now + CoordClientOptions::default().timeout;
        link.tick(later);
        assert_eq!(link.take_hangup(), Some(first));
        let resent = ops(&mut link);
        assert_eq!(resent[0], CoordOp::WatchAll);
        assert!(matches!(
            link.poll(&register, later),
            Poll::Ready(Err(Error::Timeout(_)))
        ));
        // The ensemble expired the session: the link opens another and
        // registers its ephemerals again.
        let gone = CoordEvent::SessionExpired {
            session: SessionId::new(4),
        };
        link.on_reply(CoordReply::Event(gone.clone()), later);
        assert_eq!(link.next_event(), Some(gone));
        let open = link.take_outbox().pop().expect("a session open");
        assert!(matches!(open.op, CoordOp::OpenSession { .. }));
        let body = CoordOk::Session(SessionId::new(5));
        link.on_reply(
            CoordReply::Ok {
                req: open.req,
                body,
            },
            later,
        );
        let again = CoordOp::RegisterEphemeral {
            session: SessionId::new(5),
            key,
            value: Bytes::from_static(b"a"),
        };
        assert_eq!(ops(&mut link), [again]);
    }
}
