//! The coordination link: a client of an `amcoordd` ensemble, and its
//! two drivers.
//!
//! [`CoordLink`] owns no socket, thread or lock. In go reply frames
//! ([`CoordLink::on_reply`]), "the connection to this replica closed"
//! ([`CoordLink::on_closed`]) and the clock ([`CoordLink::tick`]); out
//! come frames ([`CoordLink::take_outbox`]) for [`CoordLink::replica`],
//! and a replica to hang up on after a failover
//! ([`CoordLink::take_hangup`]).
//!
//! **Its session is the data client's session machine**, [`SessionCore`]
//! homed on [`COORD_RING`]: one sequence space with a cumulative ack, an
//! open by token, a keep-alive every TTL/3, and on `ST_UNKNOWN_SESSION` a
//! re-open and an unchanged re-send. The ensemble's session table answers
//! a re-sent `(session, seq)` from its reply cache, so a write in flight
//! at a failover is applied once. The link adds the `HelloV2` on every
//! connection and what belongs to coordination alone:
//!
//! * **the cache** of configuration reads, fed by the replies that carry
//!   them and by the watch — a [`CoordOp::WatchAll`] sent outside any
//!   session on every connection, which the replica answers with the
//!   events of every command it applies;
//! * **asks by id**: [`CoordLink::ask`] takes an operation and the id
//!   its asker correlates the answer by. A cache hit is answered at once;
//!   anything else is sent under the session, and its reply answers it.
//!   Answers are collected with [`CoordLink::take_answers`];
//! * **the ephemerals** registered under its session, re-registered
//!   whenever a session (re)opens;
//! * **replica rotation**: a replica whose connection closes, or that
//!   leaves anything unanswered for [`FAILOVER_TIMEOUT`], is abandoned
//!   for the next one. The cache survives: the next replica re-arms the
//!   watch and re-fills every entry, and meanwhile the cache serves what
//!   it had (epochs fence a stale ring config).
//!
//! [`LinkCoord`] makes a link a [`Coord`] backend for tools, tests and a
//! node's boot path: [`connect_coord`] drives it on the caller's thread,
//! and every registry call asks and turns a private `Net` until the
//! answer to its own id arrives. A node loop takes the link itself
//! ([`LinkCoord::hand_over`]): it routes its host's coordination asks to
//! it, dials its replica on the loop's own `Net`, feeds it what arrived
//! and the turn clock, and sends what it queued with the crate-private
//! `flush`.

use std::any::Any;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant, SystemTime};

use bytes::Bytes;
use common::error::{Error, Result};
use common::ids::{ClientId, NodeId, RequestId, RingId, SessionId};
use common::obs::Counter;
use common::transport::WallClock;
use common::value::NO_SESSION;
use common::wire::client::{parse_reply, ClientMsg, ClientReply, FEAT_ALL};
use common::wire::coord::{
    decode_reply, CoordEvent, CoordOk, CoordOp, ElectOutcome, PartitionWire, RingConfigWire,
    COORD_RING,
};
use common::wire::Wire;
use coord::{Coord, Registry};
use multiring::client::{Action, SessionCore};

use crate::net::{Event, Net, Reader};

/// A replica that leaves a request unanswered this long is abandoned for
/// the next one.
pub const FAILOVER_TIMEOUT: Duration = Duration::from_secs(3);

/// How long [`connect_coord`] waits for the session to open. Bootstrap is
/// racy by design — nodes launch concurrently with the ensemble, which
/// needs a moment to form its ring — so connecting is patient where calls
/// are not.
const CONNECT_DEADLINE: Duration = Duration::from_secs(20);

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

/// A client of an `amcoordd` ensemble as a state machine (see the module
/// docs).
pub struct CoordLink {
    addrs: Vec<SocketAddr>,
    /// Index of the replica frames go to.
    at: usize,
    client: ClientId,
    /// Maps the driver's instants onto the core's time axis.
    clock: WallClock,
    core: SessionCore,
    /// What each request in flight asks, by sequence number, and the id
    /// of the asker it answers (`None` for the link's own upkeep).
    asks: BTreeMap<u64, (CoordOp, Option<u64>)>,
    /// Answers not yet collected, by the asker's id.
    answers: Vec<(u64, Result<CoordOk>)>,
    outbox: Vec<ClientMsg>,
    hangup: Option<SocketAddr>,
    cache: Cache,
    /// Ephemerals registered under our own session.
    mine: Vec<(String, Bytes)>,
}

impl CoordLink {
    /// A link to the ensemble at `addrs` (at least one), starting at the
    /// first: it queues the hello, the watch and the session open.
    pub fn new(addrs: Vec<SocketAddr>, session_ttl: Duration, now: Instant) -> Self {
        assert!(!addrs.is_empty(), "a coordination link needs a replica");
        let mut link = CoordLink {
            addrs,
            at: 0,
            client: fresh_client_id(),
            clock: WallClock::at_epoch(now),
            // The ensemble's window binds the link; it never waits on one.
            core: SessionCore::new(usize::MAX, session_ttl),
            asks: BTreeMap::new(),
            answers: Vec::new(),
            outbox: Vec::new(),
            hangup: None,
            cache: Cache::default(),
            mine: Vec::new(),
        };
        link.core.open(COORD_RING, link.clock.at(now));
        link.reconnect(now);
        link
    }

    /// The replica the link talks to.
    pub fn replica(&self) -> SocketAddr {
        self.addrs[self.at]
    }

    /// The link's own session, once open.
    pub fn session(&self) -> Option<SessionId> {
        self.core
            .sessions
            .get(&COORD_RING)
            .copied()
            .map(SessionId::new)
    }

    /// Asks for `op` on behalf of the asker's `id`: a cache hit is
    /// answered at once, anything else when its reply arrives (see the
    /// module docs).
    pub fn ask(&mut self, id: u64, op: CoordOp, now: Instant) {
        if let Some(hit) = self.cache.get(&op) {
            self.answers.push((id, Ok(hit)));
            return;
        }
        if let CoordOp::RegisterEphemeral {
            session,
            key,
            value,
        } = &op
        {
            if Some(*session) == self.session() {
                self.mine.retain(|(k, _)| k != key);
                self.mine.push((key.clone(), value.clone()));
            }
        }
        self.send(op, Some(id), now);
    }

    /// The answers that arrived since the last call, with their askers'
    /// ids.
    pub fn take_answers(&mut self) -> Vec<(u64, Result<CoordOk>)> {
        std::mem::take(&mut self.answers)
    }

    /// Feeds one frame from the replica.
    pub fn on_reply(&mut self, reply: ClientReply, now: Instant) {
        if let ClientReply::ResponseV2 {
            session: NO_SESSION,
            payload,
            ..
        } = &reply
        {
            // The watch: the events of a command the replica applied.
            let events = parse_reply(payload).and_then(|(_, body)| decode_reply(&body).ok());
            for event in events.map_or_else(Vec::new, |(_, events)| events) {
                self.on_event(event, now);
            }
            return;
        }
        match self.core.on_reply(&reply, self.clock.at(now)) {
            Action::Completed(seq) => {
                let done = self.core.take_seq(seq).expect("completed");
                let result = match decode_reply(&done.replies[0].1) {
                    Ok((result, _)) => result.map_err(Error::Config),
                    Err(e) => Err(Error::Wire(e)),
                };
                self.answer(seq, result, now);
            }
            Action::Failed(seq, code, detail) => {
                self.core.take_failure(seq);
                let refused = format!("coordination request refused ({code:?}): {detail}");
                self.answer(seq, Err(Error::Config(refused)), now);
            }
            // Our ephemerals go again under the new session.
            Action::Opened(_) => {
                let session = self.session().expect("just opened");
                for (key, value) in self.mine.clone() {
                    let op = CoordOp::RegisterEphemeral {
                        session,
                        key,
                        value,
                    };
                    self.upkeep(op, now);
                }
            }
            Action::SessionLost(_) | Action::Resend(..) | Action::None => {}
        }
        self.outbox
            .extend(self.core.outbox.drain(..).map(|(_, f)| f));
    }

    /// The connection to `replica` closed: fail over to the next one.
    pub fn on_closed(&mut self, replica: SocketAddr, now: Instant) {
        if replica == self.replica() {
            self.fail_over(now);
        }
    }

    /// Advances the clock: abandons a replica that sat on a request for
    /// [`FAILOVER_TIMEOUT`], and keeps the session alive.
    pub fn tick(&mut self, now: Instant) {
        let (oldest, at) = (self.core.oldest_unanswered(), self.clock.at(now));
        if oldest.is_some_and(|sent| at.since(sent) >= FAILOVER_TIMEOUT) {
            self.hangup = Some(self.replica());
            self.fail_over(now);
        }
        self.core.tick(at);
        self.outbox
            .extend(self.core.outbox.drain(..).map(|(_, f)| f));
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
    /// re-send everything in flight unchanged — the session's reply cache
    /// answers a request that was already applied — and re-fetch the
    /// cache.
    pub fn reconnect(&mut self, now: Instant) {
        self.outbox.clear();
        self.core.outbox.clear();
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
        self.core.resend_ring(COORD_RING, self.clock.at(now));
        for op in self.cache.refetches() {
            self.upkeep(op, now);
        }
        self.outbox
            .extend(self.core.outbox.drain(..).map(|(_, f)| f));
    }

    fn fail_over(&mut self, now: Instant) {
        self.at = (self.at + 1) % self.addrs.len();
        self.reconnect(now);
    }

    fn send(&mut self, op: CoordOp, asker: Option<u64>, now: Instant) {
        let at = self.clock.at(now);
        let seq = (self.core).begin(COORD_RING, op.to_bytes(), Vec::new(), None, at);
        self.asks.insert(seq, (op, asker));
        self.outbox
            .extend(self.core.outbox.drain(..).map(|(_, f)| f));
    }

    /// Sends one of the link's own operations unless an identical one is
    /// in flight.
    fn upkeep(&mut self, op: CoordOp, now: Instant) {
        if !self.asks.values().any(|(o, _)| *o == op) {
            self.send(op, None, now);
        }
    }

    /// Folds the answer to `seq` into the cache, and keeps it for the
    /// asker.
    fn answer(&mut self, seq: u64, result: Result<CoordOk>, now: Instant) {
        let Some((op, asker)) = self.asks.remove(&seq) else {
            return;
        };
        if let Ok(body) = &result {
            self.update_cache(&op, body, now);
        }
        if let Some(id) = asker {
            self.answers.push((id, result));
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

/// A [`CoordLink`] as a [`Coord`] backend: a call asks under an id of its
/// own and turns the caller's-thread `Net` until that id is answered (for
/// up to twice [`FAILOVER_TIMEOUT`]: one failover).
pub struct LinkCoord {
    /// The link, its caller's-thread `Net` and the last id asked; `None`
    /// once a node loop took the link.
    state: Mutex<Option<(CoordLink, CallerNet, u64)>>,
}

impl std::fmt::Debug for LinkCoord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkCoord").finish_non_exhaustive()
    }
}

impl LinkCoord {
    fn lock(&self) -> MutexGuard<'_, Option<(CoordLink, CallerNet, u64)>> {
        self.state.lock().expect("coordination link lock")
    }

    /// The link behind `registry`, if it talks to an ensemble.
    pub fn of(registry: &Registry) -> Option<Arc<LinkCoord>> {
        let backend: Arc<dyn Any + Send + Sync> = registry.backend().clone();
        backend.downcast().ok()
    }

    /// Hands the link to an event loop: the caller's-thread `Net` and its
    /// connection are dropped, and the link reconnects through whatever
    /// the loop dials. Registry calls through this backend fail from
    /// then on. `None` if a loop already took it.
    pub fn hand_over(&self) -> Option<CoordLink> {
        let (mut link, _, _) = self.lock().take()?;
        link.reconnect(Instant::now());
        Some(link)
    }
}

impl Coord for LinkCoord {
    fn call(&self, op: CoordOp) -> Result<CoordOk> {
        let mut state = self.lock();
        let Some((link, net, last)) = &mut *state else {
            return Err(Error::Config(
                "coordination link taken by a node loop".into(),
            ));
        };
        // What arrived since the last call first: events keep the cache
        // current.
        net.turn(link, Duration::ZERO);
        *last += 1;
        let id = *last;
        link.ask(id, op, Instant::now());
        let deadline = Instant::now() + FAILOVER_TIMEOUT * 2;
        loop {
            if let Some((_, result)) = link.take_answers().into_iter().find(|(of, _)| *of == id) {
                return result;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(Error::Timeout("coordination service unreachable"));
            }
            net.turn(link, deadline - now);
        }
    }

    fn session(&self) -> Option<SessionId> {
        self.lock().as_ref().and_then(|(link, _, _)| link.session())
    }
}

/// Connects a registry to the `amcoordd` ensemble at `addrs`, driven on
/// its callers' threads, and waits for its session (of TTL
/// `session_ttl`) to open.
///
/// # Errors
///
/// Fails when `addrs` is empty or no replica opens a session in time.
pub fn connect_coord(addrs: &[SocketAddr], session_ttl: Duration) -> Result<Registry> {
    if addrs.is_empty() {
        return Err(Error::Config("no amcoordd addresses".into()));
    }
    let mut link = CoordLink::new(addrs.to_vec(), session_ttl, Instant::now());
    let mut net = CallerNet {
        net: Net::new("amcoord-dial".into(), Counter::default())?,
        events: Vec::new(),
    };
    let deadline = Instant::now() + CONNECT_DEADLINE;
    while link.session().is_none() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(Error::Timeout("no amcoordd replica opened a session"));
        }
        net.turn(&mut link, left);
    }
    let state = Mutex::new(Some((link, net, 0)));
    Ok(Registry::from_backend(Arc::new(LinkCoord { state })))
}

/// A link's sockets on its caller's thread.
struct CallerNet {
    net: Net<ClientReply, ()>,
    events: Vec<Event<ClientReply, ()>>,
}

impl CallerNet {
    /// Sends what `link` has queued, waits at most `wait` for the replica
    /// to answer, and feeds back what arrived and the clock.
    fn turn(&mut self, link: &mut CoordLink, wait: Duration) {
        flush(link, &mut self.net, |buf| buf.try_next());
        self.net.wait(wait, &mut self.events);
        let now = Instant::now();
        for event in self.events.drain(..) {
            match event {
                Event::Frame(_, reply) => link.on_reply(reply, now),
                Event::LinkDown(replica) => link.on_closed(replica, now),
                Event::Accepted(..) | Event::Closed(_) | Event::Mail(()) => {}
            }
        }
        link.tick(now);
    }
}

/// Queues what `link` has to send on `net`, whose link to the replica is
/// read with `reader`, and hangs up on a replica the link abandoned.
pub(crate) fn flush<In, M: Send + 'static>(
    link: &mut CoordLink,
    net: &mut Net<In, M>,
    reader: Reader<In>,
) {
    if let Some(abandoned) = link.take_hangup() {
        net.hang_up(abandoned);
    }
    let replica = link.replica();
    for frame in link.take_outbox() {
        net.read_link(replica, reader);
        net.send_to(replica, &frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use common::ids::Epoch;
    use common::value::SESSION_CTL;
    use common::wire::client::{ST_OK, ST_UNKNOWN_SESSION};
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
        let mut link = CoordLink::new(addrs(), Duration::from_secs(3), now);
        let ctl: Vec<_> = (requests(&mut link).into_iter())
            .filter(|(session, _, _)| *session == SESSION_CTL)
            .collect();
        assert_eq!(ctl.len(), 1, "one session open");
        link.on_reply(opened(ctl[0].1, SESSION), now);
        assert_eq!(link.session(), Some(SessionId::new(SESSION)));
        link
    }

    /// The ids of the answers collected, in order.
    fn answered(link: &mut CoordLink) -> Vec<u64> {
        link.take_answers().into_iter().map(|(id, _)| id).collect()
    }

    #[test]
    fn an_ask_is_answered_once_under_its_id() {
        let now = Instant::now();
        let mut link = open_link(now);
        let report = CoordOp::ReportFailure {
            ring: RingId::new(3),
            failed: NodeId::new(1),
            seen_epoch: Epoch::new(1),
        };
        link.ask(7, report, now);
        assert!(link.take_answers().is_empty(), "in flight");
        let sent = requests(&mut link);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, SESSION, "sent under the link's session");
        let reply = answer(SESSION, sent[0].1, Ok(CoordOk::Config(ring_cfg(2))));
        link.on_reply(reply.clone(), now);
        let answers = link.take_answers();
        assert!(matches!(answers[..], [(7, Ok(CoordOk::Config(_)))]));
        link.on_reply(reply, now);
        assert!(link.take_answers().is_empty(), "answered once");
        // The reply's config is cached: a read of the ring answers at once.
        let get = CoordOp::GetRing {
            ring: RingId::new(3),
        };
        link.ask(8, get, now);
        assert!(requests(&mut link).is_empty(), "nothing sent");
        let Some((8, Ok(CoordOk::Ring(Some(cfg))))) = link.take_answers().pop() else {
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
        link.ask(1, get.clone(), now);
        let seq = requests(&mut link)[0].1;
        link.on_reply(
            answer(SESSION, seq, Ok(CoordOk::Ring(Some(ring_cfg(1))))),
            now,
        );
        assert_eq!(answered(&mut link), [1]);
        let first = link.replica();
        link.on_closed(addrs()[1], now); // not ours: ignored
        assert_eq!(link.replica(), first);
        link.on_closed(first, now);
        assert_ne!(link.replica(), first);
        link.ask(2, get.clone(), now);
        assert_eq!(answered(&mut link), [2], "the cache survives");
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
        link.ask(1, set, now);
        let Some(ClientMsg::RequestV2 { seq, ack, .. }) = link.outbox.first().cloned() else {
            panic!("a request");
        };
        assert_eq!(ack, seq.raw() - 1, "everything before it is answered");
        let sent = requests(&mut link);
        assert_eq!(sent.len(), 1);
        link.on_closed(link.replica(), now);
        assert!(
            answered(&mut link).is_empty(),
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
        let answers = link.take_answers();
        assert!(
            matches!(answers[..], [(1, Ok(CoordOk::Version(1)))]),
            "answered once: {answers:?}"
        );
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
        link.ask(1, register.clone(), now);
        let sent = requests(&mut link);
        let first = link.replica();
        let later = now + FAILOVER_TIMEOUT;
        link.tick(later);
        assert_eq!(link.take_hangup(), Some(first));
        let resent = requests(&mut link);
        assert_eq!(resent[0].2, CoordOp::WatchAll.to_bytes());
        assert!(resent.contains(&sent[0]), "the write goes again, unchanged");
        assert!(answered(&mut link).is_empty(), "never timed out");
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
