//! The network coordination client.
//!
//! [`RemoteCoord`] speaks the framed [`common::wire::coord`] protocol to
//! an `amcoordd` ensemble. It is the backend one-process-per-node
//! deployments plug into their [`Registry`]:
//!
//! * **RPCs** — mutating operations (failure reports, elections, rejoins,
//!   session traffic) go to whichever replica the client is connected to,
//!   which replicates them before answering. Timeouts rotate the client to
//!   the next replica; a short back-off window makes repeated failures
//!   fail fast instead of stalling the caller (ring nodes call
//!   [`Registry::report_failure`] from their event loops).
//! * **Cache** — configuration reads are served from a local mirror kept
//!   fresh by pushed [`CoordEvent`]s (the client sends
//!   [`CoordOp::WatchAll`] on every connection). Ring nodes re-read their
//!   config every heartbeat; those reads never touch the network.
//! * **Session** — the client opens a TTL session at connect time and
//!   keeps it alive from a background thread. Ephemeral entries registered
//!   through [`Registry::announce`] ride on that session: if the process
//!   dies, the TTL lapses and the service drops its advertisements.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use common::error::{Error, Result};
use common::ids::{NodeId, RingId, SessionId};
use common::transport::{encode_frame, FrameBuf};
use common::wire::coord::{
    CoordEvent, CoordMsg, CoordOk, CoordOp, CoordReply, ElectOutcome, PartitionWire, RingConfigWire,
};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::registry::{Coord, Registry};

/// How a [`RemoteCoord`] finds and talks to the ensemble.
#[derive(Clone, Debug)]
pub struct CoordClientOptions {
    /// Give up on one RPC after this long (then rotate replicas).
    pub timeout: Duration,
    /// TTL requested for the client's session.
    pub session_ttl: Duration,
    /// After a connection failure, fail calls fast for this long instead
    /// of re-blocking the caller on connect attempts.
    pub backoff: Duration,
    /// How long [`RemoteCoord::connect`] keeps retrying the initial
    /// session open. Bootstrap is racy by design — nodes launch
    /// concurrently with the ensemble, which needs a moment to form its
    /// ring — so connecting is patient where steady-state calls are not.
    pub connect_deadline: Duration,
}

impl Default for CoordClientOptions {
    fn default() -> Self {
        CoordClientOptions {
            timeout: Duration::from_secs(3),
            session_ttl: Duration::from_secs(3),
            backoff: Duration::from_millis(500),
            connect_deadline: Duration::from_secs(20),
        }
    }
}

#[derive(Debug, Default)]
struct Conn {
    stream: Option<TcpStream>,
    next_addr: usize,
    next_req: u64,
    backoff_until: Option<Instant>,
    /// Bumped per established connection; reader threads carry the
    /// generation they serve so a stale reader's death cannot tear down
    /// a newer connection's state.
    generation: u64,
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
}

type ReplyResult = std::result::Result<CoordOk, String>;

#[derive(Debug)]
struct Shared {
    addrs: Vec<SocketAddr>,
    opts: CoordClientOptions,
    conn: Mutex<Conn>,
    pending: Mutex<HashMap<u64, Sender<ReplyResult>>>,
    cache: Mutex<Cache>,
    watchers: Mutex<Vec<Sender<CoordEvent>>>,
    session: Mutex<Option<SessionId>>,
    /// Ephemerals registered under our own session, re-registered if the
    /// session ever expires and is reopened.
    mine: Mutex<Vec<(String, Bytes)>>,
    stop: AtomicBool,
}

impl Drop for Shared {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // `shutdown` acts on the socket, not the fd, so the reader
        // thread's cloned handle sees EOF and exits.
        if let Some(s) = self.conn.get_mut().stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

impl Shared {
    fn drop_conn(conn: &mut Conn) {
        if let Some(s) = conn.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    /// Connects (rotating through the replica list) if not connected.
    /// Every fresh connection re-arms the watch subscription and clears
    /// the cache: events missed while disconnected could otherwise leave
    /// stale configs behind.
    fn ensure_conn(self: &Arc<Self>, conn: &mut Conn) -> Result<()> {
        if conn.stream.is_some() {
            return Ok(());
        }
        if let Some(until) = conn.backoff_until {
            if Instant::now() < until {
                return Err(Error::Timeout("coordination service (backing off)"));
            }
        }
        for _ in 0..self.addrs.len() {
            let addr = self.addrs[conn.next_addr % self.addrs.len()];
            conn.next_addr += 1;
            let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(500))
            else {
                continue;
            };
            let _ = stream.set_nodelay(true);
            let Ok(reader) = stream.try_clone() else {
                continue;
            };
            conn.generation += 1;
            spawn_reader(Arc::downgrade(self), reader, conn.generation);
            *self.cache.lock() = Cache::default();
            let req = conn.next_req;
            conn.next_req += 1;
            let watch = encode_frame(&CoordMsg {
                req,
                op: CoordOp::WatchAll,
            });
            if stream.write_all(&watch).is_err() {
                continue;
            }
            conn.stream = Some(stream);
            conn.backoff_until = None;
            return Ok(());
        }
        conn.backoff_until = Some(Instant::now() + self.opts.backoff);
        Err(Error::Timeout("no amcoordd replica reachable"))
    }

    /// One remote call: write the request, wait (without holding the
    /// connection) for the correlated reply.
    ///
    /// Failures *before* the request is written (connect failure, broken
    /// write) retry once on a fresh connection — the service never saw
    /// the operation. A reply **timeout** is different: the operation may
    /// have been replicated and applied with only the answer lost, so
    /// blindly re-sending would double-apply non-idempotent operations
    /// (a CAS that committed would then report "stale"). Timeouts
    /// therefore only retry read operations; for everything else the
    /// caller gets the timeout and decides (every registry mutation is
    /// either idempotent or epoch/version-guarded, so the caller can
    /// re-read and re-issue safely).
    fn rpc(self: &Arc<Self>, op: CoordOp) -> Result<CoordOk> {
        let mut last = Error::Timeout("coordination service unreachable");
        for _ in 0..2 {
            let (req, rx, sent_gen) = {
                let mut conn = self.conn.lock();
                if let Err(e) = self.ensure_conn(&mut conn) {
                    last = e;
                    continue;
                }
                let sent_gen = conn.generation;
                let req = conn.next_req;
                conn.next_req += 1;
                let (tx, rx) = bounded::<ReplyResult>(1);
                self.pending.lock().insert(req, tx);
                let frame = encode_frame(&CoordMsg {
                    req,
                    op: op.clone(),
                });
                let wrote = conn
                    .stream
                    .as_mut()
                    .map(|s| s.write_all(&frame).is_ok())
                    .unwrap_or(false);
                if !wrote {
                    Self::drop_conn(&mut conn);
                    self.pending.lock().remove(&req);
                    last = Error::Timeout("coordination connection broke");
                    continue;
                }
                (req, rx, sent_gen)
            };
            match rx.recv_timeout(self.opts.timeout) {
                Ok(Ok(body)) => return Ok(body),
                Ok(Err(reason)) => return Err(Error::Config(reason)),
                Err(RecvTimeoutError::Disconnected) => {
                    // Our sender was dropped by `on_disconnect`: the
                    // connection is already torn down (and may have been
                    // *replaced* by a healthy one a concurrent caller
                    // opened — do not touch it, and do not back off:
                    // `ensure_conn` rotates to the next replica at once).
                    last = Error::Timeout("coordination connection lost");
                    if op.kind() != common::wire::coord::OpKind::Read {
                        return Err(last);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.pending.lock().remove(&req);
                    let mut conn = self.conn.lock();
                    // Only punish the connection this call was sent on;
                    // a newer one belongs to callers that already
                    // failed over.
                    if conn.generation == sent_gen {
                        Self::drop_conn(&mut conn);
                        conn.backoff_until = Some(Instant::now() + self.opts.backoff);
                    }
                    last = Error::Timeout("coordination request timed out");
                    if op.kind() != common::wire::coord::OpKind::Read {
                        return Err(last);
                    }
                }
            }
        }
        Err(last)
    }

    /// Tears down connection state when the reader serving `generation`
    /// observes EOF or corruption. The config cache dies *with the
    /// watch feeding it*: events missed between the disconnect and the
    /// next reconnect would otherwise leave `ring()` serving stale
    /// configuration from the cache — silently, and for as long as no
    /// cache-missing call happened to reconnect (replica failover made
    /// this a real staleness window, not a theoretical one).
    fn on_disconnect(&self, generation: u64) {
        let mut conn = self.conn.lock();
        if conn.generation != generation {
            return; // a newer connection replaced this one already
        }
        Self::drop_conn(&mut conn);
        *self.cache.lock() = Cache::default();
        // Fail in-flight calls immediately (dropping a sender wakes its
        // waiter with Disconnected): their replies can never arrive on
        // this connection, and waiting out the full RPC timeout only
        // delays the caller's failover to the next replica. The matched
        // generation guarantees every pending entry belongs to the
        // connection that just died — `rpc` registers pendings under the
        // same conn lock we hold.
        self.pending.lock().clear();
    }

    /// Applies a pushed event to the cache, then fans it out to watchers.
    fn handle_event(&self, event: CoordEvent) {
        {
            let mut cache = self.cache.lock();
            match &event {
                CoordEvent::RingChanged { cfg } => cache.install_ring(cfg),
                CoordEvent::SubscribersChanged { ring, subscribers } => {
                    cache.subscribers.insert(*ring, subscribers.clone());
                }
                CoordEvent::PartitionsChanged => cache.partitions = None,
                CoordEvent::MetaChanged { key, .. } => {
                    cache.meta.remove(key);
                }
                CoordEvent::EphemeralChanged { .. } | CoordEvent::SessionExpired { .. } => {}
            }
        }
        let mut watchers = self.watchers.lock();
        watchers.retain(|tx| tx.send(event.clone()).is_ok());
    }

    /// Folds an RPC result back into the cache.
    fn update_cache(&self, op: &CoordOp, body: &CoordOk) {
        let mut cache = self.cache.lock();
        match (op, body) {
            (_, CoordOk::Config(cfg)) => cache.install_ring(cfg),
            (CoordOp::GetRing { .. }, CoordOk::Ring(Some(cfg))) => cache.install_ring(cfg),
            (CoordOp::ElectCoordinator { ring, .. }, CoordOk::Election(ElectOutcome::Won(_))) => {
                // The new config arrives as a pushed event; drop the stale
                // entry so reads in the gap re-fetch.
                cache.rings.remove(ring);
            }
            (_, CoordOk::Election(ElectOutcome::Lost(cfg))) => cache.install_ring(cfg),
            (CoordOp::Subscribers { ring }, CoordOk::Nodes(subs)) => {
                cache.subscribers.insert(*ring, subs.clone());
            }
            (CoordOp::Subscribe { ring, .. }, _) => {
                cache.subscribers.remove(ring);
            }
            (CoordOp::Partitions, CoordOk::Partitions(ps)) => {
                cache.partitions = Some(ps.clone());
            }
            (CoordOp::RegisterPartition { .. } | CoordOp::EnsurePartition { .. }, _) => {
                cache.partitions = None;
            }
            (CoordOp::GetMeta { key }, CoordOk::Meta(Some(m))) => {
                cache.meta.insert(key.clone(), m.clone());
            }
            (CoordOp::SetMeta { key, .. }, _) => {
                cache.meta.remove(key);
            }
            _ => {}
        }
    }

    /// Serves `op` from the cache when possible.
    fn cached(&self, op: &CoordOp) -> Option<CoordOk> {
        let cache = self.cache.lock();
        match op {
            CoordOp::GetRing { ring } => cache
                .rings
                .get(ring)
                .map(|cfg| CoordOk::Ring(Some(cfg.clone()))),
            CoordOp::Subscribers { ring } => cache
                .subscribers
                .get(ring)
                .map(|subs| CoordOk::Nodes(subs.clone())),
            CoordOp::Partitions => cache
                .partitions
                .as_ref()
                .map(|ps| CoordOk::Partitions(ps.clone())),
            CoordOp::GetPartition { partition } => cache.partitions.as_ref().map(|ps| {
                CoordOk::Partition(ps.iter().find(|p| p.partition == *partition).cloned())
            }),
            CoordOp::PartitionOf { replica } => cache.partitions.as_ref().map(|ps| {
                CoordOk::PartitionOf(
                    ps.iter()
                        .find(|p| p.replicas.contains(replica))
                        .map(|p| p.partition),
                )
            }),
            CoordOp::GetMeta { key } => cache.meta.get(key).map(|m| CoordOk::Meta(Some(m.clone()))),
            _ => None,
        }
    }

    /// Keep-alive tick: refresh the session, reopening it (and
    /// re-registering our ephemerals) if it expired while we were
    /// partitioned from the ensemble.
    fn heartbeat(self: &Arc<Self>) {
        let session = *self.session.lock();
        match session {
            None => {
                self.reopen_session();
            }
            Some(s) => match self.rpc(CoordOp::KeepAlive { session: s }) {
                Ok(_) => {}
                Err(Error::Config(reason)) if reason.contains("unknown session") => {
                    self.reopen_session();
                }
                Err(_) => {} // transient; next tick retries
            },
        }
    }

    fn reopen_session(self: &Arc<Self>) {
        let ttl_ms = self.opts.session_ttl.as_millis() as u64;
        if let Ok(CoordOk::Session(id)) = self.rpc(CoordOp::OpenSession { ttl_ms }) {
            *self.session.lock() = Some(id);
            for (key, value) in self.mine.lock().clone() {
                let _ = self.rpc(CoordOp::RegisterEphemeral {
                    session: id,
                    key,
                    value,
                });
            }
        }
    }
}

/// Reads frames off one connection: correlated replies are routed to
/// their waiting callers, events to the cache + watchers. Holds only a
/// weak handle so a dropped client tears the thread down with it. On
/// exit (EOF, error, corruption) the connection's cache is invalidated
/// eagerly via [`Shared::on_disconnect`] — the watch feeding it is dead.
fn spawn_reader(shared: Weak<Shared>, stream: TcpStream, generation: u64) {
    std::thread::Builder::new()
        .name("amcoord-client-reader".into())
        .spawn(move || {
            reader_loop(&shared, stream, generation);
            if let Some(shared) = shared.upgrade() {
                if !shared.stop.load(Ordering::SeqCst) {
                    shared.on_disconnect(generation);
                }
            }
        })
        .expect("spawn coord reader");
}

fn reader_loop(shared: &Weak<Shared>, mut stream: TcpStream, generation: u64) {
    let mut buf = FrameBuf::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => {
                buf.extend(&chunk[..n]);
                loop {
                    let frame = match buf.try_next::<CoordReply>() {
                        Ok(Some(f)) => f,
                        Ok(None) => break,
                        Err(_) => return, // corrupt stream: drop it
                    };
                    let Some(shared) = shared.upgrade() else {
                        return;
                    };
                    if shared.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    match frame {
                        CoordReply::Ok { req, body } => {
                            if let Some(tx) = shared.pending.lock().remove(&req) {
                                let _ = tx.send(Ok(body));
                            }
                        }
                        CoordReply::Err { req, reason } => {
                            if let Some(tx) = shared.pending.lock().remove(&req) {
                                let _ = tx.send(Err(reason));
                            }
                        }
                        CoordReply::Event(event) => {
                            // A superseded reader may still be draining
                            // frames buffered before its socket died;
                            // applying them would overwrite cache state
                            // the *replacement* connection's fresh watch
                            // just installed (only RingChanged is
                            // epoch-guarded). Correlated replies above
                            // are safe — req ids never repeat across
                            // connections — but events are last-writer-
                            // wins, so stale readers must not write. The
                            // conn lock is held *across* the write:
                            // bumping the generation requires it, so
                            // check-and-apply is atomic (lock order
                            // conn → cache matches every other path).
                            let conn = shared.conn.lock();
                            if conn.generation == generation {
                                shared.handle_event(event);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A connected coordination-service client (the remote [`Coord`]
/// backend).
#[derive(Debug)]
pub struct RemoteCoord {
    shared: Arc<Shared>,
}

impl RemoteCoord {
    /// Connects to the ensemble, opens a session and starts the
    /// keep-alive thread.
    ///
    /// # Errors
    ///
    /// Fails when no replica is reachable or the session cannot be
    /// opened in time.
    pub fn connect(addrs: &[SocketAddr], opts: CoordClientOptions) -> Result<Arc<RemoteCoord>> {
        if addrs.is_empty() {
            return Err(Error::Config("no amcoordd addresses".into()));
        }
        let keepalive_every = (opts.session_ttl / 3).max(Duration::from_millis(100));
        let shared = Arc::new(Shared {
            addrs: addrs.to_vec(),
            opts,
            conn: Mutex::new(Conn::default()),
            pending: Mutex::new(HashMap::new()),
            cache: Mutex::new(Cache::default()),
            watchers: Mutex::new(Vec::new()),
            session: Mutex::new(None),
            mine: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let ttl_ms = shared.opts.session_ttl.as_millis() as u64;
        let deadline = Instant::now() + shared.opts.connect_deadline;
        loop {
            match shared.rpc(CoordOp::OpenSession { ttl_ms }) {
                Ok(CoordOk::Session(id)) => {
                    *shared.session.lock() = Some(id);
                    break;
                }
                Ok(other) => {
                    return Err(Error::Config(format!(
                        "OpenSession: unexpected reply {other:?}"
                    )))
                }
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(250));
                }
            }
        }
        let weak = Arc::downgrade(&shared);
        std::thread::Builder::new()
            .name("amcoord-keepalive".into())
            .spawn(move || loop {
                std::thread::sleep(keepalive_every);
                let Some(shared) = weak.upgrade() else { return };
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                shared.heartbeat();
            })
            .map_err(Error::Io)?;
        Ok(Arc::new(RemoteCoord { shared }))
    }
}

impl Coord for RemoteCoord {
    fn call(&self, op: CoordOp) -> Result<CoordOk> {
        if let Some(hit) = self.shared.cached(&op) {
            return Ok(hit);
        }
        let body = self.shared.rpc(op.clone())?;
        self.shared.update_cache(&op, &body);
        if let CoordOp::RegisterEphemeral {
            session,
            key,
            value,
        } = &op
        {
            if Some(*session) == *self.shared.session.lock() {
                let mut mine = self.shared.mine.lock();
                mine.retain(|(k, _)| k != key);
                mine.push((key.clone(), value.clone()));
            }
        }
        Ok(body)
    }

    fn watch(&self) -> Receiver<CoordEvent> {
        let (tx, rx) = unbounded();
        self.shared.watchers.lock().push(tx);
        rx
    }

    fn session(&self) -> Option<SessionId> {
        *self.shared.session.lock()
    }
}

impl Registry {
    /// Connects this registry handle to an `amcoordd` ensemble at
    /// `addrs`.
    ///
    /// # Errors
    ///
    /// Fails when no replica is reachable.
    pub fn connect(addrs: &[SocketAddr], opts: CoordClientOptions) -> Result<Registry> {
        Ok(Registry::from_backend(RemoteCoord::connect(addrs, opts)?))
    }
}
