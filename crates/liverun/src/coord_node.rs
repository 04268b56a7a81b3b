//! `amcoord` — the replicated coordination service, as a node.
//!
//! An `amcoordd` replica is the data node's loop ([`crate::node`]) over a
//! one-ring host: ring [`COORD_RING`], every replica a member, acceptor and
//! subscriber of one partition. Its service is `CoordApp`, a
//! [`ServiceApp`] over [`coord::CoordState`], so a replica has exactly the
//! data node's batching, gap healing, checkpoints, session sweep, WAL and
//! recovery (§5.2), and the consensus protocol amcoord coordinates also
//! orders amcoord's own state changes.
//!
//! **The coordination wire** is served by a `CoordFront` on the loop
//! thread. Every operation, reads included, is proposed on the ring under
//! a synthetic client id per connection and answered once applied here,
//! so reads are linearizable. `WatchAll`, `InstallConfig` and `Stats` are
//! answered by the loop. Every replica fans the events of every applied
//! command out to its own watchers, in apply order; a watcher whose
//! buffer is full is cut off, since a dropped event would leave its cache
//! silently stale while a reconnect re-arms the watch.
//!
//! **Sessions** reach the node loop's sweep as `(refresh_seq, ttl_ms)`;
//! its `SessionCtl::Expire` applies as the [`CoordOp::ExpireSession`] CAS,
//! which a keep-alive racing through the log wins.
//!
//! **The bootstrap ring.** The one ring amcoord cannot coordinate through
//! itself is its own. Each replica keeps it in a local registry seeded
//! from the static replica list (Zookeeper's statically configured
//! ensemble, §7.1), reconfigured by failure detection with deterministic
//! local CASes. The loop gossips each epoch change of it to the peers as
//! [`CoordOp::InstallConfig`], answers a peer's older view with its own,
//! and re-admits itself when a newer view no longer contains it.
//!
//! **Durability.** With a `wal_dir` every applied command is
//! group-committed to a rotated WAL (`node-<id>/shard-0/`), pruned by host
//! checkpoints. Every boot is the data node's restart path — rejoin, the
//! newest checkpoint from a peer quorum, acceptor retransmission — so
//! writes survive any minority.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use common::error::{Error, Result};
use common::ids::{ClientId, Epoch, NodeId, PartitionId, RequestId, RingId, SessionId};
use common::msg::{ClientMsg, Msg};
use common::obs::{Counter, Obs};
use common::transport::WallClock;
use common::value::{Envelope, NO_SESSION, SESSION_CTL};
use common::wire::coord::{CoordEvent, CoordMsg, CoordOk, CoordOp, CoordReply, RingConfigWire};
use common::wire::{get_vec, put_vec, Wire};
use coord::state::ApplyResult;
use coord::{CoordState, PartitionInfo, Registry, RingConfig};
use multiring::{HostOptions, MultiRingHost, ServiceApp, SessionCtl};
use ringpaxos::options::RingOptions;

use crate::batch::BatchOptions;
use crate::deployment::{durable, wait_wal_released};
use crate::net::{ConnId, Net};
use crate::node::{refresh_stats, spawn_node, NodeHandle, NodeSetup};

/// The ring id the ensemble replicates its own log on (a private
/// namespace — this ring never appears in any deployment's registry).
pub const COORD_RING: RingId = RingId::new(0);

/// A replica's checkpoint cadence, which is also its trim cadence.
const CHECKPOINT_EVERY: Duration = Duration::from_secs(1);

/// Static description of one amcoordd ensemble, identical in every
/// replica (like a Zookeeper server list).
#[derive(Clone, Debug)]
pub struct CoordServerConfig {
    /// This replica's id (an index into the address lists).
    pub id: NodeId,
    /// Ring (replica ↔ replica consensus) addresses, one per replica.
    pub ring_addrs: Vec<SocketAddr>,
    /// Client-serving addresses, one per replica.
    pub client_addrs: Vec<SocketAddr>,
    /// Directory for the replica's WAL of applied commands
    /// (`node-<id>/shard-0/seg-*.wal`). `None` disables it; a restarted
    /// replica recovers from its peers either way.
    pub wal_dir: Option<PathBuf>,
    /// Period of the session-expiry sweep.
    pub session_check: Duration,
    /// Roll the WAL to a new segment every this many records (0 means
    /// 4096); checkpoints delete whole segments below their cut. Only
    /// meaningful with `wal_dir`.
    pub checkpoint_every: u64,
}

impl CoordServerConfig {
    /// A localhost ensemble of `n` replicas with sequential ports from
    /// `base_port` (ring ports first, then client ports); `id` names this
    /// replica.
    pub fn localhost(id: u32, n: u16, base_port: u16) -> Self {
        let addrs = |from: u16| {
            (0..n)
                .map(|i| SocketAddr::from(([127, 0, 0, 1], from + i)))
                .collect()
        };
        CoordServerConfig {
            id: NodeId::new(id),
            ring_addrs: addrs(base_port),
            client_addrs: addrs(base_port + n),
            wal_dir: None,
            session_check: Duration::from_millis(500),
            checkpoint_every: 256,
        }
    }

    /// The replica ids, in ring order.
    pub fn members(&self) -> Vec<NodeId> {
        (0..self.ring_addrs.len() as u32).map(NodeId::new).collect()
    }

    /// This replica's client-serving address.
    ///
    /// # Errors
    ///
    /// Fails if `id` is out of range or the address lists disagree.
    pub fn my_client_addr(&self) -> Result<SocketAddr> {
        if self.ring_addrs.is_empty() || self.ring_addrs.len() != self.client_addrs.len() {
            return Err(Error::Config(
                "amcoordd needs equal, non-empty ring/client address lists".into(),
            ));
        }
        self.client_addrs
            .get(self.id.raw() as usize)
            .copied()
            .ok_or_else(|| {
                Error::Config(format!(
                    "amcoordd id {} out of range for {} replicas",
                    self.id,
                    self.ring_addrs.len()
                ))
            })
    }
}

/// The coordination state machine as a replicated service. A command is
/// an encoded [`CoordOp`], or the node loop's session-expiry control; its
/// reply is the [`CoordReply`] for the proposing client followed by the
/// events the operation produced.
#[derive(Default)]
pub(crate) struct CoordApp {
    state: CoordState,
}

impl ServiceApp for CoordApp {
    fn execute(&mut self, _group: RingId, env: &Envelope) -> Bytes {
        let op = match env.session {
            SESSION_CTL => match SessionCtl::decode(&mut env.cmd.clone()) {
                Ok(SessionCtl::Expire {
                    session,
                    seen_refresh,
                }) => Some(CoordOp::ExpireSession {
                    session: SessionId::new(session),
                    seen_refresh,
                }),
                _ => None,
            },
            _ => CoordOp::decode(&mut env.cmd.clone()).ok(),
        };
        let (result, events) = match op {
            Some(op) => self.state.apply(&op),
            None => (Err("malformed coordination command".into()), Vec::new()),
        };
        let mut buf = BytesMut::new();
        reply_of(env.req.raw(), result).encode(&mut buf);
        put_vec(&mut buf, &events);
        buf.freeze()
    }

    fn snapshot(&self) -> Bytes {
        self.state.snapshot()
    }

    fn snapshot_into(&self, buf: &mut BytesMut) {
        self.state.encode_snapshot(buf);
    }

    fn restore(&mut self, state: &Bytes) {
        if let Ok(state) = CoordState::decode_snapshot(&mut state.clone()) {
            self.state = state;
        }
    }

    fn reset(&mut self) {
        self.state = CoordState::new();
    }

    fn session_probe(&self, session: u64) -> Option<(u64, u64)> {
        self.state
            .session(SessionId::new(session))
            .map(|s| (s.refresh_seq, s.ttl_ms))
    }

    fn session_ids(&self) -> Vec<u64> {
        self.state.sessions().map(|(id, _)| id.raw()).collect()
    }

    /// Coordination session ids carry no home-ring tag: every session
    /// lives on the one ring.
    fn session_ring(&self, _session: u64) -> Option<RingId> {
        Some(COORD_RING)
    }
}

fn reply_of(req: u64, result: ApplyResult) -> CoordReply {
    match result {
        Ok(body) => CoordReply::Ok { req, body },
        Err(reason) => CoordReply::Err { req, reason },
    }
}

/// Splits a [`CoordApp`] reply into the client's answer and the events.
fn split_applied(payload: &Bytes) -> Option<(CoordReply, Vec<CoordEvent>)> {
    let mut raw = payload.clone();
    let reply = CoordReply::decode(&mut raw).ok()?;
    Some((reply, get_vec(&mut raw).ok()?))
}

/// The coordination wire of one replica, driven by its node loop.
pub(crate) struct CoordFront {
    me: NodeId,
    /// This replica's view of its own ring.
    registry: Registry,
    /// The other replicas' client addresses, where views are gossiped.
    peers: Vec<SocketAddr>,
    obs: Obs,
    applied: Counter,
    /// The epoch of the own-ring view last gossiped.
    gossiped: Option<Epoch>,
    /// The host was recovering at the last tick.
    recovering: bool,
    /// Connections that sent [`CoordOp::WatchAll`].
    watchers: HashSet<ConnId>,
}

impl CoordFront {
    /// Handles one request: answers it here, or returns the envelope to
    /// propose on [`COORD_RING`].
    pub(crate) fn on_msg<In, M: Send + 'static>(
        &mut self,
        net: &mut Net<In, M>,
        conn: ConnId,
        CoordMsg { req, op }: CoordMsg,
        host: &MultiRingHost,
    ) -> Option<Envelope> {
        let body = match op {
            CoordOp::WatchAll => {
                self.watchers.insert(conn);
                Ok(CoordOk::Unit)
            }
            CoordOp::InstallConfig { cfg } => {
                self.install(cfg);
                Ok(CoordOk::Unit)
            }
            // Metrics live in the process, not in the replicated state;
            // the apply counter is the ring's delivery cursor.
            CoordOp::Stats => {
                if let Some(cursor) = host.checkpoint_tuple().and_then(|t| t.get(COORD_RING)) {
                    self.applied.seed(cursor.raw());
                }
                refresh_stats(host, &self.obs);
                Ok(CoordOk::Stats(self.obs.snapshot()))
            }
            // The synthetic client id is the connection's: `Net` never
            // reuses one and starts at 1, so a reply can only reach the
            // connection that asked (client 0, the session sweep's, none).
            op => match u32::try_from(conn) {
                Ok(client) => {
                    return Some(Envelope {
                        client: ClientId::new(client),
                        req: RequestId::new(req),
                        reply_to: self.me,
                        session: NO_SESSION,
                        ack: 0,
                        trace: 0,
                        cmd: op.to_bytes(),
                    })
                }
                Err(_) => Err("connection ids exhausted; restart this replica".into()),
            },
        };
        net.send(conn, &reply_of(req, body));
        None
    }

    /// Installs a peer's view of this ring. A peer gossiping an older
    /// view (it restarted, or missed a reconfiguration) gets this
    /// replica's back at the next tick.
    fn install(&mut self, cfg: RingConfigWire) {
        let ours = self.registry.ring(COORD_RING).map(|c| c.epoch());
        if cfg.ring == COORD_RING && ours.is_ok_and(|ours| cfg.epoch < ours) {
            self.gossiped = None;
        }
        let _ = self.registry.install_config(cfg);
    }

    /// Takes every applied command's reply out of `outbox`: answers the
    /// ones proposed for this replica's connections and fans the events
    /// of all of them out to the watchers.
    pub(crate) fn take_replies<In, M: Send + 'static>(
        &mut self,
        outbox: &mut Vec<(NodeId, Msg)>,
        net: &mut Net<In, M>,
    ) {
        outbox.retain(|(to, msg)| {
            let Msg::Client(ClientMsg::Response {
                client, payload, ..
            }) = msg
            else {
                return true;
            };
            let Some((reply, events)) = split_applied(payload) else {
                return false;
            };
            if *to == self.me {
                net.send(ConnId::from(client.raw()), &reply);
            }
            let stalled: Vec<ConnId> = self
                .watchers
                .iter()
                .copied()
                .filter(|c| {
                    !events
                        .iter()
                        .all(|e| net.send(*c, &CoordReply::Event(e.clone())))
                })
                .collect();
            self.cut_off(net, &stalled);
            false
        });
    }

    /// Once per loop turn: cuts off watchers that subscribed while the
    /// host recovered, re-admits this replica to its own ring if a newer
    /// view dropped it, and gossips every new view to the peers.
    pub(crate) fn tick<In, M: Send + 'static>(&mut self, net: &mut Net<In, M>, recovering: bool) {
        if std::mem::replace(&mut self.recovering, recovering) && !recovering {
            // Recovery installed a checkpoint without per-operation
            // events, so their caches may be behind it.
            let watching: Vec<ConnId> = self.watchers.iter().copied().collect();
            self.cut_off(net, &watching);
        }
        let Ok(mut cfg) = self.registry.ring(COORD_RING) else {
            return;
        };
        if !cfg.contains(self.me) {
            match self.registry.rejoin(COORD_RING, self.me, true) {
                Ok(rejoined) => cfg = rejoined,
                Err(_) => return,
            }
        }
        if self.gossiped != Some(cfg.epoch()) {
            self.gossiped = Some(cfg.epoch());
            let gossip = CoordMsg {
                req: 0,
                op: CoordOp::InstallConfig { cfg: cfg.to_wire() },
            };
            for peer in &self.peers {
                net.send_to(*peer, &gossip);
            }
        }
    }

    fn cut_off<In, M: Send + 'static>(&mut self, net: &mut Net<In, M>, conns: &[ConnId]) {
        for conn in conns {
            net.close(*conn);
            self.closed(*conn);
        }
    }

    /// `conn` is gone.
    pub(crate) fn closed(&mut self, conn: ConnId) {
        self.watchers.remove(&conn);
    }
}

/// Handle to one running amcoordd replica.
pub struct CoordServerHandle {
    node: NodeHandle,
    client_addr: SocketAddr,
}

impl CoordServerHandle {
    /// The address clients connect to.
    pub fn client_addr(&self) -> SocketAddr {
        self.client_addr
    }

    /// Stops the replica: stops the loop and joins it. The loop owns
    /// every socket and the WAL, so when this returns both ports and the
    /// WAL lock are released.
    pub fn shutdown(self) {
        self.node.shutdown();
    }
}

/// Starts one amcoordd replica of `config`, through the data node's
/// restart path: whatever the ensemble committed while this replica was
/// down arrives as a peer checkpoint plus acceptor retransmission, and on
/// a fresh ensemble that recovery finds nothing and ends at once.
///
/// # Errors
///
/// Fails if the configuration is inconsistent, a listener cannot bind or
/// the WAL cannot open (e.g. another live process holds its lock).
pub fn start_coord_server(config: CoordServerConfig) -> Result<CoordServerHandle> {
    let client_addr = config.my_client_addr()?;
    let me = config.id;
    let members = config.members();
    let registry = Registry::new();
    registry.register_ring(RingConfig::new(
        COORD_RING,
        members.clone(),
        members.clone(),
    )?)?;
    let partition = PartitionId::new(0);
    registry.register_partition(
        partition,
        PartitionInfo {
            rings: vec![COORD_RING],
            replicas: members.clone(),
        },
    )?;
    let obs = Obs::for_node(me.raw());
    let roll_every = Some(config.checkpoint_every)
        .filter(|n| *n > 0)
        .unwrap_or(4096);
    let app = Box::<CoordApp>::default();
    let app = durable(config.wal_dir.as_deref(), roll_every, me, app, &obs)?;
    let host_opts = HostOptions {
        ring: RingOptions {
            heartbeat_interval: Duration::from_millis(25),
            failure_timeout: Duration::from_millis(400),
            proposal_retry: Duration::from_millis(300),
            obs: obs.clone(),
            ..RingOptions::default()
        },
        // What a restarting peer fetches, what lets the WAL prune, and
        // what the acceptors trim against (§5.2).
        checkpoint_interval: Some(CHECKPOINT_EVERY),
        trim_interval: Some(CHECKPOINT_EVERY),
        recovery_retry: Duration::from_millis(100),
        ..HostOptions::default()
    };
    let front = CoordFront {
        me,
        registry: registry.clone(),
        peers: (config.client_addrs.iter().enumerate())
            .filter(|(i, _)| *i != me.raw() as usize)
            .map(|(_, addr)| *addr)
            .collect(),
        applied: obs.counter("coord_applied"),
        obs: obs.clone(),
        gossiped: None,
        recovering: true,
        watchers: HashSet::new(),
    };
    let setup = NodeSetup {
        me,
        member_of: vec![COORD_RING],
        subscribe_to: vec![COORD_RING],
        partition: Some(partition),
        registry,
        coord_link: None,
        host_opts,
        batch_opts: BatchOptions::default(),
        peer_addrs: members
            .into_iter()
            .zip(config.ring_addrs.iter().copied())
            .collect(),
        peer_addr: config.ring_addrs[me.raw() as usize],
        client_addr,
        clock: WallClock::start(),
        client_window: 1,
        credit_min_window: 1,
        credit_backlog_high: 0,
        obs,
        session_sweep: config.session_check,
        kind: "amcoord",
        coord: Some(front),
    };
    let node = spawn_node(setup, app, true)?;
    Ok(CoordServerHandle { node, client_addr })
}

/// An in-process amcoordd ensemble — the coordination-service
/// counterpart of [`Deployment`](crate::Deployment): launches `n`
/// replicas over localhost TCP and drives the same kill /
/// restart-in-place orchestration for coord nodes that `Deployment`
/// drives for data nodes.
pub struct CoordEnsemble {
    configs: Vec<CoordServerConfig>,
    replicas: Vec<Option<CoordServerHandle>>,
}

impl CoordEnsemble {
    /// Launches one replica per entry of `configs` (all describing the
    /// same ensemble, differing only in `id`).
    ///
    /// # Errors
    ///
    /// Fails if any replica fails to start; already-started replicas are
    /// shut down.
    pub fn launch(configs: Vec<CoordServerConfig>) -> Result<Self> {
        let mut replicas: Vec<Option<CoordServerHandle>> = Vec::new();
        for config in &configs {
            match start_coord_server(config.clone()) {
                Ok(h) => replicas.push(Some(h)),
                Err(e) => {
                    for h in replicas.into_iter().flatten() {
                        h.shutdown();
                    }
                    return Err(e);
                }
            }
        }
        Ok(CoordEnsemble { configs, replicas })
    }

    /// A localhost ensemble of `n` replicas on sequential ports from
    /// `base_port`, persisting replica state under `wal_dir` when given.
    ///
    /// # Errors
    ///
    /// Fails if a replica cannot start (port in use, WAL locked).
    pub fn localhost(n: u16, base_port: u16, wal_dir: Option<&std::path::Path>) -> Result<Self> {
        let configs = (0..n)
            .map(|id| {
                let mut c = CoordServerConfig::localhost(u32::from(id), n, base_port);
                c.wal_dir = wal_dir.map(std::path::Path::to_path_buf);
                c
            })
            .collect();
        Self::launch(configs)
    }

    /// The replica client addresses, in id order (dead replicas included
    /// — clients rotate past them).
    pub fn client_addrs(&self) -> Vec<SocketAddr> {
        self.configs
            .iter()
            .filter_map(|c| c.my_client_addr().ok())
            .collect()
    }

    fn slot(&self, id: u32) -> Result<usize> {
        if (id as usize) < self.replicas.len() {
            Ok(id as usize)
        } else {
            Err(Error::Config(format!("no amcoordd replica {id}")))
        }
    }

    /// Kills replica `id`: its loop stops and its sockets close. The
    /// replica's WAL lock is verified released before returning, so a
    /// restart-in-place never races the dying replica for the log.
    ///
    /// # Errors
    ///
    /// Fails if the replica is unknown, already dead, or its WAL lock
    /// outlives the shutdown.
    pub fn kill(&mut self, id: u32) -> Result<()> {
        let i = self.slot(id)?;
        let handle = self.replicas[i]
            .take()
            .ok_or_else(|| Error::Config(format!("amcoordd replica {id} is not running")))?;
        handle.shutdown();
        match &self.configs[i].wal_dir {
            Some(dir) => wait_wal_released(dir, NodeId::new(id)),
            None => Ok(()),
        }
    }

    /// Restarts a killed replica in place: same id, same addresses, same
    /// `wal_dir`; it rejoins its original ensemble and recovers what was
    /// committed while it was down from its peers.
    ///
    /// # Errors
    ///
    /// Fails if the replica is unknown, still running, or fails to boot.
    pub fn restart(&mut self, id: u32) -> Result<()> {
        let i = self.slot(id)?;
        if self.replicas[i].is_some() {
            return Err(Error::Config(format!(
                "amcoordd replica {id} is still running"
            )));
        }
        self.replicas[i] = Some(start_coord_server(self.configs[i].clone())?);
        Ok(())
    }

    /// True when replica `id` is currently running.
    pub fn is_running(&self, id: u32) -> bool {
        self.slot(id)
            .map(|i| self.replicas[i].is_some())
            .unwrap_or(false)
    }

    /// Stops every running replica.
    pub fn shutdown(self) {
        for h in self.replicas.into_iter().flatten() {
            h.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::wire::coord::OpKind;

    fn env(req: u64, op: &CoordOp) -> Envelope {
        Envelope {
            client: ClientId::new(1),
            req: RequestId::new(req),
            reply_to: NodeId::new(0),
            session: NO_SESSION,
            ack: 0,
            trace: 0,
            cmd: op.to_bytes(),
        }
    }

    /// What the node loop's sweep proposes for a lapsed session.
    fn expire(session: SessionId, seen_refresh: u64) -> Envelope {
        Envelope {
            session: SESSION_CTL,
            cmd: SessionCtl::Expire {
                session: session.raw(),
                seen_refresh,
            }
            .to_bytes(),
            ..env(0, &CoordOp::WatchAll)
        }
    }

    fn run(app: &mut CoordApp, req: u64, op: CoordOp) -> (CoordReply, Vec<CoordEvent>) {
        split_applied(&app.execute(COORD_RING, &env(req, &op))).expect("a coord reply")
    }

    fn open(app: &mut CoordApp, ttl_ms: u64) -> SessionId {
        match run(app, 1, CoordOp::OpenSession { ttl_ms }).0 {
            CoordReply::Ok {
                body: CoordOk::Session(id),
                ..
            } => id,
            other => panic!("open: {other:?}"),
        }
    }

    fn ephemeral(app: &mut CoordApp, session: SessionId, key: &str) {
        let op = CoordOp::RegisterEphemeral {
            session,
            key: key.into(),
            value: Bytes::from_static(b"v"),
        };
        assert!(matches!(run(app, 2, op).0, CoordReply::Ok { req: 2, .. }));
    }

    /// The ops that build a small but complete state, applied both
    /// through the app and straight to a `CoordState`.
    fn ops() -> Vec<CoordOp> {
        let cfg = RingConfig::new(RingId::new(4), vec![NodeId::new(1)], vec![NodeId::new(1)])
            .unwrap()
            .to_wire();
        vec![
            CoordOp::OpenSession { ttl_ms: 900 },
            CoordOp::RegisterRing { cfg },
            CoordOp::SetMeta {
                key: "scheme".into(),
                value: Bytes::from_static(b"x"),
                expected_version: Some(0),
            },
            CoordOp::RegisterEphemeral {
                session: SessionId::new(0),
                key: "nodes/1".into(),
                value: Bytes::from_static(b"a"),
            },
        ]
    }

    #[test]
    fn snapshot_is_the_state_encoding_and_survives_a_restore() {
        let (mut app, mut state) = (CoordApp::default(), CoordState::new());
        for (i, op) in ops().into_iter().enumerate() {
            run(&mut app, i as u64, op.clone());
            assert!(state.apply(&op).0.is_ok());
        }
        let mut direct = BytesMut::new();
        state.encode_snapshot(&mut direct);
        let snap = app.snapshot();
        assert_eq!(snap, direct.freeze(), "byte-identical to encode_snapshot");
        let mut into = BytesMut::new();
        app.snapshot_into(&mut into);
        assert_eq!(into.freeze(), snap);

        let mut restored = CoordApp::default();
        restored.restore(&snap);
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.session_ids(), vec![0]);
        assert_eq!(restored.session_probe(0), Some((0, 900)));
        restored.reset();
        assert_eq!(restored.snapshot(), CoordApp::default().snapshot());
    }

    #[test]
    fn sweep_expiry_loses_to_a_racing_keep_alive_and_wins_after_the_ttl() {
        let mut app = CoordApp::default();
        let session = open(&mut app, 600);
        ephemeral(&mut app, session, "nodes/9");
        assert_eq!(app.session_ring(session.raw()), Some(COORD_RING));
        // The sweep read the counter at 0; a keep-alive is ordered before
        // its expiry.
        let (seen, ttl) = app.session_probe(session.raw()).unwrap();
        assert_eq!((seen, ttl), (0, 600));
        run(&mut app, 3, CoordOp::KeepAlive { session });
        let (reply, events) =
            split_applied(&app.execute(COORD_RING, &expire(session, seen))).unwrap();
        assert!(matches!(reply, CoordReply::Ok { .. }));
        assert!(events.is_empty(), "the keep-alive won the CAS: {events:?}");
        assert_eq!(app.session_probe(session.raw()), Some((1, 600)));

        // A TTL with no keep-alive later the sweep proposes the reading it
        // saw, and wins.
        let (seen, _) = app.session_probe(session.raw()).unwrap();
        let (_, events) = split_applied(&app.execute(COORD_RING, &expire(session, seen))).unwrap();
        assert_eq!(
            events,
            vec![
                CoordEvent::EphemeralChanged {
                    key: "nodes/9".into(),
                    alive: false
                },
                CoordEvent::SessionExpired { session }
            ]
        );
        assert_eq!(app.session_probe(session.raw()), None);
        assert!(app.session_ids().is_empty());
    }

    #[test]
    fn execute_returns_the_reply_and_events_in_apply_order() {
        let mut app = CoordApp::default();
        let session = open(&mut app, 1000);
        ephemeral(&mut app, session, "a");
        ephemeral(&mut app, session, "b");
        let set = CoordOp::SetMeta {
            key: "k".into(),
            value: Bytes::from_static(b"1"),
            expected_version: None,
        };
        assert_eq!(
            run(&mut app, 7, set),
            (
                CoordReply::Ok {
                    req: 7,
                    body: CoordOk::Version(1)
                },
                vec![CoordEvent::MetaChanged {
                    key: "k".into(),
                    version: 1
                }]
            )
        );
        let (reply, events) = run(&mut app, 8, CoordOp::CloseSession { session });
        assert_eq!(
            reply,
            CoordReply::Ok {
                req: 8,
                body: CoordOk::Unit
            }
        );
        assert_eq!(
            events,
            vec![
                CoordEvent::EphemeralChanged {
                    key: "a".into(),
                    alive: false
                },
                CoordEvent::EphemeralChanged {
                    key: "b".into(),
                    alive: false
                },
                CoordEvent::SessionExpired { session },
            ]
        );
        // A refused operation answers with its reason and no events.
        let (reply, events) = run(&mut app, 9, CoordOp::KeepAlive { session });
        assert!(matches!(reply, CoordReply::Err { req: 9, .. }), "{reply:?}");
        assert!(events.is_empty());
    }

    #[test]
    fn a_read_leaves_the_snapshot_unchanged() {
        let mut app = CoordApp::default();
        for (i, op) in ops().into_iter().enumerate() {
            run(&mut app, i as u64, op);
        }
        let before = app.snapshot();
        let reads = [
            CoordOp::GetMeta {
                key: "scheme".into(),
            },
            CoordOp::GetRing {
                ring: RingId::new(4),
            },
            CoordOp::RingIds,
            CoordOp::Partitions,
            CoordOp::Ephemerals {
                prefix: "nodes/".into(),
            },
        ];
        for (i, op) in reads.into_iter().enumerate() {
            assert_eq!(op.kind(), OpKind::Read);
            let (reply, events) = run(&mut app, 100 + i as u64, op);
            assert!(matches!(reply, CoordReply::Ok { .. }), "{reply:?}");
            assert!(events.is_empty());
        }
        let (reply, _) = run(
            &mut app,
            200,
            CoordOp::GetMeta {
                key: "scheme".into(),
            },
        );
        assert_eq!(
            reply,
            CoordReply::Ok {
                req: 200,
                body: CoordOk::Meta(Some((1, Bytes::from_static(b"x"))))
            }
        );
        assert_eq!(app.snapshot(), before);
    }
}
