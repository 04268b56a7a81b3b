//! `amcoord` — the replicated coordination service, as a node.
//!
//! An `amcoordd` replica is the data node's loop ([`crate::node`]) over a
//! one-ring host: ring [`COORD_RING`], every replica a member, acceptor and
//! subscriber of one partition. Its service stack is the data node's,
//! `DurableApp(SessionApp(CoordApp))`: `CoordApp` is a [`ServiceApp`]
//! over [`coord::CoordState`], so a replica has exactly the data node's
//! batching, gap healing, checkpoints, session table and sweep, WAL and
//! recovery (§5.2), and the consensus protocol amcoord coordinates also
//! orders amcoord's own state changes.
//!
//! **One client protocol.** The client listener speaks protocol v2 like
//! any data node's: a coordination client says `HelloV2`, opens an
//! exactly-once session on [`COORD_RING`] and sends each [`CoordOp`] as a
//! `RequestV2`, which the loop proposes on the ring — reads included, so
//! reads are linearizable — and answers once applied, routed by client
//! id like any data reply. A retry of an applied `(session, seq)` is
//! answered from the session table's reply cache. Stats are the loop's
//! `StatsRequest`.
//!
//! **One session table.** A coordination session is a `SessionApp`
//! session, kept alive by `SessionCtl::KeepAlive` and expired by the node
//! loop's sweep. An ephemeral entry belongs to the session that
//! registered it: when the table removes that session, `CoordApp` drops
//! its entries in the same delivery, on every replica.
//!
//! **The watch is a reply stream.** A `CoordFront` on the loop thread
//! answers what is not a replicated op. A [`CoordOp::WatchAll`] is
//! answered at once, and from then on every command this replica applies
//! hands its events to the front, which sends them to the watcher as
//! further replies to that request — whichever replica answers the
//! command itself; a watcher whose buffer is full is cut off, since a
//! dropped event would leave its cache silently stale while a reconnect
//! re-arms the watch.
//!
//! **The bootstrap ring.** The one ring amcoord cannot coordinate through
//! itself is its own. Each replica keeps it in a local registry seeded
//! from the static replica list (Zookeeper's statically configured
//! ensemble, §7.1), reconfigured by failure detection with deterministic
//! local CASes. The front gossips each epoch change of it to the peers as
//! a [`CoordOp::InstallConfig`] request under a client id reserved for
//! this replica, answers a peer's older view with its own, and re-admits
//! itself when a newer view no longer contains it.
//!
//! **Durability.** With a `wal_dir` every applied command is
//! group-committed to a rotated WAL (`node-<id>/shard-0/`), pruned by host
//! checkpoints. Every boot is the data node's restart path — rejoin, the
//! newest checkpoint from a peer quorum, acceptor retransmission — so
//! writes survive any minority.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use common::error::{Error, Result};
use common::ids::{ClientId, Epoch, NodeId, PartitionId, RequestId, RingId, SessionId};
use common::obs::{Counter, Obs};
use common::transport::WallClock;
use common::value::{Envelope, NO_SESSION, SESSION_CTL};
use common::wire::client::{ClientMsg, ClientReply, FEAT_ALL};
use common::wire::coord::{encode_reply, CoordOk, CoordOp, RingConfigWire, COORD_RING};
use common::wire::Wire;
use coord::{CoordState, PartitionInfo, Registry, RingConfig};
use multiring::session::frame_ok;
use multiring::{HostOptions, MultiRingHost, ServiceApp, SessionApp, SessionLimits};
use ringpaxos::options::RingOptions;

use crate::batch::BatchOptions;
use crate::deployment::{durable, wait_wal_released};
use crate::net::{ConnId, Net};
use crate::node::{spawn_node, NodeHandle, NodeSetup};

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
    /// 4096); each checkpoint deletes the whole segments below the
    /// position marked at the previous one. Only meaningful with
    /// `wal_dir`.
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
/// an encoded [`CoordOp`]; its reply is the operation's result followed
/// by the events it produced ([`encode_reply`]).
#[derive(Default)]
pub(crate) struct CoordApp {
    state: CoordState,
    /// The replies of applied commands that produced events, in apply
    /// order, until the replica's [`CoordFront`] sends them to its
    /// watchers.
    events: Arc<Mutex<Vec<Bytes>>>,
}

impl ServiceApp for CoordApp {
    fn execute(&mut self, _group: RingId, env: &Envelope) -> Bytes {
        let (result, events) = match CoordOp::decode(&mut env.cmd.clone()) {
            // An ephemeral belongs to the session that registers it, so
            // the session's removal can take it.
            Ok(CoordOp::RegisterEphemeral { session, .. })
                if env.session == NO_SESSION || session.raw() != env.session =>
            {
                let refusal = format!("ephemeral owner {session} is not the requesting session");
                (Err(refusal), Vec::new())
            }
            Ok(op) => self.state.apply(&op),
            Err(_) => (Err("malformed coordination command".into()), Vec::new()),
        };
        let reply = encode_reply(&result, &events);
        if !events.is_empty() {
            (self.events.lock().expect("events lock")).push(reply.clone());
        }
        reply
    }

    fn snapshot(&self) -> Bytes {
        self.state.snapshot()
    }

    fn restore(&mut self, state: &Bytes) {
        if let Ok(state) = CoordState::decode_snapshot(&mut state.clone()) {
            self.state = state;
        }
    }

    fn reset(&mut self) {
        self.state = CoordState::new();
    }

    fn session_removed(&mut self, session: u64) {
        self.state.drop_session(SessionId::new(session));
    }
}

/// What a replica answers itself rather than ordering on its ring: the
/// watch, its own ring's gossip, and its re-admission to that ring.
pub(crate) struct CoordFront {
    me: NodeId,
    /// This replica's view of its own ring.
    registry: Registry,
    /// The other replicas' client addresses, where views are gossiped.
    peers: Vec<SocketAddr>,
    applied: Counter,
    /// The epoch of the own-ring view last gossiped.
    gossiped: Option<Epoch>,
    /// The host was recovering at the last tick.
    recovering: bool,
    /// Connections that sent a [`CoordOp::WatchAll`], with that request's
    /// `(session, seq)`.
    watchers: HashMap<ConnId, (u64, RequestId)>,
    /// What the replica's [`CoordApp`] applied with events since the
    /// last fan-out.
    events: Arc<Mutex<Vec<Bytes>>>,
}

impl CoordFront {
    /// Answers a request this replica handles itself — a watch, or a
    /// peer's view of this ring — and says whether it did. Every other
    /// request is ordered on the ring.
    pub(crate) fn answer_local<In, M: Send + 'static>(
        &mut self,
        net: &mut Net<In, M>,
        conn: ConnId,
        env: &Envelope,
    ) -> bool {
        let (session, seq) = (env.session, env.req);
        if session == SESSION_CTL {
            return false;
        }
        match CoordOp::decode(&mut env.cmd.clone()) {
            Ok(CoordOp::WatchAll) => {
                self.watchers.insert(conn, (session, seq));
            }
            Ok(CoordOp::InstallConfig { cfg }) => self.install(cfg),
            _ => return false,
        }
        let payload = frame_ok(&encode_reply(&Ok(CoordOk::Unit), &[]));
        net.send(conn, &self.response(session, seq, payload));
        true
    }

    fn response(&self, session: u64, seq: RequestId, payload: Bytes) -> ClientReply {
        ClientReply::ResponseV2 {
            session,
            seq,
            from_replica: self.me,
            payload,
        }
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

    /// Sends the events of every command applied since the last call to
    /// the watchers, in apply order. The replies themselves reach their
    /// clients like any data reply.
    pub(crate) fn fan_out<In, M: Send + 'static>(&mut self, net: &mut Net<In, M>) {
        let applied = std::mem::take(&mut *self.events.lock().expect("events lock"));
        for body in applied {
            let payload = frame_ok(&body);
            let stalled: Vec<ConnId> = (self.watchers.iter())
                .filter(|(conn, (session, seq))| {
                    !net.send(**conn, &self.response(*session, *seq, payload.clone()))
                })
                .map(|(conn, _)| *conn)
                .collect();
            self.cut_off(net, &stalled);
        }
    }

    /// Seeds the apply counter from the ring's delivery cursor: metrics
    /// live in the process, not in the replicated state.
    pub(crate) fn seed_applied(&self, host: &MultiRingHost) {
        if let Some(cursor) = host.checkpoint_tuple().and_then(|t| t.get(COORD_RING)) {
            self.applied.seed(cursor.raw());
        }
    }

    /// Once per loop turn: cuts off watchers that subscribed while the
    /// host recovered, re-admits this replica to its own ring if a newer
    /// view dropped it, and gossips every new view to the peers.
    pub(crate) fn tick<In, M: Send + 'static>(&mut self, net: &mut Net<In, M>, recovering: bool) {
        if std::mem::replace(&mut self.recovering, recovering) && !recovering {
            // Recovery installed a checkpoint without per-operation
            // events, so their caches may be behind it.
            let watching: Vec<ConnId> = self.watchers.keys().copied().collect();
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
            // Client ids below the links' are the replicas' own.
            let hello = ClientMsg::HelloV2 {
                client: ClientId::new(self.me.raw()),
                features: FEAT_ALL,
            };
            let gossip = ClientMsg::RequestV2 {
                session: NO_SESSION,
                seq: RequestId::new(0),
                ack: 0,
                group: COORD_RING,
                cmd: CoordOp::InstallConfig { cfg: cfg.to_wire() }.to_bytes(),
            };
            for peer in &self.peers {
                net.send_to(*peer, &hello);
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
    let coord_app = CoordApp::default();
    let events = Arc::clone(&coord_app.events);
    let app = Box::new(SessionApp::new(Box::new(coord_app)));
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
        session_sweep: config.session_check,
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
        gossiped: None,
        recovering: true,
        watchers: HashMap::new(),
        events,
    };
    let setup = NodeSetup {
        me,
        member_of: vec![COORD_RING],
        subscribe_to: vec![COORD_RING],
        partition: Some(partition),
        registry,
        coord_link: None,
        netem: None,
        host_opts,
        batch_opts: BatchOptions::default(),
        peer_addrs: members
            .into_iter()
            .zip(config.ring_addrs.iter().copied())
            .collect(),
        peer_addr: config.ring_addrs[me.raw() as usize],
        client_addr,
        clock: WallClock::start(),
        // The session table's reply cache bounds what a client keeps in
        // flight; the window only tells it so.
        client_window: SessionLimits::default().max_cached as u32,
        credit_min_window: SessionLimits::default().max_cached as u32,
        credit_backlog_high: 0,
        obs,
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
    use common::wire::client::{
        parse_open_reply, parse_reply, SessionCtl, ST_OK, ST_UNKNOWN_SESSION,
    };
    use common::wire::coord::{decode_reply, CoordEvent, CoordResult};

    fn env(session: u64, seq: u64, cmd: Bytes) -> Envelope {
        Envelope {
            client: ClientId::new(1),
            req: RequestId::new(seq),
            reply_to: NodeId::new(0),
            session,
            ack: 0,
            trace: 0,
            cmd,
        }
    }

    /// The replica's service stack, less the WAL.
    fn stack() -> SessionApp {
        SessionApp::new(Box::<CoordApp>::default())
    }

    fn ctl(app: &mut SessionApp, ctl: SessionCtl) -> Bytes {
        app.execute(COORD_RING, &env(SESSION_CTL, 0, ctl.to_bytes()))
    }

    fn open(app: &mut SessionApp, ttl_ms: u64) -> u64 {
        let reply = ctl(app, SessionCtl::Open { token: 1, ttl_ms });
        parse_open_reply(&reply).expect("a session")
    }

    /// Runs `op` under `session` through the session table (which frames
    /// a sessioned reply with its status).
    fn run(app: &mut SessionApp, session: u64, seq: u64, op: CoordOp) -> Answer {
        let reply = app.execute(COORD_RING, &env(session, seq, op.to_bytes()));
        let body = match session {
            NO_SESSION => reply,
            _ => match parse_reply(&reply) {
                Some((ST_OK, body)) => body,
                other => panic!("not executed: {other:?}"),
            },
        };
        decode_reply(&body).expect("a coord reply")
    }

    /// Runs `op` under `session` on the bare service.
    fn apply(app: &mut CoordApp, session: u64, op: CoordOp) -> Answer {
        let reply = app.execute(COORD_RING, &env(session, 0, op.to_bytes()));
        decode_reply(&reply).expect("a coord reply")
    }

    type Answer = (CoordResult, Vec<CoordEvent>);

    fn ephemeral(session: u64, key: &str) -> CoordOp {
        CoordOp::RegisterEphemeral {
            session: SessionId::new(session),
            key: key.into(),
            value: Bytes::from_static(b"v"),
        }
    }

    fn all_ephemerals() -> CoordOp {
        CoordOp::Ephemerals {
            prefix: String::new(),
        }
    }

    fn keys((result, _): Answer) -> Vec<String> {
        match result {
            Ok(CoordOk::Ephemerals(es)) => es.into_iter().map(|e| e.key).collect(),
            other => panic!("ephemerals: {other:?}"),
        }
    }

    /// The ops that build a small but complete state, applied both
    /// through the app (under session 7) and straight to a `CoordState`.
    fn ops() -> Vec<CoordOp> {
        let cfg = RingConfig::new(RingId::new(4), vec![NodeId::new(1)], vec![NodeId::new(1)])
            .unwrap()
            .to_wire();
        vec![
            CoordOp::RegisterRing { cfg },
            CoordOp::SetMeta {
                key: "scheme".into(),
                value: Bytes::from_static(b"x"),
                expected_version: Some(0),
            },
            ephemeral(7, "nodes/1"),
        ]
    }

    #[test]
    fn snapshot_is_the_state_encoding_and_survives_a_restore() {
        let (mut app, mut state) = (CoordApp::default(), CoordState::new());
        for op in ops() {
            assert!(apply(&mut app, 7, op.clone()).0.is_ok());
            assert!(state.apply(&op).0.is_ok());
        }
        let snap = app.snapshot();
        assert_eq!(snap, state.snapshot(), "byte-identical to the state's");

        let mut restored = CoordApp::default();
        restored.restore(&snap);
        assert_eq!(restored.snapshot(), snap);
        restored.reset();
        assert_eq!(restored.snapshot(), CoordApp::default().snapshot());
    }

    #[test]
    fn sweep_expiry_loses_to_a_racing_keep_alive_and_wins_after_the_ttl() {
        let mut app = stack();
        let session = open(&mut app, 600);
        assert_eq!(multiring::session_home_ring(session), Some(COORD_RING));
        assert!(run(&mut app, session, 1, ephemeral(session, "nodes/9"))
            .0
            .is_ok());
        // The sweep read the counter at 0; a keep-alive is ordered before
        // its expiry.
        assert_eq!(app.session_probe(session), Some((0, 600)));
        ctl(&mut app, SessionCtl::KeepAlive { session });
        let expire = |seen_refresh| SessionCtl::Expire {
            session,
            seen_refresh,
        };
        ctl(&mut app, expire(0));
        assert_eq!(app.session_probe(session), Some((1, 600)));
        let left = keys(run(&mut app, session, 2, all_ephemerals()));
        assert_eq!(left, ["nodes/9"], "the keep-alive won");

        // A TTL with no keep-alive later the sweep proposes the reading it
        // saw, and wins: the session and its ephemeral go.
        ctl(&mut app, expire(1));
        assert_eq!(app.session_probe(session), None);
        assert!(app.session_ids().is_empty());
        assert!(keys(run(&mut app, NO_SESSION, 3, all_ephemerals())).is_empty());
        let late = app.execute(COORD_RING, &env(session, 4, CoordOp::RingIds.to_bytes()));
        assert_eq!(
            parse_reply(&late).map(|(st, _)| st),
            Some(ST_UNKNOWN_SESSION)
        );
    }

    #[test]
    fn a_removed_session_drops_exactly_its_ephemerals() {
        let mut app = CoordApp::default();
        for (session, key) in [(3, "a"), (4, "b"), (3, "c")] {
            assert!(apply(&mut app, session, ephemeral(session, key)).0.is_ok());
        }
        app.session_removed(3);
        assert_eq!(keys(apply(&mut app, NO_SESSION, all_ephemerals())), ["b"]);
        app.session_removed(3);
        assert_eq!(keys(apply(&mut app, NO_SESSION, all_ephemerals())), ["b"]);
    }

    #[test]
    fn execute_returns_the_reply_and_events_in_apply_order() {
        let mut app = stack();
        let session = open(&mut app, 1000);
        let set = CoordOp::SetMeta {
            key: "k".into(),
            value: Bytes::from_static(b"1"),
            expected_version: None,
        };
        assert_eq!(
            run(&mut app, session, 1, set),
            (
                Ok(CoordOk::Version(1)),
                vec![CoordEvent::MetaChanged {
                    key: "k".into(),
                    version: 1
                }]
            )
        );
        // A refused operation answers with its reason and no events.
        let stale = CoordOp::SetMeta {
            key: "k".into(),
            value: Bytes::from_static(b"2"),
            expected_version: Some(0),
        };
        let (result, events) = run(&mut app, session, 2, stale);
        assert!(result.is_err(), "{result:?}");
        assert!(events.is_empty());
        // So does an ephemeral claimed for another session, or for none.
        for (owner, under) in [(session + 1, session), (0, NO_SESSION)] {
            let (result, _) = run(&mut app, under, 3, ephemeral(owner, "x"));
            assert!(result.is_err(), "owner {owner} under {under}: {result:?}");
        }
        assert!(keys(run(&mut app, session, 4, all_ephemerals())).is_empty());
    }

    #[test]
    fn a_read_leaves_the_snapshot_unchanged() {
        let mut app = CoordApp::default();
        for op in ops() {
            assert!(apply(&mut app, 7, op).0.is_ok());
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
        for op in reads {
            let (result, events) = apply(&mut app, 7, op);
            assert!(result.is_ok(), "{result:?}");
            assert!(events.is_empty());
        }
        let get = CoordOp::GetMeta {
            key: "scheme".into(),
        };
        assert_eq!(
            apply(&mut app, 7, get).0,
            Ok(CoordOk::Meta(Some((1, Bytes::from_static(b"x")))))
        );
        assert_eq!(app.snapshot(), before);
    }
}
