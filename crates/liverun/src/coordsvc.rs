//! `amcoord` — the replicated coordination service (`amcoordd` runtime).
//!
//! Each `amcoordd` replica is one member of a dedicated Ring Paxos ring
//! that serves as the service's replicated log — the stack is
//! self-hosting: the consensus protocol whose deployments amcoord
//! coordinates also orders amcoord's own state changes. No new consensus
//! code exists here; a replica is
//!
//! * one [`ringpaxos::RingNode`] owned by the server loop (the log),
//! * one [`coord::CoordState`] applied in decided order (the state),
//! * a framed-TCP front end speaking [`common::wire::coord`] to clients
//!   (liverun nodes, CLIs, fellow replicas).
//!
//! All three live on **one thread**: the server loop waits on its ring
//! port, its client port and every connection they accepted in one
//! `ppoll` (the crate-private `net` module's readiness loop), reads
//! client frames and ring frames alike, feeds the ring node, group-
//! commits what it decided, applies it and answers the waiting client in
//! the same turn. Every socket is non-blocking; the loop never blocks on
//! one. Two helpers run beside it and post to its mailbox: the gossip
//! feed (see below) and, when the gap watchdog fires, the catch-up fetch.
//!
//! Mutating operations are proposed to the ring tagged with the serving
//! replica and a sequence number; when the decision comes back around,
//! *every* replica applies it and the proposer answers its waiting
//! client. Reads are answered from applied state (the Zookeeper
//! consistency model). Watch events fan out to every connection that sent
//! [`CoordOp::WatchAll`].
//!
//! **Sessions.** TTL liveness is tracked per replica off the *applied*
//! keep-alive stream (every replica sees every keep-alive, so any replica
//! can time any session against its own clock). When a TTL lapses, the
//! observing replica proposes [`CoordOp::ExpireSession`] carrying the
//! refresh counter it saw — a keep-alive racing through the log wins the
//! CAS and the session survives.
//!
//! **The bootstrap ring.** The one ring amcoord cannot coordinate through
//! itself is its own: members gossip deterministic, epoch-guarded
//! reconfigurations ([`CoordOp::InstallConfig`]) to each other instead.
//! This mirrors Zookeeper's statically configured ensemble (§7.1): the
//! replica list is fixed at launch, and losing a minority only costs the
//! gossiped failover hop.
//!
//! **Durability & restart-in-place.** With a `wal_dir`, a replica's
//! decided log is group-committed through a rotated
//! [`storage::wal::SegmentedWal`] (bounded `seg-*.wal` files under
//! `amcoord-<id>.walseg/`, guarded by writer locks) and its applied
//! [`CoordState`] is checkpointed every
//! [`CoordServerConfig::checkpoint_every`] applied records via
//! [`storage::CheckpointFile`]. Each successful periodic checkpoint also
//! *prunes* the log: closed segments whose records all sit below the
//! checkpoint cursor are deleted, so checkpoints bound replay **and**
//! rotation bounds disk. Boot follows Zookeeper's snapshot + log-replay
//! recipe: load the latest checkpoint, replay the
//! WAL suffix at or beyond its cursor, then — before serving clients —
//! fetch a [`CoordOp::SnapshotRequest`] snapshot from a live peer and
//! install it if it is ahead (the jump is checkpointed before the cursor
//! moves, so a crash never leaves a hole between checkpoint and log),
//! and only then start the ring member at the resulting cursor. A
//! sweep-time watchdog repeats the peer fetch if the learner ever blocks
//! on a gap the ring will not re-circulate. One caveat remains: the
//! acceptor's *vote* log is volatile, so safety across a restart leans on
//! the surviving majority's intact logs (the usual minority-failure
//! assumption), not on the restarted replica's own promises.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use common::error::{Error, Result};
use common::ids::{InstanceId, NodeId, RingId, SessionId};
use common::msg::{AcceptedEntry, Msg, RingMsg};
use common::obs::{Counter, Gauge, Obs, WireCounters};
use common::transport::{PeerFrame, TimerHeap, WallClock};
use common::value::Value;
use common::wire::coord::{
    CoordCmd, CoordEvent, CoordMsg, CoordOk, CoordOp, CoordReply, OpKind, RingConfigWire,
};
use common::wire::Wire;
use common::Ballot;
use coord::{CoordState, Registry, RingConfig};
use ringpaxos::{Output, RingNode, RingOptions, RingTimer};
use storage::checkpoint::CheckpointFile;
use storage::wal::{DecidedLog, SegmentedWal, SyncPolicy};

use crate::net::{self, spawn_loop, ConnId, Event, Mailer, Net, Reader};

/// The ring id the ensemble replicates its own log on (a private
/// namespace — this ring never appears in any deployment's registry).
pub const COORD_RING: RingId = RingId::new(0);

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
    /// Directory for the replica's durable state — the rotated
    /// decided-log segments (`amcoord-<id>.walseg/seg-*.wal`) and the
    /// state checkpoint (`amcoord-<id>.ckpt`). `None` disables
    /// durability (a restarted replica then relies entirely on peer
    /// catch-up).
    pub wal_dir: Option<PathBuf>,
    /// How often the replica sweeps for lapsed sessions.
    pub session_check: Duration,
    /// Write a `CoordState` checkpoint every this many applied log
    /// records (0 disables checkpointing; replay then walks the whole
    /// WAL). Only meaningful with `wal_dir`.
    pub checkpoint_every: u64,
}

impl CoordServerConfig {
    /// A localhost ensemble of `n` replicas with sequential ports from
    /// `base_port` (ring ports first, then client ports); `id` names this
    /// replica.
    pub fn localhost(id: u32, n: u16, base_port: u16) -> Self {
        let ring_addrs = (0..n)
            .map(|i| format!("127.0.0.1:{}", base_port + i).parse().unwrap())
            .collect();
        let client_addrs = (0..n)
            .map(|i| format!("127.0.0.1:{}", base_port + n + i).parse().unwrap())
            .collect();
        CoordServerConfig {
            id: NodeId::new(id),
            ring_addrs,
            client_addrs,
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
        self.validate()?;
        Ok(self.client_addrs[self.id.raw() as usize])
    }

    fn validate(&self) -> Result<()> {
        if self.ring_addrs.is_empty() || self.ring_addrs.len() != self.client_addrs.len() {
            return Err(Error::Config(
                "amcoordd needs equal, non-empty ring/client address lists".into(),
            ));
        }
        if self.id.raw() as usize >= self.ring_addrs.len() {
            return Err(Error::Config(format!(
                "amcoordd id {} out of range for {} replicas",
                self.id,
                self.ring_addrs.len()
            )));
        }
        Ok(())
    }
}

/// What arrives on a replica's sockets.
enum Inbound {
    /// A consensus frame from a fellow replica.
    Ring(PeerFrame),
    /// A client request (or a fellow replica's config gossip).
    Client(CoordMsg),
}

/// What reaches the server loop from other threads.
enum Mail {
    /// Our own consensus ring reconfigured; gossip it to the peers.
    Gossip(RingConfigWire),
    /// A gap-watchdog peer fetch finished (off-thread — the fetch can
    /// block seconds and must not stall serving), `None` if no peer
    /// answered.
    CatchUp(Option<PeerSnapshot>),
    /// Stop the replica.
    Shutdown,
}

/// Adopts a peer's view of the ensemble's own consensus ring and
/// re-admits `me` if that view no longer contains it (the survivors
/// detected our death and reconfigured around us). Both steps are
/// epoch-guarded local CASes whose RingChanged events the gossip feed
/// relays to the peers.
fn rejoin_ensemble_ring(ring_registry: &Registry, me: NodeId, peer_ring: Option<RingConfigWire>) {
    let Some(wire) = peer_ring else { return };
    let _ = ring_registry.install_config(wire);
    if let Ok(cur) = ring_registry.ring(COORD_RING) {
        if !cur.contains(me) {
            let _ = ring_registry.rejoin(COORD_RING, me, true);
        }
    }
}

/// The replica's durable half: the applied state and its log cursor,
/// the decided log feeding it and the checkpoint slot bounding replay.
struct ReplicaDurability {
    state: CoordState,
    applied: InstanceId,
    wal: Option<SegmentedWal>,
    ckpt: Option<CheckpointFile>,
    checkpoint_every: u64,
    /// Applied records since the last checkpoint.
    since_ckpt: u64,
}

impl ReplicaDurability {
    /// Deletes rotated log segments wholly below the cursor — a durable
    /// checkpoint covers them, no replay can need them again.
    fn prune_log(&mut self) {
        if let Some(wal) = &mut self.wal {
            let _ = wal.prune_below(self.applied.raw());
        }
    }

    /// Writes a checkpoint of the applied state once `checkpoint_every`
    /// records were applied since the last one: replay after a restart
    /// is snapshot + WAL suffix, not the whole history. Failures (full
    /// disk, torn rename target) leave it due so the next applied record
    /// retries; the WAL remains authoritative either way. On success the
    /// decided log is pruned.
    fn checkpoint_if_due(&mut self) {
        let Some(slot) = &self.ckpt else { return };
        if self.checkpoint_every == 0 || self.since_ckpt < self.checkpoint_every {
            return;
        }
        let snapshot = self.state.snapshot();
        if slot.save(self.applied.raw(), &snapshot).is_ok() {
            self.since_ckpt = 0;
            self.prune_log();
        }
    }

    /// Installs a peer snapshot if it is ahead. The jump is checkpointed
    /// durably *before* the state moves (and the caller moves the
    /// learner cursor after that): subsequent WAL appends continue from
    /// the new cursor, so a replay must never have to cross the hole
    /// between the old cursor and the snapshot.
    ///
    /// Returns `Ok(true)` when our state is now at least as current as
    /// the peer's answer (installed, or we were already ahead).
    /// `Ok(false)` means the peer is ahead but its snapshot did not
    /// decode (version skew, corruption) — the caller must keep trying,
    /// **not** conclude it caught up.
    fn install_snapshot(&mut self, peer_applied: u64, bytes: &bytes::Bytes) -> Result<bool> {
        if peer_applied <= self.applied.raw() {
            return Ok(true);
        }
        let Ok(state) = CoordState::decode_snapshot(&mut bytes.clone()) else {
            return Ok(false);
        };
        if let Some(slot) = &self.ckpt {
            slot.save(peer_applied, bytes)?;
        }
        self.state = state;
        self.applied = InstanceId::new(peer_applied);
        // That was a checkpoint at the new cursor: restart the periodic
        // cadence from it, and drop the log below it.
        self.since_ckpt = 0;
        self.prune_log();
        Ok(true)
    }
}

/// Handle to one running amcoordd replica.
pub struct CoordServerHandle {
    mailer: Mailer<Mail>,
    join: Option<JoinHandle<()>>,
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
    pub fn shutdown(mut self) {
        self.mailer.post(Mail::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// The decided-log segment directory of replica `id` under `dir`. The
/// log is rotated: bounded `seg-<first-instance>.wal` files, closed
/// segments wholly below the checkpoint cursor deleted on each periodic
/// checkpoint (checkpoints bound *replay*; rotation bounds *disk*).
pub fn wal_seg_dir(dir: &std::path::Path, id: NodeId) -> PathBuf {
    dir.join(format!("amcoord-{}.walseg", id.raw()))
}

/// The checkpoint path of replica `id` under `dir`.
pub fn checkpoint_path(dir: &std::path::Path, id: NodeId) -> PathBuf {
    dir.join(format!("amcoord-{}.ckpt", id.raw()))
}

/// Replays one decided-log record into `state`, advancing `applied`.
/// Records below the cursor (already covered by a checkpoint or a peer
/// snapshot) are skipped; non-[`CoordCmd`] payloads (no-ops, skips)
/// advance the cursor without touching state. Events are discarded —
/// nobody is watching a replica that has not started serving.
///
/// Returns `false` on a **hole**: a record *beyond* the cursor. The log
/// is contiguous in normal operation, but a peer-snapshot install jumps
/// the cursor past instances this replica never logged; if the
/// checkpoint recording that jump is later lost (corrupt slot falls
/// back to whole-log replay), crossing the hole would silently build
/// divergent state. The caller must stop replaying — a consistent
/// prefix plus peer catch-up is correct, a gapped replay is not.
#[must_use]
fn apply_log_entry(
    state: &mut CoordState,
    applied: &mut InstanceId,
    inst: InstanceId,
    value: &Value,
) -> bool {
    if inst < *applied {
        return true;
    }
    if inst > *applied {
        return false;
    }
    if let Some(bytes) = value.payload() {
        let mut raw = bytes.clone();
        if let Ok(cmd) = CoordCmd::decode(&mut raw) {
            let _ = state.apply(&cmd.op);
        }
    }
    *applied = inst.plus(value.instance_span());
    true
}

/// A peer's answer to the catch-up RPC.
struct PeerSnapshot {
    /// The peer's applied log cursor.
    applied: u64,
    /// The peer's view of the ensemble's own consensus ring.
    ensemble_ring: Option<RingConfigWire>,
    /// The encoded `CoordState` at `applied`.
    state: bytes::Bytes,
}

/// Fetches a [`CoordOk::Snapshot`] from **every** reachable peer
/// (waiting up to `timeout` per peer) and keeps the one with the
/// highest applied cursor — judging "caught up" against whichever peer
/// happens to answer first could adopt a *behind* peer's view and stop
/// looking (e.g. two freshly restarted replicas electing each other's
/// empty state while the one up-to-date peer is transiently
/// unreachable). The ensemble-ring view is taken from the
/// highest-epoch answer; installs of both are guarded anyway.
fn fetch_peer_snapshot(peers: &[SocketAddr], timeout: Duration) -> Option<PeerSnapshot> {
    let mut best: Option<PeerSnapshot> = None;
    for addr in peers {
        let Some(snap) = fetch_one_snapshot(*addr, timeout) else {
            continue;
        };
        match &mut best {
            None => best = Some(snap),
            Some(b) => {
                if snap
                    .ensemble_ring
                    .as_ref()
                    .map(|c| c.epoch)
                    .cmp(&b.ensemble_ring.as_ref().map(|c| c.epoch))
                    .is_gt()
                {
                    b.ensemble_ring = snap.ensemble_ring.clone();
                }
                if snap.applied > b.applied {
                    b.applied = snap.applied;
                    b.state = snap.state;
                }
            }
        }
    }
    best
}

/// One peer's catch-up answer, or `None` if unreachable/unresponsive.
fn fetch_one_snapshot(addr: SocketAddr, timeout: Duration) -> Option<PeerSnapshot> {
    let request = CoordMsg {
        req: 1,
        op: CoordOp::SnapshotRequest,
    };
    net::call(addr, &request, timeout, |reply| match reply {
        CoordReply::Ok {
            req: 1,
            body:
                CoordOk::Snapshot {
                    applied,
                    ensemble_ring,
                    state,
                },
        } => Some(PeerSnapshot {
            applied,
            ensemble_ring,
            state,
        }),
        _ => None,
    })
    .ok()
}

/// Starts one amcoordd replica of `config`.
///
/// With a `wal_dir`, boot is the recovery path: latest checkpoint + WAL
/// suffix are replayed into the state machine, a live peer's snapshot is
/// fetched (and installed if ahead), the ring member comes up at the
/// resulting delivery cursor, and only then does the client listener
/// bind — a restarted replica never serves reads older than what the
/// ensemble committed while it was down, and never needs a fresh
/// ensemble.
///
/// # Errors
///
/// Fails if the configuration is inconsistent, a listener cannot bind or
/// the WAL cannot open (e.g. another live process holds its lock).
pub fn start_coord_server(config: CoordServerConfig) -> Result<CoordServerHandle> {
    config.validate()?;
    let me = config.id;
    let members = config.members();

    // The ensemble's own ring lives in a local registry seeded from the
    // static replica list; InstallConfig gossip keeps replicas aligned
    // across failovers (see module docs).
    let ring_registry = Registry::new();
    ring_registry.register_ring(RingConfig::new(
        COORD_RING,
        members.clone(),
        members.clone(),
    )?)?;

    // Durable recovery: checkpoint, then the WAL suffix at/beyond its
    // cursor (Zookeeper's snapshot + log replay, §7.1 analogue).
    let mut durable = ReplicaDurability {
        state: CoordState::new(),
        applied: InstanceId::ZERO,
        wal: None,
        ckpt: None,
        checkpoint_every: config.checkpoint_every,
        since_ckpt: 0,
    };
    if let Some(dir) = &config.wal_dir {
        std::fs::create_dir_all(dir)?;
        let seg_dir = wal_seg_dir(dir, me);
        // Open (taking the directory's writer lock) *before* reading
        // anything: a previous owner still flushing its final group
        // commit would otherwise race our replay to the log tail (open
        // refuses a live holder and steals only dead-pid locks).
        // Segments roll every `checkpoint_every` records so each
        // periodic checkpoint retires roughly one segment.
        let roll_every = if config.checkpoint_every > 0 {
            config.checkpoint_every
        } else {
            4096
        };
        let wal = SegmentedWal::open(&seg_dir, SyncPolicy::EveryWrite, roll_every)?;
        let slot = CheckpointFile::new(checkpoint_path(dir, me));
        if let Some((cursor, bytes)) = slot.load() {
            if let Ok(st) = CoordState::decode_snapshot(&mut bytes.clone()) {
                durable.state = st;
                durable.applied = InstanceId::new(cursor);
            }
            // A corrupt checkpoint falls back to whole-log replay.
        }
        for (_, rec) in SegmentedWal::replay::<AcceptedEntry>(&seg_dir)? {
            if !apply_log_entry(
                &mut durable.state,
                &mut durable.applied,
                rec.inst,
                &rec.value,
            ) {
                break; // hole: stop at the consistent prefix
            }
        }
        durable.ckpt = Some(slot);
        durable.wal = Some(wal);
    }

    // Per-process metrics registry. Restart-in-place semantics: the
    // monotonic apply counter is re-seeded from the recovered delivery
    // cursor (it survives the restart the same way the state does),
    // while volatile gauges start from zero.
    let obs = Obs::for_node(me.raw());
    obs.reset_gauges();
    obs.counter("coord_applied").seed(durable.applied.raw());
    if let Some(wal) = &mut durable.wal {
        wal.instrument(&obs);
    }

    // Catch the tail up from a live peer before serving: everything the
    // ensemble decided while this replica was down is in some peer's
    // applied state, and the ring will not re-circulate old decisions.
    let peers: Vec<NodeId> = members.iter().copied().filter(|m| *m != me).collect();
    let peer_clients: Vec<SocketAddr> = peers
        .iter()
        .map(|p| config.client_addrs[p.raw() as usize])
        .collect();
    // If no peer answers (whole-ensemble restart, transient blip), the
    // sweep keeps retrying the fetch until one does — without this, an
    // idle ensemble would never trigger the gap watchdog (no new
    // decisions → no buffered gap) and a behind replica could serve
    // stale reads indefinitely.
    let mut catchup_needed = !peers.is_empty();
    let mut peer_ring = None;
    if let Some(snap) = fetch_peer_snapshot(&peer_clients, Duration::from_secs(2)) {
        // Caught up only if we are now at least as current as the
        // answering peer — an undecodable snapshot from an ahead peer
        // must keep the sweep retrying.
        catchup_needed = !durable.install_snapshot(snap.applied, &snap.state)?;
        peer_ring = snap.ensemble_ring;
    }

    // The ring member: built here, owned and driven by the server loop.
    let opts = RingOptions {
        heartbeat_interval: Duration::from_millis(25),
        failure_timeout: Duration::from_millis(400),
        proposal_retry: Duration::from_millis(300),
        obs: obs.clone(),
        ..RingOptions::default()
    };
    let mut node = RingNode::new(me, COORD_RING, ring_registry.clone(), opts)?;
    node.set_next_delivery(durable.applied);

    let me_raw = me.raw();
    let mut net = Net::new(
        format!("amcoord-dial-{me_raw}"),
        obs.counter("writer_vectored_frames"),
    )?;

    // Gossip feed: watch our own registry for coord-ring epoch bumps.
    let watch = ring_registry.watch();
    let feed = net.mailer();
    std::thread::Builder::new()
        .name(format!("amcoord-gossip-feed-{me_raw}"))
        .spawn(move || {
            while let Ok(event) = watch.recv() {
                if let CoordEvent::RingChanged { cfg } = event {
                    if cfg.ring == COORD_RING && !feed.post(Mail::Gossip(cfg)) {
                        return;
                    }
                }
            }
        })?;

    // Rejoin the ensemble's own consensus ring if the survivors
    // reconfigured this replica out while it was down: adopt their
    // (newer-epoch) view, then re-admit ourselves with the same
    // deterministic local CAS data rings use. The RingChanged events
    // flow through the gossip feed just armed above (and wait in the
    // mailbox until the loop starts), so the survivors install the
    // rejoined config and their coordinator re-runs Phase 1 around us.
    rejoin_ensemble_ring(&ring_registry, me, peer_ring);

    net.listen(
        config.ring_addrs[me_raw as usize],
        Reader::Frames(|buf| Ok(buf.try_next()?.map(Inbound::Ring))),
    )?;
    let client_addr = net.listen(
        config.client_addrs[me_raw as usize],
        Reader::Frames(|buf| Ok(buf.try_next()?.map(Inbound::Client))),
    )?;
    let mailer = net.mailer();

    let replica = Replica {
        me,
        net,
        node,
        out: Output::new(),
        local: Vec::new(),
        timers: TimerHeap::new(),
        clock: WallClock::start(),
        ring_addrs: members
            .iter()
            .copied()
            .zip(config.ring_addrs.iter().copied())
            .collect(),
        wire: WireCounters::new(&obs),
        peer_clients,
        // Sessions recovered from the checkpoint/WAL/peer snapshot get
        // a fresh grace stamp: their owners may well be alive and
        // keep-alive'ing — expiring them at boot because *we* never saw
        // a keep-alive would churn every ephemeral in the system.
        session_seen: durable
            .state
            .sessions()
            .map(|(id, _)| (id, Instant::now()))
            .collect(),
        durable,
        ring_registry,
        watchers: HashSet::new(),
        pending: HashMap::new(),
        // Command sequence numbers become ValueIds in the replicated
        // log and the ring dedups by id, so they must never repeat
        // across replica incarnations (a restarted replica re-proposing
        // seq 1 would see its command silently swallowed). Wall-clock
        // microseconds since the epoch are monotone across restarts for
        // any realistic downtime.
        next_cmd: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(1),
        expiring: HashSet::new(),
        session_check: config.session_check,
        next_sweep: Instant::now() + config.session_check,
        catchup_needed,
        gap_since: None,
        catchup_inflight: false,
        coord_applied: obs.counter("coord_applied"),
        session_count: obs.gauge("session_count"),
        obs,
    };
    let join = spawn_loop(format!("amcoord-srv-{me_raw}"), move || replica.run())?;
    Ok(CoordServerHandle {
        mailer,
        join: Some(join),
        client_addr,
    })
}

/// A replicated command this replica proposed for a waiting client.
struct Pending {
    conn: ConnId,
    req: u64,
    at: Instant,
}

/// One amcoordd replica: everything the server loop owns. The loop is
/// the only thread that touches any of it.
struct Replica {
    me: NodeId,
    /// Every socket of the replica.
    net: Net<Inbound, Mail>,
    /// The replica's member of the ensemble's consensus ring, with the
    /// scratch buffer its handlers emit into, the messages it sent
    /// itself (handled next turn) and its timer heap.
    node: RingNode,
    out: Output,
    local: Vec<RingMsg>,
    timers: TimerHeap<RingTimer>,
    clock: WallClock,
    /// The fellow replicas' ring addresses (consensus links).
    ring_addrs: HashMap<NodeId, SocketAddr>,
    /// Wire accounting for everything this member sends on the ring.
    wire: WireCounters,
    /// The fellow replicas' client addresses: catch-up fetches and
    /// config gossip (fire-and-forget; the next gossip retries).
    peer_clients: Vec<SocketAddr>,
    durable: ReplicaDurability,
    ring_registry: Registry,
    /// Connections that sent [`CoordOp::WatchAll`]. A watcher whose
    /// buffer is full is cut off: correlated replies may shed — the
    /// client times out and retries — but a dropped *watch event* would
    /// leave the client's config cache silently stale forever.
    watchers: HashSet<ConnId>,
    pending: HashMap<u64, Pending>,
    next_cmd: u64,
    /// Wall-clock session liveness, driven by *applied* keep-alives.
    session_seen: HashMap<SessionId, Instant>,
    /// Sessions with an expiry proposal in flight (don't re-propose
    /// every sweep).
    expiring: HashSet<SessionId>,
    session_check: Duration,
    next_sweep: Instant,
    /// A boot catch-up no peer has answered yet.
    catchup_needed: bool,
    /// When the learner first reported being blocked on a delivery gap,
    /// and whether a watchdog fetch is already out.
    gap_since: Option<Instant>,
    catchup_inflight: bool,
    obs: Obs,
    coord_applied: Counter,
    session_count: Gauge,
}

impl Replica {
    fn run(mut self) {
        self.node.start(self.clock.now(), &mut self.out);
        self.drain();
        let mut events = Vec::new();
        loop {
            let sleep = if self.local.is_empty() {
                self.timers
                    .sleep_for(Duration::from_millis(200))
                    .min(self.next_sweep.saturating_duration_since(Instant::now()))
            } else {
                Duration::ZERO
            };
            self.net.wait(sleep, &mut events);
            for msg in std::mem::take(&mut self.local) {
                self.node
                    .on_msg(self.me, msg, self.clock.now(), &mut self.out);
            }
            for event in events.drain(..) {
                match event {
                    Event::Mail(Mail::Shutdown) => return,
                    event => self.on_event(event),
                }
            }
            while let Some(t) = self.timers.pop_due(Instant::now()) {
                self.node.on_timer(t, self.clock.now(), &mut self.out);
            }
            self.drain();
            if Instant::now() >= self.next_sweep {
                self.next_sweep = Instant::now() + self.session_check;
                self.sweep();
            }
        }
    }

    fn on_event(&mut self, event: Event<Inbound, Mail>) {
        match event {
            Event::Mail(Mail::Shutdown) | Event::Accepted(..) => {}
            Event::Closed(conn) => self.drop_conns(&[conn]),
            Event::Frame(conn, Inbound::Client(CoordMsg { req, op })) => {
                self.on_client_msg(conn, req, op);
            }
            Event::Frame(_, Inbound::Ring(frame)) => {
                if let Msg::Ring(_, msg) = frame.msg {
                    self.node
                        .on_msg(frame.from, msg, self.clock.now(), &mut self.out);
                }
            }
            Event::Mail(Mail::Gossip(cfg)) => {
                let gossip = CoordMsg {
                    req: 0,
                    op: CoordOp::InstallConfig { cfg },
                };
                for addr in &self.peer_clients {
                    self.net.send_to(*addr, &gossip);
                }
            }
            Event::Mail(Mail::CatchUp(snap)) => self.on_catch_up(snap),
        }
    }

    /// Closes connections (closed, or cut off for falling behind) and
    /// forgets the proposals waiting to answer them.
    fn drop_conns(&mut self, ids: &[ConnId]) {
        for id in ids {
            self.net.close(*id);
            self.watchers.remove(id);
        }
        self.pending.retain(|_, p| !ids.contains(&p.conn));
    }

    fn reply(&mut self, conn: ConnId, reply: CoordReply) {
        self.net.send(conn, &reply);
    }

    /// Proposes `op` on the ensemble's ring; returns the command's seq.
    fn propose(&mut self, op: CoordOp) -> u64 {
        self.next_cmd += 1;
        let seq = self.next_cmd;
        let cmd = CoordCmd {
            origin: self.me,
            seq,
            op,
        };
        self.node.propose(
            Value::app(self.me, seq, cmd.to_bytes()),
            self.clock.now(),
            &mut self.out,
        );
        seq
    }

    fn on_client_msg(&mut self, conn: ConnId, req: u64, op: CoordOp) {
        match op.kind() {
            OpKind::Local => {
                if let CoordOp::InstallConfig { cfg } = &op {
                    let _ = self.ring_registry.install_config(cfg.clone());
                }
                if matches!(op, CoordOp::WatchAll) {
                    self.watchers.insert(conn);
                }
                self.reply(
                    conn,
                    CoordReply::Ok {
                        req,
                        body: CoordOk::Unit,
                    },
                );
            }
            OpKind::Read => {
                let body = match op {
                    // The catch-up RPC: served from applied state with
                    // *this* replica's log position and its view of the
                    // ensemble's own ring (the state machine itself has
                    // neither).
                    CoordOp::SnapshotRequest => Ok(CoordOk::Snapshot {
                        applied: self.durable.applied.raw(),
                        ensemble_ring: self
                            .ring_registry
                            .ring(COORD_RING)
                            .ok()
                            .map(|c| c.to_wire()),
                        state: self.durable.state.snapshot(),
                    }),
                    // Metrics live in the process, not the replicated
                    // state machine: answer from the local registry.
                    CoordOp::Stats => Ok(CoordOk::Stats(self.obs.snapshot())),
                    // Reads never mutate state or emit events.
                    _ => self.durable.state.apply(&op).0,
                };
                self.reply(conn, reply_of(req, body));
            }
            OpKind::Replicate => {
                let seq = self.propose(op);
                self.pending.insert(
                    seq,
                    Pending {
                        conn,
                        req,
                        at: Instant::now(),
                    },
                );
            }
        }
    }

    /// Routes one round of effects the ring node emitted: sends onto the
    /// ring links (or into `local`), decided entries group-committed to
    /// the log and then applied, timers onto the heap.
    fn drain(&mut self) {
        for (to, msg) in self.out.sends.drain(..) {
            if to == self.me {
                self.local.push(msg);
                continue;
            }
            self.wire.note(&msg);
            if let Some(addr) = self.ring_addrs.get(&to) {
                let frame = PeerFrame {
                    from: self.me,
                    msg: Msg::Ring(COORD_RING, msg),
                };
                self.net.send_to(*addr, &frame);
            }
        }
        for (after, t) in self.out.timers.drain(..) {
            self.timers.push_after(after, t);
        }
        if self.out.decided.is_empty() {
            return;
        }
        let decided = std::mem::take(&mut self.out.decided);
        if let Some(wal) = &mut self.durable.wal {
            // Group commit: stage every decision of this turn, hit the
            // file (and the platter) once.
            for (inst, value) in &decided {
                wal.stage(inst.raw(), &mut |buf| {
                    AcceptedEntry {
                        inst: *inst,
                        vballot: Ballot::ZERO,
                        value: value.clone(),
                    }
                    .encode(buf)
                });
            }
            let _ = wal.commit();
        }
        for (inst, value) in decided {
            self.apply(inst, &value);
        }
    }

    /// Applies one decided log entry to the replicated state, answers
    /// the client that proposed it and fans its watch events out.
    fn apply(&mut self, inst: InstanceId, value: &Value) {
        if inst != self.durable.applied {
            // The learner delivers in order from the cursor this loop
            // gave it, so this cannot happen — and must never be crossed
            // silently if it does: skipped ops would diverge this
            // replica and then be *checkpointed*. Park until a peer
            // snapshot re-aligns state and cursor.
            self.catchup_needed = true;
            return;
        }
        self.durable.applied = inst.plus(value.instance_span());
        self.durable.since_ckpt += 1;
        self.coord_applied.inc();
        // Foreign payloads (no-ops, skip filler) only move the cursor.
        let cmd = value
            .payload()
            .and_then(|bytes| CoordCmd::decode(&mut bytes.clone()).ok());
        let outcome = cmd.as_ref().map(|cmd| self.durable.state.apply(&cmd.op));
        self.durable.checkpoint_if_due();
        let (Some(cmd), Some((result, events))) = (cmd, outcome) else {
            return;
        };
        track_sessions(
            &cmd.op,
            &result,
            &self.durable.state,
            &mut self.session_seen,
            &mut self.expiring,
        );
        if cmd.origin == self.me {
            if let Some(p) = self.pending.remove(&cmd.seq) {
                self.reply(p.conn, reply_of(p.req, result));
            }
        }
        if !events.is_empty() {
            // A watcher whose queue overflows is disconnected on the
            // spot: its cache would otherwise miss this event and serve
            // stale configuration forever. Reconnecting re-arms the
            // watch and clears the client's cache.
            let stalled: Vec<ConnId> = self
                .watchers
                .iter()
                .copied()
                .filter(|id| {
                    !events
                        .iter()
                        .all(|e| self.net.send(*id, &CoordReply::Event(e.clone())))
                })
                .collect();
            self.drop_conns(&stalled);
        }
    }

    fn on_catch_up(&mut self, snap: Option<PeerSnapshot>) {
        self.catchup_inflight = false;
        let Some(snap) = snap else { return };
        let before = self.durable.applied;
        let outcome = self.durable.install_snapshot(snap.applied, &snap.state);
        if matches!(outcome, Ok(true)) {
            // At least as current as the answering peer: a pending boot
            // catch-up is satisfied. (Ok(false) — an ahead peer whose
            // snapshot did not decode — keeps the sweep retrying.)
            self.catchup_needed = false;
        }
        if outcome.is_ok() && self.durable.applied > before {
            // The jump is durable; move the learner past it. Decisions
            // buffered below the new cursor die with the move.
            self.node.set_next_delivery(self.durable.applied);
            for (id, _) in self.durable.state.sessions() {
                self.session_seen.entry(id).or_insert_with(Instant::now);
            }
            // The install jumped state without per-op events, so
            // connected watchers' caches are silently behind.
            // Disconnect them: reconnecting re-arms the watch and clears
            // the client cache (the same contract the overflow path
            // relies on).
            let watching: Vec<ConnId> = self.watchers.iter().copied().collect();
            self.drop_conns(&watching);
            // Proposals whose decisions the jump skipped will never be
            // answered by `apply`. Fail the waiting clients now instead
            // of letting them ride out the 10 s stale sweep — every
            // registry mutation is idempotent or epoch/version-guarded,
            // so a retry against the caught-up state is safe.
            for (_, p) in std::mem::take(&mut self.pending) {
                self.reply(
                    p.conn,
                    CoordReply::Err {
                        req: p.req,
                        reason: "state jumped by snapshot catch-up; retry".into(),
                    },
                );
            }
            // In-flight expiry markers are stale the same way: a
            // session whose CAS loss only the snapshot reflects would
            // otherwise stay marked forever and never be re-proposed for
            // expiry (an immortal session). The sweep re-proposes under
            // the CAS guard, so clearing is always safe.
            self.expiring.clear();
        }
        // A long partition can also have cost us our ring membership;
        // heal that the same way a restart does.
        rejoin_ensemble_ring(&self.ring_registry, self.me, snap.ensemble_ring);
    }

    fn sweep(&mut self) {
        let now = Instant::now();
        self.session_count
            .set(self.durable.state.sessions().count() as i64);
        // Gap watchdog: a learner blocked on decisions it fully missed
        // (they circulated while this replica was down or partitioned)
        // will never heal from the ring alone — old decisions are not
        // re-sent. A persistent gap is resolved the same way boot
        // catch-up is: install a live peer's snapshot and jump the
        // cursor past the hole. The fetch runs on its own thread
        // (connects + reply wait can block for seconds; stalling this
        // loop would make the replica appear dead to its clients and its
        // ring exactly while it tries to heal) and comes back as
        // [`Mail::CatchUp`]. An unanswered *boot* catch-up also
        // retries here: on an idle ensemble no new decision would ever
        // surface a buffered gap, yet the replica may still be behind.
        if self.node.buffered_gap().is_some() || self.catchup_needed {
            let since = *self.gap_since.get_or_insert(now);
            if !self.catchup_inflight
                && now.duration_since(since) >= self.session_check.max(Duration::from_millis(500))
            {
                self.gap_since = Some(now);
                let peers = self.peer_clients.clone();
                let mailer = self.net.mailer();
                // Armed only if the thread actually started: a failed
                // spawn sends no CatchUp, and a stuck `catchup_inflight`
                // would disarm healing forever.
                self.catchup_inflight = std::thread::Builder::new()
                    .name(format!("amcoord-catchup-{}", self.me.raw()))
                    .spawn(move || {
                        let snap = fetch_peer_snapshot(&peers, Duration::from_secs(2));
                        mailer.post(Mail::CatchUp(snap));
                    })
                    .is_ok();
            }
        } else {
            self.gap_since = None;
        }
        let overdue: Vec<(SessionId, u64)> =
            self.durable
                .state
                .sessions()
                .filter(|(id, s)| {
                    !self.expiring.contains(id)
                        && self.session_seen.get(id).is_none_or(|at| {
                            now.duration_since(*at) > Duration::from_millis(s.ttl_ms)
                        })
                })
                .map(|(id, s)| (id, s.refresh_seq))
                .collect();
        for (session, seen_refresh) in overdue {
            self.propose(CoordOp::ExpireSession {
                session,
                seen_refresh,
            });
            self.expiring.insert(session);
        }
        // Stale pendings (e.g. the ring lost quorum): fail the client so
        // it can retry another replica rather than hang.
        let stale: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.at.elapsed() > Duration::from_secs(10))
            .map(|(seq, _)| *seq)
            .collect();
        for seq in stale {
            if let Some(p) = self.pending.remove(&seq) {
                self.reply(
                    p.conn,
                    CoordReply::Err {
                        req: p.req,
                        reason: "command not decided in time".into(),
                    },
                );
            }
        }
        // Expiry proposals made above leave with this turn.
        self.drain();
    }
}

fn reply_of(req: u64, result: coord::state::ApplyResult) -> CoordReply {
    match result {
        Ok(body) => CoordReply::Ok { req, body },
        Err(reason) => CoordReply::Err { req, reason },
    }
}

/// Keeps the wall-clock liveness table in step with the applied command
/// stream.
fn track_sessions(
    op: &CoordOp,
    result: &coord::state::ApplyResult,
    state: &CoordState,
    session_seen: &mut HashMap<SessionId, Instant>,
    expiring: &mut HashSet<SessionId>,
) {
    match (op, result) {
        (CoordOp::OpenSession { .. }, Ok(common::wire::coord::CoordOk::Session(id))) => {
            session_seen.insert(*id, Instant::now());
        }
        (CoordOp::KeepAlive { session }, Ok(_)) => {
            session_seen.insert(*session, Instant::now());
        }
        (CoordOp::CloseSession { session }, _) => {
            expiring.remove(session);
            session_seen.remove(session);
        }
        (CoordOp::ExpireSession { session, .. }, _) => {
            expiring.remove(session);
            if state.session(*session).is_some() {
                // A racing keep-alive won the CAS: the session is alive.
                // Count the survival as a sighting — treating it as
                // "never seen" would re-propose expiry immediately and
                // could race the next keep-alive to a false positive.
                session_seen.insert(*session, Instant::now());
            } else {
                session_seen.remove(session);
            }
        }
        _ => {}
    }
}

/// An in-process amcoordd ensemble — the coordination-service
/// counterpart of [`Deployment`](crate::Deployment): launches `n`
/// replicas over localhost TCP and drives the same kill /
/// restart-in-place orchestration for coord nodes that `Deployment`
/// drives for data nodes. A restart reuses the replica's original
/// `wal_dir`, so it comes back through the checkpoint + WAL + peer
/// catch-up recovery path and rejoins its original ensemble.
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

    /// Kills replica `id`: its threads stop and its sockets close. The
    /// replica's WAL lock is verified released before returning, so a
    /// restart-in-place never races the dying replica for the log file.
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
        if let Some(dir) = &self.configs[i].wal_dir {
            // The server loop owned the log and has been joined, so both
            // the directory-level lock and the active segment's per-file
            // lock are gone; a survivor here would make the restart race
            // a ghost for the log.
            let locks_left: Vec<PathBuf> = std::fs::read_dir(wal_seg_dir(dir, NodeId::new(id)))
                .into_iter()
                .flatten()
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "lock"))
                .collect();
            if !locks_left.is_empty() {
                return Err(Error::Storage(format!(
                    "amcoordd replica {id} wal locks {locks_left:?} survived shutdown"
                )));
            }
        }
        Ok(())
    }

    /// Restarts a killed replica in place: same id, same addresses, same
    /// `wal_dir` — the durable-recovery boot path (checkpoint + WAL
    /// replay + peer catch-up) brings it back into its original
    /// ensemble serving everything committed while it was down.
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
