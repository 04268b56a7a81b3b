//! The deployable Multi-Ring Paxos process.
//!
//! One [`MultiRingHost`] per machine/process: it multiplexes this node's
//! participation in any number of rings, merges their decision streams
//! deterministically, executes a replicated [`ServiceApp`] — inline, in
//! merge order, on the thread that drives the host (the simulator, or
//! the live node loop) — admits clients' protocol-v2 requests
//! ([`MultiRingHost::admit`]) and answers them, one replica per partition
//! for a command's first execution (the reply rule, `reply.rs`),
//! expires idle client sessions, takes
//! periodic checkpoints, runs the
//! coordinator side of the log-trimming protocol for rings it
//! coordinates, and recovers after crashes via partition-peer checkpoints
//! plus acceptor retransmission (paper §5.2, §7).
//!
//! The host reads the [`Registry`] only at construction. Afterwards its
//! ring nodes' coordination asks and its own (rejoins, the trim electorate)
//! go to [`COORD_NODE`] as messages, and the answers that come back
//! refresh the ring nodes' configs and the host's view of coordination
//! (subscribers, partitions, foreign rings).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use common::ids::{ClientId, InstanceId, NodeId, PartitionId, RequestId, RingId};
use common::msg::CheckpointTuple;
use common::msg::{Msg, RecoveryMsg, RingMsg};
use common::obs::{Counter, Gauge, Hist, Obs};
use common::process::{Ctx, Process, Timer};
use common::time::SimTime;
use common::value::{Envelope, Payload, Value, SESSION_CTL};
use common::wire::client::{ClientMsg, ClientReply, ErrorCode};
use common::wire::coord::{answered, ask, CoordOk, CoordOp, COORD_NODE};
use common::wire::Wire;
use coord::{PartitionInfo, Registry, RingConfig};
use ringpaxos::node::{Output, RingNode, MAX_IDLE_SKIP_STRIDE};
use ringpaxos::options::RingOptions;
use ringpaxos::timer::RingTimer;
use ringpaxos::DeliveredIds;
use storage::{CheckpointStore, StorageMode};

use crate::app::{EagerCut, ServiceApp, SnapshotCut};
use crate::merge::MergeLearner;
use crate::recovery::{RecoveryPhase, TrimRound};
use crate::reply::{designated_replier, ReplyRule};
use crate::session::{session_home_ring, SessionCtl};

/// Timer kinds used by the host.
const TIMER_RING: u32 = 1;
const TIMER_CHECKPOINT: u32 = 2;
const TIMER_CHECKPOINT_DONE: u32 = 3;
const TIMER_TRIM: u32 = 4;
const TIMER_RECOVERY: u32 = 5;
const TIMER_GAP: u32 = 6;
const TIMER_SESSION_SWEEP: u32 = 8;
const TIMER_REJOIN: u32 = 9;
/// The Δ clock of rate leveling (§4), armed only while this node levels
/// a ring ([`MultiRingHost::levels`]).
const TIMER_CLOCK: u32 = 10;

/// Asks remembered for correlation (an older ask's answer is dropped).
const ASKS_REMEMBERED: usize = 1024;

/// Maximum decisions per retransmission reply.
const RETRANSMIT_CHUNK: u64 = 4096;

/// Host configuration.
#[derive(Clone, Debug)]
pub struct HostOptions {
    /// Ring protocol options (storage mode, batching, rate leveling, ...).
    pub ring: RingOptions,
    /// Deterministic-merge parameter `M` (instances per ring per turn).
    pub m: u64,
    /// Replica checkpoint cadence; `None` disables checkpointing.
    pub checkpoint_interval: Option<Duration>,
    /// Trim-protocol cadence on coordinated rings (§5.2: ask the
    /// subscribed replicas for their durable checkpoints, order the
    /// acceptors to drop everything below `K_T`); `None` disables
    /// trimming and lets every acceptor log grow without bound. A round
    /// only finds something to trim after a new checkpoint, so live
    /// deployments run it at the checkpoint cadence.
    pub trim_interval: Option<Duration>,
    /// Retry cadence for recovery steps.
    pub recovery_retry: Duration,
    /// Checkpoint storage mode (the paper writes checkpoints
    /// synchronously to disk, §7.2). With `InMemory` nothing survives a
    /// crash, so a checkpoint keeps no state: it is its tuple.
    pub checkpoint_storage: StorageMode,
    /// How often a replica sweeps its session table for sessions idle
    /// past their TTL ([`MultiRingHost`]'s session expiry).
    pub session_sweep: Duration,
}

impl Default for HostOptions {
    fn default() -> Self {
        HostOptions {
            ring: RingOptions::default(),
            m: 1,
            checkpoint_interval: None,
            trim_interval: None,
            recovery_retry: Duration::from_millis(200),
            checkpoint_storage: StorageMode::InMemory,
            session_sweep: Duration::from_secs(1),
        }
    }
}

common::wire_frame! {
    /// A checkpoint's meta, taken at its cut: each ring's delivered ids
    /// and the merge scheduler state (turn + per-ring skip credit, so a
    /// replica restored from a mid-round cut resumes the round-robin
    /// exactly where its peers are).
    struct Meta {
        dedup: Vec<(RingId, DeliveredIds)>,
        merge_turn: u64,
        merge_credits: Vec<(RingId, u64)>,
    }
}

/// Checkpoint blob layout: the [`Meta`], then the service snapshot as the
/// **trailing rest** of the blob. The service state goes last and
/// unprefixed so a [`Retained`] checkpoint is its meta bytes followed by
/// its service cut's encoding.
struct Snapshot {
    meta: Meta,
    app: Bytes,
}

impl Snapshot {
    fn decode(buf: &mut Bytes) -> Result<Self, common::error::WireError> {
        let meta = Meta::decode(buf)?;
        // The rest of the blob is the service state.
        let app = buf.split_to(buf.len());
        Ok(Snapshot { meta, app })
    }
}

/// A checkpoint cut: the meta ([`Snapshot`] up to the service state),
/// encoded at the cut, and the service's cut. With durable storage the
/// host retains one per checkpoint for a restart to install; otherwise a
/// cut is taken only for the peer that fetches it. Its bytes are written
/// only when they are needed and not kept afterwards.
struct Retained {
    meta: Bytes,
    cut: Box<dyn SnapshotCut>,
}

impl Retained {
    /// A checkpoint fetched from a peer: its meta, and an [`EagerCut`]
    /// over the service state the received bytes carry.
    fn fetched(state: Bytes) -> Self {
        let app = Snapshot::decode(&mut state.clone()).map_or_else(|_| state.clone(), |s| s.app);
        Retained {
            meta: state.slice(..state.len() - app.len()),
            cut: Box::new(EagerCut::new(app)),
        }
    }

    /// The length of [`Retained::encode`]'s bytes, without encoding.
    fn encoded_len(&self) -> usize {
        self.meta.len() + self.cut.encoded_len()
    }

    /// The checkpoint's bytes, laid out per [`Snapshot`].
    fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        buf.extend_from_slice(&self.meta);
        self.cut.encode(&mut buf);
        buf.freeze()
    }
}

/// Cached handles into the node's observability registry for the
/// ordering hot path: one registry lookup at construction, relaxed
/// atomics per event after that.
///
/// The `stage_*` histograms record *cumulative* nanoseconds since the
/// envelope's origin stamp ([`Envelope::trace`]), so a stage's own cost
/// reads as the difference between adjacent stage p50s.
struct HostObs {
    obs: Obs,
    proposed_cmds: Counter,
    instances_decided: Counter,
    executed_cmds: Counter,
    value_pulls: Counter,
    liveness_fires: Counter,
    merge_skips: Counter,
    merge_lag: Gauge,
    ckpt_bytes: Gauge,
    /// Checkpoint cuts taken: for a peer's fetch, or for a durable
    /// checkpoint.
    ckpt_cuts: Counter,
    session_count: Gauge,
    session_cached_replies: Gauge,
    /// Trim rounds this node completed as a ring coordinator.
    trim_rounds: Counter,
    /// What each ring retains, refreshed by [`MultiRingHost::refresh_gauges`].
    retained: Vec<RetainedGauges>,
    /// The sum of what `retained` counts, the retained checkpoints' meta
    /// bytes and the merge queue's payload bytes.
    mem_accounted: Gauge,
    stage_propose: Hist,
    stage_p2send: Hist,
    stage_decide: Hist,
    stage_deliver: Hist,
    stage_execute: Hist,
    stage_reply: Hist,
}

/// One ring's retained-state gauges.
struct RetainedGauges {
    ring: RingId,
    /// `ring{r}_trim_floor`, `ring{r}_log_slots` and `ring{r}_log_bytes`,
    /// on rings this node is an acceptor of.
    log: Option<[Gauge; 3]>,
    /// `ring{r}_cache_values` and `ring{r}_cache_bytes`.
    cache: [Gauge; 2],
    /// `ring{r}_dedup_ranges`.
    dedup_ranges: Gauge,
}

impl HostObs {
    fn new(obs: &Obs, rings: &BTreeMap<RingId, RingNode>, acceptor_of: &[RingId]) -> Self {
        let retained = rings
            .keys()
            .map(|ring| {
                let gauge = |name: &str| obs.gauge(&format!("ring{}_{name}", ring.raw()));
                RetainedGauges {
                    ring: *ring,
                    log: acceptor_of
                        .contains(ring)
                        .then(|| ["trim_floor", "log_slots", "log_bytes"].map(gauge)),
                    cache: ["cache_values", "cache_bytes"].map(gauge),
                    dedup_ranges: gauge("dedup_ranges"),
                }
            })
            .collect();
        HostObs {
            obs: obs.clone(),
            proposed_cmds: obs.counter("proposed_cmds"),
            instances_decided: obs.counter("instances_decided"),
            executed_cmds: obs.counter("executed_cmds"),
            value_pulls: obs.counter("value_pulls"),
            liveness_fires: obs.counter("liveness_fires"),
            merge_skips: obs.counter("merge_skips"),
            merge_lag: obs.gauge("merge_lag"),
            ckpt_bytes: obs.gauge("ckpt_bytes"),
            ckpt_cuts: obs.counter("ckpt_cuts"),
            session_count: obs.gauge("session_count"),
            session_cached_replies: obs.gauge("session_cached_replies"),
            trim_rounds: obs.counter("trim_rounds"),
            retained,
            mem_accounted: obs.gauge("mem_accounted_bytes"),
            stage_propose: obs.hist("stage_propose_nanos"),
            stage_p2send: obs.hist("stage_p2send_nanos"),
            stage_decide: obs.hist("stage_decide_nanos"),
            stage_deliver: obs.hist("stage_deliver_nanos"),
            stage_execute: obs.hist("stage_execute_nanos"),
            stage_reply: obs.hist("stage_reply_nanos"),
        }
    }
}

/// Counts value pulls and stamps the Phase 2 send stage for one outgoing
/// ring message, recursing into packed batches.
fn note_ring_send(hobs: &HostObs, tracing: bool, msg: &RingMsg) {
    match msg {
        RingMsg::ValueRequest { .. } => hobs.value_pulls.inc(),
        RingMsg::Phase2 { value, .. } if tracing => {
            if let Some(payload) = value.payload() {
                let t = Payload::peek_trace(payload);
                if t != 0 {
                    hobs.stage_p2send.record_since(t);
                }
            }
        }
        RingMsg::Batch(msgs) => {
            for m in msgs {
                note_ring_send(hobs, tracing, m);
            }
        }
        _ => {}
    }
}

/// What a host knows of coordination beyond its own rings, whose configs
/// its ring nodes hold: read from the registry at construction and
/// refreshed by the answers to its asks.
#[derive(Default)]
struct CoordView {
    /// Subscribers of this node's rings: the trim electorate.
    subscribers: BTreeMap<RingId, Vec<NodeId>>,
    /// Every partition: recovery and trim quorums.
    partitions: BTreeMap<PartitionId, PartitionInfo>,
    /// Rings this node is no member of: where `admit` redirects.
    foreign: BTreeMap<RingId, RingConfig>,
    /// Asks in flight, by sequence number.
    asked: BTreeMap<u64, CoordOp>,
    /// Sequence number of the last ask.
    last_ask: u64,
}

/// The per-process host. See the module docs.
pub struct MultiRingHost {
    me: NodeId,
    view: CoordView,
    /// Rings whose node waits, after a restart, for its rejoin's answer.
    rejoining: BTreeSet<RingId>,
    opts: HostOptions,
    /// Rings this node participates in (any roles).
    rings: BTreeMap<RingId, RingNode>,
    /// Rings participated in as acceptor (for rejoin).
    acceptor_of: Vec<RingId>,
    /// The deterministic-merge learner, if this node is a replica.
    learner: Option<MergeLearner>,
    /// The replica's partition (for recovery quorums).
    partition: Option<PartitionId>,
    app: Box<dyn ServiceApp>,
    /// Durable checkpoints; empty with in-memory storage.
    ckpt_store: CheckpointStore<Retained>,
    /// The checkpoint advertised to the trim protocol (durably written).
    advertised: Option<CheckpointTuple>,
    /// A checkpoint whose synchronous write is still in flight.
    pending_ckpt: Option<(u64, CheckpointTuple)>,
    ckpt_seq: u64,
    /// Trim rounds for rings this node coordinates.
    trims: BTreeMap<RingId, TrimRound>,
    trim_seq: u64,
    recovery: RecoveryPhase,
    recovery_seq: u64,
    /// Set when catch-up discovered the acceptors trimmed past us; the
    /// next retry restarts recovery from the checkpoint query.
    restart_recovery: bool,
    /// Rotates which acceptor serves retransmissions, so a peer that is
    /// itself missing decisions does not starve the requester.
    retransmit_rr: u64,
    executed: u64,
    out: Output,
    hobs: HostObs,
    /// Lazily created per-ring merge telemetry (the subscription set can
    /// change at runtime).
    ring_stats: BTreeMap<RingId, RingMergeStats>,
    /// Session-expiry sweep: the last refresh count read per session and
    /// when it last moved.
    session_seen: HashMap<u64, (u64, SimTime)>,
    /// Correlation numbers of this node's expiry proposals.
    expire_seq: u64,
    /// Whether a [`TIMER_CLOCK`] is pending.
    clock_armed: bool,
    /// Which executed commands this replica answers.
    replies: ReplyRule,
}

/// Per-ring counters/gauges behind the `merge_skips`/`merge_lag`
/// aggregates, plus delivered-command attribution (what the genuineness
/// guard scrapes: a ring this node is not addressed by must show zero
/// delivered commands).
struct RingMergeStats {
    skips: Counter,
    lag: Gauge,
    delivered: Counter,
    /// Instances this node's learner decided on the ring — the
    /// denominator of the decision-messages-per-instance guard.
    decided: Counter,
    /// How long each deliverable value waited in the merge, from its
    /// decision here to its delivery.
    merge_wait: Hist,
}

impl RingMergeStats {
    fn new(obs: &Obs, ring: RingId) -> Self {
        let r = ring.raw();
        RingMergeStats {
            skips: obs.counter(&format!("ring{r}_merge_skips")),
            lag: obs.gauge(&format!("ring{r}_merge_lag")),
            delivered: obs.counter(&format!("ring{r}_delivered_cmds")),
            decided: obs.counter(&format!("ring{r}_instances_decided")),
            merge_wait: obs.hist(&format!("ring{r}_merge_wait_nanos")),
        }
    }
}

impl MultiRingHost {
    /// Creates a host for `me` participating in `member_of` rings,
    /// delivering (as a replica) from `subscribe_to` rings into `app`.
    ///
    /// `subscribe_to` must be a subset of rings registered in the
    /// registry; the node need not be a *member* of a ring to subscribe —
    /// but it must be a member to propose on it.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (unknown ring, non-member) —
    /// deployment bugs, not runtime conditions.
    pub fn new(
        me: NodeId,
        registry: Registry,
        member_of: &[RingId],
        subscribe_to: &[RingId],
        partition: Option<PartitionId>,
        app: Box<dyn ServiceApp>,
        opts: HostOptions,
    ) -> Self {
        let mut rings = BTreeMap::new();
        let mut acceptor_of = Vec::new();
        for ring in member_of {
            let node = RingNode::new(me, *ring, registry.clone(), opts.ring.clone())
                .expect("valid ring membership");
            if node.config().is_acceptor(me) {
                acceptor_of.push(*ring);
            }
            rings.insert(*ring, node);
        }
        // Delivery happens through the merge learner; the per-ring
        // learners always feed it, so keep them subscribed.
        let learner = if subscribe_to.is_empty() {
            None
        } else {
            for r in subscribe_to {
                assert!(
                    rings.contains_key(r),
                    "replica must participate in rings it subscribes to"
                );
                registry.subscribe(*r, me);
            }
            Some(MergeLearner::new(subscribe_to, opts.m))
        };
        let foreign = (registry.ring_ids().into_iter())
            .filter(|ring| !rings.contains_key(ring))
            .filter_map(|ring| Some((ring, registry.ring(ring).ok()?)))
            .collect();
        let view = CoordView {
            subscribers: (rings.keys())
                .map(|ring| (*ring, registry.subscribers(*ring)))
                .collect(),
            partitions: registry.partitions().into_iter().collect(),
            foreign,
            ..CoordView::default()
        };
        let ckpt_store = CheckpointStore::new(opts.checkpoint_storage);
        let hobs = HostObs::new(&opts.ring.obs, &rings, &acceptor_of);
        MultiRingHost {
            me,
            view,
            rejoining: BTreeSet::new(),
            opts,
            rings,
            acceptor_of,
            learner,
            partition,
            app,
            ckpt_store,
            advertised: None,
            pending_ckpt: None,
            ckpt_seq: 0,
            trims: BTreeMap::new(),
            trim_seq: 0,
            recovery: RecoveryPhase::Idle,
            recovery_seq: 0,
            restart_recovery: false,
            retransmit_rr: 0,
            executed: 0,
            out: Output::new(),
            hobs,
            ring_stats: BTreeMap::new(),
            session_seen: HashMap::new(),
            expire_seq: 0,
            clock_armed: false,
            replies: ReplyRule::default(),
        }
    }

    /// Commands executed by this replica (diagnostics).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// True while post-crash recovery is in progress.
    pub fn is_recovering(&self) -> bool {
        self.recovery.is_recovering()
    }

    /// The replica's current checkpoint tuple (for tests).
    pub fn checkpoint_tuple(&self) -> Option<CheckpointTuple> {
        self.learner.as_ref().map(|l| l.checkpoint_tuple())
    }

    /// [`RingNode::reserve_value_ids`] on every ring of this node.
    pub fn reserve_value_ids(&mut self, floor: u64) {
        for node in self.rings.values_mut() {
            node.reserve_value_ids(floor);
        }
    }

    /// The ring node for `ring` (tests/diagnostics).
    pub fn ring_node(&self, ring: RingId) -> Option<&RingNode> {
        self.rings.get(&ring)
    }

    /// This node's own proposals on `ring` that are still undecided
    /// ([`RingNode::proposals_in_flight`]); 0 for a ring it is not a
    /// member of.
    pub fn proposals_in_flight(&self, ring: RingId) -> usize {
        self.rings
            .get(&ring)
            .map_or(0, RingNode::proposals_in_flight)
    }

    /// Admits one protocol-v2 frame from `client`, whose replies go to
    /// `reply_to`: a [`ClientMsg::RequestV2`] on a group this node serves
    /// becomes the [`Envelope`] to propose there; one for another group
    /// is answered with a [`ClientReply::Redirect`] to a member, or an
    /// [`ClientReply::ErrorV2`] while none is known — and refreshes what
    /// this node knows of that group. A [`ClientMsg::RequestHere`] is
    /// admitted the same way, and this node answers its first execution
    /// too. Other frames admit nothing (the handshake and the stats plane
    /// are the transport's).
    pub fn admit(
        &mut self,
        client: ClientId,
        reply_to: NodeId,
        frame: ClientMsg,
        ctx: &mut Ctx<'_>,
    ) -> Option<(RingId, Envelope)> {
        let here = matches!(frame, ClientMsg::RequestHere { .. });
        let (ClientMsg::RequestV2 {
            session,
            seq,
            ack,
            group,
            cmd,
        }
        | ClientMsg::RequestHere {
            session,
            seq,
            ack,
            group,
            cmd,
        }) = frame
        else {
            return None;
        };
        if self.rings.contains_key(&group) {
            if here {
                self.replies.answer_here(session, seq);
            }
            let trace = self.hobs.obs.trace_stamp();
            return Some((
                group,
                Envelope {
                    client,
                    req: seq,
                    reply_to,
                    session,
                    ack,
                    trace,
                    cmd,
                },
            ));
        }
        let target = (self.view.foreign.get(&group))
            .and_then(|cfg| cfg.members().iter().copied().find(|m| *m != self.me));
        self.ask(CoordOp::GetRing { ring: group }, ctx);
        let reply = match target {
            Some(to) => ClientReply::Redirect { seq, group, to },
            None => ClientReply::ErrorV2 {
                seq,
                code: ErrorCode::UnknownGroup,
                detail: format!("no node serves group {group}"),
            },
        };
        ctx.send(reply_to, Msg::Reply(reply));
        None
    }

    /// Makes this node answer the first execution of admitted `env`
    /// whichever replica answers it for the partition: what admitting it
    /// as a [`ClientMsg::RequestHere`] does, for a driver whose clients
    /// talk to this node alone.
    pub fn answer_here(&mut self, env: &Envelope) {
        self.replies.answer_here(env.session, env.req);
    }

    // ------------------------------------------------------------------
    // coordination
    // ------------------------------------------------------------------

    /// Sends `op` to coordination; its answer comes back as a reply.
    fn ask(&mut self, op: CoordOp, ctx: &mut Ctx<'_>) {
        let view = &mut self.view;
        view.last_ask += 1;
        ctx.send(COORD_NODE, ask(view.last_ask, &op));
        view.asked.insert(view.last_ask, op);
        if view.asked.len() > ASKS_REMEMBERED {
            view.asked.pop_first();
        }
    }

    /// Asks to rejoin every ring a restart still waits for, and retries
    /// until each is answered.
    fn ask_rejoins(&mut self, ctx: &mut Ctx<'_>) {
        for ring in self.rejoining.clone() {
            let (node, as_acceptor) = (self.me, self.acceptor_of.contains(&ring));
            let rejoin = CoordOp::Rejoin {
                ring,
                node,
                as_acceptor,
            };
            self.ask(rejoin, ctx);
        }
        if !self.rejoining.is_empty() {
            ctx.schedule(self.opts.recovery_retry, Timer::of_kind(TIMER_REJOIN));
        }
    }

    /// Folds coordination's answer to one of this node's asks into the
    /// ring nodes and the view.
    fn on_answer(&mut self, reply: &ClientReply, ctx: &mut Ctx<'_>) {
        let Some((seq, result)) = answered(reply) else {
            return;
        };
        let (Some(op), Ok(body)) = (self.view.asked.remove(&seq), result) else {
            return;
        };
        match (op, body) {
            (CoordOp::Subscribers { ring }, CoordOk::Nodes(nodes)) => {
                self.view.subscribers.insert(ring, nodes);
            }
            (CoordOp::Partitions, CoordOk::Partitions(parts)) => {
                self.view.partitions = (parts.iter())
                    .map(|p| (p.partition, PartitionInfo::from_wire(p)))
                    .collect();
            }
            (op, body) => {
                let Some(cfg) = RingConfig::from_answer(&body) else {
                    return;
                };
                let ring = cfg.ring();
                if !self.rings.contains_key(&ring) {
                    self.view.foreign.insert(ring, cfg);
                } else if matches!(op, CoordOp::Rejoin { .. }) && self.rejoining.remove(&ring) {
                    self.drive(ring, ctx, |node, now, out| node.on_restart(cfg, now, out));
                } else if !self.rejoining.contains(&ring) {
                    self.drive(ring, ctx, |node, now, out| node.on_config(cfg, now, out));
                }
            }
        }
    }

    /// Proposes a set of client commands on `group` as **one** consensus
    /// value (proposer-side batching): the whole batch costs a single
    /// instance of the ring, and replicas execute its envelopes in order.
    ///
    /// A singleton slice encodes as [`Payload::One`] — the same path an
    /// unbatched simulated request takes — so batched and unbatched
    /// proposers interoperate freely. Does nothing if this node is not a
    /// member of `group` or `envs` is empty.
    pub fn propose_envelopes(&mut self, group: RingId, mut envs: Vec<Envelope>, ctx: &mut Ctx<'_>) {
        if envs.is_empty() {
            return;
        }
        self.hobs.proposed_cmds.add(envs.len() as u64);
        for env in &envs {
            if env.trace != 0 {
                self.hobs.stage_propose.record_since(env.trace);
            }
        }
        // Does nothing if this node is not a proposer for the group.
        self.drive(group, ctx, |node, now, out| {
            let payload = if envs.len() == 1 {
                Payload::One(envs.pop().expect("len checked"))
            } else {
                Payload::Batch(envs)
            };
            // Allocate the value id from the ring node's own counter:
            // skip tokens and no-op fillers draw from the same
            // (node, seq) space, and a collision would make the
            // coordinator's duplicate suppression silently drop the
            // client's command.
            let id = node.next_value_id();
            let value = Value {
                id,
                kind: common::value::ValueKind::App(payload.to_bytes()),
            };
            node.propose(value, now, out);
        });
    }

    // ------------------------------------------------------------------
    // plumbing
    // ------------------------------------------------------------------

    /// Runs `f` on `ring`'s node, if this node is a member, and drains
    /// what it emitted.
    fn drive(
        &mut self,
        ring: RingId,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut RingNode, SimTime, &mut Output),
    ) {
        let Some(node) = self.rings.get_mut(&ring) else {
            return;
        };
        f(node, ctx.now(), &mut self.out);
        self.drain_ring(ring, ctx);
    }

    fn drain_ring(&mut self, ring: RingId, ctx: &mut Ctx<'_>) {
        self.drain_ring_outputs(ring, ctx);
        if self.learner.is_some() {
            self.pump_merge(ctx);
        }
    }

    /// Moves decided values into the merge learner (without pumping it),
    /// sends onto the wire, timers into the host timer space. Returns
    /// the number of decided instances fed to the learner.
    fn drain_ring_outputs(&mut self, ring: RingId, ctx: &mut Ctx<'_>) -> usize {
        let decided: Vec<_> = self.out.decided.drain(..).collect();
        if !decided.is_empty() {
            self.hobs.instances_decided.add(decided.len() as u64);
            let obs = &self.hobs.obs;
            self.ring_stats
                .entry(ring)
                .or_insert_with(|| RingMergeStats::new(obs, ring))
                .decided
                .add(decided.len() as u64);
        }
        let tracing = self.hobs.obs.tracing();
        if tracing {
            for (_, value) in &decided {
                if let Some(payload) = value.payload() {
                    let t = Payload::peek_trace(payload);
                    if t != 0 {
                        self.hobs.stage_decide.record_since(t);
                    }
                }
            }
        }
        for (to, msg) in self.out.sends.drain(..) {
            note_ring_send(&self.hobs, tracing, &msg);
            ctx.send(to, Msg::Ring(ring, msg));
        }
        for (after, t) in self.out.timers.drain(..) {
            let (tag, payload) = t.to_words();
            let a = (u64::from(ring.raw()) << 8) | tag;
            ctx.schedule(after, Timer::with2(TIMER_RING, a, payload));
        }
        for op in std::mem::take(&mut self.out.asks) {
            self.ask(op, ctx);
        }
        let mut fed = 0;
        if let Some(learner) = &mut self.learner {
            for (inst, value) in decided {
                learner.push_at(ring, inst, value, ctx.now());
                fed += 1;
            }
        }
        fed
    }

    fn pump_merge(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            self.pump_merge_once(ctx);
            // A starvation nudge on a loopback/synchronous ring can
            // decide new skip credit immediately; keep pumping until the
            // merge is genuinely blocked (iterative, not recursive — a
            // deep backlog behind an idle ring must not grow the stack).
            if self.nudge_starved_ring(ctx) == 0 {
                return;
            }
        }
    }

    /// Whether this replica is its partition's designated replier
    /// ([`designated_replier`] on the narrowest ring the partition reads,
    /// as this node's ring node knows it now); `None` if it cannot tell.
    fn designated(&self) -> Option<bool> {
        let info = self.view.partitions.get(&self.partition?)?;
        let narrowest = (info.rings.iter())
            .filter_map(|r| self.rings.get(r))
            .min_by_key(|node| node.config().members().len())?;
        designated_replier(narrowest.config(), &info.replicas).map(|n| n == self.me)
    }

    fn pump_merge_once(&mut self, ctx: &mut Ctx<'_>) {
        let mut executed_any = false;
        let mut designated = None;
        while let Some(delivery) = self.learner.as_mut().and_then(|l| l.pop()) {
            let obs = &self.hobs.obs;
            let stats = (self.ring_stats)
                .entry(delivery.ring)
                .or_insert_with(|| RingMergeStats::new(obs, delivery.ring));
            let waited = ctx.now().since(delivery.decided);
            stats.merge_wait.record(waited.as_nanos() as u64);
            let Ok(payload) =
                Payload::decode(&mut delivery.value.payload().expect("app value").clone())
            else {
                continue; // foreign payload; ignore
            };
            // A batch executes as its envelopes in order: every replica
            // sees the same envelope sequence, so determinism holds.
            for env in payload.into_envelopes() {
                if env.trace != 0 {
                    self.hobs.stage_deliver.record_since(env.trace);
                }
                self.executed += 1;
                executed_any = true;
                self.hobs.executed_cmds.inc();
                let obs = &self.hobs.obs;
                self.ring_stats
                    .entry(delivery.ring)
                    .or_insert_with(|| RingMergeStats::new(obs, delivery.ring))
                    .delivered
                    .inc();
                let reply = self.app.execute(delivery.ring, &env);
                if env.trace != 0 {
                    self.hobs.stage_execute.record_since(env.trace);
                }
                let designated = *designated.get_or_insert_with(|| self.designated());
                if !self.replies.answers(&env, designated) {
                    continue;
                }
                let reply = ClientReply::ResponseV2 {
                    session: env.session,
                    seq: env.req,
                    from_replica: self.me,
                    payload: reply,
                };
                ctx.send(env.reply_to, Msg::Reply(reply));
                if env.trace != 0 {
                    self.hobs.stage_reply.record_since(env.trace);
                }
            }
        }
        if executed_any {
            // Group-commit boundary: everything this drain delivered is
            // flushed (one write + one sync in a durable decorator).
            self.app.flush();
        }
        if let Some(learner) = &self.learner {
            // The skip counter mirrors the merge's own monotonic tally
            // (seeded, not incremented, so replayed pumps cannot double
            // count); the lag gauge is volatile by design.
            self.hobs.merge_skips.seed(learner.skips_consumed());
            self.hobs.merge_lag.set(learner.queued_lag() as i64);
            let obs = &self.hobs.obs;
            for (ring, n) in learner.skips_by_ring() {
                self.ring_stats
                    .entry(ring)
                    .or_insert_with(|| RingMergeStats::new(obs, ring))
                    .skips
                    .seed(n);
            }
            for (ring, n) in learner.lag_by_ring() {
                self.ring_stats
                    .entry(ring)
                    .or_insert_with(|| RingMergeStats::new(obs, ring))
                    .lag
                    .set(n as i64);
            }
        }
    }

    /// When the merge is parked waiting on a ring this node coordinates,
    /// top it up at once ([`RingNode::rate_level_now`]). This is the
    /// only thing besides real commands that advances a following ring
    /// ([`MultiRingHost::leads`]), which the host's Δ clock never steps;
    /// on a leading ring it spares a neighbour that just turned busy the
    /// wait for the end of an idle stride. How far depends on what the
    /// other rings have waiting behind it ([`MergeLearner::backlog`]):
    ///
    /// * a deliverable value: everything that stands between that value
    ///   and its delivery, in one skip;
    /// * only skip credit, of a ring with as many members: all of it —
    ///   peers stay level;
    /// * only skip credit, of a narrower ring: all of it and one of the
    ///   largest idle bursts (a full stride of credit) more; of a wider
    ///   ring: what exceeds two such bursts. So **the wider ring runs one
    ///   to two bursts ahead of the narrower**. A wider ring takes
    ///   longer to decide — more hops, on a WAN more distance — and its
    ///   credit reaches this node a stride at a time while it idles:
    ///   level with it, every command on the narrower ring would wait
    ///   for the wider ring's next burst. Behind it, they find its
    ///   credit waiting, and a command on the wider ring costs one round
    ///   of the narrower one (the first case) to let through.
    ///
    /// A narrow ring on its own clock would not stay behind: λ·Δ per Δ
    /// keeps it level with the wider ring at their coordinators, so once
    /// the wider ring carries traffic its credit reaches the merge later
    /// than the narrow ring's commands. That is why a partition ring
    /// beside a wider one follows: then only this arithmetic moves it.
    ///
    /// Returns the number of decided instances the nudge fed back into
    /// the learner (only a loopback/synchronous ring decides inline; a
    /// real deployment's skip arrives later through the normal decision
    /// path).
    fn nudge_starved_ring(&mut self, ctx: &mut Ctx<'_>) -> usize {
        let (Some(learner), Some(rl)) = (&self.learner, self.opts.ring.rate_leveling) else {
            return 0;
        };
        let Some(ring) = learner.starved_ring() else {
            return 0;
        };
        let width = |r: &RingId| self.ring_width(r);
        let Some(own) = width(&ring).filter(|_| self.rings[&ring].is_coordinator()) else {
            return 0; // the ring's coordinator levels it
        };
        let burst = MAX_IDLE_SKIP_STRIDE * rl.expected_per_delta();
        let credit = learner
            .backlog()
            .filter(|(other, _, _)| *other != ring)
            .map(|(other, credit, work)| match width(&other) {
                _ if work => credit,
                Some(w) if w < own => credit + burst,
                Some(w) if w == own => credit,
                // Wider — or one this node is no member of, whose credit
                // it cannot top up either.
                _ => credit.saturating_sub(2 * burst),
            })
            .max()
            .unwrap_or(0);
        let now = ctx.now();
        let mut out = Output::new();
        let node = self.rings.get_mut(&ring).expect("coordinated here");
        node.rate_level_now(credit, now, &mut out);
        if out.is_empty() {
            return 0;
        }
        self.out = out;
        self.drain_ring_outputs(ring, ctx)
    }

    /// Whether `ring` leads — keeps the paper's Δ clock while this node
    /// coordinates it — from the partition table. It *follows* instead —
    /// no clock skips, only real commands and
    /// [`MultiRingHost::nudge_starved_ring`]'s top-ups — when only this
    /// node's own partition reads it, that partition's merge also reads a
    /// wider ring, and this host is not recovering. The merge then parks
    /// on it rather than on the wider ring, and the nudge keeps it behind:
    /// exactly up to a parked deliverable value, one to two idle bursts
    /// while the wider ring idles. A recovering host's merge is not where
    /// its peers' are, so its top-ups would not follow theirs: its rings
    /// lead, like every other ring.
    fn leads(&self, ring: RingId) -> bool {
        let mut readers = (self.view.partitions.iter()).filter(|(_, p)| p.rings.contains(&ring));
        let own = match (readers.next(), readers.next()) {
            (Some((p, info)), None) if Some(*p) == self.partition => info,
            _ => return true,
        };
        let wider = (own.rings.iter()).any(|r| self.ring_width(r) > self.ring_width(&ring));
        !wider || self.recovery.is_recovering()
    }

    /// Whether this node levels `ring` on the Δ clock (when rate leveling
    /// is on): it coordinates the ring, and the ring leads.
    fn levels(&self, ring: RingId) -> bool {
        self.rings.get(&ring).is_some_and(RingNode::is_coordinator) && self.leads(ring)
    }

    /// Arms the Δ clock unless it is pending or this node levels no ring.
    /// Coordinatorship, partitions and recovery change only inside
    /// [`Process`] callbacks, so each one ends here.
    fn arm_clock(&mut self, ctx: &mut Ctx<'_>) {
        let Some(rl) = self.opts.ring.rate_leveling else {
            return;
        };
        if !self.clock_armed && self.rings.keys().any(|r| self.levels(*r)) {
            self.clock_armed = true;
            ctx.schedule(rl.delta, Timer::of_kind(TIMER_CLOCK));
        }
    }

    /// One Δ of the clock: [`RingNode::on_delta`] on every ring this node
    /// levels, in ring order.
    fn on_clock(&mut self, ctx: &mut Ctx<'_>) {
        self.clock_armed = false;
        let levelled: Vec<RingId> = (self.rings.keys().copied())
            .filter(|r| self.levels(*r))
            .collect();
        for ring in levelled {
            self.drive(ring, ctx, |node, now, out| node.on_delta(now, out));
        }
    }

    /// How many members `ring` has, if this node is one of them (a
    /// replica is a member of every ring its partition reads).
    fn ring_width(&self, ring: &RingId) -> Option<usize> {
        self.rings.get(ring).map(|n| n.config().members().len())
    }

    // ------------------------------------------------------------------
    // checkpointing (replica side of §5.2)
    // ------------------------------------------------------------------

    /// Whether checkpoints outlive a crash; if not, a checkpoint is its
    /// tuple, cut only for the peer that fetches it.
    fn durable(&self) -> bool {
        !matches!(self.opts.checkpoint_storage, StorageMode::InMemory)
    }

    fn take_checkpoint(&mut self, ctx: &mut Ctx<'_>) {
        let Some(learner) = &self.learner else { return };
        if self.pending_ckpt.is_some() || self.recovery.is_recovering() {
            return; // one at a time; never checkpoint mid-recovery
        }
        let tuple = learner.checkpoint_tuple();
        if self.advertised.as_ref() == Some(&tuple) {
            return; // nothing new to checkpoint
        }
        // A durable checkpoint is cut now, for a restart to install: the
        // disk is charged, and `ckpt_bytes` set, with its length in bytes.
        let mut ack_at = ctx.now();
        if let Some((_, retained)) = self.durable().then(|| self.cut()).flatten() {
            let len = retained.encoded_len();
            self.hobs.ckpt_bytes.set(len as i64);
            ack_at = (self.ckpt_store)
                .save(tuple.clone(), retained, len, ack_at)
                .ack_at;
        }
        self.ckpt_seq += 1;
        self.pending_ckpt = Some((self.ckpt_seq, tuple));
        // Synchronous write: the checkpoint is advertised (and counted by
        // the trim protocol) only once the write completes.
        ctx.schedule_at(ack_at, Timer::with(TIMER_CHECKPOINT_DONE, self.ckpt_seq));
    }

    /// A cut of the current state at the merge's delivery cursor: its
    /// tuple, and the meta encoded beside the service's structural cut.
    fn cut(&self) -> Option<(CheckpointTuple, Retained)> {
        let learner = self.learner.as_ref()?;
        let (merge_turn, merge_credits) = learner.scheduler_state();
        // Snapshot each ring's delivered ids at the *merge's* cut for
        // that ring: the ring learner may have emitted deliveries the
        // merge has not consumed yet — exactly what the merge still
        // queues — and those must not poison a restored replica's
        // duplicate suppression (they will be re-delivered during
        // catch-up).
        let dedup = (self.rings.iter())
            .map(|(r, n)| (*r, n.dedup_snapshot(learner.queued_ids(*r))))
            .collect();
        let meta = Meta {
            dedup,
            merge_turn,
            merge_credits,
        };
        self.hobs.ckpt_cuts.inc();
        let retained = Retained {
            meta: meta.to_bytes(),
            cut: self.app.snapshot_cut(),
        };
        Some((learner.checkpoint_tuple(), retained))
    }

    /// Answers a peer's `CheckpointFetch`: with the asked checkpoint if
    /// it is still retained, or else with a cut of the current state,
    /// whose tuple dominates every checkpoint this host advertised. A
    /// recovering host answers nothing.
    fn on_checkpoint_fetch(&mut self, from: NodeId, tuple: CheckpointTuple, ctx: &mut Ctx<'_>) {
        if self.recovery.is_recovering() {
            return;
        }
        let kept = (self.ckpt_store.get(&tuple)).map(|r| (tuple, r.encode()));
        let Some((tuple, state)) = kept.or_else(|| self.cut().map(|(t, r)| (t, r.encode()))) else {
            return;
        };
        self.hobs.ckpt_bytes.set(state.len() as i64);
        ctx.send(
            from,
            Msg::Recovery(RecoveryMsg::CheckpointData { tuple, state }),
        );
    }

    /// First-checkpoint delay: the configured interval plus a
    /// deterministic per-node phase offset (0–75% of the interval).
    /// Replicas of a partition start together and share a cadence;
    /// without the offset they all take their cuts at the same instant.
    /// The offset only shifts the *phase* — steady-state cadence is
    /// unchanged.
    fn ckpt_phase(&self, interval: Duration) -> Duration {
        interval + interval * (self.me.raw() % 4) / 4
    }

    /// Steady-state cadence spread: pushes the next checkpoint out by a
    /// deterministic 0–87.5% of `base`, keyed on node id *and*
    /// checkpoint sequence. The initial phase offsets de-align the first
    /// round, but identical configured cadences would let the cuts
    /// re-converge a few rounds later; varying the slot each round keeps
    /// replicas' cuts drifting apart instead. Purely arithmetic, so the
    /// deterministic simulator stays deterministic.
    fn ckpt_spread(&self, base: Duration) -> Duration {
        let slot = (u64::from(self.me.raw()) * 5 + self.ckpt_seq * 3) % 8;
        base + base * (slot as u32) / 8
    }

    fn install_snapshot(&mut self, tuple: &CheckpointTuple, state: &Bytes) {
        let mut snap = Snapshot::decode(&mut state.clone()).ok();
        if let Some(snap) = &mut snap {
            self.app.restore(&snap.app);
            self.replies.forget_executed();
            for (ring, ids) in std::mem::take(&mut snap.meta.dedup) {
                if let Some(node) = self.rings.get_mut(&ring) {
                    node.restore_dedup(ids);
                }
            }
        }
        for (ring, inst) in tuple.entries() {
            if let Some(node) = self.rings.get_mut(&ring) {
                node.set_next_delivery(inst);
            }
        }
        if let Some(learner) = &mut self.learner {
            learner.restore(tuple);
            if let Some(snap) = &snap {
                learner.restore_scheduler_state(snap.meta.merge_turn, &snap.meta.merge_credits);
            }
        }
        self.advertised = Some(tuple.clone());
    }

    // ------------------------------------------------------------------
    // trim protocol (coordinator side of §5.2)
    // ------------------------------------------------------------------

    fn run_trim_round(&mut self, ring: RingId, ctx: &mut Ctx<'_>) {
        let Some(node) = self.rings.get(&ring) else {
            return;
        };
        if !node.is_coordinator() {
            return;
        }
        // The electorate and the quorums as this node knows them; the
        // next round uses what these asks bring back.
        self.ask(CoordOp::Subscribers { ring }, ctx);
        self.ask(CoordOp::Partitions, ctx);
        self.trim_seq += 1;
        // The round exists before any query leaves: the coordinator
        // answers its own query inline, and that reply must find it.
        let round = match self.trims.get(&ring) {
            Some(last) => last.next(self.trim_seq),
            None => TrimRound::new(ring, self.trim_seq),
        };
        self.trims.insert(ring, round);
        let subscribers = self.view.subscribers.get(&ring).cloned();
        for sub in subscribers.unwrap_or_default() {
            if sub == self.me {
                self.on_trim_query(ring, self.trim_seq, ctx);
            } else {
                let seq = self.trim_seq;
                ctx.send(sub, Msg::Recovery(RecoveryMsg::TrimQuery { ring, seq }));
            }
        }
    }

    fn on_trim_query(&mut self, ring: RingId, seq: u64, ctx: &mut Ctx<'_>) {
        // Reply with the highest instance (inclusive) covered by our
        // durable checkpoint on this ring; no checkpoint → no reply.
        let Some(adv) = &self.advertised else { return };
        let Some(next) = adv.get(ring) else { return };
        if next == InstanceId::ZERO {
            return; // nothing delivered yet: nothing safe to trim
        }
        let safe = InstanceId::new(next.raw() - 1);
        let Some(coordinator) = self.rings.get(&ring).map(|n| n.config().coordinator()) else {
            return;
        };
        let reply = Msg::Recovery(RecoveryMsg::TrimReply {
            ring,
            seq,
            safe,
            replica: self.me,
        });
        if coordinator == self.me {
            self.on_trim_reply(ring, seq, safe, self.me, ctx);
        } else {
            ctx.send(coordinator, reply);
        }
    }

    /// Counts a replica's trim reply in the ring's open round, if it
    /// answers that round or the ring's previous one ([`TrimRound::accepts`]);
    /// older replies are dropped. A reply one round late still counts
    /// because it is safe to: its `safe` bounds the replica's durable
    /// checkpoint when it answered, a replica advertises only durable
    /// checkpoints and a newer one never covers less, so `safe` is still
    /// a lower bound on what that replica can restore from. The minimum
    /// over the quorum therefore stays at or below every quorum member's
    /// checkpoint (Predicate 2), as it does for replies to the open
    /// round; of a late and a current answer the higher is the tighter
    /// bound. A round opened every trim interval would otherwise drop
    /// every reply that takes longer than one interval, and a ring whose
    /// replicas all answer late would never trim.
    fn on_trim_reply(
        &mut self,
        ring: RingId,
        seq: u64,
        safe: InstanceId,
        replica: NodeId,
        ctx: &mut Ctx<'_>,
    ) {
        let Some(round) = (self.trims.get_mut(&ring)).filter(|r| r.accepts(seq)) else {
            return;
        };
        round.record(replica, safe);
        // Quorum rule: a majority of every partition subscribing to this
        // ring (guarantees Q_T ∩ Q_R ≠ ∅ for any partition's Q_R).
        let partitions: Vec<Vec<NodeId>> = (self.view.partitions.iter())
            .filter(|(_, info)| info.rings.contains(&ring))
            .map(|(_, info)| info.replicas.clone())
            .collect();
        if let Some(kt) = round.quorum_min(&partitions) {
            round.close();
            let acceptors =
                (self.rings.get(&ring)).map_or_else(Vec::new, |n| n.config().acceptors().to_vec());
            for acc in acceptors {
                if acc == self.me {
                    self.trim_log(ring, kt);
                } else {
                    ctx.send(acc, Msg::Recovery(RecoveryMsg::Trim { ring, upto: kt }));
                }
            }
            self.hobs.trim_rounds.inc();
        }
    }

    /// Applies a `Trim` order to this node's acceptor log on `ring`.
    fn trim_log(&mut self, ring: RingId, upto: InstanceId) {
        if let Some(node) = self.rings.get_mut(&ring) {
            node.trim_log(upto);
        }
    }

    /// Refreshes the gauges of what this node retains. Per ring: its
    /// acceptor log (`trim_floor`, `log_slots`, `log_bytes`), its
    /// learned-value cache (`cache_values`, `cache_bytes`) and the runs
    /// of its delivered ids (`dedup_ranges`). Per node,
    /// `mem_accounted_bytes`: the payload bytes of the logs, caches and
    /// merge queue, the delivered-id runs at their in-memory size, and the
    /// meta bytes of the durable checkpoints retained (none with
    /// in-memory storage). A retained checkpoint's service cut shares its
    /// values with the store, so the values it alone pins (those
    /// overwritten or deleted since the cut) are not counted. It walks
    /// every retained value, so the stats plane calls it when it is read;
    /// nothing on the ordering path does.
    pub fn refresh_gauges(&self) {
        let meta: usize = (self.ckpt_store.iter()).map(|(_, r)| r.meta.len()).sum();
        let merge = self.learner.as_ref().map_or(0, MergeLearner::queued_bytes);
        let mut accounted = meta + merge;
        for g in &self.hobs.retained {
            let Some(node) = self.rings.get(&g.ring) else {
                continue;
            };
            let ([cache_values, cache_bytes], (values, bytes)) = (&g.cache, node.value_cache());
            let ids = node.delivered_ids();
            cache_values.set(values as i64);
            cache_bytes.set(bytes as i64);
            g.dedup_ranges.set(ids.ranges() as i64);
            accounted += bytes + ids.ranges() * DeliveredIds::RUN_BYTES;
            if let Some([floor, slots, log_bytes]) = &g.log {
                let log = node.log();
                let payload = log.payload_bytes();
                floor.set(log.trim_floor().raw() as i64);
                slots.set(log.len() as i64);
                log_bytes.set(payload as i64);
                accounted += payload;
            }
        }
        self.hobs.mem_accounted.set(accounted as i64);
    }

    // ------------------------------------------------------------------
    // client sessions
    // ------------------------------------------------------------------

    /// Session expiry: the replicated session table's refresh counters
    /// advance only through ordered keep-alives, so every replica reads
    /// the same values. A counter that sat still for its session's TTL
    /// gets an expiry proposed on the session's home ring — by that
    /// ring's members only, so a session on one partition's ring never
    /// costs another ring an ordered message. A keep-alive racing through
    /// the log wins the CAS and the session survives. The sweep also
    /// refreshes the session gauges.
    fn sweep_sessions(&mut self, ctx: &mut Ctx<'_>) {
        let mut ids = self.app.session_ids();
        ids.sort_unstable();
        self.hobs.session_count.set(ids.len() as i64);
        (self.hobs.session_cached_replies).set(self.app.cached_reply_count() as i64);
        let now = ctx.now();
        self.session_seen
            .retain(|id, _| ids.binary_search(id).is_ok());
        self.replies.retain(&ids);
        for id in ids {
            let Some(ring) = session_home_ring(id).filter(|r| self.rings.contains_key(r)) else {
                continue;
            };
            let Some((refresh, ttl_ms)) = self.app.session_probe(id) else {
                continue;
            };
            let seen = self.session_seen.entry(id).or_insert((refresh, now));
            if seen.0 != refresh {
                *seen = (refresh, now);
                continue;
            }
            if now.since(seen.1) <= Duration::from_millis(ttl_ms.max(1)) {
                continue;
            }
            // Back off a full TTL before proposing again.
            seen.1 = now;
            self.expire_seq += 1;
            let expire = SessionCtl::Expire {
                session: id,
                seen_refresh: refresh,
            };
            let env = Envelope {
                client: ClientId::new(0),
                req: RequestId::new(self.expire_seq),
                // The answer comes back to this node, which drops it.
                reply_to: self.me,
                session: SESSION_CTL,
                ack: 0,
                trace: 0,
                cmd: expire.to_bytes(),
            };
            self.propose_envelopes(ring, vec![env], ctx);
        }
    }

    // ------------------------------------------------------------------
    // recovery (restarting replica side of §5.2)
    // ------------------------------------------------------------------

    fn dbg(&self, ctx: &Ctx<'_>, what: &str) {
        if common::debug_enabled() {
            eprintln!("[{} {} ] {}", ctx.now(), self.me, what);
        }
    }

    fn begin_recovery(&mut self, ctx: &mut Ctx<'_>) {
        self.dbg(ctx, "begin_recovery");
        let Some(partition) = self.partition else {
            self.recovery = RecoveryPhase::CatchUp;
            self.step_catch_up(ctx);
            return;
        };
        self.recovery_seq += 1;
        let info = self
            .view
            .partitions
            .get(&partition)
            .cloned()
            .unwrap_or_default();
        let need = info.quorum().saturating_sub(1); // self counts
        if need == 0 {
            self.recovery = RecoveryPhase::CatchUp;
            self.step_catch_up(ctx);
            return;
        }
        self.recovery = RecoveryPhase::QueryCheckpoints {
            seq: self.recovery_seq,
            replied: Vec::new(),
            best: None,
            need,
        };
        for peer in &info.replicas {
            if *peer != self.me {
                ctx.send(
                    *peer,
                    Msg::Recovery(RecoveryMsg::CheckpointQuery {
                        partition,
                        seq: self.recovery_seq,
                    }),
                );
            }
        }
        ctx.schedule(self.opts.recovery_retry, Timer::of_kind(TIMER_RECOVERY));
    }

    fn on_checkpoint_info(
        &mut self,
        seq: u64,
        replica: NodeId,
        tuple: CheckpointTuple,
        ctx: &mut Ctx<'_>,
    ) {
        let RecoveryPhase::QueryCheckpoints {
            seq: want,
            replied,
            best,
            need,
        } = &mut self.recovery
        else {
            return;
        };
        if seq != *want || replied.contains(&replica) {
            return;
        }
        replied.push(replica);
        if !tuple.is_empty() {
            match best {
                Some((_, b)) if b.dominates(&tuple) => {}
                _ => *best = Some((replica, tuple)),
            }
        }
        if replied.len() >= *need {
            let best = best.clone();
            let local = self.advertised.clone();
            match best {
                Some((peer, tuple))
                    if local.as_ref().map(|l| !l.dominates(&tuple)).unwrap_or(true) =>
                {
                    // A peer has a strictly newer checkpoint: fetch it.
                    self.recovery = RecoveryPhase::Fetching {
                        tuple: tuple.clone(),
                        asked: ctx.now(),
                    };
                    ctx.send(peer, Msg::Recovery(RecoveryMsg::CheckpointFetch { tuple }));
                }
                _ => {
                    // Our durable checkpoint is the freshest; replay from
                    // the acceptors.
                    self.recovery = RecoveryPhase::CatchUp;
                    self.step_catch_up(ctx);
                }
            }
        }
    }

    fn on_checkpoint_data(&mut self, tuple: CheckpointTuple, state: Bytes, ctx: &mut Ctx<'_>) {
        self.dbg(ctx, &format!("checkpoint_data {tuple}"));
        if let RecoveryPhase::Fetching { tuple: want, .. } = &self.recovery {
            // The peer sends a newer checkpoint than the one asked for
            // once it no longer retains that one.
            if !tuple.dominates(want) {
                return;
            }
            self.install_snapshot(&tuple, &state);
            if self.durable() {
                let (len, now) = (state.len(), ctx.now());
                (self.ckpt_store).save(tuple, Retained::fetched(state), len, now);
            }
            self.recovery = RecoveryPhase::CatchUp;
            self.step_catch_up(ctx);
        }
    }

    /// Requests retransmission for every subscribed ring that is behind,
    /// and finishes recovery when none are.
    fn step_catch_up(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(l) = &self.learner {
            let gaps: Vec<String> = l
                .rings()
                .iter()
                .filter_map(|r| {
                    self.rings
                        .get(r)
                        .and_then(|n| n.buffered_gap())
                        .map(|(a, b)| format!("{r}:{a}..{b}"))
                })
                .collect();
            self.dbg(ctx, &format!("step_catch_up gaps={gaps:?}"));
        }
        let Some(learner) = &self.learner else {
            self.recovery = RecoveryPhase::Idle;
            return;
        };
        let mut pending = false;
        let rings = learner.rings();
        for ring in rings {
            let Some(node) = self.rings.get(&ring) else {
                continue;
            };
            // Ask for everything from the learner's position up to any
            // buffered decisions (gap), or a chunk beyond if nothing is
            // buffered yet.
            if let Some((from, to)) = node.buffered_gap() {
                pending = true;
                self.send_retransmit_request(ring, from, to, ctx);
            }
        }
        if pending {
            ctx.schedule(self.opts.recovery_retry, Timer::of_kind(TIMER_RECOVERY));
        } else {
            self.recovery = RecoveryPhase::Idle;
        }
    }

    fn send_retransmit_request(
        &mut self,
        ring: RingId,
        from: InstanceId,
        to: InstanceId,
        ctx: &mut Ctx<'_>,
    ) {
        let Some(node) = self.rings.get(&ring) else {
            return;
        };
        // Rotate over acceptors other than us: after a ring
        // reconfiguration some acceptors may themselves be missing
        // decisions for the requested range.
        let others: Vec<NodeId> = (node.config().acceptors())
            .iter()
            .copied()
            .filter(|a| *a != self.me)
            .collect();
        if others.is_empty() {
            return;
        }
        self.retransmit_rr += 1;
        let acc = others[(self.retransmit_rr as usize) % others.len()];
        ctx.send(
            acc,
            Msg::Recovery(RecoveryMsg::Retransmit { ring, from, to }),
        );
    }

    fn on_retransmit(
        &mut self,
        ring: RingId,
        from: InstanceId,
        to: InstanceId,
        requester: NodeId,
        ctx: &mut Ctx<'_>,
    ) {
        let Some(node) = self.rings.get(&ring) else {
            return;
        };
        let to = to.min(from.plus(RETRANSMIT_CHUNK));
        let decisions = node.log().decided_in_range(from, to);
        let log_start = node.log().trim_floor();
        ctx.send(
            requester,
            Msg::Recovery(RecoveryMsg::RetransmitReply {
                ring,
                decisions,
                log_start,
            }),
        );
    }

    fn on_retransmit_reply(
        &mut self,
        ring: RingId,
        decisions: Vec<common::msg::AcceptedEntry>,
        log_start: InstanceId,
        ctx: &mut Ctx<'_>,
    ) {
        let needed = self
            .learner
            .as_ref()
            .and_then(|l| l.next_needed(ring))
            .unwrap_or(InstanceId::ZERO);
        self.dbg(
            ctx,
            &format!(
                "retransmit_reply ring={ring} n={} log_start={log_start} needed={needed} first={:?}",
                decisions.len(),
                decisions.first().map(|d| d.inst)
            ),
        );
        if log_start > needed {
            // The acceptors trimmed past our position: we must fetch a
            // newer checkpoint from a peer (Predicate 5 guarantees one
            // exists at recovery time; if trimming advanced during a slow
            // catch-up, peers have checkpointed again by now). Back off to
            // the retry timer instead of re-querying inline, otherwise a
            // reply/re-query cycle spins at network speed.
            self.dbg(
                ctx,
                &format!("retransmit hit trim: log_start={log_start} needed={needed}"),
            );
            if !self.restart_recovery {
                self.restart_recovery = true;
                ctx.schedule(self.opts.recovery_retry, Timer::of_kind(TIMER_RECOVERY));
            }
            return;
        }
        let progress = !decisions.is_empty();
        self.drive(ring, ctx, |node, now, out| {
            for d in decisions {
                node.learn_decided(d.inst, d.value, now, out);
            }
        });
        if matches!(self.recovery, RecoveryPhase::CatchUp) && progress {
            // Chain the next chunk. On empty replies we back off to the
            // TIMER_RECOVERY retry instead: the serving acceptor was
            // missing decisions and the round-robin will try another.
            self.step_catch_up(ctx);
        }
    }

    /// [`Process::on_message`] up to the clock check.
    fn handle_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        match msg {
            Msg::Ring(ring, m) => {
                // A restarted node takes part once it rejoined.
                if !self.rejoining.contains(&ring) {
                    self.drive(ring, ctx, |node, now, out| node.on_msg(from, m, now, out));
                }
            }
            Msg::Client(frame) => {
                // A simulated client is known by its node id.
                let client = ClientId::new(from.raw());
                if let Some((group, env)) = self.admit(client, from, frame, ctx) {
                    self.propose_envelopes(group, vec![env], ctx);
                }
            }
            Msg::Reply(reply) => self.on_answer(&reply, ctx),
            Msg::Recovery(r) => match r {
                RecoveryMsg::TrimQuery { ring, seq } => self.on_trim_query(ring, seq, ctx),
                RecoveryMsg::TrimReply {
                    ring,
                    seq,
                    safe,
                    replica,
                } => self.on_trim_reply(ring, seq, safe, replica, ctx),
                RecoveryMsg::Trim { ring, upto } => self.trim_log(ring, upto),
                RecoveryMsg::CheckpointQuery { partition, seq } => {
                    if self.partition == Some(partition) {
                        let tuple = self.advertised.clone().unwrap_or_default();
                        ctx.send(
                            from,
                            Msg::Recovery(RecoveryMsg::CheckpointInfo {
                                seq,
                                replica: self.me,
                                tuple,
                            }),
                        );
                    }
                }
                RecoveryMsg::CheckpointInfo {
                    seq,
                    replica,
                    tuple,
                } => self.on_checkpoint_info(seq, replica, tuple, ctx),
                RecoveryMsg::CheckpointFetch { tuple } => {
                    self.on_checkpoint_fetch(from, tuple, ctx)
                }
                RecoveryMsg::CheckpointData { tuple, state } => {
                    self.on_checkpoint_data(tuple, state, ctx)
                }
                RecoveryMsg::Retransmit { ring, from: f, to } => {
                    self.on_retransmit(ring, f, to, from, ctx)
                }
                RecoveryMsg::RetransmitReply {
                    ring,
                    decisions,
                    log_start,
                } => self.on_retransmit_reply(ring, decisions, log_start, ctx),
            },
            Msg::Custom(..) => {}
        }
    }

    /// [`Process::on_timer`] up to the clock check.
    fn handle_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        match timer.kind {
            TIMER_RING => {
                let ring = RingId::new((timer.a >> 8) as u16);
                let tag = timer.a & 0xff;
                let Some(t) = RingTimer::from_words(tag, timer.b) else {
                    return;
                };
                if t == RingTimer::Liveness {
                    self.hobs.liveness_fires.inc();
                }
                self.drive(ring, ctx, |node, now, out| node.on_timer(t, now, out));
            }
            TIMER_CLOCK => self.on_clock(ctx),
            TIMER_CHECKPOINT => {
                // The spread's slot reads the sequence number before this
                // checkpoint counts, so it does not depend on whether one
                // is taken.
                let next = (self.opts.checkpoint_interval).map(|i| self.ckpt_spread(i));
                self.take_checkpoint(ctx);
                if let Some(next) = next {
                    ctx.schedule(next, Timer::of_kind(TIMER_CHECKPOINT));
                }
            }
            TIMER_REJOIN => self.ask_rejoins(ctx),
            TIMER_SESSION_SWEEP => {
                ctx.schedule(self.opts.session_sweep, Timer::of_kind(TIMER_SESSION_SWEEP));
                self.sweep_sessions(ctx);
            }
            TIMER_CHECKPOINT_DONE => {
                if let Some((seq, tuple)) = self.pending_ckpt.take() {
                    if seq == timer.a {
                        self.advertised = Some(tuple);
                        // The checkpoint is durable: durability
                        // decorators may prune their logs below what it
                        // covers.
                        self.app.checkpoint_durable();
                    } else {
                        self.pending_ckpt = Some((seq, tuple));
                    }
                }
            }
            TIMER_TRIM => {
                let ring = RingId::new(timer.a as u16);
                self.run_trim_round(ring, ctx);
                if let Some(interval) = self.opts.trim_interval {
                    ctx.schedule(interval, Timer::with(TIMER_TRIM, timer.a));
                }
            }
            TIMER_GAP => {
                // Gap healing for *live* learners: a ring reconfiguration
                // can lose circulating decisions at the removed member, so
                // any learner may find itself with buffered decisions
                // beyond an undelivered gap. Request retransmission from
                // the acceptors (round-robin).
                ctx.schedule(self.opts.recovery_retry, Timer::of_kind(TIMER_GAP));
                if self.recovery.is_recovering() {
                    return; // recovery's own retries handle gaps
                }
                let gaps: Vec<(RingId, InstanceId, InstanceId)> = self
                    .learner
                    .as_ref()
                    .map(|l| {
                        l.rings()
                            .into_iter()
                            .filter_map(|r| {
                                self.rings
                                    .get(&r)
                                    .and_then(|n| n.buffered_gap())
                                    .map(|(a, b)| (r, a, b))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                for (ring, from, to) in gaps {
                    self.dbg(ctx, &format!("gap heal {ring} {from}..{to}"));
                    self.send_retransmit_request(ring, from, to, ctx);
                }
            }
            TIMER_RECOVERY => {
                if self.restart_recovery {
                    self.restart_recovery = false;
                    self.begin_recovery(ctx);
                    return;
                }
                match &self.recovery {
                    RecoveryPhase::Idle => {}
                    RecoveryPhase::QueryCheckpoints { .. } => {
                        // Quorum still outstanding: restart the query.
                        self.begin_recovery(ctx);
                    }
                    RecoveryPhase::Fetching { asked, .. } => {
                        // A peer silent for a whole retry may have failed:
                        // ask the partition again, not that peer.
                        let left =
                            (self.opts.recovery_retry).saturating_sub(ctx.now().since(*asked));
                        if left.is_zero() {
                            self.begin_recovery(ctx);
                        } else {
                            ctx.schedule(left, Timer::of_kind(TIMER_RECOVERY));
                        }
                    }
                    RecoveryPhase::CatchUp => self.step_catch_up(ctx),
                }
            }
            _ => {}
        }
    }
}

impl Process for MultiRingHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let rings: Vec<RingId> = self.rings.keys().copied().collect();
        for ring in rings {
            self.drive(ring, ctx, |node, now, out| node.start(now, out));
        }
        if let Some(interval) = self.opts.checkpoint_interval {
            ctx.schedule(self.ckpt_phase(interval), Timer::of_kind(TIMER_CHECKPOINT));
        }
        if let Some(interval) = self.opts.trim_interval {
            for ring in self.rings.keys() {
                ctx.schedule(interval, Timer::with(TIMER_TRIM, u64::from(ring.raw())));
            }
        }
        if self.learner.is_some() {
            ctx.schedule(self.opts.recovery_retry, Timer::of_kind(TIMER_GAP));
            ctx.schedule(self.opts.session_sweep, Timer::of_kind(TIMER_SESSION_SWEEP));
        }
        self.arm_clock(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        self.handle_message(from, msg, ctx);
        self.arm_clock(ctx);
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        self.handle_timer(timer, ctx);
        self.arm_clock(ctx);
    }

    fn on_crash(&mut self, now: SimTime) {
        for node in self.rings.values_mut() {
            node.on_crash(now);
        }
        self.ckpt_store.crash(now);
        self.app.reset();
        self.learner = self
            .learner
            .as_ref()
            .map(|l| MergeLearner::new(&l.rings(), l.m()));
        self.advertised = None;
        self.pending_ckpt = None;
        self.trims.clear();
        self.recovery = RecoveryPhase::Idle;
        self.restart_recovery = false;
        self.executed = 0;
        self.session_seen.clear();
        self.clock_armed = false;
        self.replies = ReplyRule::default();
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // Rejoin every ring (as acceptor where we were one): each ring
        // node restarts with the config its rejoin's answer carries.
        self.rejoining = self.rings.keys().copied().collect();
        self.ask_rejoins(ctx);
        // Install our most recent durable checkpoint, then look for a
        // fresher one among partition peers.
        if let Some((tuple, state)) = (self.ckpt_store.latest_durable(now))
            .map(|(t, retained)| (t.clone(), retained.encode()))
        {
            self.install_snapshot(&tuple, &state);
        }
        self.begin_recovery(ctx);
        if let Some(interval) = self.opts.checkpoint_interval {
            ctx.schedule(self.ckpt_phase(interval), Timer::of_kind(TIMER_CHECKPOINT));
        }
        if let Some(interval) = self.opts.trim_interval {
            for ring in self.rings.keys() {
                ctx.schedule(interval, Timer::with(TIMER_TRIM, u64::from(ring.raw())));
            }
        }
        if self.learner.is_some() {
            ctx.schedule(self.opts.recovery_retry, Timer::of_kind(TIMER_GAP));
            ctx.schedule(self.opts.session_sweep, Timer::of_kind(TIMER_SESSION_SWEEP));
        }
        self.arm_clock(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EchoApp;
    use common::process::Effects;
    use ringpaxos::options::RateLeveling;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// `partitions` partitions of `replicas` nodes, partition `p` on ring
    /// `p` over its replicas, and a global ring (id `partitions`) over
    /// every node that both partitions read — the layout of a generated
    /// localhost deployment. Ring coordinators are their first members.
    fn layout(partitions: u16, replicas: u16) -> Registry {
        let registry = Registry::new();
        let nodes: Vec<NodeId> = (0..u32::from(partitions * replicas))
            .map(NodeId::new)
            .collect();
        let global = RingId::new(partitions);
        for p in 0..partitions {
            let members = nodes[usize::from(p * replicas)..][..usize::from(replicas)].to_vec();
            let ring = RingId::new(p);
            let cfg = RingConfig::new(ring, members.clone(), members.clone()).unwrap();
            registry.register_ring(cfg).unwrap();
            let rings = vec![ring, global];
            let info = PartitionInfo {
                rings,
                replicas: members,
            };
            registry
                .register_partition(PartitionId::new(p), info)
                .unwrap();
        }
        let cfg = RingConfig::new(global, nodes.clone(), nodes).unwrap();
        registry.register_ring(cfg).unwrap();
        registry
    }

    /// Node `me`'s host in [`layout`], started at time zero.
    fn started(registry: &Registry, me: u32, replicas: u16, fx: &mut Effects) -> MultiRingHost {
        started_with(registry, me, replicas, Box::new(EchoApp::new()), fx)
    }

    /// [`started`] over `app`.
    fn started_with(
        registry: &Registry,
        me: u32,
        replicas: u16,
        app: Box<dyn ServiceApp>,
        fx: &mut Effects,
    ) -> MultiRingHost {
        started_in(registry, me, replicas, app, StorageMode::InMemory, fx)
    }

    /// [`started_with`], checkpointing to `storage`.
    fn started_in(
        registry: &Registry,
        me: u32,
        replicas: u16,
        app: Box<dyn ServiceApp>,
        storage: StorageMode,
        fx: &mut Effects,
    ) -> MultiRingHost {
        let partition = (me / u32::from(replicas)) as u16;
        let global = RingId::new(registry.partitions().len() as u16);
        let rings = [RingId::new(partition), global];
        let mut opts = HostOptions {
            checkpoint_storage: storage,
            ..HostOptions::default()
        };
        opts.ring.rate_leveling = Some(RateLeveling {
            delta: Duration::from_millis(1),
            lambda: 9000,
        });
        let mut host = MultiRingHost::new(
            NodeId::new(me),
            registry.clone(),
            &rings,
            &rings,
            Some(PartitionId::new(partition)),
            app,
            opts,
        );
        host.on_start(&mut fx.ctx(SimTime::ZERO, host.me));
        host
    }

    /// How many Δ clocks the callbacks since the last call armed; drops
    /// everything else they left.
    fn clocks_armed(fx: &mut Effects) -> usize {
        fx.drain_sends().for_each(drop);
        (fx.drain_timers())
            .filter(|(_, t)| t.kind == TIMER_CLOCK)
            .count()
    }

    /// Fires `ring`'s `timer` on `host` at `at`.
    fn fire(
        host: &mut MultiRingHost,
        ring: RingId,
        timer: RingTimer,
        at: SimTime,
        fx: &mut Effects,
    ) {
        let (tag, payload) = timer.to_words();
        let timer = Timer::with2(TIMER_RING, (u64::from(ring.raw()) << 8) | tag, payload);
        host.on_timer(timer, &mut fx.ctx(at, host.me));
    }

    /// Answers, through `registry`, every coordination ask the last
    /// callbacks left in `fx`; returns the clocks armed while the host
    /// took the answers in.
    fn answer_asks(host: &mut MultiRingHost, registry: &Registry, fx: &mut Effects) -> usize {
        let asks: Vec<Msg> = (fx.drain_sends())
            .filter(|(to, _)| *to == COORD_NODE)
            .map(|(_, msg)| msg)
            .collect();
        fx.drain_timers().for_each(drop);
        let mut armed = 0;
        for ask in asks {
            let reply = registry.answer(&ask, COORD_NODE).expect("an ask");
            host.on_message(COORD_NODE, reply, &mut fx.ctx(SimTime::ZERO, host.me));
            armed += clocks_armed(fx);
        }
        armed
    }

    /// In a 2 × 2 layout only node 0 coordinates the global ring, which
    /// leads. Node 2 coordinates partition 1's ring, which follows the
    /// wider global ring; nodes 1 and 3 coordinate nothing. None of
    /// those three arms a Δ clock, whatever fires.
    #[test]
    fn a_node_that_levels_no_ring_arms_no_clock() {
        let registry = layout(2, 2);
        for me in 1..4 {
            let mut fx = Effects::new(1);
            let mut host = started(&registry, me, 2, &mut fx);
            assert_eq!(clocks_armed(&mut fx), 0, "node {me} started");
            let own = RingId::new((me / 2) as u16);
            for ring in [own, RingId::new(2)] {
                for timer in [RingTimer::Liveness, RingTimer::ProposalRetry] {
                    fire(&mut host, ring, timer, SimTime::from_millis(10), &mut fx);
                }
            }
            assert_eq!(clocks_armed(&mut fx), 0, "node {me} after its ring timers");
        }
    }

    /// A coordinator of leading rings arms one clock per tick however
    /// many of them it levels: two in the 1 × 3 layout (both rings are
    /// as wide, so both lead), one beside a follower in the 2 × 2.
    #[test]
    fn a_coordinator_of_leading_rings_arms_one_clock_per_tick() {
        for (partitions, replicas, levelled) in [(1, 3, 2), (2, 2, 1)] {
            let registry = layout(partitions, replicas);
            let mut fx = Effects::new(1);
            let mut host = started(&registry, 0, replicas, &mut fx);
            let rings: Vec<RingId> = host.rings.keys().copied().collect();
            let levels = rings.iter().filter(|r| host.levels(**r)).count();
            assert_eq!(levels, levelled, "{partitions} × {replicas}");
            assert_eq!(
                clocks_armed(&mut fx),
                1,
                "{partitions} × {replicas} started"
            );
            for tick in 1..=3 {
                let at = SimTime::from_millis(tick);
                host.on_timer(Timer::of_kind(TIMER_CLOCK), &mut fx.ctx(at, host.me));
                assert_eq!(
                    clocks_armed(&mut fx),
                    1,
                    "{partitions} × {replicas} tick {tick}"
                );
            }
        }
    }

    /// Node 2 of a 2 × 2 layout coordinates partition 1's ring, which
    /// follows the global ring — until a crash: while the restarted
    /// host recovers, its ring leads and the host clocks it from the
    /// callback that takes its rejoin in.
    #[test]
    fn a_follower_whose_host_is_recovering_falls_back_to_the_clock() {
        let registry = layout(2, 2);
        let mut fx = Effects::new(1);
        let mut host = started(&registry, 2, 2, &mut fx);
        let own = RingId::new(1);
        assert!(host.ring_node(own).unwrap().is_coordinator());
        assert_eq!(clocks_armed(&mut fx), 0);

        host.on_crash(SimTime::ZERO);
        host.on_restart(&mut fx.ctx(SimTime::ZERO, host.me));
        assert!(host.is_recovering());
        assert_eq!(answer_asks(&mut host, &registry, &mut fx), 1);
        assert!(host.ring_node(own).unwrap().is_coordinator());
        assert!(host.is_recovering() && host.levels(own));
    }

    /// Node 1 of a 2 × 2 layout reports the global ring's coordinator,
    /// node 0, as failed; the answer makes node 1 coordinate the global
    /// ring, and the callback that installs it arms the clock.
    #[test]
    fn failover_to_a_leading_ring_starts_the_clock_in_the_same_callback() {
        let registry = layout(2, 2);
        let mut fx = Effects::new(1);
        let mut host = started(&registry, 1, 2, &mut fx);
        let global = RingId::new(2);
        assert_eq!(clocks_armed(&mut fx), 0);
        fire(
            &mut host,
            global,
            RingTimer::Liveness,
            SimTime::from_secs(1),
            &mut fx,
        );
        assert!(!host.ring_node(global).unwrap().is_coordinator());
        assert_eq!(answer_asks(&mut host, &registry, &mut fx), 1);
        assert!(host.ring_node(global).unwrap().is_coordinator());
    }

    /// A service whose cuts count how often they are encoded.
    struct CountingApp(Arc<AtomicUsize>);

    struct CountingCut(Arc<AtomicUsize>);

    const CUT_STATE: &[u8] = b"the state at the cut";

    impl SnapshotCut for CountingCut {
        fn encoded_len(&self) -> usize {
            CUT_STATE.len()
        }

        fn encode(&self, buf: &mut BytesMut) {
            self.0.fetch_add(1, Ordering::Relaxed);
            buf.extend_from_slice(CUT_STATE);
        }
    }

    impl ServiceApp for CountingApp {
        fn execute(&mut self, _group: RingId, _env: &Envelope) -> Bytes {
            Bytes::new()
        }

        fn snapshot_cut(&self) -> Box<dyn SnapshotCut> {
            Box::new(CountingCut(Arc::clone(&self.0)))
        }

        fn restore(&mut self, _state: &Bytes) {}

        fn reset(&mut self) {}
    }

    /// Fires a checkpoint on `host` at `at`, then the acknowledgement of
    /// its write, after which the host advertises it.
    fn checkpoint(host: &mut MultiRingHost, at: SimTime, fx: &mut Effects) {
        host.on_timer(Timer::of_kind(TIMER_CHECKPOINT), &mut fx.ctx(at, host.me));
        let timers: Vec<(SimTime, Timer)> = fx.drain_timers().collect();
        for (due, timer) in timers {
            if timer.kind == TIMER_CHECKPOINT_DONE {
                host.on_timer(timer, &mut fx.ctx(due, host.me));
            }
        }
        fx.drain_timers().for_each(drop);
    }

    /// Taking an in-memory checkpoint cuts and encodes nothing: the host
    /// advertises its tuple. A peer's `CheckpointFetch` cuts the state
    /// once and encodes it once, and the bytes it gets back are
    /// `ckpt_bytes` long: the meta, then the cut's bytes.
    #[test]
    fn a_checkpoint_is_encoded_only_for_the_peer_that_fetches_it() {
        let registry = layout(1, 2);
        let encodes = Arc::new(AtomicUsize::new(0));
        let mut fx = Effects::new(1);
        let app = Box::new(CountingApp(Arc::clone(&encodes)));
        let mut host = started_with(&registry, 0, 2, app, &mut fx);
        fx.drain_sends().for_each(drop);
        let at = SimTime::from_millis(1);
        checkpoint(&mut host, at, &mut fx);
        let tuple = host.checkpoint_tuple().unwrap();
        assert_eq!(
            host.advertised,
            Some(tuple.clone()),
            "a checkpoint was taken"
        );
        assert!(host.ckpt_store.is_empty(), "and nothing kept");
        assert_eq!(host.hobs.ckpt_cuts.get(), 0, "taking it cuts nothing");
        assert_eq!(
            encodes.load(Ordering::Relaxed),
            0,
            "taking it encodes nothing"
        );

        let peer = NodeId::new(1);
        let fetch = Msg::Recovery(RecoveryMsg::CheckpointFetch { tuple });
        host.on_message(peer, fetch, &mut fx.ctx(at, host.me));
        let state = (fx.drain_sends())
            .find_map(|(to, msg)| match msg {
                Msg::Recovery(RecoveryMsg::CheckpointData { state, .. }) if to == peer => {
                    Some(state)
                }
                _ => None,
            })
            .expect("the checkpoint is sent to the peer");
        assert_eq!(host.hobs.ckpt_cuts.get(), 1, "one fetch, one cut");
        assert_eq!(encodes.load(Ordering::Relaxed), 1, "one fetch, one encode");
        assert_eq!(Snapshot::decode(&mut state.clone()).unwrap().app, CUT_STATE);
        assert_eq!(host.hobs.ckpt_bytes.get(), state.len() as i64);
    }

    /// Delivers every recovery message `a` and `b` send each other at
    /// `at`, and what those answers send, until none is left; drops
    /// every other send and every timer.
    fn exchange(a: &mut MultiRingHost, b: &mut MultiRingHost, at: SimTime, fx: &mut Effects) {
        loop {
            fx.drain_timers().for_each(drop);
            let sends: Vec<(NodeId, Msg)> = (fx.drain_sends())
                .filter(|(to, msg)| matches!(msg, Msg::Recovery(_)) && [a.me, b.me].contains(to))
                .collect();
            if sends.is_empty() {
                return;
            }
            for (to, msg) in sends {
                let (host, from) = if to == a.me {
                    (&mut *a, b.me)
                } else {
                    (&mut *b, a.me)
                };
                host.on_message(from, msg, &mut fx.ctx(at, to));
            }
        }
    }

    /// A replica of a 1 × 2 layout restarts and asks its peer which
    /// checkpoint it holds. The peer answers, then executes more and
    /// takes two more checkpoints before the replica's fetch arrives, so
    /// it no longer holds the checkpoint asked for. It answers with a
    /// newer one, which the replica installs, and the replica's recovery
    /// completes at the peer's state — with in-memory checkpoints and
    /// with durable ones, whose store keeps the last two.
    #[test]
    fn a_fetch_for_a_checkpoint_the_peer_moved_past_completes_recovery() {
        use common::value::NO_SESSION;
        use storage::DiskProfile;

        for storage in [StorageMode::InMemory, StorageMode::Sync(DiskProfile::ssd())] {
            let registry = layout(1, 2);
            let mut fx = Effects::new(1);
            let mut server =
                started_in(&registry, 0, 2, Box::new(EchoApp::new()), storage, &mut fx);
            let mut replica =
                started_in(&registry, 1, 2, Box::new(EchoApp::new()), storage, &mut fx);
            fx.drain_sends().for_each(drop);
            let write = |inst: u64| {
                let env = request(NO_SESSION, inst + 1, 0, Bytes::from_static(b"w"));
                BTreeMap::from([(RingId::new(0), command(env, 10 + inst))])
            };
            let at = SimTime::from_secs;
            decide_round(std::slice::from_mut(&mut server), 0, &write(0), &mut fx);
            checkpoint(&mut server, at(1), &mut fx);

            replica.on_crash(at(2));
            replica.on_restart(&mut fx.ctx(at(2), replica.me));
            assert!(replica.is_recovering());
            let query: Vec<Msg> = (fx.drain_sends())
                .filter(|(to, msg)| *to == server.me && matches!(msg, Msg::Recovery(_)))
                .map(|(_, msg)| msg)
                .collect();
            assert_eq!(query.len(), 1, "{storage:?}: one checkpoint query");
            for msg in query {
                server.on_message(replica.me, msg, &mut fx.ctx(at(2), server.me));
            }
            let info: Vec<Msg> = (fx.drain_sends()).map(|(_, msg)| msg).collect();
            for inst in 1..3 {
                decide_round(
                    std::slice::from_mut(&mut server),
                    inst,
                    &write(inst),
                    &mut fx,
                );
                checkpoint(&mut server, at(2 + inst), &mut fx);
            }
            for msg in info {
                replica.on_message(server.me, msg, &mut fx.ctx(at(5), replica.me));
            }
            for retry in 0..5 {
                exchange(&mut server, &mut replica, at(5 + retry), &mut fx);
                if !replica.is_recovering() {
                    break;
                }
                let recovery = Timer::of_kind(TIMER_RECOVERY);
                replica.on_timer(recovery, &mut fx.ctx(at(6 + retry), replica.me));
            }
            assert!(
                !replica.is_recovering(),
                "{storage:?}: still recovering, {:?}",
                replica.recovery
            );
            assert_eq!(replica.checkpoint_tuple(), server.checkpoint_tuple());
            assert_eq!(replica.app.snapshot(), server.app.snapshot(), "{storage:?}");
        }
    }

    /// A session-less command and a `SessionCtl::Open`, each decided at
    /// two instances of a one-replica partition's ring (what a retry that
    /// raced its decision across a coordinator change leaves): each
    /// executes once, and one session is opened.
    #[test]
    fn a_command_decided_twice_executes_once() {
        use crate::session::SessionCtl;
        use crate::SessionApp;
        use common::msg::AcceptedEntry;
        use common::value::{ValueId, NO_SESSION};

        let (ring, me) = (RingId::new(0), NodeId::new(0));
        let registry = Registry::new();
        let cfg = RingConfig::new(ring, vec![me], vec![me]).unwrap();
        registry.register_ring(cfg).unwrap();
        let info = PartitionInfo {
            rings: vec![ring],
            replicas: vec![me],
        };
        (registry.register_partition(PartitionId::new(0), info)).unwrap();
        let app = Box::new(SessionApp::new(Box::new(EchoApp::new())));
        let (partition, opts) = (Some(PartitionId::new(0)), HostOptions::default());
        let mut host = MultiRingHost::new(me, registry, &[ring], &[ring], partition, app, opts);
        let mut fx = Effects::new(1);
        host.on_start(&mut fx.ctx(SimTime::ZERO, me));

        let command = |seq: u64, session: u64, cmd: Bytes| {
            let env = Envelope {
                client: ClientId::new(7),
                req: RequestId::new(seq),
                reply_to: NodeId::new(9),
                session,
                ack: 0,
                trace: 0,
                cmd,
            };
            Value {
                id: ValueId::new(NodeId::new(1), seq),
                kind: common::value::ValueKind::App(Payload::One(env).to_bytes()),
            }
        };
        let plain = command(1, NO_SESSION, Bytes::from_static(b"once"));
        let open = SessionCtl::Open {
            token: 5,
            ttl_ms: 30_000,
        };
        let open = command(2, SESSION_CTL, open.to_bytes());
        let decisions = [&plain, &open, &plain, &open].into_iter().enumerate();
        let decisions = (decisions)
            .map(|(inst, value)| AcceptedEntry {
                inst: InstanceId::new(inst as u64),
                vballot: common::ids::Ballot::new(1, me),
                value: value.clone(),
            })
            .collect();
        let reply = RecoveryMsg::RetransmitReply {
            ring,
            decisions,
            log_start: InstanceId::ZERO,
        };
        host.on_message(
            NodeId::new(1),
            Msg::Recovery(reply),
            &mut fx.ctx(SimTime::ZERO, me),
        );
        assert_eq!(
            host.checkpoint_tuple().unwrap().get(ring),
            Some(InstanceId::new(4))
        );
        assert_eq!(host.executed(), 2, "each command executes once");
        assert_eq!(host.app.session_ids().len(), 1, "one session is opened");
    }

    /// A client's node in the reply-rule tests.
    const CLIENT: NodeId = NodeId::new(99);

    /// Every host of a [`layout`], over a session-keeping echo service.
    fn replicas(partitions: u16, replicas: u16, fx: &mut Effects) -> Vec<MultiRingHost> {
        let registry = layout(partitions, replicas);
        (0..u32::from(partitions * replicas))
            .map(|me| {
                let app = Box::new(crate::SessionApp::new(Box::new(EchoApp::new())));
                started_with(&registry, me, replicas, app, fx)
            })
            .collect()
    }

    /// `env` as the one command of a value.
    fn command(env: Envelope, id: u64) -> Value {
        Value::app(NodeId::new(50), id, Payload::One(env).to_bytes())
    }

    /// A client command under `session`.
    fn request(session: u64, seq: u64, ack: u64, cmd: Bytes) -> Envelope {
        Envelope {
            client: ClientId::new(7),
            req: RequestId::new(seq),
            reply_to: CLIENT,
            session,
            ack,
            trace: 0,
            cmd,
        }
    }

    /// Instance `inst` of every ring decides `values[ring]` — a one-
    /// instance skip where it has none — at every host; returns the
    /// replies to the client, by answering node, in node order.
    fn decide_round(
        hosts: &mut [MultiRingHost],
        inst: u64,
        values: &BTreeMap<RingId, Value>,
        fx: &mut Effects,
    ) -> Vec<(NodeId, ClientReply)> {
        let mut replies = Vec::new();
        for host in hosts.iter_mut() {
            let me = host.me;
            for ring in host.rings.keys().copied().collect::<Vec<_>>() {
                let skip_id = 1_000_000 + inst * 100 + u64::from(ring.raw());
                let value = (values.get(&ring).cloned())
                    .unwrap_or_else(|| Value::skip(NodeId::new(50), skip_id, 1));
                let decisions = vec![common::msg::AcceptedEntry {
                    inst: InstanceId::new(inst),
                    vballot: common::ids::Ballot::new(1, NodeId::new(0)),
                    value,
                }];
                let reply = RecoveryMsg::RetransmitReply {
                    ring,
                    decisions,
                    log_start: InstanceId::ZERO,
                };
                let ctx = &mut fx.ctx(SimTime::ZERO, me);
                host.on_message(NodeId::new(0), Msg::Recovery(reply), ctx);
            }
            fx.drain_timers().for_each(drop);
            for (to, msg) in fx.drain_sends() {
                if let (CLIENT, Msg::Reply(reply)) = (to, msg) {
                    replies.push((me, reply));
                }
            }
        }
        replies
    }

    /// The nodes among `replies`.
    fn answered(replies: &[(NodeId, ClientReply)]) -> Vec<u32> {
        replies.iter().map(|(n, _)| n.raw()).collect()
    }

    /// A 2 × `r` layout with a session opened on the global ring (ring 2)
    /// whose first command each partition has executed; returns its id.
    fn with_session(r: u16, fx: &mut Effects) -> (Vec<MultiRingHost>, u64) {
        let mut hosts = replicas(2, r, fx);
        let (p0, p1, global) = (RingId::new(0), RingId::new(1), RingId::new(2));
        let open = SessionCtl::Open {
            token: 1,
            ttl_ms: 30_000,
        };
        let open = request(SESSION_CTL, 1, 0, open.to_bytes());
        let values = BTreeMap::from([(global, command(open, 1))]);
        let replies = decide_round(&mut hosts, 0, &values, fx);
        let all: Vec<u32> = (0..u32::from(2 * r)).collect();
        assert_eq!(answered(&replies), all, "session control: every replica");
        let ClientReply::ResponseV2 { payload, .. } = &replies[0].1 else {
            panic!("a response: {:?}", replies[0].1);
        };
        let session = crate::session::parse_open_reply(payload).expect("opened");
        let first = |seq| command(request(session, seq, 0, Bytes::from_static(b"w")), 10 + seq);
        let values = BTreeMap::from([(p0, first(1)), (p1, first(2))]);
        let replies = decide_round(&mut hosts, 1, &values, fx);
        assert_eq!(answered(&replies), all, "a session's first command here");
        (hosts, session)
    }

    /// On 2 × 2 and 2 × 3 layouts a first execution — of a partition-ring
    /// command and of a global-ring command — is answered once per
    /// partition, by the partition ring's first decider: the acceptor
    /// after its coordinator. The same command decided again, as a
    /// client's re-send is, is answered by every replica that executes it.
    #[test]
    fn a_first_execution_is_answered_once_per_partition_and_a_resend_by_all() {
        for r in [2u16, 3] {
            let mut fx = Effects::new(1);
            let (mut hosts, session) = with_session(r, &mut fx);
            let (p0, p1, global) = (RingId::new(0), RingId::new(1), RingId::new(2));
            let deciders = vec![1, u32::from(r) + 1];
            let cmd = |seq, id| command(request(session, seq, 2, Bytes::from_static(b"w")), id);

            let values = BTreeMap::from([(p0, cmd(3, 20))]);
            let replies = decide_round(&mut hosts, 2, &values, &mut fx);
            assert_eq!(answered(&replies), [1], "2 × {r}: partition ring 0");
            let values = BTreeMap::from([(p1, cmd(4, 21))]);
            let replies = decide_round(&mut hosts, 3, &values, &mut fx);
            assert_eq!(answered(&replies), [deciders[1]], "2 × {r}: ring 1");
            let values = BTreeMap::from([(global, cmd(5, 22))]);
            let replies = decide_round(&mut hosts, 4, &values, &mut fx);
            assert_eq!(answered(&replies), deciders, "2 × {r}: the global ring");

            let values = BTreeMap::from([(p0, cmd(3, 30)), (global, cmd(5, 31))]);
            let replies = decide_round(&mut hosts, 5, &values, &mut fx);
            let mut expected: Vec<u32> = (0..u32::from(r)).flat_map(|n| [n, n]).collect();
            expected.extend(u32::from(r)..u32::from(2 * r));
            assert_eq!(answered(&replies), expected, "2 × {r}: re-sends");
        }
    }

    /// A request admitted as `RequestHere` by a replica that is not its
    /// partition's designated replier is answered by it on the command's
    /// first execution, besides the designated replier; the same request
    /// admitted as `RequestV2` is answered by the designated replier
    /// alone.
    #[test]
    fn a_request_admitted_here_is_answered_here_on_its_first_execution() {
        for r in [2u16, 3] {
            let mut fx = Effects::new(1);
            let (mut hosts, session) = with_session(r, &mut fx);
            let ring = RingId::new(0);
            let frame = |seq| ClientMsg::RequestHere {
                session,
                seq: RequestId::new(seq),
                ack: 2,
                group: ring,
                cmd: Bytes::from_static(b"scan"),
            };
            let ctx = &mut fx.ctx(SimTime::ZERO, NodeId::new(0));
            let (group, env) = hosts[0]
                .admit(ClientId::new(7), CLIENT, frame(3), ctx)
                .unwrap();
            assert_eq!(group, ring);
            let values = BTreeMap::from([(ring, command(env, 20))]);
            let replies = decide_round(&mut hosts, 2, &values, &mut fx);
            assert_eq!(answered(&replies), [0, 1], "2 × {r}: here and designated");

            let ClientMsg::RequestHere {
                session,
                seq,
                ack,
                group,
                cmd,
            } = frame(4)
            else {
                unreachable!()
            };
            let plain = ClientMsg::RequestV2 {
                session,
                seq,
                ack,
                group,
                cmd,
            };
            let ctx = &mut fx.ctx(SimTime::ZERO, NodeId::new(0));
            let (_, env) = hosts[0]
                .admit(ClientId::new(7), CLIENT, plain, ctx)
                .unwrap();
            let values = BTreeMap::from([(ring, command(env, 21))]);
            let replies = decide_round(&mut hosts, 3, &values, &mut fx);
            assert_eq!(answered(&replies), [1], "2 × {r}: designated only");
        }
    }

    /// The `TrimQuery` sequence numbers the last callbacks sent to `to`.
    fn trim_queries(fx: &mut Effects, to: NodeId) -> Vec<u64> {
        fx.drain_timers().for_each(drop);
        (fx.drain_sends())
            .filter_map(|(dest, msg)| match msg {
                Msg::Recovery(RecoveryMsg::TrimQuery { seq, .. }) if dest == to => Some(seq),
                _ => None,
            })
            .collect()
    }

    /// In a 1 × 2 layout node 0 coordinates partition 0's ring, whose
    /// trim quorum is both replicas. Node 1's reply to round n arrives
    /// after round n + 1 opened; it completes round n + 1's quorum with
    /// node 0's own reply, and the acceptors trim to the lower answer.
    /// A reply two rounds late is dropped.
    #[test]
    fn a_trim_reply_one_round_late_completes_the_open_round() {
        let registry = layout(1, 2);
        let mut fx = Effects::new(1);
        // Node 1 subscribes first, so node 0 reads both subscribers.
        let _peer_host = started(&registry, 1, 2, &mut fx);
        let mut host = started(&registry, 0, 2, &mut fx);
        let (ring, peer) = (RingId::new(0), NodeId::new(1));
        let global = RingId::new(1);
        host.advertised = Some(CheckpointTuple::new(vec![
            (ring, InstanceId::new(11)),
            (global, InstanceId::new(3)),
        ]));
        fx.drain_sends().for_each(drop);
        let round = |host: &mut MultiRingHost, fx: &mut Effects| {
            let trim = Timer::with(TIMER_TRIM, u64::from(ring.raw()));
            host.on_timer(trim, &mut fx.ctx(SimTime::from_secs(1), host.me));
            let seqs = trim_queries(fx, peer);
            assert_eq!(seqs.len(), 1);
            seqs[0]
        };
        let reply = |seq: u64, safe: u64| {
            Msg::Recovery(RecoveryMsg::TrimReply {
                ring,
                seq,
                safe: InstanceId::new(safe),
                replica: peer,
            })
        };
        let trims = |fx: &mut Effects| -> Vec<(NodeId, InstanceId)> {
            (fx.drain_sends())
                .filter_map(|(to, msg)| match msg {
                    Msg::Recovery(RecoveryMsg::Trim { upto, .. }) => Some((to, upto)),
                    _ => None,
                })
                .collect()
        };

        let n = round(&mut host, &mut fx);
        let later = round(&mut host, &mut fx);
        assert_ne!(n, later);
        host.on_message(
            peer,
            reply(n, 8),
            &mut fx.ctx(SimTime::from_secs(1), host.me),
        );
        assert_eq!(trims(&mut fx), vec![(peer, InstanceId::new(8))]);
        assert_eq!(host.hobs.trim_rounds.get(), 1);

        let third = round(&mut host, &mut fx);
        let fourth = round(&mut host, &mut fx);
        assert!(third < fourth);
        host.on_message(
            peer,
            reply(later, 9),
            &mut fx.ctx(SimTime::from_secs(2), host.me),
        );
        assert_eq!(trims(&mut fx), vec![], "two rounds late: dropped");
        assert_eq!(host.hobs.trim_rounds.get(), 1);
    }
}
