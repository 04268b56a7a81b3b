//! The Ring Paxos state machine.
//!
//! A [`RingNode`] bundles every role a process can play in one ring —
//! proposer, acceptor, learner, coordinator — exactly as in the paper's
//! deployments where "all of which are proposers, acceptors, and learners,
//! and one of the acceptors is the coordinator" (§8.3.1).
//!
//! ## Protocol walk-through (paper §4, Figure 2b)
//!
//! 1. A proposer sends its [`Value`] straight to the coordinator
//!    ([`RingMsg::Proposal`]); a receiver that does not coordinate (the
//!    proposer's view was stale) passes it on around the ring until it
//!    finds one.
//! 2. The coordinator assigns the next consensus instance and emits a
//!    combined Phase 2A/2B message carrying its own vote.
//! 3. Each acceptor logs its vote to stable storage, *then* adds it and
//!    forwards; non-acceptors forward unchanged. The Phase 2 message
//!    keeps circulating the whole ring — it is the *only* time the value
//!    payload travels; everyone keeps the value by id until it is
//!    decided here (an acceptor in its log, which serves any later pull;
//!    anyone else in a cache of undecided values).
//! 4. The acceptor whose vote completes the majority additionally sends
//!    an **id-only** [`RingMsg::Decision`] `(instance, ballot, value id)`
//!    point-to-point to each member *upstream* of it — those between the
//!    Phase 2 origin and itself, who forwarded the value but never saw the
//!    majority. It carries no payload, so nothing is gained by walking it
//!    round the ring and a whole lap of link delays is lost. Members
//!    downstream decide directly from the passing Phase 2 message, whose
//!    vote count already proves the majority.
//! 5. A member that observes an id-only decision for a value it never
//!    learned (dropped frame, late join, reconfiguration hole) pulls it
//!    point-to-point with [`RingMsg::ValueRequest`], retried on the
//!    liveness timer; delivery of the instance waits, later instances
//!    buffer as usual.
//! 6. Learners deliver decided values in instance order.
//!
//! Phase 1 is pre-executed for an open-ended window when a coordinator
//! (newly elected or initial) takes over: acceptors promise and report
//! *all* retained accepted entries; the coordinator re-proposes the
//! highest-ballot value per instance and fills gaps with no-ops (§5.1).
//!
//! Rate leveling (§4) is split between this node and its host. The
//! mechanism is here: the Δ clock step ([`RingNode::on_delta`]) compares
//! the number of proposals in the interval against λ·Δ and proposes a
//! single [`ValueKind::Skip`] token standing for the difference, and
//! [`RingNode::rate_level_now`] tops the ring up outside that cadence.
//! The policy is the host's: it keeps the one Δ clock, steps only the
//! rings this node coordinates that *lead*, and asks for top-ups when
//! its merge is parked on a ring. A *following* ring — a partition's own
//! ring, read by one merge beside a wider ring that leads — is never
//! stepped: it advances by its real commands and by those top-ups, so
//! the wider ring's credit is always already there when the narrow
//! ring's commands reach the merge. A ring node arms no Δ timer of its
//! own.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Duration;

use common::error::{Error, Result};
use common::ids::{Ballot, InstanceId, NodeId, RingId};
use common::msg::{AcceptedEntry, RingMsg};
use common::obs::{Counter, Gauge};
use common::time::SimTime;
use common::value::{Value, ValueId, ValueKind};
use common::wire::coord::CoordOp;
use common::wire::Wire;
use coord::Registry;
use coord::RingConfig;
use storage::AcceptorLog;

use crate::options::RingOptions;
use crate::runs::DeliveredIds;
use crate::timer::RingTimer;

/// Ceiling on the idle-skip stride: a fully idle coordinator settles at
/// one skip token (covering this many Δ intervals of credit) per this
/// many Δ intervals, instead of one per Δ. Bounds both the idle
/// consensus traffic (1/stride of naive) and the worst-case extra
/// latency a merge waits for an idle ring's credit (stride × Δ; the
/// host's starvation nudge usually collapses it to one pump cycle).
pub const MAX_IDLE_SKIP_STRIDE: u64 = 32;

/// How many of its open instances a coordinator sends again at once when
/// the oldest has stalled (the lowest ones: delivery is blocked on those).
const PHASE2_RESEND_BUDGET: usize = 256;

/// Effects emitted by a [`RingNode`] handler; the host runtime drains it
/// after every call.
#[derive(Debug, Default)]
pub struct Output {
    /// Ring messages to transmit, in order.
    pub sends: Vec<(NodeId, RingMsg)>,
    /// Values decided and deliverable *by this node's learner*, in
    /// instance order (includes no-ops and skips so Multi-Ring Paxos can
    /// count instances; services filter with [`Value::is_deliverable`]).
    pub decided: Vec<(InstanceId, Value)>,
    /// Timers to schedule.
    pub timers: Vec<(Duration, RingTimer)>,
    /// Questions for coordination; the driver hands a configuration that
    /// comes back to [`RingNode::on_config`].
    pub asks: Vec<CoordOp>,
}

impl Output {
    /// A fresh, empty output buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no effects are pending.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
            && self.decided.is_empty()
            && self.timers.is_empty()
            && self.asks.is_empty()
    }
}

/// What an acceptor does once a pending stable-storage write completes.
#[derive(Debug)]
enum PendingAction {
    /// Forward this message to the successor.
    Forward(RingMsg),
    /// Majority reached here: decide locally, keep the value circulating
    /// (Phase 2 with the completed vote count and `fwd_ttl` hops left) and
    /// send the id-only decision to the `upstream` members the Phase 2
    /// message passed on its way here.
    Decide {
        inst: InstanceId,
        ballot: Ballot,
        value: Value,
        votes: u16,
        fwd_ttl: u16,
        upstream: u16,
    },
}

/// An id-only decision observed before its value: the slow path pulls the
/// value from the acceptors, re-requesting on the liveness timer with
/// per-miss exponential backoff (at most one request is outstanding per
/// missed `(inst, id)` at any time — re-observing the decision or ticking
/// the timer inside the backoff window must not add another).
#[derive(Clone, Copy, Debug)]
struct PendingValue {
    id: ValueId,
    requested_at: SimTime,
    /// Pulls sent so far; drives the retry backoff.
    attempts: u32,
}

/// The per-ring protocol state machine. See the module docs.
pub struct RingNode {
    me: NodeId,
    ring: RingId,
    cfg: RingConfig,
    opts: RingOptions,

    // ---- acceptor state ----
    log: AcceptorLog,
    pending: BTreeMap<InstanceId, PendingAction>,
    pending_phase1: Option<(u32, RingMsg)>,
    phase1_generation: u32,
    /// When the in-progress Phase 1 window was last sent; drives the
    /// liveness-timer retry for Phase 1 messages lost on the ring.
    phase1_sent_at: SimTime,

    // ---- coordinator state ----
    coordinating: bool,
    ballot: Ballot,
    /// Phase 1 finished for this ballot; proposals may flow.
    phase1_complete: bool,
    next_instance: InstanceId,
    /// The oldest instance proposed here and not yet seen decided, and
    /// since when it has been that one; drives the liveness-timer retry
    /// for Phase 2 messages lost on the ring.
    oldest_open: (InstanceId, SimTime),
    prop_queue: VecDeque<Value>,
    /// Proposals enqueued since the last Δ step ([`RingNode::on_delta`]).
    proposals_since_delta: u64,
    /// Consecutive fully-idle Δ intervals since the last real proposal
    /// (adaptive skip cadence input).
    idle_deltas: u64,
    /// Current idle-skip stride: an idle coordinator proposes one skip
    /// covering `stride` Δ intervals every `stride` intervals, doubling
    /// up to [`MAX_IDLE_SKIP_STRIDE`] — so an idle subscribed ring costs
    /// ~1/stride of the naive one-skip-per-Δ consensus traffic while
    /// banking exactly the same merge credit.
    idle_stride: u64,
    /// `ring{r}_clock_skips`: skip tokens the Δ clock proposed.
    clock_skips: Counter,
    /// Ids this coordinator queued, assigned or saw decided and its
    /// learner has not delivered yet, with the instance each went to
    /// (`None` while queued). A proposal whose id is here or in
    /// `delivered` is a duplicate. Delivery removes an id; an id whose
    /// instance went to another value (a no-op filler after a leadership
    /// change) leaves once the cursor passes that instance, so its
    /// proposer's retry gets through. Bounded by the open instances.
    in_flight: HashMap<ValueId, Option<InstanceId>>,
    /// `ring{r}_dup_proposals`: proposals dropped as duplicates.
    dup_proposals: Counter,

    // ---- learner state ----
    next_delivery: InstanceId,
    decision_buffer: BTreeMap<InstanceId, Value>,
    /// Every value id this learner delivered, skips and no-ops included,
    /// as runs per proposer: exact, and O(proposers + holes) in size.
    delivered: DeliveredIds,
    /// `ring{r}_dedup_demoted`: deliveries demoted as duplicates.
    dedup_demoted: Counter,
    /// Values this node did not log (it does not vote) learned from a
    /// passing Phase 2 or a push and not yet decided here, keyed by id,
    /// with the instance each was last seen at and when it was learned:
    /// what id-only decisions resolve against besides the acceptor log.
    /// A decision removes its value; the proposal retry timer sweeps the
    /// rest. Payloads are refcounted views of the incoming frames.
    learned: HashMap<ValueId, (Value, Option<InstanceId>, SimTime)>,
    /// Decisions whose value this node missed, awaiting a [`RingMsg::ValueResend`].
    pending_values: BTreeMap<InstanceId, PendingValue>,
    /// Rotates which acceptor serves value pulls.
    value_req_rr: u64,

    // ---- proposer state ----
    unacked: BTreeMap<ValueId, (Value, SimTime)>,
    value_seq: u64,

    // ---- liveness ----
    last_from_pred: SimTime,

    // ---- dissemination telemetry ----
    /// Id-only decisions whose value was already resident (learned cache
    /// or acceptor log) when the decision arrived.
    prefetch_hits: Counter,
    /// Id-only decisions that had to fall back to the `ValueRequest` pull.
    pull_misses: Counter,
    /// Eager `ValuePush` fan-outs sent by this proposer.
    value_pushes: Counter,
    /// Failure reports this node asked coordination for.
    suspicions: Counter,
    /// The epoch of the last installed config that excluded this node.
    evicted_epoch: Gauge,

    // ---- batching ----
    batch: Vec<RingMsg>,
    batch_bytes: usize,
    batch_timer_armed: bool,
}

impl RingNode {
    /// Creates the state machine for `me`'s participation in `ring`,
    /// reading the membership from `registry` — its only read of it: later
    /// configs arrive through [`RingNode::on_config`].
    ///
    /// # Errors
    ///
    /// Fails if the ring is unknown or `me` is not a member.
    pub fn new(me: NodeId, ring: RingId, registry: Registry, opts: RingOptions) -> Result<Self> {
        let cfg = registry.ring(ring)?;
        if !cfg.contains(me) {
            return Err(Error::Config(format!("{me} is not a member of {ring}")));
        }
        let coordinating = cfg.coordinator() == me;
        let prefetch_hits = opts.obs.counter("value_prefetch_hits");
        let pull_misses = opts.obs.counter("value_pull_misses");
        let value_pushes = opts.obs.counter("value_pushes_sent");
        let suspicions = opts.obs.counter("suspicions_raised");
        let evicted_epoch = opts.obs.gauge("evicted_epoch");
        let ring_counter = |name: &str| opts.obs.counter(&format!("ring{}_{name}", ring.raw()));
        let clock_skips = ring_counter("clock_skips");
        let dup_proposals = ring_counter("dup_proposals");
        let dedup_demoted = ring_counter("dedup_demoted");
        Ok(RingNode {
            me,
            ring,
            cfg,
            log: AcceptorLog::new(opts.storage),
            opts,
            pending: BTreeMap::new(),
            pending_phase1: None,
            phase1_generation: 0,
            phase1_sent_at: SimTime::ZERO,
            coordinating,
            ballot: Ballot::ZERO,
            phase1_complete: false,
            next_instance: InstanceId::ZERO,
            oldest_open: (InstanceId::ZERO, SimTime::ZERO),
            prop_queue: VecDeque::new(),
            proposals_since_delta: 0,
            idle_deltas: 0,
            idle_stride: 1,
            clock_skips,
            in_flight: HashMap::new(),
            dup_proposals,
            next_delivery: InstanceId::ZERO,
            decision_buffer: BTreeMap::new(),
            delivered: DeliveredIds::default(),
            dedup_demoted,
            learned: HashMap::new(),
            pending_values: BTreeMap::new(),
            value_req_rr: 0,
            unacked: BTreeMap::new(),
            value_seq: 0,
            last_from_pred: SimTime::ZERO,
            prefetch_hits,
            pull_misses,
            value_pushes,
            suspicions,
            evicted_epoch,
            batch: Vec::new(),
            batch_bytes: 0,
            batch_timer_armed: false,
        })
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// The ring this node participates in.
    pub fn ring(&self) -> RingId {
        self.ring
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// True while this node believes it coordinates the ring.
    pub fn is_coordinator(&self) -> bool {
        self.coordinating
    }

    /// The current ring configuration (this node's view).
    pub fn config(&self) -> &RingConfig {
        &self.cfg
    }

    /// The next instance the learner will deliver.
    pub fn next_delivery(&self) -> InstanceId {
        self.next_delivery
    }

    /// Positions the learner to deliver starting at `inst` — used when
    /// installing a checkpoint during recovery. Value pulls outstanding
    /// for instances below the cursor die with the buffered decisions:
    /// the installed state covers them, and their values may no longer
    /// exist anywhere to resend — left in place they would burn the
    /// per-tick pull budget (lowest instances first) forever.
    pub fn set_next_delivery(&mut self, inst: InstanceId) {
        self.next_delivery = inst;
        self.decision_buffer = self.decision_buffer.split_off(&inst);
        self.pending_values = self.pending_values.split_off(&inst);
    }

    /// Read access to the acceptor's vote log (for retransmission
    /// service).
    pub fn log(&self) -> &AcceptorLog {
        &self.log
    }

    /// Injects a decision learned out-of-band (retransmitted by an
    /// acceptor during recovery). Idempotent; delivers through the normal
    /// in-order path.
    pub fn learn_decided(
        &mut self,
        inst: InstanceId,
        value: Value,
        now: SimTime,
        out: &mut Output,
    ) {
        self.handle_decide(inst, value, now, out);
    }

    /// If decisions are buffered beyond an undelivered gap, returns
    /// `(first needed, first buffered)` — the retransmission range a
    /// recovering learner should request.
    pub fn buffered_gap(&self) -> Option<(InstanceId, InstanceId)> {
        let (&first, _) = self.decision_buffer.iter().next()?;
        if first > self.next_delivery {
            Some((self.next_delivery, first))
        } else {
            None
        }
    }

    /// The learner's delivered ids *at a cut*, for a checkpoint, so a
    /// recovered replica makes the same dedup decisions as its peers:
    /// every delivered id except `beyond`, the deliverable values this
    /// learner delivered at or past the cut. A checkpoint's delivery
    /// positions come from the merge, which may lag this learner, and a
    /// restored replica re-delivers everything at or past the cut; an id
    /// of those left in would demote its value to a no-op there (a lost
    /// write). Skip and no-op ids past the cut may stay: they are never
    /// demoted.
    pub fn dedup_snapshot(&self, beyond: impl IntoIterator<Item = ValueId>) -> DeliveredIds {
        let mut ids = self.delivered.clone();
        for id in beyond {
            ids.remove(&id);
        }
        ids
    }

    /// Installs the delivered ids of a checkpoint's cut
    /// ([`RingNode::dedup_snapshot`]).
    pub fn restore_dedup(&mut self, ids: DeliveredIds) {
        self.delivered = ids;
    }

    /// Trims the acceptor log up to `upto` (the coordinator's `Trim`
    /// order, paper §5.2).
    pub fn trim_log(&mut self, upto: InstanceId) {
        self.log.trim(upto);
    }

    /// Number of this node's own proposals whose decision it has not yet
    /// observed. Skips and no-op fillers never count (they are not
    /// retried). A live proposer seals its next batch the moment this
    /// reads 0, and lets the round trip of what is in flight be the
    /// batching window otherwise.
    pub fn proposals_in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// The learned-value cache: how many values this node learned and has
    /// not decided, and their payload bytes.
    pub fn value_cache(&self) -> (usize, usize) {
        let bytes = self
            .learned
            .values()
            .filter_map(|(value, ..)| value.payload());
        (self.learned.len(), bytes.map(|b| b.len()).sum())
    }

    /// The value ids this learner delivered, held for duplicate
    /// suppression.
    pub fn delivered_ids(&self) -> &DeliveredIds {
        &self.delivered
    }

    fn is_acceptor(&self) -> bool {
        self.cfg.is_acceptor(self.me)
    }

    fn successor(&self) -> NodeId {
        self.cfg.successor(self.me)
    }

    // ------------------------------------------------------------------
    // lifecycle
    // ------------------------------------------------------------------

    /// Starts the node: kicks off Phase 1 if coordinating and arms the
    /// periodic timers.
    pub fn start(&mut self, now: SimTime, out: &mut Output) {
        self.last_from_pred = now;
        if self.coordinating {
            self.begin_phase1(now, out);
        }
        if !self.opts.failure_timeout.is_zero() {
            out.timers
                .push((self.opts.heartbeat_interval, RingTimer::Liveness));
        }
        out.timers
            .push((self.opts.proposal_retry, RingTimer::ProposalRetry));
    }

    /// Drops volatile state on a crash at `now`; the stable log keeps its
    /// durable subset.
    pub fn on_crash(&mut self, now: SimTime) {
        self.log.crash(now);
        self.pending.clear();
        self.pending_phase1 = None;
        self.prop_queue.clear();
        self.in_flight.clear();
        self.decision_buffer.clear();
        self.delivered = DeliveredIds::default();
        self.learned.clear();
        self.pending_values.clear();
        self.unacked.clear();
        self.batch.clear();
        self.batch_bytes = 0;
        self.batch_timer_armed = false;
        self.coordinating = false;
        self.phase1_complete = false;
        self.ballot = Ballot::ZERO;
        self.next_delivery = InstanceId::ZERO;
        self.next_instance = InstanceId::ZERO;
    }

    /// Rejoins the ring after a restart: installs `cfg`, the answer to
    /// the driver's [`CoordOp::Rejoin`], and restarts timers. The host is
    /// responsible for recovering learner state via checkpoints.
    pub fn on_restart(&mut self, cfg: RingConfig, now: SimTime, out: &mut Output) {
        self.cfg = cfg;
        self.coordinating = self.cfg.coordinator() == self.me;
        // A restarted process counts value ids from scratch, yet its
        // previous incarnation's ids still sit in every member's
        // delivered ids and learned cache: a reused id is dropped as a
        // duplicate elsewhere and, id-only decisions being resolved by
        // id, can bind an old decided instance to the new value here.
        // The rejoin bumped the epoch past every epoch an earlier
        // incarnation proposed in, so ids above it are fresh.
        self.value_seq = self.value_seq.max(self.cfg.epoch().raw() << 32);
        self.start(now, out);
    }

    // ------------------------------------------------------------------
    // proposing
    // ------------------------------------------------------------------

    /// Atomically broadcasts `value` on this ring. The value travels to
    /// the coordinator and is eventually decided in some instance, unless
    /// the ring reconfigures — proposals are retried until their decision
    /// is observed.
    pub fn propose(&mut self, value: Value, now: SimTime, out: &mut Output) {
        if value.is_deliverable() {
            self.unacked.insert(value.id, (value.clone(), now));
        }
        if self.coordinating {
            self.enqueue_proposal(value, now, out);
        } else if self.should_push(&value) {
            // Eager dissemination: fan the payload out point-to-point to
            // every member concurrently instead of circulating it hop by
            // hop toward the coordinator. The push to the coordinator *is*
            // the proposal (it enqueues deliverable pushed values); the
            // pushes to everyone else pre-populate their learned caches so
            // the id-only decision finds the value resident. Lost pushes
            // are healed by the ordinary proposal-retry slow path.
            self.value_pushes.inc();
            let members: Vec<NodeId> = self
                .cfg
                .members()
                .iter()
                .copied()
                .filter(|m| *m != self.me)
                .collect();
            for member in members {
                out.sends.push((
                    member,
                    RingMsg::ValuePush {
                        value: value.clone(),
                    },
                ));
            }
        } else {
            // Straight to the coordinator, one link delay however far
            // round the ring it sits. The ttl still allows a full
            // circulation: should our view be stale, whoever receives
            // this forwards it along the ring until a coordinator takes
            // it, and the retry timer re-sends it hop by hop.
            let ttl = self.cfg.initial_ttl();
            out.sends
                .push((self.cfg.coordinator(), RingMsg::Proposal { value, ttl }));
        }
    }

    /// Whether `value` is large enough for eager point-to-point
    /// dissemination (and eligible: only deliverable app payloads).
    fn should_push(&self, value: &Value) -> bool {
        self.opts.value_push_bytes > 0
            && value.is_deliverable()
            && value
                .payload()
                .map(|b| b.len() >= self.opts.value_push_bytes)
                .unwrap_or(false)
    }

    /// Allocates a fresh value id owned by this node.
    pub fn next_value_id(&mut self) -> ValueId {
        self.value_seq += 1;
        ValueId::new(self.me, self.value_seq)
    }

    /// Makes every value id allocated from now on exceed `floor`: a
    /// restarted process that cannot know which ids its earlier
    /// incarnations proposed starts above a floor none of them reached.
    pub fn reserve_value_ids(&mut self, floor: u64) {
        self.value_seq = self.value_seq.max(floor);
    }

    fn enqueue_proposal(&mut self, value: Value, now: SimTime, out: &mut Output) {
        if !self.admit(value.id) {
            return; // duplicate (proposer retry raced a decision)
        }
        self.proposals_since_delta += 1;
        self.prop_queue.push_back(value);
        self.pump_proposals(now, out);
    }

    /// Takes `id` into the coordinator's in-flight set, unless it is
    /// there already or was delivered: then it is a duplicate.
    fn admit(&mut self, id: ValueId) -> bool {
        if self.delivered.contains(&id) || self.in_flight.contains_key(&id) {
            self.dup_proposals.inc();
            return false;
        }
        self.in_flight.insert(id, None);
        true
    }

    /// Caches a value seen in circulation, proposed for `inst` if known,
    /// so a later id-only decision resolves locally. Cheap: the payload is
    /// refcounted, not copied.
    fn remember_learned(&mut self, value: &Value, inst: Option<InstanceId>, now: SimTime) {
        let entry = (self.learned.entry(value.id)).or_insert_with(|| (value.clone(), inst, now));
        entry.1 = inst.or(entry.1);
    }

    /// Resolves a decided value id against the acceptor log (authoritative
    /// for instances we voted in) and the learned-value cache.
    fn resolve_value(&self, inst: InstanceId, id: ValueId) -> Option<Value> {
        if let Some((_, value)) = self.log.accepted(inst) {
            if value.id == id {
                return Some(value.clone());
            }
        }
        self.learned.get(&id).map(|(value, ..)| value.clone())
    }

    /// How long after the `attempts`-th pull the next retry may go out:
    /// 2·heartbeat doubling per attempt, capped at 32·heartbeat. Slow
    /// answers (large frames draining a backlog) stop triggering
    /// redundant pulls after a couple of rounds.
    fn pull_retry_after(&self, attempts: u32) -> std::time::Duration {
        self.opts.heartbeat_interval * (2u32 << attempts.saturating_sub(1).min(4))
    }

    /// Asks an acceptor (rotating — one may itself have missed the value)
    /// to resend the value behind an id-only decision. Point-to-point and
    /// un-batched: the learner's delivery cursor is blocked on it.
    fn send_value_request(&mut self, inst: InstanceId, id: ValueId, out: &mut Output) {
        let others: Vec<NodeId> = self
            .cfg
            .acceptors()
            .iter()
            .copied()
            .filter(|a| *a != self.me)
            .collect();
        if others.is_empty() {
            return;
        }
        self.value_req_rr += 1;
        let target = others[(self.value_req_rr as usize) % others.len()];
        out.sends.push((target, RingMsg::ValueRequest { inst, id }));
    }

    fn on_value_request(&mut self, from: NodeId, inst: InstanceId, id: ValueId, out: &mut Output) {
        let Some(value) = self.resolve_value(inst, id) else {
            return; // we miss it too; the requester's rotation moves on
        };
        let ballot = self
            .log
            .accepted(inst)
            .map(|(b, _)| b)
            .unwrap_or(Ballot::ZERO);
        out.sends.push((
            from,
            RingMsg::ValueResend {
                inst,
                ballot,
                value,
            },
        ));
    }

    fn on_value_resend(&mut self, inst: InstanceId, value: Value, now: SimTime, out: &mut Output) {
        let Some(pending) = self.pending_values.get(&inst) else {
            return; // unasked, or an earlier answer already decided it
        };
        if pending.id != value.id {
            return; // stale or mismatched resend
        }
        self.handle_decide(inst, value, now, out);
    }

    fn pump_proposals(&mut self, now: SimTime, out: &mut Output) {
        if !self.coordinating || !self.phase1_complete {
            return;
        }
        while let Some(value) = self.prop_queue.pop_front() {
            let inst = self.next_instance;
            self.next_instance = inst.plus(value.instance_span());
            if let Some(at) = self.in_flight.get_mut(&value.id) {
                *at = Some(inst);
            }
            if value.is_deliverable() && common::debug_enabled() {
                eprintln!(
                    "[{now} {} r{}] coord assigns {inst} to {}",
                    self.me,
                    self.ring.raw(),
                    value.id
                );
            }
            self.phase2_self_vote(inst, value, now, out);
        }
    }

    /// The coordinator's own accept + vote for `inst`; forwarded (or
    /// decided, in a single-acceptor ring) once the vote hits the disk.
    fn phase2_self_vote(&mut self, inst: InstanceId, value: Value, now: SimTime, out: &mut Output) {
        debug_assert!(self.is_acceptor(), "coordinator must be an acceptor");
        let receipt = self.log.accept(inst, self.ballot, value.clone(), now);
        let action = if 1 >= self.cfg.majority() {
            // Sole acceptor: decided here. The Phase 2 message (already
            // carrying a majority of votes) still circulates so the other
            // members learn the value; no separate decision is needed —
            // everyone is downstream of the origin.
            PendingAction::Decide {
                inst,
                ballot: self.ballot,
                value,
                votes: 1,
                fwd_ttl: self.cfg.initial_ttl(),
                upstream: 0,
            }
        } else {
            PendingAction::Forward(RingMsg::Phase2 {
                inst,
                ballot: self.ballot,
                value,
                votes: 1,
                ttl: self.cfg.initial_ttl(),
            })
        };
        self.complete_or_defer(inst, action, receipt.ack_at, now, out);
    }

    fn complete_or_defer(
        &mut self,
        inst: InstanceId,
        action: PendingAction,
        ready_at: SimTime,
        now: SimTime,
        out: &mut Output,
    ) {
        if ready_at <= now {
            self.run_pending(action, now, out);
        } else {
            self.pending.insert(inst, action);
            out.timers
                .push((ready_at.since(now), RingTimer::WriteDone(inst)));
        }
    }

    fn run_pending(&mut self, action: PendingAction, now: SimTime, out: &mut Output) {
        match action {
            PendingAction::Forward(msg) => self.send_ring(msg, now, out),
            PendingAction::Decide {
                inst,
                ballot,
                value,
                votes,
                fwd_ttl,
                upstream,
            } => {
                let id = value.id;
                // The value keeps circulating inside Phase 2 so the
                // downstream members learn it and, from its vote count,
                // the outcome.
                if fwd_ttl > 0 {
                    self.send_ring(
                        RingMsg::Phase2 {
                            inst,
                            ballot,
                            value: value.clone(),
                            votes,
                            ttl: fwd_ttl,
                        },
                        now,
                        out,
                    );
                }
                self.handle_decide(inst, value, now, out);
                // The upstream members hold the value (they forwarded or
                // voted it) but saw it below a majority: tell each of them
                // directly. One link delay instead of the rest of the lap;
                // un-batched, since their delivery cursors wait on it. A
                // lost one heals like any lost decision (learner gap).
                for to in self.upstream_members(upstream) {
                    let decision = RingMsg::Decision {
                        inst,
                        ballot,
                        id,
                        ttl: 0,
                    };
                    out.sends.push((to, decision));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // phase 1
    // ------------------------------------------------------------------

    /// Starts pre-executed Phase 1 for all instances at a ballot derived
    /// from the registry epoch (strictly increasing across coordinator
    /// changes), or just above a rival's ballot this node's acceptor has
    /// already promised: a promise never goes down. (Replicas whose
    /// registries diverge can each name themselves coordinator at one
    /// epoch, and the lower-id one then learns of the other's Phase 1
    /// first.)
    fn begin_phase1(&mut self, now: SimTime, out: &mut Output) {
        let round = u32::try_from(self.cfg.epoch().raw()).unwrap_or(u32::MAX);
        let at_epoch = Ballot::new(round.max(1), self.me);
        self.ballot = match self.log.promised() {
            rival if rival > at_epoch && rival.node() != self.me => rival.succ(self.me),
            promised => at_epoch.max(promised),
        };
        self.phase1_complete = false;
        self.phase1_generation += 1;
        self.phase1_sent_at = now;

        let receipt = self.log.promise(self.ballot, now);
        let msg = RingMsg::Phase1 {
            ballot: self.ballot,
            from: self.log.trim_floor(),
            to: InstanceId::new(u64::MAX),
            promises: 1,
            accepted: self
                .log
                .entries_in_range(self.log.trim_floor(), InstanceId::new(u64::MAX)),
            // One full loop: the message returns to the coordinator, which
            // is how it collects every member's promises.
            ttl: self.cfg.initial_ttl() + 1,
        };
        if self.cfg.members().len() == 1 {
            // Sole member: Phase 1 trivially succeeds.
            let accepted = match &msg {
                RingMsg::Phase1 { accepted, .. } => accepted.clone(),
                _ => unreachable!(),
            };
            self.finish_phase1(accepted, now, out);
            return;
        }
        let generation = self.phase1_generation;
        if receipt.ack_at <= now {
            self.send_ring(msg, now, out);
        } else {
            self.pending_phase1 = Some((generation, msg));
            out.timers.push((
                receipt.ack_at.since(now),
                RingTimer::PromiseDone(generation),
            ));
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the Phase1 message fields
    fn on_phase1(
        &mut self,
        ballot: Ballot,
        from: InstanceId,
        to: InstanceId,
        promises: u16,
        accepted: Vec<AcceptedEntry>,
        ttl: u16,
        now: SimTime,
        out: &mut Output,
    ) {
        if self.coordinating && ballot == self.ballot {
            // Our Phase 1 came back around the ring.
            if promises >= self.cfg.majority() {
                self.finish_phase1(accepted, now, out);
            }
            return;
        }
        if ballot < self.ballot && self.coordinating {
            return; // stale rival coordinator
        }
        if !self.is_acceptor() {
            if ttl > 0 {
                self.send_ring(
                    RingMsg::Phase1 {
                        ballot,
                        from,
                        to,
                        promises,
                        accepted,
                        ttl: ttl - 1,
                    },
                    now,
                    out,
                );
            }
            return;
        }
        if ballot < self.log.promised() {
            return; // promised someone newer; starve the stale coordinator
        }
        // A higher ballot means a newer coordinator exists; follow it.
        if self.coordinating && ballot > self.ballot {
            self.coordinating = false;
            self.phase1_complete = false;
        }
        let receipt = self.log.promise(ballot, now);
        let mut merged = accepted;
        merged.extend(
            self.log
                .entries_in_range(from.max(self.log.trim_floor()), to),
        );
        let msg = RingMsg::Phase1 {
            ballot,
            from,
            to,
            promises: promises + 1,
            accepted: merged,
            ttl: ttl.saturating_sub(1),
        };
        if ttl == 0 {
            return; // malformed; the loop should have ended at the coordinator
        }
        let generation = self.phase1_generation.wrapping_add(1);
        self.phase1_generation = generation;
        if receipt.ack_at <= now {
            self.send_ring(msg, now, out);
        } else {
            self.pending_phase1 = Some((generation, msg));
            out.timers.push((
                receipt.ack_at.since(now),
                RingTimer::PromiseDone(generation),
            ));
        }
    }

    /// Installs Phase 1 results: adopts the highest-ballot value per
    /// reported instance, fills gaps with no-ops, re-proposes everything,
    /// then opens the proposal pump.
    fn finish_phase1(&mut self, accepted: Vec<AcceptedEntry>, now: SimTime, out: &mut Output) {
        self.phase1_complete = true;
        let mut chosen: BTreeMap<InstanceId, (Ballot, Value)> = BTreeMap::new();
        for e in accepted {
            match chosen.get(&e.inst) {
                Some((b, _)) if *b >= e.vballot => {}
                _ => {
                    chosen.insert(e.inst, (e.vballot, e.value));
                }
            }
        }
        // Fill from the delivery cursor, not from this node's proposal
        // counter: an incumbent coordinator re-running Phase 1 after a
        // reconfiguration has a high `next_instance` but may be stuck on
        // older instances whose votes died with the removed member —
        // everything at or above `next_delivery` that no acceptor
        // reported gets a no-op. (For a freshly elected coordinator the
        // two bases coincide: its proposal counter is still low.)
        let base = self.next_delivery.max(self.log.trim_floor());
        if let Some((last, (_, last_val))) = chosen.iter().next_back() {
            let mut inst = base;
            let end = last.plus(last_val.instance_span());
            while inst < end {
                let (value, span) = match chosen.get(&inst) {
                    Some((_, v)) => (v.clone(), v.instance_span()),
                    None => {
                        let id = self.next_value_id();
                        (
                            Value {
                                id,
                                kind: ValueKind::Noop,
                            },
                            1,
                        )
                    }
                };
                self.in_flight.insert(value.id, Some(inst));
                self.phase2_self_vote(inst, value, now, out);
                inst = inst.plus(span);
            }
            self.next_instance = self.next_instance.max(end);
        } else {
            self.next_instance = self.next_instance.max(base);
        }
        self.pump_proposals(now, out);
    }

    // ------------------------------------------------------------------
    // message handling
    // ------------------------------------------------------------------

    /// Handles one incoming ring message. `from` is the direct sender
    /// (the ring predecessor for circulating messages).
    pub fn on_msg(&mut self, from: NodeId, msg: RingMsg, now: SimTime, out: &mut Output) {
        if !self.cfg.contains(self.me) {
            // Removed from the ring (e.g. cut out while partitioned away):
            // stale peers may still forward circulating frames here, but a
            // non-member has no predecessor/successor and must not take
            // part — drop the frame and wait for the host to rejoin us.
            return;
        }
        // Only traffic from the ring predecessor counts as its liveness
        // signal; client proposals and recovery traffic come from
        // arbitrary nodes and must not mask a dead predecessor.
        if from == self.predecessor() {
            self.last_from_pred = now;
        }
        match msg {
            RingMsg::Batch(msgs) => {
                for m in msgs {
                    self.on_msg_inner(from, m, now, out);
                }
            }
            m => self.on_msg_inner(from, m, now, out),
        }
    }

    fn on_msg_inner(&mut self, sender: NodeId, msg: RingMsg, now: SimTime, out: &mut Output) {
        match msg {
            RingMsg::Proposal { value, ttl } => {
                if self.coordinating {
                    self.enqueue_proposal(value, now, out);
                } else if ttl > 0 {
                    self.send_ring(
                        RingMsg::Proposal {
                            value,
                            ttl: ttl - 1,
                        },
                        now,
                        out,
                    );
                }
                // ttl exhausted without finding a coordinator: the
                // proposer's retry timer will re-send after failover.
            }
            RingMsg::Phase1 {
                ballot,
                from,
                to,
                promises,
                accepted,
                ttl,
            } => self.on_phase1(ballot, from, to, promises, accepted, ttl, now, out),
            RingMsg::Phase2 {
                inst,
                ballot,
                value,
                votes,
                ttl,
            } => self.on_phase2(inst, ballot, value, votes, ttl, now, out),
            RingMsg::Decision { inst, id, .. } => self.on_decision(inst, id, now, out),
            RingMsg::ValueRequest { inst, id } => self.on_value_request(sender, inst, id, out),
            RingMsg::ValueResend { inst, value, .. } => self.on_value_resend(inst, value, now, out),
            RingMsg::Heartbeat { epoch } => {
                if epoch > self.cfg.epoch().raw() {
                    out.asks.push(CoordOp::GetRing { ring: self.ring });
                }
            }
            RingMsg::Batch(msgs) => {
                for m in msgs {
                    self.on_msg_inner(sender, m, now, out);
                }
            }
            RingMsg::ValuePush { value } => self.on_value_push(value, now, out),
        }
    }

    /// An eagerly disseminated value from a proposer: cache it so the
    /// id-only decision resolves locally, resolve any decision already
    /// waiting on it, and — if this node coordinates — treat it as the
    /// proposal it replaces.
    fn on_value_push(&mut self, value: Value, now: SimTime, out: &mut Output) {
        self.remember_learned(&value, None, now);
        // A decision may have raced ahead of the push (it travels the
        // batched ring path): resolve any instance blocked on this id.
        let ready: Vec<InstanceId> = self
            .pending_values
            .iter()
            .filter(|(_, p)| p.id == value.id)
            .map(|(inst, _)| *inst)
            .collect();
        for inst in ready {
            self.handle_decide(inst, value.clone(), now, out);
        }
        if self.coordinating && value.is_deliverable() {
            self.enqueue_proposal(value, now, out);
        }
    }

    /// An id-only decision, sent to us directly by the member whose vote
    /// completed the majority: resolve the value locally, or pull it.
    fn on_decision(&mut self, inst: InstanceId, id: ValueId, now: SimTime, out: &mut Output) {
        match self.resolve_value(inst, id) {
            Some(value) => {
                if value.is_deliverable() {
                    self.prefetch_hits.inc();
                }
                self.handle_decide(inst, value, now, out)
            }
            None => {
                let unknown = inst >= self.next_delivery
                    && !self.decision_buffer.contains_key(&inst)
                    && !self.pending_values.contains_key(&inst);
                if unknown {
                    self.pull_misses.inc();
                    self.pending_values.insert(
                        inst,
                        PendingValue {
                            id,
                            requested_at: now,
                            attempts: 1,
                        },
                    );
                    self.send_value_request(inst, id, out);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_phase2(
        &mut self,
        inst: InstanceId,
        ballot: Ballot,
        value: Value,
        votes: u16,
        ttl: u16,
        now: SimTime,
        out: &mut Output,
    ) {
        // A Phase 2 already carrying a majority is a decision travelling
        // with its value: learn it (no disk write — durability of the
        // *votes* is what safety needed, and those are on a majority's
        // disks) and keep the value circulating for the members behind us.
        if votes >= self.cfg.majority() {
            self.handle_decide(inst, value.clone(), now, out);
            if ttl > 0 {
                self.forward_phase2(inst, ballot, value, votes, ttl - 1, now, out);
            }
            return;
        }
        if !self.is_acceptor() {
            // No log holds the value here: keep it for the id-only
            // decision to come (an acceptor resolves from its log).
            self.remember_learned(&value, Some(inst), now);
            if ttl > 0 {
                self.forward_phase2(inst, ballot, value, votes, ttl - 1, now, out);
            }
            return;
        }
        if ballot < self.log.promised() {
            return; // stale coordinator's proposal dies here
        }
        if self.log.is_decided(inst) {
            // Already decided (re-proposal after failover, or we learned
            // via an id-only decision): no vote, but keep it moving so the
            // value still reaches everyone.
            if ttl > 0 {
                self.forward_phase2(inst, ballot, value, votes, ttl - 1, now, out);
            }
            return;
        }
        let receipt = self.log.accept(inst, ballot, value.clone(), now);
        let votes = votes + 1;
        let action = if votes >= self.cfg.majority() {
            // Our vote completes the majority: this is the decision
            // point. The value continues its single circulation inside
            // Phase 2; the id-only decision covers the members upstream —
            // as many as the hops this message has made, which its origin
            // started at `initial_ttl`.
            PendingAction::Decide {
                inst,
                ballot,
                value,
                votes,
                fwd_ttl: ttl.saturating_sub(1),
                upstream: (self.cfg.initial_ttl() + 1).saturating_sub(ttl),
            }
        } else if ttl > 0 {
            PendingAction::Forward(RingMsg::Phase2 {
                inst,
                ballot,
                value,
                votes,
                ttl: ttl - 1,
            })
        } else {
            return; // ring exhausted below majority: lost acceptors; retry via failover
        };
        self.complete_or_defer(inst, action, receipt.ack_at, now, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn forward_phase2(
        &mut self,
        inst: InstanceId,
        ballot: Ballot,
        value: Value,
        votes: u16,
        ttl: u16,
        now: SimTime,
        out: &mut Output,
    ) {
        self.send_ring(
            RingMsg::Phase2 {
                inst,
                ballot,
                value,
                votes,
                ttl,
            },
            now,
            out,
        );
    }

    fn handle_decide(&mut self, inst: InstanceId, value: Value, now: SimTime, out: &mut Output) {
        self.unacked.remove(&value.id);
        // The value arrived by some path (Phase 2, resend, recovery):
        // any outstanding pull for this instance is satisfied, and the
        // cache is done with it (acceptor logs serve any later pull).
        self.pending_values.remove(&inst);
        self.learned.remove(&value.id);
        if self.is_acceptor() {
            self.log.mark_decided(inst, value.clone(), now);
        }
        if self.coordinating {
            if value.is_deliverable() && inst >= self.next_delivery {
                self.in_flight.insert(value.id, Some(inst)); // skips are never retried
            }
            if inst >= self.next_instance {
                self.next_instance = inst.plus(value.instance_span());
            }
        }
        if inst < self.next_delivery || self.decision_buffer.contains_key(&inst) {
            return;
        }
        self.decision_buffer.insert(inst, value);
        self.drain_deliveries(out);
    }

    fn drain_deliveries(&mut self, out: &mut Output) {
        while let Some(value) = self.decision_buffer.remove(&self.next_delivery) {
            let inst = self.next_delivery;
            self.next_delivery = inst.plus(value.instance_span());
            let value = self.dedup_delivery(value);
            if value.is_deliverable() && common::debug_enabled() {
                eprintln!(
                    "[{} r{}] learner delivers {inst} {}",
                    self.me,
                    self.ring.raw(),
                    value.id
                );
            }
            out.decided.push((inst, value));
        }
    }

    /// Records `value`'s id as delivered — skips and no-ops too, so each
    /// proposer's stream stays one run — and demotes a duplicate
    /// application value (one `ValueId` decided in two instances: a
    /// proposer's retry that raced its decision across a coordinator
    /// change) to a no-op. The check is exact, however far apart the two
    /// instances are, and deterministic across learners because it
    /// depends only on the delivered prefix.
    fn dedup_delivery(&mut self, value: Value) -> Value {
        self.in_flight.remove(&value.id);
        if self.delivered.insert(value.id) || !value.is_deliverable() {
            return value;
        }
        self.dedup_demoted.inc();
        if common::debug_enabled() {
            eprintln!("[{} {}] dedup DEMOTES {}", self.me, self.ring, value.id);
        }
        Value {
            id: value.id,
            kind: ValueKind::Noop,
        }
    }

    // ------------------------------------------------------------------
    // timers
    // ------------------------------------------------------------------

    /// Handles a previously scheduled [`RingTimer`].
    pub fn on_timer(&mut self, timer: RingTimer, now: SimTime, out: &mut Output) {
        match timer {
            RingTimer::WriteDone(inst) => {
                if let Some(action) = self.pending.remove(&inst) {
                    self.run_pending(action, now, out);
                }
            }
            RingTimer::PromiseDone(generation) => {
                if let Some((expected, msg)) = self.pending_phase1.take() {
                    if expected == generation {
                        self.send_ring(msg, now, out);
                    } else {
                        self.pending_phase1 = Some((expected, msg));
                    }
                }
            }
            RingTimer::BatchFlush => {
                self.batch_timer_armed = false;
                self.flush_batch(out);
            }
            RingTimer::Liveness => self.on_liveness(now, out),
            RingTimer::ProposalRetry => self.on_proposal_retry(now, out),
        }
    }

    /// Rate leveling's clock step (§4): proposes one skip token covering
    /// the shortfall between the proposals seen since the last step and
    /// the expected λ·Δ. The host calls it every Δ on the rings this node
    /// coordinates that lead. Until Phase 1 completes (it never does on a
    /// node that does not coordinate) a step only forgets the interval's
    /// proposals: they wait for Phase 1, not for credit.
    ///
    /// The cadence is adaptive: a Δ with real proposals resets the
    /// backoff and skips only the shortfall, while consecutive fully
    /// idle Δs double a stride (capped at [`MAX_IDLE_SKIP_STRIDE`]) and
    /// propose one skip covering `stride` intervals every `stride`
    /// intervals. Merge credit banked per unit time is unchanged; the
    /// consensus traffic an idle ring generates drops by the stride.
    /// The host collapses the added idle-transition latency with
    /// [`RingNode::rate_level_now`] when its merge is starved on this
    /// ring.
    pub fn on_delta(&mut self, now: SimTime, out: &mut Output) {
        let Some(rl) = self.opts.rate_leveling else {
            return;
        };
        if !self.phase1_complete {
            self.proposals_since_delta = 0;
            return;
        }
        let expected = rl.expected_per_delta();
        let got = self.proposals_since_delta;
        self.proposals_since_delta = 0;
        if got > 0 {
            self.idle_deltas = 0;
            self.idle_stride = 1;
            if got < expected {
                self.clock_skips.inc();
                self.propose_skip((expected - got) as u32, now, out);
            }
            return;
        }
        self.idle_deltas += 1;
        if self.idle_deltas < self.idle_stride {
            return; // within the stride: stay silent, owe the credit
        }
        let owed = self.idle_deltas;
        self.idle_deltas = 0;
        self.idle_stride = (self.idle_stride * 2).min(MAX_IDLE_SKIP_STRIDE);
        self.clock_skips.inc();
        self.propose_skip((expected * owed) as u32, now, out);
    }

    /// Tops up, outside the Δ cadence, the instances this coordinator
    /// has proposed but not yet seen decided to `credit`. The host calls
    /// this when its deterministic merge is parked waiting on this ring,
    /// with what the other rings have waiting behind it: a leading ring
    /// deep in stride backoff then does not make a newly active
    /// neighbour wait out the stride, and a following ring — which the
    /// host never steps on its Δ clock ([`RingNode::on_delta`]) —
    /// advances exactly when, and as far as, the merge needs it. A
    /// proposal earlier in the same Δ does not refuse a top-up (the
    /// merge waits now, not at the next step); instances in flight
    /// count, commands and skips alike, so asking again before they land
    /// adds nothing. A top-up also resets the backoff, so the cadence
    /// stays tight while someone is actually waiting.
    pub fn rate_level_now(&mut self, credit: u64, now: SimTime, out: &mut Output) {
        if self.opts.rate_leveling.is_none() || !self.coordinating || !self.phase1_complete {
            return;
        }
        let in_flight = self
            .next_instance
            .raw()
            .saturating_sub(self.next_delivery.raw());
        if credit > in_flight {
            self.idle_deltas = 0;
            self.idle_stride = 1;
            let owed = (credit - in_flight).min(u64::from(u32::MAX));
            self.propose_skip(owed as u32, now, out);
        }
    }

    fn propose_skip(&mut self, n: u32, now: SimTime, out: &mut Output) {
        let id = self.next_value_id();
        let skip = Value {
            id,
            kind: ValueKind::Skip(n),
        };
        self.prop_queue.push_back(skip);
        self.pump_proposals(now, out);
    }

    fn on_liveness(&mut self, now: SimTime, out: &mut Output) {
        out.timers
            .push((self.opts.heartbeat_interval, RingTimer::Liveness));
        if !self.cfg.contains(self.me) {
            // Removed from the ring (e.g. while partitioned away): stay
            // quiet until the host rejoins us; predecessor/successor are
            // undefined here.
            out.asks.push(CoordOp::GetRing { ring: self.ring });
            return;
        }
        // Heartbeats bypass batching: they are the liveness signal itself.
        out.sends.push((
            self.successor(),
            RingMsg::Heartbeat {
                epoch: self.cfg.epoch().raw(),
            },
        ));
        // Phase 1 has no acknowledgement of its own: the window message
        // circulates once and, if a hop drops it (a member with a stale
        // config forwarding to a just-removed node), the coordinator
        // would wait forever. Re-send while incomplete.
        if self.coordinating
            && !self.phase1_complete
            && self.pending_phase1.is_none()
            && now.since(self.phase1_sent_at) > self.opts.heartbeat_interval * 4
        {
            self.begin_phase1(now, out);
        }
        // Nor has Phase 2: a hop that drops it (a member restarting in
        // place inside the failure timeout, a connection reset) leaves
        // the instance undecided everywhere with every later one queued
        // behind it at the learners, and no reconfiguration comes to
        // re-run Phase 1. When the oldest open instance has made no
        // progress for a failure timeout, send the open ones again —
        // same ballot, same values, votes counted afresh.
        let open =
            self.coordinating && self.phase1_complete && self.next_delivery < self.next_instance;
        if !open || self.oldest_open.0 != self.next_delivery {
            self.oldest_open = (self.next_delivery, now);
        } else if now.since(self.oldest_open.1) > self.opts.failure_timeout {
            self.oldest_open.1 = now;
            let open = self
                .log
                .accepted_in_range(self.next_delivery, self.next_instance);
            for e in open.into_iter().take(PHASE2_RESEND_BUDGET) {
                if e.vballot == self.ballot {
                    let ttl = self.cfg.initial_ttl();
                    self.forward_phase2(e.inst, e.vballot, e.value, 1, ttl, now, out);
                }
            }
        }
        // Id-only decisions whose value pull went unanswered: re-request
        // from the next acceptor in the rotation (the previous target may
        // itself have missed the value). Two brakes keep this from
        // becoming a storm under large slow frames: per-miss exponential
        // backoff (a pull whose answer is merely queued behind a fat
        // resend is not re-sent every tick) and a per-tick budget over
        // the *lowest* missing instances (the only ones delivery is
        // actually blocked on — BTreeMap order gives them first).
        let mut stale_pulls: Vec<(InstanceId, ValueId)> = Vec::new();
        for (inst, p) in &self.pending_values {
            if stale_pulls.len() >= self.opts.value_pull_budget {
                break;
            }
            if now.since(p.requested_at) > self.pull_retry_after(p.attempts) {
                stale_pulls.push((*inst, p.id));
            }
        }
        for (inst, id) in stale_pulls {
            if let Some(p) = self.pending_values.get_mut(&inst) {
                p.requested_at = now;
                p.attempts = p.attempts.saturating_add(1);
            }
            self.send_value_request(inst, id, out);
        }
        if now.since(self.last_from_pred) > self.opts.failure_timeout {
            // Report the silent predecessor. The answer is the config to
            // install; a report the coordination service never sees (it
            // is on the other side of a partition) goes again after
            // another failure timeout, and a replica that cannot reach
            // the service cannot evict anyone (the arbitration that
            // keeps mutual accusations from wedging the ring).
            self.suspicions.inc();
            self.last_from_pred = now;
            out.asks.push(CoordOp::ReportFailure {
                ring: self.ring,
                failed: self.predecessor(),
                seen_epoch: self.cfg.epoch(),
            });
        }
    }

    /// How long a proposer waits before re-sending `value`: the base
    /// retry, scaled up with payload size. A multi-KiB value legitimately
    /// takes longer to batch, circulate and fsync than a small one; a
    /// fixed deadline re-injects the largest payloads exactly when the
    /// ring is busiest, turning a slow decision into a retry storm.
    fn retry_deadline(retry: Duration, value: &Value) -> Duration {
        const SIZE_UNIT: usize = 32 * 1024;
        let payload = value.payload().map(|b| b.len()).unwrap_or(0);
        let scale = (1 + payload / SIZE_UNIT).min(8) as u32;
        retry * scale
    }

    fn on_proposal_retry(&mut self, now: SimTime, out: &mut Output) {
        let retry = self.opts.proposal_retry;
        out.timers.push((retry, RingTimer::ProposalRetry));
        // Values learned here and never decided here: one seen at an
        // instance the delivery cursor has passed went to another value
        // there, and one seen at none has outlived its proposer's retry.
        let cursor = self.next_delivery;
        self.learned.retain(|_, (value, inst, at)| match inst {
            Some(inst) => *inst >= cursor,
            None => now.since(*at) < Self::retry_deadline(retry, value),
        });
        // Ids whose instance the cursor passed went to another value
        // there (the delivered ones have left already): admit retries.
        self.in_flight
            .retain(|_, at| at.is_none_or(|inst| inst >= cursor));
        let stale: Vec<Value> = self
            .unacked
            .iter()
            .filter(|(_, (v, sent))| now.since(*sent) >= Self::retry_deadline(retry, v))
            .map(|(_, (v, _))| v.clone())
            .collect();
        for value in stale {
            if let Some(entry) = self.unacked.get_mut(&value.id) {
                entry.1 = now;
            }
            if self.coordinating {
                // Re-propose directly; admission drops it if it was
                // already handled.
                if self.admit(value.id) {
                    self.prop_queue.push_back(value);
                }
            } else {
                let ttl = self.cfg.initial_ttl();
                self.send_ring(RingMsg::Proposal { value, ttl }, now, out);
            }
        }
        self.pump_proposals(now, out);
    }

    fn predecessor(&self) -> NodeId {
        self.upstream_members(1).next().unwrap_or(self.me)
    }

    /// The `hops` members before this one in ring order, nearest first
    /// (never this node itself, however large `hops`).
    fn upstream_members(&self, hops: u16) -> impl Iterator<Item = NodeId> + '_ {
        let members = self.cfg.members();
        let n = members.len();
        let pos = members
            .iter()
            .position(|m| *m == self.me)
            .expect("member of own ring");
        (1..=usize::from(hops).min(n - 1)).map(move |back| members[(pos + n - back) % n])
    }

    /// A configuration of this ring from coordination (the answer to an
    /// ask of this node's, or news from elsewhere): installs it if its
    /// epoch is newer than the one installed.
    pub fn on_config(&mut self, cfg: RingConfig, now: SimTime, out: &mut Output) {
        if cfg.ring() == self.ring && cfg.epoch() > self.cfg.epoch() {
            self.install_config(cfg, now, out);
        }
    }

    fn install_config(&mut self, cfg: RingConfig, now: SimTime, out: &mut Output) {
        // The successor may change: flush buffered messages to the old one
        // first so nothing is silently retargeted.
        self.flush_batch(out);
        if !cfg.contains(self.me) {
            self.evicted_epoch.set(cfg.epoch().raw() as i64);
        }
        self.cfg = cfg;
        self.coordinating = self.cfg.coordinator() == self.me && self.cfg.contains(self.me);
        self.last_from_pred = now;
        if self.coordinating {
            // Re-run Phase 1 even when this node was already the
            // coordinator: a membership change means messages circulating
            // through the removed member were lost, and Phase 2 votes that
            // died on their first hop leave instances undecided *nowhere*
            // — retransmission cannot heal those. Phase 1 at the new
            // (higher, epoch-derived) ballot re-collects what acceptors
            // hold and fills the true holes with no-ops (§5.1).
            self.begin_phase1(now, out);
        } else {
            self.phase1_complete = false;
        }
    }

    // ------------------------------------------------------------------
    // batching
    // ------------------------------------------------------------------

    /// Sends (or batches) a ring message to the successor.
    ///
    /// Skip tokens bypass the batch-delay timer: they are the merge's
    /// clock (rate leveling exists so idle rings do not stall learners),
    /// and parking them for `max_delay` on every hop would re-introduce
    /// exactly the delivery lag they eliminate. The pending batch is
    /// flushed first so per-link FIFO is preserved.
    fn send_ring(&mut self, msg: RingMsg, _now: SimTime, out: &mut Output) {
        let critical = match &msg {
            RingMsg::Phase2 { value, .. } => matches!(value.kind, ValueKind::Skip(_)),
            _ => false,
        };
        if !self.cfg.contains(self.me) {
            // Removed from the ring while effects were in flight (e.g.
            // failure detection during shutdown): there is no successor to
            // send to; drop instead of panicking.
            return;
        }
        let Some(policy) = self.opts.batching else {
            out.sends.push((self.successor(), msg));
            return;
        };
        if critical {
            self.flush_batch(out);
            out.sends.push((self.successor(), msg));
            return;
        }
        self.batch_bytes += msg.encoded_len();
        self.batch.push(msg);
        if self.batch_bytes >= policy.max_bytes {
            self.flush_batch(out);
        } else if !self.batch_timer_armed {
            self.batch_timer_armed = true;
            out.timers.push((policy.max_delay, RingTimer::BatchFlush));
        }
    }

    fn flush_batch(&mut self, out: &mut Output) {
        if self.batch.is_empty() {
            return;
        }
        self.batch_bytes = 0;
        let msgs = std::mem::take(&mut self.batch);
        if !self.cfg.contains(self.me) {
            return; // removed mid-flight; nowhere to flush to
        }
        let msg = if msgs.len() == 1 {
            msgs.into_iter().next().expect("len checked")
        } else {
            RingMsg::Batch(msgs)
        };
        out.sends.push((self.successor(), msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::collections::HashSet;

    use storage::StorageMode;

    /// Reports `failed` in `ring` straight to `registry`, as another
    /// member's failure report would; returns the config coordination
    /// answers with.
    fn report_failure(registry: &Registry, ring: RingId, failed: NodeId) -> RingConfig {
        let seen_epoch = registry.ring(ring).unwrap().epoch();
        let op = CoordOp::ReportFailure {
            ring,
            failed,
            seen_epoch,
        };
        RingConfig::from_answer(&registry.call(op).unwrap()).unwrap()
    }

    /// Drives a set of RingNodes to quiescence by synchronously relaying
    /// their sends; timers with zero-ish delays are fired in order.
    /// Timing is collapsed (everything happens "now") — these tests check
    /// protocol logic, not timing; timing is covered by simnet tests.
    struct Harness {
        nodes: Vec<RingNode>,
        now: SimTime,
        delivered: Vec<Vec<(InstanceId, Value)>>,
        /// Tally of every message relayed between nodes, as a live
        /// transport would account it.
        wire: common::msg::WireStats,
        /// Every message relayed between nodes: `(from, to, message)`.
        relayed: Vec<(NodeId, NodeId, RingMsg)>,
        /// Relayed messages this returns true for are lost instead.
        drop: fn(NodeId, &RingMsg) -> bool,
        /// The coordination service: answers every ask at once.
        registry: Registry,
        /// Configurations answered to asks, not yet handed to their node.
        answers: VecDeque<(usize, RingConfig)>,
    }

    impl Harness {
        fn new(n: usize, opts: RingOptions) -> (Self, Registry) {
            Self::with_acceptors(n, (0..n as u32).map(NodeId::new).collect(), opts)
        }

        /// A ring of `n` members of which only `acceptors` vote.
        fn with_acceptors(n: usize, acceptors: Vec<NodeId>, opts: RingOptions) -> (Self, Registry) {
            let registry = Registry::new();
            let members: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
            let cfg = RingConfig::new(RingId::new(0), members.clone(), acceptors).unwrap();
            registry.register_ring(cfg).unwrap();
            let nodes = members
                .iter()
                .map(|m| RingNode::new(*m, RingId::new(0), registry.clone(), opts.clone()).unwrap())
                .collect();
            (
                Harness {
                    nodes,
                    now: SimTime::ZERO,
                    delivered: vec![Vec::new(); n],
                    wire: common::msg::WireStats::default(),
                    relayed: Vec::new(),
                    drop: |_, _| false,
                    registry: registry.clone(),
                    answers: VecDeque::new(),
                },
                registry,
            )
        }

        fn start(&mut self) {
            let mut out = Output::new();
            for i in 0..self.nodes.len() {
                self.nodes[i].start(self.now, &mut out);
                self.relay(i, &mut out);
            }
        }

        fn propose(&mut self, node: usize, value: Value) {
            let mut out = Output::new();
            self.nodes[node].propose(value, self.now, &mut out);
            self.relay(node, &mut out);
        }

        /// Synchronously relays sends (and fires timers immediately) until
        /// quiescent.
        fn relay(&mut self, origin: usize, out: &mut Output) {
            let mut queue: VecDeque<(usize, NodeId, RingMsg)> = VecDeque::new();
            let mut timers: VecDeque<(usize, RingTimer)> = VecDeque::new();
            let me = self.nodes[origin].me();
            self.drain(origin, me, out, &mut queue, &mut timers);
            let mut steps = 0;
            while !queue.is_empty() || !timers.is_empty() || !self.answers.is_empty() {
                steps += 1;
                assert!(steps < 100_000, "relay did not quiesce");
                let mut o = Output::new();
                if let Some((target, cfg)) = self.answers.pop_front() {
                    self.nodes[target].on_config(cfg, self.now, &mut o);
                    let from2 = self.nodes[target].me();
                    self.drain(target, from2, &mut o, &mut queue, &mut timers);
                } else if let Some((target, from, msg)) = queue.pop_front() {
                    self.nodes[target].on_msg(from, msg, self.now, &mut o);
                    let from2 = self.nodes[target].me();
                    self.drain(target, from2, &mut o, &mut queue, &mut timers);
                } else if let Some((target, timer)) = timers.pop_front() {
                    // Only fire write/batch timers synchronously; periodic
                    // timers would loop forever.
                    match timer {
                        RingTimer::WriteDone(_)
                        | RingTimer::PromiseDone(_)
                        | RingTimer::BatchFlush => {
                            self.nodes[target].on_timer(timer, self.now, &mut o);
                            let from2 = self.nodes[target].me();
                            self.drain(target, from2, &mut o, &mut queue, &mut timers);
                        }
                        _ => {}
                    }
                }
            }
        }

        fn drain(
            &mut self,
            origin: usize,
            from: NodeId,
            out: &mut Output,
            queue: &mut VecDeque<(usize, NodeId, RingMsg)>,
            timers: &mut VecDeque<(usize, RingTimer)>,
        ) {
            for (to, msg) in out.sends.drain(..) {
                self.wire.tally(&msg);
                self.relayed.push((from, to, msg.clone()));
                if !(self.drop)(to, &msg) {
                    queue.push_back((to.raw() as usize, from, msg));
                }
            }
            for (inst, value) in out.decided.drain(..) {
                self.delivered[origin].push((inst, value));
            }
            for (_, t) in out.timers.drain(..) {
                timers.push_back((origin, t));
            }
            for op in out.asks.drain(..) {
                let body = self.registry.call(op).ok();
                if let Some(cfg) = body.as_ref().and_then(RingConfig::from_answer) {
                    self.answers.push_back((origin, cfg));
                }
            }
        }

        /// The relayed messages of one kind, as `(from, to, message)`.
        fn relayed(&self, kind: fn(&RingMsg) -> bool) -> Vec<&(NodeId, NodeId, RingMsg)> {
            self.relayed.iter().filter(|(_, _, m)| kind(m)).collect()
        }

        fn app_value(&mut self, node: usize, payload: &'static [u8]) -> Value {
            let id = self.nodes[node].next_value_id();
            Value {
                id,
                kind: ValueKind::App(Bytes::from_static(payload)),
            }
        }
    }

    fn opts() -> RingOptions {
        RingOptions {
            storage: StorageMode::InMemory,
            ..RingOptions::crash_free()
        }
    }

    /// Two replicas whose registries diverge each name themselves
    /// coordinator at one epoch. Node 1 promises node 2's Phase 1 ballot
    /// of that epoch first, then installs its own config: its Phase 1
    /// must outbid the promise, never lower it.
    #[test]
    fn a_new_coordinator_never_lowers_its_own_acceptors_promise() {
        let registry = Registry::new();
        let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let mut cfg = RingConfig::new(RingId::new(0), members.clone(), members).unwrap();
        registry.register_ring(cfg.clone()).unwrap();
        let me = NodeId::new(1);
        let mut node = RingNode::new(me, RingId::new(0), registry, opts()).unwrap();
        node.start(SimTime::ZERO, &mut Output::new());

        let epoch = cfg.set_coordinator(me).unwrap();
        let rival = Ballot::new(epoch.raw() as u32, NodeId::new(2));
        let phase1 = RingMsg::Phase1 {
            ballot: rival,
            from: InstanceId::ZERO,
            to: InstanceId::new(u64::MAX),
            promises: 1,
            accepted: Vec::new(),
            ttl: 2,
        };
        node.on_msg(NodeId::new(0), phase1, SimTime::ZERO, &mut Output::new());
        assert_eq!(node.log.promised(), rival);

        let mut out = Output::new();
        node.on_config(cfg, SimTime::ZERO, &mut out);
        assert!(node.is_coordinator());
        assert!(node.log.promised() >= rival, "the promise went down");
        let sent: Vec<Ballot> = (out.sends.iter())
            .filter_map(|(_, msg)| match msg {
                RingMsg::Phase1 { ballot, .. } => Some(*ballot),
                _ => None,
            })
            .collect();
        assert!(!sent.is_empty(), "no Phase 1 left the node");
        assert!(
            sent.iter().all(|b| *b > rival),
            "a Phase 1 below the promise: {sent:?}"
        );
    }

    #[test]
    fn three_node_ring_delivers_everywhere_in_order() {
        let (mut h, _) = Harness::new(3, opts());
        h.start();
        for i in 0..5 {
            let v = h.app_value(i % 3, b"x");
            h.propose(i % 3, v);
        }
        for n in 0..3 {
            assert_eq!(h.delivered[n].len(), 5, "node {n} deliveries");
        }
        // Identical streams on every node.
        assert_eq!(h.delivered[0], h.delivered[1]);
        assert_eq!(h.delivered[1], h.delivered[2]);
        // Instance order strictly ascending.
        let insts: Vec<u64> = h.delivered[0].iter().map(|(i, _)| i.raw()).collect();
        let mut sorted = insts.clone();
        sorted.sort_unstable();
        assert_eq!(insts, sorted);
    }

    #[test]
    fn single_node_ring_works() {
        let (mut h, _) = Harness::new(1, opts());
        h.start();
        let v = h.app_value(0, b"solo");
        h.propose(0, v.clone());
        assert_eq!(h.delivered[0].len(), 1);
        assert_eq!(h.delivered[0][0].1, v);
    }

    #[test]
    fn non_coordinator_proposals_reach_coordinator() {
        let (mut h, _) = Harness::new(4, opts());
        h.start();
        // Node 3 is the furthest from coordinator (node 0).
        let v = h.app_value(3, b"far");
        h.propose(3, v.clone());
        for n in 0..4 {
            assert_eq!(h.delivered[n].len(), 1, "node {n}");
            assert_eq!(h.delivered[n][0].1, v);
        }
        // One message, proposer to coordinator — not three hops round
        // the ring — and still good for a full circulation should the
        // receiver turn out not to coordinate.
        let proposals = h.relayed(|m| matches!(m, RingMsg::Proposal { .. }));
        assert_eq!(proposals.len(), 1, "{proposals:?}");
        let (from, to, msg) = proposals[0];
        assert_eq!((*from, *to), (NodeId::new(3), NodeId::new(0)));
        assert_eq!(msg.ttl(), Some(3));
    }

    /// A proposer whose view of the coordinator is stale: the member it
    /// sends to passes the proposal on round the ring until it finds the
    /// coordinator.
    #[test]
    fn proposal_sent_to_a_former_coordinator_circulates_to_the_new_one() {
        let (mut h, _) = Harness::new(4, opts());
        h.start();
        let v = h.app_value(3, b"stale view");
        let ttl = h.nodes[3].config().initial_ttl();
        let mut out = Output::new();
        out.sends.push((
            NodeId::new(2),
            RingMsg::Proposal {
                value: v.clone(),
                ttl,
            },
        ));
        h.relay(3, &mut out);
        for n in 0..4 {
            assert_eq!(h.delivered[n], vec![(InstanceId::ZERO, v.clone())]);
        }
    }

    #[test]
    fn large_values_disseminate_via_push() {
        let mut o = opts();
        o.value_push_bytes = 16;
        let obs = o.obs.clone();
        let (mut h, _) = Harness::new(4, o);
        h.start();
        let v = h.app_value(3, b"a payload large enough to cross the push threshold");
        h.propose(3, v.clone());
        for n in 0..4 {
            assert_eq!(h.delivered[n].len(), 1, "node {n}");
            assert_eq!(h.delivered[n][0].1, v);
        }
        // The payload fanned out point-to-point to the 3 other members
        // instead of circulating inside a Proposal.
        assert_eq!(h.wire.value_push_msgs, 3);
        assert_eq!(obs.counter("value_pushes_sent").get(), 1);
        // Every id-only decision found the value already resident.
        assert_eq!(h.wire.value_requests, 0);
        assert!(obs.counter("value_prefetch_hits").get() >= 1);
        assert_eq!(obs.counter("value_pull_misses").get(), 0);
    }

    #[test]
    fn small_values_skip_the_push_path() {
        let mut o = opts();
        o.value_push_bytes = 1024;
        let (mut h, _) = Harness::new(4, o);
        h.start();
        let v = h.app_value(3, b"small");
        h.propose(3, v.clone());
        for n in 0..4 {
            assert_eq!(h.delivered[n].len(), 1, "node {n}");
        }
        assert_eq!(h.wire.value_push_msgs, 0);
    }

    #[test]
    fn push_resolves_a_decision_that_raced_ahead() {
        let mut o = opts();
        o.value_push_bytes = 8;
        let (mut h, _) = Harness::new(3, o);
        h.start();
        let v = h.app_value(0, b"raced-payload");
        // Node 2 sees the id-only decision before it ever learned the
        // value: the pull path arms.
        let mut out = Output::new();
        h.nodes[2].on_msg(
            NodeId::new(1),
            RingMsg::Decision {
                inst: InstanceId::ZERO,
                ballot: Ballot::new(1, NodeId::new(0)),
                id: v.id,
                ttl: 0,
            },
            h.now,
            &mut out,
        );
        assert!(out.decided.is_empty());
        assert!(out
            .sends
            .iter()
            .any(|(_, m)| matches!(m, RingMsg::ValueRequest { .. })));
        // The proposer's eager push lands: the blocked instance delivers
        // without waiting for the resend.
        let mut out = Output::new();
        h.nodes[2].on_msg(
            NodeId::new(0),
            RingMsg::ValuePush { value: v.clone() },
            h.now,
            &mut out,
        );
        assert_eq!(out.decided.len(), 1);
        assert_eq!(out.decided[0].1, v);
    }

    /// Node 1 of this ring does not vote: it learns each value from the
    /// Phase 2 passing it and decides it by the id-only decision from
    /// node 2, the majority point.
    fn ring_with_a_listener() -> (Harness, Registry) {
        Harness::with_acceptors(3, vec![NodeId::new(0), NodeId::new(2)], opts())
    }

    /// A learner keeps a value only until it decides it; past that, a
    /// pull is an acceptor's to serve from its log.
    #[test]
    fn decided_values_leave_the_learned_cache() {
        let (mut h, _) = ring_with_a_listener();
        h.start();
        let n = 50;
        for i in 0..n {
            let v = h.app_value(i % 3, b"decided");
            h.propose(i % 3, v);
        }
        for (i, node) in h.nodes.iter().enumerate() {
            assert_eq!(h.delivered[i].len(), n, "node {i}");
            assert_eq!(node.value_cache(), (0, 0), "node {i} caches decided values");
        }
    }

    /// The cache still does its job: the id-only decision that follows a
    /// Phase 2 finds the value resident and pulls nothing.
    #[test]
    fn a_decision_after_its_phase2_resolves_from_the_cache() {
        let (mut h, _) = ring_with_a_listener();
        let obs = h.nodes[1].opts.obs.clone();
        h.start();
        h.relayed.clear();
        let v = h.app_value(0, b"resident");
        h.propose(0, v.clone());
        let to_listener: Vec<&RingMsg> = (h.relayed.iter())
            .filter(|(_, to, _)| *to == NodeId::new(1))
            .map(|(_, _, m)| m)
            .collect();
        assert!(
            matches!(
                to_listener[..],
                [RingMsg::Phase2 { .. }, RingMsg::Decision { .. }]
            ),
            "{to_listener:?}"
        );
        assert_eq!(h.delivered[1], vec![(InstanceId::ZERO, v)]);
        assert_eq!(h.wire.value_requests, 0);
        assert_eq!(obs.counter("value_pull_misses").get(), 0);
        assert_eq!(obs.counter("value_prefetch_hits").get(), 2, "nodes 0 and 1");
    }

    /// Values learned here and never decided here do not stay: one whose
    /// instance was decided with another value leaves once the delivery
    /// cursor has passed it, one never proposed at all once its proposer
    /// would have sent it again.
    #[test]
    fn undecided_values_leave_the_learned_cache() {
        let (mut h, _) = ring_with_a_listener();
        h.start();
        let retry = h.nodes[1].opts.proposal_retry;
        let pushed = h.app_value(2, b"pushed by a proposer that died");
        let (lost, won) = (h.app_value(0, b"lost"), h.app_value(0, b"won"));
        let mut out = Output::new();
        let push = RingMsg::ValuePush { value: pushed };
        h.nodes[1].on_msg(NodeId::new(2), push, h.now, &mut out);
        let superseded = RingMsg::Phase2 {
            inst: InstanceId::ZERO,
            ballot: Ballot::new(1, NodeId::new(0)),
            value: lost,
            votes: 1,
            ttl: 1,
        };
        h.nodes[1].on_msg(NodeId::new(0), superseded, h.now, &mut out);
        assert_eq!(h.nodes[1].value_cache().0, 2);
        h.nodes[1].learn_decided(InstanceId::ZERO, won, h.now, &mut out);
        assert_eq!(h.nodes[1].value_cache().0, 2, "neither value was decided");

        h.nodes[1].on_timer(RingTimer::ProposalRetry, h.now + retry / 2, &mut out);
        assert_eq!(h.nodes[1].value_cache().0, 1, "instance 0 went to another");
        h.nodes[1].on_timer(RingTimer::ProposalRetry, h.now + retry, &mut out);
        assert_eq!(h.nodes[1].value_cache(), (0, 0), "nobody proposed the push");
    }

    #[test]
    fn duplicate_proposals_are_suppressed_by_coordinator() {
        let (mut h, _) = Harness::new(3, opts());
        h.start();
        let v = h.app_value(1, b"dup");
        h.propose(1, v.clone());
        h.propose(1, v.clone()); // identical ValueId
        assert_eq!(h.delivered[0].len(), 1);
    }

    #[test]
    fn skip_values_advance_multiple_instances() {
        let (mut h, _) = Harness::new(3, opts());
        h.start();
        let id = h.nodes[0].next_value_id();
        h.propose(
            0,
            Value {
                id,
                kind: ValueKind::Skip(10),
            },
        );
        let v = h.app_value(0, b"after-skip");
        h.propose(0, v);
        let d = &h.delivered[0];
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].0, InstanceId::new(0));
        assert_eq!(
            d[1].0,
            InstanceId::new(10),
            "skip(10) consumed 10 instances"
        );
    }

    /// A restarted process builds its ring member from scratch while its
    /// previous incarnation's value ids still sit in the survivors'
    /// delivered ids: the new incarnation must hand out none of them again.
    #[test]
    fn a_restarted_member_never_reuses_a_value_id() {
        let (mut h, registry) = Harness::new(3, opts());
        h.start();
        let (ring, me) = (RingId::new(0), NodeId::new(2));
        let old: Vec<u64> = (0..5).map(|_| h.nodes[2].next_value_id().seq).collect();
        // The process dies, failure detection removes it, and a fresh
        // process rejoins and restarts in its place.
        report_failure(&registry, ring, me);
        let rejoined = registry.rejoin(ring, me, true).unwrap();
        let mut reborn = RingNode::new(me, ring, registry.clone(), opts()).unwrap();
        reborn.on_restart(rejoined, h.now, &mut Output::new());
        let fresh: Vec<u64> = (0..5).map(|_| reborn.next_value_id().seq).collect();
        assert!(
            fresh.iter().all(|id| !old.contains(id)),
            "ids {fresh:?} repeat the previous incarnation's {old:?}"
        );
    }

    /// What a live proposer's seal-on-idle rule reads: own proposals
    /// count from `propose` until their decision is observed, on the
    /// coordinator and on any other member alike; skips never count.
    #[test]
    fn proposals_in_flight_counts_own_undecided_app_values_only() {
        let mut o = opts();
        o.rate_leveling = Some(crate::options::RateLeveling {
            delta: Duration::from_millis(5),
            lambda: 1000,
        });
        let (mut h, _) = Harness::new(3, o);
        h.start();
        for proposer in [0, 2] {
            let a = h.app_value(proposer, b"a");
            let b = h.app_value(proposer, b"b");
            let mut out = Output::new();
            h.nodes[proposer].propose(a, h.now, &mut out);
            h.nodes[proposer].propose(b, h.now, &mut out);
            assert_eq!(h.nodes[proposer].proposals_in_flight(), 2);
            h.relay(proposer, &mut out);
            assert_eq!(
                h.nodes[proposer].proposals_in_flight(),
                0,
                "node {proposer} saw both decisions"
            );
        }
        assert_eq!(h.delivered[1].len(), 4);
        // Skips — proposed explicitly or emitted by rate leveling — are
        // not retried, so they are never "in flight".
        let id = h.nodes[0].next_value_id();
        let skip = Value {
            id,
            kind: ValueKind::Skip(3),
        };
        let mut out = Output::new();
        h.nodes[0].propose(skip, h.now, &mut out);
        h.nodes[0].on_delta(h.now, &mut out);
        assert!(!out.sends.is_empty(), "the skips did go out");
        assert_eq!(h.nodes[0].proposals_in_flight(), 0);
        h.relay(0, &mut out);
        // Nobody else proposed, so nobody else ever counted anything.
        assert_eq!(h.nodes[1].proposals_in_flight(), 0);
    }

    #[test]
    fn batching_groups_messages() {
        let mut o = opts();
        o.batching = Some(crate::options::BatchPolicy {
            max_bytes: 10_000,
            max_delay: Duration::from_millis(5),
        });
        let (mut h, _) = Harness::new(3, o);
        h.start();
        for _ in 0..10 {
            let v = h.app_value(0, b"payloadpayload");
            h.propose(0, v);
        }
        // All values still delivered exactly once, in identical order.
        assert_eq!(h.delivered[0].len(), 10);
        assert_eq!(h.delivered[0], h.delivered[2]);
    }

    #[test]
    fn coordinator_failover_re_proposes_accepted_values() {
        let (mut h, registry) = Harness::new(3, opts());
        h.start();
        let v0 = h.app_value(0, b"before");
        h.propose(0, v0.clone());

        // Coordinator (node 0) "fails": registry removes it; node 1 takes
        // over and re-runs Phase 1.
        let cfg = report_failure(&registry, RingId::new(0), NodeId::new(0));
        assert_eq!(cfg.coordinator(), NodeId::new(1));

        let mut out = Output::new();
        h.nodes[1].install_config(cfg.clone(), h.now, &mut out);
        h.relay(1, &mut out);
        let mut out = Output::new();
        h.nodes[2].install_config(cfg, h.now, &mut out);
        h.relay(2, &mut out);

        assert!(h.nodes[1].is_coordinator());

        // New proposals flow through the new coordinator.
        let v1 = h.app_value(2, b"after");
        h.propose(2, v1.clone());
        let d1: Vec<_> = h.delivered[1].iter().map(|(_, v)| v.clone()).collect();
        let d2: Vec<_> = h.delivered[2].iter().map(|(_, v)| v.clone()).collect();
        assert!(d1.contains(&v1));
        assert_eq!(d1, d2, "learners agree after failover");
    }

    #[test]
    fn failover_preserves_decided_prefix() {
        let (mut h, registry) = Harness::new(3, opts());
        h.start();
        for i in 0..3 {
            let v = h.app_value(0, if i % 2 == 0 { b"a" } else { b"b" });
            h.propose(0, v);
        }
        let before: Vec<_> = h.delivered[1].clone();
        assert_eq!(before.len(), 3);

        let cfg = report_failure(&registry, RingId::new(0), NodeId::new(0));
        for n in [1, 2] {
            let mut out = Output::new();
            h.nodes[n].install_config(cfg.clone(), h.now, &mut out);
            h.relay(n, &mut out);
        }
        // Deliveries did not change or duplicate.
        assert_eq!(&h.delivered[1][..3], &before[..]);
        let v = h.app_value(1, b"post");
        h.propose(1, v.clone());
        assert_eq!(h.delivered[1].len(), h.delivered[2].len());
        assert!(h.delivered[1].iter().any(|(_, x)| *x == v));
    }

    #[test]
    fn rate_leveling_emits_skips_on_idle() {
        let mut o = opts();
        o.rate_leveling = Some(crate::options::RateLeveling {
            delta: Duration::from_millis(5),
            lambda: 1000,
        });
        let (mut h, _) = Harness::new(3, o);
        h.start();
        // Step the coordinator's Δ clock by hand, as its host would.
        let mut out = Output::new();
        h.nodes[0].on_delta(h.now, &mut out);
        h.relay(0, &mut out);
        assert_eq!(h.delivered[0].len(), 1);
        let (_, v) = &h.delivered[0][0];
        assert!(
            matches!(v.kind, ValueKind::Skip(5)),
            "1000/s × 5 ms = 5: {v:?}"
        );
        // Skips deliver on every learner and advance the instance counter.
        assert_eq!(h.delivered[1], h.delivered[0]);
    }

    /// The host's top-up when its merge is parked on this ring: one skip
    /// for what is missing, credit in flight counted.
    #[test]
    fn rate_level_now_tops_up_to_the_credit_asked_for() {
        let mut o = opts();
        o.rate_leveling = Some(crate::options::RateLeveling {
            delta: Duration::from_millis(5),
            lambda: 1000,
        });
        let (mut h, _) = Harness::new(3, o);
        h.start();
        let skips = |out: &Output| -> Vec<u32> {
            out.sends
                .iter()
                .filter_map(|(_, m)| match m {
                    RingMsg::Phase2 { value, .. } => match value.kind {
                        ValueKind::Skip(n) => Some(n),
                        _ => None,
                    },
                    _ => None,
                })
                .collect()
        };
        let mut first = Output::new();
        h.nodes[0].rate_level_now(20, h.now, &mut first);
        assert_eq!(skips(&first), vec![20]);
        // Asked again before it lands: the 20 in flight count.
        let mut again = Output::new();
        h.nodes[0].rate_level_now(20, h.now, &mut again);
        assert!(again.is_empty());
        h.nodes[0].rate_level_now(26, h.now, &mut again);
        assert_eq!(skips(&again), vec![6]);
        // Only the coordinator levels its ring.
        let mut other = Output::new();
        h.nodes[1].rate_level_now(20, h.now, &mut other);
        assert!(other.is_empty());

        h.relay(0, &mut first);
        h.relay(0, &mut again);
        assert_eq!(h.nodes[0].next_delivery(), InstanceId::new(26));
        let mut landed = Output::new();
        h.nodes[0].rate_level_now(0, h.now, &mut landed);
        assert!(landed.is_empty());
        h.nodes[0].rate_level_now(3, h.now, &mut landed);
        assert_eq!(skips(&landed), vec![3]);
    }

    /// A proposal earlier in the same Δ does not refuse a top-up: the
    /// merge is parked now. The proposal in flight counts as credit.
    #[test]
    fn rate_level_now_tops_up_a_ring_that_saw_a_proposal_this_delta() {
        let mut o = opts();
        o.rate_leveling = Some(crate::options::RateLeveling {
            delta: Duration::from_millis(5),
            lambda: 1000,
        });
        let (mut h, _) = Harness::new(3, o);
        h.start();
        let mut out = Output::new();
        let v = h.app_value(0, b"cmd");
        h.nodes[0].propose(v, h.now, &mut out);
        let mut topped = Output::new();
        h.nodes[0].rate_level_now(5, h.now, &mut topped);
        let skips: Vec<_> = (topped.sends.iter())
            .filter_map(|(_, m)| match m {
                RingMsg::Phase2 { value, .. } => Some(value.kind.clone()),
                _ => None,
            })
            .collect();
        assert!(matches!(skips[..], [ValueKind::Skip(4)]), "{skips:?}");
    }

    /// The slow path of id-only decisions: a node that never learned the
    /// value (here: as if a reconfiguration had put it upstream of the
    /// decision point after its Phase 2 frame was dropped) observes the
    /// id-only decision, pulls the value with `ValueRequest`, and delivery
    /// proceeds — including later instances that buffered behind the hole.
    #[test]
    fn missed_phase2_value_recovers_via_pull() {
        let (mut h, _) = Harness::new(3, opts());
        h.start();

        // v0 proposed at the coordinator; drive messages by hand.
        let v0 = h.app_value(0, b"missed");
        let mut out = Output::new();
        h.nodes[0].propose(v0.clone(), h.now, &mut out);
        let p2_01 = out
            .sends
            .iter()
            .find_map(|(to, m)| match m {
                RingMsg::Phase2 { .. } => Some((*to, m.clone())),
                _ => None,
            })
            .expect("coordinator emits Phase 2");
        assert_eq!(p2_01.0, NodeId::new(1));

        // Node 1's vote completes the majority: it must keep the value
        // circulating (Phase 2) AND send the id-only decision upstream.
        let mut out1 = Output::new();
        h.nodes[1].on_msg(NodeId::new(0), p2_01.1, h.now, &mut out1);
        let p2_12 = out1
            .sends
            .iter()
            .find_map(|(to, m)| match m {
                RingMsg::Phase2 { votes, .. } => {
                    assert!(*votes >= 2, "forwarded Phase 2 proves the majority");
                    Some((*to, m.clone()))
                }
                _ => None,
            })
            .expect("value keeps circulating");
        assert_eq!(p2_12.0, NodeId::new(2));
        let decision = out1
            .sends
            .iter()
            .find_map(|(to, m)| match m {
                RingMsg::Decision { id, .. } => {
                    assert_eq!(*to, NodeId::new(0), "upstream of node 1: the origin");
                    assert_eq!(*id, v0.id, "decision names the value by id only");
                    Some(m.clone())
                }
                _ => None,
            })
            .expect("majority point sends an id-only decision");

        // DROP the Phase 2 to node 2 — it never learns the value — and
        // deliver only the id-only decision.
        let mut out2 = Output::new();
        h.nodes[2].on_msg(NodeId::new(1), decision, h.now, &mut out2);
        assert!(
            h.delivered[2].is_empty(),
            "value unknown: nothing deliverable yet"
        );
        let (pull_target, pull) = out2
            .sends
            .iter()
            .find_map(|(to, m)| match m {
                RingMsg::ValueRequest { inst, id } => {
                    assert_eq!(*inst, InstanceId::new(0));
                    assert_eq!(*id, v0.id);
                    Some((*to, m.clone()))
                }
                _ => None,
            })
            .expect("miss triggers a value pull");
        assert_ne!(pull_target, NodeId::new(2), "pull goes to a peer acceptor");

        // Meanwhile a later instance decides and reaches node 2 with its
        // value: it must buffer, not stall the pull.
        let v1 = h.app_value(0, b"later");
        let mut out = Output::new();
        h.nodes[0].propose(v1.clone(), h.now, &mut out);
        let p2b = out
            .sends
            .iter()
            .find_map(|(_, m)| match m {
                RingMsg::Phase2 { .. } => Some(m.clone()),
                _ => None,
            })
            .expect("phase 2 for v1");
        let mut out1b = Output::new();
        h.nodes[1].on_msg(NodeId::new(0), p2b, h.now, &mut out1b);
        let p2b_fwd = out1b
            .sends
            .iter()
            .find_map(|(_, m)| match m {
                RingMsg::Phase2 { .. } => Some(m.clone()),
                _ => None,
            })
            .expect("v1 value circulates");
        let mut out2b = Output::new();
        h.nodes[2].on_msg(NodeId::new(1), p2b_fwd, h.now, &mut out2b);
        assert!(
            h.delivered[2].is_empty() && out2b.decided.is_empty(),
            "instance 1 buffers behind the missing instance 0"
        );

        // The pulled acceptor answers; node 2 resolves and drains both.
        let mut out_acc = Output::new();
        let target_idx = pull_target.raw() as usize;
        h.nodes[target_idx].on_msg(NodeId::new(2), pull, h.now, &mut out_acc);
        let resend = out_acc
            .sends
            .iter()
            .find_map(|(to, m)| match m {
                RingMsg::ValueResend { value, .. } => {
                    assert_eq!(*to, NodeId::new(2));
                    assert_eq!(value, &v0);
                    Some(m.clone())
                }
                _ => None,
            })
            .expect("acceptor resends the full value");
        let mut out2c = Output::new();
        h.nodes[2].on_msg(pull_target, resend, h.now, &mut out2c);
        let got: Vec<(InstanceId, Value)> = out2b
            .decided
            .iter()
            .chain(out2c.decided.iter())
            .cloned()
            .collect();
        assert_eq!(
            got,
            vec![(InstanceId::new(0), v0), (InstanceId::new(1), v1),],
            "both instances deliver, in order, after the pull resolves"
        );
    }

    /// A checkpoint's dedup snapshot must reflect only deliveries below
    /// the cut: the ring learner runs ahead of the deterministic merge,
    /// and leaking a future delivery's id into the snapshot would make a
    /// restored replica demote that value to a no-op on replay (a lost
    /// write).
    #[test]
    fn dedup_snapshot_respects_the_cut() {
        let (mut h, _) = Harness::new(3, opts());
        h.start();
        let va = h.app_value(0, b"below-cut");
        let vb = h.app_value(0, b"beyond-cut");
        h.propose(0, va.clone());
        h.propose(0, vb.clone());
        assert_eq!(h.delivered[1].len(), 2);

        // A checkpoint cut between the two deliveries (the merge had only
        // consumed instance 0, and still queues vb) must include va's id
        // but NOT vb's.
        let snap = h.nodes[1].dedup_snapshot([vb.id]);
        assert!(snap.contains(&va.id));
        assert!(!snap.contains(&vb.id), "future delivery leaked into cut");

        // Restore on a fresh node positioned at the cut, then replay the
        // beyond-cut value: it must deliver, not demote.
        let (mut h2, _) = Harness::new(3, opts());
        h2.start();
        h2.nodes[1].restore_dedup(snap);
        h2.nodes[1].set_next_delivery(InstanceId::new(1));
        let mut out = Output::new();
        h2.nodes[1].learn_decided(InstanceId::new(1), vb.clone(), h2.now, &mut out);
        assert_eq!(
            out.decided,
            vec![(InstanceId::new(1), vb)],
            "replayed value beyond the cut delivers intact"
        );
    }

    /// One application value decided at two instances (a retry that
    /// raced its decision across a coordinator change) is delivered once:
    /// the second copy is demoted to a no-op, however far apart the two
    /// instances are.
    #[test]
    fn a_value_decided_twice_is_delivered_once() {
        let (mut h, _) = Harness::new(3, opts());
        h.start();
        let v = h.app_value(1, b"twice");
        let skip = Value {
            id: h.nodes[1].next_value_id(),
            kind: ValueKind::Skip(100_000),
        };
        let (node, now, mut out) = (&mut h.nodes[2], h.now, Output::new());
        node.learn_decided(InstanceId::new(0), v.clone(), now, &mut out);
        node.learn_decided(InstanceId::new(1), skip, now, &mut out);
        node.learn_decided(InstanceId::new(100_001), v.clone(), now, &mut out);
        let delivered: Vec<_> = (out.decided.iter())
            .filter(|(_, d)| d.is_deliverable())
            .collect();
        assert_eq!(delivered, [&(InstanceId::new(0), v.clone())]);
        assert_eq!(
            out.decided.last(),
            Some(&(
                InstanceId::new(100_001),
                Value {
                    id: v.id,
                    kind: ValueKind::Noop
                }
            )),
            "the second copy is demoted"
        );
        let demoted = node.opts.obs.counter("ring0_dedup_demoted").get();
        assert_eq!(demoted, 1);
        assert_eq!(
            node.delivered_ids().ranges(),
            1,
            "v and the skip are one run"
        );
    }

    /// A decision on the wire must never carry payload bytes.
    #[test]
    fn decisions_are_metadata_only() {
        let (mut h, _) = Harness::new(3, opts());
        h.start();
        let before = h.wire;
        for i in 0..5 {
            let v = h.app_value(i % 3, b"some payload bytes some payload bytes");
            h.propose(i % 3, v);
        }
        // Every message relayed for those proposals, as a transport
        // would tally it: decisions were sent, but zero payload bytes
        // rode inside any of them.
        assert!(
            h.wire.decision_msgs > before.decision_msgs,
            "proposals produced decisions"
        );
        assert_eq!(h.wire.decision_payload_bytes, 0);
        assert!(
            h.wire.phase2_payload_bytes > 0,
            "payload travels in Phase 2"
        );

        // And structurally: an id-only decision encodes tiny.
        let d = RingMsg::Decision {
            inst: InstanceId::new(3),
            ballot: Ballot::new(1, NodeId::new(0)),
            id: ValueId::new(NodeId::new(1), 9),
            ttl: 2,
        };
        assert!(d.to_bytes().len() < 16, "id-only decision stays tiny");
    }

    /// The recovery-storm brake: for every missed `(inst, id)` at most
    /// one `ValueRequest` is outstanding per liveness tick — duplicate
    /// decision observations add none, ticks inside the backoff window
    /// add none, and a tick that does retry is bounded by the pull
    /// budget over the lowest (delivery-blocking) instances.
    #[test]
    fn value_pull_retries_are_deduped_and_budgeted() {
        let opts = RingOptions {
            storage: StorageMode::InMemory,
            // Keep failure detection armed but far away: this test fires
            // the liveness timer by hand and must not trigger a
            // predecessor-failure report.
            failure_timeout: Duration::from_secs(3600),
            ..RingOptions::default()
        };
        let budget = opts.value_pull_budget;
        let heartbeat = opts.heartbeat_interval;
        let (mut h, _) = Harness::new(3, opts);
        h.start();

        let misses = 3 * budget as u64;
        let pulls_of = |out: &Output| -> Vec<(InstanceId, ValueId)> {
            out.sends
                .iter()
                .filter_map(|(_, m)| match m {
                    RingMsg::ValueRequest { inst, id } => Some((*inst, *id)),
                    _ => None,
                })
                .collect()
        };
        let decision = |i: u64| RingMsg::Decision {
            inst: InstanceId::new(i),
            ballot: Ballot::new(1, NodeId::new(0)),
            id: ValueId::new(NodeId::new(0), 1000 + i),
            ttl: 0,
        };

        // First observation of each id-only decision: exactly one pull
        // per missed (inst, id).
        let mut out = Output::new();
        for i in 0..misses {
            h.nodes[2].on_msg(NodeId::new(1), decision(i), h.now, &mut out);
        }
        let first = pulls_of(&out);
        assert_eq!(first.len(), misses as usize, "one pull per fresh miss");
        let unique: HashSet<_> = first.iter().collect();
        assert_eq!(unique.len(), first.len(), "no duplicate pulls");

        // Re-observing the same decisions (duplicated frames): zero
        // additional pulls.
        let mut out = Output::new();
        for i in 0..misses {
            h.nodes[2].on_msg(NodeId::new(1), decision(i), h.now, &mut out);
        }
        assert!(pulls_of(&out).is_empty(), "duplicate decisions re-pulled");

        // A liveness tick inside the backoff window: zero pulls.
        let mut out = Output::new();
        h.nodes[2].on_timer(RingTimer::Liveness, h.now + heartbeat, &mut out);
        assert!(pulls_of(&out).is_empty(), "tick inside backoff re-pulled");

        // A tick past the first backoff (2·heartbeat): retries flow, but
        // at most `budget` of them, each (inst, id) at most once, and
        // they cover the lowest instances (delivery is blocked there).
        let late = h.now + heartbeat * 3;
        let mut out = Output::new();
        h.nodes[2].on_timer(RingTimer::Liveness, late, &mut out);
        let retried = pulls_of(&out);
        assert_eq!(retried.len(), budget, "per-tick budget not enforced");
        let unique: HashSet<_> = retried.iter().collect();
        assert_eq!(unique.len(), retried.len(), "a miss was pulled twice");
        for (inst, _) in &retried {
            assert!(
                inst.raw() < budget as u64,
                "budget must go to the lowest blocked instances"
            );
        }

        // Immediately ticking again at the same instant: the retried
        // misses just restarted their (now doubled) backoff — only the
        // *next* budget-worth of stale misses may go out, never the same
        // (inst, id) twice in a tick window.
        let mut out = Output::new();
        h.nodes[2].on_timer(RingTimer::Liveness, late, &mut out);
        let second = pulls_of(&out);
        let second_unique: HashSet<_> = second.iter().collect();
        assert_eq!(second.len(), second_unique.len());
        for pull in &second {
            assert!(
                !retried.contains(pull),
                "{pull:?} re-pulled in back-to-back ticks"
            );
        }
    }

    /// Phase 2 has no acknowledgement: a frame dropped on its first hop
    /// (a member restarting in place, a connection reset) leaves the
    /// instance open everywhere. The coordinator sends its open instances
    /// again once the oldest has stalled for a failure timeout.
    #[test]
    fn coordinator_resends_a_phase2_that_stalled() {
        let opts = RingOptions {
            storage: StorageMode::InMemory,
            ..RingOptions::default()
        };
        let timeout = opts.failure_timeout;
        let (mut h, _) = Harness::new(3, opts);
        h.start();
        let phase2s = |out: &Output| -> Vec<InstanceId> {
            out.sends
                .iter()
                .filter_map(|(_, m)| match m {
                    RingMsg::Phase2 { inst, votes: 1, .. } => Some(*inst),
                    _ => None,
                })
                .collect()
        };
        let (v0, v1) = (h.app_value(0, b"lost"), h.app_value(0, b"lost too"));
        let mut lost = Output::new();
        h.nodes[0].propose(v0.clone(), h.now, &mut lost);
        h.nodes[0].propose(v1.clone(), h.now, &mut lost);
        assert_eq!(phase2s(&lost).len(), 2, "both proposed, neither relayed");

        // The predecessor stays audible throughout.
        let tick = |h: &mut Harness, at: SimTime| -> Output {
            let mut out = Output::new();
            h.nodes[0].on_msg(
                NodeId::new(2),
                RingMsg::Heartbeat { epoch: 1 },
                at,
                &mut out,
            );
            h.nodes[0].on_timer(RingTimer::Liveness, at, &mut out);
            out
        };
        let proposed = h.now;
        let soon = proposed + Duration::from_millis(1);
        assert!(phase2s(&tick(&mut h, soon)).is_empty());
        assert!(
            phase2s(&tick(&mut h, proposed + timeout)).is_empty(),
            "not yet a failure timeout"
        );
        let late = proposed + timeout + Duration::from_millis(1);
        let mut again = tick(&mut h, late);
        assert_eq!(
            phase2s(&again),
            vec![InstanceId::new(0), InstanceId::new(1)],
            "every open instance goes out again, in order"
        );
        again.timers.clear();
        h.now = late;
        h.relay(0, &mut again);
        for n in 0..3 {
            let got: Vec<&Value> = h.delivered[n].iter().map(|(_, v)| v).collect();
            assert_eq!(got, vec![&v0, &v1], "node {n}");
        }
        // Nothing open, nothing to send again.
        let later = late + timeout * 2;
        assert!(phase2s(&tick(&mut h, later)).is_empty());
        assert!(phase2s(&tick(&mut h, later + timeout * 2)).is_empty());
    }

    #[test]
    fn epoch_in_heartbeat_triggers_config_refresh() {
        let (mut h, registry) = Harness::new(3, opts());
        h.start();
        // Externally bump the config (as if others reconfigured).
        report_failure(&registry, RingId::new(0), NodeId::new(0));
        let new_epoch = registry.ring(RingId::new(0)).unwrap().epoch();

        let mut out = Output::new();
        h.nodes[1].on_msg(
            NodeId::new(0),
            RingMsg::Heartbeat {
                epoch: new_epoch.raw(),
            },
            h.now,
            &mut out,
        );
        h.relay(1, &mut out);
        assert!(h.nodes[1].is_coordinator());
        assert_eq!(h.nodes[1].config().epoch(), new_epoch);
    }

    fn is_decision(m: &RingMsg) -> bool {
        matches!(m, RingMsg::Decision { .. })
    }

    /// Decisions leave the ring: the acceptor whose vote completes the
    /// majority tells each member upstream of it directly, nobody
    /// forwards a decision, and the downstream members decide from the
    /// passing Phase 2 alone.
    #[test]
    fn decision_point_sends_directly_to_upstream_members_only() {
        let (mut h, _) = Harness::new(6, opts());
        h.start();
        let majority = usize::from(h.nodes[0].config().majority());
        assert_eq!(majority, 4);
        let rounds = 5;
        for i in 0..rounds {
            let v = h.app_value(i % 6, b"x");
            h.propose(i % 6, v);
        }
        for n in 0..6 {
            assert_eq!(h.delivered[n].len(), rounds, "node {n}");
            assert_eq!(h.delivered[n], h.delivered[0]);
        }
        let decisions = h.relayed(is_decision);
        assert_eq!(
            decisions.len(),
            rounds * (majority - 1),
            "majority - 1 decision messages per instance"
        );
        for (from, to, msg) in decisions {
            assert_eq!(*from, NodeId::new(3), "sent by the majority point");
            assert!(to.raw() < 3, "sent upstream only: {to}");
            assert_eq!(msg.ttl(), Some(0), "never forwarded");
        }

        // Hop by hop: each upstream member decides on the one message it
        // receives after the majority point, in whatever order they land.
        let v = h.app_value(0, b"by hand");
        let mut out = Output::new();
        h.nodes[0].propose(v.clone(), h.now, &mut out);
        for hop in 1..=3usize {
            let (to, msg) = out.sends.pop().expect("one Phase 2 per hop");
            assert!(out.sends.is_empty() && out.decided.is_empty());
            assert_eq!(to, NodeId::new(hop as u32));
            h.nodes[hop].on_msg(NodeId::new(hop as u32 - 1), msg, h.now, &mut out);
        }
        assert_eq!(out.decided.len(), 1, "node 3 decides at the majority");
        let inst = out.decided[0].0;
        let (phase2, direct): (Vec<_>, Vec<_>) = out
            .sends
            .drain(..)
            .partition(|(_, m)| matches!(m, RingMsg::Phase2 { .. }));
        assert_eq!(phase2.len(), 1, "the value keeps circulating");
        assert_eq!(phase2[0].0, NodeId::new(4));
        let mut targets: Vec<u32> = direct.iter().map(|(to, _)| to.raw()).collect();
        targets.sort_unstable();
        assert_eq!(targets, vec![0, 1, 2]);
        for (to, msg) in direct {
            assert!(is_decision(&msg));
            let mut o = Output::new();
            h.nodes[to.raw() as usize].on_msg(NodeId::new(3), msg, h.now, &mut o);
            assert_eq!(o.decided, vec![(inst, v.clone())], "node {to}");
            assert!(o.sends.is_empty(), "node {to} forwards nothing");
        }
    }

    /// A direct decision lost on its way to one member: the next
    /// decision shows the member its gap, the hole is filled the way the
    /// host fills any hole (retransmission from an acceptor's log), and
    /// the late original adds nothing.
    #[test]
    fn lost_direct_decision_heals_through_the_learner_gap() {
        let (mut h, _) = Harness::new(6, opts());
        h.start();
        h.drop = |to, m| {
            to == NodeId::new(1)
                && matches!(m, RingMsg::Decision { inst, .. } if *inst == InstanceId::ZERO)
        };
        let v0 = h.app_value(0, b"lost");
        let v1 = h.app_value(0, b"next");
        h.propose(0, v0.clone());
        assert!(
            h.delivered[1].is_empty(),
            "node 1 never heard of instance 0"
        );
        assert_eq!(h.nodes[1].buffered_gap(), None);
        h.propose(0, v1.clone());
        assert!(
            h.delivered[1].is_empty(),
            "instance 1 waits behind the hole"
        );
        let (from, to) = h.nodes[1].buffered_gap().expect("gap is visible");
        assert_eq!((from, to), (InstanceId::ZERO, InstanceId::new(1)));

        let mut out = Output::new();
        for e in h.nodes[3].log().decided_in_range(from, to) {
            h.nodes[1].learn_decided(e.inst, e.value, h.now, &mut out);
        }
        let expect = vec![(InstanceId::ZERO, v0.clone()), (InstanceId::new(1), v1)];
        assert_eq!(out.decided, expect);

        // The dropped frame turns up after all.
        let (_, _, late) = h
            .relayed(is_decision)
            .into_iter()
            .find(|(_, to, m)| (h.drop)(*to, m))
            .expect("the dropped decision was sent")
            .clone();
        let mut out = Output::new();
        h.nodes[1].on_msg(NodeId::new(3), late, h.now, &mut out);
        assert!(out.is_empty(), "no duplicate delivery: {out:?}");
        for n in [0, 2, 3, 4, 5] {
            assert_eq!(h.delivered[n], expect, "node {n}");
        }
    }

    /// Predecessor liveness counts predecessor traffic only: a decision
    /// arriving directly from further round the ring says nothing about
    /// the predecessor.
    #[test]
    fn direct_decision_does_not_vouch_for_the_predecessor() {
        let (mut h, _) = Harness::new(6, opts());
        h.start();
        let started = h.nodes[0].last_from_pred;
        let decision = RingMsg::Decision {
            inst: InstanceId::ZERO,
            ballot: Ballot::new(1, NodeId::new(0)),
            id: ValueId::new(NodeId::new(0), 99),
            ttl: 0,
        };
        let later = h.now + Duration::from_millis(10);
        let mut out = Output::new();
        h.nodes[0].on_msg(NodeId::new(3), decision.clone(), later, &mut out);
        assert_eq!(h.nodes[0].last_from_pred, started);
        h.nodes[0].on_msg(NodeId::new(5), decision, later, &mut out);
        assert_eq!(
            h.nodes[0].last_from_pred, later,
            "node 5 is the predecessor"
        );
    }
}
