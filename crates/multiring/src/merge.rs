//! Deterministic merge of per-ring decision streams (paper §4).
//!
//! "Learners deliver messages from rings they subscribe to in round-robin,
//! following the order given by the ring identifier. More precisely, a
//! learner delivers messages decided in M consensus instances from the
//! first ring, then ... the second ring, and so on."
//!
//! Skip tokens ([`common::value::ValueKind::Skip`]) count as the number of
//! instances they stand for but deliver nothing — this is what lets slow
//! rings keep the merge moving (rate leveling).

use common::ids::{InstanceId, RingId};
use common::msg::CheckpointTuple;
use common::time::SimTime;
use common::value::{Value, ValueId};
use std::collections::{BTreeMap, VecDeque};

/// One atomically multicast-delivered message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MulticastDelivery {
    /// The group the message was multicast to.
    pub ring: RingId,
    /// The consensus instance that decided it.
    pub inst: InstanceId,
    /// The application value.
    pub value: Value,
    /// When the ring learner decided it here, as offered to
    /// [`MergeLearner::push_at`]: delivery time minus this is how long it
    /// waited in the merge.
    pub decided: SimTime,
}

#[derive(Debug)]
struct RingStream {
    /// Next instance to account for (everything below is consumed).
    next: InstanceId,
    /// In-order decided values from the ring learner (instance, value,
    /// decide time).
    queue: VecDeque<(InstanceId, Value, SimTime)>,
    /// Instances consumed in the current round-robin turn.
    consumed_this_turn: u64,
}

/// The deterministic merge state of one Multi-Ring Paxos learner.
///
/// Feed it in-order per-ring decisions with [`MergeLearner::push`]; drain
/// globally ordered deliveries with [`MergeLearner::pop`].
#[derive(Debug)]
pub struct MergeLearner {
    /// Subscribed rings in ascending id order with their stream state.
    streams: BTreeMap<RingId, RingStream>,
    /// Position of the ring whose turn it is, as an index into `streams`.
    turn: usize,
    /// Instances to consume per ring per turn (the paper's `M`).
    m: u64,
    /// Non-deliverable values (skip tokens, no-op fillers) consumed by
    /// the merge since construction — how much rate-leveling traffic the
    /// merge chewed through to keep slow rings from stalling it.
    skips_consumed: u64,
    /// Per-ring share of `skips_consumed` (kept for rings even after an
    /// unsubscribe, so the stats plane never loses history).
    skips_by_ring: BTreeMap<RingId, u64>,
}

impl MergeLearner {
    /// A learner subscribed to `rings`, delivering `m` instances per ring
    /// per turn.
    ///
    /// # Panics
    ///
    /// Panics if `rings` is empty or `m` is zero.
    pub fn new(rings: &[RingId], m: u64) -> Self {
        assert!(!rings.is_empty(), "subscribe to at least one ring");
        assert!(m > 0, "M must be positive");
        let streams = rings
            .iter()
            .map(|r| {
                (
                    *r,
                    RingStream {
                        next: InstanceId::ZERO,
                        queue: VecDeque::new(),
                        consumed_this_turn: 0,
                    },
                )
            })
            .collect();
        MergeLearner {
            streams,
            turn: 0,
            m,
            skips_consumed: 0,
            skips_by_ring: BTreeMap::new(),
        }
    }

    /// Adds `ring` to the subscription set, positioned at `from` (its
    /// first needed instance). Takes effect immediately — callers invoke
    /// this at a delivered cut so every replica of the partition mutates
    /// the subscription at the same point in the delivery order. The ring
    /// whose turn it currently is keeps its turn (and its banked credit);
    /// the new ring starts with zero credit. No-op if already subscribed.
    pub fn subscribe(&mut self, ring: RingId, from: InstanceId) {
        if self.streams.contains_key(&ring) {
            return;
        }
        let cur = self.current_ring();
        self.streams.insert(
            ring,
            RingStream {
                next: from,
                queue: VecDeque::new(),
                consumed_this_turn: 0,
            },
        );
        self.reanchor_turn(cur);
    }

    /// Removes `ring` from the subscription set, discarding its buffered
    /// decisions and banked skip credit (credit for the rings that remain
    /// is untouched — skip credit is conserved per ring). Takes effect
    /// immediately; call at a delivered cut like [`MergeLearner::subscribe`].
    /// If the removed ring held the current turn, the turn passes to the
    /// next ring in ascending order. Returns `false` (and does nothing)
    /// when `ring` is not subscribed or is the only subscription — a
    /// merge must always have at least one ring.
    pub fn unsubscribe(&mut self, ring: RingId) -> bool {
        if !self.streams.contains_key(&ring) || self.streams.len() == 1 {
            return false;
        }
        let cur = self.current_ring();
        self.streams.remove(&ring);
        if cur == ring {
            // Turn passes to the next ring after the removed one (wrap).
            let next = self
                .streams
                .keys()
                .copied()
                .find(|&k| k > ring)
                .unwrap_or_else(|| *self.streams.keys().next().expect("non-empty"));
            self.reanchor_turn(next);
        } else {
            self.reanchor_turn(cur);
        }
        true
    }

    /// The ring whose turn it currently is.
    fn current_ring(&self) -> RingId {
        let rings: Vec<RingId> = self.streams.keys().copied().collect();
        rings[self.turn % rings.len()]
    }

    /// Re-points `turn` at `ring` after the subscription set changed.
    fn reanchor_turn(&mut self, ring: RingId) {
        self.turn = self
            .streams
            .keys()
            .position(|&k| k == ring)
            .expect("anchor ring subscribed");
    }

    /// The subscribed rings, ascending.
    pub fn rings(&self) -> Vec<RingId> {
        self.streams.keys().copied().collect()
    }

    /// The merge parameter `M`.
    pub fn m(&self) -> u64 {
        self.m
    }

    /// [`MergeLearner::push_at`] for a caller that does not time the
    /// merge: the delivery reports [`SimTime::ZERO`] as its decide time.
    pub fn push(&mut self, ring: RingId, inst: InstanceId, value: Value) {
        self.push_at(ring, inst, value, SimTime::ZERO);
    }

    /// Offers a value `ring` decided at `decided`. Values must arrive in
    /// instance order per ring (the ring learner guarantees this); stale
    /// instances (below the stream position) are ignored, which makes
    /// retransmitted replays idempotent.
    pub fn push_at(&mut self, ring: RingId, inst: InstanceId, value: Value, decided: SimTime) {
        let Some(s) = self.streams.get_mut(&ring) else {
            return; // not subscribed
        };
        if inst < s.next {
            return; // duplicate/stale
        }
        if let Some(&(last, ref v, _)) = s.queue.back() {
            debug_assert!(
                inst >= last.plus(v.instance_span()),
                "per-ring pushes must be in order"
            );
        }
        s.queue.push_back((inst, value, decided));
    }

    /// Delivers the next message in the global deterministic-merge order,
    /// or `None` if the merge is blocked waiting for the current ring.
    ///
    /// Skip tokens larger than `M` carry their credit across turns: a
    /// `Skip(5)` with `M = 1` covers five of its ring's turns, which is
    /// exactly how one rate-leveling message keeps an idle ring from
    /// stalling the merge for several rounds.
    pub fn pop(&mut self) -> Option<MulticastDelivery> {
        let rings: Vec<RingId> = self.streams.keys().copied().collect();
        let n = rings.len();
        loop {
            let ring = rings[self.turn % n];
            let s = self.streams.get_mut(&ring).expect("stream exists");
            if s.consumed_this_turn >= self.m {
                // Turn satisfied (possibly by banked skip credit).
                s.consumed_this_turn -= self.m;
                self.turn = (self.turn + 1) % n;
                continue;
            }
            let Some(&(inst, ..)) = s.queue.front() else {
                return None; // blocked on this ring (the slowest group paces delivery)
            };
            if inst != s.next {
                return None; // gap: waiting for a decision (or retransmission)
            }
            let (_, value, decided) = s.queue.pop_front().expect("front exists");
            let span = value.instance_span();
            s.next = inst.plus(span);
            s.consumed_this_turn += span;
            if value.is_deliverable() {
                return Some(MulticastDelivery {
                    ring,
                    inst,
                    value,
                    decided,
                });
            }
            self.skips_consumed += 1;
            *self.skips_by_ring.entry(ring).or_insert(0) += 1;
        }
    }

    /// Skip tokens and no-op fillers consumed so far (diagnostics; feeds
    /// the `merge_skips` counter in the stats plane).
    pub fn skips_consumed(&self) -> u64 {
        self.skips_consumed
    }

    /// Per-ring share of [`MergeLearner::skips_consumed`] (feeds the
    /// per-ring `merge_skips` breakdown in the stats plane). Rings that
    /// were unsubscribed keep their historical tally.
    pub fn skips_by_ring(&self) -> Vec<(RingId, u64)> {
        self.skips_by_ring.iter().map(|(r, n)| (*r, *n)).collect()
    }

    /// Decided-but-undelivered instances buffered across all streams —
    /// how far the merge lags behind the rings feeding it (the
    /// `merge_lag` gauge; a stuck slow ring shows up as growth here).
    pub fn queued_lag(&self) -> u64 {
        self.streams.values().map(|s| s.queue.len() as u64).sum()
    }

    /// Payload bytes of the decided values buffered across all streams.
    /// Walks every queued value, so it is for the stats plane.
    pub fn queued_bytes(&self) -> usize {
        let queued = self.streams.values().flat_map(|s| &s.queue);
        queued
            .filter_map(|(_, v, _)| v.payload())
            .map(|b| b.len())
            .sum()
    }

    /// The ids of the deliverable values `ring`'s stream still queues:
    /// what its ring learner delivered at or past the checkpoint cut.
    pub fn queued_ids(&self, ring: RingId) -> impl Iterator<Item = ValueId> + '_ {
        let queued = self.streams.get(&ring).into_iter().flat_map(|s| &s.queue);
        queued
            .filter(|(_, v, _)| v.is_deliverable())
            .map(|(_, v, _)| v.id)
    }

    /// Per-ring buffered-decision depth (the per-ring `merge_lag`
    /// breakdown in the stats plane).
    pub fn lag_by_ring(&self) -> Vec<(RingId, u64)> {
        self.streams
            .iter()
            .map(|(r, s)| (*r, s.queue.len() as u64))
            .collect()
    }

    /// The ring the merge is currently blocked on, when other rings have
    /// decisions buffered behind it: the current-turn ring if its turn is
    /// unsatisfied and it has nothing ready at its stream position. Call
    /// after [`MergeLearner::pop`] returns `None` — pop leaves the
    /// scheduler parked exactly on the blocking ring. The host uses this
    /// to nudge the blocked ring's coordinator into an immediate skip
    /// instead of waiting out the rate-leveling interval.
    pub fn starved_ring(&self) -> Option<RingId> {
        let ring = self.current_ring();
        let s = self.streams.get(&ring).expect("stream exists");
        if s.consumed_this_turn >= self.m {
            return None; // turn already satisfied; merge isn't parked here
        }
        let ready = s.queue.front().is_some_and(|&(i, ..)| i == s.next);
        if ready {
            return None;
        }
        if self.queued_lag() == 0 {
            return None; // everything is idle, nothing is being held up
        }
        Some(ring)
    }

    /// What every ring has buffered ahead of the merge, as
    /// `(ring, credit, work)`: the instances the merge can still consume
    /// from the ring without a new decision (banked skip credit plus the
    /// contiguous queued values) and whether one of them is deliverable.
    /// With work waiting, `credit` stops at the first deliverable value:
    /// that many turns of every other ring stand between it and its
    /// delivery.
    pub fn backlog(&self) -> impl Iterator<Item = (RingId, u64, bool)> + '_ {
        self.streams.iter().map(|(ring, s)| {
            let mut credit = s.consumed_this_turn;
            let mut next = s.next;
            for (inst, value, _) in &s.queue {
                if *inst != next {
                    break; // gap: nothing beyond it is consumable yet
                }
                next = inst.plus(value.instance_span());
                credit += value.instance_span();
                if value.is_deliverable() {
                    return (*ring, credit, true);
                }
            }
            (*ring, credit, false)
        })
    }

    /// The checkpoint tuple `k_p`: per ring, the next unconsumed instance.
    ///
    /// Within a partition, tuples taken along the delivery trajectory are
    /// totally ordered (later cuts dominate earlier ones) — the property
    /// the paper derives from Predicate 1 and that trimming/recovery rely
    /// on. (The literal within-tuple inequality of Predicate 1 assumes
    /// exactly `M` instances per turn; a skip token larger than `M` banks
    /// credit across turns, which can put a higher-id ring ahead without
    /// affecting the trajectory order.)
    pub fn checkpoint_tuple(&self) -> CheckpointTuple {
        CheckpointTuple::new(self.streams.iter().map(|(r, s)| (*r, s.next)).collect())
    }

    /// The merge scheduler state beyond the tuple: the current turn index
    /// and each ring's consumed-credit counter. A checkpoint cut mid-round
    /// must capture this, otherwise a recovered replica resumes the
    /// round-robin at a different point and diverges from its peers.
    pub fn scheduler_state(&self) -> (u64, Vec<(RingId, u64)>) {
        (
            self.turn as u64,
            self.streams
                .iter()
                .map(|(r, s)| (*r, s.consumed_this_turn))
                .collect(),
        )
    }

    /// Restores the scheduler state captured by
    /// [`MergeLearner::scheduler_state`].
    pub fn restore_scheduler_state(&mut self, turn: u64, credits: &[(RingId, u64)]) {
        self.turn = (turn as usize) % self.streams.len().max(1);
        for (ring, credit) in credits {
            if let Some(s) = self.streams.get_mut(ring) {
                s.consumed_this_turn = *credit;
            }
        }
    }

    /// Repositions every stream at the instances recorded in `tuple`
    /// (installing a checkpoint during recovery). Queued decisions below
    /// the new positions are discarded. The caller must also restore the
    /// scheduler state ([`MergeLearner::restore_scheduler_state`]) for
    /// checkpoints cut mid-round.
    pub fn restore(&mut self, tuple: &CheckpointTuple) {
        for (ring, s) in self.streams.iter_mut() {
            if let Some(inst) = tuple.get(*ring) {
                s.next = inst;
                while let Some(&(i, ref v, _)) = s.queue.front() {
                    if i.plus(v.instance_span()) <= inst {
                        s.queue.pop_front();
                    } else {
                        break;
                    }
                }
                s.consumed_this_turn = 0;
            }
        }
        self.turn = 0;
    }

    /// The next instance the merge needs from `ring` (recovery asks
    /// acceptors to retransmit from here).
    pub fn next_needed(&self, ring: RingId) -> Option<InstanceId> {
        self.streams.get(&ring).map(|s| s.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use common::ids::NodeId;
    use common::value::ValueKind;

    fn app(ring: u16, seq: u64) -> Value {
        Value::app(
            NodeId::new(u32::from(ring)),
            seq,
            Bytes::from(format!("r{ring}-{seq}")),
        )
    }

    fn skip(n: u32, seq: u64) -> Value {
        Value {
            id: common::value::ValueId::new(NodeId::new(99), seq),
            kind: ValueKind::Skip(n),
        }
    }

    fn r(x: u16) -> RingId {
        RingId::new(x)
    }

    fn i(x: u64) -> InstanceId {
        InstanceId::new(x)
    }

    #[test]
    fn single_ring_passthrough() {
        let mut m = MergeLearner::new(&[r(0)], 1);
        m.push(r(0), i(0), app(0, 0));
        m.push(r(0), i(1), app(0, 1));
        assert_eq!(m.pop().unwrap().value, app(0, 0));
        assert_eq!(m.pop().unwrap().value, app(0, 1));
        assert!(m.pop().is_none());
    }

    #[test]
    fn round_robin_in_ring_id_order() {
        let mut m = MergeLearner::new(&[r(1), r(0)], 1);
        // Push out of ring order; delivery must interleave r0, r1, r0, r1.
        m.push(r(1), i(0), app(1, 0));
        m.push(r(1), i(1), app(1, 1));
        m.push(r(0), i(0), app(0, 0));
        m.push(r(0), i(1), app(0, 1));
        let order: Vec<RingId> = std::iter::from_fn(|| m.pop()).map(|d| d.ring).collect();
        assert_eq!(order, vec![r(0), r(1), r(0), r(1)]);
    }

    #[test]
    fn m_instances_per_turn() {
        let mut m = MergeLearner::new(&[r(0), r(1)], 2);
        for k in 0..4 {
            m.push(r(0), i(k), app(0, k));
            m.push(r(1), i(k), app(1, k));
        }
        let order: Vec<(RingId, u64)> = std::iter::from_fn(|| m.pop())
            .map(|d| (d.ring, d.inst.raw()))
            .collect();
        assert_eq!(
            order,
            vec![
                (r(0), 0),
                (r(0), 1),
                (r(1), 0),
                (r(1), 1),
                (r(0), 2),
                (r(0), 3),
                (r(1), 2),
                (r(1), 3),
            ]
        );
    }

    #[test]
    fn blocks_on_slow_ring_until_skip_arrives() {
        let mut m = MergeLearner::new(&[r(0), r(1)], 1);
        m.push(r(0), i(0), app(0, 0));
        m.push(r(0), i(1), app(0, 1));
        assert_eq!(m.pop().unwrap().ring, r(0));
        // Ring 1 has nothing: the merge stalls even though ring 0 has more
        // — replicas "deliver messages at the speed of the slowest group".
        assert!(m.pop().is_none());
        // A skip standing for 5 instances banks credit for 5 ring-1 turns.
        m.push(r(1), i(0), skip(5, 0));
        assert_eq!(m.pop().unwrap().value, app(0, 1));
        // Ring 1 still has 4 turns of credit; ring 0 is now the blocker.
        assert!(m.pop().is_none());
        m.push(r(0), i(2), app(0, 2));
        assert_eq!(m.pop().unwrap().value, app(0, 2));
    }

    #[test]
    fn skip_covers_multiple_turns() {
        let mut m = MergeLearner::new(&[r(0), r(1)], 1);
        for k in 0..3 {
            m.push(r(0), i(k), app(0, k));
        }
        m.push(r(1), i(0), skip(3, 0));
        let delivered: Vec<(RingId, u64)> = std::iter::from_fn(|| m.pop())
            .map(|d| (d.ring, d.inst.raw()))
            .collect();
        // All three ring-0 messages deliver; ring 1's three turns are
        // covered by the single skip token.
        assert_eq!(delivered, vec![(r(0), 0), (r(0), 1), (r(0), 2)]);
    }

    #[test]
    fn gap_blocks_until_filled() {
        // A learner recovering from a checkpoint at instance 0 sees new
        // decisions starting at 1: the merge must stall until instance 0
        // is retransmitted through the ring learner.
        let mut m = MergeLearner::new(&[r(0)], 1);
        m.push(r(0), i(1), app(0, 1)); // instance 0 missing
        assert!(m.pop().is_none());
        // The retransmission feeds the ring learner, which re-delivers in
        // order; the merge is repositioned via restore.
        let t = CheckpointTuple::new(vec![(r(0), i(1))]);
        m.restore(&t);
        assert_eq!(m.pop().unwrap().inst, i(1));
    }

    #[test]
    fn stale_pushes_are_ignored() {
        let mut m = MergeLearner::new(&[r(0)], 1);
        m.push(r(0), i(0), app(0, 0));
        assert!(m.pop().is_some());
        m.push(r(0), i(0), app(0, 0)); // replayed by recovery
        assert!(m.pop().is_none());
    }

    #[test]
    fn checkpoint_tuple_and_restore() {
        let mut m = MergeLearner::new(&[r(0), r(2)], 1);
        m.push(r(0), i(0), app(0, 0));
        m.push(r(2), i(0), app(2, 0));
        m.push(r(0), i(1), app(0, 1));
        assert!(m.pop().is_some()); // r0 i0
        assert!(m.pop().is_some()); // r2 i0
        let t = m.checkpoint_tuple();
        assert_eq!(t.get(r(0)), Some(i(1)));
        assert_eq!(t.get(r(2)), Some(i(1)));

        // Predicate 1: ascending ring ids have non-increasing positions.
        let entries: Vec<_> = t.entries().collect();
        for w in entries.windows(2) {
            assert!(w[0].1 >= w[1].1, "Predicate 1 violated: {t}");
        }

        let mut fresh = MergeLearner::new(&[r(0), r(2)], 1);
        fresh.restore(&t);
        assert_eq!(fresh.next_needed(r(0)), Some(i(1)));
        fresh.push(r(0), i(1), app(0, 1));
        fresh.push(r(2), i(1), app(2, 1));
        assert_eq!(
            fresh.pop().unwrap(),
            MulticastDelivery {
                ring: r(0),
                inst: i(1),
                value: app(0, 1),
                decided: SimTime::ZERO,
            }
        );
    }

    #[test]
    fn unsubscribed_ring_pushes_are_dropped() {
        let mut m = MergeLearner::new(&[r(0)], 1);
        m.push(r(7), i(0), app(7, 0));
        assert!(m.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "at least one ring")]
    fn empty_subscription_panics() {
        let _ = MergeLearner::new(&[], 1);
    }

    #[test]
    fn subscribe_keeps_current_turn_and_positions_new_ring() {
        let mut m = MergeLearner::new(&[r(0), r(2)], 1);
        m.push(r(0), i(0), app(0, 0));
        m.push(r(2), i(0), app(2, 0));
        assert_eq!(m.pop().unwrap().ring, r(0));
        // The scheduler is still parked on r0 (its turn completes lazily
        // on the next pop). Subscribing r1 keeps that anchor, so r1 —
        // inserted right after r0 — takes the next turn, then r2.
        m.subscribe(r(1), i(5));
        assert_eq!(m.rings(), vec![r(0), r(1), r(2)]);
        assert_eq!(m.next_needed(r(1)), Some(i(5)));
        m.push(r(0), i(1), app(0, 1));
        m.push(r(1), i(5), app(1, 5));
        m.push(r(2), i(1), app(2, 1));
        let order: Vec<(RingId, u64)> = std::iter::from_fn(|| m.pop())
            .map(|d| (d.ring, d.inst.raw()))
            .collect();
        assert_eq!(order, vec![(r(1), 5), (r(2), 0), (r(0), 1)]);
    }

    #[test]
    fn unsubscribe_preserves_other_rings_credit() {
        let mut m = MergeLearner::new(&[r(0), r(1), r(2)], 1);
        // Bank 4 turns of credit on r2 via one skip token.
        m.push(r(0), i(0), app(0, 0));
        m.push(r(1), i(0), app(1, 0));
        m.push(r(2), i(0), skip(5, 0));
        for _ in 0..2 {
            assert!(m.pop().is_some());
        }
        assert!(m.pop().is_none()); // r2 credit consumed one turn; parked on r0
        assert!(m.unsubscribe(r(1)));
        assert_eq!(m.rings(), vec![r(0), r(2)]);
        // r2's banked credit survives the removal of r1: two more r0
        // messages flow without r2 producing anything.
        m.push(r(0), i(1), app(0, 1));
        m.push(r(0), i(2), app(0, 2));
        assert_eq!(m.pop().unwrap().value, app(0, 1));
        assert_eq!(m.pop().unwrap().value, app(0, 2));
    }

    #[test]
    fn unsubscribe_current_turn_passes_to_next_ring() {
        let mut m = MergeLearner::new(&[r(0), r(1)], 1);
        m.push(r(0), i(0), app(0, 0));
        assert_eq!(m.pop().unwrap().ring, r(0));
        // Parked on r1. Removing r1 hands the turn back to r0.
        assert!(m.unsubscribe(r(1)));
        m.push(r(0), i(1), app(0, 1));
        assert_eq!(m.pop().unwrap().value, app(0, 1));
    }

    #[test]
    fn cannot_unsubscribe_last_ring() {
        let mut m = MergeLearner::new(&[r(0)], 1);
        assert!(!m.unsubscribe(r(0)));
        assert!(!m.unsubscribe(r(9)));
        assert_eq!(m.rings(), vec![r(0)]);
    }

    #[test]
    fn per_ring_skip_and_lag_breakdown() {
        let mut m = MergeLearner::new(&[r(0), r(1)], 1);
        m.push(r(0), i(0), app(0, 0));
        m.push(r(1), i(0), skip(1, 0));
        m.push(r(1), i(1), skip(1, 1));
        m.push(r(0), i(1), app(0, 1));
        while m.pop().is_some() {}
        assert_eq!(m.skips_consumed(), 2);
        assert_eq!(m.skips_by_ring(), vec![(r(1), 2)]);
        m.push(r(0), i(2), app(0, 2));
        let lag = m.lag_by_ring();
        assert_eq!(lag, vec![(r(0), 1), (r(1), 0)]);
    }

    #[test]
    fn backlog_is_what_each_ring_has_waiting_for_the_merge() {
        let mut m = MergeLearner::new(&[r(0), r(1)], 1);
        // Ring 1 runs ahead on skip credit alone, then holds a command.
        m.push(r(1), i(0), skip(5, 0));
        m.push(r(1), i(5), skip(3, 1));
        assert!(m.pop().is_none());
        assert_eq!(m.starved_ring(), Some(r(0)));
        let all: Vec<_> = m.backlog().collect();
        assert_eq!(all, vec![(r(0), 0, false), (r(1), 8, false)]);
        m.push(r(1), i(8), app(1, 0));
        m.push(r(1), i(9), skip(7, 2));
        let all: Vec<_> = m.backlog().collect();
        assert_eq!(
            all,
            vec![(r(0), 0, false), (r(1), 9, true)],
            "credit stops at the first deliverable value"
        );
        // Exactly that many instances of ring 0 let it through.
        m.push(r(0), i(0), skip(8, 3));
        assert!(m.pop().is_none());
        m.push(r(0), i(8), skip(1, 4));
        assert_eq!(m.pop().unwrap().value, app(1, 0));
        // Nothing beyond a gap is consumable.
        m.push(r(0), i(20), skip(4, 5));
        let ring0 = m.backlog().next().unwrap();
        assert_eq!(ring0, (r(0), 0, false));
    }

    #[test]
    fn starved_ring_names_the_blocker() {
        let mut m = MergeLearner::new(&[r(0), r(1)], 1);
        assert_eq!(m.starved_ring(), None); // fully idle — nothing held up
        m.push(r(0), i(0), app(0, 0));
        assert_eq!(m.pop().unwrap().ring, r(0));
        m.push(r(0), i(1), app(0, 1));
        assert!(m.pop().is_none());
        // r0 has work buffered but r1's turn is unsatisfied and empty.
        assert_eq!(m.starved_ring(), Some(r(1)));
        m.push(r(1), i(0), skip(1, 0));
        assert!(m.pop().is_some());
        assert_eq!(m.starved_ring(), None);
    }
}
