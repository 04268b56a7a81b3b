//! The sans-IO contract: what a protocol state machine is, and what a
//! driver owes it.
//!
//! Every participant is a deterministic state machine implementing
//! [`Process`]: it reacts to messages and [`Timer`]s and emits sends and
//! timer requests through a [`Ctx`]. A driver owns one [`Effects`]
//! buffer, lends a `Ctx` out of it for each callback, then drains what
//! the callback left there, and keeps its pending timers on a
//! [`TimerHeap`]. Two drivers run the same state machines:
//!
//! * the discrete-event simulator (`simnet::Sim`), which turns sends into
//!   deliveries at topology-derived times and keeps every event, timers
//!   included, on one heap over virtual time;
//! * the live node loop (`liverun`), which writes sends onto TCP
//!   connections and arms timers on a heap over wall-clock instants.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ids::NodeId;
use crate::msg::Msg;
use crate::time::SimTime;

/// A timer token delivered back to the process that scheduled it.
///
/// `kind` distinguishes timer purposes within a process (processes define
/// their own constants); `a` and `b` are free payload words (ring ids,
/// instance numbers, generation counters, ...). Keeping the payload inline
/// avoids allocations on the simulator hot path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Timer {
    /// Discriminates timer purposes within one process.
    pub kind: u32,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl Timer {
    /// A timer with no payload.
    pub const fn of_kind(kind: u32) -> Self {
        Timer { kind, a: 0, b: 0 }
    }

    /// A timer with one payload word.
    pub const fn with(kind: u32, a: u64) -> Self {
        Timer { kind, a, b: 0 }
    }

    /// A timer with two payload words.
    pub const fn with2(kind: u32, a: u64, b: u64) -> Self {
        Timer { kind, a, b }
    }
}

/// What callbacks leave for their driver: sends, timer requests, and the
/// one seeded RNG they draw from.
///
/// A driver owns one, lends a [`Ctx`] out of it per callback
/// ([`Effects::ctx`]) and drains it afterwards.
pub struct Effects {
    sends: Vec<(NodeId, Msg)>,
    timers: Vec<(SimTime, Timer)>,
    rng: StdRng,
}

impl Effects {
    /// An empty buffer whose RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Effects {
            sends: Vec::new(),
            timers: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The context for one callback of process `me` at time `now`.
    pub fn ctx(&mut self, now: SimTime, me: NodeId) -> Ctx<'_> {
        Ctx { now, me, fx: self }
    }

    /// The sends not yet drained, in order.
    pub fn sends(&self) -> &[(NodeId, Msg)] {
        &self.sends
    }

    /// Takes the sends, in order.
    pub fn drain_sends(&mut self) -> std::vec::Drain<'_, (NodeId, Msg)> {
        self.sends.drain(..)
    }

    /// Takes the timer requests (absolute times), in order.
    pub fn drain_timers(&mut self) -> std::vec::Drain<'_, (SimTime, Timer)> {
        self.timers.drain(..)
    }

    /// The RNG callbacks draw from, for the driver's own draws.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// Everything a process may do in reaction to an event: read the clock,
/// send messages, schedule timers, draw randomness.
///
/// Lent out of a driver's [`Effects`]; never constructed by protocol code.
pub struct Ctx<'a> {
    now: SimTime,
    me: NodeId,
    fx: &'a mut Effects,
}

impl Ctx<'_> {
    /// The current time: virtual under the simulator, the deployment's
    /// wall clock live.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This process's node id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Sends `msg` to `to`. Links are reliable and FIFO (TCP semantics)
    /// unless faults are injected.
    pub fn send(&mut self, to: NodeId, msg: Msg) {
        self.fx.sends.push((to, msg));
    }

    /// Schedules `timer` to fire `after` from now.
    pub fn schedule(&mut self, after: Duration, timer: Timer) {
        self.fx.timers.push((self.now + after, timer));
    }

    /// Schedules `timer` to fire at absolute time `at` (clamped to now).
    pub fn schedule_at(&mut self, at: SimTime, timer: Timer) {
        self.fx.timers.push((at.max(self.now), timer));
    }

    /// Deterministic randomness (seeded once per driver).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.fx.rng
    }
}

/// A deterministic protocol state machine.
///
/// Implementations must not perform I/O or read wall-clock time: all
/// effects go through [`Ctx`]. This is what lets the same code run under
/// the simulator and the live node loop.
pub trait Process: 'static {
    /// Invoked once when the node starts (after every process was added).
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Invoked for every delivered message.
    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_>);

    /// Invoked when a scheduled timer fires. Timers scheduled before a
    /// crash do not fire while crashed and are discarded.
    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>);

    /// Invoked when the node crashes at time `now`. Volatile state should
    /// be dropped here; stable-storage contents that were durable by
    /// `now` survive (the default keeps everything, which models a
    /// process that is merely disconnected).
    fn on_crash(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Invoked when the node restarts after a crash. The process should
    /// re-initialize from its stable storage and start recovery.
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }
}

struct HeapEntry<K, T> {
    at: K,
    /// Tie-breaker preserving insertion order among equal deadlines.
    seq: u64,
    payload: T,
}

impl<K: Ord, T> PartialEq for HeapEntry<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<K: Ord, T> Eq for HeapEntry<K, T> {}
impl<K: Ord, T> PartialOrd for HeapEntry<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, T> Ord for HeapEntry<K, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (&other.at, other.seq).cmp(&(&self.at, self.seq))
    }
}

/// A min-heap of payloads keyed by time (`SimTime` in the simulator,
/// `Instant` in live loops): the earliest pops first, and equal times pop
/// in insertion order, so a replay pops in the same order.
pub struct TimerHeap<K, T> {
    heap: BinaryHeap<HeapEntry<K, T>>,
    seq: u64,
}

impl<K: Ord, T> Default for TimerHeap<K, T> {
    fn default() -> Self {
        TimerHeap {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<K: Ord + Copy, T> TimerHeap<K, T> {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push_at(&mut self, at: K, payload: T) {
        self.seq += 1;
        self.heap.push(HeapEntry {
            at,
            seq: self.seq,
            payload,
        });
    }

    /// The earliest deadline, if anything is pending.
    pub fn next_deadline(&self) -> Option<K> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the earliest payload with its deadline, due or not.
    pub fn pop(&mut self) -> Option<(K, T)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Pops the earliest payload if its deadline is at or before `now`.
    pub fn pop_due(&mut self, now: K) -> Option<T> {
        match self.next_deadline() {
            Some(at) if at <= now => self.pop().map(|(_, payload)| payload),
            _ => None,
        }
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> TimerHeap<Instant, T> {
    /// How long an event loop may sleep before the next timer is due;
    /// `default` when no timer is pending.
    pub fn sleep_for(&self, default: Duration) -> Duration {
        match self.next_deadline() {
            Some(at) => at.saturating_duration_since(Instant::now()),
            None => default,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_constructors() {
        assert_eq!(
            Timer::of_kind(3),
            Timer {
                kind: 3,
                a: 0,
                b: 0
            }
        );
        assert_eq!(
            Timer::with(1, 9),
            Timer {
                kind: 1,
                a: 9,
                b: 0
            }
        );
        assert_eq!(
            Timer::with2(1, 9, 8),
            Timer {
                kind: 1,
                a: 9,
                b: 8
            }
        );
    }

    #[test]
    fn a_ctx_leaves_its_effects_in_the_buffer() {
        let mut fx = Effects::new(1);
        let (me, peer) = (NodeId::new(1), NodeId::new(2));
        let mut ctx = fx.ctx(SimTime::from_millis(10), me);
        assert_eq!((ctx.now(), ctx.me()), (SimTime::from_millis(10), me));
        ctx.send(peer, Msg::Custom(7, bytes::Bytes::new()));
        ctx.schedule(Duration::from_millis(5), Timer::of_kind(1));
        ctx.schedule_at(SimTime::ZERO, Timer::of_kind(2));
        assert_eq!(fx.sends().len(), 1);
        let sends: Vec<_> = fx.drain_sends().collect();
        assert_eq!(sends[0].0, peer);
        let timers: Vec<_> = fx.drain_timers().collect();
        assert_eq!(
            timers,
            [
                (SimTime::from_millis(15), Timer::of_kind(1)),
                (SimTime::from_millis(10), Timer::of_kind(2)),
            ],
            "an absolute time in the past is clamped to now"
        );
        assert!(fx.sends().is_empty() && fx.drain_timers().next().is_none());
    }

    #[test]
    fn timer_heap_pops_in_deadline_order() {
        let mut heap = TimerHeap::new();
        let now = Instant::now();
        heap.push_at(now + Duration::from_millis(30), 3u32);
        heap.push_at(now + Duration::from_millis(10), 1u32);
        heap.push_at(now + Duration::from_millis(20), 2u32);

        let later = now + Duration::from_millis(25);
        assert_eq!(heap.pop_due(later), Some(1));
        assert_eq!(heap.pop_due(later), Some(2));
        assert_eq!(heap.pop_due(later), None, "30ms timer not yet due");
        assert_eq!(heap.next_deadline(), Some(now + Duration::from_millis(30)));
    }

    #[test]
    fn timer_heap_preserves_insertion_order_on_ties() {
        let mut heap = TimerHeap::new();
        let at = SimTime::from_millis(5);
        for i in 0..10u32 {
            heap.push_at(at, i);
        }
        heap.push_at(SimTime::from_millis(1), 99);
        assert_eq!(heap.pop(), Some((SimTime::from_millis(1), 99)));
        let mut got = Vec::new();
        while let Some(v) = heap.pop_due(at) {
            got.push(v);
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(heap.is_empty());
    }
}
