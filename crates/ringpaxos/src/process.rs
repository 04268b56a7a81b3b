//! [`simnet::Process`] adapter for a single-ring deployment.
//!
//! Hosts exactly one [`RingNode`] per simulated node and bridges messages,
//! timers and deliveries. Multi-ring hosts (services, Multi-Ring Paxos
//! learners) live in the `multiring` crate; this adapter serves the
//! atomic-broadcast-only experiments (Figure 3) and protocol tests.

use std::cell::RefCell;
use std::rc::Rc;

use common::ids::{InstanceId, NodeId, RingId};
use common::msg::Msg;
use common::time::SimTime;
use common::value::Value;
use coord::Registry;
use simnet::{Ctx, Process, Timer};

use crate::node::{Output, RingNode};
use crate::options::RingOptions;
use crate::timer::RingTimer;

/// Deliveries observed by one node's learner, shared with the harness.
pub type DeliveryLog = Rc<RefCell<Vec<(InstanceId, Value, SimTime)>>>;

/// A simulated process participating in one ring.
pub struct RingProcess {
    node: RingNode,
    deliveries: DeliveryLog,
    out: Output,
}

impl RingProcess {
    /// Builds the process for `me` in `ring`.
    ///
    /// # Panics
    ///
    /// Panics if the ring is not registered or `me` is not a member —
    /// a harness bug, not a runtime condition.
    pub fn new(me: NodeId, ring: RingId, registry: Registry, opts: RingOptions) -> Self {
        RingProcess {
            node: RingNode::new(me, ring, registry, opts).expect("valid ring config"),
            deliveries: Rc::new(RefCell::new(Vec::new())),
            out: Output::new(),
        }
    }

    /// Handle to the delivery log (clone before adding to the sim).
    pub fn deliveries(&self) -> DeliveryLog {
        self.deliveries.clone()
    }

    /// Mutable access to the protocol state machine (test hooks).
    pub fn node_mut(&mut self) -> &mut RingNode {
        &mut self.node
    }

    /// Shared access to the protocol state machine.
    pub fn node(&self) -> &RingNode {
        &self.node
    }

    /// Proposes `value` from inside the next handler turn. Intended for
    /// harness processes driving load; client processes send protocol-v2
    /// requests ([`common::msg::Msg::Client`]) to a replica's host instead.
    pub fn propose(&mut self, value: Value, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.node.propose(value, now, &mut self.out);
        self.drain(ctx);
    }

    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        let ring = self.node.ring();
        for (to, msg) in self.out.sends.drain(..) {
            ctx.send(to, Msg::Ring(ring, msg));
        }
        let now = ctx.now();
        if !self.out.decided.is_empty() {
            let mut log = self.deliveries.borrow_mut();
            for (inst, value) in self.out.decided.drain(..) {
                log.push((inst, value, now));
            }
        }
        for (after, t) in self.out.timers.drain(..) {
            let (a, b) = t.to_words();
            ctx.schedule(after, Timer::with2(TIMER_RING, a, b));
        }
    }
}

/// Timer kind used by [`RingProcess`] (hosts multiplexing several
/// components must use distinct kinds).
pub const TIMER_RING: u32 = 1;

impl Process for RingProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.node.start(now, &mut self.out);
        self.drain(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        if let Msg::Ring(ring, m) = msg {
            if ring == self.node.ring() {
                let now = ctx.now();
                self.node.on_msg(from, m, now, &mut self.out);
                self.drain(ctx);
            }
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        if timer.kind != TIMER_RING {
            return;
        }
        if let Some(t) = RingTimer::from_words(timer.a, timer.b) {
            let now = ctx.now();
            self.node.on_timer(t, now, &mut self.out);
            self.drain(ctx);
        }
    }

    fn on_crash(&mut self, now: SimTime) {
        self.node.on_crash(now);
        self.deliveries.borrow_mut().clear();
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let _ = self.node.on_restart(now, &mut self.out);
        self.drain(ctx);
    }
}
