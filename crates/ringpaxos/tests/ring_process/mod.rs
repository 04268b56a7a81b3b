//! A [`Process`] hosting one [`RingNode`] for the protocol tests.
//! It bridges ring messages, timers, deliveries and coordination asks
//! (sent to [`COORD_NODE`]; each test adds a
//! [`simnet::CoordProcess`]). Deployments drive ring nodes through
//! `multiring::MultiRingHost`.

use std::cell::RefCell;
use std::rc::Rc;

use common::ids::{InstanceId, NodeId, RingId};
use common::msg::Msg;
use common::process::{Ctx, Process, Timer};
use common::time::SimTime;
use common::value::Value;
use common::wire::coord::COORD_NODE;
use common::wire::coord::{answered, ask};
use coord::{Registry, RingConfig};
use ringpaxos::{Output, RingNode, RingOptions, RingTimer};

/// Deliveries observed by one node's learner, shared with the test.
pub type DeliveryLog = Rc<RefCell<Vec<(InstanceId, Value, SimTime)>>>;

/// A simulated process participating in one ring.
pub struct RingProcess {
    node: RingNode,
    deliveries: DeliveryLog,
    out: Output,
    /// Sequence number of the last coordination ask.
    asked: u64,
}

impl RingProcess {
    /// Builds the process for `me` in `ring`.
    pub fn new(me: NodeId, ring: RingId, registry: Registry, opts: RingOptions) -> Self {
        RingProcess {
            node: RingNode::new(me, ring, registry, opts).expect("valid ring config"),
            deliveries: Rc::new(RefCell::new(Vec::new())),
            out: Output::new(),
            asked: 0,
        }
    }

    /// Handle to the delivery log (clone before adding to the sim).
    pub fn deliveries(&self) -> DeliveryLog {
        self.deliveries.clone()
    }

    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        let ring = self.node.ring();
        for (to, msg) in self.out.sends.drain(..) {
            ctx.send(to, Msg::Ring(ring, msg));
        }
        for op in self.out.asks.drain(..) {
            self.asked += 1;
            ctx.send(COORD_NODE, ask(self.asked, &op));
        }
        let now = ctx.now();
        let mut log = self.deliveries.borrow_mut();
        log.extend(self.out.decided.drain(..).map(|(inst, v)| (inst, v, now)));
        for (after, t) in self.out.timers.drain(..) {
            let (a, b) = t.to_words();
            ctx.schedule(after, Timer::with2(0, a, b));
        }
    }
}

impl Process for RingProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.node.start(ctx.now(), &mut self.out);
        self.drain(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        match msg {
            Msg::Ring(_, m) => self.node.on_msg(from, m, ctx.now(), &mut self.out),
            Msg::Reply(reply) => {
                let cfg = answered(&reply).and_then(|(_, result)| result.ok());
                if let Some(cfg) = cfg.as_ref().and_then(RingConfig::from_answer) {
                    self.node.on_config(cfg, ctx.now(), &mut self.out);
                }
            }
            _ => return,
        }
        self.drain(ctx);
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        if let Some(t) = RingTimer::from_words(timer.a, timer.b) {
            self.node.on_timer(t, ctx.now(), &mut self.out);
            self.drain(ctx);
        }
    }

    fn on_crash(&mut self, now: SimTime) {
        self.node.on_crash(now);
        self.deliveries.borrow_mut().clear();
    }
}
