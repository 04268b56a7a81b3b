//! The coordination service as one more simulated process.
//!
//! Ring and configuration management live in the coordination service
//! (the paper's Zookeeper, §7.1), reached over the same network as the
//! rings: a process asks it by message ([`common::wire::coord::ask`],
//! addressed to [`COORD_NODE`]), and the simulator routes the ask to a
//! [`CoordProcess`], which sees latency, blocked links, partitions and
//! crashes like any process and answers with [`Registry::answer`].

use common::ids::NodeId;
use common::msg::Msg;
use common::process::{Ctx, Process, Timer};
use common::wire::coord::COORD_NODE;
use coord::Registry;

use crate::sim::Sim;
use crate::topology::SiteId;

/// The coordination service as one simulated process: it applies every
/// ask it receives to `registry` and answers the asker.
pub struct CoordProcess {
    registry: Registry,
}

impl CoordProcess {
    /// Adds a coordination process over `registry` to `sim` at `site`
    /// and routes [`COORD_NODE`] to it. Returns its node id, which fault
    /// injection (`block_link`, `partition`, crashes) names.
    pub fn add_to(sim: &mut Sim, site: SiteId, registry: &Registry) -> NodeId {
        let registry = registry.clone();
        let id = sim.add_node(site, CoordProcess { registry });
        sim.alias(COORD_NODE, id);
        id
    }
}

impl Process for CoordProcess {
    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        if let Some(reply) = self.registry.answer(&msg, ctx.me()) {
            ctx.send(from, reply);
        }
    }

    fn on_timer(&mut self, _: Timer, _: &mut Ctx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::ids::RingId;
    use common::wire::coord::{answered, ask, CoordOk, CoordOp, CoordResult};
    use common::SimTime;
    use coord::RingConfig;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Asks for ring 0 at start and keeps what comes back.
    struct Asker(Rc<RefCell<Vec<(u64, CoordResult)>>>);

    impl Process for Asker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let op = CoordOp::GetRing {
                ring: RingId::new(0),
            };
            ctx.send(COORD_NODE, ask(7, &op));
        }

        fn on_message(&mut self, _: NodeId, msg: Msg, _: &mut Ctx<'_>) {
            if let Msg::Reply(reply) = msg {
                self.0.borrow_mut().extend(answered(&reply));
            }
        }

        fn on_timer(&mut self, _: Timer, _: &mut Ctx<'_>) {}
    }

    #[test]
    fn an_ask_crosses_the_network_and_a_cut_link_leaves_it_unanswered() {
        let registry = Registry::new();
        let members = vec![NodeId::new(0)];
        let cfg = RingConfig::new(RingId::new(0), members.clone(), members).unwrap();
        registry.register_ring(cfg.clone()).unwrap();
        let run = |cut: bool| {
            let mut sim = Sim::new(1);
            let got = Rc::new(RefCell::new(Vec::new()));
            let asker = sim.add_node(0, Asker(got.clone()));
            let coord = CoordProcess::add_to(&mut sim, 0, &registry);
            if cut {
                sim.block_link(asker, coord);
            }
            sim.run_until(SimTime::from_secs(1));
            let got = got.borrow().clone();
            got
        };
        let got = run(false);
        assert_eq!(got, [(7, Ok(CoordOk::Ring(Some(cfg.to_wire()))))]);
        assert!(run(true).is_empty(), "a blocked link carries no ask");
    }
}
