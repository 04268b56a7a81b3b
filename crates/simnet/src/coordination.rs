//! Coordination as a message: ring and configuration management live in
//! the coordination service (the paper's Zookeeper, §7.1), reached over
//! the same network as the rings. A process asks it with a session-less
//! protocol-v2 request on [`COORD_RING`] to the reserved node
//! [`COORD_NODE`] ([`ask`]) and learns the answer from the response
//! ([`answered`]) — the frames an `amcoordd` replica reads and writes. A
//! driver routes an ask like any other send: the live node loop to its
//! registry or its link, the simulator to a [`CoordProcess`], which sees
//! latency, blocked links, partitions and crashes like any process.

use common::error::Result;
use common::ids::{NodeId, RequestId};
use common::msg::Msg;
use common::value::NO_SESSION;
use common::wire::client::{frame_ok, parse_reply, ClientMsg, ClientReply, ST_OK};
use common::wire::coord::{decode_reply, encode_reply, CoordOk, CoordOp, CoordResult};
use common::wire::Wire;
use coord::{Registry, COORD_RING};

use crate::process::{Ctx, Process, Timer};
use crate::sim::Sim;
use crate::topology::SiteId;

/// The node id every coordination ask is addressed to. Drivers map it
/// onto wherever coordination lives.
pub const COORD_NODE: NodeId = NodeId::new(u32::MAX);

/// The request asking coordination for `op`, correlated by `seq`.
pub fn ask(seq: u64, op: &CoordOp) -> Msg {
    Msg::Client(ClientMsg::RequestV2 {
        session: NO_SESSION,
        seq: RequestId::new(seq),
        ack: 0,
        group: COORD_RING,
        cmd: op.to_bytes(),
    })
}

/// The sequence number and operation of an ask; `None` for any other
/// message.
pub fn asked(msg: &Msg) -> Option<(u64, CoordOp)> {
    match msg {
        Msg::Client(ClientMsg::RequestV2 {
            session: NO_SESSION,
            seq,
            group: COORD_RING,
            cmd,
            ..
        }) => Some((seq.raw(), CoordOp::decode(&mut cmd.clone()).ok()?)),
        _ => None,
    }
}

/// The response answering ask `seq` with `result`, framed as an
/// `amcoordd` replica frames its session-less replies.
pub fn answer(seq: u64, from: NodeId, result: Result<CoordOk>) -> Msg {
    let result: CoordResult = result.map_err(|e| e.to_string());
    Msg::Reply(ClientReply::ResponseV2 {
        session: NO_SESSION,
        seq: RequestId::new(seq),
        from_replica: from,
        payload: frame_ok(&encode_reply(&result, &[])),
    })
}

/// The sequence number and result of an answer to an ask; `None` for
/// any other reply.
pub fn answered(reply: &ClientReply) -> Option<(u64, CoordResult)> {
    match reply {
        ClientReply::ResponseV2 {
            session: NO_SESSION,
            seq,
            payload,
            ..
        } => match parse_reply(payload)? {
            (ST_OK, body) => Some((seq.raw(), decode_reply(&body).ok()?.0)),
            _ => None,
        },
        _ => None,
    }
}

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
        if let Some((seq, op)) = asked(&msg) {
            let me = ctx.me();
            ctx.send(from, answer(seq, me, self.registry.call(op)));
        }
    }

    fn on_timer(&mut self, _: Timer, _: &mut Ctx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::ids::RingId;
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
