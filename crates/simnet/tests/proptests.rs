//! Property tests for the simulator's foundational guarantees:
//! determinism under a fixed seed and FIFO delivery on every link.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use common::ids::NodeId;
use common::msg::Msg;
use common::process::{Ctx, Process, Timer};
use common::SimTime;
use proptest::prelude::*;
use simnet::{CpuModel, Sim, Topology};

/// Sends a scripted schedule of (delay, target, tag) messages.
struct Scripted {
    script: Vec<(u64, u32, u16)>,
    cursor: usize,
}

const TIMER_NEXT: u32 = 1;

impl Process for Scripted {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(Duration::from_micros(1), Timer::of_kind(TIMER_NEXT));
    }

    fn on_message(&mut self, _: NodeId, _: Msg, _: &mut Ctx<'_>) {}

    fn on_timer(&mut self, _: Timer, ctx: &mut Ctx<'_>) {
        if let Some((delay_us, target, tag)) = self.script.get(self.cursor).copied() {
            self.cursor += 1;
            ctx.send(
                NodeId::new(target),
                Msg::Custom(tag, Bytes::from_static(b"p")),
            );
            ctx.schedule(
                Duration::from_micros(delay_us % 500 + 1),
                Timer::of_kind(TIMER_NEXT),
            );
        }
    }
}

/// Records every (from, tag, time) it sees.
struct Recorder {
    seen: Rc<RefCell<Vec<(NodeId, u16, SimTime)>>>,
}

impl Process for Recorder {
    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        if let Msg::Custom(tag, _) = msg {
            self.seen.borrow_mut().push((from, tag, ctx.now()));
        }
    }

    fn on_timer(&mut self, _: Timer, _: &mut Ctx<'_>) {}
}

fn run(seed: u64, jitter: u32, script: &[(u64, u32, u16)]) -> Vec<(NodeId, u16, SimTime)> {
    let mut topo = Topology::lan();
    topo.set_jitter_pct(jitter);
    let mut sim = Sim::with_topology(seed, topo);
    let seen = Rc::new(RefCell::new(Vec::new()));
    // Node 0: recorder. Nodes 1-2: senders splitting the script.
    sim.add_node_with_cpu(0, Recorder { seen: seen.clone() }, CpuModel::free());
    let (a, b): (Vec<_>, Vec<_>) = script.iter().partition(|(d, _, _)| d % 2 == 0);
    sim.add_node_with_cpu(
        0,
        Scripted {
            script: a,
            cursor: 0,
        },
        CpuModel::free(),
    );
    sim.add_node_with_cpu(
        0,
        Scripted {
            script: b,
            cursor: 0,
        },
        CpuModel::free(),
    );
    sim.run_until(SimTime::from_secs(2));
    let result = seen.borrow().clone();
    result
}

proptest! {
    /// Identical seeds and scripts replay identically, bit for bit.
    #[test]
    fn simulation_is_deterministic(
        seed in any::<u64>(),
        jitter in 0u32..50,
        script in proptest::collection::vec((1u64..1000, Just(0u32), any::<u16>()), 1..50),
    ) {
        let a = run(seed, jitter, &script);
        let b = run(seed, jitter, &script);
        prop_assert_eq!(a, b);
    }

    /// Per-sender FIFO: messages from one sender arrive in send order at
    /// the recorder, regardless of jitter (TCP link semantics).
    #[test]
    fn links_are_fifo_under_jitter(
        seed in any::<u64>(),
        jitter in 0u32..50,
        script in proptest::collection::vec((1u64..200, Just(0u32), any::<u16>()), 2..80),
    ) {
        let seen = run(seed, jitter, &script);
        // Group by sender; arrival order must match the sender's script
        // order (tags in script order for that sender).
        for sender in [NodeId::new(1), NodeId::new(2)] {
            let got: Vec<u16> = seen
                .iter()
                .filter(|(f, _, _)| *f == sender)
                .map(|(_, tag, _)| *tag)
                .collect();
            let parity = if sender == NodeId::new(1) { 0 } else { 1 };
            let expected: Vec<u16> = script
                .iter()
                .filter(|(d, _, _)| d % 2 == parity)
                .map(|(_, _, t)| *t)
                .take(got.len())
                .collect();
            prop_assert_eq!(got, expected, "sender {} reordered", sender);
        }
    }

    /// Arrival times are monotone per link and never precede the send.
    #[test]
    fn arrivals_are_causal(
        seed in any::<u64>(),
        script in proptest::collection::vec((1u64..200, Just(0u32), any::<u16>()), 1..50),
    ) {
        let seen = run(seed, 30, &script);
        for sender in [NodeId::new(1), NodeId::new(2)] {
            let times: Vec<SimTime> = seen
                .iter()
                .filter(|(f, _, _)| *f == sender)
                .map(|(_, _, t)| *t)
                .collect();
            for w in times.windows(2) {
                prop_assert!(w[0] <= w[1], "link time went backwards");
            }
        }
    }
}
