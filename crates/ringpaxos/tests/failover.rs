//! Timing-driven failover tests: ring members detect failures through
//! heartbeat silence, reconfigure through the coordination service, and the new
//! coordinator re-proposes in-doubt values — all driven by the simulator
//! clock rather than by manual test calls.

mod ring_process;

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use common::ids::{InstanceId, NodeId, RingId};
use common::msg::Msg;
use common::process::{Ctx, Process, Timer};
use common::value::{Value, ValueKind};
use common::SimTime;
use coord::{Registry, RingConfig};
use ring_process::{DeliveryLog, RingProcess};
use ringpaxos::options::RingOptions;
use simnet::{CoordProcess, CpuModel, Sim, Topology};
use storage::{DiskProfile, StorageMode};

/// A load generator that proposes a value every interval through one of
/// the ring members (re-targeting is handled by proposal retries inside
/// the ring nodes themselves, so this stays dumb on purpose).
struct Load {
    target: NodeId,
    interval: Duration,
    sent: Rc<RefCell<u64>>,
    seq: u64,
}

const TIMER_LOAD: u32 = 77;

impl Process for Load {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(self.interval, Timer::of_kind(TIMER_LOAD));
    }

    fn on_message(&mut self, _: NodeId, _: Msg, _: &mut Ctx<'_>) {}

    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        if timer.kind != TIMER_LOAD {
            return;
        }
        ctx.schedule(self.interval, Timer::of_kind(TIMER_LOAD));
        self.seq += 1;
        *self.sent.borrow_mut() += 1;
        // Values are proposed *through* the ring member: send a Proposal
        // ring message directly, as a co-located proposer would.
        ctx.send(
            self.target,
            Msg::Ring(
                RingId::new(0),
                common::msg::RingMsg::Proposal {
                    value: Value {
                        id: common::value::ValueId::new(ctx.me(), self.seq),
                        kind: ValueKind::App(Bytes::from_static(b"load")),
                    },
                    ttl: 4,
                },
            ),
        );
    }
}

fn build(seed: u64) -> (Sim, Registry, Vec<DeliveryLog>, Rc<RefCell<u64>>) {
    let mut topo = Topology::lan();
    topo.set_jitter_pct(1);
    let mut sim = Sim::with_topology(seed, topo);
    let registry = Registry::new();
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    registry
        .register_ring(RingConfig::new(RingId::new(0), members.clone(), members.clone()).unwrap())
        .unwrap();
    let opts = RingOptions {
        storage: StorageMode::Sync(DiskProfile::ssd()),
        heartbeat_interval: Duration::from_millis(20),
        failure_timeout: Duration::from_millis(150),
        proposal_retry: Duration::from_millis(400),
        ..RingOptions::default()
    };
    let mut logs = Vec::new();
    for m in &members {
        let p = RingProcess::new(*m, RingId::new(0), registry.clone(), opts.clone());
        logs.push(p.deliveries());
        sim.add_node_with_cpu(0, p, CpuModel::free());
    }
    let sent = Rc::new(RefCell::new(0u64));
    // Proposals go through member 1 (a non-coordinator), so they survive
    // the coordinator's crash.
    sim.add_node_with_cpu(
        0,
        Load {
            target: NodeId::new(1),
            interval: Duration::from_millis(10),
            sent: sent.clone(),
            seq: 0,
        },
        CpuModel::free(),
    );
    // Failure reports and config reads travel to the coordination
    // service over the simulated network.
    CoordProcess::add_to(&mut sim, 0, &registry);
    (sim, registry, logs, sent)
}

fn app_count(log: &DeliveryLog) -> usize {
    log.borrow()
        .iter()
        .filter(|(_, v, _)| v.is_deliverable())
        .count()
}

#[test]
fn coordinator_crash_heals_via_heartbeats() {
    let (mut sim, registry, logs, _sent) = build(1);

    // Let the ring settle and deliver some values.
    sim.run_until(SimTime::from_secs(1));
    let before = app_count(&logs[1]);
    assert!(before > 50, "pre-crash throughput, got {before}");

    // Kill the coordinator (node 0). Its ring successors stop hearing
    // heartbeats, report the failure, and node 1 takes over.
    sim.schedule_crash(NodeId::new(0), SimTime::from_secs(1));
    sim.run_until(SimTime::from_secs(4));

    let cfg = registry.ring(RingId::new(0)).unwrap();
    assert_eq!(
        cfg.coordinator(),
        NodeId::new(1),
        "next acceptor takes over"
    );
    assert!(!cfg.contains(NodeId::new(0)), "failed member removed");

    let after = app_count(&logs[1]);
    assert!(
        after > before + 50,
        "service must resume after failover: {before} -> {after}"
    );

    // Survivors agree on the delivered app-value stream.
    let s1: Vec<(InstanceId, Value)> = logs[1]
        .borrow()
        .iter()
        .filter(|(_, v, _)| v.is_deliverable())
        .map(|(i, v, _)| (*i, v.clone()))
        .collect();
    let s2: Vec<(InstanceId, Value)> = logs[2]
        .borrow()
        .iter()
        .filter(|(_, v, _)| v.is_deliverable())
        .map(|(i, v, _)| (*i, v.clone()))
        .collect();
    let common_len = s1.len().min(s2.len());
    assert!(common_len > 0);
    assert_eq!(
        &s1[..common_len],
        &s2[..common_len],
        "learners must agree across the failover"
    );
}

#[test]
fn non_coordinator_crash_also_reconfigures() {
    let (mut sim, registry, logs, _sent) = build(2);
    sim.run_until(SimTime::from_secs(1));

    // Kill node 2 (neither coordinator nor the load's proposer).
    sim.schedule_crash(NodeId::new(2), SimTime::from_secs(1));
    sim.run_until(SimTime::from_secs(4));

    let cfg = registry.ring(RingId::new(0)).unwrap();
    assert_eq!(cfg.coordinator(), NodeId::new(0), "coordinator unchanged");
    assert!(!cfg.contains(NodeId::new(2)), "failed member removed");
    assert_eq!(cfg.members().len(), 2);

    // Two survivors = still a majority of the (reduced) acceptor set;
    // delivery continues.
    let d0 = app_count(&logs[0]);
    assert!(d0 > 150, "delivery must continue, got {d0}");
}

#[test]
fn deterministic_across_identical_seeds() {
    let run = |seed| {
        let (mut sim, _, logs, _) = build(seed);
        sim.schedule_crash(NodeId::new(0), SimTime::from_secs(1));
        sim.run_until(SimTime::from_secs(3));
        let history: Vec<_> = logs[1]
            .borrow()
            .iter()
            .map(|(i, v, _)| (*i, v.id))
            .collect();
        history
    };
    assert_eq!(
        run(7),
        run(7),
        "same seed, same history — even with a crash"
    );
}
