//! The decision path on a WAN, in simulated time: on the EC2 2014 matrix
//! with the `geo_wan` ring layout, the coordinator must learn the outcome
//! one link delay after the majority point, not a lap of the ring later.

mod ring_process;

use std::time::Duration;

use bytes::Bytes;
use common::geo::{Region, WanProfile};
use common::ids::{NodeId, RingId};
use common::msg::{Msg, RingMsg};
use common::process::{Ctx, Process, Timer};
use common::value::{Value, ValueId, ValueKind};
use common::SimTime;
use coord::{Registry, RingConfig};
use ring_process::{DeliveryLog, RingProcess};
use ringpaxos::options::RingOptions;
use simnet::{CpuModel, Sim, Topology};
use storage::StorageMode;

const RING: RingId = RingId::new(0);
const COORDINATOR: NodeId = NodeId::new(0);

/// A client that sends the coordinator one proposal.
struct OneProposal;

impl Process for OneProposal {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let value = Value {
            id: ValueId::new(ctx.me(), 1),
            kind: ValueKind::App(Bytes::from_static(b"multi-partition command")),
        };
        ctx.send(
            COORDINATOR,
            Msg::Ring(RING, RingMsg::Proposal { value, ttl: 5 }),
        );
    }

    fn on_message(&mut self, _: NodeId, _: Msg, _: &mut Ctx<'_>) {}

    fn on_timer(&mut self, _: Timer, _: &mut Ctx<'_>) {}
}

#[test]
fn coordinator_decides_one_link_delay_after_the_majority_point() {
    // Global ring [0,1 | 2,3 | 4,5] = eu-west / us-east / us-west, node 0
    // coordinating, everyone an acceptor: the fourth vote is node 3's.
    let profile = WanProfile::ec2_2014();
    let mut topo = Topology::from_profile(&profile);
    topo.set_jitter_pct(0);
    let mut sim = Sim::with_topology(1, topo);
    let registry = Registry::new();
    let members: Vec<NodeId> = (0..6).map(NodeId::new).collect();
    registry
        .register_ring(RingConfig::new(RING, members.clone(), members.clone()).unwrap())
        .unwrap();
    let opts = RingOptions {
        storage: StorageMode::InMemory,
        ..RingOptions::crash_free()
    };
    let regions = Region::PAPER_THREE;
    let mut logs: Vec<DeliveryLog> = Vec::new();
    for m in &members {
        let p = RingProcess::new(*m, RING, registry.clone(), opts.clone());
        logs.push(p.deliveries());
        let site = Topology::site_of_region(regions[m.raw() as usize / 2]);
        sim.add_node_with_cpu(site, p, CpuModel::free());
    }
    let client_site = Topology::site_of_region(Region::UsEast1);
    sim.add_node_with_cpu(client_site, OneProposal, CpuModel::free());
    sim.run_until(SimTime::from_secs(2));

    let decided_at = |n: usize| -> SimTime {
        let log = logs[n].borrow();
        let (_, _, at) = log
            .iter()
            .find(|(_, v, _)| v.is_deliverable())
            .unwrap_or_else(|| panic!("node {n} never decided"));
        *at
    };
    let at_majority = decided_at(3);
    let direct = profile.rtt(Region::UsEast1, Region::EuWest1) / 2;
    let bound = at_majority + direct + Duration::from_millis(5);
    assert!(
        decided_at(0) <= bound,
        "coordinator decided at {}, majority at {at_majority}, direct link {direct:?}",
        decided_at(0)
    );
    // Its region-mate is upstream of the majority point too.
    assert!(
        decided_at(1) <= bound,
        "node 1 decided at {}",
        decided_at(1)
    );
    // Downstream still learns from the passing Phase 2.
    let to_us_west = profile.rtt(Region::UsEast1, Region::UsWest2) / 2;
    assert!(decided_at(4) <= at_majority + to_us_west + Duration::from_millis(5));
}
