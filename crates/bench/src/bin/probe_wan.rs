//! Diagnostic: single ring across three EC2 regions, per-second progress.

use std::collections::HashMap;

use bench::scaffold::client_id;
use bytes::Bytes;
use common::ids::{NodeId, PartitionId, RingId};
use common::SimTime;
use coord::{PartitionInfo, Registry, RingConfig};
use multiring::client::{ClosedLoopClient, CommandSpec};
use multiring::{EchoApp, HostOptions, MultiRingHost, SessionApp};
use ringpaxos::options::{RateLeveling, RingOptions};
use simnet::{CoordProcess, CpuModel, Region, Sim, Topology};
use storage::StorageMode;

fn main() {
    let rl: Option<RateLeveling> = match std::env::args().nth(1).as_deref() {
        Some("none") => None,
        Some("wan") => Some(RateLeveling::wan()),
        Some("tiny") => Some(RateLeveling {
            delta: std::time::Duration::from_millis(5),
            lambda: 200,
        }),
        Some("slow") => Some(RateLeveling {
            delta: std::time::Duration::from_millis(500),
            lambda: 9000,
        }),
        _ => Some(RateLeveling::datacenter()),
    };
    println!("rate leveling: {rl:?}");
    let mut sim = Sim::with_topology(23, Topology::ec2());
    let registry = Registry::new();
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    let ring = RingId::new(0);
    registry
        .register_ring(RingConfig::new(ring, members.clone(), members.clone()).unwrap())
        .unwrap();
    registry
        .register_partition(
            PartitionId::new(0),
            PartitionInfo {
                rings: vec![ring],
                replicas: members.clone(),
            },
        )
        .unwrap();
    let sites = [
        Topology::site_of_region(Region::EuWest1),
        Topology::site_of_region(Region::UsEast1),
        Topology::site_of_region(Region::UsWest2),
    ];
    let host_opts = HostOptions {
        ring: RingOptions {
            storage: StorageMode::InMemory,
            rate_leveling: rl,
            ..RingOptions::crash_free()
        },
        ..HostOptions::default()
    };
    let mut hosts_execd: Vec<NodeId> = Vec::new();
    for (i, m) in members.iter().enumerate() {
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &[ring],
            &[ring],
            Some(PartitionId::new(0)),
            Box::new(SessionApp::new(Box::new(EchoApp::new()))),
            host_opts.clone(),
        );
        hosts_execd.push(sim.add_node_with_cpu(sites[i], host, CpuModel::free()));
    }
    let client = ClosedLoopClient::new(
        client_id(0),
        registry.clone(),
        HashMap::from([(ring, members[0])]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(ring, Bytes::from_static(b"x"), vec![PartitionId::new(0)])
        },
        1,
    );
    let stats = client.stats();
    sim.add_node_with_cpu(sites[0], client, CpuModel::free());
    CoordProcess::add_to(&mut sim, sites[0], &registry);

    for sec in 1..=20u64 {
        sim.run_until(SimTime::from_secs(sec));
        let s = stats.borrow();
        println!(
            "t={sec:>2}s completed={:>6} sent={:>6} msgs={:>8}",
            s.completed,
            s.sent,
            sim.obs().counter("net_msgs").get()
        );
    }
}
