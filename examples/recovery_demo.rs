//! Crash recovery walkthrough (paper §5): checkpoints, log trimming, and
//! a replica restart that installs a peer checkpoint and replays from the
//! acceptors.
//!
//! Run: `cargo run --example recovery_demo`

use std::collections::HashMap;
use std::time::Duration;

use atomic_multicast::common::ids::{ClientId, NodeId, PartitionId, RingId};
use atomic_multicast::common::SimTime;
use atomic_multicast::coord::{PartitionInfo, Registry, RingConfig};
use atomic_multicast::multiring::client::{ClosedLoopClient, CommandSpec};
use atomic_multicast::multiring::{EchoApp, HostOptions, MultiRingHost, SessionApp};
use atomic_multicast::ringpaxos::options::RingOptions;
use atomic_multicast::simnet::{CoordProcess, CpuModel, Sim, Topology};
use atomic_multicast::storage::{DiskProfile, StorageMode};
use bytes::Bytes;

fn main() {
    let mut topo = Topology::lan();
    topo.set_jitter_pct(1);
    let mut sim = Sim::with_topology(11, topo);
    let registry = Registry::new();

    let ring = RingId::new(0);
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
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

    let host_opts = HostOptions {
        ring: RingOptions {
            storage: StorageMode::Async(DiskProfile::ssd()),
            heartbeat_interval: Duration::from_millis(20),
            failure_timeout: Duration::from_millis(300),
            ..RingOptions::default()
        },
        checkpoint_interval: Some(Duration::from_millis(500)),
        trim_interval: Some(Duration::from_millis(800)),
        checkpoint_storage: StorageMode::Sync(DiskProfile::ssd()),
        ..HostOptions::default()
    };
    for m in &members {
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &[ring],
            &[ring],
            Some(PartitionId::new(0)),
            Box::new(SessionApp::new(Box::new(EchoApp::new()))),
            host_opts.clone(),
        );
        sim.add_node_with_cpu(0, host, CpuModel::server());
    }
    let client = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(ring, members[0])]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(ring, Bytes::from_static(b"work"), vec![PartitionId::new(0)])
        },
        4,
    );
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());
    CoordProcess::add_to(&mut sim, 0, &registry);

    let victim = members[2];
    println!("t=2s : replica {victim} crashes (ring reconfigures around it)");
    println!("t=5s : replica {victim} restarts (fetches a peer checkpoint, replays the rest)");
    sim.schedule_crash(victim, SimTime::from_secs(2));
    sim.schedule_restart(victim, SimTime::from_secs(5));

    let mut last = 0u64;
    for sec in 1..=8u64 {
        sim.run_until(SimTime::from_secs(sec));
        let c = stats.borrow().completed;
        println!("t={sec}s : {:>6} ops/s", c - last);
        last = c;
    }

    let obs = sim.obs();
    println!(
        "\ncrashes={} restarts={} (service stayed available on the 2-node majority)",
        obs.counter("node_crashes").get(),
        obs.counter("node_restarts").get()
    );
    assert_eq!(obs.counter("node_restarts").get(), 1);
}
