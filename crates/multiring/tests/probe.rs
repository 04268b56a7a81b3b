//! Diagnostic probe: tiny runs with step counting to catch event storms.

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;
use common::ids::{ClientId, NodeId, PartitionId, RingId};
use common::SimTime;
use coord::{PartitionInfo, Registry, RingConfig};
use multiring::client::{ClosedLoopClient, CommandSpec};
use multiring::{EchoApp, HostOptions, MultiRingHost, SessionApp};
use ringpaxos::options::RingOptions;
use simnet::{CoordProcess, CpuModel, Sim, Topology};
use storage::{DiskProfile, StorageMode};

fn build(
    sim: &mut Sim,
    registry: &Registry,
    host_opts: &HostOptions,
) -> multiring::client::SharedClientStats {
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
        sim.add_node_with_cpu(0, host, CpuModel::free());
    }
    let client = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(ring, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(ring, Bytes::from_static(b"cmd"), vec![PartitionId::new(0)])
        },
        2,
    );
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());
    CoordProcess::add_to(sim, 0, registry);
    stats
}

#[test]
fn probe_recovery_scenario() {
    let registry = Registry::new();
    let mut topo = Topology::lan();
    topo.set_jitter_pct(0);
    let mut sim = Sim::with_topology(3, topo);
    let host_opts = HostOptions {
        ring: RingOptions {
            storage: StorageMode::Async(DiskProfile::ssd()),
            heartbeat_interval: Duration::from_millis(20),
            failure_timeout: Duration::from_millis(300),
            proposal_retry: Duration::from_millis(500),
            ..RingOptions::default()
        },
        checkpoint_interval: Some(Duration::from_millis(500)),
        trim_interval: Some(Duration::from_millis(700)),
        checkpoint_storage: StorageMode::Sync(DiskProfile::ssd()),
        ..HostOptions::default()
    };
    let stats = build(&mut sim, &registry, &host_opts);

    sim.schedule_crash(NodeId::new(2), SimTime::from_secs(2));
    sim.schedule_restart(NodeId::new(2), SimTime::from_secs(5));

    let mut steps: u64 = 0;
    let mut last_t = SimTime::ZERO;
    let mut stuck = 0u64;
    while let Some(t) = sim.step() {
        steps += 1;
        if t > SimTime::from_secs(9) {
            break;
        }
        if steps.is_multiple_of(500_000) {
            eprintln!(
                "steps={steps} t={t} msgs={} completed={}",
                sim.obs().counter("net_msgs").get(),
                stats.borrow().completed
            );
        }
        if t == last_t {
            stuck += 1;
            assert!(
                stuck < 1_000_000,
                "virtual time stuck at {t} for 1M events (steps={steps})"
            );
        } else {
            stuck = 0;
            last_t = t;
        }
        assert!(steps < 60_000_000, "event storm at t={t}");
    }
    eprintln!("done steps={steps} completed={}", stats.borrow().completed);
}
