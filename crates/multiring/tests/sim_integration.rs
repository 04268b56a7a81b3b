//! End-to-end simulations of Multi-Ring Paxos hosts: clients, multiple
//! rings with rate leveling, checkpointing, trimming and crash recovery.

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;
use common::ids::{ClientId, NodeId, PartitionId, RingId};
use common::SimTime;
use coord::{PartitionInfo, Registry, RingConfig};
use multiring::client::{ClosedLoopClient, CommandSpec};
use multiring::{EchoApp, HostOptions, MultiRingHost};
use ringpaxos::options::{RateLeveling, RingOptions};
use simnet::{CpuModel, Sim, Topology};
use storage::{DiskProfile, StorageMode};

fn lan_sim(seed: u64) -> Sim {
    let mut topo = Topology::lan();
    topo.set_jitter_frac(0.01);
    Sim::with_topology(seed, topo)
}

fn ring_opts() -> RingOptions {
    RingOptions {
        storage: StorageMode::InMemory,
        heartbeat_interval: Duration::from_millis(20),
        failure_timeout: Duration::from_millis(200),
        proposal_retry: Duration::from_millis(500),
        ..RingOptions::default()
    }
}

/// 3 hosts form one ring (all acceptors, all replicas of partition 0);
/// one closed-loop client drives requests at host 0.
#[test]
fn single_ring_service_executes_and_replies() {
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

    let mut sim = lan_sim(1);
    for m in &members {
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &[ring],
            &[ring],
            Some(PartitionId::new(0)),
            Box::new(EchoApp::new()),
            HostOptions {
                ring: ring_opts(),
                ..HostOptions::default()
            },
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
        4,
    );
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());

    sim.run_until(SimTime::from_secs(2));

    let s = stats.borrow();
    assert!(
        s.completed > 100,
        "client should complete many requests, got {}",
        s.completed
    );
    // Latency should be a few ring hops on a 0.1 ms RTT LAN.
    let p50 = s.latency.quantile(0.5);
    assert!(
        p50 < 5_000_000,
        "median latency should be sub-5ms, got {p50}ns"
    );
}

/// Two rings with unbalanced load: ring 0 carries traffic, ring 1 is
/// idle. Without rate leveling the merge would stall; skips keep it
/// moving.
#[test]
fn rate_leveling_unblocks_idle_ring() {
    let registry = Registry::new();
    let r0 = RingId::new(0);
    let r1 = RingId::new(1);
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    for r in [r0, r1] {
        registry
            .register_ring(RingConfig::new(r, members.clone(), members.clone()).unwrap())
            .unwrap();
    }
    registry
        .register_partition(
            PartitionId::new(0),
            PartitionInfo {
                rings: vec![r0, r1],
                replicas: members.clone(),
            },
        )
        .unwrap();

    let mut sim = lan_sim(2);
    for m in &members {
        let mut opts = ring_opts();
        opts.rate_leveling = Some(RateLeveling {
            delta: Duration::from_millis(5),
            lambda: 9000,
        });
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &[r0, r1],
            &[r0, r1],
            Some(PartitionId::new(0)),
            Box::new(EchoApp::new()),
            HostOptions {
                ring: opts,
                ..HostOptions::default()
            },
        );
        sim.add_node_with_cpu(0, host, CpuModel::free());
    }
    let client = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(r0, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(
                r0,
                Bytes::from_static(b"only-ring-0"),
                vec![PartitionId::new(0)],
            )
        },
        2,
    );
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());

    sim.run_until(SimTime::from_secs(2));
    let done = stats.borrow().completed;
    assert!(
        done > 50,
        "requests multicast to ring 0 must deliver despite idle ring 1 (got {done})"
    );
}

/// The Figure 8 scenario in miniature: checkpoints + trimming run, a
/// replica crashes, restarts, fetches a checkpoint from a peer and
/// catches up from the acceptors.
#[test]
fn replica_recovers_after_crash_with_trimming() {
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

    let mut sim = lan_sim(3);
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
    for m in &members {
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &[ring],
            &[ring],
            Some(PartitionId::new(0)),
            Box::new(EchoApp::new()),
            host_opts.clone(),
        );
        sim.add_node_with_cpu(0, host, CpuModel::free());
    }
    let client = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(ring, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(
                ring,
                Bytes::from_static(b"recovering"),
                vec![PartitionId::new(0)],
            )
        },
        2,
    );
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());

    // Crash replica 2 at t=2s, restart at t=5s, run until t=9s.
    sim.schedule_crash(NodeId::new(2), SimTime::from_secs(2));
    sim.schedule_restart(NodeId::new(2), SimTime::from_secs(5));
    sim.run_until(SimTime::from_secs(9));

    // Service stayed available throughout (majority up).
    let done = stats.borrow().completed;
    assert!(done > 200, "service must stay available, got {done}");

    // The metrics show the crash/restart happened.
    let m = sim.metrics();
    assert_eq!(m.borrow().counter("node.crashes"), 1);
    assert_eq!(m.borrow().counter("node.restarts"), 1);
}

/// The `geo_wan` layout in simulated time: one partition per region of
/// the paper's three, partition ring *p* = nodes `[2p, 2p+1]`, one global
/// ring over all six. A client in us-east drives its own partition only
/// and now and then a command for all three. The global ring idles
/// between those, so its skip credit reaches us-east an inter-region
/// delay late and a whole stride at a time; local commands must find it
/// waiting (the wider ring runs ahead of the narrower, see
/// `MultiRingHost::nudge_starved_ring`), not wait for the next burst.
#[test]
fn region_local_commands_do_not_wait_for_an_idle_global_ring() {
    use common::geo::{Region, WanProfile};

    let registry = Registry::new();
    let global = RingId::new(3);
    let everyone: Vec<NodeId> = (0..6).map(NodeId::new).collect();
    for p in 0..3u16 {
        let replicas: Vec<NodeId> = everyone[usize::from(p) * 2..][..2].to_vec();
        registry
            .register_ring(
                RingConfig::new(RingId::new(p), replicas.clone(), replicas.clone()).unwrap(),
            )
            .unwrap();
        registry
            .register_partition(
                PartitionId::new(p),
                PartitionInfo {
                    rings: vec![RingId::new(p), global],
                    replicas,
                },
            )
            .unwrap();
    }
    registry
        .register_ring(RingConfig::new(global, everyone.clone(), everyone.clone()).unwrap())
        .unwrap();

    let mut topo = Topology::from_profile(&WanProfile::ec2_2014());
    topo.set_jitter_frac(0.01);
    let mut sim = Sim::with_topology(7, topo);
    let site = |p: usize| Topology::site_of_region(Region::PAPER_THREE[p]);
    for m in &everyone {
        let p = m.raw() as usize / 2;
        let rings = [RingId::new(p as u16), global];
        let mut opts = ring_opts();
        opts.failure_timeout = Duration::ZERO; // nobody fails here
        opts.rate_leveling = Some(RateLeveling {
            delta: Duration::from_millis(1),
            lambda: 9000,
        });
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &rings,
            &rings,
            Some(PartitionId::new(p as u16)),
            Box::new(EchoApp::new()),
            HostOptions {
                ring: opts,
                ..HostOptions::default()
            },
        );
        sim.add_node_with_cpu(site(p), host, CpuModel::free());
    }
    let local = RingId::new(1);
    let single = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(local, NodeId::new(2))]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(
                local,
                Bytes::from_static(b"local"),
                vec![PartitionId::new(1)],
            )
        },
        1,
    )
    .with_rate_cap(300.0);
    let multi = ClosedLoopClient::new(
        ClientId::new(2),
        registry.clone(),
        HashMap::from([(global, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            let all = (0..3).map(PartitionId::new).collect();
            CommandSpec::simple(global, Bytes::from_static(b"everywhere"), all)
        },
        1,
    );
    let (single_stats, multi_stats) = (single.stats(), multi.stats());
    sim.add_node_with_cpu(site(1), single, CpuModel::free());
    sim.add_node_with_cpu(site(1), multi, CpuModel::free());

    sim.run_until(SimTime::from_secs(4));

    let s = single_stats.borrow();
    let (p50, p95) = (s.latency.quantile(0.5), s.latency.quantile(0.95));
    assert!(s.completed > 1000, "{}", s.completed);
    assert!(
        p50 < 2_000_000 && p95 < 5_000_000,
        "region-local latency p50 {p50} ns, p95 {p95} ns"
    );
    // And the commands for everyone pay four ocean crossings, not a lap
    // more: client to coordinator, majority, outcome, reply.
    let m = multi_stats.borrow();
    assert!(m.completed > 10, "{}", m.completed);
    let multi_p50 = m.latency.quantile(0.5);
    assert!(
        multi_p50 < 175_000_000,
        "multi-partition p50 {multi_p50} ns"
    );
}
