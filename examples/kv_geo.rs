//! A geo-replicated key-value store in the simulator.
//!
//! Recreates the paper's global deployment in miniature: two EC2 regions,
//! each with its own partition (ring), plus a global ring ordering
//! cross-partition scans. A client in each region updates local keys; a
//! scan spanning both partitions is ordered against all of them by the
//! deterministic merge.
//!
//! Run: `cargo run --example kv_geo`

use std::collections::HashMap;

use atomic_multicast::common::ids::{ClientId, PartitionId};
use atomic_multicast::common::ids::{NodeId, RingId};
use atomic_multicast::common::wire::Wire;
use atomic_multicast::common::SimTime;
use atomic_multicast::coord::{PartitionInfo, Registry, RingConfig};
use atomic_multicast::mrpstore::{KvApp, KvCommand, Partitioning};
use atomic_multicast::multiring::client::{ClosedLoopClient, CommandSpec};
use atomic_multicast::multiring::{HostOptions, MultiRingHost, SessionApp};
use atomic_multicast::ringpaxos::options::{BatchPolicy, RateLeveling, RingOptions};
use atomic_multicast::simnet::{CoordProcess, CpuModel, Region, Sim, Topology};
use atomic_multicast::storage::StorageMode;
use bytes::Bytes;

fn main() {
    let mut sim = Sim::with_topology(7, Topology::ec2());
    let registry = Registry::new();

    // Partition 0 in eu-west-1, partition 1 in us-west-2, plus a global
    // ring joining all six replicas.
    let scheme = Partitioning::Hash { partitions: 2 };
    scheme.publish(&registry);
    let rings = [RingId::new(0), RingId::new(1)];
    let global = RingId::new(2);
    let sites = [
        Topology::site_of_region(Region::EuWest1),
        Topology::site_of_region(Region::UsWest2),
    ];

    let mut replicas: Vec<Vec<NodeId>> = vec![Vec::new(); 2];
    for p in 0..2u32 {
        for r in 0..3u32 {
            replicas[p as usize].push(NodeId::new(p * 3 + r));
        }
    }
    for (p, ring) in rings.iter().enumerate() {
        registry
            .register_ring(
                RingConfig::new(*ring, replicas[p].clone(), replicas[p].clone()).unwrap(),
            )
            .unwrap();
    }
    let all: Vec<NodeId> = replicas.iter().flatten().copied().collect();
    registry
        .register_ring(RingConfig::new(global, all.clone(), all).unwrap())
        .unwrap();
    for p in 0..2usize {
        registry
            .register_partition(
                PartitionId::new(p as u16),
                PartitionInfo {
                    rings: vec![rings[p], global],
                    replicas: replicas[p].clone(),
                },
            )
            .unwrap();
    }

    let host_opts = HostOptions {
        ring: RingOptions {
            storage: StorageMode::InMemory,
            batching: Some(BatchPolicy::default()),
            rate_leveling: Some(RateLeveling::wan()),
            ..RingOptions::crash_free()
        },
        ..HostOptions::default()
    };
    for (p, nodes) in replicas.iter().enumerate() {
        for node in nodes {
            let host = MultiRingHost::new(
                *node,
                registry.clone(),
                &[rings[p], global],
                &[rings[p], global],
                Some(PartitionId::new(p as u16)),
                Box::new(SessionApp::new(Box::new(KvApp::new(
                    PartitionId::new(p as u16),
                    scheme.clone(),
                )))),
                host_opts.clone(),
            );
            let id = sim.add_node_with_cpu(sites[p], host, CpuModel::server());
            assert_eq!(id, *node);
        }
    }

    // One client per region inserting region-local keys, plus an
    // occasional global scan.
    let mut stats = Vec::new();
    for p in 0..2usize {
        let ring = rings[p];
        let scheme2 = scheme.clone();
        let mut seq = 0u64;
        let client = ClosedLoopClient::new(
            ClientId::new(100 + p as u32),
            registry.clone(),
            HashMap::from([(ring, replicas[p][0]), (global, replicas[p][0])]),
            move |_rng: &mut rand::rngs::StdRng| {
                seq += 1;
                if seq.is_multiple_of(20) {
                    // A cross-partition scan, atomically ordered via the
                    // global ring.
                    let cmd = KvCommand::Scan {
                        from: "k".into(),
                        to: String::new(),
                    };
                    CommandSpec::simple(
                        global,
                        cmd.to_bytes(),
                        vec![PartitionId::new(0), PartitionId::new(1)],
                    )
                    .labeled("scan")
                } else {
                    // A region-local insert.
                    let mut k = seq;
                    let key = loop {
                        let key = format!("k{k:08}");
                        if scheme2.partition_of(&key) == PartitionId::new(p as u16) {
                            break key;
                        }
                        k += 1;
                    };
                    seq = k;
                    let cmd = KvCommand::Insert {
                        key,
                        value: Bytes::from_static(b"geo-value"),
                    };
                    CommandSpec::simple(ring, cmd.to_bytes(), vec![PartitionId::new(p as u16)])
                        .labeled("insert")
                }
            },
            4,
        );
        stats.push(client.stats());
        sim.add_node_with_cpu(sites[p], client, CpuModel::free());
    }
    CoordProcess::add_to(&mut sim, sites[0], &registry);

    sim.run_until(SimTime::from_secs(20));

    for (p, s) in stats.iter().enumerate() {
        let s = s.borrow();
        let region = [Region::EuWest1, Region::UsWest2][p];
        println!(
            "region {:<10}: {:>6} ops completed, mean latency {:>7.1} ms",
            region.name(),
            s.completed,
            s.latency.mean() / 1e6
        );
        for (label, h) in &s.latency_by {
            println!(
                "    {label:<7} mean {:>7.1} ms  p99 {:>7.1} ms",
                h.mean() / 1e6,
                h.quantile(0.99) as f64 / 1e6
            );
        }
    }
    println!("\nok: both regions make steady progress; every operation's delivery waits for");
    println!("its global-ring merge turn (one WAN circulation) — the price of totally");
    println!("ordering cross-partition scans against local writes (paper fig. 7 CDF)");
}
