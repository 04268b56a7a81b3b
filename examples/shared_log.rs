//! dLog: atomic appends to multiple shared logs.
//!
//! Two logs, each its own multicast group, plus a shared group for
//! `multi-append`. Every replica assigns identical positions because the
//! deterministic merge orders the shared group against each log's own
//! appends (paper §6.2, Table 2).
//!
//! Run: `cargo run --example shared_log`

use std::collections::HashMap;
use std::time::Duration;

use atomic_multicast::common::ids::{ClientId, NodeId, PartitionId, RingId};
use atomic_multicast::common::wire::Wire;
use atomic_multicast::common::SimTime;
use atomic_multicast::coord::{PartitionInfo, Registry, RingConfig};
use atomic_multicast::dlog::{DlogApp, LogCommand};
use atomic_multicast::multiring::client::{ClosedLoopClient, CommandSpec};
use atomic_multicast::multiring::{HostOptions, MultiRingHost, SessionApp};
use atomic_multicast::ringpaxos::options::{RateLeveling, RingOptions};
use atomic_multicast::simnet::{CoordProcess, CpuModel, Sim, Topology};
use atomic_multicast::storage::StorageMode;
use bytes::Bytes;

fn main() {
    let mut topo = Topology::lan();
    topo.set_jitter_pct(1);
    let mut sim = Sim::with_topology(3, topo);
    let registry = Registry::new();

    // Three replicas host logs 0 and 1; ring 0 = log 0, ring 1 = log 1,
    // ring 2 = the shared multi-append group.
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    let rings = [RingId::new(0), RingId::new(1), RingId::new(2)];
    for r in rings {
        registry
            .register_ring(RingConfig::new(r, members.clone(), members.clone()).unwrap())
            .unwrap();
    }
    registry
        .register_partition(
            PartitionId::new(0),
            PartitionInfo {
                rings: rings.to_vec(),
                replicas: members.clone(),
            },
        )
        .unwrap();

    let host_opts = HostOptions {
        ring: RingOptions {
            storage: StorageMode::InMemory,
            rate_leveling: Some(RateLeveling::datacenter()),
            ..RingOptions::crash_free()
        },
        ..HostOptions::default()
    };
    for m in &members {
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &rings,
            &rings,
            Some(PartitionId::new(0)),
            Box::new(SessionApp::new(Box::new(DlogApp::new(&[0, 1])))),
            host_opts.clone(),
        );
        sim.add_node_with_cpu(0, host, CpuModel::server());
    }

    // A writer appending to log 0, log 1, and atomically to both.
    let mut seq = 0u64;
    let client = ClosedLoopClient::new(
        ClientId::new(9),
        registry.clone(),
        HashMap::from([
            (rings[0], members[0]),
            (rings[1], members[1]),
            (rings[2], members[2]),
        ]),
        move |_rng: &mut rand::rngs::StdRng| {
            seq += 1;
            let p0 = PartitionId::new(0);
            match seq % 3 {
                0 => CommandSpec::simple(
                    rings[2],
                    LogCommand::MultiAppend {
                        logs: vec![0, 1],
                        value: Bytes::from(format!("both-{seq}")),
                    }
                    .to_bytes(),
                    vec![p0],
                )
                .labeled("multi-append"),
                1 => CommandSpec::simple(
                    rings[0],
                    LogCommand::Append {
                        log: 0,
                        value: Bytes::from(format!("solo0-{seq}")),
                    }
                    .to_bytes(),
                    vec![p0],
                )
                .labeled("append"),
                _ => CommandSpec::simple(
                    rings[1],
                    LogCommand::Append {
                        log: 1,
                        value: Bytes::from(format!("solo1-{seq}")),
                    }
                    .to_bytes(),
                    vec![p0],
                )
                .labeled("append"),
            }
        },
        2,
    );
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());
    CoordProcess::add_to(&mut sim, 0, &registry);

    sim.run_until(SimTime::from_secs(5));

    let s = stats.borrow();
    println!("appends completed: {}", s.completed);
    for (label, h) in &s.latency_by {
        println!(
            "  {label:<12} count {:>6}  mean {:>6.2} ms",
            h.count(),
            h.mean() / 1e6
        );
    }
    assert!(s.completed > 100, "the log should make steady progress");
    println!("\nok: single appends and atomic multi-appends share one total order");
    let _ = Duration::from_secs(0);
}
