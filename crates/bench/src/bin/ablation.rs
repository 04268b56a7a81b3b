//! Ablations beyond the paper: the deterministic-merge parameter `M` and
//! rate leveling on/off under skewed ring load.
//!
//! * **M sweep** — larger `M` amortizes turn switching but couples rings
//!   more coarsely; with balanced load throughput is flat, confirming the
//!   paper's choice of M=1 for its experiments.
//! * **Rate leveling off** — with one busy and one idle ring, delivery
//!   collapses to the idle ring's (zero) rate: the motivating pathology
//!   of §4. Turning skips on restores full throughput.
//!
//! Run: `cargo run -p bench --release --bin ablation`

use std::collections::HashMap;
use std::time::Duration;

use bench::scaffold::{client_id, payload, print_table, RunResult};
use common::ids::{NodeId, PartitionId, RingId};
use common::SimTime;
use coord::{PartitionInfo, Registry, RingConfig};
use multiring::client::{ClosedLoopClient, CommandSpec};
use multiring::{EchoApp, HostOptions, MultiRingHost, SessionApp};
use ringpaxos::options::{RateLeveling, RingOptions};
use simnet::{CoordProcess, CpuModel, Sim, Topology};
use storage::StorageMode;

const WARMUP: Duration = Duration::from_secs(1);
const MEASURE: Duration = Duration::from_secs(5);

fn run(m: u64, rate_leveling: Option<RateLeveling>) -> f64 {
    let mut topo = Topology::lan();
    topo.set_jitter_pct(1);
    let mut sim = Sim::with_topology(99, topo);
    let registry = Registry::new();
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    let rings = [RingId::new(0), RingId::new(1)];
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
            rate_leveling,
            ..RingOptions::crash_free()
        },
        m,
        ..HostOptions::default()
    };
    for node in &members {
        let host = MultiRingHost::new(
            *node,
            registry.clone(),
            &rings,
            &rings,
            Some(PartitionId::new(0)),
            Box::new(SessionApp::new(Box::new(EchoApp::new()))),
            host_opts.clone(),
        );
        sim.add_node_with_cpu(0, host, CpuModel::server());
    }
    // Skewed load: all traffic on ring 0; ring 1 idle.
    let body = payload(512);
    let client = ClosedLoopClient::new(
        client_id(0),
        registry.clone(),
        HashMap::from([(rings[0], members[0])]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(rings[0], body.clone(), vec![PartitionId::new(0)])
        },
        10,
    )
    .with_warmup(SimTime::ZERO + WARMUP);
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());
    CoordProcess::add_to(&mut sim, 0, &registry);
    sim.run_until(SimTime::ZERO + WARMUP + MEASURE);
    RunResult::collect(&[stats], MEASURE).ops_per_sec()
}

fn main() {
    println!("Ablations: deterministic merge M and rate leveling, skewed two-ring load");

    let mut rows = Vec::new();
    for m in [1u64, 4, 16, 64] {
        let ops = run(m, Some(RateLeveling::datacenter()));
        rows.push(vec![format!("M={m}"), format!("{ops:.0}")]);
    }
    print_table(
        "merge parameter sweep (skips on)",
        &["config", "ops_per_sec"],
        &rows,
    );

    let mut rows = Vec::new();
    let off = run(1, None);
    let on = run(1, Some(RateLeveling::datacenter()));
    rows.push(vec!["skips off".into(), format!("{off:.0}")]);
    rows.push(vec!["skips on".into(), format!("{on:.0}")]);
    print_table(
        "rate leveling under skew (busy ring 0, idle ring 1)",
        &["config", "ops_per_sec"],
        &rows,
    );
    println!(
        "\nwithout skips the merge stalls on the idle ring: {off:.0} ops/s vs {on:.0} ops/s with rate leveling"
    );
}
