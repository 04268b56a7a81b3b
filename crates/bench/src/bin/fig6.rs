//! Figure 6: vertical scalability of dLog — one disk per ring.
//!
//! Setup (paper §8.4.1): three machines host k rings (one disk each) plus
//! one common ring shared by all learners. Clients generate 1 KB appends,
//! batched into 32 KB packets; storage is asynchronous. Throughput is
//! reported aggregated across rings; the latency CDF is for ring 0
//! ("disk 1").
//!
//! Each [`ringpaxos::RingNode`] owns its own [`storage::AcceptorLog`]
//! (its own [`storage::DiskTimeline`]), so adding a ring adds a disk —
//! exactly the paper's resource-scaling knob.
//!
//! Run: `cargo run -p bench --release --bin fig6`

use std::collections::HashMap;
use std::time::Duration;

use bench::scaffold::{client_id, payload, print_cdf, print_table, RunResult};
use common::ids::{NodeId, PartitionId, RingId};
use common::wire::Wire;
use common::SimTime;
use coord::{PartitionInfo, Registry, RingConfig};
use dlog::{DlogApp, LogCommand};
use multiring::client::{ClosedLoopClient, CommandSpec};
use multiring::{HostOptions, MultiRingHost, SessionApp};
use ringpaxos::options::{BatchPolicy, RateLeveling, RingOptions};
use simnet::{CoordProcess, CpuModel, Sim, Topology};
use storage::{DiskProfile, StorageMode};

const WARMUP: Duration = Duration::from_secs(1);
const MEASURE: Duration = Duration::from_secs(8);
const APPEND_SIZE: usize = 1024;
const CLIENT_THREADS: usize = 60;

fn run(k: usize) -> (f64, common::Histogram) {
    let mut topo = Topology::lan();
    topo.set_jitter_pct(2);
    let mut sim = Sim::with_topology(60 + k as u64, topo);
    let registry = Registry::new();

    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    // k data rings + 1 common ring, all over the same three machines.
    let rings: Vec<RingId> = (0..=k as u16).map(RingId::new).collect();
    for r in &rings {
        registry
            .register_ring(RingConfig::new(*r, members.clone(), members.clone()).unwrap())
            .unwrap();
    }
    registry
        .register_partition(
            PartitionId::new(0),
            PartitionInfo {
                rings: rings.clone(),
                replicas: members.clone(),
            },
        )
        .unwrap();
    let host_opts = HostOptions {
        ring: RingOptions {
            storage: StorageMode::Async(DiskProfile::hdd()),
            batching: Some(BatchPolicy::default()), // 32 KB packets
            rate_leveling: Some(RateLeveling::datacenter()),
            ..RingOptions::crash_free()
        },
        ..HostOptions::default()
    };
    let logs: Vec<u16> = (0..k as u16).collect();
    for m in &members {
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &rings,
            &rings,
            Some(PartitionId::new(0)),
            Box::new(SessionApp::new(Box::new(DlogApp::new(&logs)))),
            host_opts.clone(),
        );
        sim.add_node_with_cpu(0, host, CpuModel::server());
    }

    // One client per data ring, so rings load evenly (append-only
    // workload, §8.4.1).
    let mut all_stats = Vec::new();
    let mut disk1_stats = Vec::new();
    for log in 0..k as u16 {
        let ring = RingId::new(log);
        let proposer = NodeId::new(u32::from(log) % 3);
        let body = payload(APPEND_SIZE);
        let client = ClosedLoopClient::new(
            client_id(log as usize),
            registry.clone(),
            HashMap::from([(ring, proposer)]),
            move |_rng: &mut rand::rngs::StdRng| {
                CommandSpec::simple(
                    ring,
                    LogCommand::Append {
                        log,
                        value: body.clone(),
                    }
                    .to_bytes(),
                    vec![PartitionId::new(0)],
                )
            },
            CLIENT_THREADS,
        )
        .with_warmup(SimTime::ZERO + WARMUP);
        let stats = client.stats();
        all_stats.push(stats.clone());
        if log == 0 {
            disk1_stats.push(stats);
        }
        sim.add_node_with_cpu(0, client, CpuModel::free());
        CoordProcess::add_to(&mut sim, 0, &registry);
    }

    sim.run_until(SimTime::ZERO + WARMUP + MEASURE);
    let total = RunResult::collect(&all_stats, MEASURE);
    let disk1 = RunResult::collect(&disk1_stats, MEASURE);
    (total.ops_per_sec(), disk1.latency)
}

fn main() {
    println!("Figure 6: dLog vertical scalability (1 KB appends, 32 KB batches, async disk)");
    let mut rows = Vec::new();
    let mut prev = 0.0f64;
    let mut cdfs = Vec::new();
    for k in 1..=5usize {
        let (ops, disk1) = run(k);
        let scaling = if prev > 0.0 {
            format!(
                "{:.0}%",
                ops / prev * 100.0 / 2.0 * (k as f64) / (k as f64 - 1.0) * 2.0 / 1.0
            )
        } else {
            "100%".to_string()
        };
        let per_ring_change = if prev > 0.0 {
            // linear scalability relative to the previous point, like the
            // paper's percent annotations
            format!("{:.0}%", (ops / k as f64) / (prev / (k - 1) as f64) * 100.0)
        } else {
            "100%".to_string()
        };
        let _ = scaling;
        rows.push(vec![k.to_string(), format!("{ops:.0}"), per_ring_change]);
        prev = ops;
        cdfs.push((k, disk1));
    }
    print_table(
        "aggregate throughput (ops/s) vs number of rings",
        &["rings", "ops_per_sec", "linear_vs_prev"],
        &rows,
    );
    for (k, cdf) in &cdfs {
        print_cdf(&format!("{k} log(s), disk 1 latency"), cdf);
    }
}
