//! Figure 3: baseline performance of one ring under varying request
//! sizes and storage modes.
//!
//! Setup (paper §8.3.1): one ring with three processes, all of which are
//! proposers, acceptors and learners; one acceptor coordinates. Ten
//! client threads submit requests of 512 B – 32 KB; batching disabled.
//! Reported: throughput (Mbps), mean latency (ms), coordinator CPU
//! utilization, and the latency CDF at 32 KB.
//!
//! Run: `cargo run -p bench --release --bin fig3`

use std::collections::HashMap;
use std::time::Duration;

use bench::scaffold::{client_id, deploy_service, payload, print_cdf, print_table, RunResult};
use common::ids::PartitionId;
use common::SimTime;
use multiring::client::{ClosedLoopClient, CommandSpec};
use multiring::{EchoApp, HostOptions, SessionApp};
use ringpaxos::options::RingOptions;
use simnet::{CpuModel, Sim, Topology};
use storage::StorageMode;

const SIZES: [usize; 4] = [512, 2 * 1024, 8 * 1024, 32 * 1024];
const WARMUP: Duration = Duration::from_secs(1);
const MEASURE: Duration = Duration::from_secs(10);

struct Cell {
    mbps: f64,
    latency_ms: f64,
    coord_cpu: f64,
    latency: common::Histogram,
}

fn run_one(mode: StorageMode, size: usize) -> Cell {
    let mut topo = Topology::lan();
    topo.set_jitter_pct(2);
    let mut sim = Sim::with_topology(42, topo);

    let host_opts = HostOptions {
        ring: RingOptions {
            storage: mode,
            batching: None, // "batching is disabled in the ring"
            ..RingOptions::crash_free()
        },
        ..HostOptions::default()
    };
    let dep = deploy_service(
        &mut sim,
        1,
        3,
        |_| 0,
        false,
        &host_opts,
        CpuModel::server(),
        |_| Box::new(SessionApp::new(Box::new(EchoApp::new()))),
    );
    let ring = dep.partition_rings[0];
    let proposers: HashMap<_, _> = dep.proposer_map();
    let body = payload(size);
    let client = ClosedLoopClient::new(
        client_id(0),
        dep.registry.clone(),
        proposers,
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(ring, body.clone(), vec![PartitionId::new(0)])
        },
        10, // ten proposer threads
    )
    .with_warmup(SimTime::ZERO + WARMUP);
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());

    // Warm up, then measure coordinator CPU over the measurement window.
    sim.run_until(SimTime::ZERO + WARMUP);
    let coordinator = dep.replicas[0][0];
    let busy_before = sim.cpu_busy(coordinator);
    sim.run_until(SimTime::ZERO + WARMUP + MEASURE);
    let busy_after = sim.cpu_busy(coordinator);

    let result = RunResult::collect(&[stats], MEASURE);
    Cell {
        mbps: result.mbps(size),
        latency_ms: result.mean_latency_ms(),
        coord_cpu: (busy_after - busy_before).as_secs_f64() / MEASURE.as_secs_f64() * 100.0,
        latency: result.latency,
    }
}

fn main() {
    println!("Figure 3: one ring, three processes, 10 client threads, no batching");
    println!("(paper: M=1, Δ=5 ms, λ=9000; value sizes 512 B – 32 KB; five storage modes)");

    let modes = StorageMode::all();
    let mut results: HashMap<(usize, usize), Cell> = HashMap::new();
    for (mi, mode) in modes.iter().enumerate() {
        for &size in &SIZES {
            let cell = run_one(*mode, size);
            results.insert((mi, size), cell);
        }
    }

    let size_label = |s: usize| {
        if s >= 1024 {
            format!("{}k", s / 1024)
        } else {
            format!("{s}")
        }
    };

    for (title, pick) in [
        ("Throughput (Mbps)", 0usize),
        ("Mean latency (ms)", 1),
        ("CPU % @ coordinator", 2),
    ] {
        let headers: Vec<String> = std::iter::once("mode".to_string())
            .chain(SIZES.iter().map(|s| size_label(*s)))
            .collect();
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = modes
            .iter()
            .enumerate()
            .map(|(mi, mode)| {
                let mut row = vec![mode.label().to_string()];
                for &size in &SIZES {
                    let c = &results[&(mi, size)];
                    let v = match pick {
                        0 => c.mbps,
                        1 => c.latency_ms,
                        _ => c.coord_cpu,
                    };
                    row.push(format!("{v:.2}"));
                }
                row
            })
            .collect();
        print_table(title, &headers_ref, &rows);
    }

    // Latency CDFs at 32 KB (bottom-right graph).
    for (mi, mode) in modes.iter().enumerate() {
        let c = &results[&(mi, 32 * 1024)];
        print_cdf(&format!("{} @ 32 KB", mode.label()), &c.latency);
    }
}
