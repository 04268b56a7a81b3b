//! Figure 7: horizontal scalability of MRP-Store across EC2 regions.
//!
//! Setup (paper §8.4.2): one ring per region (a replica plus three
//! proposers/acceptors, modelled as three nodes that are all three roles)
//! and a global ring joining all replicas. Clients send 1 KB update
//! commands to their local partition only, batched into 32 KB packets.
//! WAN rate leveling (Δ = 20 ms, λ = 2000) keeps the global ring from
//! stalling the merge. Latency CDF is reported for the last-added region
//! (us-west-2 when all four run).
//!
//! Run: `cargo run -p bench --release --bin fig7`

use std::collections::HashMap;
use std::time::Duration;

use bench::scaffold::{client_id, deploy_service, payload, print_cdf, print_table, RunResult};
use common::ids::PartitionId;
use common::wire::Wire;
use common::SimTime;
use mrpstore::{KvApp, KvCommand, Partitioning};
use multiring::client::{ClosedLoopClient, CommandSpec};
use multiring::{HostOptions, SessionApp, SessionLimits};
use ringpaxos::options::{BatchPolicy, RateLeveling, RingOptions};
use simnet::{CpuModel, Region, Sim, Topology};
use storage::{DiskProfile, StorageMode};

const WARMUP: Duration = Duration::from_secs(2);
const MEASURE: Duration = Duration::from_secs(10);
const UPDATE_SIZE: usize = 1024;
// Enough outstanding requests per region to saturate the pipeline despite
// WAN delivery latency (the paper keeps the pipe full with 32 KB client
// batches; a deep closed loop is the equivalent here).
const CLIENT_THREADS: usize = 1600;

fn run(regions: usize) -> (f64, common::Histogram) {
    let mut sim = Sim::with_topology(70 + regions as u64, Topology::ec2());

    let host_opts = HostOptions {
        ring: RingOptions {
            storage: StorageMode::Async(DiskProfile::ssd()),
            batching: Some(BatchPolicy::default()),
            // The paper runs λ=2000 with 32 KB client batches, i.e. each
            // consensus instance carries ~32 one-KB commands. We propose
            // one command per instance, so the equivalent expected rate is
            // 2000 × 32 = 64000 instances/s: the merge delivers each ring
            // at most at the global ring's instance rate, so λ must
            // exceed the target per-region command rate.
            rate_leveling: Some(RateLeveling {
                delta: Duration::from_millis(20),
                lambda: 64_000,
            }),
            ..RingOptions::crash_free()
        },
        ..HostOptions::default()
    };
    let scheme = Partitioning::Hash {
        partitions: regions as u16,
    };
    let dep = deploy_service(
        &mut sim,
        regions,
        3,
        |p| Topology::site_of_region(Region::ALL[p]),
        true, // replicas from all the rings are also part of a global ring
        &host_opts,
        CpuModel::server(),
        |p| {
            // Room for a region client's session window.
            let limits = SessionLimits {
                max_cached: 2 * CLIENT_THREADS,
                ..SessionLimits::default()
            };
            let kv = KvApp::new(PartitionId::new(p as u16), scheme.clone());
            Box::new(SessionApp::with_limits(Box::new(kv), limits))
        },
    );
    scheme.publish(&dep.registry);

    // Pre-fill each partition's keyspace so updates hit existing keys.
    // (Updates on missing keys answer NotFound, which still measures the
    // ordering path; we pre-insert via direct commands for realism.)
    let mut stats_by_region = Vec::new();
    for r in 0..regions {
        let ring = dep.partition_rings[r];
        let proposer = dep.replicas[r][0];
        let body = payload(UPDATE_SIZE);
        let scheme2 = scheme.clone();
        let mut seq = 0u64;
        let client = ClosedLoopClient::new(
            client_id(r),
            dep.registry.clone(),
            HashMap::from([(ring, proposer)]),
            move |_rng: &mut rand::rngs::StdRng| {
                // Cycle keys owned by this region's partition.
                seq += 1;
                let mut k = seq;
                let key = loop {
                    let key = format!("user{k:012}");
                    if scheme2.partition_of(&key) == PartitionId::new(r as u16) {
                        break key;
                    }
                    k += 1;
                };
                seq = k;
                let cmd = KvCommand::Insert {
                    key,
                    value: body.clone(),
                };
                CommandSpec::simple(ring, cmd.to_bytes(), vec![PartitionId::new(r as u16)])
            },
            CLIENT_THREADS,
        )
        // One client machine per region with bounded generation capacity,
        // as in the paper (its per-region throughput is client-bound at a
        // few thousand 1 KB commands/s in every configuration).
        .with_rate_cap(3000.0)
        .with_warmup(SimTime::ZERO + WARMUP);
        let stats = client.stats();
        stats_by_region.push(stats);
        sim.add_node_with_cpu(
            Topology::site_of_region(Region::ALL[r]),
            client,
            CpuModel::free(),
        );
    }

    sim.run_until(SimTime::ZERO + WARMUP + MEASURE);
    let total = RunResult::collect(&stats_by_region, MEASURE);
    let last = RunResult::collect(&stats_by_region[regions - 1..], MEASURE);
    (total.ops_per_sec(), last.latency)
}

fn main() {
    println!("Figure 7: MRP-Store horizontal scalability across EC2 regions");
    println!(
        "(1 KB updates to the local partition; per-region ring + global ring; WAN Δ=20ms λ=2000)"
    );
    let mut rows = Vec::new();
    let mut prev = 0.0f64;
    let mut cdfs = Vec::new();
    for n in 1..=4usize {
        let (ops, lat) = run(n);
        let linear = if prev > 0.0 {
            format!("{:.0}%", (ops / n as f64) / (prev / (n - 1) as f64) * 100.0)
        } else {
            "100%".to_string()
        };
        rows.push(vec![
            Region::ALL[n - 1].name().to_string(),
            n.to_string(),
            format!("{ops:.0}"),
            linear,
        ]);
        prev = ops;
        cdfs.push((n, lat));
    }
    print_table(
        "aggregate throughput (ops/s) vs number of regions",
        &["added_region", "regions", "ops_per_sec", "linear_vs_prev"],
        &rows,
    );
    for (n, cdf) in &cdfs {
        print_cdf(&format!("{n} region(s), newest region latency"), cdf);
    }
}
