//! Figure 8: impact of recovery on performance.
//!
//! Setup (paper §8.5): one ring with three acceptors writing
//! asynchronously, three replicas, the system at partial load. Replicas
//! periodically checkpoint synchronously to disk so acceptors can trim
//! their logs. One replica is terminated at t=20 s and restarts at
//! t=240 s, at which point it retrieves the most recent checkpoint from
//! an operational replica and replays the missing instances from the
//! acceptors. The run prints per-second throughput and latency with the
//! paper's event markers.
//!
//! Run: `cargo run -p bench --release --bin fig8`

use std::collections::HashMap;
use std::time::Duration;

use bench::scaffold::{client_id, deploy_service, payload, Sampler};
use common::ids::{NodeId, PartitionId};
use common::SimTime;
use multiring::client::{ClosedLoopClient, CommandSpec};
use multiring::{EchoApp, HostOptions, SessionApp};
use ringpaxos::options::RingOptions;
use simnet::{CpuModel, Sim, Topology};
use storage::{DiskProfile, StorageMode};

const RUN: Duration = Duration::from_secs(300);
const CRASH_AT: Duration = Duration::from_secs(20);
const RESTART_AT: Duration = Duration::from_secs(240);
const CHECKPOINT_EVERY: Duration = Duration::from_secs(30);
const TRIM_EVERY: Duration = Duration::from_secs(60);
const REQUEST_SIZE: usize = 1024;
/// Outstanding requests ≈ 75% of the in-memory peak for this deployment.
const OUTSTANDING: usize = 6;

fn main() {
    println!("Figure 8: recovery timeline (replica killed at 20 s, restarts at 240 s)");
    println!("markers: 1=replica terminated 2=checkpoints 3=log trimming 4=replica recovery");

    let mut topo = Topology::lan();
    topo.set_jitter_pct(2);
    let mut sim = Sim::with_topology(8, topo);

    let host_opts = HostOptions {
        ring: RingOptions {
            storage: StorageMode::Async(DiskProfile::hdd()),
            heartbeat_interval: Duration::from_millis(50),
            failure_timeout: Duration::from_millis(500),
            proposal_retry: Duration::from_millis(1000),
            ..RingOptions::default()
        },
        checkpoint_interval: Some(CHECKPOINT_EVERY),
        trim_interval: Some(TRIM_EVERY),
        checkpoint_storage: StorageMode::Sync(DiskProfile::hdd()),
        recovery_retry: Duration::from_millis(500),
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
    let body = payload(REQUEST_SIZE);
    let client = ClosedLoopClient::new(
        client_id(0),
        dep.registry.clone(),
        HashMap::from([(ring, dep.replicas[0][0])]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(ring, body.clone(), vec![PartitionId::new(0)])
        },
        OUTSTANDING,
    )
    .with_retry_after(Duration::from_secs(1));
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());

    let sampler = Sampler::new(vec![stats], Duration::from_secs(1));
    let series = sampler.series();
    sim.add_node_with_cpu(0, sampler, CpuModel::free());

    let victim: NodeId = dep.replicas[0][2];
    sim.schedule_crash(victim, SimTime::ZERO + CRASH_AT);
    sim.schedule_restart(victim, SimTime::ZERO + RESTART_AT);
    sim.run_until(SimTime::ZERO + RUN);

    println!(
        "\n{:>6}  {:>12}  {:>12}  marker",
        "t_sec", "ops_per_sec", "latency_ms"
    );
    let ckpt_secs: Vec<u64> = (1..RUN.as_secs() / CHECKPOINT_EVERY.as_secs() + 1)
        .map(|i| i * CHECKPOINT_EVERY.as_secs())
        .collect();
    let trim_secs: Vec<u64> = (1..RUN.as_secs() / TRIM_EVERY.as_secs() + 1)
        .map(|i| i * TRIM_EVERY.as_secs())
        .collect();
    for p in series.borrow().iter() {
        let t = p.at.as_secs();
        let mut marker = String::new();
        if t == CRASH_AT.as_secs() {
            marker.push_str(" 1:terminated");
        }
        if ckpt_secs.contains(&t) {
            marker.push_str(" 2:checkpoint");
        }
        if trim_secs.contains(&t) {
            marker.push_str(" 3:trim");
        }
        if t == RESTART_AT.as_secs() {
            marker.push_str(" 4:recovery");
        }
        println!(
            "{:>6}  {:>12.0}  {:>12.2} {}",
            t, p.throughput, p.latency_ms, marker
        );
    }

    let obs = sim.obs();
    println!(
        "\ncrashes={} restarts={} net_msgs={}",
        obs.counter("node_crashes").get(),
        obs.counter("node_restarts").get(),
        obs.counter("net_msgs").get(),
    );
}
