//! Figure 5: dLog vs a Bookkeeper-like ensemble log.
//!
//! Setup (paper §8.3.3): both systems write synchronously to disk. dLog
//! uses two rings with three acceptors per ring; learners subscribe to
//! both rings and are co-located with the acceptors. The baseline uses an
//! ensemble of the same three nodes with aggressive time-based batching.
//! A multithreaded client sends 1 KB appends; the sweep varies the number
//! of client threads.
//!
//! Run: `cargo run -p bench --release --bin fig5`

use std::collections::HashMap;
use std::time::Duration;

use bench::scaffold::{client_id, payload, print_table, RunResult};
use bytes::Bytes;
use common::hist::Histogram;
use common::ids::{NodeId, PartitionId, RingId};
use common::msg::Msg;
use common::process::{Ctx, Process, Timer};
use common::wire::Wire;
use common::SimTime;
use coord::{PartitionInfo, Registry, RingConfig};
use dlog::{DlogApp, LogCommand};
use multiring::client::{ClosedLoopClient, CommandSpec};
use multiring::{HostOptions, MultiRingHost, SessionApp};
use ringpaxos::options::RingOptions;
use simnet::{CoordProcess, CpuModel, Sim, Topology};
use storage::{DiskProfile, StorageMode};

use bench::baselines::ensemble_log::{
    unwrap as bk_unwrap, wrap as bk_wrap, BkMsg, Bookie, BookieConfig,
};

const THREADS: [usize; 6] = [1, 25, 50, 100, 150, 200];
const WARMUP: Duration = Duration::from_secs(1);
const MEASURE: Duration = Duration::from_secs(8);
const APPEND_SIZE: usize = 1024;

fn run_dlog(threads: usize) -> (f64, f64) {
    let mut topo = Topology::lan();
    topo.set_jitter_pct(2);
    let mut sim = Sim::with_topology(5, topo);
    let registry = Registry::new();

    // Two rings (= two logs) over the same three nodes; all subscribe to
    // both so every replica hosts both logs.
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
            storage: StorageMode::Sync(DiskProfile::hdd()),
            batching: None, // sync mode: "instances were written one by one"
            rate_leveling: Some(ringpaxos::options::RateLeveling::datacenter()),
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

    let proposers: HashMap<RingId, NodeId> = rings
        .iter()
        .map(|r| (*r, NodeId::new(r.raw() as u32 % 3)))
        .collect();
    let body = payload(APPEND_SIZE);
    let mut flip = 0u64;
    let client = ClosedLoopClient::new(
        client_id(0),
        registry.clone(),
        proposers,
        move |_rng: &mut rand::rngs::StdRng| {
            flip += 1;
            let log = (flip % 2) as u16;
            let cmd = LogCommand::Append {
                log,
                value: body.clone(),
            };
            CommandSpec::simple(RingId::new(log), cmd.to_bytes(), vec![PartitionId::new(0)])
        },
        threads,
    )
    .with_warmup(SimTime::ZERO + WARMUP);
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());
    CoordProcess::add_to(&mut sim, 0, &registry);

    sim.run_until(SimTime::ZERO + WARMUP + MEASURE);
    let r = RunResult::collect(&[stats], MEASURE);
    (r.ops_per_sec(), r.mean_latency_ms())
}

/// A closed-loop Bookkeeper-style client: each append goes to the whole
/// ensemble; the entry completes at the ack quorum (2 of 3).
struct BkClient {
    bookies: Vec<NodeId>,
    outstanding: usize,
    next_entry: u64,
    pending: HashMap<u64, (SimTime, usize)>,
    completed: u64,
    completed_after_warmup: u64,
    latency: Histogram,
    warmup: SimTime,
    body: Bytes,
    done: std::rc::Rc<std::cell::RefCell<(u64, Histogram)>>,
}

impl BkClient {
    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        self.next_entry += 1;
        let entry = self.next_entry;
        for b in &self.bookies {
            ctx.send(
                *b,
                bk_wrap(&BkMsg::Append {
                    entry,
                    value: self.body.clone(),
                }),
            );
        }
        self.pending.insert(entry, (ctx.now(), 0));
    }
}

impl Process for BkClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.outstanding {
            self.issue(ctx);
        }
    }

    fn on_message(&mut self, _: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        let Some(BkMsg::Acked { entry }) = bk_unwrap(&msg) else {
            return;
        };
        let Some((sent, acks)) = self.pending.get_mut(&entry) else {
            return;
        };
        *acks += 1;
        if *acks < 2 {
            return; // ack quorum of 2
        }
        let sent = *sent;
        self.pending.remove(&entry);
        self.completed += 1;
        let now = ctx.now();
        self.latency.record_duration(now.since(sent));
        if now >= self.warmup {
            self.completed_after_warmup += 1;
        }
        {
            let mut d = self.done.borrow_mut();
            d.0 = self.completed_after_warmup;
            d.1 = self.latency.clone();
        }
        self.issue(ctx);
    }

    fn on_timer(&mut self, _: Timer, _: &mut Ctx<'_>) {}
}

fn run_bookkeeper(threads: usize) -> (f64, f64) {
    let mut topo = Topology::lan();
    topo.set_jitter_pct(2);
    let mut sim = Sim::with_topology(6, topo);
    let bookies: Vec<NodeId> = (0..3)
        .map(|_| {
            sim.add_node_with_cpu(
                0,
                Bookie::new(BookieConfig {
                    disk: DiskProfile::hdd(),
                    ..BookieConfig::default()
                }),
                CpuModel::server(),
            )
        })
        .collect();
    let done = std::rc::Rc::new(std::cell::RefCell::new((0u64, Histogram::new())));
    let client = BkClient {
        bookies,
        outstanding: threads,
        next_entry: 0,
        pending: HashMap::new(),
        completed: 0,
        completed_after_warmup: 0,
        latency: Histogram::new(),
        warmup: SimTime::ZERO + WARMUP,
        body: payload(APPEND_SIZE),
        done: done.clone(),
    };
    sim.add_node_with_cpu(0, client, CpuModel::free());
    sim.run_until(SimTime::ZERO + WARMUP + MEASURE);
    let (ops, latency) = &*done.borrow();
    (*ops as f64 / MEASURE.as_secs_f64(), latency.mean() / 1e6)
}

fn main() {
    println!("Figure 5: dLog vs Bookkeeper-like ensemble log (1 KB appends, sync disk)");
    let mut rows = Vec::new();
    for &threads in &THREADS {
        let (d_tput, d_lat) = run_dlog(threads);
        let (b_tput, b_lat) = run_bookkeeper(threads);
        rows.push(vec![
            threads.to_string(),
            format!("{d_tput:.0}"),
            format!("{b_tput:.0}"),
            format!("{d_lat:.1}"),
            format!("{b_lat:.1}"),
        ]);
    }
    print_table(
        "throughput (ops/s) and mean latency (ms) vs client threads",
        &["threads", "dlog_ops", "bk_ops", "dlog_ms", "bk_ms"],
        &rows,
    );
}
