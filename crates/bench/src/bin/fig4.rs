//! Figure 4: YCSB A–F on Cassandra-like, MRP-Store (independent rings),
//! MRP-Store (global ring), and MySQL-like stores.
//!
//! Setup (paper §8.3.2): three partitions, replication factor three,
//! 100 client threads. MRP-Store runs in two configurations: partitions
//! coordinated through a common global ring (full atomic multicast
//! ordering) and independent per-partition rings (ordering within
//! partitions only). The workload-F latency breakdown (read / update /
//! read-modify-write) is printed for MRP-Store with the global ring.
//!
//! The database is scaled down from the paper's 1 GB to keep simulation
//! memory reasonable: 20 000 records of 100 bytes (see EXPERIMENTS.md).
//!
//! Run: `cargo run -p bench --release --bin fig4`

use std::collections::HashMap;
use std::time::Duration;

use bench::scaffold::{client_id, deploy_service, print_table, RunResult};
use bytes::Bytes;
use common::hist::Histogram;
use common::ids::{NodeId, PartitionId, RingId};
use common::msg::Msg;
use common::process::{Ctx, Process, Timer};
use common::wire::Wire;
use common::SimTime;
use mrpstore::{KvApp, KvCommand, Partitioning};
use multiring::client::{ClosedLoopClient, CommandSpec, SharedClientStats};
use multiring::{HostOptions, SessionApp, SessionLimits};
use ringpaxos::options::{BatchPolicy, RateLeveling, RingOptions};
use simnet::{CpuModel, Sim, Topology};
use storage::{DiskProfile, StorageMode};
use workloads::{Op, Workload, WorkloadSpec};

use bench::baselines::eventual::{unwrap as ev_unwrap, wrap as ev_wrap, EvMsg, EventualReplica};
use bench::baselines::single_node::{unwrap as sn_unwrap, wrap as sn_wrap, SingleNodeStore, SnMsg};

const RECORDS: u64 = 20_000;
const VALUE_SIZE: usize = 100;
const PARTITIONS: usize = 3;
const THREADS: usize = 100;
const WARMUP: Duration = Duration::from_secs(1);
const MEASURE: Duration = Duration::from_secs(3);

fn key_of(idx: u64) -> String {
    format!("user{idx:012}")
}

fn lan_sim(seed: u64) -> Sim {
    let mut topo = Topology::lan();
    topo.set_jitter_pct(2);
    Sim::with_topology(seed, topo)
}

/// YCSB op → MRP-Store command spec.
fn kv_spec(
    op: &Op,
    scheme: &Partitioning,
    partition_rings: &[RingId],
    global: Option<RingId>,
) -> CommandSpec {
    let value = || Bytes::from(vec![7u8; VALUE_SIZE]);
    let single = |key: String, cmd: KvCommand, label: &'static str| {
        let p = scheme.partition_of(&key);
        CommandSpec::simple(partition_rings[p.raw() as usize], cmd.to_bytes(), vec![p])
            .labeled(label)
    };
    match op {
        Op::Read { key } => {
            let key = key_of(*key);
            let cmd = KvCommand::Read { key: key.clone() };
            single(key, cmd, "read")
        }
        Op::Update { key } => {
            let key = key_of(*key);
            let cmd = KvCommand::Update {
                key: key.clone(),
                value: value(),
            };
            single(key, cmd, "update")
        }
        Op::Insert { key } => {
            let key = key_of(*key);
            let cmd = KvCommand::Insert {
                key: key.clone(),
                value: value(),
            };
            single(key, cmd, "insert")
        }
        Op::Scan { key, len } => {
            let from = key_of(*key);
            let to = key_of(key + len);
            let cmd = KvCommand::Scan { from, to };
            let all: Vec<PartitionId> = (0..PARTITIONS as u16).map(PartitionId::new).collect();
            match global {
                Some(g) => {
                    // Hash partitioning: scans are multicast to the group
                    // every partition subscribes to (§6.1).
                    CommandSpec::simple(g, cmd.to_bytes(), all).labeled("scan")
                }
                None => {
                    // Independent rings: one scan per partition ring,
                    // without cross-partition ordering.
                    let bytes = cmd.to_bytes();
                    let mut spec =
                        CommandSpec::simple(partition_rings[0], bytes.clone(), all).labeled("scan");
                    spec.also = partition_rings[1..]
                        .iter()
                        .map(|r| (*r, bytes.clone()))
                        .collect();
                    spec
                }
            }
        }
        Op::ReadModifyWrite { key } => {
            let key = key_of(*key);
            let p = scheme.partition_of(&key);
            let ring = partition_rings[p.raw() as usize];
            let read = KvCommand::Read { key: key.clone() };
            let update = KvCommand::Update {
                key,
                value: value(),
            };
            let mut spec =
                CommandSpec::simple(ring, read.to_bytes(), vec![p]).labeled("read-modify-write");
            spec.followup = Some(Box::new(
                CommandSpec::simple(ring, update.to_bytes(), vec![p]).labeled("read-modify-write"),
            ));
            spec
        }
    }
}

fn run_mrp(spec: WorkloadSpec, global_ring: bool) -> (f64, SharedClientStats) {
    let mut sim = lan_sim(4);
    let scheme = Partitioning::Hash {
        partitions: PARTITIONS as u16,
    };
    let host_opts = HostOptions {
        ring: RingOptions {
            storage: StorageMode::Async(DiskProfile::ssd()),
            batching: Some(BatchPolicy::default()),
            rate_leveling: Some(RateLeveling::datacenter()),
            ..RingOptions::crash_free()
        },
        ..HostOptions::default()
    };
    let dep = deploy_service(
        &mut sim,
        PARTITIONS,
        3,
        |_| 0,
        global_ring,
        &host_opts,
        CpuModel::server(),
        |p| {
            let mut app = KvApp::new(PartitionId::new(p as u16), scheme.clone());
            for i in 0..RECORDS {
                app.preload(key_of(i), Bytes::from(vec![7u8; VALUE_SIZE]));
            }
            // Room for the client's session window.
            let limits = SessionLimits {
                max_cached: 2 * THREADS * (PARTITIONS + 1),
                ..SessionLimits::default()
            };
            Box::new(SessionApp::with_limits(Box::new(app), limits))
        },
    );
    scheme.publish(&dep.registry);

    let mut workload = Workload::new(spec, RECORDS);
    let rings = dep.partition_rings.clone();
    let global = dep.global_ring;
    let scheme2 = scheme.clone();
    let client = ClosedLoopClient::new(
        client_id(0),
        dep.registry.clone(),
        dep.proposer_map(),
        move |rng: &mut rand::rngs::StdRng| {
            let op = workload.next_op(rng);
            kv_spec(&op, &scheme2, &rings, global)
        },
        THREADS,
    )
    .with_warmup(SimTime::ZERO + WARMUP);
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());

    sim.run_until(SimTime::ZERO + WARMUP + MEASURE);
    let r = RunResult::collect(std::slice::from_ref(&stats), MEASURE);
    (r.ops_per_sec(), stats)
}

/// Closed-loop client for the two baseline stores, driving the same YCSB
/// stream over their native protocols.
struct BaselineClient {
    kind: BaselineKind,
    servers: Vec<NodeId>,
    workload: Workload,
    outstanding: usize,
    next_req: u64,
    pending: HashMap<u64, (SimTime, usize)>,
    completed_after_warmup: u64,
    latency: Histogram,
    warmup: SimTime,
    done: std::rc::Rc<std::cell::RefCell<u64>>,
}

#[derive(Clone, Copy, PartialEq)]
enum BaselineKind {
    Eventual,
    Single,
}

impl BaselineClient {
    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        let op = {
            let rng = ctx.rng();
            self.workload.next_op(rng)
        };
        self.next_req += 1;
        let req = self.next_req;
        let value = Bytes::from(vec![7u8; VALUE_SIZE]);
        let mut needed = 1usize;
        match self.kind {
            BaselineKind::Eventual => {
                let route = |key: &str| {
                    let h = key
                        .bytes()
                        .fold(0u64, |a, b| a.wrapping_mul(31) + u64::from(b));
                    self.servers[(h % self.servers.len() as u64) as usize]
                };
                match &op {
                    Op::Read { key } => {
                        let k = key_of(*key);
                        ctx.send(route(&k), ev_wrap(&EvMsg::Get { req, key: k }));
                    }
                    Op::Update { key } | Op::Insert { key } | Op::ReadModifyWrite { key } => {
                        let k = key_of(*key);
                        ctx.send(
                            route(&k),
                            ev_wrap(&EvMsg::Put {
                                req,
                                key: k,
                                value,
                                ts: req,
                            }),
                        );
                    }
                    Op::Scan { key, len } => {
                        // Range scans hit every partition and stream back
                        // the matching records — Cassandra 1.x's weak spot
                        // in workload E.
                        needed = self.servers.len();
                        for s in &self.servers {
                            ctx.send(
                                *s,
                                ev_wrap(&EvMsg::Scan {
                                    req,
                                    key: key_of(*key),
                                    n: *len,
                                }),
                            );
                        }
                    }
                }
            }
            BaselineKind::Single => {
                let server = self.servers[0];
                match &op {
                    Op::Read { key } => {
                        ctx.send(
                            server,
                            sn_wrap(&SnMsg::Get {
                                req,
                                key: key_of(*key),
                            }),
                        );
                    }
                    Op::Update { key } | Op::Insert { key } | Op::ReadModifyWrite { key } => {
                        ctx.send(
                            server,
                            sn_wrap(&SnMsg::Put {
                                req,
                                key: key_of(*key),
                                value,
                            }),
                        );
                    }
                    Op::Scan { key, len } => {
                        ctx.send(
                            server,
                            sn_wrap(&SnMsg::Scan {
                                req,
                                key: key_of(*key),
                                n: *len,
                            }),
                        );
                    }
                }
            }
        }
        self.pending.insert(req, (ctx.now(), needed));
    }

    fn complete(&mut self, req: u64, ctx: &mut Ctx<'_>) {
        let Some((sent, needed)) = self.pending.get_mut(&req) else {
            return;
        };
        *needed -= 1;
        if *needed > 0 {
            return;
        }
        let sent = *sent;
        self.pending.remove(&req);
        let now = ctx.now();
        self.latency.record_duration(now.since(sent));
        if now >= self.warmup {
            self.completed_after_warmup += 1;
            *self.done.borrow_mut() = self.completed_after_warmup;
        }
        self.issue(ctx);
    }
}

impl Process for BaselineClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.outstanding {
            self.issue(ctx);
        }
    }

    fn on_message(&mut self, _: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        match self.kind {
            BaselineKind::Eventual => {
                if let Some(EvMsg::Ack { req, .. }) = ev_unwrap(&msg) {
                    self.complete(req, ctx);
                }
            }
            BaselineKind::Single => {
                if let Some(SnMsg::Reply { req, .. }) = sn_unwrap(&msg) {
                    self.complete(req, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, _: Timer, _: &mut Ctx<'_>) {}
}

fn run_baseline(spec: WorkloadSpec, kind: BaselineKind) -> f64 {
    let mut sim = lan_sim(9);
    let servers: Vec<NodeId> = match kind {
        BaselineKind::Eventual => {
            let ids: Vec<NodeId> = (0..3).map(NodeId::new).collect();
            for _ in 0..3 {
                let mut replica =
                    EventualReplica::new(ids.clone(), StorageMode::Async(DiskProfile::ssd()));
                for i in 0..RECORDS {
                    replica.preload(key_of(i), Bytes::from(vec![7u8; VALUE_SIZE]));
                }
                sim.add_node_with_cpu(0, replica, CpuModel::server());
            }
            ids
        }
        BaselineKind::Single => {
            let mut server = SingleNodeStore::new(StorageMode::Async(DiskProfile::ssd()));
            for i in 0..RECORDS {
                server.preload(key_of(i), Bytes::from(vec![7u8; VALUE_SIZE]));
            }
            vec![sim.add_node_with_cpu(0, server, CpuModel::server())]
        }
    };
    let done = std::rc::Rc::new(std::cell::RefCell::new(0u64));
    let client = BaselineClient {
        kind,
        servers,
        workload: Workload::new(spec, RECORDS),
        outstanding: THREADS,
        next_req: 0,
        pending: HashMap::new(),
        completed_after_warmup: 0,
        latency: Histogram::new(),
        warmup: SimTime::ZERO + WARMUP,
        done: done.clone(),
    };
    sim.add_node_with_cpu(0, client, CpuModel::free());
    sim.run_until(SimTime::ZERO + WARMUP + MEASURE);
    let ops = *done.borrow();
    ops as f64 / MEASURE.as_secs_f64()
}

fn main() {
    println!("Figure 4: YCSB A-F, 3 partitions, RF=3, {THREADS} client threads");
    println!("(database scaled to {RECORDS} records x {VALUE_SIZE} B; see EXPERIMENTS.md)");

    let mut rows = Vec::new();
    let mut f_breakdown: Option<SharedClientStats> = None;
    for spec in WorkloadSpec::ALL {
        let cass = run_baseline(spec, BaselineKind::Eventual);
        let (indep, _) = run_mrp(spec, false);
        let (global, stats) = run_mrp(spec, true);
        let mysql = run_baseline(spec, BaselineKind::Single);
        if spec == WorkloadSpec::F {
            f_breakdown = Some(stats);
        }
        // Stream rows as they complete: the MRP cells are slow.
        println!(
            "workload {}: cassandra={cass:.0} mrp_indep={indep:.0} mrp_global={global:.0} mysql={mysql:.0}",
            spec.label()
        );
        rows.push(vec![
            spec.label().to_string(),
            format!("{cass:.0}"),
            format!("{indep:.0}"),
            format!("{global:.0}"),
            format!("{mysql:.0}"),
        ]);
    }
    print_table(
        "throughput (ops/s)",
        &["workload", "cassandra", "mrp_indep", "mrp_global", "mysql"],
        &rows,
    );

    if let Some(stats) = f_breakdown {
        let s = stats.borrow();
        let mut rows = Vec::new();
        for label in ["read", "update", "read-modify-write"] {
            if let Some(h) = s.latency_by.get(label) {
                rows.push(vec![
                    label.to_string(),
                    format!("{:.2}", h.mean() / 1e6),
                    format!("{:.2}", h.quantile(0.99) as f64 / 1e6),
                ]);
            }
        }
        print_table(
            "Workload F latency breakdown, MRP-Store global ring (ms)",
            &["op", "mean_ms", "p99_ms"],
            &rows,
        );
    }
}
