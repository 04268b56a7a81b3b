//! Shared deployment and measurement scaffolding for the figure
//! harnesses.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use common::hist::Histogram;
use common::ids::{ClientId, NodeId, PartitionId, RingId};
use common::msg::Msg;
use common::process::{Ctx, Process, Timer};
use common::time::SimTime;
use coord::{PartitionInfo, Registry, RingConfig};
use multiring::client::SharedClientStats;
use multiring::{HostOptions, MultiRingHost, ServiceApp};
use simnet::{CoordProcess, CpuModel, Sim};

/// A deployed service: partitions, their rings and replicas.
pub struct Deployment {
    /// The registry all processes share.
    pub registry: Registry,
    /// Per-partition ring (ring i belongs to partition i).
    pub partition_rings: Vec<RingId>,
    /// The global ring, when deployed.
    pub global_ring: Option<RingId>,
    /// Replica node ids per partition.
    pub replicas: Vec<Vec<NodeId>>,
}

impl Deployment {
    /// A proposer for each ring, for client routing: the first replica of
    /// the owning partition (or of partition 0 for the global ring).
    pub fn proposer_map(&self) -> HashMap<RingId, NodeId> {
        let mut map = HashMap::new();
        for (p, ring) in self.partition_rings.iter().enumerate() {
            map.insert(*ring, self.replicas[p][0]);
        }
        if let Some(g) = self.global_ring {
            map.insert(g, self.replicas[0][0]);
        }
        map
    }
}

/// Builds a partitioned service: `partitions` × `replicas_per_partition`
/// hosts; partition *p*'s replicas live at `site_of(p)` and form ring *p*
/// (all replicas are acceptors + proposers). With `global_ring`, every
/// replica also joins and subscribes to one shared ring (ring id =
/// `partitions`), which is how MRP-Store orders cross-partition requests.
///
/// `make_app(partition)` builds each replica's state machine.
#[allow(clippy::too_many_arguments)]
pub fn deploy_service(
    sim: &mut Sim,
    partitions: usize,
    replicas_per_partition: usize,
    site_of: impl Fn(usize) -> usize,
    global_ring: bool,
    host_opts: &HostOptions,
    cpu: CpuModel,
    mut make_app: impl FnMut(usize) -> Box<dyn ServiceApp>,
) -> Deployment {
    let registry = Registry::new();
    let partition_rings: Vec<RingId> = (0..partitions as u16).map(RingId::new).collect();
    let global = global_ring.then(|| RingId::new(partitions as u16));

    // Node ids are assigned by add order; compute them first.
    let mut replicas: Vec<Vec<NodeId>> = Vec::new();
    let mut next = 0u32;
    for _ in 0..partitions {
        let mut nodes = Vec::new();
        for _ in 0..replicas_per_partition {
            nodes.push(NodeId::new(next));
            next += 1;
        }
        replicas.push(nodes);
    }

    for (p, ring) in partition_rings.iter().enumerate() {
        registry
            .register_ring(
                RingConfig::new(*ring, replicas[p].clone(), replicas[p].clone()).unwrap(),
            )
            .unwrap();
    }
    if let Some(g) = global {
        let all: Vec<NodeId> = replicas.iter().flatten().copied().collect();
        registry
            .register_ring(RingConfig::new(g, all.clone(), all).unwrap())
            .unwrap();
    }
    for (p, nodes) in replicas.iter().enumerate() {
        let mut rings = vec![partition_rings[p]];
        if let Some(g) = global {
            rings.push(g);
        }
        registry
            .register_partition(
                PartitionId::new(p as u16),
                PartitionInfo {
                    rings: rings.clone(),
                    replicas: nodes.clone(),
                },
            )
            .unwrap();
    }

    for (p, nodes) in replicas.iter().enumerate() {
        let mut member_of = vec![partition_rings[p]];
        if let Some(g) = global {
            member_of.push(g);
        }
        for node in nodes {
            let host = MultiRingHost::new(
                *node,
                registry.clone(),
                &member_of,
                &member_of,
                Some(PartitionId::new(p as u16)),
                make_app(p),
                host_opts.clone(),
            );
            let id = sim.add_node_with_cpu(site_of(p), host, cpu);
            assert_eq!(id, *node, "node id assignment must match plan");
        }
    }
    CoordProcess::add_to(sim, site_of(0), &registry);

    Deployment {
        registry,
        partition_rings,
        global_ring: global,
        replicas,
    }
}

/// Samples a set of client stats every second, producing the time series
/// for Figure 8.
pub struct Sampler {
    clients: Vec<SharedClientStats>,
    series: Rc<RefCell<Vec<SamplePoint>>>,
    last_completed: u64,
    last_lat_sum: f64,
    interval: Duration,
}

/// One per-interval sample.
#[derive(Clone, Copy, Debug)]
pub struct SamplePoint {
    /// Window end.
    pub at: SimTime,
    /// Completions per second in the window.
    pub throughput: f64,
    /// Mean latency (ms) of completions in the window.
    pub latency_ms: f64,
}

impl Sampler {
    /// Samples `clients` every `interval`.
    pub fn new(clients: Vec<SharedClientStats>, interval: Duration) -> Self {
        Sampler {
            clients,
            series: Rc::new(RefCell::new(Vec::new())),
            last_completed: 0,
            last_lat_sum: 0.0,
            interval,
        }
    }

    /// Handle to the collected series.
    pub fn series(&self) -> Rc<RefCell<Vec<SamplePoint>>> {
        self.series.clone()
    }
}

const TIMER_SAMPLE: u32 = 50;

impl Process for Sampler {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(self.interval, Timer::of_kind(TIMER_SAMPLE));
    }

    fn on_message(&mut self, _: NodeId, _: Msg, _: &mut Ctx<'_>) {}

    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        if timer.kind != TIMER_SAMPLE {
            return;
        }
        ctx.schedule(self.interval, Timer::of_kind(TIMER_SAMPLE));
        let mut completed = 0u64;
        let mut lat_sum = 0.0f64;
        for c in &self.clients {
            let s = c.borrow();
            completed += s.completed;
            lat_sum += s.latency.mean() * s.latency.count() as f64;
        }
        let d_completed = completed - self.last_completed;
        let d_lat = lat_sum - self.last_lat_sum;
        self.last_completed = completed;
        self.last_lat_sum = lat_sum;
        let throughput = d_completed as f64 / self.interval.as_secs_f64();
        let latency_ms = if d_completed > 0 {
            d_lat / d_completed as f64 / 1e6
        } else {
            0.0
        };
        self.series.borrow_mut().push(SamplePoint {
            at: ctx.now(),
            throughput,
            latency_ms,
        });
    }
}

/// Aggregates client stats into the numbers the figures report.
pub struct RunResult {
    /// Completed operations after warmup.
    pub ops: u64,
    /// Measured window.
    pub window: Duration,
    /// Merged latency histogram.
    pub latency: Histogram,
    /// Total payload bytes completed.
    pub payload_bytes: u64,
}

impl RunResult {
    /// Collects from clients, measuring `window` (post-warmup).
    pub fn collect(clients: &[SharedClientStats], window: Duration) -> Self {
        let mut ops = 0;
        let mut latency = Histogram::new();
        let mut payload_bytes = 0;
        for c in clients {
            let s = c.borrow();
            ops += s.completed_after_warmup;
            latency.merge(&s.latency);
            payload_bytes += s.payload_bytes;
        }
        RunResult {
            ops,
            window,
            latency,
            payload_bytes,
        }
    }

    /// Operations per second over the window.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.window.as_secs_f64()
    }

    /// Payload megabits per second over the window (throughput in the
    /// paper's Figure 3 units).
    pub fn mbps(&self, request_size: usize) -> f64 {
        self.ops as f64 * request_size as f64 * 8.0 / 1e6 / self.window.as_secs_f64()
    }

    /// Mean latency in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        self.latency.mean() / 1e6
    }
}

/// Makes a unique client id.
pub fn client_id(i: usize) -> ClientId {
    ClientId::new(1000 + i as u32)
}

/// Fixed-content request payload of `size` bytes.
pub fn payload(size: usize) -> Bytes {
    Bytes::from(vec![0x42u8; size])
}

/// Prints an aligned table: a header row then data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    println!("{}", header.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Prints CDF points (latency ms, cumulative fraction), downsampled.
pub fn print_cdf(title: &str, hist: &Histogram) {
    println!("\n-- CDF: {title} --");
    println!("{:>12}  {:>8}", "latency_ms", "cdf");
    let pts = hist.cdf_points();
    let step = (pts.len() / 20).max(1);
    for (i, (v, f)) in pts.iter().enumerate() {
        if i % step == 0 || *f >= 1.0 {
            println!("{:>12.3}  {:>8.4}", *v as f64 / 1e6, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiring::{EchoApp, SessionApp};
    use ringpaxos::options::RingOptions;
    use storage::StorageMode;

    #[test]
    fn deployment_assigns_expected_ids() {
        let mut sim = Sim::new(1);
        let host_opts = HostOptions {
            ring: RingOptions {
                storage: StorageMode::InMemory,
                ..RingOptions::crash_free()
            },
            ..HostOptions::default()
        };
        let dep = deploy_service(
            &mut sim,
            3,
            3,
            |_| 0,
            true,
            &host_opts,
            CpuModel::free(),
            |_| Box::new(SessionApp::new(Box::new(EchoApp::new()))),
        );
        assert_eq!(dep.replicas.len(), 3);
        assert_eq!(dep.replicas[2][2], NodeId::new(8));
        assert_eq!(dep.global_ring, Some(RingId::new(3)));
        let map = dep.proposer_map();
        assert_eq!(map.len(), 4);
        // Global ring subscribers: all 9 replicas.
        assert_eq!(dep.registry.subscribers(RingId::new(3)).len(), 9);
    }

    #[test]
    fn run_result_math() {
        let stats: SharedClientStats = Rc::new(RefCell::new(Default::default()));
        {
            let mut s = stats.borrow_mut();
            s.completed_after_warmup = 1000;
            s.latency.record(2_000_000);
        }
        let r = RunResult::collect(&[stats], Duration::from_secs(10));
        assert!((r.ops_per_sec() - 100.0).abs() < 1e-9);
        assert!((r.mbps(1000) - 0.8).abs() < 1e-9);
        assert!((r.mean_latency_ms() - 2.0).abs() < 1e-9);
    }
}
