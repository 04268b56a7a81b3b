//! A whole simulated deployment replays under one seed: an MRP-Store
//! shaped service — two partitions in two EC2 regions, each on its own
//! ring, and a global ring every replica joins — with session clients,
//! the coordination service as a simulated process, and one replica
//! crashing and restarting mid-run. Two runs from the same seed deliver
//! the same `(ring, instance, value id)` sequence at every replica and
//! leave the clients with the same statistics. The run spans two rounds
//! of the clients' session keep-alives, which once went out in `HashMap`
//! order.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use common::ids::{ClientId, InstanceId, NodeId, PartitionId, RingId};
use common::msg::Msg;
use common::process::{Ctx, Process, Timer};
use common::value::{Envelope, ValueId};
use common::wire::{get_bytes, get_varint, put_bytes, put_varint};
use common::SimTime;
use coord::{PartitionInfo, Registry, RingConfig};
use multiring::client::{ClosedLoopClient, CommandSpec};
use multiring::{HostOptions, MultiRingHost, ServiceApp, SessionApp};
use rand::rngs::StdRng;
use rand::Rng;
use ringpaxos::options::{RateLeveling, RingOptions};
use simnet::{CoordProcess, CpuModel, Region, Sim, Topology};
use storage::{DiskProfile, StorageMode};

/// What one replica's ring learners delivered, in order.
type Deliveries = Vec<(RingId, InstanceId, Option<ValueId>)>;
type Delivered = Rc<RefCell<Deliveries>>;

const PARTITION_RINGS: [RingId; 2] = [RingId::new(0), RingId::new(1)];
const GLOBAL: RingId = RingId::new(2);
const REPLICAS: u32 = 3;

/// A key-value map: a command is `key ++ value` and stores the value,
/// answering with the one it replaced.
#[derive(Default)]
struct MapApp(BTreeMap<Bytes, Bytes>);

impl ServiceApp for MapApp {
    fn execute(&mut self, _group: RingId, env: &Envelope) -> Bytes {
        let mut cmd = env.cmd.clone();
        let (key, value) = (get_bytes(&mut cmd).unwrap(), get_bytes(&mut cmd).unwrap());
        self.0.insert(key, value).unwrap_or_default()
    }

    fn snapshot(&self) -> Bytes {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, self.0.len() as u64);
        for (key, value) in &self.0 {
            put_bytes(&mut buf, key);
            put_bytes(&mut buf, value);
        }
        buf.freeze()
    }

    fn restore(&mut self, state: &Bytes) {
        let mut raw = state.clone();
        self.0.clear();
        for _ in 0..get_varint(&mut raw).unwrap() {
            let key = get_bytes(&mut raw).unwrap();
            self.0.insert(key, get_bytes(&mut raw).unwrap());
        }
    }

    fn reset(&mut self) {
        self.0.clear();
    }
}

/// A replica that notes what its ring learners deliver: after every
/// callback it reads, on each of its rings, the instances the learner's
/// cursor passed and the value ids its acceptor log holds for them.
struct Replica {
    host: MultiRingHost,
    rings: Vec<RingId>,
    cursor: HashMap<RingId, InstanceId>,
    delivered: Delivered,
}

impl Replica {
    fn note(&mut self) {
        let mut delivered = self.delivered.borrow_mut();
        for ring in &self.rings {
            let node = self.host.ring_node(*ring).expect("a member");
            let upto = node.next_delivery();
            // A restart delivers from its checkpoint again.
            let cursor = self.cursor.entry(*ring).or_insert(InstanceId::ZERO);
            *cursor = (*cursor).min(upto);
            while *cursor < upto {
                let value = node.log().accepted(*cursor).map(|(_, value)| value);
                delivered.push((*ring, *cursor, value.map(|v| v.id)));
                // A skip spans many instances; an installed checkpoint
                // covers what it did not deliver here.
                *cursor = value.map_or(upto, |v| cursor.plus(v.instance_span()));
            }
        }
    }
}

impl Process for Replica {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.host.on_start(ctx);
        self.note();
    }
    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        self.host.on_message(from, msg, ctx);
        self.note();
    }
    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        self.host.on_timer(timer, ctx);
        self.note();
    }
    fn on_crash(&mut self, now: SimTime) {
        self.host.on_crash(now);
    }
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.host.on_restart(ctx);
        self.note();
    }
}

/// Puts `key` on its partition's ring; every fifth command is a
/// two-partition put on the global ring.
fn command(rng: &mut StdRng, home: usize) -> CommandSpec {
    let mut cmd = BytesMut::new();
    let key = rng.random_range(0u32..64);
    put_bytes(&mut cmd, &Bytes::from(format!("k{home}-{key}")));
    put_bytes(
        &mut cmd,
        &Bytes::from(vec![b'v'; rng.random_range(1usize..64)]),
    );
    let both = vec![PartitionId::new(0), PartitionId::new(1)];
    if rng.random_range(0u32..5) == 0 {
        CommandSpec::simple(GLOBAL, cmd.freeze(), both).labeled("multi")
    } else {
        let partition = PartitionId::new(home as u16);
        CommandSpec::simple(PARTITION_RINGS[home], cmd.freeze(), vec![partition]).labeled("put")
    }
}

/// One run from `seed`: every replica's deliveries, and each client's
/// statistics as printed.
fn run(seed: u64) -> (Vec<Deliveries>, Vec<String>) {
    let mut sim = Sim::with_topology(seed, Topology::ec2());
    let sites = [Region::EuWest1, Region::UsWest2].map(Topology::site_of_region);
    let registry = Registry::new();
    let replicas: Vec<Vec<NodeId>> = (0..2)
        .map(|p| {
            (0..REPLICAS)
                .map(|i| NodeId::new(p * REPLICAS + i))
                .collect()
        })
        .collect();
    let all: Vec<NodeId> = replicas.concat();
    registry
        .register_ring(RingConfig::new(GLOBAL, all.clone(), all).unwrap())
        .unwrap();
    for (p, nodes) in replicas.iter().enumerate() {
        let ring = PARTITION_RINGS[p];
        registry
            .register_ring(RingConfig::new(ring, nodes.clone(), nodes.clone()).unwrap())
            .unwrap();
        let info = PartitionInfo {
            rings: vec![ring, GLOBAL],
            replicas: nodes.clone(),
        };
        registry
            .register_partition(PartitionId::new(p as u16), info)
            .unwrap();
    }
    let opts = HostOptions {
        ring: RingOptions {
            storage: StorageMode::Async(DiskProfile::ssd()),
            heartbeat_interval: Duration::from_millis(20),
            failure_timeout: Duration::from_millis(300),
            proposal_retry: Duration::from_millis(500),
            rate_leveling: Some(RateLeveling::wan()),
            ..RingOptions::default()
        },
        checkpoint_interval: Some(Duration::from_millis(400)),
        trim_interval: Some(Duration::from_millis(600)),
        checkpoint_storage: StorageMode::Sync(DiskProfile::ssd()),
        ..HostOptions::default()
    };
    let mut delivered = Vec::new();
    for (p, nodes) in replicas.iter().enumerate() {
        let rings = vec![PARTITION_RINGS[p], GLOBAL];
        for node in nodes {
            let host = MultiRingHost::new(
                *node,
                registry.clone(),
                &rings,
                &rings,
                Some(PartitionId::new(p as u16)),
                Box::new(SessionApp::new(Box::<MapApp>::default())),
                opts.clone(),
            );
            let log = Delivered::default();
            let replica = Replica {
                host,
                rings: rings.clone(),
                cursor: HashMap::new(),
                delivered: Rc::clone(&log),
            };
            assert_eq!(sim.add_node(sites[p], replica), *node);
            delivered.push(log);
        }
    }
    let mut stats = Vec::new();
    for (home, nodes) in replicas.iter().enumerate() {
        let proposers = HashMap::from([(PARTITION_RINGS[home], nodes[0]), (GLOBAL, nodes[0])]);
        let client = ClosedLoopClient::new(
            ClientId::new(home as u32 + 1),
            registry.clone(),
            proposers,
            move |rng: &mut StdRng| command(rng, home),
            2,
        )
        .with_rate_cap(400.0);
        stats.push(client.stats());
        sim.add_node_with_cpu(sites[home], client, CpuModel::free());
    }
    CoordProcess::add_to(&mut sim, sites[0], &registry);

    let crashed = replicas[0][2];
    sim.schedule_crash(crashed, SimTime::from_millis(3_000));
    sim.schedule_restart(crashed, SimTime::from_millis(6_000));
    sim.run_until(SimTime::from_millis(6_000));
    let before_restart = delivered[crashed.raw() as usize].borrow().len();
    sim.run_until(SimTime::from_millis(21_000));

    assert_eq!(sim.obs().counter("node_restarts").get(), 1);
    for s in &stats {
        let s = s.borrow();
        assert!(s.completed > 100, "the service stayed available: {s:?}");
        assert!(s.latency_by.get("multi").is_some_and(|h| h.count() > 10));
    }
    let recovered = delivered[crashed.raw() as usize].borrow()[before_restart..].to_vec();
    assert!(
        [PARTITION_RINGS[0], GLOBAL]
            .iter()
            .all(|ring| recovered.iter().any(|(r, _, id)| r == ring && id.is_some())),
        "the restarted replica delivers from both of its rings again"
    );
    let delivered = delivered.into_iter().map(|log| log.take()).collect();
    let stats = stats.iter().map(|s| format!("{:?}", s.borrow())).collect();
    (delivered, stats)
}

#[test]
fn a_partitioned_deployment_with_a_crash_replays_under_one_seed() {
    let (delivered, stats) = run(21);
    for (node, log) in delivered.iter().enumerate() {
        assert!(log.len() > 100, "replica {node} delivered {}", log.len());
    }
    let (again, stats_again) = run(21);
    for (node, (a, b)) in delivered.iter().zip(&again).enumerate() {
        assert!(a == b, "replica {node} delivered another sequence");
    }
    assert_eq!(stats, stats_again, "the clients saw another run");
}
