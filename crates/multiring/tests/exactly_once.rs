//! Exactly-once sessions under simulation: simulated clients speak
//! protocol v2 through the same `SessionCore` as live ones, and every
//! simulated replica runs the `SessionApp` session table, so the table's
//! dedup and its expiry are exercised against lost, duplicated and
//! re-routed frames and a replica crash.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use common::ids::{ClientId, NodeId, PartitionId, RingId};
use common::msg::Msg;
use common::process::{Ctx, Process, Timer};
use common::value::Envelope;
use common::wire::{get_varint, put_varint};
use common::SimTime;
use coord::{PartitionInfo, Registry, RingConfig};
use multiring::client::{Action, ClosedLoopClient, CommandSpec, SessionCore};
use multiring::{HostOptions, MultiRingHost, ServiceApp, SessionApp};
use ringpaxos::options::RingOptions;
use simnet::{CoordProcess, CpuModel, Sim, Topology};
use storage::{DiskProfile, StorageMode};

/// Executions per `(session, seq)`, as one replica's service saw them.
type Executions = Arc<Mutex<BTreeMap<(u64, u64), u32>>>;

/// A service that counts how often each `(session, seq)` executes and
/// remembers the sessions the table removed. Its counts are its state:
/// they travel in checkpoints, so a restored replica keeps its history.
struct CountingApp {
    executions: Executions,
    removed: Arc<Mutex<Vec<u64>>>,
}

impl ServiceApp for CountingApp {
    fn execute(&mut self, _group: RingId, env: &Envelope) -> Bytes {
        let mut executions = self.executions.lock().unwrap();
        *executions.entry((env.session, env.req.raw())).or_default() += 1;
        env.cmd.clone()
    }

    fn snapshot(&self) -> Bytes {
        let executions = self.executions.lock().unwrap();
        let mut buf = BytesMut::new();
        put_varint(&mut buf, executions.len() as u64);
        for ((session, seq), n) in executions.iter() {
            put_varint(&mut buf, *session);
            put_varint(&mut buf, *seq);
            put_varint(&mut buf, u64::from(*n));
        }
        buf.freeze()
    }

    fn restore(&mut self, state: &Bytes) {
        let mut raw = state.clone();
        let mut restored = BTreeMap::new();
        for _ in 0..get_varint(&mut raw).unwrap() {
            let key = (get_varint(&mut raw).unwrap(), get_varint(&mut raw).unwrap());
            restored.insert(key, get_varint(&mut raw).unwrap() as u32);
        }
        *self.executions.lock().unwrap() = restored;
    }

    fn reset(&mut self) {
        self.executions.lock().unwrap().clear();
    }

    fn session_removed(&mut self, session: u64) {
        self.removed.lock().unwrap().push(session);
    }
}

const RING: RingId = RingId::new(0);

/// One partition of three replicas (nodes 0–2) on ring 0, each running
/// `SessionApp(CountingApp)`; returns what each replica's service saw.
fn deploy(
    sim: &mut Sim,
    registry: &Registry,
    opts: &HostOptions,
) -> Vec<(Executions, Arc<Mutex<Vec<u64>>>)> {
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    let cfg = RingConfig::new(RING, members.clone(), members.clone()).unwrap();
    registry.register_ring(cfg).unwrap();
    let info = PartitionInfo {
        rings: vec![RING],
        replicas: members.clone(),
    };
    registry
        .register_partition(PartitionId::new(0), info)
        .unwrap();
    let mut seen = Vec::new();
    for m in &members {
        let (executions, removed) = (Executions::default(), Arc::default());
        let app = CountingApp {
            executions: executions.clone(),
            removed: Arc::clone(&removed),
        };
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &[RING],
            &[RING],
            Some(PartitionId::new(0)),
            Box::new(SessionApp::new(Box::new(app))),
            opts.clone(),
        );
        sim.add_node_with_cpu(0, host, CpuModel::free());
        seen.push((executions, removed));
    }
    seen
}

fn lan_sim(seed: u64) -> Sim {
    let mut topo = Topology::lan();
    topo.set_jitter_pct(20);
    Sim::with_topology(seed, topo)
}

fn block_both(sim: &mut Sim, a: NodeId, b: NodeId) {
    sim.block_link(a, b);
    sim.block_link(b, a);
}

fn unblock_both(sim: &mut Sim, a: NodeId, b: NodeId) {
    sim.unblock_link(a, b);
    sim.unblock_link(b, a);
}

/// The client re-sends every request faster than a round trip, so each
/// re-send goes to the next replica and the ring orders the same
/// `(session, seq)` several times; its links to one replica and then
/// another go dark for a while; a replica crashes, restarts and recovers
/// from a peer's checkpoint. Every acknowledged request still executed
/// exactly once, on every replica.
#[test]
fn every_acknowledged_request_executes_exactly_once_on_every_replica() {
    let registry = Registry::new();
    let mut sim = lan_sim(11);
    let opts = HostOptions {
        ring: RingOptions {
            storage: StorageMode::Async(DiskProfile::ssd()),
            heartbeat_interval: Duration::from_millis(20),
            failure_timeout: Duration::from_millis(300),
            proposal_retry: Duration::from_millis(500),
            ..RingOptions::default()
        },
        checkpoint_interval: Some(Duration::from_millis(400)),
        trim_interval: Some(Duration::from_millis(600)),
        checkpoint_storage: StorageMode::Sync(DiskProfile::ssd()),
        ..HostOptions::default()
    };
    let replicas = deploy(&mut sim, &registry, &opts);
    // A request's round trip takes at least the two 100 µs LAN hops
    // between client and replica; the client re-sends after 50 µs.
    let client = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(RING, NodeId::new(0))]),
        |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(RING, Bytes::from_static(b"inc"), vec![PartitionId::new(0)])
        },
        2,
    )
    .with_retry_after(Duration::from_micros(50));
    let stats = client.stats();
    let me = sim.add_node_with_cpu(0, client, CpuModel::free());
    CoordProcess::add_to(&mut sim, 0, &registry);
    let [r0, r1, r2] = [0, 1, 2].map(NodeId::new);

    sim.schedule_crash(r2, SimTime::from_millis(1_000));
    sim.schedule_restart(r2, SimTime::from_millis(2_000));
    sim.run_until(SimTime::from_millis(500));
    block_both(&mut sim, me, r0);
    sim.run_until(SimTime::from_millis(800));
    unblock_both(&mut sim, me, r0);
    sim.run_until(SimTime::from_millis(1_300));
    block_both(&mut sim, me, r1);
    sim.run_until(SimTime::from_millis(1_600));
    unblock_both(&mut sim, me, r1);
    sim.run_until(SimTime::from_millis(3_000));
    // Cut the client off and let the replicas converge.
    for r in [r0, r1, r2] {
        block_both(&mut sim, me, r);
    }
    sim.run_until(SimTime::from_millis(4_000));

    let (completed, sent) = (stats.borrow().completed, stats.borrow().sent);
    assert!(completed > 200, "the service stayed available: {completed}");
    assert!(
        sent > 2 * completed,
        "re-sends: {sent} frames for {completed}"
    );
    assert_eq!(sim.obs().counter("node_restarts").get(), 1);
    let executed: Vec<BTreeMap<(u64, u64), u32>> = (replicas.iter())
        .map(|(executions, _)| executions.lock().unwrap().clone())
        .collect();
    for (r, seen) in executed.iter().enumerate() {
        let twice: Vec<_> = seen.iter().filter(|(_, n)| **n != 1).collect();
        assert!(
            twice.is_empty(),
            "replica {r} executed {twice:?} more than once"
        );
        assert!(
            seen.len() as u64 >= completed,
            "replica {r} executed {} of {completed} acknowledged requests",
            seen.len()
        );
        assert_eq!(
            seen.keys().collect::<Vec<_>>(),
            executed[0].keys().collect::<Vec<_>>()
        );
    }
}

const TIMER_SECOND: u32 = 1;

/// A bare `SessionCore` driver that sends one request at start and a
/// second one at `second_at`, and never keeps its session alive.
struct IdleClient {
    core: SessionCore,
    second_at: SimTime,
    actions: Arc<Mutex<Vec<Action>>>,
    completed: Arc<Mutex<Vec<u64>>>,
}

impl IdleClient {
    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        for (_, frame) in self.core.outbox.drain(..) {
            ctx.send(NodeId::new(0), Msg::Client(frame));
        }
    }
}

impl Process for IdleClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let first = Bytes::from_static(b"first");
        self.core.begin(RING, first, Vec::new(), None, ctx.now());
        self.flush(ctx);
        ctx.schedule_at(self.second_at, Timer::of_kind(TIMER_SECOND));
    }

    fn on_message(&mut self, _from: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        let Msg::Reply(reply) = msg else {
            return;
        };
        let action = self.core.on_reply(&reply, ctx.now());
        if action != Action::None {
            self.actions.lock().unwrap().push(action);
        }
        while let Some(done) = self.core.take_ready() {
            self.completed.lock().unwrap().push(done.seq);
        }
        self.flush(ctx);
    }

    fn on_timer(&mut self, _timer: Timer, ctx: &mut Ctx<'_>) {
        let second = Bytes::from_static(b"second");
        self.core.begin(RING, second, Vec::new(), None, ctx.now());
        self.flush(ctx);
    }
}

/// The host's expiry sweep runs on the simulated clock: a session idle
/// past its TTL is expired on every replica, the client's next request is
/// answered `ST_UNKNOWN_SESSION` unexecuted, and the client re-opens and
/// completes it exactly once under the new session.
#[test]
fn an_idle_session_expires_and_its_next_request_completes_once_under_a_new_one() {
    let registry = Registry::new();
    let mut sim = lan_sim(5);
    let opts = HostOptions {
        ring: RingOptions {
            storage: StorageMode::InMemory,
            ..RingOptions::crash_free()
        },
        session_sweep: Duration::from_millis(50),
        ..HostOptions::default()
    };
    let replicas = deploy(&mut sim, &registry, &opts);
    let (actions, completed) = (Arc::default(), Arc::default());
    let client = IdleClient {
        core: SessionCore::new(8, Duration::from_millis(300)),
        second_at: SimTime::from_millis(1_500),
        actions: Arc::clone(&actions),
        completed: Arc::clone(&completed),
    };
    sim.add_node_with_cpu(0, client, CpuModel::free());
    CoordProcess::add_to(&mut sim, 0, &registry);
    // Long enough to expire the first session, short of the second's TTL.
    sim.run_until(SimTime::from_millis(1_700));

    let actions = actions.lock().unwrap().clone();
    let opened = (actions.iter())
        .filter(|a| **a == Action::Opened(RING))
        .count();
    assert_eq!(opened, 2, "opened, expired, re-opened: {actions:?}");
    assert!(actions.contains(&Action::SessionLost(RING)), "{actions:?}");
    assert_eq!(*completed.lock().unwrap(), [1, 2]);
    for (r, (executions, removed)) in replicas.iter().enumerate() {
        let executions = executions.lock().unwrap().clone();
        let sessions: Vec<u64> = executions.keys().map(|(session, _)| *session).collect();
        assert_eq!(
            executions.values().collect::<Vec<_>>(),
            [&1, &1],
            "replica {r}"
        );
        assert_ne!(
            sessions[0], sessions[1],
            "replica {r}: seq 2 ran under a new session"
        );
        let seqs: Vec<u64> = executions.keys().map(|(_, seq)| *seq).collect();
        assert_eq!(seqs, [1, 2], "replica {r}");
        assert_eq!(*removed.lock().unwrap(), [sessions[0]], "replica {r}");
    }
}
