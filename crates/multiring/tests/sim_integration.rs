//! End-to-end simulations of Multi-Ring Paxos hosts: clients, multiple
//! rings with rate leveling, checkpointing, trimming and crash recovery.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use common::ids::{ClientId, NodeId, PartitionId, RequestId, RingId};
use common::msg::{Msg, RecoveryMsg};
use common::obs::Obs;
use common::process::{Ctx, Process, Timer};
use common::value::Envelope;
use common::SimTime;
use coord::{PartitionInfo, Registry, RingConfig};
use multiring::client::{ClosedLoopClient, CommandSpec};
use multiring::{EchoApp, HostOptions, MultiRingHost, ServiceApp, SessionApp};
use ringpaxos::options::{RateLeveling, RingOptions};
use simnet::{CoordProcess, CpuModel, Sim, Topology};
use storage::{DiskProfile, StorageMode};

fn lan_sim(seed: u64) -> Sim {
    let mut topo = Topology::lan();
    topo.set_jitter_pct(1);
    Sim::with_topology(seed, topo)
}

fn ring_opts() -> RingOptions {
    RingOptions {
        storage: StorageMode::InMemory,
        heartbeat_interval: Duration::from_millis(20),
        failure_timeout: Duration::from_millis(200),
        proposal_retry: Duration::from_millis(500),
        ..RingOptions::default()
    }
}

/// 3 hosts form one ring (all acceptors, all replicas of partition 0);
/// one closed-loop client drives requests at host 0.
#[test]
fn single_ring_service_executes_and_replies() {
    let registry = Registry::new();
    let ring = RingId::new(0);
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    registry
        .register_ring(RingConfig::new(ring, members.clone(), members.clone()).unwrap())
        .unwrap();
    registry
        .register_partition(
            PartitionId::new(0),
            PartitionInfo {
                rings: vec![ring],
                replicas: members.clone(),
            },
        )
        .unwrap();

    let mut sim = lan_sim(1);
    for m in &members {
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &[ring],
            &[ring],
            Some(PartitionId::new(0)),
            Box::new(SessionApp::new(Box::new(EchoApp::new()))),
            HostOptions {
                ring: ring_opts(),
                ..HostOptions::default()
            },
        );
        sim.add_node_with_cpu(0, host, CpuModel::free());
    }
    let client = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(ring, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(ring, Bytes::from_static(b"cmd"), vec![PartitionId::new(0)])
        },
        4,
    );
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());
    CoordProcess::add_to(&mut sim, 0, &registry);

    sim.run_until(SimTime::from_secs(2));

    let s = stats.borrow();
    assert!(
        s.completed > 100,
        "client should complete many requests, got {}",
        s.completed
    );
    // Latency should be a few ring hops on a 0.1 ms RTT LAN.
    let p50 = s.latency.quantile(0.5);
    assert!(
        p50 < 5_000_000,
        "median latency should be sub-5ms, got {p50}ns"
    );
}

/// Two rings with unbalanced load: ring 0 carries traffic, ring 1 is
/// idle. Without rate leveling the merge would stall; skips keep it
/// moving.
#[test]
fn rate_leveling_unblocks_idle_ring() {
    let registry = Registry::new();
    let r0 = RingId::new(0);
    let r1 = RingId::new(1);
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    for r in [r0, r1] {
        registry
            .register_ring(RingConfig::new(r, members.clone(), members.clone()).unwrap())
            .unwrap();
    }
    registry
        .register_partition(
            PartitionId::new(0),
            PartitionInfo {
                rings: vec![r0, r1],
                replicas: members.clone(),
            },
        )
        .unwrap();

    let mut sim = lan_sim(2);
    for m in &members {
        let mut opts = ring_opts();
        opts.rate_leveling = Some(RateLeveling {
            delta: Duration::from_millis(5),
            lambda: 9000,
        });
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &[r0, r1],
            &[r0, r1],
            Some(PartitionId::new(0)),
            Box::new(SessionApp::new(Box::new(EchoApp::new()))),
            HostOptions {
                ring: opts,
                ..HostOptions::default()
            },
        );
        sim.add_node_with_cpu(0, host, CpuModel::free());
    }
    let client = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(r0, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(
                r0,
                Bytes::from_static(b"only-ring-0"),
                vec![PartitionId::new(0)],
            )
        },
        2,
    );
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());
    CoordProcess::add_to(&mut sim, 0, &registry);

    sim.run_until(SimTime::from_secs(2));
    let done = stats.borrow().completed;
    assert!(
        done > 50,
        "requests multicast to ring 0 must deliver despite idle ring 1 (got {done})"
    );
}

/// The Figure 8 scenario in miniature: checkpoints + trimming run, a
/// replica crashes, restarts, fetches a checkpoint from a peer and
/// catches up from the acceptors.
#[test]
fn replica_recovers_after_crash_with_trimming() {
    let registry = Registry::new();
    let ring = RingId::new(0);
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    registry
        .register_ring(RingConfig::new(ring, members.clone(), members.clone()).unwrap())
        .unwrap();
    registry
        .register_partition(
            PartitionId::new(0),
            PartitionInfo {
                rings: vec![ring],
                replicas: members.clone(),
            },
        )
        .unwrap();

    let mut sim = lan_sim(3);
    let host_opts = HostOptions {
        ring: RingOptions {
            storage: StorageMode::Async(DiskProfile::ssd()),
            heartbeat_interval: Duration::from_millis(20),
            failure_timeout: Duration::from_millis(300),
            proposal_retry: Duration::from_millis(500),
            ..RingOptions::default()
        },
        checkpoint_interval: Some(Duration::from_millis(500)),
        trim_interval: Some(Duration::from_millis(700)),
        checkpoint_storage: StorageMode::Sync(DiskProfile::ssd()),
        ..HostOptions::default()
    };
    for m in &members {
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &[ring],
            &[ring],
            Some(PartitionId::new(0)),
            Box::new(SessionApp::new(Box::new(EchoApp::new()))),
            host_opts.clone(),
        );
        sim.add_node_with_cpu(0, host, CpuModel::free());
    }
    let client = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(ring, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(
                ring,
                Bytes::from_static(b"recovering"),
                vec![PartitionId::new(0)],
            )
        },
        2,
    );
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());
    CoordProcess::add_to(&mut sim, 0, &registry);

    // Crash replica 2 at t=2s, restart at t=5s, run until t=9s.
    sim.schedule_crash(NodeId::new(2), SimTime::from_secs(2));
    sim.schedule_restart(NodeId::new(2), SimTime::from_secs(5));
    sim.run_until(SimTime::from_secs(9));

    // Service stayed available throughout (majority up).
    let done = stats.borrow().completed;
    assert!(done > 200, "service must stay available, got {done}");

    // The metrics show the crash/restart happened.
    assert_eq!(sim.obs().counter("node_crashes").get(), 1);
    assert_eq!(sim.obs().counter("node_restarts").get(), 1);
}

/// A host the test can still read after handing it to the simulator.
/// While `deaf` is set it drops every retransmission reply it is sent.
struct Shared {
    host: Rc<RefCell<MultiRingHost>>,
    deaf: Rc<Cell<bool>>,
}

impl Process for Shared {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.host.borrow_mut().on_start(ctx);
    }
    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        if self.deaf.get() && matches!(msg, Msg::Recovery(RecoveryMsg::RetransmitReply { .. })) {
            return;
        }
        self.host.borrow_mut().on_message(from, msg, ctx);
    }
    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        self.host.borrow_mut().on_timer(timer, ctx);
    }
    fn on_crash(&mut self, now: SimTime) {
        self.host.borrow_mut().on_crash(now);
    }
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.host.borrow_mut().on_restart(ctx);
    }
}

/// Adds a host to `sim` behind a [`Shared`] handle.
fn add_shared(sim: &mut Sim, host: MultiRingHost) -> (Rc<RefCell<MultiRingHost>>, Rc<Cell<bool>>) {
    let (host, deaf) = (Rc::new(RefCell::new(host)), Rc::new(Cell::new(false)));
    let shared = Shared {
        host: Rc::clone(&host),
        deaf: Rc::clone(&deaf),
    };
    sim.add_node_with_cpu(0, shared, CpuModel::free());
    (host, deaf)
}

/// Trimming completes on a 2-replica partition. Its majority is both
/// replicas, so the trim coordinator's own reply — given inline, while
/// it fans its query out — is part of every quorum; a round that is not
/// yet registered when that reply arrives drops it and never completes.
/// Both the partition ring and the global ring must trim on every
/// acceptor within a few checkpoint intervals.
#[test]
fn two_replica_partition_trims_both_of_its_rings() {
    let registry = Registry::new();
    let (local, global) = (RingId::new(0), RingId::new(1));
    let members: Vec<NodeId> = (0..2).map(NodeId::new).collect();
    for r in [local, global] {
        registry
            .register_ring(RingConfig::new(r, members.clone(), members.clone()).unwrap())
            .unwrap();
    }
    registry
        .register_partition(
            PartitionId::new(0),
            PartitionInfo {
                rings: vec![local, global],
                replicas: members.clone(),
            },
        )
        .unwrap();

    let mut sim = lan_sim(4);
    let mut opts = ring_opts();
    // The global ring idles: skips keep the merge (and so the
    // checkpoints' cut on it) moving.
    opts.rate_leveling = Some(RateLeveling {
        delta: Duration::from_millis(5),
        lambda: 9000,
    });
    let hosts: Vec<_> = members
        .iter()
        .map(|m| {
            let host = MultiRingHost::new(
                *m,
                registry.clone(),
                &[local, global],
                &[local, global],
                Some(PartitionId::new(0)),
                Box::new(SessionApp::new(Box::new(EchoApp::new()))),
                HostOptions {
                    ring: opts.clone(),
                    checkpoint_interval: Some(Duration::from_millis(200)),
                    trim_interval: Some(Duration::from_millis(200)),
                    ..HostOptions::default()
                },
            );
            add_shared(&mut sim, host).0
        })
        .collect();
    let client = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(local, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(
                local,
                Bytes::from_static(b"trim"),
                vec![PartitionId::new(0)],
            )
        },
        2,
    );
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());
    CoordProcess::add_to(&mut sim, 0, &registry);

    sim.run_until(SimTime::from_secs(2));

    assert!(stats.borrow().completed > 100, "the load ran");
    for (m, host) in members.iter().zip(&hosts) {
        let host = host.borrow();
        for ring in [local, global] {
            let log = host.ring_node(ring).unwrap().log();
            assert!(
                log.trim_floor().raw() > 0,
                "acceptor {m} never trimmed ring {ring} ({} slots retained)",
                log.len()
            );
        }
    }
}

/// A restarted replica whose catch-up a trim overtakes comes back
/// through a newer peer checkpoint. The replica installs a peer's
/// checkpoint, then hears no retransmission reply while its peers keep
/// checkpointing and trimming; by the time it does, the acceptors have
/// trimmed past the checkpoint it holds. The reply's `log_start` says
/// so, and the replica must start recovery over — replaying what is
/// left would leave it a hole below the trim floor for good.
#[test]
fn catch_up_overtaken_by_a_trim_restarts_from_a_newer_checkpoint() {
    let registry = Registry::new();
    let ring = RingId::new(0);
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    registry
        .register_ring(RingConfig::new(ring, members.clone(), members.clone()).unwrap())
        .unwrap();
    registry
        .register_partition(
            PartitionId::new(0),
            PartitionInfo {
                rings: vec![ring],
                replicas: members.clone(),
            },
        )
        .unwrap();

    let mut sim = lan_sim(5);
    let hosts: Vec<_> = members
        .iter()
        .map(|m| {
            let host = MultiRingHost::new(
                *m,
                registry.clone(),
                &[ring],
                &[ring],
                Some(PartitionId::new(0)),
                Box::new(SessionApp::new(Box::new(EchoApp::new()))),
                HostOptions {
                    ring: ring_opts(),
                    checkpoint_interval: Some(Duration::from_millis(100)),
                    trim_interval: Some(Duration::from_millis(100)),
                    ..HostOptions::default()
                },
            );
            add_shared(&mut sim, host)
        })
        .collect();
    let client = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(ring, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(
                ring,
                Bytes::from_static(b"ahead"),
                vec![PartitionId::new(0)],
            )
        },
        2,
    );
    sim.add_node_with_cpu(0, client, CpuModel::free());
    CoordProcess::add_to(&mut sim, 0, &registry);

    let victim = NodeId::new(2);
    let (host, deaf) = &hosts[2];
    sim.schedule_crash(victim, SimTime::from_secs(1));
    sim.schedule_restart(victim, SimTime::from_secs(2));
    sim.run_until(SimTime::from_millis(1500));
    deaf.set(true);
    sim.run_until(SimTime::from_millis(2500));
    // The replica sits at a peer's checkpoint, asking the acceptors for
    // what follows it, and they trimmed past it meanwhile.
    let held = host.borrow().checkpoint_tuple().unwrap().get(ring).unwrap();
    let floor = hosts[0]
        .0
        .borrow()
        .ring_node(ring)
        .unwrap()
        .log()
        .trim_floor();
    assert!(
        floor > held,
        "the acceptors trimmed past {held} (floor {floor})"
    );

    deaf.set(false);
    sim.run_until(SimTime::from_secs(4));
    let host = host.borrow();
    assert!(
        !host.is_recovering(),
        "the replica never finished recovering (it holds {:?}, the floor is {floor})",
        host.checkpoint_tuple()
    );
    assert!(host.checkpoint_tuple().unwrap().get(ring).unwrap() > floor);
}

/// The `geo_wan` layout in simulated time: one partition per region of
/// the paper's three, partition ring *p* = nodes `[2p, 2p+1]`, one global
/// ring over all six. A client in us-east drives its own partition only
/// and now and then a command for all three. The global ring idles
/// between those, so its skip credit reaches us-east an inter-region
/// delay late and a whole stride at a time; local commands must find it
/// waiting (the wider ring runs ahead of the narrower, see
/// `MultiRingHost::nudge_starved_ring`), not wait for the next burst.
#[test]
fn region_local_commands_do_not_wait_for_an_idle_global_ring() {
    use common::geo::{Region, WanProfile};

    let registry = Registry::new();
    let global = RingId::new(3);
    let everyone: Vec<NodeId> = (0..6).map(NodeId::new).collect();
    for p in 0..3u16 {
        let replicas: Vec<NodeId> = everyone[usize::from(p) * 2..][..2].to_vec();
        registry
            .register_ring(
                RingConfig::new(RingId::new(p), replicas.clone(), replicas.clone()).unwrap(),
            )
            .unwrap();
        registry
            .register_partition(
                PartitionId::new(p),
                PartitionInfo {
                    rings: vec![RingId::new(p), global],
                    replicas,
                },
            )
            .unwrap();
    }
    registry
        .register_ring(RingConfig::new(global, everyone.clone(), everyone.clone()).unwrap())
        .unwrap();

    let mut topo = Topology::from_profile(&WanProfile::ec2_2014());
    topo.set_jitter_pct(1);
    let mut sim = Sim::with_topology(7, topo);
    let site = |p: usize| Topology::site_of_region(Region::PAPER_THREE[p]);
    for m in &everyone {
        let p = m.raw() as usize / 2;
        let rings = [RingId::new(p as u16), global];
        let mut opts = ring_opts();
        opts.failure_timeout = Duration::ZERO; // nobody fails here
        opts.rate_leveling = Some(RateLeveling {
            delta: Duration::from_millis(1),
            lambda: 9000,
        });
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &rings,
            &rings,
            Some(PartitionId::new(p as u16)),
            Box::new(SessionApp::new(Box::new(EchoApp::new()))),
            HostOptions {
                ring: opts,
                ..HostOptions::default()
            },
        );
        sim.add_node_with_cpu(site(p), host, CpuModel::free());
    }
    let local = RingId::new(1);
    let single = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(local, NodeId::new(2))]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(
                local,
                Bytes::from_static(b"local"),
                vec![PartitionId::new(1)],
            )
        },
        1,
    )
    .with_rate_cap(300.0);
    let multi = ClosedLoopClient::new(
        ClientId::new(2),
        registry.clone(),
        HashMap::from([(global, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            let all = (0..3).map(PartitionId::new).collect();
            CommandSpec::simple(global, Bytes::from_static(b"everywhere"), all)
        },
        1,
    );
    let (single_stats, multi_stats) = (single.stats(), multi.stats());
    sim.add_node_with_cpu(site(1), single, CpuModel::free());
    sim.add_node_with_cpu(site(1), multi, CpuModel::free());
    CoordProcess::add_to(&mut sim, site(0), &registry);

    sim.run_until(SimTime::from_secs(4));

    let s = single_stats.borrow();
    let (p50, p95) = (s.latency.quantile(0.5), s.latency.quantile(0.95));
    assert!(s.completed > 1000, "{}", s.completed);
    assert!(
        p50 < 2_000_000 && p95 < 5_000_000,
        "region-local latency p50 {p50} ns, p95 {p95} ns"
    );
    // And the commands for everyone pay four ocean crossings, not a lap
    // more: client to coordinator, majority, outcome, reply.
    let m = multi_stats.borrow();
    assert!(m.completed > 10, "{}", m.completed);
    let multi_p50 = m.latency.quantile(0.5);
    assert!(
        multi_p50 < 175_000_000,
        "multi-partition p50 {multi_p50} ns"
    );
}

/// Two partitions on two-member rings, both reading a global ring over
/// all four nodes that carries back-to-back commands beside paced local
/// ones. The partition rings follow the global ring: their coordinators'
/// hosts keep no Δ clock for them (`MultiRingHost::leads`), so they
/// propose no clock skips, only the top-ups their merge asks for. Every
/// global command still reaches both partitions, and a local command
/// finds the global ring's credit waiting in the merge instead of
/// waiting there for it.
#[test]
fn partition_rings_follow_the_global_ring() {
    let registry = Registry::new();
    let global = RingId::new(2);
    let everyone: Vec<NodeId> = (0..4).map(NodeId::new).collect();
    for p in 0..2u16 {
        let replicas: Vec<NodeId> = everyone[usize::from(p) * 2..][..2].to_vec();
        let ring = RingConfig::new(RingId::new(p), replicas.clone(), replicas.clone()).unwrap();
        registry.register_ring(ring).unwrap();
        let rings = vec![RingId::new(p), global];
        let info = PartitionInfo { rings, replicas };
        registry
            .register_partition(PartitionId::new(p), info)
            .unwrap();
    }
    registry
        .register_ring(RingConfig::new(global, everyone.clone(), everyone.clone()).unwrap())
        .unwrap();

    let mut sim = lan_sim(11);
    let mut observed = Vec::new();
    for m in &everyone {
        let p = m.raw() as u16 / 2;
        let rings = [RingId::new(p), global];
        let mut opts = ring_opts();
        opts.rate_leveling = Some(RateLeveling {
            delta: Duration::from_millis(1),
            lambda: 9000,
        });
        opts.obs = Obs::default();
        observed.push(opts.obs.clone());
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &rings,
            &rings,
            Some(PartitionId::new(p)),
            Box::new(SessionApp::new(Box::new(EchoApp::new()))),
            HostOptions {
                ring: opts,
                ..HostOptions::default()
            },
        );
        sim.add_node_with_cpu(0, host, CpuModel::free());
    }
    for p in 0..2u16 {
        let local = RingId::new(p);
        let client = ClosedLoopClient::new(
            ClientId::new(u32::from(p) + 1),
            registry.clone(),
            HashMap::from([(local, NodeId::new(u32::from(p) * 2))]),
            move |_rng: &mut rand::rngs::StdRng| {
                CommandSpec::simple(
                    local,
                    Bytes::from_static(b"local"),
                    vec![PartitionId::new(p)],
                )
            },
            1,
        )
        .with_rate_cap(300.0);
        sim.add_node_with_cpu(0, client, CpuModel::free());
    }
    let multi = ClosedLoopClient::new(
        ClientId::new(3),
        registry.clone(),
        HashMap::from([(global, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            let both = vec![PartitionId::new(0), PartitionId::new(1)];
            CommandSpec::simple(global, Bytes::from_static(b"both"), both)
        },
        1,
    );
    let multi_stats = multi.stats();
    sim.add_node_with_cpu(0, multi, CpuModel::free());
    CoordProcess::add_to(&mut sim, 0, &registry);

    let wait = |obs: &Obs, ring: u16| {
        let snap = obs.snapshot();
        let h = snap.hist(&format!("ring{ring}_merge_wait_nanos")).copied();
        h.map_or((0, 0), |h| (h.count, h.sum))
    };
    sim.run_until(SimTime::from_secs(1));
    let warm: Vec<_> = (observed.iter().enumerate())
        .map(|(i, obs)| wait(obs, i as u16 / 2))
        .collect();
    sim.run_until(SimTime::from_secs(3));

    let completed = multi_stats.borrow().completed;
    assert!(completed > 500, "global commands completed: {completed}");
    for (i, obs) in observed.iter().enumerate() {
        let own = i as u16 / 2;
        let snap = obs.snapshot();
        let counter = |name: String| snap.counter(&name).unwrap_or(0);
        let delivered = counter(format!("ring{}_delivered_cmds", global.raw()));
        assert!(
            delivered >= completed,
            "node {i} delivered {delivered} of {completed} global commands"
        );
        assert_eq!(counter(format!("ring{own}_clock_skips")), 0, "node {i}");
        let (count, sum) = wait(obs, own);
        assert!(
            count > warm[i].0 + 300,
            "node {i}: {count} local deliveries"
        );
        assert_eq!(
            sum,
            warm[i].1,
            "node {i}: local commands waited {} ns in the merge after the warm-up",
            sum - warm[i].1
        );
    }
    // The global ring leads: its coordinator keeps the Δ clock.
    let lead = observed[0].snapshot();
    assert!(
        lead.counter(&format!("ring{}_clock_skips", global.raw()))
            .unwrap_or(0)
            > 0
    );
}

/// Two partitions on three-member rings beside an idle global ring over
/// all six nodes, coordinated by node 1. The partition rings follow, so
/// only node 1's host keeps the Δ clock, and partition 1 — none of whose
/// replicas coordinates the global ring — needs that clock's skips for
/// every local command (partition 0's slower commands would top the
/// global ring up only at their own pace). Node 1 crashes; once the
/// global ring reconfigures, its new coordinator's host keeps the clock,
/// and both partitions' merges keep delivering local commands (and the
/// rare global one).
#[test]
fn a_new_global_coordinator_keeps_the_partitions_delivering() {
    let registry = Registry::new();
    let global = RingId::new(2);
    let everyone: Vec<NodeId> = (0..6).map(NodeId::new).collect();
    for p in 0..2u16 {
        let replicas: Vec<NodeId> = everyone[usize::from(p) * 3..][..3].to_vec();
        let ring = RingConfig::new(RingId::new(p), replicas.clone(), replicas.clone()).unwrap();
        registry.register_ring(ring).unwrap();
        let rings = vec![RingId::new(p), global];
        let info = PartitionInfo { rings, replicas };
        registry
            .register_partition(PartitionId::new(p), info)
            .unwrap();
    }
    let mut acceptors = everyone.clone();
    acceptors.swap(0, 1);
    let cfg = RingConfig::new(global, everyone.clone(), acceptors).unwrap();
    assert_eq!(cfg.coordinator(), NodeId::new(1));
    registry.register_ring(cfg).unwrap();

    let mut sim = lan_sim(13);
    let mut observed = Vec::new();
    for m in &everyone {
        let p = m.raw() as u16 / 3;
        let rings = [RingId::new(p), global];
        let mut opts = ring_opts();
        opts.rate_leveling = Some(RateLeveling {
            delta: Duration::from_millis(1),
            lambda: 9000,
        });
        opts.obs = Obs::default();
        observed.push(opts.obs.clone());
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &rings,
            &rings,
            Some(PartitionId::new(p)),
            Box::new(SessionApp::new(Box::new(EchoApp::new()))),
            HostOptions {
                ring: opts,
                ..HostOptions::default()
            },
        );
        sim.add_node_with_cpu(0, host, CpuModel::free());
    }
    let rates = [50.0, 300.0];
    for p in 0..2u16 {
        let local = RingId::new(p);
        let client = ClosedLoopClient::new(
            ClientId::new(u32::from(p) + 1),
            registry.clone(),
            HashMap::from([(local, NodeId::new(u32::from(p) * 3))]),
            move |_rng: &mut rand::rngs::StdRng| {
                CommandSpec::simple(
                    local,
                    Bytes::from_static(b"local"),
                    vec![PartitionId::new(p)],
                )
            },
            1,
        )
        .with_rate_cap(rates[usize::from(p)]);
        sim.add_node_with_cpu(0, client, CpuModel::free());
    }
    let multi = ClosedLoopClient::new(
        ClientId::new(3),
        registry.clone(),
        HashMap::from([(global, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            let both = vec![PartitionId::new(0), PartitionId::new(1)];
            CommandSpec::simple(global, Bytes::from_static(b"both"), both)
        },
        1,
    )
    .with_rate_cap(20.0);
    sim.add_node_with_cpu(0, multi, CpuModel::free());
    CoordProcess::add_to(&mut sim, 0, &registry);

    let victim = NodeId::new(1);
    sim.schedule_crash(victim, SimTime::from_secs(1));
    sim.run_until(SimTime::from_secs(2));
    let after = registry.ring(global).unwrap();
    assert!(
        !after.contains(victim),
        "the crashed coordinator was reported"
    );
    let lead = after.coordinator();
    let delivered = |obs: &Obs, ring: u16| {
        let name = format!("ring{ring}_delivered_cmds");
        obs.snapshot().counter(&name).unwrap_or(0)
    };
    let skips = |obs: &Obs| {
        let name = format!("ring{}_clock_skips", global.raw());
        obs.snapshot().counter(&name).unwrap_or(0)
    };
    let at_two: Vec<_> = (observed.iter().enumerate())
        .map(|(i, obs)| (delivered(obs, i as u16 / 3), delivered(obs, global.raw())))
        .collect();
    let lead_skips = skips(&observed[lead.raw() as usize]);
    sim.run_until(SimTime::from_secs(4));

    for (i, obs) in observed.iter().enumerate() {
        if i == victim.raw() as usize {
            continue;
        }
        let own = delivered(obs, i as u16 / 3) - at_two[i].0;
        let both = delivered(obs, global.raw()) - at_two[i].1;
        let paced = rates[i / 3] as u64; // two seconds, at least half the pace
        assert!(
            own > paced,
            "node {i} delivered {own} local commands in 2 s"
        );
        assert!(
            both > 10,
            "node {i} delivered {both} global commands in 2 s"
        );
    }
    let lead_obs = &observed[lead.raw() as usize];
    assert!(
        skips(lead_obs) > lead_skips,
        "the new coordinator {lead} keeps the clock"
    );
}

/// A restarting replica takes part in its ring again only once
/// coordination answers its rejoin: while the link between them is cut
/// the ask goes unanswered and is asked again, and the answer that gets
/// through restarts its ring node.
#[test]
fn a_restart_rejoins_its_ring_once_coordination_answers() {
    let registry = Registry::new();
    let ring = RingId::new(0);
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    registry
        .register_ring(RingConfig::new(ring, members.clone(), members.clone()).unwrap())
        .unwrap();
    registry
        .register_partition(
            PartitionId::new(0),
            PartitionInfo {
                rings: vec![ring],
                replicas: members.clone(),
            },
        )
        .unwrap();
    let mut sim = lan_sim(6);
    let hosts: Vec<_> = (members.iter())
        .map(|m| {
            let host = MultiRingHost::new(
                *m,
                registry.clone(),
                &[ring],
                &[ring],
                Some(PartitionId::new(0)),
                Box::new(SessionApp::new(Box::new(EchoApp::new()))),
                HostOptions {
                    ring: ring_opts(),
                    checkpoint_interval: Some(Duration::from_millis(100)),
                    ..HostOptions::default()
                },
            );
            add_shared(&mut sim, host).0
        })
        .collect();
    let client = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(ring, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(ring, Bytes::from_static(b"w"), vec![PartitionId::new(0)])
        },
        2,
    );
    sim.add_node_with_cpu(0, client, CpuModel::free());
    let coord = CoordProcess::add_to(&mut sim, 0, &registry);

    let victim = NodeId::new(2);
    sim.schedule_crash(victim, SimTime::from_secs(1));
    sim.schedule_restart(victim, SimTime::from_secs(2));
    sim.run_until(SimTime::from_millis(1900));
    assert!(
        !registry.ring(ring).unwrap().contains(victim),
        "the crashed member was reported"
    );
    sim.partition(&[victim], &[coord]);
    sim.run_until(SimTime::from_secs(3));
    assert!(
        !registry.ring(ring).unwrap().contains(victim),
        "a rejoin got through a cut link"
    );
    sim.heal_all();
    sim.run_until(SimTime::from_secs(4));
    assert!(
        registry.ring(ring).unwrap().contains(victim),
        "never rejoined"
    );
    let host = hosts[2].borrow();
    assert!(host.ring_node(ring).unwrap().config().contains(victim));
    assert!(!host.is_recovering());
    assert!(host.executed() > 0, "the rejoined replica delivers");
}

/// What each replica of the cascade test delivered, in order.
type DeliveryLog = Arc<Mutex<Vec<(u64, RequestId)>>>;

/// A service that records the commands it delivers.
struct Logged(DeliveryLog);

impl ServiceApp for Logged {
    fn execute(&mut self, _: RingId, env: &Envelope) -> Bytes {
        self.0.lock().unwrap().push((env.session, env.req));
        Bytes::from_static(b"ok")
    }

    fn snapshot(&self) -> Bytes {
        Bytes::new()
    }

    fn restore(&mut self, _: &Bytes) {}

    fn reset(&mut self) {
        self.0.lock().unwrap().clear();
    }
}

/// The eviction cascade found live in a geo deployment, in simulation: a
/// replica cut off from its peers *and* from coordination suspects its
/// predecessor, but its failure reports never reach coordination, so it
/// evicts nobody and learns nothing while cut off. The majority keeps
/// ordering and evicts it; after the heal it learns that it was evicted
/// (it stays out until it rejoins), and no replica's delivery diverges.
#[test]
fn a_replica_cut_off_from_its_peers_and_coordination_evicts_nobody() {
    let registry = Registry::new();
    let ring = RingId::new(0);
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    registry
        .register_ring(RingConfig::new(ring, members.clone(), members.clone()).unwrap())
        .unwrap();
    registry
        .register_partition(
            PartitionId::new(0),
            PartitionInfo {
                rings: vec![ring],
                replicas: members.clone(),
            },
        )
        .unwrap();
    let mut sim = lan_sim(10);
    let mut hosts = Vec::new();
    let (mut logs, mut obs) = (Vec::new(), Vec::new());
    for m in &members {
        let log = DeliveryLog::default();
        let node_obs = Obs::for_node(m.raw());
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &[ring],
            &[ring],
            Some(PartitionId::new(0)),
            Box::new(SessionApp::new(Box::new(Logged(Arc::clone(&log))))),
            HostOptions {
                ring: RingOptions {
                    obs: node_obs.clone(),
                    ..ring_opts()
                },
                ..HostOptions::default()
            },
        );
        hosts.push(add_shared(&mut sim, host).0);
        logs.push(log);
        obs.push(node_obs);
    }
    let client = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(ring, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(ring, Bytes::from_static(b"w"), vec![PartitionId::new(0)])
        },
        2,
    );
    sim.add_node_with_cpu(0, client, CpuModel::free());
    let coord = CoordProcess::add_to(&mut sim, 0, &registry);

    // Every config any replica installs, as the epochs change.
    let mut installed: Vec<(usize, RingConfig)> = Vec::new();
    let run_until = |sim: &mut Sim, installed: &mut Vec<_>, until: SimTime| {
        while sim.now() < until && sim.step().is_some() {
            for (i, host) in hosts.iter().enumerate() {
                let cfg = host.borrow().ring_node(ring).unwrap().config().clone();
                let last = installed.iter().rev().find(|(at, _)| *at == i);
                if last.is_none_or(|(_, seen): &(usize, RingConfig)| seen.epoch() != cfg.epoch()) {
                    installed.push((i, cfg));
                }
            }
        }
    };
    let (minority, majority) = (NodeId::new(2), [NodeId::new(0), NodeId::new(1)]);
    let timeout = ring_opts().failure_timeout;
    run_until(&mut sim, &mut installed, SimTime::from_secs(1));
    let before_cut = logs[0].lock().unwrap().len();
    let cut_at = installed.len();
    sim.partition(&[minority], &[majority[0], majority[1], coord]);
    run_until(
        &mut sim,
        &mut installed,
        SimTime::from_secs(1) + timeout * 5,
    );
    assert!(
        logs[0].lock().unwrap().len() > before_cut + 20,
        "the majority stopped ordering"
    );
    assert!(
        !installed[cut_at..].iter().any(|(i, _)| *i == 2),
        "the cut-off replica installed a config"
    );
    sim.heal_all();
    run_until(&mut sim, &mut installed, SimTime::from_secs(4));

    for (i, cfg) in &installed {
        assert!(
            majority.iter().all(|m| cfg.contains(*m)),
            "replica {i} installed {cfg:?}, which lacks a majority member"
        );
    }
    let counter = |o: &Obs, name| o.snapshot().counter(name).unwrap_or(0);
    let gauge = |o: &Obs, name| o.snapshot().gauge(name).unwrap_or(0);
    assert!(
        counter(&obs[2], "suspicions_raised") > 0,
        "nobody suspected"
    );
    for o in &obs[..2] {
        assert_eq!(gauge(o, "evicted_epoch"), 0, "a majority member evicted");
    }
    assert!(
        gauge(&obs[2], "evicted_epoch") > 0,
        "the eviction was silent"
    );
    let logs: Vec<Vec<_>> = logs.iter().map(|l| l.lock().unwrap().clone()).collect();
    for log in &logs[1..] {
        let n = log.len().min(logs[0].len());
        assert_eq!(log[..n], logs[0][..n], "delivery diverged");
    }
    assert!(logs[1].len() > before_cut + 20, "the majority stalled");
}
