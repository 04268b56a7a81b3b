//! Workspace-level integration tests: whole services running end-to-end
//! through the facade crate, in the simulator and on the live runtime.

use std::collections::HashMap;
use std::time::Duration;

use atomic_multicast::common::ids::{ClientId, NodeId, PartitionId, RingId};
use atomic_multicast::common::wire::Wire;
use atomic_multicast::common::SimTime;
use atomic_multicast::coord::{PartitionInfo, Registry, RingConfig};
use atomic_multicast::dlog::{DlogApp, LogCommand};
use atomic_multicast::mrpstore::{KvApp, KvCommand, Partitioning};
use atomic_multicast::multiring::client::{ClosedLoopClient, CommandSpec};
use atomic_multicast::multiring::{HostOptions, MultiRingHost, SessionApp};
use atomic_multicast::ringpaxos::options::{RateLeveling, RingOptions};
use atomic_multicast::simnet::{CoordProcess, CpuModel, Region, Sim, Topology};
use atomic_multicast::storage::StorageMode;
use bytes::Bytes;

fn in_memory_opts() -> HostOptions {
    HostOptions {
        ring: RingOptions {
            storage: StorageMode::InMemory,
            rate_leveling: Some(RateLeveling::datacenter()),
            ..RingOptions::crash_free()
        },
        ..HostOptions::default()
    }
}

/// Full MRP-Store over two partitions plus a global ring: inserts then a
/// cross-partition scan, checking sequential consistency of the results.
#[test]
fn kv_store_cross_partition_scan() {
    let mut topo = Topology::lan();
    topo.set_jitter_pct(0);
    let mut sim = Sim::with_topology(21, topo);
    let registry = Registry::new();
    let scheme = Partitioning::Hash { partitions: 2 };
    scheme.publish(&registry);

    let rings = [RingId::new(0), RingId::new(1)];
    let global = RingId::new(2);
    let replicas = [
        vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
        vec![NodeId::new(3), NodeId::new(4), NodeId::new(5)],
    ];
    for (p, r) in rings.iter().enumerate() {
        registry
            .register_ring(RingConfig::new(*r, replicas[p].clone(), replicas[p].clone()).unwrap())
            .unwrap();
    }
    let all: Vec<NodeId> = replicas.iter().flatten().copied().collect();
    registry
        .register_ring(RingConfig::new(global, all.clone(), all).unwrap())
        .unwrap();
    for p in 0..2usize {
        registry
            .register_partition(
                PartitionId::new(p as u16),
                PartitionInfo {
                    rings: vec![rings[p], global],
                    replicas: replicas[p].clone(),
                },
            )
            .unwrap();
    }
    for (p, nodes) in replicas.iter().enumerate() {
        for node in nodes {
            let host = MultiRingHost::new(
                *node,
                registry.clone(),
                &[rings[p], global],
                &[rings[p], global],
                Some(PartitionId::new(p as u16)),
                Box::new(SessionApp::new(Box::new(KvApp::new(
                    PartitionId::new(p as u16),
                    scheme.clone(),
                )))),
                in_memory_opts(),
            );
            sim.add_node_with_cpu(0, host, CpuModel::free());
        }
    }

    // Insert 40 keys (hash-routed to both partitions), then scan all.
    let scheme2 = scheme.clone();
    let mut step = 0u64;
    let client = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([
            (rings[0], NodeId::new(0)),
            (rings[1], NodeId::new(3)),
            (global, NodeId::new(0)),
        ]),
        move |_rng: &mut rand::rngs::StdRng| {
            step += 1;
            if step <= 40 {
                let key = format!("key{step:04}");
                let p = scheme2.partition_of(&key);
                CommandSpec::simple(
                    rings[p.raw() as usize],
                    KvCommand::Insert {
                        key,
                        value: Bytes::from_static(b"v"),
                    }
                    .to_bytes(),
                    vec![p],
                )
            } else {
                CommandSpec::simple(
                    global,
                    KvCommand::Scan {
                        from: "key".into(),
                        to: String::new(),
                    }
                    .to_bytes(),
                    vec![PartitionId::new(0), PartitionId::new(1)],
                )
                .labeled("scan")
            }
        },
        1, // strictly sequential so all inserts precede the scans
    );
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());
    CoordProcess::add_to(&mut sim, 0, &registry);

    sim.run_until(SimTime::from_secs(5));
    let s = stats.borrow();
    assert!(
        s.completed > 45,
        "inserts + scans completed: {}",
        s.completed
    );
    let scans = s.latency_by.get("scan").map(|h| h.count()).unwrap_or(0);
    assert!(scans > 0, "at least one scan completed");
}

/// dLog multi-append positions agree across replicas even with
/// single-log appends racing on other rings.
#[test]
fn dlog_multi_append_is_atomic() {
    let mut topo = Topology::lan();
    topo.set_jitter_pct(0);
    let mut sim = Sim::with_topology(22, topo);
    let registry = Registry::new();
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    let rings = [RingId::new(0), RingId::new(1), RingId::new(2)];
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
    for m in &members {
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &rings,
            &rings,
            Some(PartitionId::new(0)),
            Box::new(SessionApp::new(Box::new(DlogApp::new(&[0, 1])))),
            in_memory_opts(),
        );
        sim.add_node_with_cpu(0, host, CpuModel::free());
    }
    let mut seq = 0u64;
    let client = ClosedLoopClient::new(
        ClientId::new(2),
        registry.clone(),
        HashMap::from([
            (rings[0], members[0]),
            (rings[1], members[1]),
            (rings[2], members[2]),
        ]),
        move |_rng: &mut rand::rngs::StdRng| {
            seq += 1;
            let p0 = PartitionId::new(0);
            match seq % 3 {
                0 => CommandSpec::simple(
                    rings[2],
                    LogCommand::MultiAppend {
                        logs: vec![0, 1],
                        value: Bytes::from_static(b"m"),
                    }
                    .to_bytes(),
                    vec![p0],
                ),
                1 => CommandSpec::simple(
                    rings[0],
                    LogCommand::Append {
                        log: 0,
                        value: Bytes::from_static(b"a"),
                    }
                    .to_bytes(),
                    vec![p0],
                ),
                _ => CommandSpec::simple(
                    rings[1],
                    LogCommand::Append {
                        log: 1,
                        value: Bytes::from_static(b"b"),
                    }
                    .to_bytes(),
                    vec![p0],
                ),
            }
        },
        3,
    );
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());
    CoordProcess::add_to(&mut sim, 0, &registry);

    sim.run_until(SimTime::from_secs(3));
    assert!(stats.borrow().completed > 100);
}

/// The live deployment runtime end-to-end: a 2-partition MRP-Store (one
/// ring per partition plus the global scan ring) served over localhost
/// TCP by `liverun`, driven by concurrent closed-loop network clients,
/// with one replica killed and restarted mid-run. After recovery the
/// restarted replica itself must answer reads with the latest written
/// values — reads are ordered through consensus after the writes, so
/// anything stale would violate linearizability.
#[test]
fn live_mrpstore_survives_replica_restart_with_closed_loop_clients() {
    use atomic_multicast::liverun::config::{free_port_block, generate_localhost_mrpstore};
    use atomic_multicast::liverun::{ClientOptions, Deployment, DeploymentConfig, StoreClient};
    use atomic_multicast::mrpstore::{KvCommand, KvResponse, Partitioning};

    // 6 nodes, 2 ports each.
    let base = free_port_block(12).unwrap();
    let text = generate_localhost_mrpstore(2, 3, base, None);
    let config = DeploymentConfig::parse(&text).unwrap();
    let mut deployment = Deployment::launch(config.clone()).unwrap();

    let opts = || ClientOptions {
        timeout: Duration::from_secs(30),
        retry_every: Duration::from_secs(2),
        ..ClientOptions::default()
    };

    // Closed-loop writer clients on their own threads: each writes its
    // own key range, read-checks its own writes, and keeps running
    // through the kill and the restart below.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut workers = Vec::new();
    for w in 0..2u32 {
        let config = config.clone();
        let stop = stop.clone();
        workers.push(std::thread::spawn(move || -> u64 {
            let mut client = StoreClient::connect(&config, ClientId::new(100 + w), opts()).unwrap();
            let mut completed = 0u64;
            for round in 0.. {
                if stop.load(std::sync::atomic::Ordering::SeqCst) {
                    break;
                }
                let key = format!("w{w}-{round:04}");
                let value = Bytes::from(format!("r{round}"));
                assert_eq!(
                    client.insert(&key, value.clone()).unwrap(),
                    KvResponse::Ok,
                    "closed-loop insert {key}"
                );
                // Read-your-writes through consensus.
                assert_eq!(
                    client.read(&key).unwrap(),
                    Some(value),
                    "closed-loop read {key}"
                );
                completed += 1;
            }
            completed
        }));
    }

    // A control client for the fault injection and the final checks.
    let mut control = StoreClient::connect(&config, ClientId::new(1), opts()).unwrap();
    let scheme = Partitioning::Hash { partitions: 2 };
    let probe_key: String = (0..)
        .map(|i| format!("probe{i}"))
        .find(|k| scheme.partition_of(k).raw() == 0)
        .unwrap();
    assert_eq!(
        control
            .insert(&probe_key, Bytes::from_static(b"before"))
            .unwrap(),
        KvResponse::Ok
    );

    // Kill a replica of partition 0 while the workers keep going, write
    // through the outage, then restart it.
    let victim = NodeId::new(2);
    deployment.kill(victim).unwrap();
    assert_eq!(
        control
            .update(&probe_key, Bytes::from_static(b"during"))
            .unwrap(),
        KvResponse::Ok,
        "service must stay available during the outage"
    );
    deployment.restart(victim).unwrap();
    control.raw().reconnect(victim).unwrap();

    // The recovered replica answers with the value written while it was
    // down (checkpoint fetch from partition peers + acceptor catch-up).
    let raw = control
        .raw()
        .request_from(
            RingId::new(0),
            KvCommand::Read {
                key: probe_key.clone(),
            }
            .to_bytes(),
            victim,
        )
        .unwrap();
    let mut raw = raw.clone();
    assert_eq!(
        KvResponse::decode(&mut raw).unwrap(),
        KvResponse::Value(Some(Bytes::from_static(b"during"))),
        "recovered replica must serve the post-crash write"
    );

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let mut total = 0;
    for worker in workers {
        total += worker.join().expect("worker thread must not panic");
    }
    assert!(total > 0, "closed-loop clients made progress");

    // Cross-partition scan sees every worker write plus the probe key.
    let entries = control.scan("", "").unwrap();
    assert_eq!(entries.len() as u64, total + 1, "scan covers all writes");

    deployment.shutdown();
}

/// The amcoord-backed deployment end-to-end: the same liverun stack, but
/// every node bootstraps from a replicated `amcoordd` ensemble instead of
/// a shared in-process registry — the paper's Zookeeper deployment shape
/// (§7.1). Kill and restart flow through the coordination service: the
/// survivor's failure report is a replicated CAS, the restarted node
/// rejoins with a fresh session, and its WAL lock must have been released
/// deterministically for the restart-in-place to succeed.
#[test]
fn live_mrpstore_reconfigures_through_amcoord_ensemble() {
    use atomic_multicast::liverun::config::{
        free_port_block, generate_localhost_mrpstore, with_coord,
    };
    use atomic_multicast::liverun::{connect_coord, start_coord_server, CoordServerConfig};
    use atomic_multicast::liverun::{ClientOptions, Deployment, DeploymentConfig, StoreClient};
    use atomic_multicast::mrpstore::{KvCommand, KvResponse};

    // 6 amcoordd ports (3 ring + 3 client), 2 spare, then 3 nodes × 2.
    let base = free_port_block(14).unwrap();
    let mut coord_handles = Vec::new();
    for id in 0..3u32 {
        coord_handles.push(start_coord_server(CoordServerConfig::localhost(id, 3, base)).unwrap());
    }
    let coord_serve: Vec<std::net::SocketAddr> =
        coord_handles.iter().map(|h| h.client_addr()).collect();

    let wal_dir = std::env::temp_dir().join(format!("amcoord-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let text = with_coord(
        &generate_localhost_mrpstore(1, 3, base + 8, wal_dir.to_str()),
        &coord_serve,
        Duration::from_millis(1500),
    );
    let config = DeploymentConfig::parse(&text).unwrap();
    assert_eq!(config.coord_addrs, coord_serve);
    let mut deployment = Deployment::launch(config.clone()).unwrap();

    let mut control = StoreClient::connect(
        &config,
        ClientId::new(1),
        ClientOptions {
            timeout: Duration::from_secs(30),
            retry_every: Duration::from_secs(2),
            ..ClientOptions::default()
        },
    )
    .unwrap();
    assert_eq!(
        control.insert("k", Bytes::from_static(b"before")).unwrap(),
        KvResponse::Ok
    );
    assert_eq!(
        control.read("k").unwrap(),
        Some(Bytes::from_static(b"before"))
    );

    // Kill the ring coordinator. The membership change must land in the
    // *coordination service* (not any process-local registry).
    let observer = connect_coord(&coord_serve, Duration::from_secs(3)).unwrap();
    deployment.kill(NodeId::new(0)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let cfg = observer.ring(RingId::new(0)).unwrap();
        if !cfg.contains(NodeId::new(0)) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "amcoord never learned of the coordinator's death"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Linearizable operation through the reconfigured ring.
    assert_eq!(
        control.update("k", Bytes::from_static(b"during")).unwrap(),
        KvResponse::Ok
    );
    assert_eq!(
        control.read("k").unwrap(),
        Some(Bytes::from_static(b"during"))
    );

    // Restart in place (same WAL dir — kill verified the lock release).
    deployment.restart(NodeId::new(0)).unwrap();
    control.raw().reconnect(NodeId::new(0)).unwrap();
    let raw = control
        .raw()
        .request_from(
            RingId::new(0),
            KvCommand::Read { key: "k".into() }.to_bytes(),
            NodeId::new(0),
        )
        .unwrap();
    let mut raw = raw.clone();
    assert_eq!(
        KvResponse::decode(&mut raw).unwrap(),
        KvResponse::Value(Some(Bytes::from_static(b"during"))),
        "recovered replica must serve the post-crash write"
    );

    deployment.shutdown();
    drop(observer);
    for h in coord_handles {
        h.shutdown();
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// Geo topology sanity: a WAN deployment commits at WAN latency while a
/// LAN one commits sub-millisecond.
#[test]
fn wan_latency_dominates_geo_commits() {
    let lat = |topology: Topology, sites: [usize; 3]| -> f64 {
        let mut sim = Sim::with_topology(23, topology);
        let registry = Registry::new();
        let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let ring = RingId::new(0);
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
        for (i, m) in members.iter().enumerate() {
            let host = MultiRingHost::new(
                *m,
                registry.clone(),
                &[ring],
                &[ring],
                Some(PartitionId::new(0)),
                Box::new(SessionApp::new(Box::new(
                    atomic_multicast::multiring::EchoApp::new(),
                ))),
                in_memory_opts(),
            );
            sim.add_node_with_cpu(sites[i], host, CpuModel::free());
        }
        let client = ClosedLoopClient::new(
            ClientId::new(3),
            registry.clone(),
            HashMap::from([(ring, members[0])]),
            move |_rng: &mut rand::rngs::StdRng| {
                CommandSpec::simple(ring, Bytes::from_static(b"x"), vec![PartitionId::new(0)])
            },
            1,
        );
        let stats = client.stats();
        sim.add_node_with_cpu(sites[0], client, CpuModel::free());
        CoordProcess::add_to(&mut sim, sites[0], &registry);
        sim.run_until(SimTime::from_secs(20));
        let s = stats.borrow();
        assert!(s.completed > 10, "completed {}", s.completed);
        s.latency.mean() / 1e6
    };

    let lan_ms = lat(Topology::lan(), [0, 0, 0]);
    let eu = Topology::site_of_region(Region::EuWest1);
    let use1 = Topology::site_of_region(Region::UsEast1);
    let usw2 = Topology::site_of_region(Region::UsWest2);
    let wan_ms = lat(Topology::ec2(), [eu, use1, usw2]);

    assert!(lan_ms < 2.0, "LAN commit should be sub-2ms, got {lan_ms}");
    // One-way eu→us-east is 40 ms; a commit needs at least one majority
    // circulation, so anything above ~40 ms proves WAN rounds are paid
    // (measured ≈ 80 ms: proposal + majority + decision circulation).
    assert!(
        wan_ms > 40.0,
        "geo commit must pay WAN round trips, got {wan_ms}"
    );
}
