//! Integration tests: whole deployments over localhost TCP.

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;
use common::ids::ClientId;
use common::wire::Wire;
use liverun::config::generate_localhost_mrpstore;
use liverun::{ClientOptions, Deployment, DeploymentConfig, StoreClient};
use mrpstore::KvResponse;

mod steal;
mod threads;
use threads::{alone, settled_threads, thread_names};

fn client_opts() -> ClientOptions {
    ClientOptions {
        timeout: Duration::from_secs(20),
        retry_every: Duration::from_secs(2),
        ..ClientOptions::default()
    }
}

/// Room for the largest deployment here: 8 nodes, 2 ports each.
fn base_port() -> u16 {
    threads::free_ports(16)
}

/// Every node's registry, scraped over the stats plane.
fn scrape(config: &DeploymentConfig) -> Vec<common::obs::ObsSnapshot> {
    config
        .nodes
        .iter()
        .map(|n| liverun::fetch_stats(n.client_addr, Duration::from_secs(5)).expect("stats"))
        .collect()
}

/// Pipelines `cmds` through the client's credit window without waiting
/// per command, then drains; returns how many completed within a minute.
fn pipeline(
    client: &mut StoreClient,
    cmds: impl Iterator<Item = (common::ids::RingId, Bytes)>,
) -> u64 {
    let (mut submitted, mut completed) = (0u64, 0u64);
    for (ring, cmd) in cmds {
        client.raw().submit(ring, cmd).expect("submit");
        submitted += 1;
        if client.raw().poll_reply(Duration::ZERO).is_some() {
            completed += 1;
        }
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while completed < submitted && std::time::Instant::now() < deadline {
        if client
            .raw()
            .poll_reply(Duration::from_millis(250))
            .is_some()
        {
            completed += 1;
        }
    }
    completed
}

/// One counter summed over every node's snapshot.
fn total(snaps: &[common::obs::ObsSnapshot], name: &str) -> u64 {
    snaps.iter().filter_map(|s| s.counter(name)).sum()
}

/// `ring{r}_{name}` as the (node, ring) pairs of every ring acceptor
/// `snaps` covers, in a fixed order: what an acceptor's log looks like.
fn per_acceptor(
    config: &DeploymentConfig,
    snaps: &[common::obs::ObsSnapshot],
    name: &str,
) -> Vec<((u32, u16), i64)> {
    let mut out = Vec::new();
    for ring in &config.rings {
        let r = ring.id.raw();
        for snap in snaps {
            if ring.acceptors.iter().any(|a| a.raw() == snap.node) {
                let v = snap.gauge(&format!("ring{r}_{name}")).unwrap_or(0);
                out.push(((snap.node, r), v));
            }
        }
    }
    out
}

/// Waits up to a second for this process to be back at `before`
/// threads, and asserts it is.
fn assert_back_to(before: usize, what: &str) {
    let settled = std::time::Instant::now() + Duration::from_secs(1);
    while thread_names().len() != before && std::time::Instant::now() < settled {
        std::thread::sleep(Duration::from_millis(10));
    }
    let left = thread_names();
    assert_eq!(
        left.len(),
        before,
        "{} threads left behind after {what}: {left:?}",
        left.len() as i64 - before as i64
    );
}

/// One thread per node (benchmark finding 7, fixed by construction): a
/// 2 × 3 deployment serving a client runs exactly one loop thread per
/// node — no accept, reader or writer thread per connection — and
/// `Deployment::shutdown` leaves the process with the threads it had
/// before the launch.
#[test]
fn a_node_is_one_thread_and_shutdown_leaves_none_behind() {
    if !alone("a_node_is_one_thread_and_shutdown_leaves_none_behind") {
        return;
    }
    let before = thread_names().len();
    let text = generate_localhost_mrpstore(2, 3, base_port(), None);
    let config = DeploymentConfig::parse(&text).unwrap();
    let deployment = Deployment::launch(config.clone()).unwrap();
    {
        let mut client = StoreClient::connect(&config, ClientId::new(61), client_opts()).unwrap();
        for i in 0..20 {
            let key = format!("thread{i:02}");
            assert_eq!(
                client.insert(&key, Bytes::from_static(b"v")).unwrap(),
                KvResponse::Ok
            );
        }
        // The global ring too: every peer link of every node is up.
        assert_eq!(client.scan("thread", "").unwrap().len(), 20);
        scrape(&config);
        let names = settled_threads(before + config.nodes.len());
        let mut ours: Vec<&String> = names.iter().filter(|n| n.starts_with("amcast-")).collect();
        ours.sort();
        let loops: Vec<String> = config
            .nodes
            .iter()
            .map(|n| format!("amcast-node-{}", n.id.raw()))
            .collect();
        assert_eq!(
            ours,
            loops.iter().collect::<Vec<_>>(),
            "one loop thread per node and nothing else"
        );
        // The client starts no thread (it turns its sockets on the
        // caller's), and no unnamed per-connection thread runs either.
        assert_eq!(
            names.len(),
            before + config.nodes.len(),
            "threads while serving: {names:?}"
        );
    }
    deployment.shutdown();
    assert_back_to(before, "shutdown");
}

/// A dropped client closes its sockets and leaves nothing behind. (Each
/// of its reply-reader threads used to hold a clone of its socket, so a
/// dropped client's connections stayed open and its readers blocked in
/// `read` until the deployment shut down.)
#[test]
fn a_dropped_client_leaves_nothing_behind() {
    if !alone("a_dropped_client_leaves_nothing_behind") {
        return;
    }
    let text = generate_localhost_mrpstore(2, 3, base_port(), None);
    let config = DeploymentConfig::parse(&text).unwrap();
    let serving = thread_names().len() + config.nodes.len();
    let deployment = Deployment::launch(config.clone()).unwrap();
    {
        let mut client = StoreClient::connect(&config, ClientId::new(62), client_opts()).unwrap();
        for i in 0..10 {
            let key = format!("dropped{i}");
            assert_eq!(
                client.insert(&key, Bytes::from_static(b"v")).unwrap(),
                KvResponse::Ok
            );
        }
        assert_eq!(client.scan("dropped", "").unwrap().len(), 10);
    }
    assert_back_to(serving, "the client was dropped");
    deployment.shutdown();
}

/// A geo deployment is its node loops: each shapes its own links, so no
/// thread relays a link, a connection or a direction, and
/// `Deployment::shutdown` leaves none behind.
#[test]
fn a_geo_deployment_is_its_node_loops_and_shutdown_leaves_none() {
    use liverun::config::with_geo;

    if !alone("a_geo_deployment_is_its_node_loops_and_shutdown_leaves_none") {
        return;
    }
    let before = thread_names().len();
    let base = generate_localhost_mrpstore(1, 3, base_port(), None);
    let text = with_geo(
        &base,
        &[
            ("eu-west-1", &[0]),
            ("us-east-1", &[1]),
            ("us-west-2", &[2]),
        ],
        10,
    );
    let config = DeploymentConfig::parse(&text).unwrap();
    let deployment = Deployment::launch(config.clone()).unwrap();
    {
        // A client behind its region's listeners, so client links are
        // shaped too.
        let client_config = deployment.config_from("eu-west-1").unwrap();
        let mut client =
            StoreClient::connect(&client_config, ClientId::new(63), client_opts()).unwrap();
        for i in 0..10 {
            let key = format!("geo{i}");
            assert_eq!(
                client.insert(&key, Bytes::from_static(b"v")).unwrap(),
                KvResponse::Ok
            );
        }
        let names = settled_threads(before + config.nodes.len());
        let mut ours: Vec<&String> = names.iter().filter(|n| n.starts_with("amcast-")).collect();
        ours.sort();
        let mut loops: Vec<String> = config
            .nodes
            .iter()
            .map(|n| format!("amcast-node-{}", n.id.raw()))
            .collect();
        loops.sort();
        assert_eq!(ours, loops.iter().collect::<Vec<_>>());
        assert_eq!(
            names.len(),
            before + config.nodes.len(),
            "threads while serving: {names:?}"
        );
    }
    deployment.shutdown();
    assert_back_to(before, "shutdown");
}

/// Each `amcast-node-N` loop thread's `(runs, cpu_nanos)` by `N`: the
/// third and first fields of its `/proc/self/task/<tid>/schedstat`. A
/// thread a loop has just started bears the loop's name until it names
/// itself; the loop is the one that has run more.
fn loop_schedstats() -> BTreeMap<u32, (u64, u64)> {
    let mut loops = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
        let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) else {
            continue;
        };
        let Some(node) = comm.trim_end().strip_prefix("amcast-node-") else {
            continue;
        };
        let stat = std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
        let fields: Vec<u64> = stat.split_whitespace().flat_map(str::parse).collect();
        if let (Ok(node), &[cpu, _, runs, ..]) = (node.parse(), &fields[..]) {
            let seen = loops.entry(node).or_insert((runs, cpu));
            if runs > seen.0 {
                *seen = (runs, cpu);
            }
        }
    }
    loops
}

/// An idle 2 × 3 deployment keeps one Δ clock: only the global ring's
/// coordinator levels a ring (both partition rings follow the wider
/// global ring), so only its loop wakes every 1 ms Δ. Every other node
/// loop wakes for heartbeats, liveness and checkpoints alone — far fewer
/// than 300 times a second.
#[test]
fn only_the_node_that_levels_a_ring_wakes_every_delta() {
    if !alone("only_the_node_that_levels_a_ring_wakes_every_delta") {
        return;
    }
    let text = generate_localhost_mrpstore(2, 3, base_port(), None);
    let config = DeploymentConfig::parse(&text).unwrap();
    let deployment = Deployment::launch(config.clone()).unwrap();
    std::thread::sleep(Duration::from_secs(1));
    let window = Duration::from_secs(3);
    let before = loop_schedstats();
    std::thread::sleep(window);
    let after = loop_schedstats();
    let global = config.global_ring();
    let clock = deployment.registry().ring(global).unwrap().coordinator();
    deployment.shutdown();

    assert_eq!(after.len(), config.nodes.len(), "{after:?}");
    let secs = window.as_secs_f64();
    let mut cpu = 0.0;
    for (node, (runs1, ns1)) in &after {
        let (runs0, ns0) = before[node];
        let runs = (runs1 - runs0) as f64 / secs;
        let ms = (ns1 - ns0) as f64 / secs / 1e6;
        cpu += ms;
        println!("amcast-node-{node}: {runs:.0} runs/s, {ms:.1} ms CPU/s");
        if *node != clock.raw() {
            assert!(runs < 300.0, "node {node} woke {runs:.0} times/s idle");
        }
    }
    println!(
        "idle loops: {cpu:.1} ms CPU/s ({:.1} % of one core)",
        cpu / 10.0
    );
}

/// The stats plane needs no session and no hello: a fresh connection
/// gets every node's snapshot while the loops are busy with a closed
/// pipelined load (`kv_small`'s shape: two clients, 32 in flight each).
#[test]
fn stats_answer_a_fresh_connection_under_load() {
    use common::ids::RingId;
    use mrpstore::KvCommand;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let text = generate_localhost_mrpstore(2, 3, base_port(), None);
    let config = DeploymentConfig::parse(&text).unwrap();
    let deployment = Deployment::launch(config.clone()).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let load: Vec<_> = (0..2u32)
        .map(|t| {
            let (config, stop) = (config.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut client =
                    StoreClient::connect(&config, ClientId::new(70 + t), client_opts()).unwrap();
                let cmd = KvCommand::Add {
                    key: format!("load{t}"),
                    delta: 1,
                }
                .to_bytes();
                let ring = RingId::new(0);
                let (mut in_flight, mut done) = (0, 0u64);
                while !stop.load(Ordering::Relaxed) || in_flight > 0 {
                    if !stop.load(Ordering::Relaxed) && in_flight < 32 {
                        client.raw().submit(ring, cmd.clone()).expect("submit");
                        in_flight += 1;
                    } else if client.raw().poll_reply(Duration::from_secs(10)).is_some() {
                        in_flight -= 1;
                        done += 1;
                    } else {
                        panic!("load stalled with {in_flight} in flight");
                    }
                }
                done
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    // `scrape` dials every node afresh and fails past a 5 s deadline.
    let proposed: Vec<u64> = (0..10)
        .map(|_| {
            let snaps = scrape(&config);
            for (snap, node) in snaps.iter().zip(&config.nodes) {
                assert_eq!(snap.node, node.id.raw(), "answered by the node dialled");
            }
            total(&snaps, "proposed_cmds")
        })
        .collect();
    assert!(
        proposed.last() > proposed.first(),
        "the scrapes ran under load: {proposed:?}"
    );
    stop.store(true, Ordering::Relaxed);
    let done: u64 = load
        .into_iter()
        .map(|t| t.join().expect("load thread"))
        .sum();
    assert!(done > 0, "the load ran");
    deployment.shutdown();
}

#[test]
fn mrpstore_put_get_scan_over_tcp() {
    let wal_dir = std::env::temp_dir().join(format!("liverun-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let text = generate_localhost_mrpstore(2, 2, base_port(), wal_dir.to_str());
    let config = DeploymentConfig::parse(&text).unwrap();
    let deployment = Deployment::launch(config.clone()).unwrap();

    let mut client = StoreClient::connect(&config, ClientId::new(1), client_opts()).unwrap();
    for i in 0..20 {
        let r = client
            .insert(&format!("key{i:03}"), Bytes::from(vec![i as u8]))
            .unwrap();
        assert_eq!(r, KvResponse::Ok, "insert key{i:03}");
    }
    for i in 0..20 {
        let v = client.read(&format!("key{i:03}")).unwrap();
        assert_eq!(v, Some(Bytes::from(vec![i as u8])), "read key{i:03}");
    }
    // Cross-partition scan via the global ring: every key from both
    // partitions, merged in order.
    let entries = client.scan("key", "").unwrap();
    assert_eq!(entries.len(), 20);
    assert_eq!(entries[0].0, "key000");
    assert_eq!(entries[19].0, "key019");

    // The delivered-command WAL reports into the node's stats plane (the
    // credit controller reads its commit latency from there).
    for n in &config.nodes {
        let snap = liverun::fetch_stats(n.client_addr, Duration::from_secs(5)).expect("stats");
        assert!(
            snap.counter("wal_appends").unwrap_or(0) > 0,
            "node {} logged no WAL appends",
            snap.node
        );
    }

    deployment.shutdown();

    // Replicas of the same partition must have recorded identical
    // delivered sequences in their WALs (nodes 0,1 = partition 0; nodes
    // 2,3 = partition 1 in the generated layout). A node's whole stream
    // lives in one segment directory, shard 0's.
    use common::ids::NodeId;
    for pair in [[0u32, 1u32], [2, 3]] {
        let replay = |n: u32| -> Vec<(u64, liverun::WalRecord)> {
            storage::wal::SegmentedWal::replay(liverun::shard_wal_dir(&wal_dir, NodeId::new(n), 0))
                .unwrap()
        };
        let a = replay(pair[0]);
        let b = replay(pair[1]);
        assert!(!a.is_empty(), "node {} executed nothing", pair[0]);
        assert_eq!(a, b, "nodes {pair:?} diverged");
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// Satellite of the rotated-WAL port: a durable deployment with an
/// aggressive segment-roll cadence rotates its delivered-command logs,
/// prunes them at checkpoint cuts, and a killed replica restarts in
/// place *over the rotated directory*, resuming its position counter
/// past everything ever written.
#[test]
fn restart_in_place_over_rotated_wal_dir() {
    use common::ids::NodeId;
    use storage::wal::SegmentedWal;

    let wal_dir = std::env::temp_dir().join(format!("liverun-rotwal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let text = generate_localhost_mrpstore(1, 3, base_port(), wal_dir.to_str()).replacen(
        "[deployment]\n",
        "[deployment]\nwal_roll_every = 8\n",
        1,
    );
    let config = DeploymentConfig::parse(&text).unwrap();
    assert_eq!(config.wal_roll_every, 8);
    let mut deployment = Deployment::launch(config.clone()).unwrap();
    let mut client = StoreClient::connect(&config, ClientId::new(11), client_opts()).unwrap();

    for i in 0..40 {
        assert_eq!(
            client
                .insert(&format!("rot{i:02}"), Bytes::from(vec![i as u8]))
                .unwrap(),
            KvResponse::Ok
        );
    }

    // The roll cadence (8) is far below the delivered count, so the log
    // must have rotated: either several segments survive, or pruning
    // already dropped the oldest ones and the first surviving segment
    // starts past position 0 (segment names carry their first position).
    let victim = NodeId::new(2);
    let victim_dir = liverun::shard_wal_dir(&wal_dir, victim, 0);
    let segments = SegmentedWal::segments(&victim_dir);
    let first_pos = segments
        .first()
        .and_then(|p| {
            p.file_name()?
                .to_str()?
                .strip_prefix("seg-")?
                .strip_suffix(".wal")?
                .parse::<u64>()
                .ok()
        })
        .unwrap_or(0);
    assert!(
        segments.len() > 1 || first_pos > 0,
        "wal never rotated: {segments:?}"
    );
    let pre_end = SegmentedWal::end_pos(&victim_dir).unwrap();
    assert!(pre_end > 0);

    deployment.kill(victim).unwrap();
    for i in 0..10 {
        assert_eq!(
            client
                .insert(&format!("mid{i:02}"), Bytes::from(vec![i as u8]))
                .unwrap(),
            KvResponse::Ok
        );
    }
    deployment.restart(victim).unwrap();
    client.raw().reconnect(victim).unwrap();

    // The recovered replica serves fresh reads...
    let raw = client
        .raw()
        .request_from(
            common::ids::RingId::new(0),
            mrpstore::KvCommand::Read {
                key: "mid09".into(),
            }
            .to_bytes(),
            victim,
        )
        .unwrap();
    assert_eq!(
        KvResponse::decode(&mut raw.clone()).unwrap(),
        KvResponse::Value(Some(Bytes::from(vec![9]))),
        "recovered replica must serve post-crash writes"
    );
    deployment.shutdown();

    // ...and its reopened log resumed *past* the pre-kill positions:
    // strictly increasing, never reusing a position.
    let records = SegmentedWal::replay::<liverun::WalRecord>(&victim_dir).unwrap();
    let positions: Vec<u64> = records.iter().map(|(p, _)| *p).collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "positions must stay strictly monotone across the restart"
    );
    assert!(
        positions.last().copied().unwrap_or(0) >= pre_end,
        "restarted writer resumed below its pre-kill end position"
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// A durable deployment checkpoints in memory, so a checkpoint is its
/// tuple and no node cuts its service state, and yet every node's
/// delivered-command WAL still prunes: a few checkpoints after the
/// writes, the first surviving segment of each log starts past position
/// 0 (segment names carry their first position).
#[test]
fn in_memory_checkpoints_still_prune_the_wal() {
    use storage::wal::SegmentedWal;

    let wal_dir = std::env::temp_dir().join(format!("liverun-prunewal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let text = generate_localhost_mrpstore(1, 3, base_port(), wal_dir.to_str()).replacen(
        "[deployment]\n",
        "[deployment]\nwal_roll_every = 8\n",
        1,
    );
    let config = DeploymentConfig::parse(&text).unwrap();
    assert!(config.checkpoint_interval.is_some());
    let deployment = Deployment::launch(config.clone()).unwrap();
    let mut client = StoreClient::connect(&config, ClientId::new(12), client_opts()).unwrap();
    for i in 0..40 {
        let key = format!("prune{i:02}");
        let reply = client.insert(&key, Bytes::from(vec![i as u8])).unwrap();
        assert_eq!(reply, KvResponse::Ok);
    }

    let first_pos = |node: &liverun::config::NodeSpec| -> u64 {
        let dir = liverun::shard_wal_dir(&wal_dir, node.id, 0);
        let segments = SegmentedWal::segments(&dir);
        let name = segments
            .first()
            .and_then(|p| p.file_name()?.to_str().map(String::from));
        (name.as_deref())
            .and_then(|n| n.strip_prefix("seg-")?.strip_suffix(".wal")?.parse().ok())
            .unwrap_or(0)
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let mut firsts: Vec<u64> = config.nodes.iter().map(first_pos).collect();
    while firsts.contains(&0) && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(100));
        firsts = config.nodes.iter().map(first_pos).collect();
    }
    assert!(
        !firsts.contains(&0),
        "a WAL kept its first segment: first positions {firsts:?}"
    );
    for snap in scrape(&config) {
        assert_eq!(snap.counter("ckpt_cuts"), Some(0), "node {}", snap.node);
    }
    deployment.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// A replica is killed mid-run, the service stays available, and after a
/// restart the replica recovers (checkpoint fetch + acceptor catch-up)
/// and serves up-to-date, linearizable reads.
#[test]
fn replica_restart_recovers_and_serves_fresh_reads() {
    use common::ids::{NodeId, RingId};
    use mrpstore::Partitioning;

    let text = generate_localhost_mrpstore(2, 3, base_port(), None);
    let config = DeploymentConfig::parse(&text).unwrap();
    let mut deployment = Deployment::launch(config.clone()).unwrap();
    let mut client = StoreClient::connect(&config, ClientId::new(7), client_opts()).unwrap();

    // Choose keys owned by partition 0 (nodes 0..3) and partition 1.
    let scheme = Partitioning::Hash { partitions: 2 };
    let p0_key: String = (0..)
        .map(|i| format!("alpha{i}"))
        .find(|k| scheme.partition_of(k).raw() == 0)
        .unwrap();

    for i in 0..10 {
        assert_eq!(
            client
                .insert(&format!("pre{i:02}"), Bytes::from_static(b"v1"))
                .unwrap(),
            KvResponse::Ok
        );
    }
    assert_eq!(
        client.insert(&p0_key, Bytes::from_static(b"old")).unwrap(),
        KvResponse::Ok
    );

    // Kill one replica of partition 0 (node 2 is in ring 0 + global).
    let victim = NodeId::new(2);
    deployment.kill(victim).unwrap();

    // The service must stay available (2-of-3 majority per ring after
    // failure detection removes the dead member) — keep writing, and
    // overwrite the probe key so recovery must catch up to see it.
    for i in 0..10 {
        assert_eq!(
            client
                .insert(&format!("mid{i:02}"), Bytes::from_static(b"v2"))
                .unwrap(),
            KvResponse::Ok,
            "write during downtime {i}"
        );
    }
    assert_eq!(
        client.update(&p0_key, Bytes::from_static(b"new")).unwrap(),
        KvResponse::Ok
    );

    // Restart: the replica rejoins its rings and recovers from partition
    // peers + acceptor retransmission (paper §5.2).
    deployment.restart(victim).unwrap();
    client.raw().reconnect(victim).unwrap();

    // A read answered by the *recovered replica itself* must reflect the
    // update that happened while it was down: reads are ordered through
    // consensus after the write, so anything stale would violate
    // linearizability.
    let ring0 = RingId::new(0);
    let raw = client
        .raw()
        .request_from(
            ring0,
            mrpstore::KvCommand::Read {
                key: p0_key.clone(),
            }
            .to_bytes(),
            victim,
        )
        .unwrap();
    let reply = KvResponse::decode(&mut raw.clone()).unwrap();
    assert_eq!(
        reply,
        KvResponse::Value(Some(Bytes::from_static(b"new"))),
        "recovered replica must serve the post-crash value"
    );

    // And the whole keyspace is intact.
    let entries = client.scan("", "").unwrap();
    assert_eq!(entries.len(), 21, "10 pre + 10 mid + probe key");

    deployment.shutdown();
}

/// The protocol-v2 exactly-once acceptance: a non-idempotent counter is
/// incremented through a pipelined session while the serving ring
/// coordinator is killed mid-pipeline; the client retries through the
/// failover, yet every increment executes exactly once on **every**
/// replica — including one that is itself killed and restarted in place
/// afterwards (the session table rides the app snapshot).
#[test]
fn exactly_once_counter_across_coordinator_kill_and_restart() {
    use common::ids::{NodeId, RingId};
    use mrpstore::{KvCommand, KvResponse, Partitioning};

    let text = generate_localhost_mrpstore(2, 3, base_port(), None);
    let config = DeploymentConfig::parse(&text).unwrap();
    let mut deployment = Deployment::launch(config.clone()).unwrap();
    let mut client = StoreClient::connect(
        &config,
        ClientId::new(3),
        ClientOptions {
            timeout: Duration::from_secs(30),
            // Aggressive retries on purpose: under v1 this would
            // over-count; under v2 the session table dedups them.
            retry_every: Duration::from_millis(300),
            ..ClientOptions::default()
        },
    )
    .unwrap();

    // A counter key owned by partition 0 (nodes 0..=2, ring 0 — whose
    // coordinator is node 0, the kill victim).
    let scheme = Partitioning::Hash { partitions: 2 };
    let key: String = (0..)
        .map(|i| format!("ctr{i}"))
        .find(|k| scheme.partition_of(k).raw() == 0)
        .unwrap();
    let ring0 = RingId::new(0);
    let add = KvCommand::Add {
        key: key.clone(),
        delta: 1,
    }
    .to_bytes();

    // Fill the window, then kill the coordinator mid-pipeline.
    let mut submitted = 0u64;
    let mut completed = 0u64;
    for _ in 0..8 {
        client.raw().submit(ring0, add.clone()).expect("submit");
        submitted += 1;
    }
    deployment.kill(NodeId::new(0)).unwrap();
    let dump_rings = |deployment: &Deployment| {
        for r in [0u16, 1, 2] {
            eprintln!(
                "ring {r}: {:?}",
                deployment.registry().ring(RingId::new(r)).map(|c| (
                    c.members().to_vec(),
                    c.coordinator(),
                    c.epoch()
                ))
            );
        }
    };

    // Keep the pipeline full through the failover, then drain.
    while submitted < 32 {
        if client
            .raw()
            .poll_reply(Duration::from_millis(250))
            .is_some()
        {
            completed += 1;
        }
        if client.raw().submit(ring0, add.clone()).is_ok() {
            submitted += 1;
        }
    }
    let drain_end = std::time::Instant::now() + Duration::from_secs(60);
    while completed < submitted && std::time::Instant::now() < drain_end {
        if client
            .raw()
            .poll_reply(Duration::from_millis(500))
            .is_some()
        {
            completed += 1;
        }
    }
    if completed < submitted {
        dump_rings(&deployment);
    }
    assert_eq!(
        completed,
        submitted,
        "every pipelined request completes (client state: {:?})",
        client.raw().stats()
    );

    // Exactly-once on every *surviving* replica of the partition: each
    // answers the same count from its own state machine.
    let read = KvCommand::Read { key: key.clone() }.to_bytes();
    for replica in [1u32, 2] {
        let raw = client
            .raw()
            .request_from(ring0, read.clone(), NodeId::new(replica))
            .unwrap();
        assert_eq!(
            KvResponse::decode(&mut raw.clone()).unwrap(),
            KvResponse::Value(Some(Bytes::copy_from_slice(&submitted.to_le_bytes()))),
            "replica {replica} executed each increment exactly once"
        );
    }

    // Restart the killed replica in place; it recovers state (and the
    // session dedup table, which rides the snapshot) from its partition
    // peers. More increments land exactly once, and the *recovered*
    // replica agrees on the total.
    deployment.restart(NodeId::new(0)).unwrap();
    client.raw().reconnect(NodeId::new(0)).unwrap();
    let total = submitted + 5;
    for _ in 0..5 {
        client.add(&key, 1).expect("post-restart add");
    }
    let raw = client
        .raw()
        .request_from(ring0, read.clone(), NodeId::new(0))
        .unwrap();
    assert_eq!(
        KvResponse::decode(&mut raw.clone()).unwrap(),
        KvResponse::Value(Some(Bytes::copy_from_slice(&total.to_le_bytes()))),
        "restarted replica recovered the exactly-once counter"
    );

    deployment.shutdown();
}

/// The stats plane end to end: a 3-node deployment answers
/// `StatsRequest` on every node, and the per-node pipeline counters
/// reconcile with the submitted command count — each command is
/// proposed by exactly one node and executed by all three, so per-node
/// proposal counts *sum* to the (common) per-node executed count. The
/// same counters pin the decision path: decisions are id-only on every
/// node and go point-to-point, never around the ring.
#[test]
fn stats_plane_reports_per_node_pipeline_counts() {
    use std::time::Instant;

    let text = generate_localhost_mrpstore(1, 3, base_port(), None);
    let mut config = DeploymentConfig::parse(&text).unwrap();
    config.trace_sample = 32;
    let deployment = Deployment::launch(config.clone()).unwrap();
    let mut client = StoreClient::connect(&config, ClientId::new(9), client_opts()).unwrap();

    // 1 KiB values: a decision that carried its payload would blow far
    // past the bytes-per-decision bound below.
    const N: u64 = 24;
    for i in 0..N {
        assert_eq!(
            client
                .insert(&format!("obs{i:02}"), Bytes::from(vec![i as u8; 1024]))
                .unwrap(),
            KvResponse::Ok
        );
    }

    // Every replica applies the same totally-ordered log, so executed
    // counts converge to one common value ≥ N (session-control traffic
    // may add a few commands on top of the client's). Poll: the replica
    // that answered the client runs a beat ahead of its peers.
    let deadline = Instant::now() + Duration::from_secs(10);
    let snaps = loop {
        let snaps = scrape(&config);
        let execs: Vec<u64> = snaps
            .iter()
            .map(|s| s.counter("executed_cmds").unwrap_or(0))
            .collect();
        if execs.iter().all(|&e| e >= N && e == execs[0]) {
            break snaps;
        }
        assert!(
            Instant::now() < deadline,
            "per-node executed counts never converged: {execs:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    };

    let proposed: u64 = snaps
        .iter()
        .map(|s| s.counter("proposed_cmds").unwrap_or(0))
        .sum();
    assert_eq!(
        proposed,
        snaps[0].counter("executed_cmds").unwrap(),
        "per-node proposal counts sum to the common executed count"
    );
    for snap in &snaps {
        assert!(
            snap.counter("instances_decided").unwrap_or(0) > 0,
            "node {} decided nothing",
            snap.node
        );
        assert_eq!(
            snap.counter("decision_payload_bytes"),
            Some(0),
            "node {} circulated payload bytes in decisions",
            snap.node
        );
    }

    // An id-only decision is ~10 bytes on the wire.
    let msgs = total(&snaps, "decision_msgs");
    let wire = total(&snaps, "decision_wire_bytes");
    assert!(msgs > 0, "no decision was sent");
    assert!(
        wire <= 64 * msgs,
        "{wire} B in {msgs} decisions: more than ids on the wire"
    );
    // The member whose vote completes the majority tells the
    // `majority - 1` members upstream of it directly and nobody forwards,
    // so a ring that spends more decision messages than that per decided
    // value is circulating them again. Idle rings keep deciding skips:
    // read the decided counts from a scrape taken after the sends.
    let later = scrape(&config);
    for ring in &config.rings {
        let r = ring.id.raw();
        let sent = total(&snaps, &format!("ring{r}_decision_msgs"));
        let decided = later
            .iter()
            .filter_map(|s| s.counter(&format!("ring{r}_instances_decided")))
            .max()
            .unwrap_or(0);
        let upstream = (ring.acceptors.len() / 2) as u64;
        assert!(decided > 0, "ring {r} decided nothing");
        assert!(
            sent <= upstream * decided,
            "ring {r}: {sent} decision msgs for {decided} decided values (at most {upstream} each)"
        );
    }
    // Tracing is on (1 in 32): an always-off sampler would record nothing.
    let sampled: u64 = snaps
        .iter()
        .filter_map(|s| s.hist("stage_propose_nanos").map(|h| h.count))
        .sum();
    assert!(sampled > 0, "tracing on but no stage samples recorded");

    deployment.shutdown();
}

/// Genuineness (paper §2): a command is ordered only by the partitions
/// it addresses. A pipelined burst whose every key lives in partition 0
/// must leave every other ring — partition 1's and the global ring — on
/// every node with no delivered command and no application payload byte.
#[test]
fn single_partition_load_leaves_other_rings_untouched() {
    use liverun::service::KvRouter;
    use mrpstore::KvCommand;
    use multiring::route::Route;
    use std::time::Instant;

    let text = generate_localhost_mrpstore(2, 2, base_port(), None);
    let config = DeploymentConfig::parse(&text).unwrap();
    let deployment = Deployment::launch(config.clone()).unwrap();
    let mut client = StoreClient::connect(&config, ClientId::new(12), client_opts()).unwrap();
    // Route the way `StoreClient` does, but without waiting per command.
    let router = KvRouter {
        scheme: client.scheme().clone(),
        global: config.global_ring(),
    };

    const N: u64 = 2000;
    let value = Bytes::from(vec![0x5au8; 1024]);
    let mut keys = (0u64..)
        .map(|i| format!("pin{}", i % 4096))
        .filter(|k| router.scheme.partition_of(k).raw() == 0);
    let burst = (0..N).map(|_| {
        let cmd = KvCommand::Insert {
            key: keys.next().expect("endless"),
            value: value.clone(),
        }
        .to_bytes();
        (router.route(&cmd).ring(), cmd)
    });
    let completed = pipeline(&mut client, burst);
    assert_eq!(completed, N, "every pipelined update completes");
    let deadline = Instant::now() + Duration::from_secs(60);

    // Both partition-0 replicas deliver the whole burst; the one that
    // did not answer the client may run a beat behind. The other rings
    // must read zero on every scrape, so check them before waiting.
    let snaps = loop {
        let snaps = scrape(&config);
        for snap in &snaps {
            for ring in config.rings.iter().filter(|r| r.id.raw() != 0) {
                for metric in [
                    "delivered_cmds",
                    "phase2_payload_bytes",
                    "decision_payload_bytes",
                ] {
                    let name = format!("ring{}_{metric}", ring.id.raw());
                    assert_eq!(
                        snap.counter(&name).unwrap_or(0),
                        0,
                        "node {}: {name} on a ring the load never addressed",
                        snap.node
                    );
                }
            }
        }
        let delivered = |n: usize| snaps[n].counter("ring0_delivered_cmds").unwrap_or(0);
        if delivered(0) >= N && delivered(1) >= N {
            break snaps;
        }
        assert!(
            Instant::now() < deadline,
            "partition 0 delivered {} and {} of {N}",
            delivered(0),
            delivered(1)
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    let payload = total(&snaps, "ring0_phase2_payload_bytes");
    assert!(
        payload >= N * 1024,
        "ring 0 carried {payload} payload bytes"
    );
    // Idle subscribed rings still circulate skip tokens (the merge needs
    // their credit): metadata only, and little of it. Measured at
    // 0.03-0.04 % of ring 0's ordering bytes at this load.
    let ordering_bytes = |ring: u16| {
        total(&snaps, &format!("ring{ring}_phase2_wire_bytes"))
            + total(&snaps, &format!("ring{ring}_decision_wire_bytes"))
    };
    let idle = ordering_bytes(1) + ordering_bytes(2);
    assert!(
        idle < ordering_bytes(0) / 20,
        "idle rings carried {idle} ordering bytes, ring 0 {}",
        ordering_bytes(0)
    );

    deployment.shutdown();
}

/// The multi-partition fan-out completion rule under a replica kill
/// mid-fanout: a scan multicast on the global ring completes once one
/// replica of *every* partition answered — a dead replica of a
/// partition must not wedge it as long as a sibling survives.
#[test]
fn fanout_completes_despite_replica_kill_mid_fanout() {
    use common::ids::NodeId;

    let text = generate_localhost_mrpstore(2, 2, base_port(), None);
    let config = DeploymentConfig::parse(&text).unwrap();
    let mut deployment = Deployment::launch(config.clone()).unwrap();

    let mut setup = StoreClient::connect(&config, ClientId::new(4), client_opts()).unwrap();
    for i in 0..16 {
        assert_eq!(
            setup
                .insert(&format!("fan{i:02}"), Bytes::from(vec![i as u8]))
                .unwrap(),
            KvResponse::Ok
        );
    }

    // Run the scan on its own thread and kill a partition-1 replica
    // while it is in flight: the fan-out must complete from the
    // surviving replicas (one answer per partition), retrying through
    // the global ring's reconfiguration if the kill interrupts it.
    let cfg = config.clone();
    let scanner = std::thread::spawn(move || {
        let mut c = StoreClient::connect(
            &cfg,
            ClientId::new(5),
            ClientOptions {
                timeout: Duration::from_secs(30),
                retry_every: Duration::from_millis(300),
                ..ClientOptions::default()
            },
        )
        .unwrap();
        c.scan("fan", "")
    });
    std::thread::sleep(Duration::from_millis(20));
    deployment.kill(NodeId::new(3)).unwrap();
    let entries = scanner.join().expect("scanner thread").expect("scan");
    assert_eq!(entries.len(), 16, "scan merged both partitions");

    // And a scan issued after the kill (deterministically one replica
    // down) still completes: partition 1's surviving replica answers.
    let entries = setup.scan("fan", "").unwrap();
    assert_eq!(entries.len(), 16);

    deployment.shutdown();
}

/// One replica per partition answers a command's first execution: in a
/// 2 × 3 deployment partition 0's is node 1, the acceptor after ring 0's
/// coordinator, and a put is answered by it. With node 1 killed, adds on
/// partition 0 still complete within the client's timeout — through the
/// ring's reconfiguration, or a re-send that every replica answers — and
/// the exactly-once counter counts each once.
#[test]
fn a_killed_designated_replier_costs_a_resend_not_a_hang() {
    use common::ids::{NodeId, RingId};
    use mrpstore::{KvCommand, Partitioning};

    let text = generate_localhost_mrpstore(2, 3, base_port(), None);
    let config = DeploymentConfig::parse(&text).unwrap();
    let mut deployment = Deployment::launch(config.clone()).unwrap();
    let mut client = StoreClient::connect(&config, ClientId::new(6), client_opts()).unwrap();
    let scheme = Partitioning::Hash { partitions: 2 };
    let key: String = (0..)
        .map(|i| format!("ctr{i}"))
        .find(|k| scheme.partition_of(k).raw() == 0)
        .unwrap();
    // A session's first command is answered by every replica.
    assert_eq!(client.add(&key, 1).unwrap(), 1);
    let add = KvCommand::Add {
        key: key.clone(),
        delta: 1,
    };
    client.raw().submit(RingId::new(0), add.to_bytes()).unwrap();
    let (_, replica, _) = (client.raw().poll_reply(Duration::from_secs(20))).expect("a reply");
    assert_eq!(replica, NodeId::new(1), "the designated replier answers");

    deployment.kill(NodeId::new(1)).unwrap();
    for expected in 3..7 {
        assert_eq!(client.add(&key, 1).unwrap(), expected, "add after the kill");
    }
    deployment.shutdown();
}

/// `client_replies` counts one reply frame per command a partition
/// executes, not one per replica: on a 2 × 3 deployment a pipelined burst
/// of single-partition updates hands the client about one frame each.
/// Every replica answers a session's first command and session control,
/// so those go before the count starts, and a retry (every replica
/// answers a re-send) stays far inside the bound.
#[test]
fn a_partition_hands_the_client_one_reply_per_command() {
    use liverun::service::KvRouter;
    use mrpstore::KvCommand;
    use multiring::route::Route;

    let text = generate_localhost_mrpstore(2, 3, base_port(), None);
    let config = DeploymentConfig::parse(&text).unwrap();
    let deployment = Deployment::launch(config.clone()).unwrap();
    let mut client = StoreClient::connect(&config, ClientId::new(13), client_opts()).unwrap();
    let router = KvRouter {
        scheme: client.scheme().clone(),
        global: config.global_ring(),
    };
    for p in 0..2 {
        let key = (0..)
            .map(|i| format!("warm{i}"))
            .find(|k| router.scheme.partition_of(k).raw() == p)
            .unwrap();
        assert_eq!(client.insert(&key, Bytes::new()).unwrap(), KvResponse::Ok);
    }
    let before = total(&scrape(&config), "client_replies");

    const N: u64 = 400;
    let burst = (0..N).map(|i| {
        let cmd = KvCommand::Insert {
            key: format!("one{i}"),
            value: Bytes::from_static(b"v"),
        }
        .to_bytes();
        (router.route(&cmd).ring(), cmd)
    });
    assert_eq!(pipeline(&mut client, burst), N, "every update completes");
    let replies = total(&scrape(&config), "client_replies") - before;
    eprintln!("{replies} reply frames for {N} commands");
    assert!(
        (N..2 * N).contains(&replies),
        "{replies} reply frames for {N} commands on 3-replica partitions"
    );
    deployment.shutdown();
}

/// Seal on idle: the batcher holds a command back only while this node
/// has a proposal of its own in flight on the ring, so `batch_delay_ms`
/// is a ceiling, not a toll. With the ceiling at 200 ms a lone `put`
/// still completes in loopback time (it took the full 200 ms when the
/// seal ran on a clock), and a pipelined burst still shares instances —
/// idle sealing must not degrade into one consensus instance per command
/// under load, because the in-flight proposal's round trip is the
/// batching window.
#[test]
fn idle_ring_seals_at_once_and_a_pipelined_burst_still_amortises() {
    use common::ids::RingId;
    use mrpstore::KvCommand;
    use std::time::Instant;

    let text = generate_localhost_mrpstore(1, 3, base_port(), None).replacen(
        "batch_delay_ms = 2\n",
        "batch_delay_ms = 200\n",
        1,
    );
    let config = DeploymentConfig::parse(&text).unwrap();
    assert_eq!(config.batch_delay, Duration::from_millis(200));
    let deployment = Deployment::launch(config.clone()).unwrap();
    let mut client = StoreClient::connect(&config, ClientId::new(41), client_opts()).unwrap();

    // The first request also opens the session and waits out Phase 1.
    let put = |client: &mut StoreClient, i: u32| {
        let value = Bytes::from_static(b"v");
        assert_eq!(
            client.insert(&format!("lone{i}"), value).unwrap(),
            KvResponse::Ok
        );
    };
    put(&mut client, 0);
    let mut lone: Vec<Duration> = (1..=5)
        .map(|i| {
            let start = Instant::now();
            put(&mut client, i);
            start.elapsed()
        })
        .collect();
    lone.sort();
    // The median rides out a scheduler hiccup on a busy CI box; on the
    // clock every one of them paid the 200 ms.
    assert!(
        lone[2] < Duration::from_millis(100),
        "a lone put on an idle ring waited for the batch clock: {lone:?}"
    );

    let before = scrape(&config);
    const N: u64 = 2000;
    let ring0 = RingId::new(0);
    let add = KvCommand::Add {
        key: "burst".into(),
        delta: 1,
    }
    .to_bytes();
    let completed = pipeline(&mut client, (0..N).map(|_| (ring0, add.clone())));
    assert_eq!(completed, N, "every pipelined increment completes");

    // Commands proposed per non-skip instance, the way the benchmark's
    // `cmds_per_batch` row reads it: ring 0's decided instances on the
    // coordinator minus the skips its merge consumed there.
    let after = scrape(&config);
    let proposed = total(&after, "proposed_cmds") - total(&before, "proposed_cmds");
    let node0 =
        |snaps: &[common::obs::ObsSnapshot], name: &str| snaps[0].counter(name).unwrap_or(0);
    let instances = (node0(&after, "ring0_instances_decided")
        - node0(&before, "ring0_instances_decided"))
    .saturating_sub(node0(&after, "ring0_merge_skips") - node0(&before, "ring0_merge_skips"));
    assert!(proposed >= N, "the burst was proposed ({proposed})");
    assert!(
        instances > 0 && proposed >= 4 * instances,
        "{proposed} commands in {instances} app instances: the burst did not batch"
    );

    deployment.shutdown();
}

/// The credit window a fresh connection to `addr` is welcomed with.
fn hello_window(addr: std::net::SocketAddr) -> u32 {
    use common::transport::{encode_frame, FrameBuf};
    use common::wire::client::{ClientMsg, ClientReply};
    use std::io::{Read, Write};

    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let hello = ClientMsg::HelloV2 {
        client: ClientId::new(99),
        features: 0,
    };
    conn.write_all(&encode_frame(&hello)).unwrap();
    let (mut buf, mut chunk) = (FrameBuf::new(), [0u8; 4096]);
    loop {
        let n = conn.read(&mut chunk).expect("welcome");
        assert!(n > 0, "closed before the welcome");
        buf.extend(&chunk[..n]);
        while let Some(reply) = buf.try_next::<ClientReply>().unwrap() {
            if let ClientReply::WelcomeV2 { window, .. } = reply {
                return window;
            }
        }
    }
}

/// Credit-based backpressure end to end: a node driven into proposal
/// backlog shrinks the session window via `CreditGrant` (overload
/// degrades into queueing at the client), and the window re-expands once
/// the backlog drains — with every pipelined request completing exactly
/// once and no typed-error storm. A client saying hello mid-overload is
/// admitted at the clamped window, not the configured maximum.
///
/// The overload comes from something a deployment really does: the ring
/// spans three EC2 regions (delays doubled), so the coordinator's
/// proposal takes 340 ms (eu-west-1 ⇄ us-west-1) to come back decided —
/// three credit ticks. With one proposal in flight, everything pipelined
/// behind it queues in the batcher for that round trip (count/byte
/// seals and the `batch_delay_ms` ceiling are out of reach);
/// `credit_backlog_high = 4` makes each of those ticks halve the window,
/// and the next burst the replies release does it again, for the
/// seconds the load lasts.
#[test]
fn overload_shrinks_credit_window_and_drain_restores_it() {
    use common::ids::RingId;
    use liverun::config::with_geo;
    use mrpstore::KvCommand;
    use std::time::Instant;

    // Replace the generator's batching line outright: the hand-parsed
    // TOML lets a later duplicate key win, so prepending would be inert.
    let base = generate_localhost_mrpstore(1, 3, base_port(), None).replacen(
        "batch_max = 64\nbatch_delay_ms = 2\n",
        "batch_max = 10000\nbatch_max_bytes = 1048576\nbatch_delay_ms = 2000\n\
         client_window = 64\ncredit_min_window = 1\ncredit_backlog_high = 4\n",
        1,
    );
    let text = with_geo(
        &base,
        &[
            ("eu-west-1", &[0]),
            ("us-west-1", &[1]),
            ("us-west-2", &[2]),
        ],
        200,
    );
    let config = DeploymentConfig::parse(&text).unwrap();
    assert_eq!(config.credit_backlog_high, 4);
    assert_eq!(config.batch_delay, Duration::from_secs(2));
    let deployment = Deployment::launch(config.clone()).unwrap();
    // The client sits in the coordinator's region, so it hears of a
    // decision when node 0 does and its next burst meets an idle ring.
    let client_config = deployment.config_from("eu-west-1").unwrap();
    let mut client =
        StoreClient::connect(&client_config, ClientId::new(31), client_opts()).unwrap();

    let ring0 = RingId::new(0);
    let add = KvCommand::Add {
        key: "pressure".into(),
        delta: 1,
    }
    .to_bytes();

    // Open the session (and sit out Phase 1) before the load starts.
    let read = KvCommand::Read {
        key: "pressure".into(),
    }
    .to_bytes();
    client.raw().request(ring0, read.clone()).unwrap();

    // An idle ring seals whatever one pass of the node loop read off the
    // socket, and a fast client can land its whole window in one pass —
    // one batch, no backlog. So put one proposal in flight first and
    // watch it leave node 0; the burst behind it then queues for the
    // rest of its round trip.
    let proposed = || {
        liverun::fetch_stats(config.nodes[0].client_addr, Duration::from_secs(5))
            .expect("stats")
            .counter("proposed_cmds")
            .unwrap_or(0)
    };
    const TOTAL: u64 = 96;
    let idle = proposed();
    client.raw().submit(ring0, add.clone()).expect("submit");
    let mut submitted = 1u64;
    let primed_by = Instant::now() + Duration::from_secs(5);
    while proposed() == idle {
        assert!(Instant::now() < primed_by, "node 0 never proposed");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Pipeline hard: keep the window full so envelopes pile up in the
    // batcher behind each in-flight proposal. Submit only into a free
    // slot and otherwise poll in 10 ms steps — a `submit` blocked on a
    // full window would pump grants unseen, and the window is re-granted
    // every 100 ms, so this loop observes every value it takes.
    let mut completed = 0u64;
    let mut min_window = usize::MAX;
    let mut admitted = None;
    let drain_end = Instant::now() + Duration::from_secs(60);
    while completed < TOTAL && Instant::now() < drain_end {
        let in_flight = client.raw().stats().1;
        if submitted < TOTAL && in_flight < client.raw().current_window() {
            client.raw().submit(ring0, add.clone()).expect("submit");
            submitted += 1;
        } else if client.raw().poll_reply(Duration::from_millis(10)).is_some() {
            completed += 1;
        }
        min_window = min_window.min(client.raw().current_window());
        if admitted.is_none() && min_window <= 16 {
            admitted = Some(hello_window(client_config.nodes[0].client_addr));
        }
    }
    // The grant climbs by an eighth of the maximum per 100 ms tick at
    // most, so a hello answered within a tick or two of the clamp cannot
    // see the configured 64.
    assert!(
        admitted.is_some_and(|w| w < 64),
        "a client saying hello mid-overload is admitted at the clamped window ({admitted:?})"
    );
    assert_eq!(
        completed,
        TOTAL,
        "every pipelined request completes despite the clamp (client state: {:?})",
        client.raw().stats()
    );
    assert!(
        min_window <= 16,
        "overload never clamped the window (min observed: {min_window})"
    );

    // Backlog drained: the controller climbs back additively. Keep
    // pumping so the client sees the grants.
    let expand_end = Instant::now() + Duration::from_secs(10);
    while client.raw().current_window() < 64 && Instant::now() < expand_end {
        let _ = client.raw().poll_reply(Duration::from_millis(100));
    }
    assert_eq!(
        client.raw().current_window(),
        64,
        "window re-expands to the full grant after the backlog drains"
    );

    // Exactly-once under the clamp: the counter saw each increment once —
    // no retry was re-executed, none was lost.
    let raw = client.raw().request(ring0, read).unwrap();
    assert_eq!(
        KvResponse::decode(&mut raw.clone()).unwrap(),
        KvResponse::Value(Some(Bytes::copy_from_slice(&TOTAL.to_le_bytes()))),
        "each clamped-pipeline increment executed exactly once"
    );

    deployment.shutdown();
}

/// Restart in place under the exactly-once acceptance: a replica is
/// killed mid-run and restarted in place. The recovered node must agree
/// with its peers on the non-idempotent counter (session table and state
/// ride the checkpoint — no lost and no double-executed increment),
/// serve scans, and resume its WAL cursor monotonically.
#[test]
fn replica_restart_in_place_is_exactly_once() {
    use common::ids::{NodeId, RingId};
    use mrpstore::{KvCommand, Partitioning};
    use storage::wal::SegmentedWal;

    let wal_dir = std::env::temp_dir().join(format!("liverun-restartwal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let text = generate_localhost_mrpstore(2, 3, base_port(), wal_dir.to_str());
    let config = DeploymentConfig::parse(&text).unwrap();
    let mut deployment = Deployment::launch(config.clone()).unwrap();
    let mut client = StoreClient::connect(&config, ClientId::new(21), client_opts()).unwrap();

    // A counter key owned by partition 0, incremented through the v2
    // session — the non-idempotent probe for double-execution.
    let scheme = Partitioning::Hash { partitions: 2 };
    let key: String = (0..)
        .map(|i| format!("sctr{i}"))
        .find(|k| scheme.partition_of(k).raw() == 0)
        .unwrap();
    for _ in 0..8 {
        client.add(&key, 1).unwrap();
    }
    // Spread writes across both partitions.
    for i in 0..24 {
        assert_eq!(
            client
                .insert(&format!("sh{i:02}"), Bytes::from(vec![i as u8]))
                .unwrap(),
            KvResponse::Ok
        );
    }

    let victim = NodeId::new(2);
    let victim_dir = liverun::shard_wal_dir(&wal_dir, victim, 0);
    let pre_end = SegmentedWal::end_pos(&victim_dir).unwrap();
    deployment.kill(victim).unwrap();

    // Increments and writes continue while the replica is down.
    for _ in 0..7 {
        client.add(&key, 1).unwrap();
    }
    deployment.restart(victim).unwrap();
    client.raw().reconnect(victim).unwrap();

    // Post-restart increments land exactly once.
    for _ in 0..5 {
        client.add(&key, 1).unwrap();
    }

    // A scan after recovery merges every partition (and, riding the
    // global ring, lands one post-restart record in the recovered
    // node's WAL).
    let entries = client.scan("sh", "").unwrap();
    assert_eq!(entries.len(), 24, "scan merged all partitions");

    // The *recovered* replica answers the counter total from its own
    // state. Ring delivery is totally ordered, so the victim answering
    // this read (proposed after the scan) proves it executed the scan;
    // shutdown then flushes its WAL.
    let total: u64 = 8 + 7 + 5;
    let read = KvCommand::Read { key: key.clone() }.to_bytes();
    let raw = client
        .raw()
        .request_from(RingId::new(0), read, victim)
        .unwrap();
    assert_eq!(
        KvResponse::decode(&mut raw.clone()).unwrap(),
        KvResponse::Value(Some(Bytes::copy_from_slice(&total.to_le_bytes()))),
        "restarted replica must recover the exactly-once counter"
    );

    deployment.shutdown();

    // The WAL cursor resumed past its pre-kill end — positions stay
    // strictly monotone, never reused.
    let positions: Vec<u64> = SegmentedWal::replay::<liverun::WalRecord>(&victim_dir)
        .unwrap()
        .iter()
        .map(|(p, _)| *p)
        .collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "positions must stay strictly monotone across restart"
    );
    assert!(
        positions.last().copied().unwrap_or(0) >= pre_end,
        "cursor resumed below its pre-kill end"
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// Live key-range migration under load: a range moves from partition 0
/// to partition 1 (freeze → chunked install → cutover) while a writer
/// hammers a non-idempotent counter inside the moving range. Exactly
/// once must hold across the cutover — every acknowledged increment
/// applied, none applied twice — and clients must re-route themselves:
/// the writer mid-flight (through `Busy` backoff and `Moved` refresh)
/// and a fresh client that still routes by the boot-time map.
#[test]
fn live_range_migration_is_exactly_once_and_reroutes() {
    let text = liverun::config::with_range_partitioning(&generate_localhost_mrpstore(
        2,
        2,
        base_port(),
        None,
    ));
    let config = DeploymentConfig::parse(&text).unwrap();
    assert!(config.range_partitioned);
    let deployment = Deployment::launch(config.clone()).unwrap();

    // Boot scheme: two ranges split at "n" — keys "g…" live on
    // partition 0. Seed ordinary entries inside the range that will
    // move, plus some outside it.
    let mut admin = StoreClient::connect(&config, ClientId::new(21), client_opts()).unwrap();
    for i in 0..10 {
        assert_eq!(
            admin
                .insert(&format!("g{i:02}"), Bytes::from(vec![i as u8]))
                .unwrap(),
            KvResponse::Ok
        );
    }
    assert_eq!(
        admin.insert("q-stays", Bytes::from_static(b"p1")).unwrap(),
        KvResponse::Ok
    );

    // Writer thread: 60 exactly-once increments of a counter inside the
    // moving range, concurrent with the migration. Each returned value
    // is the counter after that increment.
    let writer_config = config.clone();
    let writer = std::thread::spawn(move || {
        let mut client =
            StoreClient::connect(&writer_config, ClientId::new(23), client_opts()).unwrap();
        (0..60)
            .map(|_| {
                let v = client.add("gcnt", 1).unwrap();
                std::thread::sleep(Duration::from_millis(5));
                v
            })
            .collect::<Vec<u64>>()
    });

    // Move "g".."h" (the seeded keys and the live counter) to
    // partition 1 mid-workload.
    std::thread::sleep(Duration::from_millis(60));
    let version = admin.migrate_range("g", "h", 1).unwrap();
    assert_eq!(version, 1);

    let returns = writer.join().unwrap();
    // Exactly once across freeze, Busy retries and the cutover: the
    // single writer saw every value 1..=60 exactly once, in order.
    assert_eq!(returns, (1..=60).collect::<Vec<u64>>());

    // The admin client cut over its own map at the migration; reads of
    // shipped entries go straight to the new owner.
    assert_eq!(admin.map_version(), 1);
    for i in 0..10 {
        assert_eq!(
            admin.read(&format!("g{i:02}")).unwrap(),
            Some(Bytes::from(vec![i as u8])),
            "shipped entry g{i:02} lost in migration"
        );
    }
    assert_eq!(
        admin.read("q-stays").unwrap(),
        Some(Bytes::from_static(b"p1"))
    );

    // A fresh client still routes by the boot-time map; its first touch
    // of the moved range answers `Moved`, and the client re-routes by
    // itself — no manual intervention.
    let mut stale = StoreClient::connect(&config, ClientId::new(22), client_opts()).unwrap();
    assert_eq!(stale.map_version(), 0);
    assert_eq!(stale.add("gcnt", 1).unwrap(), 61);
    assert_eq!(stale.map_version(), 1);

    // Scans across the moved boundary merge each key exactly once.
    let entries = admin.scan("g", "h").unwrap();
    assert_eq!(entries.len(), 11, "10 seeded entries plus the counter");

    deployment.shutdown();
}

/// Protocol v1 is retired: its frames no longer decode, so a connection
/// that opens with a v1 hello (tag 0) is closed — no welcome, no session,
/// no hang — and the node goes on serving v2 clients.
#[test]
fn v1_hello_is_rejected_cleanly() {
    use std::io::{Read, Write};

    let text = generate_localhost_mrpstore(1, 1, base_port(), None);
    let config = DeploymentConfig::parse(&text).unwrap();
    let deployment = Deployment::launch(config.clone()).unwrap();

    let mut conn = std::net::TcpStream::connect(config.nodes[0].client_addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A v1 hello as its last clients sent it: length 2, tag 0, client 77.
    conn.write_all(&[2, 0, 77]).unwrap();
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)
        .expect("the server closes the connection");
    assert!(raw.is_empty(), "a v1 hello was answered: {raw:?}");

    // The node is none the worse for it: a v2 client still works.
    let mut client = StoreClient::connect(&config, ClientId::new(78), client_opts()).unwrap();
    assert_eq!(
        client.insert("k", Bytes::from_static(b"v")).unwrap(),
        KvResponse::Ok
    );
    deployment.shutdown();
}

/// Live §5.2 trimming on the shape that once hid a dropped reply: 4
/// partitions of 2 replicas. A 2-replica partition's majority is both
/// replicas, so every trim quorum includes the trim coordinator's own
/// answer. Under paced load every acceptor trims every ring it accepts
/// on, and what the logs retain is bounded by a few checkpoint intervals
/// of decisions instead of growing with the run.
#[test]
fn acceptor_logs_trim_live_on_two_replica_partitions() {
    use std::time::Instant;

    const CHECKPOINT: Duration = Duration::from_millis(200);
    let text = generate_localhost_mrpstore(4, 2, base_port(), None);
    let mut config = DeploymentConfig::parse(&text).unwrap();
    config.checkpoint_interval = Some(CHECKPOINT);
    let steal = steal::Steal::now();
    let deployment = Deployment::launch(config.clone()).unwrap();
    let mut client = StoreClient::connect(&config, ClientId::new(81), client_opts()).unwrap();

    // Several hundred small writes a second over a bounded key set,
    // spread across the four partitions.
    let value = Bytes::from(vec![7u8; 256]);
    let mut i = 0u32;
    let mut paced = |client: &mut StoreClient, run: Duration| {
        let end = Instant::now() + run;
        while Instant::now() < end {
            let key = format!("paced{}", i % 512);
            assert_eq!(client.insert(&key, value.clone()).unwrap(), KvResponse::Ok);
            i += 1;
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    paced(&mut client, Duration::from_secs(1));
    let (t0, first) = (Instant::now(), scrape(&config));
    paced(&mut client, Duration::from_secs(4));
    let (t1, last) = (Instant::now(), scrape(&config));

    let untrimmed: Vec<_> = per_acceptor(&config, &last, "trim_floor")
        .into_iter()
        .filter(|(_, floor)| *floor <= 0)
        .collect();
    assert!(
        untrimmed.is_empty(),
        "(node, ring) acceptors that never trimmed: {untrimmed:?} ({})",
        steal.since()
    );
    // Slots and decided instances both count values, skips included.
    let window = 4.0 * CHECKPOINT.as_secs_f64() / (t1 - t0).as_secs_f64();
    for ring in &config.rings {
        let r = ring.id.raw();
        let decided = |snaps: &[common::obs::ObsSnapshot]| {
            let name = format!("ring{r}_instances_decided");
            snaps
                .iter()
                .filter(|s| ring.acceptors.iter().any(|a| a.raw() == s.node))
                .filter_map(|s| s.counter(&name))
                .sum::<u64>()
        };
        let recent = (decided(&last) - decided(&first)) as f64 * window;
        let slots: i64 = per_acceptor(&config, &last, "log_slots")
            .into_iter()
            .filter(|((_, of), _)| *of == r)
            .map(|(_, n)| n)
            .sum();
        assert!(
            (slots as f64) < recent,
            "ring {r}: its acceptors retain {slots} slots, more than the {recent:.0} \
             instances they decide in four checkpoint intervals ({})",
            steal.since()
        );
    }
    deployment.shutdown();
}

/// With checkpoints off nothing trims, and the stats plane shows the
/// acceptor logs holding what was decided: the retained-state gauges are
/// computed when stats are read, not on the (here absent) checkpoint
/// timer.
#[test]
fn retained_state_gauges_read_live_with_checkpoints_off() {
    let text = generate_localhost_mrpstore(1, 2, base_port(), None);
    let mut config = DeploymentConfig::parse(&text).unwrap();
    config.checkpoint_interval = None;
    let deployment = Deployment::launch(config.clone()).unwrap();
    let mut client = StoreClient::connect(&config, ClientId::new(83), client_opts()).unwrap();
    let value = Bytes::from(vec![3u8; 512]);
    for i in 0..50 {
        let key = format!("untrimmed{i}");
        assert_eq!(client.insert(&key, value.clone()).unwrap(), KvResponse::Ok);
    }
    let snaps = scrape(&config);
    let slots = per_acceptor(&config, &snaps, "log_slots");
    assert!(slots.iter().all(|(_, n)| *n > 0), "{slots:?}");
    let log_bytes: i64 = (per_acceptor(&config, &snaps, "log_bytes").iter())
        .map(|(_, n)| n)
        .sum();
    assert!(
        log_bytes >= 2 * 50 * 512,
        "{log_bytes} payload bytes logged"
    );
    for snap in &snaps {
        let accounted = snap.gauge("mem_accounted_bytes").unwrap_or(0);
        assert!(accounted > 0, "node {}: nothing accounted", snap.node);
        let rss = snap.gauge("vm_rss_bytes").unwrap_or(0);
        assert!(
            rss > accounted,
            "node {}: VmRSS {rss} < {accounted}",
            snap.node
        );
    }
    deployment.shutdown();
}

/// A replica the acceptors trimmed past comes back through a peer
/// checkpoint (§5.2: `K_T ≤ K_R`): one replica of a 3-replica partition
/// is killed, its peers checkpoint and trim past everything it had
/// delivered, and the restarted replica serves every acknowledged write
/// and keeps executing.
#[test]
fn replica_behind_the_trim_floor_recovers_from_a_peer_checkpoint() {
    use common::ids::{NodeId, RingId};
    use mrpstore::KvCommand;
    use std::collections::BTreeMap;
    use std::time::Instant;

    const CHECKPOINT: Duration = Duration::from_millis(200);
    let text = generate_localhost_mrpstore(1, 3, base_port(), None);
    let mut config = DeploymentConfig::parse(&text).unwrap();
    config.checkpoint_interval = Some(CHECKPOINT);
    let mut deployment = Deployment::launch(config.clone()).unwrap();
    let mut client = StoreClient::connect(&config, ClientId::new(82), client_opts()).unwrap();

    // Distinct keys, each acknowledged before the next is written.
    fn write(client: &mut StoreClient, acked: &mut BTreeMap<String, Bytes>) {
        let n = acked.len() as u64;
        let (key, value) = (
            format!("behind{n:05}"),
            Bytes::from(n.to_le_bytes().to_vec()),
        );
        assert_eq!(client.insert(&key, value.clone()).unwrap(), KvResponse::Ok);
        acked.insert(key, value);
    }
    let mut acked = BTreeMap::new();
    for _ in 0..100 {
        write(&mut client, &mut acked);
    }

    let victim = NodeId::new(2);
    deployment.kill(victim).unwrap();
    let killed = Instant::now();
    let stats = |node: &liverun::config::NodeSpec| {
        liverun::fetch_stats(node.client_addr, Duration::from_secs(5)).expect("stats")
    };
    let floors = || {
        let survivors = config.nodes.iter().filter(|n| n.id != victim);
        per_acceptor(
            &config,
            &survivors.map(stats).collect::<Vec<_>>(),
            "trim_floor",
        )
    };
    // Everything the victim delivered was decided before the kill. Each
    // survivor delivers that at once; its checkpoints (at most 1.875
    // checkpoint intervals apart, the spread) cover it within two
    // cadences; a trim round (one interval) then cuts above it. So a
    // floor that moves after `mark` has passed the victim's position.
    let mark = killed + 5 * CHECKPOINT;
    let mut at_mark = None;
    loop {
        write(&mut client, &mut acked);
        if at_mark.is_none() && Instant::now() >= mark {
            at_mark = Some(floors());
        }
        if let Some(before) = &at_mark {
            let now = floors();
            if now.iter().zip(before).all(|((_, a), (_, b))| a > b) {
                break;
            }
        }
        assert!(
            killed.elapsed() < Duration::from_secs(30),
            "the survivors stopped trimming: {:?} since {at_mark:?}",
            floors()
        );
    }

    deployment.restart(victim).unwrap();
    client.raw().reconnect(victim).unwrap();
    let scan = KvCommand::Scan {
        from: "behind".into(),
        to: "behine".into(),
    }
    .to_bytes();
    let raw = client
        .raw()
        .request_from(RingId::new(0), scan, victim)
        .unwrap();
    assert_eq!(
        KvResponse::decode(&mut raw.clone()).unwrap(),
        KvResponse::Entries(acked.clone().into_iter().collect()),
        "the recovered replica holds every acknowledged write"
    );

    let spec = config.nodes.iter().find(|n| n.id == victim).unwrap();
    let executed = || stats(spec).counter("executed_cmds").unwrap_or(0);
    let before = executed();
    let deadline = Instant::now() + Duration::from_secs(10);
    while executed() <= before {
        assert!(Instant::now() < deadline, "the recovered replica stalled");
        write(&mut client, &mut acked);
    }
    deployment.shutdown();
}

/// Direction 4's memory clause, measured: a 2 × 3 deployment under a
/// closed loop of 8 KiB writes (two clients, 32 in flight each) for a
/// minute. With trimming the acceptor logs stop growing once the load is
/// steady, and a learner caches a value only until it decides it, so the
/// learned-value caches hold what is in flight and nothing more. Prints,
/// at 20, 40 and 60 s, the process's `VmRSS` beside what the stats plane
/// accounts for: `mem_accounted_bytes`, `ring<r>_cache_bytes` and
/// `ring<r>_log_bytes`, each summed over every node. `VmRSS` itself is
/// reported, not asserted.
///
/// `cargo test --release -p liverun --test live_deployment -- --ignored
/// --nocapture acceptor_logs_stay_bounded_under_a_minute_of_large_values`
#[test]
#[ignore = "a one-minute soak; CI runs it in the live-e2e job"]
fn acceptor_logs_stay_bounded_under_a_minute_of_large_values() {
    use liverun::service::KvRouter;
    use mrpstore::KvCommand;
    use multiring::route::Route;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    let text = generate_localhost_mrpstore(2, 3, base_port(), None);
    let config = DeploymentConfig::parse(&text).unwrap();
    let deployment = Deployment::launch(config.clone()).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let load: Vec<_> = (0..2u32)
        .map(|t| {
            let (config, stop) = (config.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut client =
                    StoreClient::connect(&config, ClientId::new(90 + t), client_opts()).unwrap();
                let router = KvRouter {
                    scheme: client.scheme().clone(),
                    global: config.global_ring(),
                };
                let value = Bytes::from(vec![0xa5u8; 8192]);
                let (mut in_flight, mut done, mut i) = (0, 0u64, 0u64);
                while !stop.load(Ordering::Relaxed) || in_flight > 0 {
                    if !stop.load(Ordering::Relaxed) && in_flight < 32 {
                        // A bounded key set: the store stays a few MiB,
                        // so what grows is the protocol's, not the data.
                        let cmd = KvCommand::Insert {
                            key: format!("soak{t}-{}", i % 512),
                            value: value.clone(),
                        }
                        .to_bytes();
                        client
                            .raw()
                            .submit(router.route(&cmd).ring(), cmd)
                            .expect("submit");
                        in_flight += 1;
                        i += 1;
                    } else if client.raw().poll_reply(Duration::from_secs(10)).is_some() {
                        in_flight -= 1;
                        done += 1;
                    } else {
                        panic!("load stalled with {in_flight} in flight");
                    }
                }
                done
            })
        })
        .collect();

    let vm_rss = || {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmRSS:"))
                    .map(|v| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into())
    };
    // A gauge summed over every node, ring gauges matched by suffix.
    let total = |snaps: &[common::obs::ObsSnapshot], suffix: &str| -> i64 {
        (snaps.iter().flat_map(|s| &s.gauges))
            .filter(|(name, _)| name.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    };
    const MIB: i64 = 1 << 20;
    // What the logs retain swings with the checkpoint cycle: average it
    // over the five seconds (about ten cycles) up to each mark. The byte
    // gauges are the last scrape's.
    let start = Instant::now();
    let (mut slots, mut cached) = (Vec::new(), Vec::new());
    for at in [20u64, 40, 60] {
        let mark = Duration::from_secs(at);
        std::thread::sleep((mark - Duration::from_secs(5)).saturating_sub(start.elapsed()));
        let (mut samples, mut last) = (Vec::new(), Vec::new());
        while start.elapsed() < mark {
            last = scrape(&config);
            let retained = per_acceptor(&config, &last, "log_slots").into_iter();
            samples.push(retained.map(|(_, n)| n).sum::<i64>());
            std::thread::sleep(Duration::from_millis(100));
        }
        let mean = samples.iter().sum::<i64>() / samples.len().max(1) as i64;
        let peak = samples.iter().max().copied().unwrap_or(0);
        let cache = total(&last, "_cache_bytes");
        println!(
            "{at:>2} s: VmRSS {}, accounted {} MiB (cached values {} KiB, acceptor logs {} MiB \
             in {mean} slots, peak {peak}), dedup ranges {}",
            vm_rss(),
            total(&last, "mem_accounted_bytes") / MIB,
            cache / 1024,
            total(&last, "_log_bytes") / MIB,
            total(&last, "_dedup_ranges"),
        );
        slots.push(mean);
        cached.push(cache);
    }
    stop.store(true, Ordering::Relaxed);
    let done: u64 = load
        .into_iter()
        .map(|t| t.join().expect("load thread"))
        .sum();
    println!("{done} writes");
    assert!(done > 0, "the load ran");
    assert!(
        slots[2] as f64 <= 1.5 * slots[0] as f64,
        "acceptor log slots grew from {} at 20 s to {} at 60 s",
        slots[0],
        slots[2]
    );
    // What is in flight bounds the caches: 64 writes of 8 KiB, held at
    // most once per node. A cache that kept decided values would hold
    // thousands of batches per ring node.
    assert!(
        cached[2] < 16 * MIB,
        "the learned-value caches hold {} KiB at 60 s",
        cached[2] / 1024
    );
    deployment.shutdown();
}
