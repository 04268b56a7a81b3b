//! The multi-process failover end-to-end: a real cluster of OS processes
//! — a 3-replica `amcoordd` ensemble plus one `amcastd` process per data
//! node — exercising the full §7.1 deployment shape:
//!
//! * every node bootstraps its configuration from amcoord (idempotent
//!   concurrent seeding) and advertises an ephemeral liveness entry;
//! * SIGKILLing the ring coordinator drives a *cross-process* membership
//!   change: the survivor's failure report flows through `amcoordd`, the
//!   other nodes learn the new epoch via watches, and the dead node's
//!   session TTL expires its advertisement;
//! * reads stay linearizable before and after the kill (reads are
//!   ordered commands: a read observing v implies every later read does);
//! * the killed node restarts *in place* — same WAL directory, the lock
//!   left by the SIGKILLed pid is stolen deterministically — rejoins
//!   through amcoord and serves fresh state;
//! * an `amcoordd` replica is SIGKILLed and restarted in place — same
//!   `--wal-dir`, checkpoint + WAL replay + peer catch-up — and must
//!   rejoin its original ensemble serving coordination state committed
//!   while it was down, with linearizable data-path reads throughout.
//!
//! A second test SIGSTOPs the whole `amcoordd` ensemble under load: a
//! node never waits on the coordination service, so the data path does
//! not notice.
//!
//! A watchdog aborts the whole test hard if anything wedges, so a hung
//! cluster fails CI fast instead of stalling the runner. The two tests
//! take turns: each measures a cluster of its own.

use std::io::Write as _;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bytes::Bytes;
use common::ids::{ClientId, NodeId, RingId};
use liverun::config::{generate_localhost_mrpstore, with_coord};
use liverun::{connect_coord, ClientOptions, Deployment, DeploymentConfig, StoreClient};

mod steal;

/// Held by each test for its whole run.
static ONE_CLUSTER: Mutex<()> = Mutex::new(());

/// Kills its children on drop so a failing assertion never leaks
/// processes into the CI runner.
struct Cluster {
    children: Vec<(String, Child)>,
}

impl Cluster {
    fn new() -> Self {
        Cluster {
            children: Vec::new(),
        }
    }

    fn spawn(&mut self, name: &str, mut cmd: Command) {
        let child = cmd
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        self.children.push((name.to_string(), child));
    }

    fn kill(&mut self, name: &str) {
        let (_, child) = self
            .children
            .iter_mut()
            .find(|(n, _)| n == name)
            .expect("known child");
        let _ = child.kill();
        let _ = child.wait();
    }

    /// Sends `signal` to every child.
    fn signal_all(&self, signal: i32) {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        for (name, child) in &self.children {
            // SAFETY: `kill(2)` takes two integers and touches no memory.
            let sent = unsafe { kill(child.id() as i32, signal) };
            assert_eq!(sent, 0, "signal {signal} to {name}");
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for (_, child) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn wait_until(what: &str, deadline: Duration, mut check: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if check() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("timed out waiting for {what}");
}

/// The `amcoordd` command line of replica `id` of the ensemble at
/// `ring`/`serve` (comma-separated address lists).
fn amcoordd_cmd(id: u32, ring: &str, serve: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_amcoordd"));
    cmd.args(["--id", &id.to_string(), "--ring", ring, "--serve", serve]);
    cmd
}

fn addr_list(addrs: &[SocketAddr]) -> String {
    addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn coordinator_kill_and_restart_through_amcoordd() {
    let _one = ONE_CLUSTER.lock().unwrap_or_else(|e| e.into_inner());
    // Hard watchdog: a wedged cluster must fail fast, not hang the runner.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(240));
        eprintln!("multiproc_failover: watchdog fired, aborting");
        std::process::abort();
    });

    // 6 amcoordd ports (3 ring + 3 client), 2 spare, then 3 nodes × 2.
    let base = liverun::config::free_port_block(14).unwrap();
    let coord_ring: Vec<SocketAddr> = (0..3)
        .map(|i| format!("127.0.0.1:{}", base + i).parse().unwrap())
        .collect();
    let coord_serve: Vec<SocketAddr> = (0..3)
        .map(|i| format!("127.0.0.1:{}", base + 3 + i).parse().unwrap())
        .collect();
    let ring_list = coord_ring
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let serve_list = coord_serve
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");

    let dir = std::env::temp_dir().join(format!("amcast-mpf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal_dir = dir.join("wal");

    // amcoordd replicas run durable: their decided log and periodic
    // CoordState checkpoints land under coord_wal, enabling the
    // SIGKILL → restart-in-place phase at the end of this test. The tiny
    // checkpoint cadence makes sure the restart exercises checkpoint
    // load + WAL suffix replay, not just one of the two.
    let coord_wal = dir.join("coord_wal");
    let amcoordd = |id: u32| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_amcoordd"));
        cmd.args([
            "--id",
            &id.to_string(),
            "--ring",
            &ring_list,
            "--serve",
            &serve_list,
            "--session-check-ms",
            "250",
            "--wal-dir",
            coord_wal.to_str().unwrap(),
            "--checkpoint-every",
            "8",
        ]);
        cmd
    };
    let mut cluster = Cluster::new();
    for id in 0..3u32 {
        cluster.spawn(&format!("amcoordd-{id}"), amcoordd(id));
    }

    // One partition of three replicas: ring 0 (members 0,1,2) carries the
    // partition's commands, ring 1 is the global ring.
    let doc = with_coord(
        &generate_localhost_mrpstore(1, 3, base + 8, wal_dir.to_str()),
        &coord_serve,
        Duration::from_millis(1200),
    );
    let config_path = dir.join("deployment.toml");
    let mut f = std::fs::File::create(&config_path).unwrap();
    f.write_all(doc.as_bytes()).unwrap();
    drop(f);
    let config = DeploymentConfig::parse(&doc).unwrap();

    // Observe the cluster through our own coordination client; its
    // session opening doubles as "the ensemble's ring has formed".
    let registry =
        connect_coord(&coord_serve, Duration::from_secs(3)).expect("amcoordd ensemble reachable");

    for id in 0..3u32 {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_amcastd"));
        cmd.args([
            "run",
            "--config",
            config_path.to_str().unwrap(),
            "--node",
            &id.to_string(),
        ]);
        cluster.spawn(&format!("amcastd-{id}"), cmd);
    }
    wait_until(
        "all nodes to advertise themselves",
        Duration::from_secs(30),
        || registry.ephemerals("nodes/").len() == 3,
    );
    let ring0 = RingId::new(0);
    let before = registry.ring(ring0).expect("ring 0 seeded");
    assert_eq!(before.coordinator(), NodeId::new(0));

    let mut store = StoreClient::connect(
        &config,
        ClientId::new(1),
        ClientOptions {
            timeout: Duration::from_secs(10),
            retry_every: Duration::from_secs(1),
            ..ClientOptions::default()
        },
    )
    .expect("store client connects");

    // Linearizable reads before the kill: a write followed by a read
    // (both ordered commands) observes the write.
    store
        .insert("k", Bytes::from_static(b"v1"))
        .expect("insert v1");
    assert_eq!(
        store.read("k").expect("read v1"),
        Some(Bytes::from_static(b"v1"))
    );

    // ---- Pipelined v2 exactly-once through the SIGKILL ----
    // Fill the session's sliding window with non-idempotent counter
    // increments, SIGKILL the ring coordinator while they are in
    // flight, and keep the pipeline full through the cross-process
    // failover. Every re-send the client fires while the ring
    // reconfigures is deduplicated by the replicated session table, so
    // the counter must land on *exactly* the number submitted.
    use common::wire::Wire as _;
    let add = mrpstore::KvCommand::Add {
        key: "hits".into(),
        delta: 1,
    }
    .to_bytes();
    let mut submitted = 0u64;
    let mut completed = 0u64;
    for _ in 0..8 {
        store.raw().submit(ring0, add.clone()).expect("submit");
        submitted += 1;
    }

    // SIGKILL the coordinator of ring 0 (node 0) mid-pipeline.
    // Membership change must flow through amcoordd: survivors report the
    // failure, the service CASes the config, watches spread the new
    // epoch.
    cluster.kill("amcastd-0");

    while submitted < 40 {
        if store.raw().poll_reply(Duration::from_millis(250)).is_some() {
            completed += 1;
        }
        if store.raw().submit(ring0, add.clone()).is_ok() {
            submitted += 1;
        }
    }
    let drain_end = Instant::now() + Duration::from_secs(60);
    while completed < submitted && Instant::now() < drain_end {
        if store.raw().poll_reply(Duration::from_millis(500)).is_some() {
            completed += 1;
        }
    }
    assert_eq!(
        completed, submitted,
        "every pipelined request completes through the failover"
    );
    assert_eq!(
        store.add("hits", 0).expect("read counter"),
        submitted,
        "non-idempotent increments executed exactly once across the SIGKILL"
    );

    wait_until(
        "amcoordd to remove node 0 from ring 0",
        Duration::from_secs(30),
        || {
            registry
                .ring(ring0)
                .map(|cfg| !cfg.contains(NodeId::new(0)) && cfg.coordinator() != NodeId::new(0))
                .unwrap_or(false)
        },
    );
    // The killed process's session TTL lapses: its advertisement is gone.
    wait_until(
        "node 0's ephemeral entry to expire",
        Duration::from_secs(30),
        || {
            !registry
                .ephemerals("nodes/")
                .iter()
                .any(|e| e.key == "nodes/0")
        },
    );

    // Linearizable reads after the kill.
    store
        .insert("k", Bytes::from_static(b"v2"))
        .expect("insert v2");
    assert_eq!(
        store.read("k").expect("read v2"),
        Some(Bytes::from_static(b"v2"))
    );

    // Restart node 0 in place: same WAL dir (the SIGKILLed pid's lock is
    // stolen), recovery path, rejoin through amcoordd.
    {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_amcastd"));
        cmd.args([
            "run",
            "--config",
            config_path.to_str().unwrap(),
            "--node",
            "0",
            "--restart",
        ]);
        cluster.spawn("amcastd-0r", cmd);
    }
    wait_until(
        "node 0 to rejoin ring 0 through amcoordd",
        Duration::from_secs(30),
        || {
            registry
                .ring(ring0)
                .map(|cfg| cfg.contains(NodeId::new(0)))
                .unwrap_or(false)
                && registry
                    .ephemerals("nodes/")
                    .iter()
                    .any(|e| e.key == "nodes/0")
        },
    );

    // The recovered replica answers with up-to-date state.
    let cmd = mrpstore::KvCommand::Read { key: "k".into() };
    let end = Instant::now() + Duration::from_secs(45);
    loop {
        match store
            .raw()
            .request_from(ring0, cmd.to_bytes(), NodeId::new(0))
        {
            Ok(raw) => {
                let resp = mrpstore::KvResponse::decode(&mut raw.clone()).expect("decodes");
                assert_eq!(
                    resp,
                    mrpstore::KvResponse::Value(Some(Bytes::from_static(b"v2")))
                );
                break;
            }
            Err(_) if Instant::now() < end => continue,
            Err(e) => panic!("recovered replica never answered: {e}"),
        }
    }

    // ---- amcoordd durability: SIGKILL a replica, restart in place ----
    // The ensemble must tolerate the loss (majority survives), commit
    // coordination state while the replica is down, and re-admit the
    // replica after a same-dir restart serving that state.
    cluster.kill("amcoordd-1");

    // A coordination write committed during the downtime. The client may
    // be connected to the killed replica, so retry around the failover.
    let mut during_version = 0;
    wait_until(
        "coord write to commit during amcoordd downtime",
        Duration::from_secs(30),
        || match registry.set_meta_cas("during-coord-downtime", Bytes::from_static(b"x"), 0) {
            Ok(v) => {
                during_version = v;
                true
            }
            Err(_) => false,
        },
    );
    // Linearizable data-path reads while the coord replica is down.
    store
        .insert("k", Bytes::from_static(b"v3"))
        .expect("insert v3");
    assert_eq!(
        store.read("k").expect("read v3"),
        Some(Bytes::from_static(b"v3"))
    );

    // Restart in place: same id, same ports, same --wal-dir. The lock
    // left by the SIGKILLed pid is stolen; checkpoint + WAL replay +
    // peer catch-up bring the replica back into its original ensemble.
    cluster.spawn("amcoordd-1r", amcoordd(1));

    // A client pinned to ONLY the restarted replica: serving a session
    // at all proves its ring rejoined (a session open replicates through
    // the log, so its applied cursor is advancing again), and the read
    // below proves catch-up surfaced state committed while it was down.
    let pinned = connect_coord(&coord_serve[1..2], Duration::from_secs(3))
        .expect("restarted amcoordd replica serves clients");
    wait_until(
        "restarted amcoordd to serve ops committed while it was down",
        Duration::from_secs(30),
        || {
            pinned.meta_versioned("during-coord-downtime")
                == Some((during_version, Bytes::from_static(b"x")))
        },
    );

    // Data path is still linearizable with the recovered replica serving.
    store
        .insert("k", Bytes::from_static(b"v4"))
        .expect("insert v4");
    assert_eq!(
        store.read("k").expect("read v4"),
        Some(Bytes::from_static(b"v4"))
    );

    // ---- Stats plane after both failovers (the CI live-e2e guard) ----
    // Every amcastd node — including the SIGKILLed-and-restarted one —
    // must answer a StatsRequest, report zero decision-payload bytes
    // (decisions stayed id-only through two reconfigurations), and show
    // a delivery cursor that still advances: a committed write must bump
    // executed_cmds on every node, not just the one serving the client.
    let baseline: Vec<u64> = config
        .nodes
        .iter()
        .map(|n| {
            let snap = liverun::fetch_stats(n.client_addr, Duration::from_secs(5))
                .unwrap_or_else(|e| panic!("stats from node {}: {e}", n.id));
            assert_eq!(
                snap.counter("decision_payload_bytes"),
                Some(0),
                "node {} circulated payload bytes in decisions",
                n.id
            );
            snap.counter("executed_cmds").unwrap_or(0)
        })
        .collect();
    store
        .insert("k", Bytes::from_static(b"v5"))
        .expect("insert v5");
    wait_until(
        "every node's delivery cursor to advance past the failovers",
        Duration::from_secs(30),
        || {
            config.nodes.iter().zip(&baseline).all(|(n, before)| {
                liverun::fetch_stats(n.client_addr, Duration::from_secs(5))
                    .map(|s| s.counter("executed_cmds").unwrap_or(0) > *before)
                    .unwrap_or(false)
            })
        },
    );
    // The restarted amcoordd replica serves its own per-process registry
    // through the stats plane: the apply counter was re-seeded from the
    // recovered cursor, so it is nonzero immediately.
    let coord_stats = liverun::fetch_stats(coord_serve[1], Duration::from_secs(5))
        .expect("restarted amcoordd serves stats");
    assert!(
        coord_stats.counter("coord_applied").unwrap_or(0) > 0,
        "restarted amcoordd lost its recovered apply counter"
    );

    drop(pinned);
    drop(store);
    drop(registry);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The whole coordination service stops — every `amcoordd` replica
/// SIGSTOPped for longer than a keep-alive period plus a request timeout
/// — while a single-partition deployment takes paced writes. No node loop
/// waits on the ensemble, so the writes keep their latency and no ring
/// reconfigures; once the ensemble resumes, every node is advertised
/// again within seconds.
#[test]
fn a_stopped_coordination_service_does_not_stall_the_data_path() {
    const SIGCONT: i32 = 18;
    const SIGSTOP: i32 = 19;
    const STOPPED: Duration = Duration::from_secs(6);
    const AFTER: Duration = Duration::from_secs(2);
    const PACE: Duration = Duration::from_millis(2);
    // A stall on the ensemble costs seconds. Unoptimized, this cluster's
    // p99 sits at 2–5 ms with the ensemble running, so the bound there
    // leaves room for the build, not for a stall.
    const P99: Duration = Duration::from_millis(if cfg!(debug_assertions) { 20 } else { 5 });
    let _one = ONE_CLUSTER.lock().unwrap_or_else(|e| e.into_inner());

    // 6 amcoordd ports (3 ring + 3 client), then 3 nodes × 2.
    let base = liverun::config::free_port_block(12).unwrap();
    let port = |i: u16| -> SocketAddr { ([127, 0, 0, 1], base + i).into() };
    let ring: Vec<SocketAddr> = (0..3).map(port).collect();
    let serve: Vec<SocketAddr> = (3..6).map(port).collect();
    let mut ensemble = Cluster::new();
    for id in 0..3u32 {
        let cmd = amcoordd_cmd(id, &addr_list(&ring), &addr_list(&serve));
        ensemble.spawn(&format!("amcoordd-{id}"), cmd);
    }
    let doc = with_coord(
        &generate_localhost_mrpstore(1, 3, base + 6, None),
        &serve,
        Duration::from_millis(1200),
    );
    let config = DeploymentConfig::parse(&doc).unwrap();
    let deployment = Deployment::launch(config.clone()).expect("deployment launches");
    let epochs = || {
        let fresh = connect_coord(&serve, Duration::from_secs(3)).expect("ensemble");
        let rings = [RingId::new(0), RingId::new(1)];
        let epochs = rings.map(|r| fresh.ring(r).expect("ring config").epoch());
        (epochs, fresh)
    };
    let (before, _) = epochs();
    let mut store = StoreClient::connect(&config, ClientId::new(1), ClientOptions::default())
        .expect("store client connects");

    // Paced writes; the ensemble stops a second in.
    let (start, steal) = (Instant::now(), steal::Steal::now());
    let stop_at = start + Duration::from_secs(1);
    let cont_at = stop_at + STOPPED;
    let mut stopped = false;
    let mut resumed = None;
    let mut window = Vec::new();
    let mut next = start;
    while next < cont_at + AFTER {
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
        let now = Instant::now();
        if !stopped && now >= stop_at {
            ensemble.signal_all(SIGSTOP);
            stopped = true;
        }
        if resumed.is_none() && now >= cont_at {
            ensemble.signal_all(SIGCONT);
            resumed = Some(now);
        }
        let key = format!("k{}", window.len() % 64);
        store.insert(&key, Bytes::from_static(b"v")).expect("write");
        if stopped {
            // From when the write was due: a stall delays the writes
            // queued behind it too.
            window.push(next.elapsed());
        }
        next += PACE;
    }
    let resumed = resumed.expect("the ensemble resumed");
    window.sort_unstable();
    let p99 = window[window.len() * 99 / 100];
    eprintln!(
        "stopped ensemble: {} writes over {:?}, p50 {:?}, p99 {:?}, max {:?}",
        window.len(),
        STOPPED + AFTER,
        window[window.len() / 2],
        p99,
        window[window.len() - 1]
    );
    assert!(
        p99 < P99,
        "single-partition p99 {p99:?} while the ensemble was stopped ({})",
        steal.since()
    );

    let (after, observer) = epochs();
    assert_eq!(
        before, after,
        "a ring reconfigured while the ensemble was stopped"
    );
    wait_until(
        "every node to be advertised again",
        (resumed + Duration::from_secs(5)).saturating_duration_since(Instant::now()),
        || {
            let names: Vec<String> = (observer.ephemerals("nodes/").into_iter())
                .map(|e| e.key)
                .collect();
            names == ["nodes/0", "nodes/1", "nodes/2"]
        },
    );
    drop(store);
    deployment.shutdown();
}
