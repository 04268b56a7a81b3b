//! Integration tests for the replicated coordination service: a real
//! 3-replica `amcoordd` ensemble (in this process, over localhost TCP)
//! serving [`coord::Registry`] clients connected by
//! [`liverun::connect_coord`].

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use bytes::Bytes;
use common::ids::{NodeId, RingId};
use coord::RingConfig;
use liverun::coord_node::{
    start_coord_server, CoordEnsemble, CoordServerConfig, CoordServerHandle,
};
use liverun::{connect_coord, fetch_stats};

mod threads;
use threads::{alone, settled_threads, thread_names};

/// A 3-replica ensemble uses 6 ports (3 ring, then 3 client).
fn base_port() -> u16 {
    threads::free_ports(6)
}

fn start_ensemble(n: u16, base: u16) -> (Vec<CoordServerHandle>, Vec<SocketAddr>) {
    let mut handles = Vec::new();
    for id in 0..n {
        let config = CoordServerConfig::localhost(u32::from(id), n, base);
        handles.push(start_coord_server(config).expect("replica starts"));
    }
    let addrs = handles.iter().map(|h| h.client_addr()).collect();
    (handles, addrs)
}

fn wait_until(deadline: Duration, mut check: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}

fn nodes(ids: &[u32]) -> Vec<NodeId> {
    ids.iter().map(|i| NodeId::new(*i)).collect()
}

/// One loop thread per replica: a 3-replica ensemble that has replicated
/// a write through each replica for a live client connection runs its
/// three node loops and nothing else — no gossip feed, no helper, nothing
/// per connection — and shutting it down leaves the process with the
/// threads it had before.
#[test]
fn a_replica_is_one_loop_thread_and_shutdown_leaves_none_behind() {
    use common::ids::{ClientId, RequestId};
    use common::transport::{encode_frame, FrameBuf};
    use common::value::SESSION_CTL;
    use common::wire::client::{
        parse_open_reply, parse_reply, ClientMsg, ClientReply, SessionCtl, FEAT_ALL,
    };
    use common::wire::coord::{decode_reply, CoordOp, COORD_RING};
    use common::wire::Wire;
    use std::io::{Read, Write};

    /// Sends `cmd` under `session` as request `seq` and reads frames until
    /// its answer.
    fn ask(
        conn: &mut std::net::TcpStream,
        buf: &mut FrameBuf,
        session: u64,
        seq: u64,
        cmd: Bytes,
    ) -> Bytes {
        let request = ClientMsg::RequestV2 {
            session,
            seq: RequestId::new(seq),
            ack: 0,
            group: COORD_RING,
            cmd,
        };
        conn.write_all(&encode_frame(&request)).unwrap();
        let mut chunk = [0u8; 4096];
        loop {
            while let Some(reply) = buf.try_next::<ClientReply>().unwrap() {
                if let ClientReply::ResponseV2 {
                    seq: s, payload, ..
                } = reply
                {
                    if s.raw() == seq {
                        return payload;
                    }
                }
            }
            let n = conn.read(&mut chunk).expect("reply");
            assert!(n > 0, "the replica hung up");
            buf.extend(&chunk[..n]);
        }
    }

    if !alone("a_replica_is_one_loop_thread_and_shutdown_leaves_none_behind") {
        return;
    }
    let before = thread_names().len();
    let ensemble = CoordEnsemble::localhost(3, base_port(), None).expect("ensemble launches");
    // Raw connections: nothing but the replicas runs in this process.
    let conns: Vec<std::net::TcpStream> = ensemble
        .client_addrs()
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            let hello = ClientMsg::HelloV2 {
                client: ClientId::new(1000 + i as u32),
                features: FEAT_ALL,
            };
            conn.write_all(&encode_frame(&hello)).unwrap();
            let mut buf = FrameBuf::new();
            let open = SessionCtl::Open {
                token: 1,
                ttl_ms: 30_000,
            };
            let opened = ask(&mut conn, &mut buf, SESSION_CTL, 1, open.to_bytes());
            let session = parse_open_reply(&opened).expect("a session");
            let set = CoordOp::SetMeta {
                key: format!("thread-{i}"),
                value: Bytes::from_static(b"x"),
                expected_version: None,
            };
            let payload = ask(&mut conn, &mut buf, session, 2, set.to_bytes());
            let reply = parse_reply(&payload).and_then(|(_, body)| decode_reply(&body).ok());
            assert!(
                matches!(reply, Some((Ok(_), _))),
                "write through replica {i}: {reply:?}"
            );
            conn
        })
        .collect();
    // Dial helpers live only until their connect returns.
    assert!(wait_until(Duration::from_secs(5), || !thread_names()
        .iter()
        .any(|n| n.starts_with("amcoord-dial"))));
    let names = settled_threads(before + 3);
    let mut ours: Vec<&str> = names
        .iter()
        .map(String::as_str)
        .filter(|n| n.starts_with("amcoord-"))
        .collect();
    ours.sort_unstable();
    assert_eq!(
        ours,
        ["amcoord-node-0", "amcoord-node-1", "amcoord-node-2"],
        "one loop thread per replica and nothing else"
    );
    assert_eq!(names.len(), before + 3, "threads while serving: {names:?}");

    drop(conns);
    ensemble.shutdown();
    assert!(
        wait_until(Duration::from_secs(1), || thread_names().len() <= before),
        "threads left behind after shutdown: {:?}",
        thread_names()
    );
}

/// A data deployment on the ensemble adds its node loops and nothing
/// else: every node drives its coordination session on its own loop, and
/// the deployment's own registry turns its sockets on the caller's
/// thread — no reader or keep-alive thread per connection.
#[test]
fn a_deployment_on_the_ensemble_runs_only_loop_threads() {
    use common::ids::ClientId;
    use liverun::config::{generate_localhost_mrpstore, with_coord};
    use liverun::{ClientOptions, Deployment, DeploymentConfig, StoreClient};

    if !alone("a_deployment_on_the_ensemble_runs_only_loop_threads") {
        return;
    }
    let before = thread_names().len();
    let ensemble = CoordEnsemble::localhost(3, base_port(), None).expect("ensemble launches");
    let doc = with_coord(
        &generate_localhost_mrpstore(2, 3, threads::free_ports(12), None),
        &ensemble.client_addrs(),
        Duration::from_millis(1500),
    );
    let config = DeploymentConfig::parse(&doc).unwrap();
    let deployment = Deployment::launch(config.clone()).expect("deployment launches");
    let mut store = StoreClient::connect(&config, ClientId::new(1), ClientOptions::default())
        .expect("store client connects");
    store.insert("k", Bytes::from_static(b"v")).expect("write");
    // Dial helpers live only until their connect returns.
    assert!(wait_until(Duration::from_secs(5), || !thread_names()
        .iter()
        .any(|n| n.contains("-dial"))));
    let names = settled_threads(before + 9);
    let mut ours: Vec<&str> = names
        .iter()
        .map(String::as_str)
        .filter(|n| n.starts_with("amc"))
        .collect();
    ours.sort_unstable();
    assert_eq!(
        ours,
        [
            "amcast-node-0",
            "amcast-node-1",
            "amcast-node-2",
            "amcast-node-3",
            "amcast-node-4",
            "amcast-node-5",
            "amcoord-node-0",
            "amcoord-node-1",
            "amcoord-node-2",
        ],
        "one loop thread per node and replica and nothing else"
    );
    assert_eq!(names.len(), before + 9, "threads while serving: {names:?}");

    drop(store);
    deployment.shutdown();
    ensemble.shutdown();
}

#[test]
fn ensemble_replicates_writes_and_pushes_watches() {
    let (handles, addrs) = start_ensemble(3, base_port());
    // Two clients on *different* replicas.
    let a = connect_coord(&addrs[..1], Duration::from_secs(3)).unwrap();
    let b = connect_coord(&addrs[1..2], Duration::from_secs(3)).unwrap();

    // A write through A becomes visible to B (replicated, then applied on
    // B's replica).
    a.register_ring(RingConfig::new(RingId::new(7), nodes(&[0, 1, 2]), nodes(&[0, 1, 2])).unwrap())
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || b.ring(RingId::new(7)).is_ok()),
        "write through replica 0 must reach replica 1"
    );

    // A CAS election through B; A learns the new epoch through its watch.
    let epoch = b.ring(RingId::new(7)).unwrap().epoch();
    b.elect_coordinator(RingId::new(7), NodeId::new(1), epoch)
        .unwrap()
        .expect("first election wins");
    // The same CAS from the stale epoch loses against replicated state.
    let lost = b
        .elect_coordinator(RingId::new(7), NodeId::new(2), epoch)
        .unwrap();
    assert!(lost.is_err(), "stale-epoch writer must be rejected");

    assert!(
        wait_until(Duration::from_secs(10), || {
            a.ring(RingId::new(7))
                .map(|cfg| cfg.coordinator() == NodeId::new(1))
                .unwrap_or(false)
        }),
        "A's cached config must follow the watch"
    );

    // Versioned meta CAS across replicas.
    let v = a
        .set_meta_cas("scheme", Bytes::from_static(b"one"), 0)
        .unwrap();
    assert!(b
        .set_meta_cas("scheme", Bytes::from_static(b"two"), 0)
        .is_err());
    b.set_meta_cas("scheme", Bytes::from_static(b"two"), v)
        .unwrap();

    drop(a);
    drop(b);
    for h in handles {
        h.shutdown();
    }
}

/// Reads are ordered on the ring like writes: a write acknowledged by
/// replica 0 is visible to the very next read served by replica 2, with
/// no waiting for replica 2 to apply it.
#[test]
fn reads_through_another_replica_see_every_acknowledged_write() {
    let (handles, addrs) = start_ensemble(3, base_port());
    let writer = connect_coord(&addrs[..1], Duration::from_secs(3)).unwrap();
    let reader = connect_coord(&addrs[2..], Duration::from_secs(3)).unwrap();
    for i in 0..50 {
        let key = format!("lin-{i}");
        let value = Bytes::from(format!("v{i}"));
        writer.set_meta_cas(&key, value.clone(), 0).unwrap();
        assert_eq!(
            reader.meta(&key),
            Some(value),
            "read of {key} after its ack"
        );
    }
    drop(writer);
    drop(reader);
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn session_expiry_drops_ephemeral_entries() {
    let (handles, addrs) = start_ensemble(3, base_port());
    let short = Duration::from_millis(600);
    let transient = connect_coord(&addrs[..1], short).unwrap();
    let observer = connect_coord(&addrs[2..], Duration::from_secs(3)).unwrap();

    transient
        .announce("nodes/9", Bytes::from_static(b"127.0.0.1:1"))
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            observer
                .ephemerals("nodes/")
                .iter()
                .any(|e| e.key == "nodes/9")
        }),
        "announcement must replicate"
    );

    // While the client lives, keep-alives hold the session open well past
    // its TTL. Its calls turn its link.
    let idle = Instant::now() + Duration::from_millis(1500);
    while Instant::now() < idle {
        assert!(
            transient
                .ephemerals("nodes/")
                .iter()
                .any(|e| e.key == "nodes/9"),
            "kept-alive session must not expire"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        observer
            .ephemerals("nodes/")
            .iter()
            .any(|e| e.key == "nodes/9"),
        "kept-alive session must not expire"
    );

    // Kill the client (keep-alives stop): the TTL lapses, the ensemble
    // expires the session and the ephemeral disappears everywhere.
    drop(transient);
    assert!(
        wait_until(Duration::from_secs(15), || observer
            .ephemerals("nodes/")
            .is_empty()),
        "ephemeral must vanish after its session's TTL"
    );
    drop(observer);
    for h in handles {
        h.shutdown();
    }
}

/// The tentpole of amcoordd durability: a replica killed and restarted
/// **in the same data dir** rejoins its *original* ensemble (no fresh
/// ensemble, no id change) and serves coordination reads that include
/// operations committed while it was down — recovered via checkpoint +
/// WAL replay plus the peer-snapshot catch-up RPC.
#[test]
fn replica_restart_in_place_serves_ops_committed_while_down() {
    let dir = std::env::temp_dir().join(format!("amcoord-rip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut ensemble =
        CoordEnsemble::localhost(3, base_port(), Some(&dir)).expect("ensemble launches");
    let addrs = ensemble.client_addrs();

    // A client pinned to the replicas that will survive.
    let client = connect_coord(&addrs[..2], Duration::from_secs(3)).unwrap();
    client
        .register_ring(
            RingConfig::new(RingId::new(1), nodes(&[0, 1, 2]), nodes(&[0, 1, 2])).unwrap(),
        )
        .unwrap();
    client
        .set_meta_cas("pre-kill", Bytes::from_static(b"a"), 0)
        .unwrap();

    ensemble.kill(2).expect("replica 2 dies cleanly");
    assert!(!ensemble.is_running(2));

    // Ops committed while replica 2 is down — the restart must surface
    // ALL of them, whether they land in its WAL (they cannot) or come
    // back via the peer catch-up snapshot.
    client
        .register_ring(RingConfig::new(RingId::new(2), nodes(&[7, 8]), nodes(&[7, 8])).unwrap())
        .unwrap();
    let v = client
        .set_meta_cas("during-downtime", Bytes::from_static(b"b"), 0)
        .unwrap();
    client
        .set_meta_cas("during-downtime", Bytes::from_static(b"c"), v)
        .unwrap();

    // Restart in place: same id, same ports, same wal dir.
    ensemble.restart(2).expect("replica 2 restarts in place");

    // A client pinned to ONLY the restarted replica: everything above
    // must be visible there, including the CAS version history.
    let pinned = connect_coord(&addrs[2..], Duration::from_secs(3)).unwrap();
    assert!(
        wait_until(Duration::from_secs(20), || {
            pinned.ring(RingId::new(1)).is_ok()
                && pinned.ring(RingId::new(2)).is_ok()
                && pinned.meta_versioned("during-downtime") == Some((2, Bytes::from_static(b"c")))
                && pinned.meta("pre-kill") == Some(Bytes::from_static(b"a"))
        }),
        "restarted replica must serve ops committed while it was down"
    );

    // And it must have rejoined the *ensemble* (not just recovered
    // state): a write proposed through the restarted replica commits.
    assert!(
        wait_until(Duration::from_secs(20), || {
            pinned
                .set_meta_cas("post-restart", Bytes::from_static(b"d"), 0)
                .is_ok()
        }),
        "restarted replica must replicate writes through its ring again"
    );
    assert!(
        wait_until(Duration::from_secs(10), || {
            client.meta("post-restart") == Some(Bytes::from_static(b"d"))
        }),
        "write through the restarted replica must reach the survivors"
    );

    drop(client);
    drop(pinned);
    ensemble.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Observability across restart-in-place (the stale-gauge regression):
/// a restarted replica must come back with its monotonic apply counter
/// seeded from the recovered delivery cursor — never below what it had
/// reported before the kill — while volatile gauges describe only the
/// new incarnation (re-derived from recovered state, not leaked from
/// the dead process's last levels).
#[test]
fn restart_in_place_preserves_counters_and_resets_gauges() {
    let dir = std::env::temp_dir().join(format!("amcoord-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut ensemble =
        CoordEnsemble::localhost(3, base_port(), Some(&dir)).expect("ensemble launches");
    let addrs = ensemble.client_addrs();
    let client = connect_coord(&addrs[..2], Duration::from_secs(3)).unwrap();
    let pinned = connect_coord(&addrs[2..], Duration::from_secs(3)).unwrap();

    const WRITES: u64 = 12;
    for i in 0..WRITES {
        client
            .set_meta_cas(format!("obs-{i}"), Bytes::from_static(b"x"), 0)
            .unwrap();
    }

    // Replica 2 applied every write, and its sweep published the
    // session gauge (both clients hold replicated sessions).
    assert!(
        wait_until(Duration::from_secs(20), || {
            fetch_stats(addrs[2], Duration::from_secs(5))
                .map(|s| {
                    s.counter("coord_applied").unwrap_or(0) >= WRITES
                        && s.gauge("session_count").unwrap_or(0) > 0
                })
                .unwrap_or(false)
        }),
        "replica 2 must report applies and live sessions before the kill"
    );
    let before = fetch_stats(addrs[2], Duration::from_secs(5)).expect("pre-kill stats");
    let applied_before = before.counter("coord_applied").unwrap();

    ensemble.kill(2).expect("replica 2 dies cleanly");
    drop(pinned);
    // Writes committed during the downtime. The survivors' ring stalls
    // until failure detection reconfigures the dead member out, so
    // retry past that window; a committed-but-unanswered attempt shows
    // up as the key existing.
    for i in 0..8 {
        let key = format!("down-{i}");
        assert!(
            wait_until(Duration::from_secs(20), || {
                client
                    .set_meta_cas(&key, Bytes::from_static(b"x"), 0)
                    .is_ok()
                    || client.meta(&key).is_some()
            }),
            "downtime write {key} must commit on the surviving majority"
        );
    }
    ensemble.restart(2).expect("replica 2 restarts in place");

    let pinned = connect_coord(&addrs[2..], Duration::from_secs(3))
        .expect("restarted replica serves clients");
    // The monotonic counter survives the incarnation change: it is
    // seeded from the checkpoint + WAL-replay cursor, which covers at
    // least everything the dead process had reported applying.
    assert!(
        wait_until(Duration::from_secs(20), || {
            fetch_stats(addrs[2], Duration::from_secs(5))
                .map(|s| s.counter("coord_applied").unwrap_or(0) >= applied_before)
                .unwrap_or(false)
        }),
        "restarted replica's apply counter regressed below its pre-kill value ({applied_before})"
    );
    // Volatile gauges are re-derived, not recovered: the session gauge
    // climbs back only as the sweep re-observes the (replicated)
    // session table of the new incarnation.
    assert!(
        wait_until(Duration::from_secs(20), || {
            fetch_stats(addrs[2], Duration::from_secs(5))
                .map(|s| s.gauge("session_count").unwrap_or(0) > 0)
                .unwrap_or(false)
        }),
        "restarted replica must re-publish the session gauge from recovered state"
    );
    // And the counter keeps counting: a post-restart write lands.
    let after = fetch_stats(addrs[2], Duration::from_secs(5))
        .expect("post-restart stats")
        .counter("coord_applied")
        .unwrap();
    client
        .set_meta_cas("post-restart-obs", Bytes::from_static(b"y"), 0)
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(20), || {
            fetch_stats(addrs[2], Duration::from_secs(5))
                .map(|s| s.counter("coord_applied").unwrap_or(0) > after)
                .unwrap_or(false)
        }),
        "restarted replica's apply counter must keep advancing"
    );

    drop(pinned);
    drop(client);
    ensemble.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_and_ensemble_survive_replica_failure() {
    let (mut handles, addrs) = start_ensemble(3, base_port());
    // This client starts on replica 0's address.
    let client = connect_coord(&addrs, Duration::from_secs(3)).unwrap();
    client
        .register_ring(RingConfig::new(RingId::new(1), nodes(&[5, 6]), nodes(&[5, 6])).unwrap())
        .unwrap();

    // Kill replica 0 — the replica the client is connected to AND the
    // coordinator of the ensemble's own consensus ring. The survivors
    // must reconfigure their ring (local CAS + gossip), and the client
    // must fail over to another replica.
    handles.remove(0).shutdown();

    let ok = wait_until(Duration::from_secs(20), || {
        client
            .ensure_ring(RingConfig::new(RingId::new(2), nodes(&[7, 8]), nodes(&[7, 8])).unwrap())
            .is_ok()
    });
    assert!(ok, "writes must succeed after replica 0 dies");

    // Reads of pre-kill state still answer (replicated, not lost with the
    // dead replica).
    assert!(
        wait_until(Duration::from_secs(10), || client
            .ring(RingId::new(1))
            .is_ok()),
        "pre-kill state must survive"
    );

    drop(client);
    for h in handles {
        h.shutdown();
    }
}

/// WAL rotation: the decided log is segmented, periodic checkpoints
/// delete segments wholly below the checkpoint cursor (bounding disk,
/// not just replay), and a replica restarted **over the rotated
/// directory** — early segments gone — still recovers everything via
/// checkpoint + surviving-suffix replay.
#[test]
fn wal_rotation_prunes_segments_and_restart_recovers_over_rotated_dir() {
    use liverun::shard_wal_dir;
    use storage::wal::SegmentedWal;

    let dir = std::env::temp_dir().join(format!("amcoord-rot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Tiny checkpoint cadence: segments roll every 8 records and every
    // checkpoint prunes, so a few dozen writes produce real rotation.
    let base = base_port();
    let configs: Vec<CoordServerConfig> = (0..3)
        .map(|id| {
            let mut c = CoordServerConfig::localhost(id, 3, base);
            c.wal_dir = Some(dir.clone());
            c.checkpoint_every = 8;
            c
        })
        .collect();
    let mut ensemble = CoordEnsemble::launch(configs).expect("ensemble launches");
    let addrs = ensemble.client_addrs();
    let client = connect_coord(&addrs[..2], Duration::from_secs(3)).unwrap();

    // Enough replicated writes to roll through many segments (plus the
    // session/keep-alive traffic riding the same log).
    for i in 0..80 {
        client
            .set_meta_cas(format!("rot-{i}"), Bytes::from_static(b"x"), 0)
            .unwrap();
    }
    let seg_dir = shard_wal_dir(&dir, NodeId::new(2), 0);
    assert!(
        wait_until(Duration::from_secs(20), || {
            let segs = SegmentedWal::segments(&seg_dir);
            // Rotation happened AND pruning bounded the directory: with
            // ~80+ records at 8 per segment, an unpruned log would hold
            // 10+ segments.
            !segs.is_empty() && segs.len() <= 4 && first_seg_pos(&segs) > 0
        }),
        "checkpoints must prune rotated segments (left: {:?})",
        SegmentedWal::segments(&seg_dir)
    );

    // Kill replica 2 and restart it over the rotated directory: the
    // deleted prefix is covered by its checkpoint; replay walks only the
    // surviving suffix.
    ensemble.kill(2).expect("replica 2 dies cleanly");
    let v = client
        .set_meta_cas("rot-during-downtime", Bytes::from_static(b"y"), 0)
        .unwrap();
    ensemble
        .restart(2)
        .expect("replica 2 restarts over rotation");

    let pinned = connect_coord(&addrs[2..], Duration::from_secs(3)).unwrap();
    assert!(
        wait_until(Duration::from_secs(20), || {
            pinned.meta("rot-0") == Some(Bytes::from_static(b"x"))
                && pinned.meta("rot-79") == Some(Bytes::from_static(b"x"))
                && pinned.meta_versioned("rot-during-downtime")
                    == Some((v, Bytes::from_static(b"y")))
        }),
        "restart over a rotated dir must serve the full history"
    );

    drop(pinned);
    drop(client);
    ensemble.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn first_seg_pos(segs: &[std::path::PathBuf]) -> u64 {
    segs.first()
        .and_then(|p| p.file_name()?.to_str())
        .and_then(|n| n.strip_prefix("seg-")?.strip_suffix(".wal")?.parse().ok())
        .unwrap_or(0)
}
