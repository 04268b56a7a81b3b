//! Region-partition heal over a shaped (netem) geo deployment.
//!
//! A 3-region, 3-replica MRP-Store runs under the paper's EC2 latency
//! matrix (scaled to 5% so CI pays milliseconds, not WAN seconds). A
//! client in eu-west-1 pipelines non-idempotent counter increments
//! while us-west-2 is cut off by a directional netem partition: the
//! surviving majority must keep ordering (progress during the
//! partition), the client must keep landing increments exactly once
//! through its failover re-sends, and after the heal the counter must
//! equal the number of acknowledged increments — a double-executed
//! re-send would overshoot, a lost one undershoot. Finally the stats
//! plane of the shaped nodes must show the shaping itself:
//! `netem_delay_ms` accumulating and `netem_dropped` counting the
//! partition cuts.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::ids::ClientId;
use liverun::config::{generate_localhost_mrpstore, with_geo};
use liverun::{fetch_stats, ClientOptions, Deployment, DeploymentConfig, StoreClient};
use mrpstore::KvResponse;

/// 3 nodes, 2 ports each.
fn base_port() -> u16 {
    liverun::config::free_port_block(6).unwrap()
}

#[test]
fn partition_heal_keeps_exactly_once() {
    let base = generate_localhost_mrpstore(1, 3, base_port(), None);
    let doc = with_geo(
        &base,
        &[
            ("eu-west-1", &[0]),
            ("us-east-1", &[1]),
            ("us-west-2", &[2]),
        ],
        5,
    );
    let config = DeploymentConfig::parse(&doc).unwrap();
    let deployment = Deployment::launch(config.clone()).unwrap();
    let netem = deployment.netem().expect("geo deployment has netem");

    // The client lives in eu-west-1: every link it uses is shaped, and
    // partitioning us-west-2 cuts its route to node 2 as well.
    let client_config = deployment.config_from("eu-west-1").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let acked = Arc::new(AtomicU64::new(0));
    let acked2 = Arc::clone(&acked);
    let worker = std::thread::spawn(move || {
        let mut client = StoreClient::connect(
            &client_config,
            ClientId::new(901),
            ClientOptions {
                timeout: Duration::from_secs(30),
                retry_every: Duration::from_millis(500),
                ..ClientOptions::default()
            },
        )
        .unwrap();
        let mut acks = 0u64;
        while !stop2.load(Ordering::SeqCst) {
            // Non-idempotent increment; the client re-sends one logical
            // request until acknowledged and the replicated session
            // table deduplicates, so every ack is exactly one bump.
            match client.add("ctr", 1) {
                Ok(_) => {
                    acks += 1;
                    acked2.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) => panic!("increment never landed: {e}"),
            }
        }
        // Read through the same route (its front is a replica that just
        // acknowledged, hence has applied everything it acked).
        let value = client
            .read("ctr")
            .unwrap()
            .map(|b| u64::from_le_bytes(b.as_ref().try_into().unwrap()))
            .unwrap_or(0);
        (acks, value)
    });

    let settle = Duration::from_millis(1500);
    std::thread::sleep(settle);

    // Cut us-west-2 off. Node 2 is alive but unreachable: the surviving
    // eu-west-1/us-east-1 majority must reconfigure and keep ordering —
    // acknowledged increments must keep arriving *during* the partition.
    netem.partition("us-west-2");
    std::thread::sleep(Duration::from_millis(500));
    let at_cut = acked.load(Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(2500));
    let in_partition = acked.load(Ordering::SeqCst);
    assert!(
        in_partition > at_cut,
        "no progress during the partition (stuck at {at_cut} acks)"
    );

    netem.heal("us-west-2");
    std::thread::sleep(settle);

    stop.store(true, Ordering::SeqCst);
    let (acks, counter) = worker.join().unwrap();
    assert!(acks > 0, "client made no progress at all");
    assert_eq!(
        counter, acks,
        "exactly-once violated: {acks} acknowledged increments, counter at {counter}"
    );

    // A partitioned-then-healed WAN leaves its fingerprints in the
    // stats plane. Node 0 (eu-west-1) shaped every peer chunk it sent;
    // the partition cut at least one connection somewhere.
    let snap0 = fetch_stats(config.nodes[0].client_addr, Duration::from_secs(5)).unwrap();
    assert!(
        snap0.counter("netem_delay_ms").unwrap_or(0) > 0,
        "node 0 sent through shaped links, delay must accumulate"
    );
    let dropped: u64 = config
        .nodes
        .iter()
        .map(|n| {
            fetch_stats(n.client_addr, Duration::from_secs(5))
                .map(|s| s.counter("netem_dropped").unwrap_or(0))
                .unwrap_or(0)
        })
        .sum();
    assert!(dropped > 0, "the partition must have cut connections");

    // Sanity: the store still serves reads after all that.
    let mut check = StoreClient::connect(
        &config,
        ClientId::new(902),
        ClientOptions {
            timeout: Duration::from_secs(20),
            ..ClientOptions::default()
        },
    )
    .unwrap();
    assert!(matches!(
        check.insert("probe", bytes::Bytes::from_static(b"x")),
        Ok(KvResponse::Ok)
    ));

    deployment.shutdown();
}
