//! Quickstart: the README's 60-second live deployment, as a library.
//!
//! Launches a localhost MRP-Store — 2 partitions × 2 replicas, one Ring
//! Paxos ring per partition plus a global ring for scans — over real TCP
//! in this process, then drives it as a network client would: a `put` is
//! hash-routed to its partition's ring, a `scan` is atomically multicast
//! on the global ring and answered by every partition (§6.1, §7.2).
//! `amcastd generate` / `amcastd run --all` / `amcast-cli` do the same
//! from the shell.
//!
//! Run: `cargo run --example quickstart`

use atomic_multicast::common::ids::ClientId;
use atomic_multicast::liverun::config::{free_port_block, generate_localhost_mrpstore};
use atomic_multicast::liverun::{ClientOptions, Deployment, DeploymentConfig, StoreClient};
use bytes::Bytes;

fn main() {
    // 1. Generate the deployment document: 4 nodes, 2 ports each.
    let base_port = free_port_block(8).expect("free localhost ports");
    let doc = generate_localhost_mrpstore(2, 2, base_port, None);
    let config = DeploymentConfig::parse(&doc).expect("generated document parses");

    // 2. Serve it — every node in this process, each on its own sockets.
    let deployment = Deployment::launch(config.clone()).expect("launch deployment");

    // 3. Point a client at it.
    let mut store = StoreClient::connect(&config, ClientId::new(1), ClientOptions::default())
        .expect("connect client");
    for (user, name) in [("user:1", "alice"), ("user:2", "bob"), ("user:3", "carol")] {
        let reply = store.insert(user, Bytes::from(name)).expect("put");
        println!("put {user} {name} -> {reply:?}");
    }
    let alice = store.read("user:1").expect("get");
    println!(
        "get user:1 -> {:?}",
        alice.as_deref().map(String::from_utf8_lossy)
    );
    assert_eq!(alice, Some(Bytes::from("alice")));

    // One scan, both partitions, one consistent cut.
    let all = store.scan("", "").expect("scan");
    for (key, value) in &all {
        println!("scan: {key} = {}", String::from_utf8_lossy(value));
    }
    assert_eq!(all.len(), 3, "the scan merges every partition's answer");

    // Exactly-once counter: retries can never double-apply.
    assert_eq!(store.add("hits", 5).expect("add"), 5);
    assert_eq!(store.add("hits", 1).expect("add"), 6);
    println!("add hits 5, add hits 1 -> 6");

    drop(store);
    deployment.shutdown();
    println!("\nok: 2 partitions x 2 replicas served puts, gets, a scan and a counter");
}
