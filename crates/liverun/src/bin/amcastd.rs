//! `amcastd` — run one node of an atomic multicast deployment.
//!
//! ```text
//! # Generate a localhost deployment file (2 partitions × 2 replicas):
//! amcastd generate --partitions 2 --replicas 2 --base-port 7400 > amcast.toml
//!
//! # Run each node in its own process:
//! amcastd run --config amcast.toml --node 0
//! amcastd run --config amcast.toml --node 1
//! ...
//!
//! # Or run every node of the file in one process (demos, smoke tests):
//! amcastd run --config amcast.toml --all
//! ```
//!
//! Each process loads the same deployment document and serves peers and
//! clients on the addresses configured for its node. `--restart` brings a
//! node back through the recovery path (checkpoint fetch from partition
//! peers plus acceptor catch-up, §5.2).
//!
//! With a `coord = "addr,addr,..."` key in `[deployment]`, every process
//! bootstraps from the named `amcoordd` ensemble — the paper's Zookeeper
//! role (§7.1): nodes seed the configuration idempotently, register
//! ephemeral liveness entries on TTL sessions, and learn ring
//! reconfigurations through pushed watch events, so membership changes
//! propagate *across processes*. Without the key each process holds a
//! private in-process registry and reconfiguration only works in `--all`
//! mode (every node in one address space).

use std::process::ExitCode;

use common::ids::NodeId;
use common::transport::WallClock;
use liverun::deployment::{connect_registry, start_node};
use liverun::{Deployment, DeploymentConfig};

fn usage() -> &'static str {
    "usage:
  amcastd generate [--partitions N] [--replicas N] [--base-port P] [--wal-dir DIR]
  amcastd run --config FILE (--node ID [--restart] | --all)"
}

struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Args {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = match raw.peek() {
                    Some(v) if !v.starts_with("--") => Some(raw.next().expect("peeked")),
                    _ => None,
                };
                flags.push((name.to_string(), value));
            } else {
                positional.push(arg);
            }
        }
        Args { flags, positional }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num(&self, name: &str, default: u64) -> u64 {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    match args.positional.first().map(String::as_str) {
        Some("generate") => {
            let doc = liverun::config::generate_localhost_mrpstore(
                args.num("partitions", 2) as u16,
                args.num("replicas", 2) as u16,
                args.num("base-port", 7400) as u16,
                args.get("wal-dir"),
            );
            print!("{doc}");
            ExitCode::SUCCESS
        }
        Some("run") => run(&args),
        _ => {
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> ExitCode {
    let Some(path) = args.get("config") else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("amcastd: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = match DeploymentConfig::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("amcastd: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.has("all") {
        match Deployment::launch(config) {
            Ok(deployment) => {
                for (node, addr) in deployment.client_addrs() {
                    eprintln!("amcastd: node {node} serving clients on {addr}");
                }
                eprintln!("amcastd: all nodes up; ctrl-c to stop");
                park_forever()
            }
            Err(e) => {
                eprintln!("amcastd: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        let Some(node) = args.get("node").and_then(|v| v.parse::<u32>().ok()) else {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        };
        let node = NodeId::new(node);
        let registry = match connect_registry(&config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("amcastd: {e}");
                return ExitCode::FAILURE;
            }
        };
        match start_node(
            &config,
            registry,
            WallClock::start(),
            node,
            args.has("restart"),
            None,
        ) {
            Ok(_handle) => {
                let spec = config.node(node).expect("validated");
                eprintln!(
                    "amcastd: node {node} up — peers {} / clients {}",
                    spec.peer_addr, spec.client_addr
                );
                park_forever()
            }
            Err(e) => {
                eprintln!("amcastd: {e}");
                ExitCode::FAILURE
            }
        }
    }
}

fn park_forever() -> ExitCode {
    loop {
        std::thread::park();
    }
}
