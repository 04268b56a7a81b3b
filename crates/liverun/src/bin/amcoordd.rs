//! `amcoordd` — one replica of the amcoord coordination service.
//!
//! ```text
//! # A 3-replica localhost ensemble (run each line in its own process):
//! amcoordd --id 0 --ring 127.0.0.1:7700,127.0.0.1:7701,127.0.0.1:7702 \
//!          --serve 127.0.0.1:7710,127.0.0.1:7711,127.0.0.1:7712
//! amcoordd --id 1 --ring ...same... --serve ...same...
//! amcoordd --id 2 --ring ...same... --serve ...same...
//! ```
//!
//! Every replica is launched with the *same* static address lists (like a
//! Zookeeper server list) and the index of the slot it occupies. `--ring`
//! addresses carry the ensemble's own Ring Paxos traffic; `--serve`
//! addresses accept coordination clients (`amcastd` nodes, tools).
//! `--wal-dir` keeps a WAL of applied commands, rolled to a new segment
//! every `--checkpoint-every` records; `--session-check-ms` is the period
//! of the session-expiry sweep.

use std::process::ExitCode;
use std::time::Duration;

use common::ids::NodeId;
use liverun::{start_coord_server, CoordServerConfig};

fn usage() -> &'static str {
    "usage:
  amcoordd --id N --ring ADDR,ADDR,... --serve ADDR,ADDR,...
           [--wal-dir DIR] [--session-check-ms MS] [--checkpoint-every N]"
}

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn addr_list(raw: &str) -> Option<Vec<std::net::SocketAddr>> {
    raw.split(',')
        .map(|a| a.trim().parse().ok())
        .collect::<Option<Vec<_>>>()
        .filter(|v| !v.is_empty())
}

fn main() -> ExitCode {
    let (Some(id), Some(ring), Some(serve)) = (
        arg("--id").and_then(|v| v.parse::<u32>().ok()),
        arg("--ring").and_then(|v| addr_list(&v)),
        arg("--serve").and_then(|v| addr_list(&v)),
    ) else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let config = CoordServerConfig {
        id: NodeId::new(id),
        ring_addrs: ring,
        client_addrs: serve,
        wal_dir: arg("--wal-dir").map(std::path::PathBuf::from),
        session_check: Duration::from_millis(
            arg("--session-check-ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(500),
        ),
        checkpoint_every: arg("--checkpoint-every")
            .and_then(|v| v.parse().ok())
            .unwrap_or(256),
    };
    match start_coord_server(config) {
        Ok(handle) => {
            eprintln!(
                "amcoordd: replica {id} up — serving coordination clients on {}",
                handle.client_addr()
            );
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("amcoordd: {e}");
            ExitCode::FAILURE
        }
    }
}
