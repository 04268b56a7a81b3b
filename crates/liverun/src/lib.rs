//! `liverun` — the live deployment runtime.
//!
//! Everything below `liverun` in this workspace is sans-IO: the full
//! Multi-Ring Paxos stack ([`multiring::MultiRingHost`] with merge,
//! checkpoints, trimming and recovery) emits effects into buffers and is
//! normally driven by the discrete-event simulator. This crate is the
//! layer that turns it into a *system you can point clients at*: it hosts
//! the same state machines on OS threads over real TCP sockets, serving
//! MRP-Store and dLog to network clients — the deployment shape of the
//! paper's evaluation (§7, §8), where services run as real processes
//! across machines rather than as protocol traces.
//!
//! ```text
//!  amcast-cli ──TCP──► [client port]──┐
//!                                     │ ready sockets
//!  peer amcastd ─TCP─► [peer port] ───┤
//!                                     ▼
//!                          ┌─────────────────────────────┐
//!                          │ node loop (one OS thread)   │
//!                          │  epoll → read → decode      │
//!                          │  Batcher → MultiRingHost    │
//!                          │  TimerHeap   │  WAL / ckpt  │
//!                          └──────┬───────┴──────────────┘
//!                                 │ sends / replies (non-blocking writes)
//!                 peers ◄─TCP─────┴────TCP─► clients
//! ```
//!
//! * [`config`] — the deployment document `amcastd` reads; one file
//!   describes the whole cluster.
//! * [`node`] — the per-node event loop driving a [`multiring::MultiRingHost`]
//!   through the sans-IO contract of [`common::process`]: a
//!   [`Ctx`](common::process::Ctx) lent out of the loop's one
//!   [`Effects`](common::process::Effects) buffer, the same contract the
//!   simulator drives.
//! * `net` (crate-private) — the one place a socket is opened, and the
//!   readiness loop (a persistent `epoll(7)` set, one `epoll_pwait2` per
//!   turn) that every loop and the network client
//!   wait in: non-blocking accepts, reads and bounded writes on the
//!   owning thread itself, lazy peer links, a mailbox for other threads,
//!   one-shot calls.
//! * [`batch`] — proposer-side request batching: many client commands
//!   share one consensus value ([`common::value::Payload::Batch`]).
//! * [`deployment`] — launch/kill/restart whole localhost deployments
//!   in-process (tests, examples, benchmarks); wraps every service in
//!   the [`multiring::SessionApp`] exactly-once session table.
//! * [`client`] / [`service`] — the protocol-v2 network client
//!   (pipelined sliding window, replicated exactly-once sessions,
//!   failover re-send that cannot re-execute) and the typed MRP-Store /
//!   dLog facades on top.
//! * [`link`] — the client of an `amcoordd` ensemble: the same session
//!   machine as the network client, under a watch-fed configuration
//!   cache, driven on its caller's thread or by a node loop.
//! * [`durable`] — the WAL decorator recording every delivered command
//!   through a [`storage::wal::SegmentedWal`].
//! * [`netem`] — userspace per-link WAN shaping for geo deployments:
//!   each node loop delays what it sends (and what its per-region client
//!   listeners receive) by the live link policy — delay, jitter,
//!   bandwidth, loss, runtime region partitions — driven by `[[region]]`
//!   config sections.

pub mod batch;
pub mod client;
pub mod config;
pub mod coord_node;
pub mod deployment;
pub mod durable;
pub mod link;
pub(crate) mod net;
pub mod netem;
pub mod node;
pub mod service;

pub use batch::{BatchOptions, Batcher};
pub use client::{fetch_stats, ClientOptions, Completion, LiveClient};
pub use config::{DeploymentConfig, GeoSpec, ServiceKind};
pub use coord_node::{start_coord_server, CoordServerConfig, CoordServerHandle};
pub use deployment::{connect_registry, shard_wal_dir, start_node, Deployment};
pub use durable::{DurableApp, WalRecord};
pub use link::{connect_coord, CoordLink, LinkCoord};
pub use netem::NetemControl;
pub use node::{client_node_id, client_of_node, NodeHandle, CLIENT_NODE_BASE};
pub use service::{LogClient, StoreClient};
