//! Coordination service — the workspace's Zookeeper counterpart.
//!
//! The paper keeps all *configuration* concerns out of the ordering
//! protocol: "automatic ring management and configuration management is
//! handled by Zookeeper" (§7.1), and the MRP-Store partitioning schema is
//! "stored in Zookeeper and accessible to all processes" (§7.2). This
//! crate plays that role: one deterministic state machine, and the
//! facade every process consults it through:
//!
//! * [`state`] — [`CoordState`], the replicated state: ring
//!   configurations with epochs, ring subscriptions, service partitions,
//!   versioned metadata znodes and session-owned ephemeral entries.
//! * [`registry`] — the [`Registry`] facade every other crate holds, over
//!   the [`Coord`] backend trait.
//! * [`local`] — [`LocalCoord`]: the state machine behind a lock, for
//!   simulations, tests and single-process deployments.
//!
//! The client of a replicated `amcoordd` ensemble lives in `liverun`,
//! the crate that can see sockets and Ring Paxos: it is an ordinary
//! protocol-v2 session, driven by the same session machine as every data
//! client, and an `amcoordd` replica is the data node's loop hosting
//! [`CoordState`] on a ring of its own
//! ([`COORD_RING`](common::wire::coord::COORD_RING)), under the same
//! session table as every data node.
//!
//! Like Zookeeper in the paper, the registry sits *off* the critical
//! message path: processes consult it at configuration time and during
//! failover, never per-request.

pub mod local;
pub mod registry;
pub mod ring_config;
pub mod state;

pub use local::LocalCoord;
pub use registry::{Coord, PartitionInfo, Registry};
pub use ring_config::RingConfig;
pub use state::CoordState;
