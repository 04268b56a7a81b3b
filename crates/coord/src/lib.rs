//! Coordination service — the workspace's Zookeeper counterpart.
//!
//! The paper keeps all *configuration* concerns out of the ordering
//! protocol: "automatic ring management and configuration management is
//! handled by Zookeeper" (§7.1), and the MRP-Store partitioning schema is
//! "stored in Zookeeper and accessible to all processes" (§7.2). This
//! crate plays that role, split into client and server halves around one
//! deterministic state machine:
//!
//! * [`state`] — [`CoordState`], the replicated state: ring
//!   configurations with epochs, ring subscriptions, service partitions,
//!   versioned metadata znodes and session-owned ephemeral entries.
//! * [`registry`] — the [`Registry`] facade every other crate holds, over
//!   the [`Coord`] backend trait.
//! * [`local`] — [`LocalCoord`]: the state machine behind a lock, for
//!   simulations, tests and single-process deployments.
//! * [`link`] — [`CoordLink`]: the client of a replicated `amcoordd`
//!   ensemble as a sans-IO state machine — a protocol-v2 exactly-once
//!   session like any data client's — and [`LinkCoord`], the backend
//!   over it. The sockets that carry it, and the ensemble itself, live in
//!   `liverun`, the crate that can see Ring Paxos: an `amcoordd` replica
//!   is the data node's loop hosting [`CoordState`] on a ring of its own,
//!   under the same session table as every data node.
//!
//! Like Zookeeper in the paper, the registry sits *off* the critical
//! message path: processes consult it at configuration time and during
//! failover, never per-request.

pub mod link;
pub mod local;
pub mod registry;
pub mod ring_config;
pub mod state;

pub use link::{CoordClientOptions, CoordLink, Driver, LinkCoord, COORD_RING};
pub use local::LocalCoord;
pub use registry::{Coord, PartitionInfo, Registry};
pub use ring_config::RingConfig;
pub use state::CoordState;
