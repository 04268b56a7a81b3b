//! Multi-Ring Paxos: atomic multicast from coordinated Ring Paxos rings.
//!
//! This is the paper's primary contribution (§4–§5). A multicast *group*
//! maps to one Ring Paxos ring; learners subscribe to any set of groups
//! and deliver their decision streams through a **deterministic merge**
//! ([`MergeLearner`]): `M` consensus instances from each subscribed ring,
//! round-robin in ring-id order. Coordinators of under-loaded rings keep
//! the merge moving with **rate leveling** — skip tokens proposed every Δ
//! (implemented in [`ringpaxos::options::RateLeveling`]).
//!
//! [`MultiRingHost`] is the deployable process: it multiplexes this node's
//! participation in any number of rings, runs the merge, executes a
//! replicated [`ServiceApp`], answers clients (one replica per partition
//! answers a command's first execution), takes checkpoints,
//! coordinates log trimming (§5.2's `K_T` protocol) and recovers replicas
//! from checkpoints plus acceptor retransmission (§5.2's `Q_R` protocol).
//!
//! ```text
//!   clients ──► proposers ──► ring 0 ─┐
//!                            ring 1 ─┼─► MergeLearner ─► ServiceApp ─► replies
//!                            ring 2 ─┘        │
//!                                      checkpoints + trim + recovery
//! ```

pub mod app;
pub mod client;
pub mod exec;
pub mod host;
pub mod merge;
pub mod recovery;
mod reply;
pub mod route;
pub mod session;

pub use app::{ChainCut, EagerCut, EchoApp, ServiceApp, SnapshotCut};
pub use client::{ClientStats, ClosedLoopClient, CommandGen, SharedClientStats};
pub use exec::{EchoShardPlan, ReplySink, Route, ShardPlan, ShardedExec};
pub use host::{HostOptions, MultiRingHost};
pub use merge::MergeLearner;
pub use route::Destination;
pub use session::{session_home_ring, SessionApp, SessionCtl, SessionLimits};
