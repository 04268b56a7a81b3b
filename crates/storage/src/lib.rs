//! Stable storage for Paxos acceptors and service replicas.
//!
//! The paper's acceptors log Phase 1B/2B responses to Berkeley DB before
//! answering, and replicas periodically checkpoint their state (§5). This
//! crate provides both, in two flavours sharing one API:
//!
//! * **Simulated timing** — [`DiskTimeline`] models when a write is
//!   *acknowledged* (the caller may proceed) and when it is *durable*
//!   (survives a crash), for the five storage modes of Figure 3:
//!   in-memory, async/sync × HDD/SSD. Acceptors use the acknowledgement
//!   time to delay their votes; crash injection uses the durability time
//!   to decide what survives.
//! * **Real files** — [`wal::Wal`] is a length-framed append-only log with
//!   optional fsync used by the live runtime and examples.
//!
//! [`AcceptorLog`] is the vote log with trimming (paper §5.1–5.2);
//! [`CheckpointStore`] holds replica checkpoints identified by
//! [`common::msg::CheckpointTuple`]s.

pub mod checkpoint;
pub mod log;
pub mod profile;
pub mod wal;

pub use checkpoint::CheckpointStore;
pub use log::AcceptorLog;
pub use profile::{DiskProfile, DiskTimeline, StorageMode, WriteReceipt};
