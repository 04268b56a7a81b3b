//! Shared foundation for the atomic multicast workspace.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`ids`] — strongly typed identifiers (nodes, rings, consensus
//!   instances, ballots, clients, partitions).
//! * [`time`] — the virtual instant type [`SimTime`] used by both the
//!   discrete-event simulator and the live runtime.
//! * [`value`] — the unit of agreement: a [`Value`] proposed to a ring,
//!   which is either an application payload, a no-op, or a *skip* used by
//!   Multi-Ring Paxos rate leveling.
//! * [`msg`] — every protocol message exchanged between processes: Ring
//!   Paxos phases, client traffic, recovery and trimming.
//! * [`wire`] — a compact, hand-rolled binary codec ([`wire::Wire`]) with
//!   varint framing, used for on-disk logs and TCP transport.
//! * [`process`] — the sans-IO contract: the [`process::Process`] trait
//!   every protocol state machine implements, the [`process::Ctx`] it
//!   acts through, and the effects buffer and timer heap its two drivers
//!   (the `simnet` simulator and the `liverun` node loop) share.
//! * [`transport`] — live-runtime building blocks shared by every real
//!   (non-simulated) event loop: wall-clock↔[`SimTime`] mapping and
//!   peer-frame reassembly; and the sans-IO link shaping both runtimes
//!   time their hops with.
//! * [`geo`] — the shared WAN world: EC2 regions, the 2014 RTT matrix
//!   and named profiles both `simnet` and `liverun::netem` build from.
//! * [`hist`] — a log-bucketed latency histogram shared by the stats
//!   registry and the benchmark harnesses.
//! * [`obs`] — the observability registry (counters, gauges, sharded
//!   histograms) of a live node or a simulated run, and the snapshot type
//!   the stats plane ships.
//!
//! # Example
//!
//! ```
//! use common::{ids::NodeId, value::Value, wire::Wire};
//! use bytes::BytesMut;
//!
//! let v = Value::app(NodeId::new(1), 7, bytes::Bytes::from_static(b"hello"));
//! let mut buf = BytesMut::new();
//! v.encode(&mut buf);
//! let mut frozen = buf.freeze();
//! let back = Value::decode(&mut frozen).unwrap();
//! assert_eq!(v, back);
//! ```

pub mod error;
pub mod geo;
pub mod hash;
pub mod hist;
pub mod ids;
pub mod msg;
pub mod obs;
pub mod process;
pub mod time;
pub mod transport;
pub mod value;
pub mod wire;

pub use error::{Error, Result};
pub use hist::Histogram;
pub use ids::{
    Ballot, ClientId, Epoch, InstanceId, NodeId, PartitionId, RequestId, RingId, SessionId,
};
pub use time::SimTime;
pub use value::{Value, ValueId, ValueKind};

/// Whether `MRP_DEBUG` was set when the process first asked: hosts, ring
/// nodes and clients then print delivery, gap-heal and recovery traces
/// to stderr. Read once — the call sites sit on the per-instance
/// ordering path, where a fresh environment lookup each time is a lock
/// acquisition and a scan.
pub fn debug_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var_os("MRP_DEBUG").is_some())
}
