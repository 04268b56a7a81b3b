//! Facade crate: re-exports the public surface of the atomic multicast
//! workspace so downstream users can depend on a single crate.
//!
//! See [`multiring`] for the paper's primary contribution (Multi-Ring
//! Paxos), [`mrpstore`] and [`dlog`] for the two services built on it.

pub use common;
pub use coord;
pub use dlog;
pub use liverun;
pub use mrpstore;
pub use multiring;
pub use ringpaxos;
pub use simnet;
pub use storage;
pub use workloads;
