//! Comparison baselines for the paper's evaluation (§8.3.2, §8.3.3).
//!
//! * [`eventual`] — a Cassandra-like eventually consistent replicated
//!   store: no request ordering, answers from any replica.
//! * [`single_node`] — a MySQL-like single-server store.
//! * [`ensemble_log`] — a Bookkeeper-like replicated log with aggressive
//!   time-based write batching.

pub mod ensemble_log;
pub mod eventual;
pub mod single_node;
