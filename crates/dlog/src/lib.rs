//! dLog: a distributed shared log with atomic multi-log appends, built on
//! Multi-Ring Paxos (paper §6.2, Table 2).

pub mod command;
pub mod log_app;

pub use command::{LogCommand, LogResponse};
pub use log_app::DlogApp;
