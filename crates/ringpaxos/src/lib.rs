//! Ring Paxos: atomic broadcast over a unidirectional ring overlay.
//!
//! This crate implements the unicast variant of Ring Paxos described in §4
//! of the paper (no IP multicast): proposers, acceptors and learners are
//! arranged in one logical ring; an elected acceptor *coordinates*. Values
//! are sent to the coordinator, which runs an optimized Paxos with
//! pre-executed Phase 1 over windows of instances; combined Phase 2A/2B
//! messages accumulate votes hop by hop and turn into decisions at the
//! acceptor where a majority is reached. Members after that point decide
//! from the vote count of the Phase 2 message as it passes; the members
//! before it are told directly, by an id-only decision from that acceptor.
//!
//! The core type is [`RingNode`]: a runtime-agnostic state machine holding
//! all roles a process plays in one ring. It is driven through
//! [`RingNode::on_msg`], [`RingNode::on_timer`] and [`RingNode::propose`]
//! (and every Δ, on a ring its host levels, [`RingNode::on_delta`]), and
//! emits effects into an [`Output`] scratch buffer. It never touches
//! a socket or a clock, and it reads the [`coord::Registry`] only when it
//! is built. Its driver is `multiring::MultiRingHost`, which owns one per
//! ring, in the simulator and in the `liverun` node loop alike — under
//! `amcastd` and under `amcoordd`, whose replicas host one ring.
//!
//! Failure handling: members heartbeat their ring successor; silence
//! makes a member ask coordination (the Zookeeper stand-in) by message
//! for a compare-and-swap reconfiguration that removes the dead member
//! and elects a new coordinator ([`Output::asks`]); the answer, handed to
//! [`RingNode::on_config`], makes it re-run Phase 1 at a higher ballot
//! and re-propose in-doubt values (§5.1).

pub mod node;
pub mod options;
pub mod runs;
pub mod timer;

pub use node::{Output, RingNode};
pub use options::{BatchPolicy, RateLeveling, RingOptions};
pub use runs::DeliveredIds;
pub use timer::RingTimer;
