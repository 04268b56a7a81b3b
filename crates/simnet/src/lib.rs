//! Discrete-event network simulator: the simulated world the protocol
//! state machines run in to reproduce the paper's figures.
//!
//! The state machines are written *sans-IO* against the contract in
//! [`common::process`] ([`Process`](common::process::Process),
//! [`Ctx`](common::process::Ctx), [`Timer`](common::process::Timer)),
//! which the live node loop drives too. [`Sim`] is the other driver:
//!
//! * a virtual clock and one event queue over it ([`Sim`]),
//! * a [`Topology`]: a `LinkPolicy` per site pair (LAN and 2014-era EC2
//!   WAN profiles used by the paper's evaluation), each hop timed by the
//!   live netem layer's `LinkShaper` ([`common::transport`]),
//! * a per-node CPU service-time model (the coordinator CPU bottleneck in
//!   Figure 3 comes out of this), read back through [`Sim::cpu_busy`],
//! * fault injection: crash/restart and network partitions,
//! * the coordination service as one more process ([`CoordProcess`]),
//!   which protocol processes ask over the simulated network,
//! * the run's counters in a live-node stats registry ([`Sim::obs`]).
//!
//! Determinism: given the same seed and the same sequence of calls, a
//! simulation replays identically. All randomness flows from one seeded
//! RNG.
//!
//! # Example
//!
//! ```
//! use simnet::Sim;
//! use common::process::{Ctx, Process, Timer};
//! use common::{msg::Msg, ids::NodeId, SimTime};
//!
//! struct Echo;
//! impl Process for Echo {
//!     fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
//!         ctx.send(from, msg); // bounce everything back
//!     }
//!     fn on_timer(&mut self, _: Timer, _: &mut Ctx<'_>) {}
//! }
//!
//! struct Pinger { peer: NodeId, pongs: u32 }
//! impl Process for Pinger {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.send(self.peer, Msg::Custom(0, bytes::Bytes::from_static(b"ping")));
//!     }
//!     fn on_message(&mut self, _: NodeId, _: Msg, _: &mut Ctx<'_>) {
//!         self.pongs += 1;
//!     }
//!     fn on_timer(&mut self, _: Timer, _: &mut Ctx<'_>) {}
//! }
//!
//! let mut sim = Sim::new(42);
//! let echo = sim.add_node(0, Echo);
//! sim.add_node(0, Pinger { peer: echo, pongs: 0 });
//! sim.run_until(SimTime::from_secs(1));
//! ```

pub mod coordination;
pub mod event;
pub mod sim;
pub mod topology;

pub use coordination::CoordProcess;
pub use sim::{CpuModel, Sim};
pub use topology::{Region, SiteId, Topology};
