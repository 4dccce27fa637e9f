//! # netsim — deterministic discrete-event network simulation engine
//!
//! This crate is the substrate on which the trace-modulation reproduction
//! runs. It provides:
//!
//! * virtual time ([`SimTime`], [`SimDuration`]) — experiments run in
//!   simulated nanoseconds, deterministically and far faster than real
//!   time;
//! * one event core ([`EventCore`]): a virtual clock and a binary
//!   heap dispatched in strict `(time, sequence)` order by a single
//!   run loop, so identical seeds reproduce identical runs. The paper
//!   pipeline's [`Simulator`] routes its events to nodes; the
//!   [`fleet`]'s `FleetSim` is the same core over client-tagged events;
//! * the [`Node`] trait — hosts, wireless channels, and routers are nodes
//!   that act through a [`Context`]: [`send`](Context::send) a byte
//!   [`Frame`] onto a link now or [`send_at`](Context::send_at) a later
//!   instant, set a timer with [`schedule_at`](Context::schedule_at) /
//!   [`schedule_in`](Context::schedule_in), or [`hold`](Context::hold)
//!   a frame until a later instant. A frame that only waits out a known
//!   delay before its send costs no event of its own: one event per
//!   hop, the `Deliver` at the far end;
//! * duplex [links](link::LinkParams) with serialization, propagation, and
//!   drop-tail queues;
//! * deterministic randomness ([`SimRng`]) and statistics helpers
//!   ([`stats`]).
//!
//! The design follows the paper's requirement of a *controlled and
//! repeatable* environment: all nondeterminism is seeded, and virtual time
//! removes wall-clock jitter entirely.
//!
//! ```
//! use netsim::{Simulator, SimTime, EventKind, Node, Context};
//!
//! struct Ticker(u32);
//! impl Node for Ticker {
//!     fn on_event(&mut self, ev: EventKind, ctx: &mut Context<'_>) {
//!         if let EventKind::Timer { .. } = ev {
//!             self.0 += 1;
//!             if self.0 < 3 {
//!                 ctx.schedule_in(netsim::SimDuration::from_secs(1), 0);
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(42);
//! let t = sim.add_node(Box::new(Ticker(0)));
//! sim.schedule_event(SimTime::ZERO, t, EventKind::Timer { token: 0 });
//! sim.run(100);
//! assert_eq!(sim.now(), SimTime::from_secs(2));
//! assert_eq!(sim.node::<Ticker>(t).0, 3);
//! ```

#![warn(missing_docs)]

pub mod core;
mod engine;
mod event;
pub mod fleet;
pub mod link;
mod node;
mod rng;
pub mod stats;
mod time;

pub use self::core::{EventCore, Step, WheelItem};
pub use engine::Simulator;
pub use event::{EventCounts, EventKind, Frame, NodeId, PortId};
pub use link::{LinkId, LinkParams};
pub use node::{Context, FrameHook, Node};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
