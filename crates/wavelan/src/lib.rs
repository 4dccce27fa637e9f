//! # wavelan — the wireless substrate
//!
//! Models the paper's physical testbed: an AT&T WaveLAN radio (2 Mb/s
//! nominal, shared medium), the campus WavePoint infrastructure, physical
//! motion along the four evaluation scenarios, and SynRGen-like
//! interfering traffic.
//!
//! The central abstraction is the [`WirelessChannel`] simulation node: it
//! relays frames between the mobile host and the wired side while
//! applying the time-varying [`LinkConditions`] of a [`ChannelModel`] —
//! shared-medium serialization (both directions contend for the same air
//! time), one-way latency, probabilistic loss, and cross-traffic
//! contention. The channel also drives the signal meter that the trace
//! collector's device records sample.
//!
//! [`Scenario`] holds the checkpoint tables reproducing Figures 2–5.
//! For physically-grounded experiments, [`PhysicalModel`] instead derives
//! conditions from a [`MobilityPath`] walked through [`WavePoint`] base
//! stations via log-distance path loss, shadowing, and handoffs.

#![warn(missing_docs)]

pub mod channel;
pub mod crosstraffic;
pub mod errant;
pub mod leo;
pub mod mobility;
pub mod model;
pub mod registry;
pub mod scenario;
pub mod signal;
pub mod spec;
pub mod wavepoint;

/// Longest run a scenario, a pack or `--duration-secs` may ask for:
/// one virtual day. Anything longer is a typo, not an experiment.
pub const MAX_DURATION_SECS: u64 = 86_400;

pub use channel::{ChannelStats, WirelessChannel, MOBILE_PORT, WIRED_PORT};
pub use crosstraffic::{CrossTraffic, CrossTrafficCfg};
pub use errant::{ErrantModel, ErrantProfile, Rat};
pub use leo::{LeoConfig, LeoModel};
pub use mobility::{MobilityPath, Position, WalkBuilder};
pub use model::{ChannelModel, Checkpoint, ConstantModel, LinkConditions, PiecewiseModel};
pub use registry::{load_pack, ModelParams, ModelSpec, PackEntry, Registry, ScenarioPack};
pub use scenario::Scenario;
pub use signal::SignalInfo;
pub use spec::{CheckpointSpec, CrossSpec, ScenarioSpec};
pub use wavepoint::{HandoffConfig, PhysicalModel, Propagation, SignalResponse, WavePoint};
