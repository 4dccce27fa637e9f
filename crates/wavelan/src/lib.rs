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
//! [`Scenario`] holds the checkpoint tables reproducing Figures 2–5; a
//! custom one is a TOML scenario file ([`Scenario::from_toml`], written
//! by [`Scenario::to_toml`]), and a [`ScenarioPack`] a TOML mix of
//! registry models. For physically-grounded experiments,
//! [`PhysicalModel`] instead derives conditions from a [`MobilityPath`]
//! walked through [`WavePoint`] base stations via log-distance path
//! loss, shadowing, and handoffs.

#![warn(missing_docs)]

pub mod channel;
pub mod crosstraffic;
pub mod errant;
pub mod leo;
pub mod mobility;
pub mod model;
pub mod registry;
pub mod scenario;
mod scenario_file;
pub mod signal;
pub mod wavepoint;

/// Longest run a scenario, a pack or `--duration-secs` may ask for:
/// one virtual day. Anything longer is a typo, not an experiment.
pub const MAX_DURATION_SECS: u64 = 86_400;

/// A file's `duration_secs` value: an integer in `1..=MAX_DURATION_SECS`.
fn duration_secs(key: &str, value: &str) -> Result<u64, String> {
    match obs::toml::integer(key, value)? {
        0 => Err(format!(
            "'duration_secs' must be a positive integer, got '{value}'"
        )),
        n if n > MAX_DURATION_SECS => Err(format!(
            "'duration_secs' {value} is above the cap of {MAX_DURATION_SECS}"
        )),
        n => Ok(n),
    }
}

pub use channel::{ChannelStats, WirelessChannel, MOBILE_PORT, WIRED_PORT};
pub use crosstraffic::{CrossTraffic, CrossTrafficCfg};
pub use errant::{ErrantModel, ErrantProfile, Rat};
pub use leo::{LeoConfig, LeoModel};
pub use mobility::{MobilityPath, Position, WalkBuilder};
pub use model::{ChannelModel, Checkpoint, ConstantModel, LinkConditions, PiecewiseModel};
pub use registry::{load_pack, ModelParams, ModelSpec, PackEntry, Registry, ScenarioPack};
pub use scenario::Scenario;
pub use signal::SignalInfo;
pub use wavepoint::{HandoffConfig, PhysicalModel, Propagation, SignalResponse, WavePoint};
