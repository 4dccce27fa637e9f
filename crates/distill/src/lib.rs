//! # distill — trace distillation (§3.2)
//!
//! Transforms a collected trace into a *replay trace*: a time series of
//! network quality tuples ⟨d, F, Vb, Vr, L⟩ describing the traced
//! network's end-to-end behaviour under the paper's simple instantaneous
//! model.
//!
//! Components:
//!
//! * [`solver`] — the exact triplet equations (5–8) with the
//!   negative-parameter correction (reuse previous Vb/Vr, fold the
//!   residual into F, never cascade);
//! * [`window`] — the five-second sliding-window average that turns
//!   per-group estimates into per-second delay tuples;
//! * [`loss`] — the loss-rate estimator `L = 1 − sqrt(b/a)`
//!   (equations 9–10);
//! * [`pipeline`] — the one-pass distillation gluing these together,
//!   exposed both as the incremental [`Distiller`] operator (records
//!   in, tuples out, O(window) state — usable while collection is
//!   still running) and as the batch [`distill_with_report`] adapter
//!   over it;
//! * [`synthetic`] — hand-built replay traces (constant/step/impulse and
//!   the Figure 1 WaveLAN-like / slow-network pairs);
//! * [`asymmetric`] — the §6 future-work extension: one-way distillation
//!   from two-endpoint traces under synchronized clocks, removing the
//!   round-trip symmetry assumption.

#![warn(missing_docs)]

pub mod asymmetric;
pub mod loss;
pub mod pipeline;
pub mod solver;
pub mod synthetic;
pub mod window;

pub use asymmetric::{distill_asymmetric, AsymmetricReport};
pub use pipeline::{
    distill_stream, distill_with_report, DistillConfig, DistillReport, DistillStats, Distiller,
};
pub use solver::{correct, solve, solve_or_correct, DelayEstimate, SolveIssue, TripletObservation};
pub use synthetic::NetworkParams;
pub use window::WindowConfig;
