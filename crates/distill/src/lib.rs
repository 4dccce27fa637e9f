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
//! * [`window`] — the one sliding-window operator
//!   ([`window::Window`]): each step of 1 s covers the trailing 5 s
//!   `(end − width, end]`, over an accumulator that either averages
//!   per-group delay estimates ([`window::DelayMean`]) or counts probe
//!   outcomes ([`loss::LossCount`]);
//! * [`loss`] — the loss-rate estimator `L = 1 − sqrt(b/a)`
//!   (equations 9–10) and its one-way form `L = 1 − b/a`;
//! * [`pipeline`] — the one-pass distillation gluing these together,
//!   exposed both as the incremental [`Distiller`] operator (records
//!   in, tuples out, O(window) state — usable while collection is
//!   still running) and as the batch [`distill_with_report`] adapter
//!   over it, which returns the replay trace and the run's
//!   [`DistillStats`]. One function turns a delay step and a loss
//!   value into a quality tuple, for this path and the asymmetric one;
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
