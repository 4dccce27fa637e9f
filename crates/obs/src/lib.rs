//! # obs — observability substrate for the emulation pipeline
//!
//! The paper's central claim is that trace modulation *faithfully*
//! reproduces collected network conditions; this crate turns that claim
//! into an always-on, machine-readable health signal. It provides:
//!
//! * [`Hist`] — a fixed-bucket histogram built on
//!   [`netsim::stats::Histogram`] + [`netsim::stats::Summary`] (exact
//!   p50/p95/p99 via retained samples — no duplicated math);
//! * [`MetricsRegistry`] — a serializable snapshot of named counters,
//!   gauges, and histogram summaries, mergeable under a stage prefix;
//! * [`FidelityCollector`] / [`FidelityReport`] — the modulation-layer
//!   self-check (intended-vs-actual delay error percentiles, deadline
//!   misses, drift clamps, loss-rate delta vs the replay trace), which
//!   the `run.*` alert rules judge;
//! * [`RunManifest`] — the per-run artifact (one line of a run
//!   directory's `manifests.jsonl` per live-pipeline trial or fleet
//!   client) holding deterministic sim-path metrics only, so serial
//!   and parallel executions of the same cell compare bitwise equal on
//!   [`deterministic_json`](RunManifest::deterministic_json);
//! * [`flight`] — the packet-lifecycle flight recorder: a bounded,
//!   virtual-time ring of per-packet spans across every pipeline
//!   stage, exportable as Chrome trace-event / Perfetto JSON and
//!   queryable as a [`PacketJourney`];
//! * [`mod@bench`] — cross-run benchmark regression tracking
//!   (`tracemod bench-diff` against a committed `BENCH_baseline.json`)
//!   plus the same-run [`OverheadGate`];
//! * [`telemetry`] — the fleet telemetry plane: virtual-time sample
//!   readings summed across shards and built once into a
//!   layout-invariant [`FleetTelemetry`] (JSONL / Prometheus /
//!   markdown sparklines) with the worst clients and hottest stations
//!   ranked exactly. Each [`SamplePoint`] field is declared once, in
//!   the field table every export and alert selector iterates;
//! * [`profile`] — an opt-in scoped wall-clock [`Profiler`] with
//!   flamegraph collapsed-stack output for the fleet hot paths;
//! * [`alerts`] — the one engine that judges a run: declarative TOML
//!   rules (thresholds, windowed burn rates, delta-vs-baseline)
//!   evaluated in virtual time over one run's fidelity section, or a
//!   fleet's telemetry series and aggregates, with chaos-aware
//!   suppression windows keyed off injected faults (the one
//!   [`FaultEvent`] type, which `faultkit` re-exports), exported as
//!   byte-deterministic JSONL + markdown. [`RuleSet::builtin`] is the
//!   fidelity contract every `--check` gates on, and
//!   [`FidelityThresholds`] its per-run rules compiled, which count a
//!   fleet's failed clients;
//! * [`mod@toml`] — the line-oriented TOML subset that every input file
//!   is written in: alert rules, scenario packs, scenario files and
//!   fault plans;
//! * [`diff`] — cross-run divergence forensics: a first-divergence
//!   finder that walks two runs' artifacts in lockstep and names the
//!   earliest differing field with virtual-time / client / shard
//!   context (`tracemod diff-runs`);
//! * [`run_dir`] — the run directory: one table of artifact file names,
//!   determinism and causal order, with the one writer and reader every
//!   `--out DIR` command and run-directory reader goes through.
//!
//! **Determinism rule**: everything under [`RunManifest::metrics`] and
//! [`RunManifest::fidelity`] must derive only from simulation state
//! (virtual time, event counts, per-cell RNG streams). Wall-clock
//! readings belong exclusively in a fleet report's [`RunnerSection`]
//! and the profiler.

#![warn(missing_docs)]

pub mod alerts;
pub mod bench;
pub mod diff;
pub mod fidelity;
pub mod fleet;
pub mod flight;
pub mod manifest;
pub mod metrics;
pub mod profile;
pub mod registry;
pub mod run_dir;
pub mod telemetry;
pub mod toml;

pub use alerts::{
    evaluate as evaluate_alerts, Alert, AlertInputs, AlertReport, FaultEvent, FidelityThresholds,
    RuleSet, Severity, ALERTS_SCHEMA,
};
pub use bench::{BenchDiff, BenchDiffConfig, BenchRecord, BenchStatus, BenchVerdict, OverheadGate};
pub use diff::{diff_artifacts, ArtifactKind, DiffOptions, Divergence};
pub use fidelity::{FidelityCollector, FidelityReport};
pub use fleet::{FleetReport, ModelUsage, FLEET_SCHEMA};
pub use flight::{FlightHandle, FlightRecord, FlightRecorder, PacketId, PacketJourney, Stage};
pub use manifest::{ModelInfo, RunManifest, RunnerSection, MANIFEST_SCHEMA};
pub use metrics::{Bins, Hist, HistSnapshot};
pub use profile::{ProfEntry, Profiler};
pub use registry::MetricsRegistry;
pub use run_dir::{Artifact, DirDiff};
pub use telemetry::{FleetTelemetry, SamplePoint, TelemetryConfig, TopEntry, TELEMETRY_SCHEMA};
