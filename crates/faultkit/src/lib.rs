//! # faultkit — deterministic fault injection for the emulation pipeline
//!
//! The pipeline (collection → distillation → modulation) is only
//! trustworthy as a measurement instrument if it degrades predictably
//! when inputs are hostile: truncated trace chunks, corrupt records,
//! starved tuple feeds, clock jumps, and mid-run worker failure. This
//! crate provides the *injection plane* for exercising exactly those
//! failure modes, deterministically:
//!
//! * [`FaultPlan`] — *which* faults to inject: a list of [`Fault`]s
//!   (`corrupt_chunk`, `truncate_trace`, `drop_tuples`, `stall_feed`,
//!   `clock_jump`, `kill_worker`, `oom_ring`), read from a TOML plan
//!   file of `[[fault]]` tables (`tracemod chaos --plan FILE`, the
//!   committed plans in `packs/faults/`) or built from a `Vec<Fault>`;
//! * [`FaultInjector`] — the runtime: seeded with `(seed, plan)`, it
//!   sits between trace collection and distillation, pushing every
//!   fresh record through an encode → byte-fault → quarantine-decode →
//!   sanitize chain, and exposes hooks for the feed-stall, ring-cap and
//!   worker-kill faults that live outside the record path;
//! * [`ChaosSink`] — a [`TupleSink`] adapter that drops distilled
//!   tuples by emission index on the way to the modulation feed;
//! * [`FaultEvent`] / [`FaultCounters`] — the observable side: one
//!   event per injected fault (virtual-time stamped, JSONL-ready; the
//!   type is `obs`'s, so the alert engine reads the same struct) and
//!   the counter block that lands in the `RunManifest` under `fault.*`.
//!
//! The live pipeline has one driver, `emu::live_modulated_run`, and the
//! injector sits in it on every run: the empty plan is the clean run, so
//! every live manifest carries the `fault.*` block (all zero when
//! nothing fired). The fleet engine applies only `kill_worker`. A kill
//! is a note, not a rerun: cells are pure functions of their plan entry,
//! so the one pass books it ([`FaultInjector::note_kill`]) at its
//! virtual time.
//!
//! **Determinism rule**: every fault fires off virtual time, record
//! indices, or byte offsets — never wall clock — so the same
//! `(seed, plan)` replays bitwise-identically at any worker count.
//!
//! [`TupleSink`]: tracekit::TupleSink

#![warn(missing_docs)]

mod inject;
mod plan;

pub use inject::{events_to_jsonl, ChaosSink, FaultCounters, FaultInjector};
pub use obs::FaultEvent;
pub use plan::{Fault, FaultPlan};
