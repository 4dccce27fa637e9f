//! # emu — trace modulation, end to end
//!
//! The top-level library tying the reproduction together. It implements
//! the paper's three-phase methodology as runnable operations on
//! simulated testbeds:
//!
//! 1. **Collection** ([`collect_trace`]) — an instrumented laptop
//!    traverses a [`wavelan::Scenario`] running the ping workload while
//!    the device-layer collector records packets and signal samples;
//! 2. **Distillation** ([`collect_and_distill`]) — the collected trace
//!    is reduced to a replay trace of ⟨d, F, Vb, Vr, L⟩ tuples;
//! 3. **Modulation** ([`modulated_run`]) — unmodified benchmarks run on
//!    an isolated Ethernet whose laptop kernel delays/drops every packet
//!    per the replay trace.
//!
//! [`TrialPlan::push_comparison`] queues the paper's validation — N
//! live trials vs N modulated trials — and [`comparison_from_plan`]
//! applies the "within the sum of the standard deviations" criterion.
//! [`figures::scenario_figure`] regenerates the scenario
//! characterization figures.
//!
//! **Live mode** ([`live_modulated_run`]) runs all three phases at once
//! and is the one driver of that pipeline: it takes a
//! [`faultkit::FaultPlan`], and the empty plan is the clean run. Every
//! live manifest carries the `fault.*` counter block, all zero when
//! nothing was injected.
//!
//! Every cell of that validation matrix is an independent simulation
//! seeded from (scenario, trial, purpose), so [`plan::TrialPlan`] can
//! execute the whole matrix on a pool of worker threads
//! ([`plan::Exec`]) and reassemble outputs in plan order — the derived
//! tables are byte-identical to the serial path at any worker count.
//!
//! ```no_run
//! use emu::{collect_and_distill, modulated_run, RunConfig, Benchmark};
//! use wavelan::Scenario;
//!
//! let cfg = RunConfig::default();
//! let report = collect_and_distill(&Scenario::wean(), 1, &cfg);
//! let result = modulated_run(&report.replay, 1, Benchmark::FtpRecv, &cfg);
//! println!("modulated FTP fetch: {:.1}s", result.secs());
//! ```

#![warn(missing_docs)]

pub mod experiment;
pub mod figures;
pub mod fleet;
pub mod hooks;
pub mod plan;
pub mod report;
pub mod runs;
pub mod testbed;
pub mod workload;

pub use experiment::{comparison_from_plan, Comparison};
pub use figures::{scenario_figure, CheckpointSeries, FigureOpts, ScenarioFigure, FIGURES};
pub use fleet::{
    fleet_alerts, fleet_run, fleet_run_chaos, FleetOutcome, FleetPlan, FleetShard,
    FleetShardOutcome,
};
pub use hooks::FlightFrameHook;
pub use plan::{
    CellKind, CellOutput, CellReport, Exec, PlanMetrics, PlanResults, TrialCell, TrialPlan,
};
pub use runs::{
    collect_and_distill, collect_trace, collect_trace_two_sided, ethernet_run, live_modulated_run,
    live_run, measure_compensation, modulated_run, modulated_run_asymmetric, LiveModOutcome,
    LiveModStats, RunConfig,
};
pub use testbed::{build_ethernet, build_wireless, Hardware, Testbed, LAPTOP_IP, SERVER_IP};
pub use workload::{install, run_to_completion, Benchmark, Installed, RunResult, FTP_SIZE};
