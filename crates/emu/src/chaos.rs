//! Chaos runs: the streaming pipeline under deterministic fault
//! injection.
//!
//! [`chaos_live_run`] is [`live_modulated_run`](crate::live_modulated_run)
//! with a [`faultkit::FaultInjector`] threaded through every hook: the
//! collection ring capacity, the record path (corruption, truncation,
//! clock jumps — via the injector's real encode→decode round trip), the
//! tuple path (drops), the feed (stalls), and the worker itself
//! (kill/restart). Every fault is derived from `(seed, plan)` and
//! keyed off virtual time or record indices, so a chaos run is exactly
//! as reproducible as a clean one: same inputs, byte-identical
//! [`RunManifest`](obs::RunManifest) and fault-event log, at any worker
//! count.

use crate::runs::{live_modulated_run_inner, LiveModOutcome, RunConfig};
use crate::workload::Benchmark;
use distill::DistillConfig;
use faultkit::{FaultCounters, FaultEvent, FaultInjector, FaultPlan};
use wavelan::Scenario;

/// Everything a chaos run produces: the ordinary pipeline outcome plus
/// the fault ledger.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The pipeline outcome — benchmark result, streaming diagnostics,
    /// manifest (with `fault.*` counters), and flight recorder.
    pub outcome: LiveModOutcome,
    /// Every fault injected, in virtual-time order.
    pub faults: Vec<FaultEvent>,
    /// Final injection and degradation tallies; `injected_total()`
    /// always equals `faults.len()`.
    pub counters: FaultCounters,
}

/// Run the live streaming pipeline under `plan`, faults seeded from
/// `seed`.
///
/// `cell_index` is this run's position in its trial plan (0 when run
/// standalone): `kill_worker(idx, ..)` plan entries target plan cells,
/// not pool workers, so the same plan produces the same kills — and the
/// same manifests — regardless of how many workers execute the plan.
///
/// A kill is executed as the paper's operator would see it: the cell
/// runs until the victim has processed `at_record` records, the partial
/// run is discarded, and the cell restarts from its plan entry. Since
/// cells are pure functions of their seeds, the restarted run is
/// bitwise identical to an uninterrupted one except for the
/// `worker_kills` tally and its fault event.
#[allow(clippy::too_many_arguments)] // one parameter per pipeline input; a config struct would be pure ceremony
pub fn chaos_live_run(
    scenario: &Scenario,
    trial: u32,
    benchmark: Benchmark,
    dcfg: &DistillConfig,
    cfg: &RunConfig,
    seed: u64,
    plan: &FaultPlan,
    cell_index: usize,
) -> ChaosOutcome {
    let span_ns = (scenario.duration.as_secs_f64() * 1e9) as u64;
    let mut injector = FaultInjector::new(seed, plan, span_ns);

    injector.restart_on_kill(cell_index, |at_record| {
        // The probe pass runs with a throwaway injector: its only
        // purpose is to establish the virtual time the kill lands at.
        let mut probe = FaultInjector::new(seed, plan, span_ns);
        live_modulated_run_inner(
            scenario,
            trial,
            benchmark,
            dcfg,
            cfg,
            Some(&mut probe),
            Some(at_record),
        )
    });

    let outcome = live_modulated_run_inner(
        scenario,
        trial,
        benchmark,
        dcfg,
        cfg,
        Some(&mut injector),
        None,
    )
    .unwrap_or_else(|_| unreachable!("definitive run has no abort point"));
    ChaosOutcome {
        counters: *injector.counters(),
        faults: injector.into_events(),
        outcome,
    }
}
