//! Deterministic parallel execution of the validation matrix.
//!
//! The paper's evaluation is a matrix of independent cells: every
//! (scenario, benchmark, kind, trial) combination — live wireless runs,
//! collect→distill→modulate runs, and Ethernet baselines — draws its
//! seeds from [`crate::runs`]'s `seed_for` and builds its own
//! [`netsim::Simulator`], so no cell shares mutable state with any
//! other. A [`TrialPlan`] enumerates the cells up front, executes them
//! on a fixed-size pool of scoped worker threads, and reassembles the
//! outputs **in plan order**, which makes every derived
//! [`Comparison`] / [`Summary`] byte-identical to the serial path no
//! matter how many workers run or how cells interleave.
//!
//! [`Comparison`]: crate::experiment::Comparison

use crate::runs::{
    collect_trace, ethernet_run, live_modulated_run, live_run, modulated_run, LiveModOutcome,
    RunConfig,
};
use crate::workload::{Benchmark, RunResult};
use distill::{distill_with_report, DistillConfig, DistillReport};
use faultkit::FaultPlan;
use netsim::stats::Summary;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tracekit::Trace;
use wavelan::Scenario;

/// How to execute a plan: the worker count.
#[derive(Debug, Clone, Copy)]
pub struct Exec {
    /// Worker threads (1 = run serially on the calling thread).
    pub workers: usize,
}

impl Exec {
    /// Serial execution — the escape hatch, and the reference the
    /// parallel path must match byte-for-byte.
    pub fn serial() -> Self {
        Exec { workers: 1 }
    }

    /// A fixed-size pool of `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        Exec {
            workers: workers.max(1),
        }
    }
}

/// The work one cell performs.
pub enum CellKind {
    /// Benchmark over the live simulated-wireless scenario.
    Live {
        /// Scenario to traverse.
        scenario: Scenario,
        /// Benchmark to run.
        benchmark: Benchmark,
    },
    /// The full modulation pipeline: collect a fresh trace of the
    /// scenario, distill it, and run the benchmark modulated.
    Modulated {
        /// Scenario to collect.
        scenario: Scenario,
        /// Benchmark to run modulated.
        benchmark: Benchmark,
        /// Distillation parameters (the default matches the paper).
        distill: DistillConfig,
    },
    /// Benchmark on the bare modulation Ethernet (reference rows).
    Ethernet {
        /// Benchmark to run.
        benchmark: Benchmark,
    },
    /// Collection + distillation only (the scenario figures).
    Collect {
        /// Scenario to collect.
        scenario: Scenario,
        /// Distillation parameters.
        distill: DistillConfig,
    },
    /// The streaming pipeline end to end: collect, distill, and
    /// modulate concurrently under a fault plan
    /// ([`live_modulated_run`]; the empty plan is the clean run).
    /// `kill_worker` plan entries target the cell's *plan index*, so
    /// results are identical at any worker count.
    LiveModulated {
        /// Scenario to collect while modulating.
        scenario: Scenario,
        /// Benchmark to run on the concurrently modulated Ethernet.
        benchmark: Benchmark,
        /// Distillation parameters for the incremental distiller.
        distill: DistillConfig,
        /// Fault RNG seed (combined with the plan, fully determines
        /// every injection).
        seed: u64,
        /// The faults to inject.
        plan: FaultPlan,
    },
    /// One shard of a fleet run: the clients in the shard's range run
    /// under a single event engine ([`FleetShard::run`](crate::fleet::FleetShard::run)). Kills target
    /// the shard's plan index, exactly like [`CellKind::LiveModulated`].
    Fleet(crate::fleet::FleetShard),
    /// Arbitrary work for bespoke experiments (ablations): receives
    /// (trial, config), returns any run results produced.
    Custom(CustomCell),
}

/// Closure type for [`CellKind::Custom`] cells.
pub type CustomCell = Box<dyn Fn(u32, &RunConfig) -> Vec<RunResult> + Send + Sync>;

/// One independently executable unit of the matrix.
pub struct TrialCell {
    /// Label shown in per-cell metrics.
    pub label: String,
    /// Trial number (feeds the deterministic seeding).
    pub trial: u32,
    /// Run configuration for this cell.
    pub cfg: RunConfig,
    /// What to execute.
    pub kind: CellKind,
}

/// What a cell produced.
pub enum CellOutput {
    /// A single benchmark run (live / ethernet).
    Run(RunResult),
    /// A modulated run together with the distillation that drove it.
    RunWithReport(RunResult, DistillReport),
    /// A collected trace and its distillation (figure cells).
    Collected(Trace, DistillReport),
    /// A live streaming-pipeline run with its diagnostics and fault
    /// ledger (boxed: the run manifest makes this by far the largest
    /// variant).
    LiveModulated(Box<LiveModOutcome>),
    /// One fleet shard's outcome (boxed, like the live-pipeline one);
    /// its manifests go to the fleet's manifest sink.
    Fleet(Box<crate::fleet::FleetShardOutcome>),
    /// Results of a custom cell.
    Runs(Vec<RunResult>),
}

impl CellOutput {
    fn run_results(&self) -> &[RunResult] {
        match self {
            CellOutput::Run(r) | CellOutput::RunWithReport(r, _) => std::slice::from_ref(r),
            CellOutput::LiveModulated(o) => std::slice::from_ref(&o.result),
            CellOutput::Collected(..) | CellOutput::Fleet(..) => &[],
            CellOutput::Runs(rs) => rs,
        }
    }
}

/// Timing record for one executed cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell's label.
    pub label: String,
    /// Wall-clock seconds spent executing the cell.
    pub wall_secs: f64,
    /// Virtual (simulated) seconds the cell covered.
    pub virtual_secs: f64,
    /// Benchmark runs in this cell that hit their deadline.
    pub failed: u32,
}

/// Aggregate execution metrics for a whole plan.
#[derive(Debug, Clone)]
pub struct PlanMetrics {
    /// Cells executed.
    pub cells: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Benchmark runs that hit their deadline without completing.
    pub failed_runs: u32,
    /// End-to-end wall-clock seconds for the plan.
    pub wall_secs: f64,
    /// Sum of per-cell wall-clock seconds (≈ serial wall time).
    pub cell_wall_secs: f64,
    /// Total virtual seconds simulated across all cells.
    pub virtual_secs: f64,
    /// Per-cell timing records, in plan order.
    pub per_cell: Vec<CellReport>,
}

impl PlanMetrics {
    /// Virtual seconds simulated per wall-clock second.
    pub fn virtual_speedup(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.virtual_secs / self.wall_secs
        } else {
            0.0
        }
    }

    /// Parallel speedup: summed cell time over end-to-end wall time
    /// (what a serial execution of the same plan would roughly take,
    /// divided by what this execution took).
    pub fn parallel_speedup(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.cell_wall_secs / self.wall_secs
        } else {
            0.0
        }
    }

    /// Fraction of available worker-seconds spent executing cells:
    /// `cell_wall_secs / (workers × wall_secs)`, clamped to 1. A value
    /// near 1 means the pool was busy end to end; low values indicate
    /// a straggler cell or an over-provisioned pool.
    pub fn worker_utilization(&self) -> f64 {
        let capacity = self.workers as f64 * self.wall_secs;
        if capacity > 0.0 {
            (self.cell_wall_secs / capacity).min(1.0)
        } else {
            0.0
        }
    }
}

/// An ordered list of cells plus the machinery to run them.
#[derive(Default)]
pub struct TrialPlan {
    cells: Vec<TrialCell>,
}

impl TrialPlan {
    /// An empty plan.
    pub fn new() -> Self {
        TrialPlan::default()
    }

    /// Number of cells queued.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells are queued.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Queue one cell.
    pub fn push(&mut self, cell: TrialCell) {
        self.cells.push(cell);
    }

    /// Queue the live + modulated cells of one comparison: `trials`
    /// live runs and `trials` collect→distill→modulate runs, which
    /// [`comparison_from_plan`](crate::comparison_from_plan) reads back
    /// once the plan has run.
    pub fn push_comparison(
        &mut self,
        scenario: &Scenario,
        benchmark: Benchmark,
        trials: u32,
        cfg: &RunConfig,
    ) {
        for trial in 1..=trials {
            self.push(TrialCell {
                label: format!("{}/{}/live#{trial}", scenario.name, benchmark.name()),
                trial,
                cfg: *cfg,
                kind: CellKind::Live {
                    scenario: scenario.clone(),
                    benchmark,
                },
            });
            self.push(TrialCell {
                label: format!("{}/{}/mod#{trial}", scenario.name, benchmark.name()),
                trial,
                cfg: *cfg,
                kind: CellKind::Modulated {
                    scenario: scenario.clone(),
                    benchmark,
                    distill: DistillConfig::default(),
                },
            });
        }
    }

    /// Queue the Ethernet reference cells for one benchmark.
    pub fn push_ethernet(&mut self, benchmark: Benchmark, trials: u32, cfg: &RunConfig) {
        for trial in 1..=trials {
            self.push(TrialCell {
                label: format!("ethernet/{}#{trial}", benchmark.name()),
                trial,
                cfg: *cfg,
                kind: CellKind::Ethernet { benchmark },
            });
        }
    }

    /// Queue collection-only cells for one scenario (figure data).
    pub fn push_collection(&mut self, scenario: &Scenario, trials: u32, cfg: &RunConfig) {
        for trial in 1..=trials {
            self.push(TrialCell {
                label: format!("{}/collect#{trial}", scenario.name),
                trial,
                cfg: *cfg,
                kind: CellKind::Collect {
                    scenario: scenario.clone(),
                    distill: DistillConfig::default(),
                },
            });
        }
    }

    /// Execute every cell and reassemble the outputs in plan order.
    ///
    /// With `exec.workers == 1` the cells run on the calling thread in
    /// plan order. With more workers, a fixed pool of scoped threads
    /// claims cells from a shared cursor; outputs land in per-cell
    /// slots, so assembly order — and therefore every derived summary —
    /// is independent of scheduling.
    pub fn run(self, exec: &Exec) -> PlanResults {
        let n = self.cells.len();
        let started = Instant::now();
        let mut outputs: Vec<Option<(CellOutput, CellReport)>> = Vec::new();

        if exec.workers <= 1 || n <= 1 {
            for (i, cell) in self.cells.iter().enumerate() {
                outputs.push(Some(execute_cell(cell, i)));
            }
        } else {
            let slots: Vec<Mutex<Option<(CellOutput, CellReport)>>> =
                (0..n).map(|_| Mutex::new(None)).collect();
            let cursor = AtomicUsize::new(0);
            let cells = &self.cells;
            std::thread::scope(|scope| {
                for _ in 0..exec.workers.min(n) {
                    scope.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let out = execute_cell(&cells[i], i);
                        *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
                    });
                }
            });
            outputs = slots
                .into_iter()
                .map(|s| s.into_inner().unwrap_or_else(|p| p.into_inner()))
                .collect();
        }

        let wall_secs = started.elapsed().as_secs_f64();
        let mut per_cell = Vec::with_capacity(n);
        let mut finished = Vec::with_capacity(n);
        for out in outputs {
            let (output, report) = out.expect("every cell executes exactly once");
            per_cell.push(report);
            finished.push(output);
        }
        let metrics = PlanMetrics {
            cells: n,
            workers: exec.workers,
            failed_runs: per_cell.iter().map(|c| c.failed).sum(),
            wall_secs,
            cell_wall_secs: per_cell.iter().map(|c| c.wall_secs).sum(),
            virtual_secs: per_cell.iter().map(|c| c.virtual_secs).sum(),
            per_cell,
        };
        PlanResults {
            cells: self.cells,
            outputs: finished,
            metrics,
        }
    }
}

fn virtual_secs_of(result: &RunResult) -> f64 {
    result
        .elapsed
        .unwrap_or_else(|| result.benchmark.deadline().as_secs_f64())
}

fn execute_cell(cell: &TrialCell, cell_index: usize) -> (CellOutput, CellReport) {
    let started = Instant::now();
    let (output, virtual_secs) = match &cell.kind {
        CellKind::Live {
            scenario,
            benchmark,
        } => {
            let r = live_run(scenario, cell.trial, *benchmark, &cell.cfg);
            let v = virtual_secs_of(&r);
            (CellOutput::Run(r), v)
        }
        CellKind::Modulated {
            scenario,
            benchmark,
            distill,
        } => {
            let trace = collect_trace(scenario, cell.trial, &cell.cfg);
            let report = distill_with_report(&trace, distill);
            let r = modulated_run(&report.replay, cell.trial, *benchmark, &cell.cfg);
            let v = scenario.duration.as_secs_f64() + virtual_secs_of(&r);
            (CellOutput::RunWithReport(r, report), v)
        }
        CellKind::Ethernet { benchmark } => {
            let r = ethernet_run(cell.trial, *benchmark, &cell.cfg);
            let v = virtual_secs_of(&r);
            (CellOutput::Run(r), v)
        }
        CellKind::Collect { scenario, distill } => {
            let trace = collect_trace(scenario, cell.trial, &cell.cfg);
            let report = distill_with_report(&trace, distill);
            let v = scenario.duration.as_secs_f64();
            (CellOutput::Collected(trace, report), v)
        }
        CellKind::LiveModulated {
            scenario,
            benchmark,
            distill,
            seed,
            plan,
        } => {
            let o = live_modulated_run(
                scenario, cell.trial, *benchmark, distill, &cell.cfg, *seed, plan, cell_index,
            );
            // Both simulations advance in lockstep over the same span.
            let v = o.stats.collection_secs.max(virtual_secs_of(&o.result));
            (CellOutput::LiveModulated(Box::new(o)), v)
        }
        CellKind::Fleet(shard) => {
            let o = shard.run(cell_index);
            let v = o.virtual_secs;
            (CellOutput::Fleet(Box::new(o)), v)
        }
        CellKind::Custom(work) => {
            let rs = work(cell.trial, &cell.cfg);
            let v = rs.iter().map(virtual_secs_of).sum();
            (CellOutput::Runs(rs), v)
        }
    };
    let failed = output
        .run_results()
        .iter()
        .filter(|r| r.elapsed.is_none())
        .count() as u32;
    let report = CellReport {
        label: cell.label.clone(),
        wall_secs: started.elapsed().as_secs_f64(),
        virtual_secs,
        failed,
    };
    (output, report)
}

/// Executed plan: cells, their outputs in plan order, and metrics.
pub struct PlanResults {
    cells: Vec<TrialCell>,
    outputs: Vec<CellOutput>,
    /// Execution metrics.
    pub metrics: PlanMetrics,
}

impl PlanResults {
    /// Iterate (cell, output) pairs in plan order.
    pub fn iter(&self) -> impl Iterator<Item = (&TrialCell, &CellOutput)> {
        self.cells.iter().zip(&self.outputs)
    }

    /// Fleet shard outcomes by value, in plan order (= ascending client
    /// range, the order [`crate::fleet::fleet_run`] merges them in).
    /// Consumes the results, so read [`metrics`](Self::metrics) first.
    pub fn into_fleet_outcomes(self) -> impl Iterator<Item = crate::fleet::FleetShardOutcome> {
        self.outputs.into_iter().filter_map(|o| match o {
            CellOutput::Fleet(s) => Some(*s),
            _ => None,
        })
    }

    /// Live run results for (scenario, benchmark), in plan order.
    pub fn live_runs(&self, scenario: &str, benchmark: Benchmark) -> Vec<&RunResult> {
        self.iter()
            .filter_map(|(c, o)| match (&c.kind, o) {
                (
                    CellKind::Live {
                        scenario: s,
                        benchmark: b,
                    },
                    CellOutput::Run(r),
                ) if s.name == scenario && *b == benchmark => Some(r),
                _ => None,
            })
            .collect()
    }

    /// Modulated run results for (scenario, benchmark), in plan order.
    pub fn modulated_runs(&self, scenario: &str, benchmark: Benchmark) -> Vec<&RunResult> {
        self.iter()
            .filter_map(|(c, o)| match (&c.kind, o) {
                (
                    CellKind::Modulated {
                        scenario: s,
                        benchmark: b,
                        ..
                    },
                    CellOutput::RunWithReport(r, _),
                ) if s.name == scenario && *b == benchmark => Some(r),
                _ => None,
            })
            .collect()
    }

    /// Live streaming-pipeline outcomes for (scenario, benchmark), in
    /// plan order.
    pub fn live_modulated(&self, scenario: &str, benchmark: Benchmark) -> Vec<&LiveModOutcome> {
        self.iter()
            .filter_map(|(c, o)| match (&c.kind, o) {
                (
                    CellKind::LiveModulated {
                        scenario: s,
                        benchmark: b,
                        ..
                    },
                    CellOutput::LiveModulated(out),
                ) if s.name == scenario && *b == benchmark => Some(&**out),
                _ => None,
            })
            .collect()
    }

    /// Ethernet baseline summary for one benchmark: its runs' elapsed
    /// times in plan (trial) order.
    pub fn ethernet_baseline(&self, benchmark: Benchmark) -> Summary {
        let mut s = Summary::new();
        for (c, o) in self.iter() {
            if let (CellKind::Ethernet { benchmark: b }, CellOutput::Run(r)) = (&c.kind, o) {
                if *b == benchmark {
                    s.add(r.secs());
                }
            }
        }
        s
    }

    /// Ethernet run results for one benchmark, in plan order.
    pub fn ethernet_runs(&self, benchmark: Benchmark) -> Vec<&RunResult> {
        self.iter()
            .filter_map(|(c, o)| match (&c.kind, o) {
                (CellKind::Ethernet { benchmark: b }, CellOutput::Run(r)) if *b == benchmark => {
                    Some(r)
                }
                _ => None,
            })
            .collect()
    }

    /// Collected (trace, report) pairs for one scenario, in plan order.
    pub fn collected(&self, scenario: &str) -> Vec<(&Trace, &DistillReport)> {
        self.iter()
            .filter_map(|(c, o)| match (&c.kind, o) {
                (CellKind::Collect { scenario: s, .. }, CellOutput::Collected(t, r))
                    if s.name == scenario =>
                {
                    Some((t, r))
                }
                _ => None,
            })
            .collect()
    }

    /// All (cell, output) pairs whose label starts with `prefix`, in
    /// plan order — for bespoke experiments that need to separate cells
    /// the typed accessors would conflate (e.g. per-clock sweeps over
    /// the same scenario and benchmark).
    pub fn labeled(&self, prefix: &str) -> Vec<(&TrialCell, &CellOutput)> {
        self.iter()
            .filter(|(c, _)| c.label.starts_with(prefix))
            .collect()
    }

    /// Outputs of custom cells with the given label prefix, plan order.
    pub fn custom_runs(&self, label_prefix: &str) -> Vec<&[RunResult]> {
        self.iter()
            .filter_map(|(c, o)| match (&c.kind, o) {
                (CellKind::Custom(_), CellOutput::Runs(rs))
                    if c.label.starts_with(label_prefix) =>
                {
                    Some(rs.as_slice())
                }
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The planner's whole contract rests on every piece of a cell being
    // movable to a worker thread.
    #[test]
    fn simulation_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<netsim::Simulator>();
        assert_send::<crate::testbed::Testbed>();
        assert_send::<TrialCell>();
        assert_send::<CellOutput>();
        assert_send::<Scenario>();
        assert_send::<RunConfig>();
    }

    #[test]
    fn outputs_reassemble_in_plan_order() {
        // Custom no-op cells that record their identity; whatever the
        // worker interleaving, outputs must come back in plan order.
        let mut plan = TrialPlan::new();
        for i in 0..16u32 {
            plan.push(TrialCell {
                label: format!("cell#{i}"),
                trial: i,
                cfg: RunConfig::default(),
                kind: CellKind::Custom(Box::new(move |trial, _cfg| {
                    // Stagger finish order.
                    std::thread::sleep(std::time::Duration::from_millis(u64::from(
                        (16 - trial) % 7,
                    )));
                    vec![RunResult {
                        benchmark: Benchmark::Web,
                        elapsed: Some(f64::from(trial)),
                        phases: Vec::new(),
                    }]
                })),
            });
        }
        let results = plan.run(&Exec::with_workers(8));
        let seen: Vec<f64> = results
            .custom_runs("cell#")
            .iter()
            .map(|rs| rs[0].elapsed.unwrap())
            .collect();
        assert_eq!(seen, (0..16).map(f64::from).collect::<Vec<_>>());
        assert_eq!(results.metrics.cells, 16);
        assert_eq!(results.metrics.failed_runs, 0);
        assert!(results.metrics.wall_secs > 0.0);
    }
}
