//! `paper_matrix`: the paper's validation matrix (Figures 6–8). Every
//! scenario × benchmark pair gets `trials` live cells and `trials`
//! collect → distill → modulate cells, and every benchmark gets
//! `trials` Ethernet reference cells, all run serially through
//! [`TrialPlan`].

use crate::util::{input_set, percentile, secs_since, Digest, Metrics};
use crate::{Pass, DEFAULT_SEED};
use distill::{distill_with_report, DistillConfig};
use emu::{
    collect_trace, comparison_from_plan, ethernet_run, live_run, modulated_run, Benchmark,
    CellKind, Exec, RunConfig, RunResult, TrialCell, TrialPlan,
};
use std::time::Instant;
use wavelan::Scenario;

/// The four benchmarks of Figures 6–8.
const BENCHMARKS: [Benchmark; 4] = [
    Benchmark::FtpSend,
    Benchmark::FtpRecv,
    Benchmark::Web,
    Benchmark::Andrew,
];

/// Matrix size: how many of `Scenario::all()` and how many trials.
#[derive(Clone, Copy)]
pub struct MatrixSize {
    pub scenarios: usize,
    pub trials: u32,
}

impl MatrixSize {
    /// The paper's matrix: 4 scenarios × 4 benchmarks × 4 trials.
    pub const FULL: MatrixSize = MatrixSize {
        scenarios: 4,
        trials: 4,
    };
    /// The self-test's matrix: one scenario, one trial.
    pub const SMALL: MatrixSize = MatrixSize {
        scenarios: 1,
        trials: 1,
    };
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Live,
    Modulated,
    Ethernet,
}

/// One cell of the matrix, kept in a cloneable form because a
/// [`TrialPlan`] is consumed by each run.
#[derive(Clone)]
struct Cell {
    scenario: Option<Scenario>,
    benchmark: Benchmark,
    trial: u32,
    kind: Kind,
}

/// A prepared matrix.
pub struct Matrix {
    scenarios: Vec<Scenario>,
    cells: Vec<Cell>,
    cfg: RunConfig,
    full: bool,
}

/// The comparisons the matrix yields (one per scenario × benchmark).
pub fn comparisons(size: MatrixSize) -> usize {
    size.scenarios * BENCHMARKS.len()
}

/// Trial blocks a seed chooses among: block `b` runs trials
/// `b·trials + 1 ..= b·trials + trials`.
const BLOCKS: u64 = 64;
/// Blocks of the full matrix in which some run hits its deadline (a
/// modulated Web run that never completes), found by running each of
/// the `BLOCKS` blocks once. They are skipped so that no operation of
/// the workload fails; elsewhere such runs occur in a few percent of
/// blocks.
const DEADLINE_BLOCKS: [u64; 1] = [26];

/// Build the matrix for `seed`, which picks the trial block; the
/// default seed runs block 0, trials 1..=trials, as the figure binaries
/// do.
pub fn setup(seed: u64, size: MatrixSize) -> Matrix {
    let base = input_set(seed, BLOCKS, &DEADLINE_BLOCKS) as u32 * size.trials;
    let scenarios: Vec<Scenario> = Scenario::all().into_iter().take(size.scenarios).collect();
    let mut cells = Vec::new();
    for sc in &scenarios {
        for &benchmark in &BENCHMARKS {
            for t in 1..=size.trials {
                for kind in [Kind::Live, Kind::Modulated] {
                    cells.push(Cell {
                        scenario: Some(sc.clone()),
                        benchmark,
                        trial: base + t,
                        kind,
                    });
                }
            }
        }
    }
    for &benchmark in &BENCHMARKS {
        for t in 1..=size.trials {
            cells.push(Cell {
                scenario: None,
                benchmark,
                trial: base + t,
                kind: Kind::Ethernet,
            });
        }
    }
    Matrix {
        scenarios,
        cells,
        cfg: RunConfig::default(),
        full: size.scenarios == MatrixSize::FULL.scenarios
            && size.trials == MatrixSize::FULL.trials,
    }
}

fn add_run(d: Digest, r: &RunResult) -> Digest {
    let d = d.u64(r.elapsed.map_or(u64::MAX, f64::to_bits));
    r.phases
        .iter()
        .fold(d, |d, (_, secs)| d.u64(secs.to_bits()))
}

impl Matrix {
    fn plan(&self) -> TrialPlan {
        let mut plan = TrialPlan::new();
        for c in &self.cells {
            let kind = match (c.kind, &c.scenario) {
                (Kind::Live, Some(sc)) => CellKind::Live {
                    scenario: sc.clone(),
                    benchmark: c.benchmark,
                },
                (Kind::Modulated, Some(sc)) => CellKind::Modulated {
                    scenario: sc.clone(),
                    benchmark: c.benchmark,
                    distill: DistillConfig::default(),
                },
                _ => CellKind::Ethernet {
                    benchmark: c.benchmark,
                },
            };
            let kind_name = match c.kind {
                Kind::Live => "live",
                Kind::Modulated => "modulated",
                Kind::Ethernet => "ethernet",
            };
            let scenario = c.scenario.as_ref().map_or("ethernet", |sc| sc.name);
            plan.push(TrialCell {
                label: format!("{scenario}/{kind_name}/{}#{}", c.benchmark.name(), c.trial),
                trial: c.trial,
                cfg: self.cfg,
                kind,
            });
        }
        plan
    }

    /// One timed pass over the whole matrix on one thread.
    pub fn pass(&self) -> Pass {
        let plan = self.plan();
        let t = Instant::now();
        let results = plan.run(&Exec::serial());
        let wall_s = secs_since(t);

        let mut within = 0u64;
        let mut digest = Digest::new();
        for sc in &self.scenarios {
            for &b in &BENCHMARKS {
                let c = comparison_from_plan(&results, sc.name, b);
                within += u64::from(c.within_one_sigma());
                digest = digest.u64(u64::from(c.within_one_sigma()));
                for r in c.real_runs.iter().chain(&c.modulated_runs) {
                    digest = add_run(digest, r);
                }
            }
        }
        for &b in &BENCHMARKS {
            for r in results.ethernet_runs(b) {
                digest = add_run(digest, r);
            }
        }
        let m = &results.metrics;
        let mut detail = Metrics::default();
        detail.set("within_sigma_cells", within as f64, "count");
        detail.set("deadline_hits", f64::from(m.failed_runs), "count");
        detail.set("cells", m.cells as f64, "count");
        detail.set("virtual_s", m.virtual_secs, "s");
        Pass {
            wall_s,
            vsec: m.virtual_secs,
            cell_ms: m.per_cell.iter().map(|c| c.wall_secs * 1e3).collect(),
            ops: m.cells as u64,
            failed_ops: u64::from(m.failed_runs),
            failed_cells: m
                .per_cell
                .iter()
                .filter(|c| c.failed > 0)
                .map(|c| c.label.clone())
                .collect(),
            fingerprint: digest.finish(),
            detail,
        }
    }

    /// Seed-state values of the paper's matrix at the default seed.
    pub fn golden_within_sigma(&self, seed: u64) -> Option<u64> {
        (self.full && seed == DEFAULT_SEED).then_some(14)
    }

    /// The traced pass: every cell again, one phase call at a time,
    /// timed from outside. Returns the pass wall time.
    pub fn traced(&self, out: &mut Metrics) -> f64 {
        let (mut collect, mut live, mut distill, mut modulated, mut ether) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        // (benchmark, trial, host ms, virtual s) of each Ethernet and
        // modulated run.
        let mut eth_runs: Vec<(Benchmark, u32, f64)> = Vec::new();
        let mut mod_runs: Vec<(Benchmark, u32, f64, f64)> = Vec::new();
        let vsec = |r: &RunResult| {
            r.elapsed
                .unwrap_or_else(|| r.benchmark.deadline().as_secs_f64())
        };
        let t_pass = Instant::now();
        for c in &self.cells {
            match (c.kind, &c.scenario) {
                (Kind::Live, Some(sc)) => {
                    let t = Instant::now();
                    std::hint::black_box(live_run(sc, c.trial, c.benchmark, &self.cfg));
                    live += secs_since(t);
                }
                (Kind::Modulated, Some(sc)) => {
                    let t = Instant::now();
                    let trace = collect_trace(sc, c.trial, &self.cfg);
                    collect += secs_since(t);
                    let t = Instant::now();
                    let report = distill_with_report(&trace, &DistillConfig::default());
                    distill += secs_since(t);
                    let t = Instant::now();
                    let r = modulated_run(&report.replay, c.trial, c.benchmark, &self.cfg);
                    let secs = secs_since(t);
                    modulated += secs;
                    mod_runs.push((c.benchmark, c.trial, secs * 1e3, vsec(&r)));
                }
                _ => {
                    let t = Instant::now();
                    std::hint::black_box(ethernet_run(c.trial, c.benchmark, &self.cfg));
                    let secs = secs_since(t);
                    ether += secs;
                    eth_runs.push((c.benchmark, c.trial, secs * 1e3));
                }
            }
        }
        let wall = secs_since(t_pass);
        // The modulation shim's host cost: the host-ms a modulated run
        // takes beyond the bare-Ethernet run of the same benchmark and
        // trial (same bytes, same testbed), per virtual second of the
        // modulated run.
        let shim: Vec<f64> = mod_runs
            .iter()
            .filter_map(|&(b, t, m_ms, m_vsec)| {
                eth_runs
                    .iter()
                    .find(|&&(eb, et, _)| eb == b && et == t)
                    .map(|&(_, _, e_ms)| (m_ms - e_ms) / m_vsec)
            })
            .collect();
        out.set("emu.collect_ms", collect * 1e3, "ms");
        out.set("emu.live_run_ms", live * 1e3, "ms");
        out.set("distill.distill_ms", distill * 1e3, "ms");
        out.set("emu.modulated_run_ms", modulated * 1e3, "ms");
        out.set("emu.ethernet_run_ms", ether * 1e3, "ms");
        out.set(
            "modulate.shim_ms_per_vsec",
            shim.iter().sum::<f64>() / shim.len().max(1) as f64,
            "ms/vs",
        );
        out.set(
            "trace.attributed_ms",
            (collect + live + distill + modulated + ether) * 1e3,
            "ms",
        );
        wall
    }

    /// A channel model of one of the matrix's scenarios, cycling by
    /// client (the per-layer wavelan probe's model source).
    pub fn model(&self, client: u32, rng: &mut netsim::SimRng) -> Box<dyn wavelan::ChannelModel> {
        self.scenarios[client as usize % self.scenarios.len()].model(rng)
    }
}

/// p50 and p90 of a pass's per-cell wall times.
pub fn cell_quantiles(cell_ms: &[f64]) -> (f64, f64) {
    (percentile(cell_ms, 0.5), percentile(cell_ms, 0.9))
}
