//! The paper's validation experiment (§5.1): for each benchmark on each
//! scenario, run N live trials and N collect→distill→modulate trials
//! (interleaved in the paper; independent seeds here), and compare the
//! means — "the difference between the means of real and modulated
//! elapsed times [should be] less than the sum of their standard
//! deviations".

use crate::plan::PlanResults;
use crate::workload::{Benchmark, RunResult};
use netsim::stats::Summary;
use workloads::Phase;

/// Real-vs-modulated comparison for one benchmark on one scenario.
#[derive(Debug)]
pub struct Comparison {
    /// Scenario name.
    pub scenario: String,
    /// Which benchmark.
    pub benchmark: Benchmark,
    /// Elapsed-time summary over live trials.
    pub real: Summary,
    /// Elapsed-time summary over modulated trials.
    pub modulated: Summary,
    /// Per-phase summaries (Andrew only): (phase, real, modulated).
    pub phases: Vec<(Phase, Summary, Summary)>,
    /// Raw per-trial results, live then modulated.
    pub real_runs: Vec<RunResult>,
    /// Raw modulated results.
    pub modulated_runs: Vec<RunResult>,
    /// Runs that hit their deadline without completing (excluded from
    /// the summaries, like a botched trial in the paper's Porter web
    /// row).
    pub failed_runs: u32,
}

impl Comparison {
    /// The paper's agreement criterion: |mean_real − mean_mod| ≤
    /// σ_real + σ_mod.
    pub fn within_one_sigma(&self) -> bool {
        let diff = (self.real.mean() - self.modulated.mean()).abs();
        diff <= self.real.stddev() + self.modulated.stddev()
    }

    /// Divergence in units of the summed standard deviations (the paper
    /// reports e.g. "off by 1.56 times the sum of the standard
    /// deviations").
    pub fn sigma_ratio(&self) -> f64 {
        let denom = self.real.stddev() + self.modulated.stddev();
        if denom == 0.0 {
            return 0.0;
        }
        (self.real.mean() - self.modulated.mean()).abs() / denom
    }
}

fn summarize_phases(runs: &[RunResult]) -> Vec<(Phase, Summary)> {
    Phase::ALL
        .iter()
        .map(|&p| {
            let mut s = Summary::new();
            for r in runs {
                if let Some(&(_, secs)) = r.phases.iter().find(|&&(ph, _)| ph == p) {
                    s.add(secs);
                }
            }
            (p, s)
        })
        .collect()
}

/// Assemble the [`Comparison`] for (scenario, benchmark) from an
/// executed plan's outputs. Runs are consumed in plan order, so the
/// summaries accumulate in exactly the order the serial loop would
/// produce them.
pub fn comparison_from_plan(
    results: &PlanResults,
    scenario: &str,
    benchmark: Benchmark,
) -> Comparison {
    let real_runs: Vec<RunResult> = results
        .live_runs(scenario, benchmark)
        .into_iter()
        .cloned()
        .collect();
    let modulated_runs: Vec<RunResult> = results
        .modulated_runs(scenario, benchmark)
        .into_iter()
        .cloned()
        .collect();
    let mut failed_runs = 0;
    let mut real = Summary::new();
    for r in &real_runs {
        match r.elapsed {
            Some(secs) => real.add(secs),
            None => failed_runs += 1,
        }
    }
    let mut modulated = Summary::new();
    for r in &modulated_runs {
        match r.elapsed {
            Some(secs) => modulated.add(secs),
            None => failed_runs += 1,
        }
    }
    let phases = if benchmark == Benchmark::Andrew {
        let rp = summarize_phases(&real_runs);
        let mp = summarize_phases(&modulated_runs);
        rp.into_iter()
            .zip(mp)
            .map(|((p, r), (_, m))| (p, r, m))
            .collect()
    } else {
        Vec::new()
    };
    Comparison {
        scenario: scenario.to_string(),
        benchmark,
        real,
        modulated,
        phases,
        real_runs,
        modulated_runs,
        failed_runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Exec, TrialPlan};
    use crate::runs::RunConfig;
    use netsim::SimDuration;
    use wavelan::Scenario;

    /// A fast end-to-end smoke of the whole methodology: shortened
    /// scenario, one trial, FTP send with a smaller file would need a
    /// different install path — use Web with a trimmed trace instead?
    /// Keep it simple: run one comparison trial of FTP on a shortened
    /// Wean and assert both sides produce plausible times.
    #[test]
    fn closed_loop_comparison_runs() {
        let mut sc = Scenario::chatterbox();
        sc.duration = SimDuration::from_secs(40);
        let mut plan = TrialPlan::new();
        plan.push_comparison(&sc, Benchmark::FtpRecv, 1, &RunConfig::default());
        let results = plan.run(&Exec::serial());
        let c = comparison_from_plan(&results, sc.name, Benchmark::FtpRecv);
        let real = c.real.mean();
        let modulated = c.modulated.mean();
        // 10 MB over a ~1 Mb/s contended channel: both sides should land
        // in the tens of seconds, same order of magnitude.
        assert!(real > 30.0, "real {real}");
        assert!(modulated > 30.0, "modulated {modulated}");
        let ratio = real.max(modulated) / real.min(modulated);
        assert!(ratio < 2.5, "real {real} vs modulated {modulated}");
    }

    #[test]
    fn sigma_criterion_math() {
        let mut c = Comparison {
            scenario: "s".into(),
            benchmark: Benchmark::Web,
            real: Summary::of(&[100.0, 102.0, 98.0, 104.0]),
            modulated: Summary::of(&[101.0, 99.0, 103.0, 97.0]),
            phases: Vec::new(),
            real_runs: Vec::new(),
            modulated_runs: Vec::new(),
            failed_runs: 0,
        };
        assert!(c.within_one_sigma());
        assert!(c.sigma_ratio() < 1.0);
        c.modulated = Summary::of(&[120.0, 121.0, 119.0, 120.0]);
        assert!(!c.within_one_sigma());
        assert!(c.sigma_ratio() > 1.0);
    }
}
