//! The fidelity gate's verdicts at each of its bars, as one table.
//!
//! Per-run rows judge one run manifest (the `obs-report` and `chaos`
//! gate); fleet rows fold client manifests into a fleet report and
//! judge that (the `fleet` and `obs-report` gate). Both go through the
//! builtin rules, as every `--check` does. Each row sits just
//! inside or just outside one bar: delay-error p95, deadline-miss
//! rate, loss delta (with its minimum sample count), unmodulated
//! fraction, and the fleet's "no data" and failed-client cases.

use obs::{
    evaluate_alerts, AlertInputs, FidelityCollector, FidelityReport, FidelityThresholds,
    FleetReport, RuleSet, RunManifest, Severity,
};

/// What one row judges.
enum Input {
    /// One run.
    Run(Box<RunManifest>),
    /// A fleet of client runs, folded into its report.
    Fleet(Vec<RunManifest>),
}

/// `n` released packets at delay error `err_ms`, the first `missed`
/// of them past their deadline.
fn releases(n: u64, err_ms: f64, missed: u64) -> FidelityReport {
    let mut c = FidelityCollector::new();
    for i in 0..n {
        c.on_modulated(0.0);
        c.on_release(err_ms, i < missed);
    }
    c.report()
}

/// `n` modulated packets under tuples of loss probability `expected`,
/// `dropped` of them lost and the rest released on time.
fn loss(n: u64, expected: f64, dropped: u64) -> FidelityReport {
    let mut c = FidelityCollector::new();
    for i in 0..n {
        c.on_modulated(expected);
        if i < dropped {
            c.on_drop();
        } else {
            c.on_release(1.0, false);
        }
    }
    c.report()
}

/// `unmodulated` packets passed through before any tuple, then
/// `modulated` released on time.
fn unmodulated(unmodulated: u64, modulated: u64) -> FidelityReport {
    let mut c = FidelityCollector::new();
    for _ in 0..unmodulated {
        c.on_unmodulated();
    }
    for _ in 0..modulated {
        c.on_modulated(0.0);
        c.on_release(1.0, false);
    }
    c.report()
}

/// A clean run that then starved for long enough to degrade.
fn degraded_only() -> FidelityReport {
    let mut c = FidelityCollector::new();
    for _ in 0..300 {
        c.on_modulated(0.0);
        c.on_release(1.0, false);
    }
    c.on_starvation_hold();
    c.on_starvation_saturated();
    c.report()
}

fn manifest(trial: u32, fidelity: FidelityReport) -> RunManifest {
    let mut m = RunManifest::new("porter_walk", "table", trial);
    m.fidelity = fidelity;
    m
}

fn run(fidelity: FidelityReport) -> Input {
    Input::Run(Box::new(manifest(0, fidelity)))
}

fn fleet(clients: Vec<FidelityReport>) -> Input {
    Input::Fleet((0..).zip(clients).map(|(t, f)| manifest(t, f)).collect())
}

/// Every row: name, input, and whether the gate passes it.
fn table() -> Vec<(&'static str, Input, bool)> {
    let healthy = || releases(300, 1.0, 0);
    vec![
        ("run: p95 7.9 ms", run(releases(100, 7.9, 0)), true),
        ("run: p95 8.1 ms", run(releases(100, 8.1, 0)), false),
        ("run: miss rate 0.05", run(releases(1000, 1.0, 50)), true),
        ("run: miss rate 0.051", run(releases(1000, 1.0, 51)), false),
        (
            "run: loss delta +0.06 at 199",
            run(loss(199, 0.0, 12)),
            true,
        ),
        (
            "run: loss delta +0.06 at 200",
            run(loss(200, 0.0, 12)),
            false,
        ),
        (
            "run: loss delta -0.06 at 199",
            run(loss(199, 0.06, 0)),
            true,
        ),
        (
            "run: loss delta -0.06 at 200",
            run(loss(200, 0.06, 0)),
            false,
        ),
        ("run: unmodulated 0.9", run(unmodulated(9, 1)), true),
        ("run: unmodulated 0.91", run(unmodulated(91, 9)), false),
        ("run: degraded only", run(degraded_only()), true),
        ("fleet: healthy", fleet(vec![healthy(), healthy()]), true),
        ("fleet: empty", fleet(vec![]), false),
        (
            "fleet: zero released",
            fleet(vec![FidelityReport::empty(), FidelityReport::empty()]),
            false,
        ),
        (
            "fleet: one failed client",
            fleet(vec![healthy(), unmodulated(95, 5)]),
            false,
        ),
        (
            "fleet: worst p95 12 ms",
            fleet(vec![healthy(), releases(100, 12.0, 0)]),
            false,
        ),
        (
            "fleet: miss rate 0.05",
            fleet(vec![releases(1000, 1.0, 50)]),
            true,
        ),
        (
            "fleet: miss rate 0.06",
            fleet(vec![releases(1000, 1.0, 60)]),
            false,
        ),
    ]
}

/// The gate's verdict on one input: `true` = pass. The builtin rules
/// judge a run, or the report a fleet's clients fold into.
fn passes(input: &Input) -> bool {
    let report;
    let inputs = match input {
        Input::Run(m) => AlertInputs {
            run: Some(m.as_ref()),
            ..AlertInputs::default()
        },
        Input::Fleet(ms) => {
            report = FleetReport::from_manifests("table", ms, &FidelityThresholds::default());
            AlertInputs {
                report: Some(&report),
                ..AlertInputs::default()
            }
        }
    };
    let alerts = evaluate_alerts(&RuleSet::builtin(), &inputs).expect("builtin rules evaluate");
    alerts.check(Severity::Warn).is_empty()
}

#[test]
fn gate_verdicts_hold_at_every_bar() {
    let wrong: Vec<String> = table()
        .iter()
        .filter(|(_, input, want)| passes(input) != *want)
        .map(|(name, _, want)| format!("{name}: want {}", if *want { "pass" } else { "fail" }))
        .collect();
    assert!(wrong.is_empty(), "verdicts moved: {wrong:#?}");
}
