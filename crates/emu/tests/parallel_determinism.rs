//! The planner's core guarantee: the parallel execution of a validation
//! matrix produces output **bit-identical** to the serial path at any
//! worker count — same means, same standard deviations, same per-phase
//! summaries, same failed-run counts, same raw per-trial results.

use distill::DistillConfig;
use emu::{
    comparison_from_plan, Benchmark, CellKind, Comparison, Exec, RunConfig, TrialCell, TrialPlan,
};
use faultkit::FaultPlan;
use netsim::stats::Summary;
use netsim::SimDuration;
use wavelan::Scenario;

/// The real-vs-modulated comparison of `trials` trials, run on `exec`.
fn compare(
    sc: &Scenario,
    benchmark: Benchmark,
    trials: u32,
    cfg: &RunConfig,
    exec: &Exec,
) -> Comparison {
    let mut plan = TrialPlan::new();
    plan.push_comparison(sc, benchmark, trials, cfg);
    comparison_from_plan(&plan.run(exec), sc.name, benchmark)
}

fn exact_eq(a: &Summary, b: &Summary, what: &str) {
    assert_eq!(a.count(), b.count(), "{what}: count");
    assert_eq!(a.mean().to_bits(), b.mean().to_bits(), "{what}: mean");
    assert_eq!(a.stddev().to_bits(), b.stddev().to_bits(), "{what}: stddev");
    if a.count() > 0 {
        assert_eq!(a.min().to_bits(), b.min().to_bits(), "{what}: min");
        assert_eq!(a.max().to_bits(), b.max().to_bits(), "{what}: max");
    }
}

fn assert_identical(serial: &Comparison, parallel: &Comparison, workers: usize) {
    let tag = format!("{} workers", workers);
    assert_eq!(serial.scenario, parallel.scenario, "{tag}: scenario");
    assert_eq!(serial.benchmark, parallel.benchmark, "{tag}: benchmark");
    assert_eq!(serial.failed_runs, parallel.failed_runs, "{tag}: failed");
    exact_eq(&serial.real, &parallel.real, &format!("{tag}: real"));
    exact_eq(
        &serial.modulated,
        &parallel.modulated,
        &format!("{tag}: modulated"),
    );
    assert_eq!(
        serial.phases.len(),
        parallel.phases.len(),
        "{tag}: phase count"
    );
    for ((ps, rs, ms), (pp, rp, mp)) in serial.phases.iter().zip(&parallel.phases) {
        assert_eq!(ps, pp, "{tag}: phase order");
        exact_eq(rs, rp, &format!("{tag}: phase {ps:?} real"));
        exact_eq(ms, mp, &format!("{tag}: phase {ps:?} modulated"));
    }
    // Raw per-trial results must match run for run, in trial order.
    for (which, s_runs, p_runs) in [
        ("real", &serial.real_runs, &parallel.real_runs),
        (
            "modulated",
            &serial.modulated_runs,
            &parallel.modulated_runs,
        ),
    ] {
        assert_eq!(s_runs.len(), p_runs.len(), "{tag}: {which} run count");
        for (i, (s, p)) in s_runs
            .iter()
            .zip(p_runs)
            .collect::<Vec<_>>()
            .into_iter()
            .enumerate()
        {
            assert_eq!(
                s.elapsed.map(f64::to_bits),
                p.elapsed.map(f64::to_bits),
                "{tag}: {which} run {i} elapsed"
            );
            assert_eq!(
                s.phases.len(),
                p.phases.len(),
                "{tag}: {which} run {i} phases"
            );
            for ((sp, ss), (pp, ps)) in s.phases.iter().zip(&p.phases) {
                assert_eq!(sp, pp, "{tag}: {which} run {i} phase order");
                assert_eq!(
                    ss.to_bits(),
                    ps.to_bits(),
                    "{tag}: {which} run {i} phase secs"
                );
            }
        }
    }
}

#[test]
fn parallel_comparison_identical_to_serial_at_any_worker_count() {
    // Short stationary scenario so three full comparisons stay fast;
    // two trials exercises multi-cell reassembly.
    let mut sc = Scenario::chatterbox();
    sc.duration = SimDuration::from_secs(30);
    let cfg = RunConfig::default();
    let trials = 2;

    let serial = compare(&sc, Benchmark::Web, trials, &cfg, &Exec::serial());
    assert!(serial.real.count() > 0, "serial baseline must produce runs");

    for workers in [1, 2, 8] {
        let parallel = compare(
            &sc,
            Benchmark::Web,
            trials,
            &cfg,
            &Exec::with_workers(workers),
        );
        assert_identical(&serial, &parallel, workers);
    }
}

/// The observability manifest obeys the same guarantee: every metric
/// under `metrics`/`fidelity` is keyed to virtual time, so the
/// deterministic form (wall-clock `runner` section stripped) must be
/// **byte-identical** whether the plan runs serially or on 8 workers.
#[test]
fn obs_manifest_identical_at_any_worker_count() {
    let mut sc = Scenario::chatterbox();
    sc.duration = SimDuration::from_secs(30);
    let trials = 2u32;

    let plan = || {
        let mut p = TrialPlan::new();
        for trial in 1..=trials {
            p.push(TrialCell {
                label: format!("obs-{trial}"),
                trial,
                cfg: RunConfig::default(),
                kind: CellKind::LiveModulated {
                    scenario: sc.clone(),
                    benchmark: Benchmark::Web,
                    distill: DistillConfig::default(),
                    seed: 0,
                    plan: FaultPlan::new(),
                },
            });
        }
        p
    };

    let serial: Vec<String> = plan()
        .run(&Exec::serial())
        .live_modulated(sc.name, Benchmark::Web)
        .iter()
        .map(|o| o.manifest.deterministic_json())
        .collect();
    assert_eq!(serial.len(), trials as usize);
    for m in &serial {
        assert!(
            m.contains("modulate.offered"),
            "manifest must carry pipeline metrics"
        );
    }

    for workers in [2, 8] {
        let parallel: Vec<String> = plan()
            .run(&Exec::with_workers(workers))
            .live_modulated(sc.name, Benchmark::Web)
            .iter()
            .map(|o| o.manifest.deterministic_json())
            .collect();
        assert_eq!(
            serial, parallel,
            "{workers} workers: manifest bytes diverged from serial"
        );
    }
}

/// The flight recorder inherits the determinism guarantee: its
/// Perfetto/Chrome-trace export derives from virtual time only, so the
/// bytes must be identical at 1, 2, and 8 workers — and the recording
/// must resolve at least one packet's journey across all five pipeline
/// stages (the acceptance bar for causal packet tracing).
#[test]
fn flight_recorder_export_identical_at_any_worker_count() {
    let mut sc = Scenario::chatterbox();
    sc.duration = SimDuration::from_secs(45);

    let plan = || {
        let mut p = TrialPlan::new();
        p.push(TrialCell {
            label: "flight-1".to_string(),
            trial: 1,
            cfg: RunConfig::default(),
            kind: CellKind::LiveModulated {
                scenario: sc.clone(),
                benchmark: Benchmark::Web,
                distill: DistillConfig::default(),
                seed: 0,
                plan: FaultPlan::new(),
            },
        });
        p
    };

    let export = |workers: Option<usize>| -> Vec<String> {
        let exec = match workers {
            None => Exec::serial(),
            Some(n) => Exec::with_workers(n),
        };
        plan()
            .run(&exec)
            .live_modulated(sc.name, Benchmark::Web)
            .iter()
            .map(|o| o.flight.to_chrome_trace())
            .collect()
    };

    let serial = export(None);
    assert_eq!(serial.len(), 1);
    assert!(
        serial[0].contains("\"traceEvents\":["),
        "export must be a Chrome trace"
    );
    for workers in [1, 2, 8] {
        let parallel = export(Some(workers));
        assert_eq!(
            serial, parallel,
            "{workers} workers: flight export bytes diverged from serial"
        );
    }

    // The same recording answers the causal query: some packet's
    // journey covers every stage (counting the modulation decisions
    // its distilled tuple fed).
    let outcomes = plan().run(&Exec::serial());
    let outcomes = outcomes.live_modulated(sc.name, Benchmark::Web);
    outcomes[0].flight.with(|r| {
        let id = r.best_packet().expect("packets were recorded");
        let journey = r.journey(id).expect("best packet has a journey");
        let stages: Vec<&str> = journey.stages().iter().map(|s| s.label()).collect();
        assert_eq!(
            stages,
            ["netsim", "wavelan", "collect", "distill", "modulate"],
            "journey for packet {id} must span the whole pipeline"
        );
    });
}

#[test]
fn parallel_andrew_phases_identical() {
    // Andrew exercises the per-phase summary path.
    let mut sc = Scenario::chatterbox();
    sc.duration = SimDuration::from_secs(30);
    let cfg = RunConfig::default();

    let serial = compare(&sc, Benchmark::Andrew, 1, &cfg, &Exec::serial());
    assert!(!serial.phases.is_empty(), "Andrew must report phases");
    for workers in [2, 8] {
        let parallel = compare(
            &sc,
            Benchmark::Andrew,
            1,
            &cfg,
            &Exec::with_workers(workers),
        );
        assert_identical(&serial, &parallel, workers);
    }
}
