//! Chaos property tests: the full streaming pipeline under *arbitrary*
//! fault plans.
//!
//! Three guarantees are pinned here:
//!
//! 1. **No plan can break the pipeline** — for any generated
//!    `(seed, plan)` the Porter-walk chaos run returns (never panics,
//!    never hangs) and its fault ledger balances: the manifest's
//!    `fault.injected_total` equals the injector's tally equals the
//!    number of emitted fault events, and every per-type counter equals
//!    the number of events of that type. The log is in virtual-time
//!    order, a worker kill included.
//! 2. **Chaos runs are exactly as reproducible as clean ones** — the
//!    same `(seed, plan)` executed twice, serially or on 1/2/8 workers,
//!    yields byte-identical deterministic manifests and byte-identical
//!    fault-event logs.
//! 3. **The empty plan is the clean run** — a run that injects
//!    nothing reproduces the clean pipeline's pinned flight-recorder
//!    export, benchmark time and manifest, whose `fault.*` counter
//!    block is all zero.

use distill::DistillConfig;
use emu::{
    live_modulated_run, Benchmark, CellKind, Exec, LiveModOutcome, RunConfig, TrialCell, TrialPlan,
};
use faultkit::{Fault, FaultEvent, FaultPlan};
use netsim::SimDuration;
use proptest::collection;
use proptest::prelude::*;
use std::collections::BTreeMap;
use wavelan::Scenario;

/// A short Porter walk: long enough for collection, distillation and
/// modulation to all engage, short enough that a property test can
/// afford dozens of full pipeline runs.
fn porter(secs: u64) -> Scenario {
    let mut sc = Scenario::porter();
    sc.duration = SimDuration::from_secs(secs);
    sc
}

fn arb_fault() -> impl Strategy<Value = Fault> {
    prop_oneof![
        (0u64..200_000).prop_map(|at_byte| Fault::CorruptChunk { at_byte }),
        (0.0f64..100.0).prop_map(|pct| Fault::TruncateTrace { pct }),
        (0u64..40, 0u64..40).prop_map(|(start, n)| Fault::DropTuples {
            start,
            end: start + n,
        }),
        (0u64..60_000).prop_map(|virtual_ms| Fault::StallFeed { virtual_ms }),
        (-4_000_000i64..4_000_000).prop_map(|delta_ms| Fault::ClockJump { delta_ms }),
        (0usize..2, 1u64..3_000).prop_map(|(idx, at_record)| Fault::KillWorker { idx, at_record }),
        (0usize..4096).prop_map(|cap| Fault::OomRing { cap }),
    ]
}

fn run_chaos(seed: u64, plan: &FaultPlan, cell_index: usize) -> LiveModOutcome {
    live_modulated_run(
        &porter(30),
        1,
        Benchmark::Web,
        &DistillConfig::default(),
        &RunConfig::default(),
        seed,
        plan,
        cell_index,
    )
}

fn events_jsonl(events: &[FaultEvent]) -> String {
    events
        .iter()
        .map(|e| serde_json::to_string(e).expect("fault event serializes"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Whether `events` are non-decreasing in virtual time.
fn in_time_order(events: &[FaultEvent]) -> bool {
    events
        .windows(2)
        .all(|w| w[0].t_virtual_ns <= w[1].t_virtual_ns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant 1: any plan terminates with a balanced fault ledger.
    #[test]
    fn arbitrary_plans_never_panic_and_account_every_fault(
        faults in collection::vec(arb_fault(), 0..8),
        seed in 0u64..1_000_000,
    ) {
        let plan = FaultPlan::from(faults.clone());
        let out = run_chaos(seed, &plan, 0);

        // injected_total == number of emitted events, always.
        let total = out.counters.injected_total();
        prop_assert_eq!(total, out.faults.len() as u64);

        // The manifest carries the same tally.
        let manifest = &out.manifest;
        prop_assert_eq!(manifest.metrics.counter("fault.injected_total"), Some(total));

        // Every per-type counter equals the number of events of that
        // type — no fault is double-counted or silently dropped.
        let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
        for ev in &out.faults {
            *by_name.entry(ev.fault.as_str()).or_insert(0) += 1;
        }
        let expect = |name: &str| by_name.get(name).copied().unwrap_or(0);
        prop_assert_eq!(out.counters.corrupt_chunks, expect("corrupt_chunk"));
        prop_assert_eq!(out.counters.truncations, expect("truncate_trace"));
        prop_assert_eq!(out.counters.dropped_tuples, expect("drop_tuples"));
        prop_assert_eq!(out.counters.stalls, expect("stall_feed"));
        prop_assert_eq!(out.counters.clock_jumps, expect("clock_jump"));
        prop_assert_eq!(out.counters.worker_kills, expect("kill_worker"));
        prop_assert_eq!(out.counters.oom_rings, expect("oom_ring"));

        // The log is in virtual-time order.
        prop_assert!(in_time_order(&out.faults), "{:?}", out.faults);
    }

    /// Invariant 2, propertyized: rerunning the same `(seed, plan)`
    /// standalone reproduces manifest and fault log byte for byte.
    #[test]
    fn rerun_is_bitwise_identical(
        faults in collection::vec(arb_fault(), 0..6),
        seed in 0u64..1_000_000,
    ) {
        let plan = FaultPlan::from(faults.clone());
        let a = run_chaos(seed, &plan, 0);
        let b = run_chaos(seed, &plan, 0);
        prop_assert_eq!(a.manifest.deterministic_json(), b.manifest.deterministic_json());
        prop_assert_eq!(events_jsonl(&a.faults), events_jsonl(&b.faults));
    }
}

/// Invariant 2 at scale: a three-cell chaos plan with every fault type
/// (including a worker kill targeting cell 0) executed serially, on
/// 1, 2 and 8 workers, and then all over again — six executions, one
/// byte pattern.
#[test]
fn chaos_plan_identical_at_1_2_8_workers_and_across_reruns() {
    let sc = porter(30);
    let fault_plan = FaultPlan::from(vec![
        Fault::CorruptChunk { at_byte: 2_048 },
        Fault::TruncateTrace { pct: 10.0 },
        Fault::DropTuples { start: 3, end: 6 },
        Fault::StallFeed { virtual_ms: 15_000 },
        Fault::ClockJump { delta_ms: 400 },
        Fault::KillWorker {
            idx: 0,
            at_record: 200,
        },
        Fault::OomRing { cap: 128 },
    ]);

    let build = || {
        let mut p = TrialPlan::new();
        for trial in 1..=3u32 {
            p.push(TrialCell {
                label: format!("chaos-{trial}"),
                trial,
                cfg: RunConfig::default(),
                kind: CellKind::LiveModulated {
                    scenario: sc.clone(),
                    benchmark: Benchmark::Web,
                    distill: DistillConfig::default(),
                    seed: 42,
                    plan: fault_plan.clone(),
                },
            });
        }
        p
    };

    let snapshot = |exec: &Exec| -> Vec<(String, String)> {
        build()
            .run(exec)
            .live_modulated(sc.name, Benchmark::Web)
            .iter()
            .map(|o| (o.manifest.deterministic_json(), events_jsonl(&o.faults)))
            .collect()
    };

    let baseline = snapshot(&Exec::serial());
    assert_eq!(baseline.len(), 3, "three chaos cells must report");
    assert!(
        baseline
            .iter()
            .any(|(m, _)| m.contains("\"fault.worker_kills\":1")),
        "the kill must land in exactly the targeted cell's manifest"
    );

    for workers in [1, 2, 8] {
        assert_eq!(
            snapshot(&Exec::with_workers(workers)),
            baseline,
            "{workers} workers: chaos output diverged from serial"
        );
    }
    assert_eq!(
        snapshot(&Exec::serial()),
        baseline,
        "serial rerun diverged from itself"
    );
}

/// FNV-1a over an artifact's bytes: the pins below compare digests
/// rather than megabytes of golden text.
fn fnv(bytes: &str) -> u64 {
    bytes.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Invariant 3: the empty plan is the clean pipeline — nothing is
/// injected, and the run reproduces the clean pipeline's pinned
/// flight-recorder export, benchmark time and manifest (whose `fault.*`
/// block is all zero).
#[test]
fn empty_plan_chaos_run_matches_the_clean_pipeline() {
    let mut chatterbox = Scenario::chatterbox();
    chatterbox.duration = SimDuration::from_secs(45);
    let cells = [
        (
            porter(30),
            Benchmark::Web,
            0xdaf0_f312_e0bc_10d8,
            None,
            0x4d81_f7cc_1c57_24aa,
        ),
        (
            chatterbox,
            Benchmark::FtpRecv,
            0x04fc_9c2a_8853_c028,
            Some(4_625_858_386_862_380_882),
            0xc59e_c609_229e_5ddd,
        ),
    ];
    let dcfg = DistillConfig::default();
    let cfg = RunConfig::default();

    for (sc, benchmark, flight_pin, elapsed_pin, manifest_pin) in cells {
        let out = live_modulated_run(&sc, 1, benchmark, &dcfg, &cfg, 7, &FaultPlan::new(), 0);
        assert_eq!(out.counters.injected_total(), 0);
        assert!(out.faults.is_empty());

        let name = sc.name;
        let flight = fnv(&out.flight.to_chrome_trace());
        let elapsed = out.result.elapsed.map(f64::to_bits);
        let manifest = fnv(&out.manifest.deterministic_json());
        assert_eq!(flight, flight_pin, "{name}: flight-recorder export digest");
        assert_eq!(elapsed, elapsed_pin, "{name}: benchmark time bits");
        assert_eq!(manifest, manifest_pin, "{name}: manifest digest");
    }
}

/// Virtual time the pinned live kill lands at.
const LIVE_KILL_NS: u64 = 19_500_000_000;

/// A live kill is pinned: `kill_worker(0, 300)` beside `oom_ring(512)`
/// lands at a fixed virtual time and books one kill; the manifest, the
/// benchmark time and every other fault event equal the same plan's
/// without the kill.
#[test]
fn live_kill_is_pinned_and_changes_nothing_else() {
    let ring = Fault::OomRing { cap: 512 };
    let kill = Fault::KillWorker {
        idx: 0,
        at_record: 300,
    };
    let killed = run_chaos(7, &FaultPlan::from(vec![ring.clone(), kill]), 0);
    let unkilled = run_chaos(7, &FaultPlan::from(vec![ring]), 0);

    assert_eq!(killed.counters.worker_kills, 1, "the kill must fire");
    let kill_event = FaultEvent {
        t_virtual_ns: LIVE_KILL_NS,
        fault: "kill_worker".into(),
        info: "cell 0 killed after record 300; cell restarted".into(),
    };

    // The same events as a multiset: the kill's place in the log is
    // pinned by the ordering property, not here.
    let sorted = |mut events: Vec<FaultEvent>| {
        events.sort_by(|a, b| {
            (a.t_virtual_ns, &a.fault, &a.info).cmp(&(b.t_virtual_ns, &b.fault, &b.info))
        });
        events
    };
    let mut expected = unkilled.faults.clone();
    expected.push(kill_event);
    assert_eq!(sorted(killed.faults.clone()), sorted(expected));

    // Everything but the two kill-bearing tallies is untouched.
    let mut manifest = killed.manifest.clone();
    for name in ["fault.worker_kills", "fault.injected_total"] {
        let v = unkilled
            .manifest
            .metrics
            .counter(name)
            .expect("fault tally");
        manifest.metrics.set_counter(name, v);
    }
    assert_eq!(
        manifest.deterministic_json(),
        unkilled.manifest.deterministic_json()
    );
    assert_eq!(
        killed.result.elapsed.map(f64::to_bits),
        unkilled.result.elapsed.map(f64::to_bits)
    );
}

/// The pinned kill's log is in virtual-time order: the kill at 19.5 s
/// comes after the `oom_ring` installed at 0 s.
#[test]
fn a_live_kill_is_logged_at_its_virtual_time() {
    let plan = FaultPlan::from(vec![
        Fault::OomRing { cap: 512 },
        Fault::KillWorker {
            idx: 0,
            at_record: 300,
        },
    ]);
    let out = run_chaos(7, &plan, 0);
    let names: Vec<&str> = out.faults.iter().map(|e| e.fault.as_str()).collect();
    assert_eq!(names, ["oom_ring", "kill_worker"]);
    assert!(in_time_order(&out.faults), "{:?}", out.faults);
}
