//! Fleet shard-invariance and chaos-restart guarantees.
//!
//! The fleet engine's core promise is that sharding is an execution
//! detail: the merged per-client manifests and the aggregate report
//! are byte-identical whether the fleet runs under one engine or many,
//! on one worker or many. The proptest drives that across arbitrary
//! client counts and fleet seeds; the chaos test kills a shard worker
//! mid-run and checks the kill leaves no trace in the output beyond
//! its fault event. The pinned tests fix the exact bytes of every artifact, and
//! the kill points, of two small fleets, so a change to how a shard
//! schedules its work cannot move them.

use emu::{fleet_alerts, fleet_run, fleet_run_chaos, Exec, FleetOutcome, FleetPlan};
use faultkit::{Fault, FaultPlan};
use netsim::SimDuration;
use obs::{RuleSet, RunManifest, Severity, TelemetryConfig};
use proptest::prelude::*;
use wavelan::Scenario;

fn tiny_plan(clients: u32, seed: u64) -> FleetPlan {
    FleetPlan::new(Scenario::porter(), clients)
        .with_seed(seed)
        .with_duration(SimDuration::from_secs(4))
        .with_probe_interval(SimDuration::from_millis(500))
}

fn telemetry_plan(clients: u32, seed: u64) -> FleetPlan {
    tiny_plan(clients, seed).with_telemetry(TelemetryConfig::default())
}

fn manifest_bytes(out: &FleetOutcome) -> Vec<String> {
    out.manifests
        .iter()
        .map(RunManifest::deterministic_json)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serial single-shard output is the reference; 2 and 8 shards on
    /// a worker pool must reproduce it bitwise, for any fleet size and
    /// seed.
    #[test]
    fn sharding_never_changes_output(
        clients in 1u32..12,
        seed in 0u64..1_000_000,
    ) {
        let reference = fleet_run(&tiny_plan(clients, seed), &Exec::serial());
        prop_assert_eq!(reference.manifests.len(), clients as usize);
        for shards in [2usize, 8] {
            let sharded = fleet_run(
                &tiny_plan(clients, seed).with_shards(shards),
                &Exec::with_workers(4),
            );
            prop_assert_eq!(
                manifest_bytes(&reference),
                manifest_bytes(&sharded),
                "{} clients seed {} at {} shards diverged",
                clients, seed, shards
            );
            prop_assert_eq!(
                reference.report.deterministic_json(),
                sharded.report.deterministic_json()
            );
            prop_assert_eq!(
                reference.stations.total_frames(),
                sharded.stations.total_frames()
            );
        }
    }

    /// The telemetry plane carries the same shard-invariance contract
    /// as the manifests: the merged series, outlier trackers, and the
    /// full deterministic report are byte-identical at 1, 2, and 8
    /// shards — and JSONL / Prometheus exports match byte for byte.
    /// Rings shorter than the plan's 14 boundaries (4 s walk + 10 s
    /// grace) evict rows, and the eviction count must not depend on
    /// the shard layout either.
    #[test]
    fn telemetry_series_identical_across_shards(
        clients in 1u32..10,
        seed in 0u64..1_000_000,
        ring_capacity in 1usize..14,
    ) {
        let plan = |shards: usize| {
            tiny_plan(clients, seed)
                .with_shards(shards)
                .with_telemetry(TelemetryConfig::default().with_ring_capacity(ring_capacity))
        };
        let reference = fleet_run(&plan(1), &Exec::serial());
        let ref_tel = reference.report.telemetry.as_ref().expect("telemetry on");
        prop_assert!(!ref_tel.series.is_empty());
        for shards in [2usize, 8] {
            let sharded = fleet_run(&plan(shards), &Exec::with_workers(4));
            let tel = sharded.report.telemetry.as_ref().expect("telemetry on");
            prop_assert_eq!(
                ref_tel.to_jsonl(),
                tel.to_jsonl(),
                "{} clients seed {} at {} shards: series diverged",
                clients, seed, shards
            );
            prop_assert_eq!(ref_tel.to_prometheus(), tel.to_prometheus());
            prop_assert_eq!(
                reference.report.deterministic_json(),
                sharded.report.deterministic_json(),
                "deterministic report (incl. telemetry) diverged"
            );
        }
    }

    /// Turning telemetry on observes the fleet without perturbing it:
    /// per-client manifests are byte-identical either way.
    #[test]
    fn telemetry_never_perturbs_manifests(
        clients in 1u32..8,
        seed in 0u64..1_000_000,
    ) {
        let plain = fleet_run(&tiny_plan(clients, seed), &Exec::serial());
        let sampled = fleet_run(&telemetry_plan(clients, seed), &Exec::serial());
        prop_assert_eq!(manifest_bytes(&plain), manifest_bytes(&sampled));
    }

    /// The alert plane inherits shard invariance end to end: the
    /// builtin rules evaluated over serial and 2/8-shard runs of the
    /// same plan export byte-identical JSONL and markdown reports.
    #[test]
    fn alert_reports_identical_across_shards(
        clients in 1u32..10,
        seed in 0u64..1_000_000,
    ) {
        let rules = RuleSet::builtin();
        let reference = fleet_run(&telemetry_plan(clients, seed), &Exec::serial());
        let ref_alerts = fleet_alerts(&reference, &rules, None).expect("rules evaluate");
        for shards in [2usize, 8] {
            let sharded = fleet_run(
                &telemetry_plan(clients, seed).with_shards(shards),
                &Exec::with_workers(4),
            );
            let alerts = fleet_alerts(&sharded, &rules, None).expect("rules evaluate");
            prop_assert_eq!(
                ref_alerts.to_jsonl(),
                alerts.to_jsonl(),
                "{} clients seed {} at {} shards: alert JSONL diverged",
                clients, seed, shards
            );
            prop_assert_eq!(ref_alerts.render_markdown(), alerts.render_markdown());
        }
    }
}

/// A `kill_worker` fault against a fleet shard: the kill is noted and
/// the shard runs on clean, so every output byte matches the fault-free
/// run; the only difference is the fault ledger recording the kill.
#[test]
fn killed_shard_restarts_without_breaking_merge() {
    let plan = tiny_plan(6, 99).with_shards(3);
    let clean = fleet_run(&plan, &Exec::with_workers(2));

    // Kill shard 1 (cell index 1) after 40 engine events.
    let faults = FaultPlan::from(vec![Fault::KillWorker {
        idx: 1,
        at_record: 40,
    }]);
    let chaotic = fleet_run_chaos(&plan, &Exec::with_workers(2), 7, &faults);

    assert_eq!(chaotic.counters.worker_kills, 1, "the kill must fire");
    assert_eq!(chaotic.faults.len(), 1);
    assert_eq!(
        manifest_bytes(&clean),
        manifest_bytes(&chaotic),
        "restart must reproduce the uninterrupted shard bitwise"
    );
    assert_eq!(
        clean.report.deterministic_json(),
        chaotic.report.deterministic_json()
    );
}

/// Telemetry and a chaos kill compose: samples do not count as events,
/// so the kill lands at the same point and the killed run (telemetry
/// and all) matches the fault-free run bitwise.
#[test]
fn chaos_restart_preserves_telemetry_bytes() {
    let plan = telemetry_plan(6, 99).with_shards(3);
    let clean = fleet_run(&plan, &Exec::with_workers(2));

    let faults = FaultPlan::from(vec![Fault::KillWorker {
        idx: 1,
        at_record: 40,
    }]);
    let chaotic = fleet_run_chaos(&plan, &Exec::with_workers(2), 7, &faults);

    assert_eq!(chaotic.counters.worker_kills, 1, "the kill must fire");
    assert_eq!(
        clean.report.telemetry.as_ref().unwrap().to_jsonl(),
        chaotic.report.telemetry.as_ref().unwrap().to_jsonl()
    );
    assert_eq!(
        clean.report.deterministic_json(),
        chaotic.report.deterministic_json()
    );
}

/// Chaos-aware suppression end to end: the same rule that raises an
/// active alert on a clean run is suppressed — and attributed to the
/// injected fault — on a seeded `kill_worker` run, so the alert gate
/// passes instead of flagging a false positive.
#[test]
fn chaos_alerts_are_suppressed_and_attributed() {
    let rules = RuleSet::from_toml(
        "[[rule]]\n\
         name = \"engine-activity\"\n\
         metric = \"sample.events\"\n\
         severity = \"warn\"\n\
         above = 0\n\
         suppress = [\"kill_worker\"]\n\
         suppress_window_secs = 60.0\n",
    )
    .expect("rule parses");
    let plan = telemetry_plan(6, 99).with_shards(3);

    // Clean run: the rule fires on every boundary and stays active —
    // the gate must fail.
    let clean = fleet_run(&plan, &Exec::with_workers(2));
    let clean_alerts = fleet_alerts(&clean, &rules, None).expect("rules evaluate");
    assert!(
        clean_alerts.active().count() > 0,
        "rule must fire when clean"
    );
    assert!(!clean_alerts.check(Severity::Warn).is_empty());

    // Seeded kill at the shard's first record: same telemetry bytes
    // (a kill is only noted), but now a kill_worker
    // fault stamp precedes every sample boundary, so every alert is
    // suppressed and attributed — no false positives, and the gate
    // passes. (A later kill would split the run: boundaries before the
    // fault stay active, which is the designed prefix semantics.)
    let faults = FaultPlan::from(vec![Fault::KillWorker {
        idx: 1,
        at_record: 1,
    }]);
    let chaotic = fleet_run_chaos(&plan, &Exec::with_workers(2), 7, &faults);
    assert_eq!(chaotic.counters.worker_kills, 1, "the kill must fire");
    let chaos_alerts = fleet_alerts(&chaotic, &rules, None).expect("rules evaluate");
    assert_eq!(chaos_alerts.active().count(), 0, "all alerts suppressed");
    assert!(chaos_alerts.suppressed().count() > 0);
    for a in chaos_alerts.suppressed() {
        assert!(
            a.attributed_to.starts_with("kill_worker@"),
            "attribution names the fault: {:?}",
            a.attributed_to
        );
    }
    assert!(chaos_alerts.check(Severity::Warn).is_empty(), "gate passes");
}

/// A kill aimed past the shard's event count never fires, and a kill
/// aimed at an out-of-range cell index is ignored entirely.
#[test]
fn out_of_reach_kills_are_inert() {
    let plan = tiny_plan(4, 5).with_shards(2);
    let clean = fleet_run(&plan, &Exec::serial());

    let never = FaultPlan::from(vec![Fault::KillWorker {
        idx: 0,
        at_record: u64::MAX / 2,
    }]);
    let out = fleet_run_chaos(&plan, &Exec::serial(), 3, &never);
    assert_eq!(out.counters.worker_kills, 0);
    assert_eq!(manifest_bytes(&clean), manifest_bytes(&out));

    let wrong_cell = FaultPlan::from(vec![Fault::KillWorker {
        idx: 17,
        at_record: 10,
    }]);
    let out = fleet_run_chaos(&plan, &Exec::serial(), 3, &wrong_cell);
    assert_eq!(out.counters.worker_kills, 0);
    assert_eq!(manifest_bytes(&clean), manifest_bytes(&out));
}

/// FNV-1a over an artifact's bytes: the pinned tests below compare
/// digests rather than kilobytes of golden text.
fn fnv(bytes: &str) -> u64 {
    bytes.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Digests of every deterministic artifact a fleet run writes:
/// manifests (one JSON line each), the deterministic report, telemetry
/// JSONL and Prometheus text, and the alerts of two rules that fire on
/// every busy boundary (the built-in rules stay quiet on these fleets).
fn artifact_digests(out: &FleetOutcome) -> Vec<(&'static str, u64)> {
    let tel = out.report.telemetry.as_ref().expect("telemetry on");
    let rules = RuleSet::from_toml(
        "[[rule]]\n\
         name = \"engine-activity\"\n\
         metric = \"sample.events\"\n\
         severity = \"warn\"\n\
         above = 0\n\
         \n\
         [[rule]]\n\
         name = \"holding\"\n\
         metric = \"sample.mod_held\"\n\
         severity = \"info\"\n\
         above = 0\n",
    )
    .expect("rules parse");
    let alerts = fleet_alerts(out, &rules, None).expect("rules evaluate");
    vec![
        ("manifests", fnv(&manifest_bytes(out).join("\n"))),
        ("report", fnv(&out.report.deterministic_json())),
        ("telemetry.jsonl", fnv(&tel.to_jsonl())),
        ("telemetry.prom", fnv(&tel.to_prometheus())),
        ("alerts.jsonl", fnv(&alerts.to_jsonl())),
    ]
}

fn assert_digests(out: &FleetOutcome, pinned: &[(&str, u64)]) {
    let show = |digests: &[(&str, u64)]| -> Vec<String> {
        digests
            .iter()
            .map(|(name, d)| format!("{name} {d:#018x}"))
            .collect()
    };
    assert_eq!(
        show(&artifact_digests(out)),
        show(pinned),
        "artifact bytes moved"
    );
}

/// A 24-client Porter walk at 3 shards with a 4-row telemetry ring on
/// a 5 s interval: 10 boundaries over the 40 s walk plus the 10 s drain
/// grace, so the fleet evicts 6 rows and keeps two busy ones.
fn pinned_porter_plan() -> FleetPlan {
    FleetPlan::new(Scenario::porter(), 24)
        .with_seed(11)
        .with_duration(SimDuration::from_secs(40))
        .with_probe_interval(SimDuration::from_millis(500))
        .with_shards(3)
        .with_telemetry(
            TelemetryConfig::default()
                .with_interval_secs(5)
                .with_ring_capacity(4),
        )
}

const PORTER_DIGESTS: &[(&str, u64)] = &[
    ("manifests", 0xaae9_529a_45de_062f),
    ("report", 0xb4d0_a149_8b89_8d11),
    ("telemetry.jsonl", 0x8fb5_88fc_be0e_7d78),
    ("telemetry.prom", 0xc127_527b_b186_465f),
    ("alerts.jsonl", 0x5c34_f7d7_dc5f_89b8),
];

const LEO_DIGESTS: &[(&str, u64)] = &[
    ("manifests", 0xc84f_f1bf_84b8_dd78),
    ("report", 0xd5d0_e9f5_a28e_cc7a),
    ("telemetry.jsonl", 0x294e_cb54_4698_b954),
    ("telemetry.prom", 0x2ffe_707c_623f_288d),
    ("alerts.jsonl", 0x3336_5c3f_43fb_cacf),
];

/// Events shard 1 (clients 8..16) of [`pinned_porter_plan`] dispatches.
const PORTER_SHARD1_EVENTS: u64 = 2_293;

/// The fleet's output contract, pinned to exact bytes: how a shard
/// orders its work must never move an artifact.
#[test]
fn porter_fleet_artifacts_are_pinned() {
    let out = fleet_run(&pinned_porter_plan(), &Exec::with_workers(2));
    let tel = out.report.telemetry.as_ref().expect("telemetry on");
    assert_eq!(tel.evicted, 6, "10 boundaries − 4 kept, at any shard count");
    assert_digests(&out, PORTER_DIGESTS);
}

#[test]
fn leo_pack_fleet_artifacts_are_pinned() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../packs/leo.toml");
    let text = std::fs::read_to_string(path).expect("the LEO pack is committed");
    let pack = wavelan::load_pack(path, &text).expect("the LEO pack loads");
    let plan = FleetPlan::from_pack(pack, 12)
        .with_shards(2)
        .with_probe_interval(SimDuration::from_millis(500))
        .with_telemetry(TelemetryConfig::default());
    let out = fleet_run(&plan, &Exec::with_workers(2));
    assert_digests(&out, LEO_DIGESTS);
}

/// Kill points are pinned too: a `kill_worker(1, n)` fault stamps the
/// virtual time of shard 1's n-th event, fires only when the shard has
/// more than n events, and the killed run still writes the pinned
/// bytes.
#[test]
fn kill_points_are_pinned() {
    let plan = pinned_porter_plan();
    let stamp = |at_event: u64| {
        let faults = FaultPlan::from(vec![Fault::KillWorker {
            idx: 1,
            at_record: at_event,
        }]);
        let out = fleet_run_chaos(&plan, &Exec::with_workers(2), 7, &faults);
        assert_digests(&out, PORTER_DIGESTS);
        out.faults.first().map(|f| f.t_virtual_ns)
    };
    let stamps = [
        stamp(40),
        stamp(1),
        stamp(PORTER_SHARD1_EVENTS),
        stamp(PORTER_SHARD1_EVENTS - 1),
    ];
    // kill_worker(1, 40), (1, 1), (1, count) and (1, count − 1).
    assert_eq!(
        stamps,
        [
            Some(590_976_610),
            Some(13_451_532),
            None,
            Some(40_000_976_610)
        ]
    );
}
