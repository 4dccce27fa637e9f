//! Golden-bytes test for the fleet telemetry and alert exports: the
//! exact `telemetry.jsonl`, `telemetry.prom` and markdown section of a
//! fixed two-shard fixture, the built-in rules' `alerts.jsonl` and
//! `alerts.md` over it, and the selector errors of `compile`.
//!
//! The fixture covers every export path: rows differenced from two
//! shards' summed cumulative readings, an evicted row, a boundary with
//! zero releases (mean delay error 0), worst-client and hot-station
//! entries with rank ties, and alerts that fire active, suppressed and
//! split at a suppression boundary.
//!
//! If an export changes on purpose, regenerate the files with
//! `REGEN_GOLDEN=1 cargo test -p obs --test telemetry_golden` (run it
//! twice: once to rewrite, once to check against the rewritten files).

use obs::{
    evaluate_alerts, AlertInputs, FaultEvent, FidelityThresholds, FleetReport, FleetTelemetry,
    RuleSet, SamplePoint, TelemetryConfig,
};

/// One cumulative shard reading at boundary `t_ns`, in `SamplePoint`
/// field order: events, queue_depth, packets_live, mod_held,
/// probes_sent, rtts_completed, packets_lost, released,
/// abs_delay_error_ns, station_frames, degraded_clients.
fn reading(t_ns: u64, v: [u64; 11]) -> SamplePoint {
    SamplePoint {
        t_ns,
        events: v[0],
        queue_depth: v[1],
        packets_live: v[2],
        mod_held: v[3],
        probes_sent: v[4],
        rtts_completed: v[5],
        packets_lost: v[6],
        released: v[7],
        abs_delay_error_ns: v[8],
        station_frames: v[9],
        degraded_clients: v[10],
    }
}

const MS: u64 = 1_000_000;

/// Shard A's readings at boundaries 1..=7 s. Nothing is released in
/// (2 s, 3 s] on either shard.
const SHARD_A: [[u64; 11]; 7] = [
    [120, 4, 2, 1, 10, 8, 0, 12, 24 * MS, 40, 0],
    [260, 6, 3, 0, 20, 18, 1, 25, 60 * MS, 80, 0],
    [390, 5, 3, 2, 30, 27, 1, 25, 60 * MS, 120, 1],
    [555, 9, 5, 3, 40, 36, 2, 40, 300 * MS, 160, 1],
    [700, 12, 4, 1, 50, 44, 3, 52, 480 * MS, 200, 1],
    [810, 7, 2, 0, 60, 55, 3, 66, 530 * MS, 240, 0],
    [1000, 3, 1, 0, 60, 59, 3, 70, 540 * MS, 250, 0],
];

/// Shard B's readings at the same boundaries.
const SHARD_B: [[u64; 11]; 7] = [
    [80, 2, 1, 0, 6, 5, 1, 7, 7 * MS, 20, 0],
    [200, 3, 2, 1, 12, 11, 1, 14, 21 * MS, 40, 1],
    [310, 4, 2, 1, 18, 17, 1, 14, 21 * MS, 60, 1],
    [420, 4, 3, 2, 24, 22, 2, 21, 150 * MS, 80, 2],
    [600, 6, 3, 0, 30, 28, 2, 30, 260 * MS, 100, 1],
    [700, 5, 1, 1, 36, 34, 2, 38, 300 * MS, 120, 0],
    [760, 1, 0, 0, 36, 36, 2, 41, 303 * MS, 125, 0],
];

/// Two shards' readings on a 1 s interval, summed boundary by boundary
/// and kept in six rows (seven boundaries, so the first row is
/// evicted), with hot stations from a merged station table.
fn fixture() -> FleetTelemetry {
    let cfg = TelemetryConfig {
        top_k: 3,
        ..TelemetryConfig::default()
    }
    .with_interval_secs(1)
    .with_ring_capacity(6);
    let readings: Vec<SamplePoint> = SHARD_A
        .iter()
        .zip(&SHARD_B)
        .zip(1u64..)
        .map(|((a, b), k)| {
            let mut sum = reading(k * 1_000_000_000, *a);
            sum.absorb(&reading(k * 1_000_000_000, *b));
            sum
        })
        .collect();
    FleetTelemetry::from_readings(
        &cfg,
        7,
        &readings,
        [(3, 18_250), (1, 9_000), (7, 18_250), (5, 41_003)],
        [(0, 310), (1, 65), (2, 0), (3, 310)],
    )
}

/// The fleet report the aggregate rules read: two fleet rules breach,
/// one of them under a matching fault.
fn report(tel: &FleetTelemetry) -> FleetReport {
    let mut rep = FleetReport::from_manifests("golden", &[], &FidelityThresholds::default());
    rep.clients = 2;
    rep.deadline_miss_rate = 0.2;
    rep.worst_abs_delay_error_p95_ms = 25.5;
    rep.failed_clients = 1;
    rep.telemetry = Some(tel.clone());
    rep
}

fn faults() -> Vec<FaultEvent> {
    vec![
        FaultEvent {
            t_virtual_ns: 3_500_000_000,
            fault: "kill_worker".into(),
            info: "shard 1 at event 40".into(),
        },
        FaultEvent {
            t_virtual_ns: 4_000_000_000,
            fault: "oom_ring".into(),
            info: "cap 128".into(),
        },
    ]
}

/// Compare `actual` with the golden file `name`, rewriting the file
/// instead when `REGEN_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, actual).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path).expect("golden file exists");
    assert_eq!(
        actual, golden,
        "{name} changed; if intentional, regenerate with REGEN_GOLDEN=1"
    );
}

#[test]
fn telemetry_exports_match_golden_bytes() {
    let tel = fixture();
    assert_eq!(tel.evicted, 1, "seven boundaries, six rows kept");
    check_golden("telemetry.jsonl", &tel.to_jsonl());
    check_golden("telemetry.prom", &tel.to_prometheus());
    check_golden("telemetry.md", &tel.render_markdown_section());
    // The merged telemetry rides in the fleet report's JSON.
    let json = serde_json::to_string(&tel).unwrap();
    let back: FleetTelemetry = serde_json::from_str(&json).unwrap();
    assert_eq!(back, tel);
}

#[test]
fn builtin_alert_exports_match_golden_bytes() {
    let tel = fixture();
    let rep = report(&tel);
    let faults = faults();
    let alerts = evaluate_alerts(
        &RuleSet::builtin(),
        &AlertInputs {
            series: &tel.series,
            report: Some(&rep),
            faults: &faults,
            ..AlertInputs::default()
        },
    )
    .unwrap();
    check_golden("alerts.jsonl", &alerts.to_jsonl());
    check_golden("alerts.md", &alerts.render_markdown());
}

#[test]
fn unknown_selectors_name_the_field() {
    let compile_err = |metric: &str| {
        RuleSet::from_toml(&format!(
            "[[rule]]\nname = \"x\"\nmetric = \"{metric}\"\nabove = 1\n"
        ))
        .unwrap()
        .compile()
        .unwrap_err()
    };
    assert_eq!(
        compile_err("sample.nope"),
        "rule 'x': unknown sample field 'nope'"
    );
    assert_eq!(
        compile_err("fleet.nope"),
        "rule 'x': unknown fleet field 'nope' (try: clients, modulated_packets, \
         released_packets, dropped_packets, deadline_misses, deadline_miss_rate, \
         mean_abs_delay_error_p95_ms, worst_abs_delay_error_p95_ms, failed_clients, \
         degraded_clients)"
    );
}
