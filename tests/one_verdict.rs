//! `obs-report --check` and `alerts --rules builtin --check` are one
//! evaluation of the builtin rules, so they give one verdict: on a
//! live-pipeline run directory (one `manifest.json`, judged by the
//! `run.*` rules), on a chaos run directory (`manifests.jsonl`, each
//! trial judged by the `run.*` rules against its share of the fault
//! log) and on a fleet run directory (`report.json` and its fault log,
//! judged by the `fleet.*` and `sample.*` rules), passing and failing
//! alike.

use obs::{FleetReport, RunManifest};
use std::path::{Path, PathBuf};
use std::process::Command;

fn tracemod(args: &[&str]) -> Option<i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_tracemod"))
        .args(args)
        .output()
        .expect("tracemod binary runs");
    out.status.code()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tracemod-verdict-{}-{tag}", std::process::id()))
}

/// The exit codes of `obs-report DIR --check` and
/// `alerts DIR --rules builtin --check`.
fn verdicts(dir: &Path) -> (Option<i32>, Option<i32>) {
    let dir = dir.to_str().unwrap();
    (
        tracemod(&["obs-report", dir, "--check"]),
        tracemod(&["alerts", dir, "--rules", "builtin", "--check"]),
    )
}

/// Rewrite one JSON artifact of a run directory.
fn edit<T>(path: PathBuf, parse: fn(&str) -> T, change: fn(&mut T), render: fn(&T) -> String) {
    let mut value = parse(&std::fs::read_to_string(&path).unwrap());
    change(&mut value);
    std::fs::write(&path, render(&value)).unwrap();
}

#[test]
fn obs_report_and_builtin_alerts_give_one_verdict() {
    let live = temp_path("live");
    let chaos = temp_path("chaos");
    let fleet = temp_path("fleet");
    let live_run = tracemod(&[
        "live-pipeline",
        "--scenario",
        "porter",
        "--benchmark",
        "web",
        "--duration-secs",
        "30",
        "--out",
        live.to_str().unwrap(),
    ]);
    assert_eq!(live_run, Some(0));
    let fleet_run = tracemod(&[
        "fleet",
        "--clients",
        "4",
        "--duration-secs",
        "10",
        "--out",
        fleet.to_str().unwrap(),
    ]);
    assert_eq!(fleet_run, Some(0));
    let chaos_run = tracemod(&[
        "chaos",
        "--seed",
        "13",
        "--plan",
        concat!(env!("CARGO_MANIFEST_DIR"), "/packs/faults/5-stall.toml"),
        "--scenario",
        "porter",
        "--duration-secs",
        "30",
        "--trials",
        "2",
        "--out",
        chaos.to_str().unwrap(),
    ]);
    assert_eq!(chaos_run, Some(0));
    assert_eq!(verdicts(&live), (Some(0), Some(0)), "clean live run");
    assert_eq!(verdicts(&chaos), (Some(0), Some(0)), "clean chaos run");
    assert_eq!(verdicts(&fleet), (Some(0), Some(0)), "clean fleet");

    // One bar broken in each artifact: both commands fail.
    edit(
        live.join("manifest.json"),
        |text| RunManifest::from_json(text).unwrap(),
        |m| m.fidelity.abs_delay_error_p95_ms = 8.5,
        RunManifest::to_json_pretty,
    );
    edit(
        fleet.join("report.json"),
        |text| FleetReport::from_json(text).unwrap(),
        |r| r.failed_clients = 1,
        FleetReport::to_json_pretty,
    );
    edit(
        chaos.join("manifests.jsonl"),
        |text| {
            text.lines()
                .map(|l| RunManifest::from_json(l).unwrap())
                .collect::<Vec<_>>()
        },
        |trials| trials[1].fidelity.abs_delay_error_p95_ms = 8.5,
        |trials| {
            trials
                .iter()
                .map(|m| m.deterministic_json() + "\n")
                .collect()
        },
    );
    assert_eq!(verdicts(&live), (Some(1), Some(1)), "live run over 8 ms");
    assert_eq!(
        verdicts(&chaos),
        (Some(1), Some(1)),
        "chaos trial over 8 ms"
    );
    let alerts = Command::new(env!("CARGO_BIN_EXE_tracemod"))
        .args([
            "alerts",
            chaos.to_str().unwrap(),
            "--rules",
            "builtin",
            "--check",
        ])
        .output()
        .expect("tracemod binary runs");
    let stderr = String::from_utf8_lossy(&alerts.stderr);
    assert!(
        stderr.contains("trial 2: [critical] run-delay-error-p95"),
        "{stderr}"
    );
    assert_eq!(verdicts(&fleet), (Some(1), Some(1)), "fleet with a failure");

    std::fs::remove_dir_all(&live).ok();
    std::fs::remove_dir_all(&chaos).ok();
    std::fs::remove_dir_all(&fleet).ok();
}
