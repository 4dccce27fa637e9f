//! `obs-report --check` and `alerts --rules builtin --check` are one
//! evaluation of the builtin rules, so they give one verdict: on a
//! live-pipeline or chaos run directory (`manifests.jsonl`, each trial
//! judged by the `run.*` rules against its share of the fault log) and
//! on a fleet run directory (`report.json` and its fault log, judged by
//! the `fleet.*` and `sample.*` rules), passing and failing alike. A
//! live-pipeline run directory is the clean chaos run of its cell, so
//! two reruns compare equal under `diff-runs --check`.

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

fn parse_manifests(text: &str) -> Vec<RunManifest> {
    text.lines()
        .map(|l| RunManifest::from_json(l).unwrap())
        .collect()
}

fn render_manifests(trials: &[RunManifest]) -> String {
    trials
        .iter()
        .map(|m| m.deterministic_json() + "\n")
        .collect()
}

/// The live cell both tests run: Porter Web, trial 1, 30 s.
const LIVE_CELL: [&str; 6] = [
    "--scenario",
    "porter",
    "--benchmark",
    "web",
    "--duration-secs",
    "30",
];

/// Run the live cell into `dir` with `cmd` and its extra flags.
fn live_cell(dir: &Path, cmd: &[&str]) {
    let mut argv = cmd.to_vec();
    argv.extend(LIVE_CELL);
    argv.extend(["--out", dir.to_str().unwrap()]);
    assert_eq!(tracemod(&argv), Some(0), "{argv:?}");
}

#[test]
fn a_live_pipeline_run_directory_is_the_clean_chaos_run_of_its_cell() {
    let (a, b, clean) = (temp_path("live-a"), temp_path("live-b"), temp_path("clean"));
    live_cell(&a, &["live-pipeline"]);
    live_cell(&b, &["live-pipeline"]);
    let plan = concat!(env!("CARGO_MANIFEST_DIR"), "/packs/faults/1-clean.toml");
    live_cell(
        &clean,
        &["chaos", "--seed", "0", "--plan", plan, "--trial", "1"],
    );
    let (a_dir, b_dir) = (a.to_str().unwrap(), b.to_str().unwrap());
    assert_eq!(tracemod(&["diff-runs", a_dir, b_dir, "--check"]), Some(0));
    for file in ["faults.jsonl", "manifests.jsonl"] {
        let bytes = |dir: &Path| std::fs::read(dir.join(file)).unwrap();
        assert_eq!(bytes(&a), bytes(&clean), "{file}");
    }
    let files = |dir: &Path| std::fs::read_dir(dir).unwrap().count();
    assert_eq!((files(&a), files(&clean)), (2, 2));
    for dir in [a, b, clean] {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn obs_report_and_builtin_alerts_give_one_verdict() {
    let live = temp_path("live");
    let chaos = temp_path("chaos");
    let fleet = temp_path("fleet");
    live_cell(&live, &["live-pipeline"]);
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
        live.join("manifests.jsonl"),
        parse_manifests,
        |trials| trials[0].fidelity.abs_delay_error_p95_ms = 8.5,
        |trials| render_manifests(trials),
    );
    edit(
        fleet.join("report.json"),
        |text| FleetReport::from_json(text).unwrap(),
        |r| r.failed_clients = 1,
        FleetReport::to_json_pretty,
    );
    edit(
        chaos.join("manifests.jsonl"),
        parse_manifests,
        |trials| trials[1].fidelity.abs_delay_error_p95_ms = 8.5,
        |trials| render_manifests(trials),
    );
    assert_eq!(verdicts(&live), (Some(1), Some(1)), "live run over 8 ms");
    assert_eq!(
        verdicts(&chaos),
        (Some(1), Some(1)),
        "chaos trial over 8 ms"
    );
    let alerts_out = temp_path("chaos-alerts");
    let alerts = Command::new(env!("CARGO_BIN_EXE_tracemod"))
        .args([
            "alerts",
            chaos.to_str().unwrap(),
            "--rules",
            "builtin",
            "--check",
            "--out",
            alerts_out.to_str().unwrap(),
        ])
        .output()
        .expect("tracemod binary runs");
    let stderr = String::from_utf8_lossy(&alerts.stderr);
    assert!(
        stderr.contains("trial 2: [critical] run-delay-error-p95"),
        "{stderr}"
    );
    // The JSONL artifact names the trial too.
    let jsonl = std::fs::read_to_string(alerts_out.join("alerts.jsonl")).unwrap();
    assert!(
        jsonl.contains("{\"trial\":2,\"rule\":\"run-delay-error-p95\""),
        "{jsonl}"
    );
    std::fs::remove_dir_all(&alerts_out).ok();
    assert_eq!(verdicts(&fleet), (Some(1), Some(1)), "fleet with a failure");

    std::fs::remove_dir_all(&live).ok();
    std::fs::remove_dir_all(&chaos).ok();
    std::fs::remove_dir_all(&fleet).ok();
}
