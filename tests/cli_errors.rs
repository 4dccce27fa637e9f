//! CLI error-path contract tests for `tracemod`, driven through the
//! real binary: usage mistakes exit 2 with a diagnostic on stderr,
//! mid-run failures exit 1, and the `chaos` subcommand's artifacts are
//! byte-identical across reruns and worker counts.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn tracemod(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracemod"))
        .args(args)
        .output()
        .expect("tracemod binary runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_exit(out: &Output, code: i32, stderr_needle: &str) {
    let stderr = stderr_of(out);
    assert_eq!(
        out.status.code(),
        Some(code),
        "expected exit {code}; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains(stderr_needle),
        "stderr must mention {stderr_needle:?}; got:\n{stderr}"
    );
}

/// A unique temp path per test file usage (tests run in one process).
fn temp_path(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "tracemod-cli-{}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed),
        tag
    ))
}

#[test]
fn unknown_command_is_a_usage_error() {
    let out = tracemod(&["frobnicate"]);
    assert_exit(&out, 2, "unknown command 'frobnicate'");
    let stderr = stderr_of(&out);
    assert!(stderr.contains("usage"), "must print usage help");
    // The usage text enumerates every subcommand, so a typo'd command
    // always shows the full menu.
    for cmd in [
        "scenarios",
        "collect",
        "distill",
        "inspect",
        "replay",
        "live",
        "live-pipeline",
        "obs-report",
        "trace-export",
        "journey",
        "bench-diff",
        "chaos",
        "fleet",
        "alerts",
        "diff-runs",
        "figure",
        "help",
    ] {
        assert!(stderr.contains(cmd), "usage must list {cmd:?}");
    }
}

#[test]
fn help_prints_usage_on_stdout_and_exits_zero() {
    for spelling in [&["help"][..], &["--help"], &["-h"], &["fleet", "--help"]] {
        let out = tracemod(spelling);
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert_eq!(
            out.status.code(),
            Some(0),
            "{spelling:?} must exit 0; stderr:\n{}",
            stderr_of(&out)
        );
        assert!(
            stdout.contains("usage: tracemod"),
            "{spelling:?} must print usage on stdout"
        );
        assert!(stdout.contains("diff-runs"), "usage lists every command");
    }
}

#[test]
fn no_command_is_a_usage_error() {
    let out = tracemod(&[]);
    assert_exit(&out, 2, "no command given");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = tracemod(&["chaos", "--seed", "1", "--bogus", "x"]);
    assert_exit(&out, 2, "--bogus");
}

#[test]
fn chaos_without_seed_is_a_usage_error() {
    let out = tracemod(&["chaos", "--plan", "/nonexistent.toml"]);
    assert_exit(&out, 2, "missing required flag --seed");
}

#[test]
fn chaos_with_non_numeric_seed_is_a_usage_error() {
    let out = tracemod(&["chaos", "--seed", "banana", "--plan", "/nonexistent.toml"]);
    assert_exit(&out, 2, "invalid value for --seed");
}

#[test]
fn chaos_with_unreadable_plan_is_a_usage_error() {
    let out = tracemod(&["chaos", "--seed", "1", "--plan", "/nonexistent/plan.toml"]);
    assert_exit(&out, 2, "read fault plan");
}

#[test]
fn chaos_with_malformed_plan_json_is_a_usage_error() {
    let path = temp_path("bad-plan.toml");
    std::fs::write(&path, "this is not a plan").unwrap();
    let out = tracemod(&["chaos", "--seed", "1", "--plan", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_exit(
        &out,
        2,
        "fault plan line 1: expected a TOML `key = value` line or a [[fault]] table",
    );
}

#[test]
fn fleet_with_unreadable_pack_is_a_usage_error() {
    let out = tracemod(&[
        "fleet",
        "--clients",
        "4",
        "--scenario",
        "/nonexistent/pack.toml",
    ]);
    assert_exit(&out, 2, "read scenario pack");
    assert!(stderr_of(&out).contains("usage"), "must print usage help");
}

#[test]
fn fleet_with_malformed_pack_toml_is_a_usage_error() {
    let path = temp_path("bad-pack.toml");
    std::fs::write(&path, "name = \"x\"\nduration_secs = 9\nwat\n").unwrap();
    let out = tracemod(&[
        "fleet",
        "--clients",
        "4",
        "--scenario",
        path.to_str().unwrap(),
    ]);
    std::fs::remove_file(&path).ok();
    // Syntax errors carry the offending line number.
    assert_exit(&out, 2, "pack line 3");
}

#[test]
fn fleet_with_unknown_model_family_is_a_usage_error() {
    let path = temp_path("martian-pack.toml");
    std::fs::write(
        &path,
        "name = \"x\"\nduration_secs = 9\n\n[[model]]\nfamily = \"martian\"\n",
    )
    .unwrap();
    let out = tracemod(&[
        "fleet",
        "--clients",
        "4",
        "--scenario",
        path.to_str().unwrap(),
    ]);
    std::fs::remove_file(&path).ok();
    assert_exit(&out, 2, "unknown model family 'martian'");
    assert!(
        stderr_of(&out).contains("registered:"),
        "error must list the registered families"
    );
}

#[test]
fn live_with_out_of_range_pack_param_is_a_usage_error() {
    // Pack paths work on single-channel commands too, with the same
    // exit-2 contract for semantic errors.
    let path = temp_path("lossy-pack.toml");
    std::fs::write(
        &path,
        "name = \"x\"\nduration_secs = 9\n\n[[model]]\nfamily = \"leo\"\nloss = 3.0\n",
    )
    .unwrap();
    let out = tracemod(&[
        "live",
        "--scenario",
        path.to_str().unwrap(),
        "--benchmark",
        "web",
    ]);
    std::fs::remove_file(&path).ok();
    assert_exit(&out, 2, "loss must be in [0, 1]");
}

#[test]
fn fleet_runs_a_valid_pack_end_to_end() {
    let pack = temp_path("mini-pack.toml");
    std::fs::write(
        &pack,
        "name = \"mini\"\nduration_secs = 8\n\n[[model]]\nfamily = \"leo\"\nshare = 3\n\
         pass_secs = 6\noutage_ms = 150\n\n[[model]]\nfamily = \"errant\"\noperator = \"op2\"\n",
    )
    .unwrap();
    let run = temp_path("mini-fleet");
    let out = tracemod(&[
        "fleet",
        "--clients",
        "8",
        "--scenario",
        pack.to_str().unwrap(),
        "--out",
        run.to_str().unwrap(),
        "--check",
    ]);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    assert!(stderr.contains("fleet fidelity gate: PASS"), "{stderr}");
    let json = std::fs::read_to_string(run.join("report.json")).unwrap();
    std::fs::remove_file(&pack).ok();
    std::fs::remove_dir_all(&run).ok();
    // The aggregate report carries the per-family client breakdown.
    assert!(json.contains("\"family\": \"leo\""), "{json}");
    assert!(json.contains("\"family\": \"errant\""), "{json}");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("| `leo` |"), "{stdout}");
}

/// The fleet applies only `kill_worker`: a plan holding any other fault
/// kind would inject nothing, so it is refused before the run, and the
/// message names the kinds.
#[test]
fn fleet_refuses_fault_kinds_it_cannot_apply() {
    let fleet = |plan: &str| {
        tracemod(&[
            "fleet",
            "--clients",
            "4",
            "--duration-secs",
            "5",
            "--fault-plan",
            &fault_plan(plan),
        ])
    };
    for (plan, kinds) in [
        ("2-corrupt.toml", "not corrupt_chunk"),
        ("5-stall.toml", "not stall_feed"),
        ("7-oom.toml", "not oom_ring"),
        (
            "9-combo.toml",
            "not corrupt_chunk, oom_ring, stall_feed, truncate_trace",
        ),
    ] {
        let out = fleet(plan);
        assert_exit(&out, 2, "the fleet applies only kill_worker faults");
        assert!(
            stderr_of(&out).contains(kinds),
            "{plan}: {}",
            stderr_of(&out)
        );
    }
    assert_exit(&fleet("8-kill.toml"), 0, "fleet: 4 clients");
}

#[test]
fn chaos_fault_budget_exceeded_is_a_runtime_error() {
    let plan = temp_path("busy-plan.toml");
    std::fs::write(
        &plan,
        "[[fault]]\nkind = \"drop_tuples\"\nstart = 0\nend = 50\n\n\
         [[fault]]\nkind = \"oom_ring\"\ncap = 128\n",
    )
    .unwrap();
    let out = tracemod(&[
        "chaos",
        "--seed",
        "5",
        "--plan",
        plan.to_str().unwrap(),
        "--scenario",
        "porter",
        "--duration-secs",
        "30",
        "--fault-budget",
        "1",
    ]);
    std::fs::remove_file(&plan).ok();
    assert_exit(&out, 1, "fault budget exceeded");
}

#[test]
fn chaos_check_passes_on_an_empty_plan() {
    let plan = temp_path("empty-plan.toml");
    std::fs::write(&plan, "").unwrap();
    let out = tracemod(&[
        "chaos",
        "--seed",
        "7",
        "--plan",
        plan.to_str().unwrap(),
        "--scenario",
        "porter",
        "--duration-secs",
        "30",
        "--check",
    ]);
    std::fs::remove_file(&plan).ok();
    let stderr = stderr_of(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "fidelity gate must pass a fault-free run; stderr:\n{stderr}"
    );
}

/// The acceptance bar from the chaos design: the same `(seed, plan)`
/// produces byte-identical manifest and fault-log artifacts whether the
/// trial plan runs on 1, 2 or 8 workers, and across reruns.
#[test]
fn chaos_artifacts_identical_across_jobs_and_reruns() {
    let plan = temp_path("det-plan.toml");
    std::fs::write(
        &plan,
        r#"
[[fault]]
kind = "corrupt_chunk"
at_byte = 2048

[[fault]]
kind = "truncate_trace"
pct = 10.0

[[fault]]
kind = "drop_tuples"
start = 3
end = 6

[[fault]]
kind = "stall_feed"
virtual_ms = 15000

[[fault]]
kind = "clock_jump"
delta_ms = 400

[[fault]]
kind = "kill_worker"
idx = 0
at_record = 200

[[fault]]
kind = "oom_ring"
cap = 128
"#,
    )
    .unwrap();

    let run = |jobs: &str, tag: &str| -> (Vec<u8>, Vec<u8>) {
        let dir = temp_path(&format!("chaos-{jobs}-{tag}"));
        let out = tracemod(&[
            "chaos",
            "--seed",
            "42",
            "--plan",
            plan.to_str().unwrap(),
            "--scenario",
            "porter",
            "--duration-secs",
            "30",
            "--trials",
            "3",
            "--jobs",
            jobs,
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "chaos run failed; stderr:\n{}",
            stderr_of(&out)
        );
        let pair = (
            std::fs::read(dir.join("manifests.jsonl")).expect("manifests written"),
            std::fs::read(dir.join("faults.jsonl")).expect("fault log written"),
        );
        std::fs::remove_dir_all(&dir).ok();
        pair
    };

    let baseline = run("1", "a");
    assert!(!baseline.0.is_empty(), "manifests must not be empty");
    assert!(!baseline.1.is_empty(), "fault log must not be empty");
    assert_eq!(run("1", "b"), baseline, "rerun at --jobs 1 diverged");
    assert_eq!(run("2", "a"), baseline, "--jobs 2 diverged from --jobs 1");
    assert_eq!(run("8", "a"), baseline, "--jobs 8 diverged from --jobs 1");

    std::fs::remove_file(&plan).ok();
}

#[test]
fn diff_runs_wants_two_artifacts() {
    let out = tracemod(&["diff-runs"]);
    assert_exit(&out, 2, "missing run artifacts");
    let a = temp_path("only-one.jsonl");
    std::fs::write(&a, "{\"t_ns\":1,\"events\":2}\n").unwrap();
    let out = tracemod(&["diff-runs", a.to_str().unwrap()]);
    std::fs::remove_file(&a).ok();
    assert_exit(&out, 2, "missing second run artifact");
}

#[test]
fn diff_runs_reports_identical_and_first_divergence() {
    let a = temp_path("run-a.jsonl");
    let b = temp_path("run-b.jsonl");
    let rows = |released: u64| {
        format!(
            "{{\"t_ns\":1000000000,\"events\":10,\"released\":4}}\n\
             {{\"t_ns\":2000000000,\"events\":12,\"released\":{released}}}\n"
        )
    };
    std::fs::write(&a, rows(5)).unwrap();
    std::fs::write(&b, rows(5)).unwrap();

    // Identical: exit 0 and say so, with or without --check.
    let out = tracemod(&[
        "diff-runs",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--check",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "identical runs must pass --check; stderr:\n{}",
        stderr_of(&out)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("runs identical"), "got:\n{stdout}");
    assert!(stdout.contains("2 record(s)"), "got:\n{stdout}");

    // Perturb one field of the second record: the report names the
    // record, the field, both values, and the virtual time — and
    // --check turns it into exit 1.
    std::fs::write(&b, rows(9)).unwrap();
    let out = tracemod(&["diff-runs", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "without --check divergence is informational"
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    for needle in [
        "first divergence",
        "record 1",
        "released",
        "5",
        "9",
        "t=2.0s",
    ] {
        assert!(
            stdout.contains(needle),
            "report must mention {needle:?}; got:\n{stdout}"
        );
    }
    let out = tracemod(&[
        "diff-runs",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--check",
    ]);
    assert_exit(&out, 1, "runs diverge");

    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn alerts_needs_rules_and_inputs() {
    let out = tracemod(&["alerts"]);
    assert_exit(&out, 2, "missing required flag --rules");
    let out = tracemod(&["alerts", "--rules", "builtin"]);
    assert_exit(&out, 2, "nothing to evaluate");
    // A run directory with neither telemetry nor a report.
    let empty = temp_path("empty-run");
    std::fs::create_dir_all(&empty).unwrap();
    let out = tracemod(&["alerts", empty.to_str().unwrap(), "--rules", "builtin"]);
    assert_exit(&out, 2, "nothing to evaluate");
    let out = tracemod(&[
        "alerts",
        empty.to_str().unwrap(),
        "--rules",
        "/nonexistent/rules.toml",
    ]);
    std::fs::remove_dir_all(&empty).ok();
    assert_exit(&out, 2, "read rules");
}

#[test]
fn alerts_check_gates_on_telemetry_and_respects_suppression() {
    let rules = temp_path("rules.toml");
    std::fs::write(
        &rules,
        "[[rule]]\n\
         name = \"queue-depth\"\n\
         metric = \"sample.queue_depth\"\n\
         severity = \"critical\"\n\
         above = 100\n\
         suppress = [\"stall_feed\"]\n\
         suppress_window_secs = 5.0\n",
    )
    .unwrap();
    let run = temp_path("alerts-run");
    std::fs::create_dir_all(&run).unwrap();
    let row = |t_s: u64, depth: u64| {
        format!(
            "{{\"t_ns\":{},\"events\":10,\"queue_depth\":{depth},\"packets_live\":0,\
             \"mod_held\":0,\"probes_sent\":1,\"rtts_completed\":1,\"packets_lost\":0,\
             \"released\":1,\"abs_delay_error_ns\":0,\"station_frames\":0,\
             \"degraded_clients\":0}}\n",
            t_s * 1_000_000_000
        )
    };
    std::fs::write(
        run.join("telemetry.jsonl"),
        format!("{}{}", row(1, 5), row(2, 500)),
    )
    .unwrap();

    // The breach is active: --check fails with the rule named.
    let out = tracemod(&[
        "alerts",
        run.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
        "--check",
    ]);
    assert_exit(&out, 1, "queue-depth");

    // The same breach inside a matching fault's suppression window is
    // attributed, not gated on.
    std::fs::write(
        run.join("faults.jsonl"),
        "{\"t_virtual_ns\":1500000000,\"fault\":\"stall_feed\",\"info\":\"feed stalled\"}\n",
    )
    .unwrap();
    let out = tracemod(&[
        "alerts",
        run.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
        "--check",
    ]);
    let stderr = stderr_of(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "suppressed breach must pass the gate; stderr:\n{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("stall_feed@1.5s"),
        "markdown must attribute the suppression; got:\n{stdout}"
    );

    std::fs::remove_file(&rules).ok();
    std::fs::remove_dir_all(&run).ok();
}

#[test]
fn out_into_a_non_empty_directory_is_a_usage_error() {
    let dir = temp_path("used-run");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("report.json"), "{}").unwrap();
    let out = tracemod(&["fleet", "--clients", "4", "--out", dir.to_str().unwrap()]);
    assert_exit(&out, 2, "not empty");
    // Refused before the run: nothing was printed or overwritten.
    assert!(out.stdout.is_empty(), "the fleet must not have run");
    assert_eq!(
        std::fs::read_to_string(dir.join("report.json")).unwrap(),
        "{}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn removed_output_flags_are_usage_errors_that_point_at_out() {
    for (cmd, flag) in [
        ("fleet", "--obs-out"),
        ("fleet", "--manifests-out"),
        ("fleet", "--telemetry-out"),
        ("fleet", "--wheel-slots"),
        ("chaos", "--fault-out"),
    ] {
        let out = tracemod(&[cmd, flag, "x.json"]);
        assert_exit(&out, 2, &format!("unknown flag {flag}"));
        assert!(
            stderr_of(&out).contains("--out"),
            "{cmd} {flag}: the allowed list must name --out"
        );
    }
}

#[test]
fn diff_runs_compares_run_directories_artifact_by_artifact() {
    let a = temp_path("dir-run-a");
    let b = temp_path("dir-run-b");
    let write_run = |dir: &PathBuf, released: u64, alerts: bool| {
        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join("faults.jsonl"), "").unwrap();
        std::fs::write(
            dir.join("telemetry.jsonl"),
            format!(
                "{{\"t_ns\":1000000000,\"events\":10,\"released\":4}}\n\
                 {{\"t_ns\":2000000000,\"events\":12,\"released\":{released}}}\n"
            ),
        )
        .unwrap();
        // Wall-clock artifacts are skipped.
        std::fs::write(dir.join("report.json"), format!("{{\"wall\":{released}}}")).unwrap();
        if alerts {
            std::fs::write(dir.join("alerts.md"), "# Alerts\n").unwrap();
        }
    };
    let diff = |check: bool| {
        let mut argv = vec!["diff-runs", a.to_str().unwrap(), b.to_str().unwrap()];
        if check {
            argv.push("--check");
        }
        tracemod(&argv)
    };

    // Identical directories: exit 0 under --check.
    write_run(&a, 5, true);
    write_run(&b, 5, true);
    let out = diff(true);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(0), "stderr:\n{}", stderr_of(&out));
    assert!(stdout.contains("runs identical"), "got:\n{stdout}");
    assert!(stdout.contains("3 artifact(s)"), "got:\n{stdout}");

    // An artifact only one side holds is a divergence, named.
    write_run(&b, 5, false);
    let out = diff(false);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("first divergence: alerts.md: only in"),
        "got:\n{stdout}"
    );
    assert_exit(&diff(true), 1, "runs diverge");

    // A content mismatch is named by artifact, with the per-file detail.
    write_run(&b, 9, true);
    let out = diff(false);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    for needle in [
        "first divergence: telemetry.jsonl",
        "record 1",
        "released",
        "t=2.0s",
    ] {
        assert!(
            stdout.contains(needle),
            "must mention {needle:?}; got:\n{stdout}"
        );
    }
    assert_exit(&diff(true), 1, "runs diverge");

    // A directory against a file is a usage error.
    let out = tracemod(&[
        "diff-runs",
        a.to_str().unwrap(),
        a.join("faults.jsonl").to_str().unwrap(),
    ]);
    assert_exit(&out, 2, "not one of each");

    std::fs::remove_dir_all(&a).ok();
    std::fs::remove_dir_all(&b).ok();
}

/// A run artifact nested far past the JSON parser's depth limit is a
/// runtime error naming the file (or, for `diff-runs`, a divergence in
/// it), never a stack overflow.
#[test]
fn deeply_nested_artifacts_are_errors_not_crashes() {
    let deep = "[".repeat(50_000) + &"]".repeat(50_000) + "\n";
    let (bad, clean) = (temp_path("deep-run"), temp_path("deep-clean"));
    std::fs::create_dir_all(&bad).unwrap();
    std::fs::create_dir_all(&clean).unwrap();
    std::fs::write(bad.join("manifests.jsonl"), &deep).unwrap();
    std::fs::write(clean.join("manifests.jsonl"), "{}\n").unwrap();
    let dir = bad.to_str().unwrap();
    for argv in [
        vec!["obs-report", dir],
        vec!["alerts", dir, "--rules", "builtin"],
        vec!["diff-runs", dir, clean.to_str().unwrap(), "--check"],
    ] {
        let out = tracemod(&argv);
        let text = stderr_of(&out) + &String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{argv:?}:\n{text}");
        assert!(text.contains("manifests.jsonl"), "{argv:?}:\n{text}");
        assert!(!text.contains("panicked"), "{argv:?}:\n{text}");
    }
    let out = tracemod(&["obs-report", dir]);
    assert!(
        stderr_of(&out).contains("recursion limit exceeded"),
        "{}",
        stderr_of(&out)
    );
    std::fs::remove_dir_all(&bad).ok();
    std::fs::remove_dir_all(&clean).ok();
}

/// Two directories holding the same unparsable `manifests.jsonl` are
/// not identical runs: `diff-runs` refuses them, as `obs-report` and
/// `alerts` do, and names the file. A `.prom` artifact is text, so the
/// same bytes there still compare equal.
#[test]
fn diff_runs_refuses_identical_corrupt_artifacts() {
    let deep = "[".repeat(50_000) + &"]".repeat(50_000) + "\n";
    let truncated = "{\"schema\":1,\"trial\":0,\"fidelity\":{}}\n{\"schema\":1,\"tri\n";
    let (a, b) = (temp_path("corrupt-a"), temp_path("corrupt-b"));
    for manifests in [deep.as_str(), truncated] {
        for dir in [&a, &b] {
            std::fs::remove_dir_all(dir).ok();
            std::fs::create_dir_all(dir).unwrap();
            std::fs::write(dir.join("faults.jsonl"), "").unwrap();
            std::fs::write(dir.join("manifests.jsonl"), manifests).unwrap();
        }
        let out = tracemod(&[
            "diff-runs",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--check",
        ]);
        let text = stderr_of(&out) + &String::from_utf8_lossy(&out.stdout);
        assert_exit(&out, 1, "manifests.jsonl is not valid JSON");
        assert!(!text.contains("runs identical"), "{text}");
        assert!(!text.contains("panicked"), "{text}");

        // The same two files, named directly.
        let (fa, fb) = (a.join("manifests.jsonl"), b.join("manifests.jsonl"));
        let out = tracemod(&["diff-runs", fa.to_str().unwrap(), fb.to_str().unwrap()]);
        assert_exit(&out, 1, "manifests.jsonl is not valid JSON");
    }
    for dir in [&a, &b] {
        std::fs::write(dir.join("manifests.jsonl"), "{\"trial\":0}\n").unwrap();
        std::fs::write(dir.join("telemetry.prom"), truncated).unwrap();
    }
    let out = tracemod(&[
        "diff-runs",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--check",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{}", stderr_of(&out));
    std::fs::remove_dir_all(&a).ok();
    std::fs::remove_dir_all(&b).ok();
}

/// Run `tracemod` in `cwd`, so a command that writes relative paths
/// writes them there.
fn tracemod_in(cwd: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracemod"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("tracemod binary runs")
}

/// A committed soak fault plan.
fn fault_plan(name: &str) -> String {
    format!("{}/packs/faults/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// A JSON trace and a binary trace of the same collection distill to
/// byte-identical replay files.
#[test]
fn distill_binary_trace_to_a_replay() {
    let dir = temp_path("distill-binary");
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let out = tracemod(&[
        "collect",
        "--scenario",
        "wean",
        "--duration-secs",
        "20",
        "--trial",
        "2",
        "--out",
        &file("t.mntr"),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{}", stderr_of(&out));
    let out = tracemod(&["distill", &file("t.mntr"), "--out", &file("r.mnrp")]);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{}", stderr_of(&out));
    let replay = std::fs::read(dir.join("r.mnrp")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(!replay.is_empty(), "the replay must hold tuples");
}

#[test]
fn json_trace_and_replay_documents_are_runtime_errors() {
    // Traces and replays have one encoding, the binary one; a JSON
    // document is an unreadable file under any extension.
    let dir = temp_path("json-docs");
    std::fs::create_dir_all(&dir).unwrap();
    let doc = "{\"host\":\"h\",\"scenario\":\"wean\",\"trial\":1,\"records\":[]}\n";
    for name in ["t.json", "t.mntr", "r.mnrp"] {
        let path = dir.join(name);
        std::fs::write(&path, doc).unwrap();
        let path = path.to_str().unwrap();
        let out_file = dir.join("out.mnrp");
        let runs = [
            tracemod(&["distill", path, "--out", out_file.to_str().unwrap()]),
            tracemod(&["inspect", path]),
            tracemod(&["replay", path, "--benchmark", "ftp-recv"]),
        ];
        for out in &runs {
            assert_exit(out, 1, path);
            assert_exit(out, 1, "bad magic");
            assert!(!stderr_of(out).contains("panicked"), "{}", stderr_of(out));
        }
        assert!(!out_file.exists(), "no replay is written from {name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn switches_do_not_swallow_positionals() {
    // `--check` before the operands: both still count as run artifacts.
    let a = temp_path("switch-a.jsonl");
    let b = temp_path("switch-b.jsonl");
    std::fs::write(&a, "{\"t_ns\":1,\"events\":2}\n").unwrap();
    std::fs::write(&b, "{\"t_ns\":1,\"events\":2}\n").unwrap();
    let out = tracemod(&[
        "diff-runs",
        "--check",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
    assert_eq!(out.status.code(), Some(0), "stderr:\n{}", stderr_of(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("runs identical"));

    let run = temp_path("switch-run");
    let out = tracemod(&[
        "fleet",
        "--clients",
        "4",
        "--duration-secs",
        "10",
        "--out",
        run.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{}", stderr_of(&out));
    let out = tracemod(&["obs-report", "--check", run.to_str().unwrap()]);
    std::fs::remove_dir_all(&run).ok();
    assert_exit(&out, 0, "fleet fidelity gate: PASS");
    assert!(String::from_utf8_lossy(&out.stdout).contains("## Fleet report"));
}

#[test]
fn a_valued_flag_without_a_value_is_a_usage_error() {
    let cwd = temp_path("no-value");
    std::fs::create_dir_all(&cwd).unwrap();
    let out = tracemod_in(&cwd, &["fleet", "--clients", "4", "--out"]);
    let left: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
    std::fs::remove_dir_all(&cwd).ok();
    assert_exit(&out, 2, "--out needs a value");
    assert!(left.is_empty(), "no run directory may be written");
    let out = tracemod(&["chaos", "--seed", "--plan", "x.toml"]);
    assert_exit(&out, 2, "--seed needs a value");
}

#[test]
fn a_flag_given_twice_is_a_usage_error() {
    let out = tracemod(&["fleet", "--clients", "4", "--clients", "5"]);
    assert_exit(&out, 2, "--clients given twice");
    let out = tracemod(&["diff-runs", "a", "b", "--check", "--check"]);
    assert_exit(&out, 2, "--check given twice");
}

#[test]
fn zero_counts_are_usage_errors() {
    let clean = fault_plan("1-clean.toml");
    for argv in [
        &["fleet", "--clients", "4", "--shards", "0"][..],
        &["fleet", "--clients", "4", "--jobs", "0"],
        &["chaos", "--seed", "1", "--plan", &clean, "--jobs", "0"],
        &["chaos", "--seed", "1", "--plan", &clean, "--trials", "0"],
    ] {
        let out = tracemod(argv);
        let flag = argv[argv.len() - 2];
        assert_exit(&out, 2, &format!("{flag} must be positive"));
        assert!(out.stdout.is_empty(), "{argv:?} must not run");
    }
}

const FIGURE_NAMES: [&str; 8] = [
    "fig1",
    "fig2to5",
    "fig6",
    "fig7",
    "fig8",
    "ablation-tick",
    "ablation-window",
    "ablation-symmetry",
];

/// A missing or unknown figure name is a usage error whose message
/// lists every figure, and nothing runs.
#[test]
fn figure_needs_a_known_name() {
    for (argv, needle) in [
        (&["figure"][..], "missing figure name"),
        (&["figure", "fig9"], "unknown figure 'fig9'"),
        (
            &["figure", "fig2to5", "porter"],
            "unexpected argument 'porter'",
        ),
    ] {
        let out = tracemod(argv);
        assert_exit(&out, 2, needle);
        assert!(out.stdout.is_empty(), "{argv:?} must not run");
        let stderr = stderr_of(&out);
        for name in FIGURE_NAMES {
            assert!(stderr.contains(name), "{argv:?}: stderr must list {name}");
        }
    }
}

/// `--trials` must be a positive count that fits a trial number, and
/// `--jobs` needs its value; each is refused before any figure work.
#[test]
fn figure_rejects_bad_counts() {
    for (argv, needle) in [
        (
            &["figure", "fig6", "--trials", "0"][..],
            "--trials must be positive",
        ),
        (
            &["figure", "fig6", "--trials", "4294967296"],
            "--trials: '4294967296' is out of range",
        ),
        (&["figure", "fig6", "--jobs"], "--jobs needs a value"),
        (
            &["figure", "fig6", "--jobs", "0"],
            "--jobs must be positive",
        ),
        (&["figure", "fig6", "--serial"], "unknown flag --serial"),
    ] {
        let out = tracemod(argv);
        assert_exit(&out, 2, needle);
        assert!(out.stdout.is_empty(), "{argv:?} must not run");
    }
}

/// Every trial of a chaos matrix needs a trial number that fits:
/// `--trial 4294967295 --trials 2` would otherwise wrap round to 0.
#[test]
fn chaos_trials_past_the_last_trial_number_are_a_usage_error() {
    let clean = fault_plan("1-clean.toml");
    let out = tracemod(&[
        "chaos",
        "--seed",
        "1",
        "--plan",
        &clean,
        "--trial",
        "4294967295",
        "--trials",
        "2",
    ]);
    assert_exit(&out, 2, "passes the last trial number");
}

#[test]
fn journey_window_rejects_non_finite_bounds() {
    for window in ["nan..inf", "0..inf", "nan..1", "-1..2"] {
        let out = tracemod(&["journey", "--window", window]);
        assert_exit(&out, 2, "invalid --window");
    }
}

#[test]
fn duration_secs_is_capped_at_one_day() {
    // Past the cap is a usage error that names the cap, on a command
    // that would otherwise simulate; the cap itself is accepted (by a
    // command that does not simulate).
    for (cmd, value) in [
        ("fleet", "10000000000"),
        ("live", "86401"),
        ("chaos", "86401"),
        ("figure", "86401"),
    ] {
        let out = tracemod(&[cmd, "--duration-secs", value]);
        assert_exit(
            &out,
            2,
            &format!("--duration-secs: '{value}' is above the cap of 86400"),
        );
    }
    let out = tracemod(&[
        "dump-scenario",
        "--scenario",
        "porter",
        "--duration-secs",
        "86400",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{}", stderr_of(&out));
    let help = tracemod(&["help"]);
    let help = String::from_utf8_lossy(&help.stdout);
    assert!(help.contains("shorten or stretch the traversal [max: 86400]"));
}

#[test]
fn scenario_files_and_packs_are_capped_at_one_day() {
    let day = "duration_secs = 86400";
    let dumped = tracemod(&[
        "dump-scenario",
        "--scenario",
        "porter",
        "--duration-secs",
        "86400",
    ]);
    let spec = String::from_utf8(dumped.stdout).unwrap();
    assert!(spec.contains(day), "{spec}");
    // Each input at `secs`: a scenario file and a TOML pack.
    let inputs = |secs: u64| {
        let files = [
            (
                "scenario.toml",
                spec.replace(day, &format!("duration_secs = {secs}")),
            ),
            (
                "pack.toml",
                format!(
                    "name = \"cap\"\nduration_secs = {secs}\n\n[[model]]\nfamily = \"constant\"\n"
                ),
            ),
        ];
        files.map(|(tag, text)| {
            let path = temp_path(tag);
            std::fs::write(&path, text).unwrap();
            let flag = if tag.starts_with("scenario") {
                "--scenario-file"
            } else {
                "--scenario"
            };
            (flag, path)
        })
    };
    for (flag, path) in inputs(86_401) {
        let out = tracemod(&["fleet", "--clients", "4", flag, path.to_str().unwrap()]);
        std::fs::remove_file(&path).ok();
        // A bad scenario file, like a bad pack, is a usage error.
        assert_exit(&out, 2, "86401 is above the cap of 86400");
    }
    for (flag, path) in inputs(86_400) {
        let out = tracemod(&["dump-scenario", flag, path.to_str().unwrap()]);
        std::fs::remove_file(&path).ok();
        if flag == "--scenario-file" {
            assert_eq!(out.status.code(), Some(0), "stderr:\n{}", stderr_of(&out));
            assert!(String::from_utf8_lossy(&out.stdout).contains(day));
        } else {
            // A pack's models are not a WaveLAN walk: it has no dump.
            assert_exit(&out, 2, "scenario pack 'cap' has no scenario-file form");
            assert!(out.stdout.is_empty());
        }
    }
}

#[test]
fn json_config_files_and_report_formats_are_usage_errors() {
    let no_panic = |out: &Output| {
        assert!(!stderr_of(out).contains("panicked"), "{}", stderr_of(out));
    };
    // Scenario packs are TOML: a `.json` pack path is not a scenario.
    let pack = temp_path("pack.json");
    std::fs::write(
        &pack,
        r#"{"name":"j","duration_secs":60,"models":[{"family":"constant"}]}"#,
    )
    .unwrap();
    let out = tracemod(&[
        "fleet",
        "--clients",
        "4",
        "--scenario",
        pack.to_str().unwrap(),
    ]);
    std::fs::remove_file(&pack).ok();
    assert_exit(&out, 2, "TOML scenario-pack path ending in .toml");
    no_panic(&out);

    // Rule files are TOML: a JSON rule file fails on its first line,
    // both as `alerts --rules` and as `fleet --alerts`.
    let rules = temp_path("rules.json");
    std::fs::write(
        &rules,
        "{\"rules\": [{\"name\": \"q\", \"metric\": \"sample.queue_depth\", \"above\": 100}]}\n",
    )
    .unwrap();
    let run = temp_path("json-rules-run");
    std::fs::create_dir_all(&run).unwrap();
    let rules = rules.to_str().unwrap();
    for argv in [
        vec!["alerts", run.to_str().unwrap(), "--rules", rules],
        vec!["fleet", "--clients", "4", "--alerts", rules],
    ] {
        let out = tracemod(&argv);
        assert_exit(&out, 2, "rules line 1: expected a TOML `key = value` line");
        no_panic(&out);
        assert!(out.stdout.is_empty(), "{argv:?} must not have run");
    }
    std::fs::remove_file(rules).ok();
    std::fs::remove_dir_all(&run).ok();

    // Scenario files and fault plans are TOML: the JSON forms fail on
    // their first line, with a message that names the TOML form.
    let scenario = temp_path("scenario.json");
    std::fs::write(
        &scenario,
        "{\n  \"name\": \"j\",\n  \"duration_secs\": 60,\n  \"checkpoints\": []\n}\n",
    )
    .unwrap();
    let plan = temp_path("plan.json");
    std::fs::write(
        &plan,
        r#"{"faults":[{"KillWorker":{"idx":0,"at_record":300}}]}"#,
    )
    .unwrap();
    let (scenario_file, plan_file) = (scenario.to_str().unwrap(), plan.to_str().unwrap());
    let scenario_form =
        "scenario line 1: expected a TOML `key = value` line or a [[checkpoint]] table";
    let plan_form = "fault plan line 1: expected a TOML `key = value` line or a [[fault]] table";
    for (argv, needle) in [
        (
            vec!["fleet", "--clients", "4", "--scenario-file", scenario_file],
            scenario_form,
        ),
        (
            vec![
                "live",
                "--benchmark",
                "web",
                "--scenario-file",
                scenario_file,
            ],
            scenario_form,
        ),
        (vec!["chaos", "--seed", "1", "--plan", plan_file], plan_form),
        (
            vec!["fleet", "--clients", "4", "--fault-plan", plan_file],
            plan_form,
        ),
    ] {
        let out = tracemod(&argv);
        assert_exit(&out, 2, needle);
        no_panic(&out);
        assert!(out.stdout.is_empty(), "{argv:?} must not have run");
    }
    std::fs::remove_file(&scenario).ok();
    std::fs::remove_file(&plan).ok();

    // obs-report prints markdown only.
    let out = tracemod(&["obs-report", "--format", "md", "run"]);
    assert_exit(&out, 2, "unknown flag --format (allowed: --check)");
    no_panic(&out);
}
