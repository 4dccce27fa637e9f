//! Argv fuzzing for `tracemod`, driven through the real binary.
//!
//! Each subcommand's operands and flags are read from `tracemod help`,
//! so a newly declared flag is fuzzed without editing this file. Every
//! generated invocation must exit 0, 1 or 2 without a panic, and an
//! unknown, repeated or value-less flag must be a usage error (exit 2).
//! The run-directory readers (`alerts`, `obs-report`, `diff-runs`) get
//! directories of random artifact bytes, mutated copies of real
//! artifacts and records nested past the JSON depth limit, and
//! `--rules`/`--alerts` a random alert-rule file. No generated operand names a figure, so
//! `figure` cases stop at the name check without running one.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Cases per run; each spawns one `tracemod`.
const CASES: u64 = 300;

/// One subcommand as `tracemod help` lists it.
struct Cmd {
    name: String,
    operands: usize,
    /// `(name without --, takes a value)`.
    flags: Vec<(String, bool)>,
}

fn tracemod(cwd: &Path, argv: &[String]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracemod"))
        .current_dir(cwd)
        .args(argv)
        .output()
        .expect("tracemod binary runs")
}

/// Parse the command list out of `tracemod help`: a command line is
/// indented two spaces (name, then operands); its flag lines are
/// indented further and start with `--name`, followed by a value
/// placeholder unless the flag is a switch.
fn commands_from_help() -> Vec<Cmd> {
    let out = tracemod(&std::env::temp_dir(), &["help".to_string()]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8(out.stdout).expect("help is UTF-8");
    let mut cmds: Vec<Cmd> = Vec::new();
    for line in help.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        if line.starts_with("  ") && !line.starts_with("   ") {
            cmds.push(Cmd {
                name: words[0].to_string(),
                operands: words.len() - 1,
                flags: Vec::new(),
            });
        } else if let (Some(cmd), Some(flag)) = (cmds.last_mut(), words.first()) {
            if let Some(name) = flag.strip_prefix("--") {
                let valued = words
                    .get(1)
                    .is_some_and(|w| ["TEXT", "N", "INT", "NUM"].contains(w));
                cmd.flags.push((name.to_string(), valued));
            }
        }
    }
    cmds
}

/// SplitMix64: a small deterministic generator, so a failing case
/// reproduces from its index.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Artifact names a run directory may hold.
const ARTIFACTS: [&str; 8] = [
    "faults.jsonl",
    "manifests.jsonl",
    "telemetry.jsonl",
    "telemetry.prom",
    "alerts.jsonl",
    "alerts.md",
    "report.json",
    "profile.txt",
];

/// Real artifacts to mutate: a run manifest line, a fault event and
/// the committed telemetry and alert goldens.
fn real_artifacts() -> [String; 4] {
    let golden = |name: &str| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/obs/tests/golden/");
        std::fs::read_to_string(format!("{dir}{name}")).unwrap()
    };
    [
        obs::RunManifest::new("porter", "Web", 1).deterministic_json() + "\n",
        "{\"t_virtual_ns\":1500000000,\"fault\":\"stall_feed\",\"info\":\"x\"}\n".into(),
        golden("telemetry.jsonl"),
        golden("alerts.jsonl"),
    ]
}

/// A copy of `text` cut short, with a flipped bit, with a line
/// repeated, or with a nested array spliced in.
fn mutated(rng: &mut Rng, text: &str) -> Vec<u8> {
    let mut bytes = text.as_bytes().to_vec();
    let at = rng.below(bytes.len() + 1);
    match rng.below(4) {
        0 => bytes.truncate(at),
        1 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
        2 => bytes.extend_from_slice(text.lines().next().unwrap_or("").as_bytes()),
        _ => {
            let depth = rng.pick(&["1", "129", "60000"]).parse().unwrap();
            let nest = "[".repeat(depth) + &"]".repeat(depth);
            bytes.splice(at..at, nest.into_bytes());
        }
    }
    bytes
}

/// Write a run directory of random artifacts: random bytes, a record
/// that parses as JSON, a truncated one, one nested 60 000 deep, or a
/// mutated copy of a real artifact.
fn random_run_dir(rng: &mut Rng, dir: &Path, real: &[String]) {
    std::fs::create_dir_all(dir).unwrap();
    for name in ARTIFACTS {
        let bytes: Vec<u8> = match rng.below(6) {
            0 => continue,
            1 => (0..rng.below(64)).map(|_| rng.next() as u8).collect(),
            2 => b"{\"t_ns\":1000000000,\"events\":3,\"queue_depth\":2}\n".to_vec(),
            3 => b"{\"t_ns\":10".to_vec(),
            4 => ("{\"a\":".repeat(60_000) + "0" + &"}".repeat(60_000)).into_bytes(),
            _ => {
                let text = &real[rng.below(real.len())];
                mutated(rng, text)
            }
        };
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

/// Lines a random alert-rule file is built from: valid rule fields,
/// bad values and broken TOML.
const RULE_LINES: [&str; 12] = [
    "[[rule]]",
    "name = \"q\"",
    "metric = \"sample.queue_depth\"",
    "metric = \"fleet.counter.nope\"",
    "severity = \"warn\"",
    "above = 1",
    "below = -1e400",
    "window = 3",
    "frac = 2.0",
    "suppress = [\"stall_feed\"",
    "name = \"unterminated",
    "[rule]",
];

/// Write `rules.toml`: 0–7 random rule-file lines.
fn random_rules(rng: &mut Rng, path: &Path) {
    let lines: Vec<&str> = (0..rng.below(8)).map(|_| rng.pick(&RULE_LINES)).collect();
    std::fs::write(path, lines.join("\n")).unwrap();
}

/// A value for `--flag`: valid-looking, a boundary (0, -1, `u64::MAX`,
/// 2^64, empty) or junk.
fn value(rng: &mut Rng, flag: &str, plan: &str) -> String {
    let valid: &[&str] = match flag {
        "scenario" => &["porter", "wean", "x.toml"],
        "benchmark" => &["web", "ftp-recv", "andrew"],
        "rules" | "alerts" => &["builtin", "rules.toml"],
        "min-severity" => &["info", "critical"],
        "window" => &["0..1", "1.5..0.5"],
        "plan" | "fault-plan" => &[plan],
        "baseline" | "alerts-baseline" => &["run_a"],
        "out" | "target-out" => &["out", "run_a"],
        _ => &["1", "2", "3"],
    };
    match rng.below(10) {
        0..=4 => rng.pick(valid).to_string(),
        5 => "0".into(),
        6 => "-1".into(),
        7 => rng
            .pick(&["18446744073709551615", "18446744073709551616"])
            .into(),
        8 => String::new(),
        _ => rng.pick(&["zz", "1..", "é", "1e309", "nan"]).into(),
    }
}

/// Build one argv for `cmd`: 0–4 flags, stray operands, and now and
/// then an unknown or a repeated flag, in random order.
fn random_argv(rng: &mut Rng, cmd: &Cmd, plan: &str) -> Vec<String> {
    // Items are shuffled as units: an operand, or a flag with its value.
    let mut items: Vec<Vec<String>> = Vec::new();
    for _ in 0..rng.below(cmd.operands + 2) {
        items.push(vec![rng.pick(&["run_a", "run_b", "stray", ""]).into()]);
    }
    // Pinned so the cases that do run stay cheap.
    let pinned = ["duration-secs", "clients"];
    let free: Vec<&(String, bool)> = cmd
        .flags
        .iter()
        .filter(|(n, _)| !pinned.contains(&n.as_str()))
        .collect();
    for _ in 0..rng.below(5) {
        if free.is_empty() {
            break;
        }
        let (name, valued) = free[rng.below(free.len())];
        let mut item = vec![format!("--{name}")];
        // One in eight valued flags goes without its value.
        if *valued && rng.below(8) != 0 {
            item.push(value(rng, name, plan));
        }
        items.push(item);
    }
    if rng.below(8) == 0 {
        items.push(vec!["--bogus-flag".into(), "1".into()]);
    }
    if rng.below(8) == 0 && !items.is_empty() {
        let again = items[rng.below(items.len())].clone();
        items.push(again);
    }
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
    let mut argv = vec![cmd.name.clone()];
    argv.extend(items.into_iter().flatten());
    for (name, value) in [
        ("duration-secs", "2".to_string()),
        ("clients", format!("{}", 1 + rng.below(4))),
    ] {
        if cmd.flags.iter().any(|(n, _)| n == name) {
            argv.extend([format!("--{name}"), value]);
        }
    }
    argv
}

/// Why `argv` must exit 2, read the way the parser reads it: a word
/// after a valued flag is its value unless it starts with `--`.
fn must_be_usage_error(cmd: &Cmd, argv: &[String]) -> Option<String> {
    let mut seen = Vec::new();
    let mut words = argv[1..].iter().peekable();
    while let Some(word) = words.next() {
        let Some(name) = word.strip_prefix("--") else {
            continue;
        };
        let Some((_, valued)) = cmd.flags.iter().find(|(n, _)| n == name) else {
            return Some(format!("unknown flag {word}"));
        };
        if seen.contains(&name) {
            return Some(format!("{word} given twice"));
        }
        seen.push(name);
        if *valued {
            match words.peek() {
                Some(v) if !v.starts_with("--") => {
                    words.next();
                }
                _ => return Some(format!("{word} without a value")),
            }
        }
    }
    None
}

#[test]
fn every_generated_argv_exits_cleanly() {
    let cmds = commands_from_help();
    assert!(cmds.len() >= 18, "help lists every command");
    assert!(cmds.iter().any(|c| c.name == "figure" && c.operands == 1));
    let plan = format!("{}/packs/faults/9-combo.toml", env!("CARGO_MANIFEST_DIR"));
    let root = std::env::temp_dir().join(format!("tracemod-argv-{}", std::process::id()));
    let real = real_artifacts();
    let mut rng = Rng(0x7ace_0d00);
    let mut exits = [0u32; 3];
    for case in 0..CASES {
        let cmd = &cmds[rng.below(cmds.len())];
        let cwd: PathBuf = root.join(case.to_string());
        std::fs::create_dir_all(&cwd).unwrap();
        if ["alerts", "obs-report", "diff-runs"].contains(&cmd.name.as_str()) {
            random_run_dir(&mut rng, &cwd.join("run_a"), &real);
            random_run_dir(&mut rng, &cwd.join("run_b"), &real);
        }
        random_rules(&mut rng, &cwd.join("rules.toml"));
        let argv = random_argv(&mut rng, cmd, &plan);
        let out = tracemod(&cwd, &argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let code = out.status.code();
        assert!(
            matches!(code, Some(0..=2)) && !stderr.contains("panicked"),
            "case {case}: {argv:?} exited {code:?}; stderr:\n{stderr}"
        );
        exits[code.unwrap() as usize] += 1;
        if cmd.name == "figure" {
            assert_eq!(code, Some(2), "case {case}: {argv:?} ran a figure");
        }
        match must_be_usage_error(cmd, &argv) {
            Some(why) => assert_eq!(code, Some(2), "case {case}: {argv:?} has {why}"),
            None => assert!(
                !stderr.contains("unknown flag"),
                "case {case}: {argv:?}: a flag from help was rejected:\n{stderr}"
            ),
        }
    }
    std::fs::remove_dir_all(&root).ok();
    // The cases reach past the parser: some run, some fail at runtime.
    assert!(exits.iter().all(|&n| n > 0), "exit 0/1/2 counts: {exits:?}");
}
