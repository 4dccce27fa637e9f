//! `tracemod` — command-line front end for the trace-modulation
//! pipeline: collection, distillation and modulation, plus the tools
//! that read and compare the evidence runs leave behind.
//!
//! `tracemod help` lists every command with its operands and flags,
//! each flag with its default. Both come from the `COMMANDS` table
//! below, the one place a flag is declared: it drives parsing, defaults,
//! value checks, the unknown-flag error and the help text.
//!
//! Run evidence goes into one run directory per run (`--out DIR`, see
//! [`obs::run_dir`]), which the readers (`obs-report`, `alerts`,
//! `diff-runs`) take as a unit. Usage errors exit 2 and runtime
//! failures exit 1, each with a message and never with a panic.

use distill::{distill_stream, DistillConfig, WindowConfig};
use emu::report::plan_metrics_text;
use emu::{fleet_alerts, fleet_run_chaos, FigureOpts, FleetPlan, FIGURES};
use emu::{
    live_modulated_run, live_run, modulated_run, Benchmark, CellKind, Exec, LiveModOutcome,
    RunConfig, TrialCell, TrialPlan,
};
use faultkit::{events_to_jsonl, Fault, FaultPlan};
use modulate::TickClock;
use netsim::SimDuration;
use obs::alerts::parse_fault_stamps;
use obs::bench::{parse_bench_jsonl, BenchDiff, BenchDiffConfig, OverheadGate};
use obs::flight::PacketId;
use obs::run_dir::{self, Artifact, DirDiff};
use obs::{
    diff_artifacts, evaluate_alerts, AlertInputs, DiffOptions, FidelityThresholds, FleetReport,
    RuleSet, RunManifest, SamplePoint, Severity, TelemetryConfig,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::str::FromStr;
use tracekit::io::{read_replay, read_trace, write_replay, write_trace};
use tracekit::{ReplayTrace, TraceFileStream};
use wavelan::{Scenario, ScenarioPack};
use Kind::{Positive, Switch, Text, F64, U64};

/// A command failure: usage errors exit 2, runtime failures exit 1.
enum CliError {
    /// Bad invocation (unknown flag, missing argument, unknown name).
    Usage(String),
    /// The invocation was fine but the work failed (I/O, parse).
    Runtime(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }

    fn runtime(msg: impl Into<String>) -> CliError {
        CliError::Runtime(msg.into())
    }
}

type CliResult = Result<(), CliError>;

/// How a flag's value is read.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Takes no value: present or absent.
    Switch,
    /// Any text.
    Text,
    /// An integer of at least 1.
    Positive,
    /// An integer of at least 0.
    U64,
    /// A finite decimal number.
    F64,
}

impl Kind {
    /// The value placeholder in the help text, and what it stands for.
    fn metavar(self) -> (&'static str, &'static str) {
        match self {
            Switch => ("", "no value"),
            Text => ("TEXT", "text"),
            Positive => ("N", "a positive integer"),
            U64 => ("INT", "a non-negative integer"),
            F64 => ("NUM", "a finite number"),
        }
    }

    /// Reject a value this kind cannot hold.
    fn check(self, flag: &str, value: &str) -> CliResult {
        let int = value.parse::<u64>();
        let ok = match self {
            Switch | Text => true,
            Positive if int == Ok(0) => {
                return Err(CliError::usage(format!("--{flag} must be positive")))
            }
            Positive | U64 => int.is_ok(),
            F64 => value.parse::<f64>().is_ok_and(f64::is_finite),
        };
        if ok {
            return Ok(());
        }
        Err(CliError::usage(format!(
            "invalid value for --{flag}: '{value}' (expected {})",
            self.metavar().1
        )))
    }
}

/// One flag of one command: its name, value kind, default (`""` for
/// none), largest integer value and help line. Written nowhere else.
#[derive(Clone, Copy)]
struct Flag {
    name: &'static str,
    kind: Kind,
    default: &'static str,
    required: bool,
    max: u64,
    help: &'static str,
}

/// One subcommand: the operands it takes (the parser caps their count;
/// [`Args::operand`] reports a missing one), its flag groups and its
/// body.
struct Command {
    name: &'static str,
    operands: &'static [&'static str],
    run: fn(&Args) -> CliResult,
    flags: &'static [&'static [Flag]],
    about: &'static str,
}

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }
}

/// The command table. Groups of flags that several commands share are
/// declared once; the table is left unformatted so each row stays on
/// one line.
#[rustfmt::skip]
mod table {
    use super::*;

    /// An optional flag, with its default (`""` for none).
    const fn flag(name: &'static str, kind: Kind, default: &'static str, help: &'static str) -> Flag {
        Flag { name, kind, default, required: false, max: u64::MAX, help }
    }

    /// A flag every invocation must give.
    const fn need(name: &'static str, kind: Kind, help: &'static str) -> Flag {
        Flag { name, kind, default: "", required: true, max: u64::MAX, help }
    }

    const fn cmd(name: &'static str, operands: &'static [&'static str], run: fn(&Args) -> CliResult,
                 flags: &'static [&'static [Flag]], about: &'static str) -> Command {
        Command { name, operands, run, flags, about }
    }

    const SCENARIO_HELP: &str = "wean, porter, flagstaff, chatterbox, or a TOML pack (*.toml)";
    const SCENARIO: &[Flag] = &[
        flag("scenario", Text, "", SCENARIO_HELP),
        flag("scenario-file", Text, "", "custom scenario JSON (see dump-scenario), in place of --scenario"),
        Flag { max: wavelan::MAX_DURATION_SECS, ..flag("duration-secs", Positive, "", "shorten or stretch the traversal") },
    ];
    /// [`SCENARIO`], defaulting to the Porter walk.
    const PORTER: &[Flag] = &[flag("scenario", Text, "porter", SCENARIO_HELP), SCENARIO[1], SCENARIO[2]];
    const BENCHMARK_HELP: &str = "web, ftp-send, ftp-recv or andrew";
    const BENCHMARK: &[Flag] = &[need("benchmark", Text, BENCHMARK_HELP)];
    /// [`BENCHMARK`], defaulting to the Web benchmark.
    const WEB: &[Flag] = &[flag("benchmark", Text, "web", BENCHMARK_HELP)];
    const TRIAL: &[Flag] = &[flag("trial", U64, "1", "trial number (seeds the run)")];
    const WINDOW: &[Flag] = &[
        flag("window-secs", Positive, "5", "distillation sliding-window width"),
        flag("horizon", U64, "30", "probe groups a group may trail before it is retired"),
    ];
    const OUT_FILE: &[Flag] = &[need("out", Text, "file to write")];
    const RUN_DIR: &[Flag] = &[flag("out", Text, "", "run directory to write (missing or empty)")];
    const JOBS: &[Flag] = &[flag("jobs", Positive, "1", "worker threads")];

    const COLLECT: &[Flag] = &[flag("target-out", Text, "", "also write the target's trace (two-sided)")];
    const INSPECT: &[Flag] = &[flag("records", U64, "0", "also list this many trace records")];
    const REPLAY: &[Flag] = &[flag("tick-ms", U64, "10", "modulation clock tick (0 = ideal clock)")];
    const OBS_REPORT: &[Flag] = &[flag("check", Switch, "", "exit 1 when the fidelity thresholds fail")];
    const JOURNEY: &[Flag] = &[
        flag("packet-id", U64, "", "the packet to follow"),
        flag("window", Text, "", "T0..T1 seconds: every record in the window instead"),
    ];
    const BENCH_DIFF: &[Flag] = &[
        flag("baseline", Text, "BENCH_baseline.json", "baseline JSONL"),
        flag("json", Switch, "", "machine-readable verdicts"),
        flag("tolerance", F64, "3", "default allowed slowdown ratio (at least 1)"),
        flag("overhead", Text, "", "BASE=VARIANT:R gates VARIANT's same-run median at R x BASE"),
        flag("check", Switch, "", "exit 1 on a regression"),
    ];
    const CHAOS: &[Flag] = &[
        need("seed", U64, "fault-injection seed"),
        need("plan", Text, "fault plan JSON (see packs/faults/)"),
    ];
    const CHAOS_RUN: &[Flag] = &[
        flag("trials", Positive, "1", "consecutive trials from --trial"),
        flag("fault-budget", U64, "", "exit 1 when more faults are injected"),
        flag("check", Switch, "", "exit 1 when a trial fails the fidelity thresholds"),
    ];
    const FLEET: &[Flag] = &[
        flag("clients", Positive, "1000", "mobile clients"),
        flag("seed", U64, "7", "fleet plan seed"),
        flag("shards", Positive, "1", "engines the clients are split across"),
        flag("stations", Positive, "", "base stations (default: one per 32 clients)"),
        flag("probe-interval-ms", Positive, "1000", "probe period"),
        flag("fault-plan", Text, "", "fault plan JSON"),
        flag("fault-seed", U64, "42", "fault-injection seed for --fault-plan"),
        flag("telemetry-interval-secs", Positive, "", "sample telemetry this often"),
        flag("profile", Switch, "", "self-profile (profile.txt)"),
        flag("alerts", Text, "", "alert rules: builtin, or a TOML rule file"),
        flag("alerts-baseline", Text, "", "baseline run directory for delta rules"),
        flag("check", Switch, "", "exit 1 when the fidelity gate or an alert fails"),
    ];
    const ALERTS: &[Flag] = &[
        need("rules", Text, "builtin, or a TOML rule file"),
        flag("baseline", Text, "", "baseline run directory for delta rules"),
        flag("min-severity", Text, "warn", "floor for --check: info, warn or critical"),
        flag("check", Switch, "", "exit 1 on an active alert at or above the floor"),
    ];
    const FIGURE: &[Flag] = &[
        flag("trials", Positive, "4", "trials per cell"),
        Flag { max: wavelan::MAX_DURATION_SECS, ..flag("duration-secs", Positive, "", "cap each scenario traversal (fig2to5 to fig8)") },
    ];
    const DIFF_RUNS: &[Flag] = &[
        flag("shards", Positive, "", "name the shard owning a divergent client"),
        flag("check", Switch, "", "exit 1 on divergence"),
    ];

    /// Every subcommand, in the order `tracemod help` lists them.
    pub(super) const COMMANDS: &[Command] = &[
        cmd("scenarios", &[], cmd_scenarios, &[],
            "list the built-in scenarios and the registered channel-model families"),
        cmd("dump-scenario", &[], cmd_dump_scenario, &[SCENARIO],
            "print a scenario as editable JSON (input for --scenario-file)"),
        cmd("collect", &[], cmd_collect, &[SCENARIO, TRIAL, OUT_FILE, COLLECT],
            "collect a trace of a scenario"),
        cmd("distill", &["<trace>"], cmd_distill, &[OUT_FILE, WINDOW],
            "distill a trace into a replay trace, streaming in bounded memory"),
        cmd("inspect", &["<file>"], cmd_inspect, &[INSPECT], "summarize a trace or replay file"),
        cmd("replay", &["<replay>"], cmd_replay, &[BENCHMARK, TRIAL, REPLAY],
            "run a benchmark under modulation by a replay trace"),
        cmd("live", &[], cmd_live, &[SCENARIO, BENCHMARK, TRIAL],
            "run a benchmark live on the wireless scenario"),
        cmd("live-pipeline", &[], cmd_live_pipeline, &[SCENARIO, BENCHMARK, TRIAL, WINDOW, RUN_DIR],
            "collect, distill and modulate concurrently (the run directory gets manifest.json)"),
        cmd("obs-report", &["<run-dir>"], cmd_obs_report, &[OBS_REPORT],
            "print a run directory's report.json, else its manifest.json, as markdown"),
        cmd("trace-export", &[], cmd_trace_export, &[PORTER, WEB, TRIAL, WINDOW, OUT_FILE],
            "run the live pipeline with the flight recorder; export Perfetto JSON"),
        cmd("journey", &[], cmd_journey, &[PORTER, WEB, TRIAL, WINDOW, JOURNEY],
            "run the live pipeline; print one packet's causal timeline\n\
             (default: the packet covering most stages)"),
        cmd("bench-diff", &["<current.jsonl>"], cmd_bench_diff, &[BENCH_DIFF],
            "compare criterion JSONL against a baseline"),
        cmd("chaos", &[], cmd_chaos, &[CHAOS, PORTER, WEB, TRIAL, WINDOW, JOBS, RUN_DIR, CHAOS_RUN],
            "run the live pipeline under a deterministic fault plan\n\
             (the run directory gets manifests.jsonl and faults.jsonl)"),
        cmd("fleet", &[], cmd_fleet, &[FLEET, PORTER, JOBS, RUN_DIR],
            "run mobile clients under one fleet engine (the run directory gets manifests.jsonl,\n\
             report.json, faults.jsonl, and per flag the telemetry, profile and alert files)"),
        cmd("alerts", &["<run-dir>"], cmd_alerts, &[ALERTS, RUN_DIR],
            "evaluate SLO alert rules over a run directory's telemetry, report and faults"),
        cmd("diff-runs", &["A", "B"], cmd_diff_runs, &[DIFF_RUNS],
            "report the first field where two runs diverge: two artifact files, or two\n\
             run directories compared artifact by artifact in causal order"),
        cmd("figure", &["<name>"], cmd_figure, &[FIGURE, JOBS],
            "print one of the paper's figures or ablations: fig1, fig2to5, fig6, fig7, fig8,\n\
             ablation-tick, ablation-window or ablation-symmetry (plan metrics on stderr)"),
        cmd("help", &[], cmd_help, &[], "print this usage and exit 0 (also --help anywhere, or -h)"),
    ];
}
use table::COMMANDS;

/// The usage text for `cmds`, generated from their table rows.
fn usage(cmds: &[Command]) -> String {
    let mut s =
        String::from("usage: tracemod <command> [operands] [--flag VALUE ...]\n\ncommands:\n");
    for cmd in cmds {
        let _ = writeln!(s, "  {}", [&[cmd.name], cmd.operands].concat().join(" "));
        for line in cmd.about.lines() {
            let _ = writeln!(s, "      {}", line.trim_start());
        }
        for f in cmd.flags() {
            let spec = format!("--{} {}", f.name, f.kind.metavar().0);
            let note = match (f.required, f.default) {
                (true, _) => " (required)".to_string(),
                (false, "") => String::new(),
                (false, d) => format!(" [default: {d}]"),
            };
            let note = match f.max {
                u64::MAX => note,
                max => format!("{note} [max: {max}]"),
            };
            let _ = writeln!(s, "      {:<28} {}{note}", spec.trim_end(), f.help);
        }
    }
    s.push_str(
        "\nTEXT is any text, N a positive integer, INT a non-negative integer, NUM a number.\n\
         Traces and replays are binary files. A scenario pack fleet splits its clients across\n\
         the pack's weighted model mix; single-channel commands run its first model. One run\n\
         directory holds one run.\n",
    );
    s
}

/// A parsed invocation of one command: its operands and the flags
/// given, each checked against the command's table.
struct Args {
    cmd: &'static Command,
    operands: Vec<String>,
    given: Vec<(&'static Flag, String)>,
}

impl Args {
    /// Parse the words after the command name. A switch never takes a
    /// value; any other flag takes the next word, which must not itself
    /// be a flag.
    fn parse(cmd: &'static Command, words: &[String]) -> Result<Args, CliError> {
        let mut args = Args {
            cmd,
            operands: Vec::new(),
            given: Vec::new(),
        };
        let mut words = words.iter().peekable();
        while let Some(word) = words.next() {
            let Some(name) = word.strip_prefix("--") else {
                if args.operands.len() == cmd.operands.len() {
                    return Err(CliError::usage(format!("unexpected argument '{word}'")));
                }
                args.operands.push(word.clone());
                continue;
            };
            let Some(f) = cmd.flags().find(|f| f.name == name) else {
                let allowed: Vec<String> = cmd.flags().map(|f| format!("--{}", f.name)).collect();
                let allowed = if allowed.is_empty() {
                    "none".into()
                } else {
                    allowed.join(", ")
                };
                return Err(CliError::usage(format!(
                    "unknown flag --{name} (allowed: {allowed})"
                )));
            };
            if args.given.iter().any(|(g, _)| g.name == name) {
                return Err(CliError::usage(format!("--{name} given twice")));
            }
            let value = match f.kind {
                Switch => String::new(),
                _ => (words.next_if(|v| !v.starts_with("--")).cloned())
                    .ok_or_else(|| CliError::usage(format!("--{name} needs a value")))?,
            };
            f.kind.check(name, &value)?;
            if value.parse::<u64>().is_ok_and(|n| n > f.max) {
                let cap = f.max;
                return Err(CliError::usage(format!(
                    "--{name}: '{value}' is above the cap of {cap}"
                )));
            }
            args.given.push((f, value));
        }
        match cmd
            .flags()
            .find(|f| f.required && args.get(f.name).is_none())
        {
            Some(f) => Err(missing(f.name)),
            None => Ok(args),
        }
    }

    /// Operand `i` (0 = the first after the command name).
    fn operand(&self, i: usize) -> Result<&str, CliError> {
        let missing = || CliError::usage(format!("missing {}", self.cmd.operands[i]));
        self.operands.get(i).map(String::as_str).ok_or_else(missing)
    }

    /// The flag's value as given, else its default; `None` if neither.
    fn get(&self, name: &str) -> Option<&str> {
        if let Some((_, v)) = self.given.iter().find(|(f, _)| f.name == name) {
            return Some(v);
        }
        let f = self.cmd.flags().find(|f| f.name == name);
        let f = f.unwrap_or_else(|| panic!("--{name} is not a {} flag", self.cmd.name));
        (!f.default.is_empty()).then_some(f.default)
    }

    /// Was the switch given?
    fn on(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The value of a required or defaulted flag.
    fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name).ok_or_else(|| missing(name))
    }

    /// The parsed value of an optional flag. Parsing into a narrower
    /// type than the kind's is the range check.
    fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| out_of_range(name, v)))
            .transpose()
    }

    /// The parsed value of a required or defaulted flag.
    fn num<T: FromStr>(&self, name: &str) -> Result<T, CliError> {
        self.opt(name)?.ok_or_else(|| missing(name))
    }

    /// A duration flag counted in `unit`s. A count the nanosecond clock
    /// cannot hold is out of range.
    fn time(&self, name: &str, unit: SimDuration) -> Result<SimDuration, CliError> {
        let n: u64 = self.num(name)?;
        let ns = n.checked_mul(unit.as_nanos());
        ns.map(SimDuration::from_nanos)
            .ok_or_else(|| out_of_range(name, &n.to_string()))
    }
}

fn missing(name: &str) -> CliError {
    CliError::usage(format!("missing required flag --{name}"))
}

fn out_of_range(name: &str, value: &str) -> CliError {
    CliError::usage(format!("--{name}: '{value}' is out of range"))
}

const SECOND: SimDuration = SimDuration::from_secs(1);
const MILLISECOND: SimDuration = SimDuration::from_millis(1);

/// Resolve `--scenario`/`--scenario-file` and `--duration-secs`, also
/// returning the [`ScenarioPack`] when `--scenario` named a pack file
/// (`*.toml`): fleet runs use the pack's full weighted model mix, while
/// single-channel commands run the pack's scenario stub (its first
/// model spec).
fn scenario_arg(args: &Args) -> Result<(Scenario, Option<ScenarioPack>), CliError> {
    let (mut sc, pack) = if let Some(path) = args.get("scenario-file") {
        let json = std::fs::read_to_string(path)
            .map_err(|e| CliError::runtime(format!("read {path}: {e}")))?;
        let sc = wavelan::ScenarioSpec::from_json(&json)
            .and_then(wavelan::ScenarioSpec::into_scenario)
            .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
        (sc, None)
    } else {
        let name = args.require("scenario")?;
        if name.ends_with(".toml") {
            // A bad pack is a bad invocation (exit 2): the run has not
            // started yet.
            let text = std::fs::read_to_string(name)
                .map_err(|e| CliError::usage(format!("read scenario pack {name}: {e}")))?;
            let pack = wavelan::load_pack(name, &text).map_err(CliError::usage)?;
            (pack.scenario(), Some(pack))
        } else {
            let sc = Scenario::by_name(name).ok_or_else(|| {
                CliError::usage(format!(
                    "unknown scenario '{name}' (try: wean, porter, flagstaff, chatterbox, \
                     or a TOML scenario-pack path ending in .toml)"
                ))
            })?;
            (sc, None)
        }
    };
    if args.get("duration-secs").is_some() {
        sc.duration = args.time("duration-secs", SECOND)?;
    }
    Ok((sc, pack))
}

fn cmd_dump_scenario(args: &Args) -> CliResult {
    let (sc, _) = scenario_arg(args)?;
    println!("{}", wavelan::ScenarioSpec::from_scenario(&sc).to_json());
    Ok(())
}

fn benchmark_arg(args: &Args) -> Result<Benchmark, CliError> {
    match args.require("benchmark")? {
        "web" => Ok(Benchmark::Web),
        "ftp-send" => Ok(Benchmark::FtpSend),
        "ftp-recv" => Ok(Benchmark::FtpRecv),
        "andrew" => Ok(Benchmark::Andrew),
        other => Err(CliError::usage(format!(
            "unknown benchmark '{other}' (try: web, ftp-send, ftp-recv, andrew)"
        ))),
    }
}

fn cmd_scenarios(_: &Args) -> CliResult {
    println!(
        "{:<12} {:>9} {:>12} {:>8}  notes",
        "name", "duration", "checkpoints", "asym"
    );
    for sc in Scenario::all() {
        println!(
            "{:<12} {:>8.0}s {:>12} {:>8.2}  {}",
            sc.name,
            sc.duration.as_secs_f64(),
            sc.checkpoints.len(),
            sc.loss_asym_up,
            if sc.stationary {
                "stationary (cross traffic)"
            } else {
                "mobile traversal"
            }
        );
    }
    println!("\nchannel-model families (for --scenario <pack.toml>):");
    for f in wavelan::Registry::builtin().families() {
        println!(
            "{:<12} {}  [params: {}]",
            f.name,
            f.describe,
            if f.param_keys.is_empty() {
                "none".to_string()
            } else {
                f.param_keys.join(", ")
            }
        );
    }
    Ok(())
}

fn cmd_collect(args: &Args) -> CliResult {
    let (sc, _) = scenario_arg(args)?;
    let trial: u32 = args.num("trial")?;
    let cfg = RunConfig::default();
    let write = |path: &str, trace: &tracekit::Trace| {
        write_trace(Path::new(path), trace)
            .map_err(|e| CliError::runtime(format!("write {path}: {e}")))?;
        eprintln!("wrote {path} ({} records)", trace.records.len());
        Ok::<_, CliError>(())
    };
    eprintln!("collecting trace of '{}' trial {trial}...", sc.name);
    if let Some(target_out) = args.get("target-out") {
        let (mobile, target) = emu::collect_trace_two_sided(&sc, trial, &cfg);
        write(args.require("out")?, &mobile)?;
        write(target_out, &target)
    } else {
        write(args.require("out")?, &emu::collect_trace(&sc, trial, &cfg))
    }
}

fn distill_cfg(args: &Args) -> Result<DistillConfig, CliError> {
    Ok(DistillConfig {
        window: WindowConfig {
            width: args.time("window-secs", SECOND)?,
            ..WindowConfig::default()
        },
        reorder_horizon: args.num("horizon")?,
    })
}

fn cmd_distill(args: &Args) -> CliResult {
    let input = args.operand(0)?;
    let out = PathBuf::from(args.require("out")?);
    let cfg = distill_cfg(args)?;
    // The trace is read chunk by chunk, so memory stays O(window)
    // however large it is.
    let mut stream = TraceFileStream::open(Path::new(input))
        .map_err(|e| CliError::runtime(format!("open {input}: {e}")))?;
    let header = stream
        .header()
        .map_err(|e| CliError::runtime(format!("read {input}: {e}")))?;
    let mut replay = ReplayTrace::new(&format!("{} trial {}", header.scenario, header.trial));
    let stats = distill_stream(&mut stream, &cfg, &mut replay)
        .map_err(|e| CliError::runtime(format!("distill {input}: {e}")))?;
    write_replay(&out, &replay)
        .map_err(|e| CliError::runtime(format!("write {}: {e}", out.display())))?;
    eprintln!(
        "distilled {} triplets ({} solved, {} corrected) → {} tuples → {}",
        stats.triplets,
        stats.solved,
        stats.corrected,
        replay.tuples.len(),
        out.display()
    );
    Ok(())
}

fn cmd_inspect(args: &Args) -> CliResult {
    let input = args.operand(0)?;
    let path = Path::new(input);
    // Try replay trace first (cheap), then collected trace.
    if let Ok(replay) = read_replay(path) {
        println!("replay trace: {}", replay.source);
        println!("  tuples:        {}", replay.tuples.len());
        println!(
            "  duration:      {:.1} s",
            replay.total_duration().as_secs_f64()
        );
        println!(
            "  mean latency:  {:.2} ms",
            replay.mean_latency().as_millis_f64()
        );
        println!(
            "  mean Vb:       {:.0} ns/B ({:.0} kb/s bottleneck)",
            replay.mean_vb(),
            8e6 / replay.mean_vb().max(1e-9)
        );
        println!("  mean loss:     {:.2}%", replay.mean_loss() * 100.0);
        let worst = replay.tuples.iter().map(|t| t.loss).fold(0.0f64, f64::max);
        println!("  worst loss:    {:.1}%", worst * 100.0);
        return Ok(());
    }
    match read_trace(path) {
        Ok(trace) => {
            println!(
                "collected trace: host '{}', scenario '{}', trial {}",
                trace.host, trace.scenario, trace.trial
            );
            println!("  records:        {}", trace.records.len());
            println!("  span:           {:.1} s", trace.span_ns() as f64 / 1e9);
            println!("  packets:        {}", trace.packets().count());
            println!("  device samples: {}", trace.device_samples().count());
            println!("  lost (overrun): {}", trace.lost_records());
            let echoes = trace
                .packets()
                .filter(|p| matches!(p.proto, tracekit::ProtoInfo::IcmpEcho { .. }))
                .count();
            let replies = trace
                .packets()
                .filter(|p| matches!(p.proto, tracekit::ProtoInfo::IcmpEchoReply { .. }))
                .count();
            println!("  probes:         {echoes} echo, {replies} reply");
            // tcpdump-style record listing.
            let n: usize = args.num("records")?;
            for r in trace.records.iter().take(n) {
                println!("  {}", format_record(r));
            }
            if n > 0 && trace.records.len() > n {
                println!("  ... ({} more records)", trace.records.len() - n);
            }
            Ok(())
        }
        Err(e) => Err(CliError::runtime(format!(
            "{input}: not a trace or replay file ({e})"
        ))),
    }
}

/// One-line, tcpdump-flavoured rendering of a trace record.
fn format_record(r: &tracekit::TraceRecord) -> String {
    use tracekit::{Dir, ProtoInfo, TraceRecord};
    let ts = r.timestamp_ns() as f64 / 1e9;
    match r {
        TraceRecord::Packet(p) => {
            let dir = match p.dir {
                Dir::Out => ">",
                Dir::In => "<",
            };
            let proto = match &p.proto {
                ProtoInfo::IcmpEcho {
                    ident,
                    seq,
                    payload_len,
                    ..
                } => {
                    format!("icmp echo id {ident} seq {seq} len {payload_len}")
                }
                ProtoInfo::IcmpEchoReply {
                    ident, seq, rtt_ns, ..
                } => {
                    format!(
                        "icmp reply id {ident} seq {seq} rtt {:.2}ms",
                        *rtt_ns as f64 / 1e6
                    )
                }
                ProtoInfo::Udp {
                    src_port,
                    dst_port,
                    payload_len,
                } => {
                    format!("udp {src_port} > {dst_port} len {payload_len}")
                }
                ProtoInfo::Tcp {
                    src_port,
                    dst_port,
                    seq,
                    ack,
                    flags,
                    payload_len,
                } => {
                    let mut fl = String::new();
                    for (bit, ch) in [(1u8, 'F'), (2, 'S'), (4, 'R'), (8, 'P'), (16, '.')] {
                        if flags & bit != 0 {
                            fl.push(ch);
                        }
                    }
                    format!(
                        "tcp {src_port} > {dst_port} [{fl}] seq {seq} ack {ack} len {payload_len}"
                    )
                }
                ProtoInfo::Other { protocol } => format!("proto {protocol}"),
            };
            format!("{ts:12.6} {dir} {proto} ({}B wire)", p.wire_len)
        }
        TraceRecord::Device(d) => format!(
            "{ts:12.6} * device signal {} quality {} silence {}",
            d.signal, d.quality, d.silence
        ),
        TraceRecord::Overrun(o) => format!(
            "{ts:12.6} ! overrun: lost {} packet + {} device records",
            o.lost_packets, o.lost_device
        ),
    }
}

fn cmd_replay(args: &Args) -> CliResult {
    let input = args.operand(0)?;
    let replay = read_replay(Path::new(input))
        .map_err(|e| CliError::runtime(format!("read {input}: {e}")))?;
    let benchmark = benchmark_arg(args)?;
    let trial = args.num("trial")?;
    let tick = args.time("tick-ms", MILLISECOND)?;
    let cfg = RunConfig {
        // A zero resolution is the ideal clock.
        clock: TickClock::with_resolution(tick),
        ..RunConfig::default()
    };
    eprintln!(
        "running {} under modulation by '{}' (tick {} ms)...",
        benchmark.name(),
        replay.source,
        tick.as_millis_f64()
    );
    let r = modulated_run(&replay, trial, benchmark, &cfg);
    report_result(&r);
    Ok(())
}

fn cmd_live(args: &Args) -> CliResult {
    let (sc, _) = scenario_arg(args)?;
    let benchmark = benchmark_arg(args)?;
    let trial = args.num("trial")?;
    eprintln!(
        "running {} live on '{}' trial {trial}...",
        benchmark.name(),
        sc.name
    );
    let r = live_run(&sc, trial, benchmark, &RunConfig::default());
    report_result(&r);
    Ok(())
}

fn cmd_live_pipeline(args: &Args) -> CliResult {
    let out_dir = out_dir(args)?;
    let out = pipeline_run(args)?;
    report_result(&out.result);
    let s = &out.stats;
    eprintln!(
        "pipeline: {} tuples fed, {} consumed, peak backlog {}",
        s.tuples_fed, s.tuples_consumed, s.peak_backlog
    );
    match s.first_consumption_secs {
        Some(t) => eprintln!(
            "modulation began at t={t:.1}s, {:.1}s before collection finished",
            s.collection_secs - t
        ),
        None => eprintln!("modulation never consumed a tuple (collection too short?)"),
    }
    write_run_dir(
        out_dir.as_deref(),
        &[(Artifact::MANIFEST, out.manifest.to_json_pretty())],
    )
}

fn cmd_obs_report(args: &Args) -> CliResult {
    let dir = Path::new(args.operand(0)?);
    let th = FidelityThresholds::default();
    // A fleet run leaves an aggregate report; a live-pipeline run, one
    // run manifest.
    let (rendered, violations, gate_name) =
        if let Some(r) = read_artifact(dir, Artifact::REPORT, FleetReport::from_json)? {
            (r.render_markdown(), r.check(&th), "fleet fidelity gate")
        } else if let Some(m) = read_artifact(dir, Artifact::MANIFEST, RunManifest::from_json)? {
            (m.render_markdown(), m.check(&th), "fidelity self-check")
        } else {
            return Err(CliError::runtime(format!(
                "{}: no {} or {} to report on",
                dir.display(),
                Artifact::REPORT.file,
                Artifact::MANIFEST.file
            )));
        };
    print!("{rendered}");
    if args.on("check") {
        gate(gate_name, violations)?;
    }
    Ok(())
}

/// Fail with every violation listed, or report the gate passed.
fn gate(name: &str, violations: Vec<String>) -> CliResult {
    if violations.is_empty() {
        eprintln!("{name}: PASS");
        return Ok(());
    }
    Err(CliError::runtime(format!(
        "{name} failed:\n  - {}",
        violations.join("\n  - ")
    )))
}

/// The `--out DIR` run directory, if given. A directory that already
/// holds files is a bad invocation, refused before the run starts.
fn out_dir(args: &Args) -> Result<Option<PathBuf>, CliError> {
    let Some(dir) = args.get("out") else {
        return Ok(None);
    };
    run_dir::ensure_fresh(Path::new(dir)).map_err(CliError::usage)?;
    Ok(Some(PathBuf::from(dir)))
}

/// Write `artifacts` into the run directory, when there is one.
fn write_run_dir(dir: Option<&Path>, artifacts: &[(Artifact, String)]) -> CliResult {
    let Some(dir) = dir else {
        return Ok(());
    };
    let names = artifacts
        .iter()
        .map(|(a, _)| a.file)
        .collect::<Vec<_>>()
        .join(", ");
    run_dir::write(dir, artifacts)
        .map_err(|e| CliError::runtime(format!("write {}: {e}", dir.display())))?;
    eprintln!("wrote {names} → {}", dir.display());
    Ok(())
}

/// Read and parse one artifact of a run directory (`None` when the
/// directory does not hold it).
fn read_artifact<T, E: std::fmt::Display>(
    dir: &Path,
    artifact: Artifact,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<Option<T>, CliError> {
    let path = dir.join(artifact.file);
    let text = run_dir::read(dir, artifact)
        .map_err(|e| CliError::runtime(format!("read {}: {e}", path.display())))?;
    text.map(|t| parse(&t).map_err(|e| CliError::runtime(format!("{}: {e}", path.display()))))
        .transpose()
}

/// Runner-stripped manifests as JSONL, one per line: byte-comparable
/// across `--jobs` and `--shards`.
fn manifests_jsonl<'a>(manifests: impl IntoIterator<Item = &'a RunManifest>) -> String {
    manifests
        .into_iter()
        .map(|m| m.deterministic_json() + "\n")
        .collect()
}

/// Run the live pipeline (collect, distill and modulate at once) under
/// the empty fault plan: the clean run that `live-pipeline` reports on
/// and the flight-recorder commands observe.
fn pipeline_run(args: &Args) -> Result<LiveModOutcome, CliError> {
    let (sc, _) = scenario_arg(args)?;
    let benchmark = benchmark_arg(args)?;
    let trial = args.num("trial")?;
    let dcfg = distill_cfg(args)?;
    eprintln!(
        "live pipeline: collecting '{}' trial {trial} while running {} modulated...",
        sc.name,
        benchmark.name()
    );
    Ok(live_modulated_run(
        &sc,
        trial,
        benchmark,
        &dcfg,
        &RunConfig::default(),
        0,
        &FaultPlan::new(),
        0,
    ))
}

fn cmd_trace_export(args: &Args) -> CliResult {
    let out_path = PathBuf::from(args.require("out")?);
    let outcome = pipeline_run(args)?;
    let json = outcome.flight.to_chrome_trace();
    std::fs::write(&out_path, &json)
        .map_err(|e| CliError::runtime(format!("write {}: {e}", out_path.display())))?;
    outcome.flight.with(|r| {
        eprintln!(
            "wrote {} ({} events, {} packets, {} evicted) — load in Perfetto or chrome://tracing",
            out_path.display(),
            r.len(),
            r.packets(),
            r.evicted()
        );
    });
    Ok(())
}

/// Parse `--window T0..T1` (finite seconds, decimals allowed,
/// 0 <= T0 <= T1) into ns bounds.
fn window_arg(spec: &str) -> Result<(u64, u64), CliError> {
    let bad = || {
        CliError::usage(format!(
            "invalid --window '{spec}' (expected T0..T1 in seconds)"
        ))
    };
    let (a, b) = spec.split_once("..").ok_or_else(bad)?;
    let t0: f64 = a.trim().parse().map_err(|_| bad())?;
    let t1: f64 = b.trim().parse().map_err(|_| bad())?;
    let ordered = 0.0 <= t0 && t0 <= t1 && t1.is_finite();
    if !ordered {
        return Err(bad());
    }
    Ok(((t0 * 1e9) as u64, (t1 * 1e9) as u64))
}

fn cmd_journey(args: &Args) -> CliResult {
    if args.get("packet-id").is_some() && args.get("window").is_some() {
        return Err(CliError::usage(
            "--packet-id and --window are mutually exclusive",
        ));
    }
    let window = args.get("window").map(window_arg).transpose()?;
    let packet_id = args.opt("packet-id")?;
    let outcome = pipeline_run(args)?;
    let rendered = outcome.flight.with(|r| -> Result<String, CliError> {
        if let Some((t0_ns, t1_ns)) = window {
            return Ok(r.render_window(t0_ns, t1_ns));
        }
        let id = match packet_id {
            Some(n) => PacketId(n),
            None => r
                .best_packet()
                .ok_or_else(|| CliError::runtime("no packets recorded"))?,
        };
        let journey = r
            .journey(id)
            .ok_or_else(|| CliError::runtime(format!("no retained records for packet {id}")))?;
        Ok(journey.render_text())
    })?;
    print!("{rendered}");
    Ok(())
}

fn cmd_bench_diff(args: &Args) -> CliResult {
    let current_path = args.operand(0)?;
    let baseline_path = args.require("baseline")?;
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| CliError::runtime(format!("read {p}: {e}")))
            .and_then(|t| parse_bench_jsonl(&t).map_err(|e| CliError::runtime(format!("{p}: {e}"))))
    };
    let baseline = read(baseline_path)?;
    let current = read(current_path)?;
    let cfg = BenchDiffConfig {
        default_tolerance_ratio: args.num("tolerance")?,
        ..BenchDiffConfig::default()
    };
    if cfg.default_tolerance_ratio < 1.0 {
        return Err(CliError::usage("--tolerance must be >= 1.0"));
    }
    let diff = BenchDiff::compare(&baseline, &current, &cfg);
    if args.on("json") {
        println!("{}", diff.to_json());
    } else {
        print!("{}", diff.render_text());
    }
    if args.on("check") && !diff.pass() {
        let names: Vec<&str> = diff.failures().map(|v| v.name.as_str()).collect();
        return Err(CliError::runtime(format!(
            "benchmark regression gate failed: {}",
            names.join(", ")
        )));
    }
    // Same-run overhead gates: both benchmarks come from *current*, so
    // the ratio is immune to cross-run machine noise and can be tight.
    if let Some(spec) = args.get("overhead") {
        let gate = OverheadGate::parse(spec).map_err(CliError::usage)?;
        let ratio = gate.check(&current).map_err(CliError::runtime)?;
        eprintln!(
            "overhead gate: {} is {ratio:.3}x {} (max {:.3}x) — PASS",
            gate.variant, gate.base, gate.max_ratio
        );
    }
    Ok(())
}

/// One stderr line per injected fault, each after `prefix`.
fn print_faults(prefix: &str, faults: &[faultkit::FaultEvent]) {
    for ev in faults {
        let t = ev.t_virtual_ns as f64 / 1e9;
        eprintln!("[fault] {prefix}t={t:9.3}s {:<13} {}", ev.fault, ev.info);
    }
}

/// Load a fault plan. A bad plan file is a bad invocation, not a
/// mid-run failure: the run has not started yet, so both unreadable and
/// unparseable plans are usage errors (exit 2).
fn load_fault_plan(path: &str) -> Result<FaultPlan, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::usage(format!("read fault plan {path}: {e}")))?;
    FaultPlan::from_json(&text).map_err(|e| CliError::usage(format!("{path}: {e}")))
}

/// Load a `fleet --fault-plan`. The fleet applies only `kill_worker`
/// (see [`fleet_run_chaos`]), so a plan holding any other kind would
/// inject nothing; it is refused as a usage error instead.
fn load_fleet_fault_plan(path: &str) -> Result<FaultPlan, CliError> {
    let plan = load_fault_plan(path)?;
    let mut others: Vec<&str> = (plan.faults().iter())
        .filter(|f| !matches!(f, Fault::KillWorker { .. }))
        .map(Fault::name)
        .collect();
    others.sort_unstable();
    others.dedup();
    if !others.is_empty() {
        return Err(CliError::usage(format!(
            "{path}: the fleet applies only kill_worker faults, not {}",
            others.join(", ")
        )));
    }
    Ok(plan)
}

fn cmd_chaos(args: &Args) -> CliResult {
    let seed: u64 = args.num("seed")?;
    let fault_plan = load_fault_plan(args.require("plan")?)?;
    let out_dir = out_dir(args)?;
    let (sc, _) = scenario_arg(args)?;
    let benchmark = benchmark_arg(args)?;
    let trial0: u32 = args.num("trial")?;
    let trials: u32 = args.num("trials")?;
    if trial0.checked_add(trials - 1).is_none() {
        return Err(CliError::usage(
            "--trial plus --trials passes the last trial number",
        ));
    }
    let dcfg = distill_cfg(args)?;
    let jobs = args.num("jobs")?;

    eprintln!(
        "chaos: '{}' under {} with {} fault(s), seed {seed}, {} trial(s), {} worker(s)...",
        sc.name,
        benchmark.name(),
        fault_plan.len(),
        trials,
        jobs
    );
    let mut tplan = TrialPlan::new();
    for i in 0..trials {
        let trial = trial0 + i;
        tplan.push(TrialCell {
            label: format!("{}/{}/chaos#{trial}", sc.name, benchmark.name()),
            trial,
            cfg: RunConfig::default(),
            kind: CellKind::LiveModulated {
                scenario: sc.clone(),
                benchmark,
                distill: dcfg,
                seed,
                plan: fault_plan.clone(),
            },
        });
    }
    let results = tplan.run(&Exec::with_workers(jobs));
    let outcomes = results.live_modulated(sc.name, benchmark);

    let mut fault_log = String::new();
    let mut injected_total = 0u64;
    for (trial, o) in (trial0..).zip(&outcomes) {
        report_result(&o.result);
        print_faults(&format!("trial {trial} "), &o.faults);
        fault_log.push_str(&events_to_jsonl(&o.faults));
        let c = &o.counters;
        injected_total += c.injected_total();
        eprintln!(
            "chaos trial {trial}: {} fault(s) injected ({} quarantined records, {} truncated, \
             {} rejected timestamps), degraded: {}",
            c.injected_total(),
            c.quarantined_records,
            c.truncated_records,
            c.rejected_timestamps,
            if o.manifest.fidelity.degraded {
                "YES"
            } else {
                "no"
            }
        );
    }
    write_run_dir(
        out_dir.as_deref(),
        &[
            (Artifact::FAULTS, fault_log),
            (
                Artifact::MANIFESTS,
                manifests_jsonl(outcomes.iter().map(|o| &o.manifest)),
            ),
        ],
    )?;
    if let Some(budget) = args.opt::<u64>("fault-budget")? {
        if injected_total > budget {
            return Err(CliError::runtime(format!(
                "fault budget exceeded: {injected_total} faults injected > budget {budget}"
            )));
        }
    }
    if args.on("check") {
        let th = FidelityThresholds::default();
        let violations = (trial0..).zip(&outcomes).flat_map(|(trial, o)| {
            let violations = o.manifest.check(&th).into_iter();
            violations.map(move |v| format!("trial {trial}: {v}"))
        });
        gate("fidelity self-check under faults", violations.collect())?;
    }
    Ok(())
}

fn cmd_fleet(args: &Args) -> CliResult {
    let out_dir = out_dir(args)?;
    let (sc, pack) = scenario_arg(args)?;
    let jobs = args.num("jobs")?;
    let mut plan = FleetPlan::new(sc, args.num("clients")?)
        .with_seed(args.num("seed")?)
        .with_shards(args.num("shards")?)
        .with_probe_interval(args.time("probe-interval-ms", MILLISECOND)?);
    // A pack fleet mixes models across clients; single-model runs keep
    // the scenario path.
    plan.pack = pack;
    plan.stations = args.opt("stations")?.unwrap_or(plan.stations);
    // The interval switches the sampling plane on; the series is then
    // embedded in the report and written as telemetry.jsonl/.prom.
    if args.get("telemetry-interval-secs").is_some() {
        let interval_ns = args.time("telemetry-interval-secs", SECOND)?.as_nanos();
        plan = plan.with_telemetry(TelemetryConfig {
            interval_ns,
            ..TelemetryConfig::default()
        });
    }
    plan = plan.with_profile(args.on("profile"));
    let faults = (args.get("fault-plan").map(load_fleet_fault_plan))
        .transpose()?
        .unwrap_or_default();
    let fault_seed: u64 = args.num("fault-seed")?;
    let rules = args.get("alerts").map(load_rules).transpose()?;
    let baseline = read_baseline(args.get("alerts-baseline"))?;

    eprintln!(
        "fleet: {} clients × '{}' ({} stations, {} shard(s), {} worker(s))...",
        plan.clients, plan.scenario.name, plan.stations, plan.shards, jobs
    );
    let out = fleet_run_chaos(&plan, &Exec::with_workers(jobs), fault_seed, &faults);

    print!("{}", out.report.render_markdown());
    print_faults("", &out.faults);
    if let Some(r) = &out.report.runner {
        eprintln!(
            "engine: {:.0} events/s over {:.2}s wall; per-client peaks: {} queued events, {} packets in flight",
            r.records_per_sec, r.wall_secs, out.peak_queue_depth, out.peak_packets_live
        );
    }
    if let Some(prof) = &out.profile {
        eprint!("{}", prof.render_text());
    }
    let alerts = (rules.as_ref())
        .map(|rules| fleet_alerts(&out, rules, baseline.as_ref()))
        .transpose()
        .map_err(CliError::runtime)?;
    if let Some(alerts) = &alerts {
        eprintln!(
            "alerts: {} active, {} suppressed ({} rule(s) over {} boundaries)",
            alerts.active().count(),
            alerts.suppressed().count(),
            alerts.rules,
            alerts.boundaries
        );
    }
    if let Some(dir) = &out_dir {
        let mut artifacts = vec![
            (Artifact::FAULTS, events_to_jsonl(&out.faults)),
            (Artifact::MANIFESTS, manifests_jsonl(&out.manifests)),
            (Artifact::REPORT, out.report.to_json_pretty()),
        ];
        if let Some(tel) = &out.report.telemetry {
            artifacts.push((Artifact::TELEMETRY, tel.to_jsonl()));
            artifacts.push((Artifact::TELEMETRY_PROM, tel.to_prometheus()));
        }
        if let Some(prof) = &out.profile {
            artifacts.push((Artifact::PROFILE, prof.render_collapsed()));
        }
        if let Some(alerts) = &alerts {
            artifacts.push((Artifact::ALERTS, alerts.to_jsonl()));
            artifacts.push((Artifact::ALERTS_MD, alerts.render_markdown()));
        }
        write_run_dir(Some(dir), &artifacts)?;
    }
    if args.on("check") {
        gate(
            "fleet fidelity gate",
            out.report.check(&FidelityThresholds::default()),
        )?;
        if let Some(alerts) = &alerts {
            gate("fleet alert gate", alerts.check(Severity::Warn))?;
        }
    }
    Ok(())
}

/// Resolve a `--rules`/`--alerts` value: the literal `builtin`, or a
/// path to a TOML rule file (`[[rule]]` tables). Rules are compiled up
/// front so a bad rule file is a bad invocation (exit 2), not a mid-run
/// failure.
fn load_rules(spec: &str) -> Result<RuleSet, CliError> {
    if spec == "builtin" {
        return Ok(RuleSet::builtin());
    }
    let text = std::fs::read_to_string(spec)
        .map_err(|e| CliError::usage(format!("read rules {spec}: {e}")))?;
    let rules = RuleSet::from_toml(&text).and_then(|rules| rules.compile().map(|_| rules));
    rules.map_err(|e| CliError::usage(format!("{spec}: {e}")))
}

/// The fleet report of a baseline run directory (`--baseline`,
/// `--alerts-baseline`), which feeds delta rules.
fn read_baseline(dir: Option<&str>) -> Result<Option<FleetReport>, CliError> {
    let Some(dir) = dir else {
        return Ok(None);
    };
    read_artifact(Path::new(dir), Artifact::REPORT, FleetReport::from_json)?
        .map(Some)
        .ok_or_else(|| CliError::runtime(format!("baseline {dir} holds no report.json")))
}

fn cmd_alerts(args: &Args) -> CliResult {
    let rules = load_rules(args.require("rules")?)?;
    let out_dir = out_dir(args)?;
    let dir = Path::new(args.operand(0).map_err(|_| {
        CliError::usage("nothing to evaluate: pass a run directory (tracemod alerts <run-dir>)")
    })?);
    let report = read_artifact(dir, Artifact::REPORT, FleetReport::from_json)?;
    let baseline = read_baseline(args.get("baseline"))?;
    // The series comes from the exported telemetry.jsonl when the
    // directory holds one, else from the series embedded in the report.
    let series = read_artifact(dir, Artifact::TELEMETRY, |text| {
        text.lines()
            .enumerate()
            .filter(|(_, line)| !line.trim().is_empty())
            .map(|(i, line)| {
                serde_json::from_str::<SamplePoint>(line)
                    .map_err(|e| format!("line {}: {e}", i + 1))
            })
            .collect::<Result<Vec<_>, _>>()
    })?
    .or_else(|| Some(report.as_ref()?.telemetry.as_ref()?.series.clone()))
    .unwrap_or_default();
    if series.is_empty() && report.is_none() {
        return Err(CliError::usage(format!(
            "nothing to evaluate: {} holds no {} or {}",
            dir.display(),
            Artifact::TELEMETRY.file,
            Artifact::REPORT.file
        )));
    }
    let faults = read_artifact(dir, Artifact::FAULTS, parse_fault_stamps)?.unwrap_or_default();
    let alert_report = evaluate_alerts(
        &rules,
        &AlertInputs {
            series: &series,
            report: report.as_ref(),
            baseline: baseline.as_ref(),
            faults: &faults,
        },
    )
    .map_err(CliError::runtime)?;
    print!("{}", alert_report.render_markdown());
    write_run_dir(
        out_dir.as_deref(),
        &[
            (Artifact::ALERTS, alert_report.to_jsonl()),
            (Artifact::ALERTS_MD, alert_report.render_markdown()),
        ],
    )?;
    if args.on("check") {
        let floor = Severity::parse(args.require("min-severity")?).map_err(CliError::usage)?;
        gate("alert gate", alert_report.check(floor))?;
        eprintln!(
            "{} suppressed alert(s) attributed to faults",
            alert_report.suppressed().count()
        );
    }
    Ok(())
}

fn cmd_diff_runs(args: &Args) -> CliResult {
    let a_path = args
        .operand(0)
        .map_err(|_| CliError::usage("missing run artifacts: tracemod diff-runs A B"))?;
    let b_path = args
        .operand(1)
        .map_err(|_| CliError::usage("missing second run artifact: tracemod diff-runs A B"))?;
    let opts = DiffOptions {
        shards: args.opt("shards")?,
    };
    let (a_dir, b_dir) = (Path::new(a_path).is_dir(), Path::new(b_path).is_dir());
    let divergence = if a_dir && b_dir {
        match run_dir::diff_dirs(Path::new(a_path), Path::new(b_path), &opts)
            .map_err(|e| CliError::runtime(e.to_string()))?
        {
            DirDiff::Identical(0, _) => {
                return Err(CliError::runtime(format!(
                    "no deterministic artifacts in {a_path} or {b_path} to compare"
                )))
            }
            DirDiff::Identical(artifacts, records) => {
                println!(
                    "runs identical: {a_path} == {b_path} ({artifacts} artifact(s), \
                     {records} record(s))"
                );
                None
            }
            DirDiff::OneSided(artifact, in_a) => Some(format!(
                "{}: only in {}",
                artifact.file,
                if in_a { a_path } else { b_path }
            )),
            DirDiff::Diverged(artifact, d) => Some(format!("{}: {}", artifact.file, d.render())),
        }
    } else if a_dir || b_dir {
        return Err(CliError::usage(
            "diff-runs compares two files or two run directories, not one of each",
        ));
    } else {
        let a = std::fs::read_to_string(a_path)
            .map_err(|e| CliError::runtime(format!("read {a_path}: {e}")))?;
        let b = std::fs::read_to_string(b_path)
            .map_err(|e| CliError::runtime(format!("read {b_path}: {e}")))?;
        let divergence = diff_artifacts(&a, &b, &opts).map(|d| d.render());
        if divergence.is_none() {
            println!(
                "runs identical: {a_path} == {b_path} ({} record(s))",
                obs::diff::record_count(&a)
            );
        }
        divergence
    };
    if let Some(d) = divergence {
        println!("first divergence: {d}");
        if args.on("check") {
            return Err(CliError::runtime(format!(
                "runs diverge: {a_path} vs {b_path}"
            )));
        }
    }
    Ok(())
}

fn cmd_figure(args: &Args) -> CliResult {
    let names = || FIGURES.map(|(name, _)| name).join(", ");
    let name = args
        .operand(0)
        .map_err(|_| CliError::usage(format!("missing figure name (one of: {})", names())))?;
    let Some((_, figure)) = FIGURES.iter().find(|(n, _)| *n == name) else {
        return Err(CliError::usage(format!(
            "unknown figure '{name}' (one of: {})",
            names()
        )));
    };
    let duration = args
        .get("duration-secs")
        .map(|_| args.time("duration-secs", SECOND));
    let opts = FigureOpts {
        trials: args.num("trials")?,
        duration: duration.transpose()?,
    };
    let (text, metrics) = figure(&opts, &Exec::with_workers(args.num("jobs")?));
    print!("{text}");
    eprint!("{}", plan_metrics_text(&metrics));
    Ok(())
}

fn report_result(r: &emu::RunResult) {
    match r.elapsed {
        Some(secs) => println!("{}: {:.2} s", r.benchmark.name(), secs),
        None => println!("{}: DID NOT COMPLETE (deadline)", r.benchmark.name()),
    }
    for (phase, secs) in &r.phases {
        println!("  {:<8} {:.2} s", phase.name(), secs);
    }
}

fn cmd_help(_: &Args) -> CliResult {
    print!("{}", usage(COMMANDS));
    Ok(())
}

fn main() {
    let words: Vec<String> = std::env::args().skip(1).collect();
    let word = words.first().map_or("", String::as_str);
    // `--help` anywhere, or `-h` first, prints the usage to stdout and
    // exits 0 like `tracemod help`.
    if word == "-h" || words.iter().any(|w| w == "--help") {
        print!("{}", usage(COMMANDS));
        return;
    }
    let cmd = COMMANDS.iter().find(|c| c.name == word);
    let result = match cmd {
        Some(cmd) => Args::parse(cmd, &words[1..]).and_then(|args| (cmd.run)(&args)),
        None if word.is_empty() || word.starts_with("--") => {
            Err(CliError::usage("no command given"))
        }
        None => Err(CliError::usage(format!("unknown command '{word}'"))),
    };
    match result {
        Ok(()) => {}
        Err(CliError::Usage(msg)) => {
            eprintln!("tracemod: {msg}");
            // A known command's usage error shows that command's flags.
            eprint!("{}", usage(cmd.map_or(COMMANDS, std::slice::from_ref)));
            exit(2);
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("tracemod: {msg}");
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_of(cmd: &str, flag: &str) -> &'static str {
        let cmd = COMMANDS.iter().find(|c| c.name == cmd).unwrap();
        cmd.flags().find(|f| f.name == flag).unwrap().default
    }

    /// No command declares a flag twice, and every default is a value
    /// its own kind accepts.
    #[test]
    fn flag_table_is_consistent() {
        for cmd in COMMANDS {
            let mut names = Vec::new();
            for f in cmd.flags() {
                assert!(!names.contains(&f.name), "{}: --{} twice", cmd.name, f.name);
                names.push(f.name);
                if f.max != u64::MAX {
                    assert!(matches!(f.kind, Positive | U64), "--{} caps text", f.name);
                }
                if !f.default.is_empty() {
                    assert!(
                        f.kind != Switch,
                        "{}: switch --{} has a default",
                        cmd.name,
                        f.name
                    );
                    assert!(f.kind.check(f.name, f.default).is_ok(), "--{}", f.name);
                }
            }
        }
    }

    /// The figure command's help names every figure.
    #[test]
    fn figure_help_names_every_figure() {
        let about = COMMANDS.iter().find(|c| c.name == "figure").unwrap().about;
        for (name, _) in FIGURES {
            assert!(about.contains(name), "help omits {name}");
        }
    }

    /// Defaults the libraries also define agree with them.
    #[test]
    fn defaults_match_the_libraries() {
        let distill = DistillConfig::default();
        let secs = |d: SimDuration| (d.as_nanos() / 1_000_000_000).to_string();
        assert_eq!(
            default_of("distill", "window-secs"),
            secs(distill.window.width)
        );
        assert_eq!(
            default_of("distill", "horizon"),
            distill.reorder_horizon.to_string()
        );
        let tolerance = BenchDiffConfig::default().default_tolerance_ratio;
        assert_eq!(default_of("bench-diff", "tolerance").parse(), Ok(tolerance));
        let fleet = FleetPlan::new(Scenario::porter(), 1);
        assert_eq!(default_of("fleet", "seed"), fleet.seed.to_string());
        let probe_ms = fleet.probe_interval.as_nanos() / 1_000_000;
        assert_eq!(
            default_of("fleet", "probe-interval-ms"),
            probe_ms.to_string()
        );
    }
}
