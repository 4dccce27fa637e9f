//! `tracemod` — command-line front end for the trace-modulation pipeline.
//!
//! ```text
//! tracemod scenarios
//! tracemod collect  --scenario wean --trial 1 --out wean1.mntr [--target-out wean1-srv.mntr]
//! tracemod distill  wean1.mntr --out wean1.mnrp [--window-secs 5] [--horizon 30]
//! tracemod inspect  wean1.mntr | wean1.mnrp
//! tracemod replay   wean1.mnrp --benchmark ftp-recv [--trial 1] [--tick-ms 10]
//! tracemod live     --scenario wean --benchmark ftp-recv [--trial 1]
//! tracemod live-pipeline --scenario wean --benchmark ftp-recv [--trial 1] [--out run/]
//! tracemod obs-report run/ [--check] [--format text|json|md]
//! tracemod trace-export --scenario porter --benchmark web --out flight.json
//! tracemod journey [--packet-id N | --window T0..T1]
//! tracemod bench-diff current.jsonl [--baseline BENCH_baseline.json] [--check] [--json]
//! tracemod fleet --clients 10000 [--shards 8] [--jobs 8] [--out run/] [--check]
//! tracemod alerts run/ --rules builtin [--out alerts/] [--check]
//! tracemod diff-runs run_a/ run_b/ [--shards 8] [--check]
//! tracemod help
//! ```
//!
//! Trace files use the binary formats by default; any path ending in
//! `.json` reads/writes the JSON encoding instead. `distill` streams
//! binary traces through the incremental distiller in bounded memory;
//! JSON inputs fall back to the batch path (identical output).
//!
//! Run evidence goes into one run directory per run (`--out DIR`, see
//! [`obs::run_dir`]): fixed file names such as `manifests.jsonl`,
//! `telemetry.jsonl` and `report.json`. A directory that already holds
//! files is refused before the run starts, and the readers
//! (`obs-report`, `alerts`, `diff-runs`) take the directory as a unit.
//!
//! Every command validates its flags: unknown flags, missing required
//! flags, and unreadable files produce an error message and a nonzero
//! exit code (2 for usage errors, 1 for runtime failures) — no panics.

use distill::{distill_stream, distill_with_report, DistillConfig, WindowConfig};
use emu::{fleet_alerts, fleet_run, fleet_run_chaos, FleetPlan};
use emu::{
    live_modulated_run, live_run, modulated_run, Benchmark, CellKind, Exec, LiveModOutcome,
    RunConfig, TrialCell, TrialPlan,
};
use faultkit::{events_to_jsonl, FaultPlan};
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
use std::path::{Path, PathBuf};
use std::process::exit;
use tracekit::io::{read_replay, read_trace, write_replay, write_trace};
use tracekit::{ReplayTrace, TraceFileStream};
use wavelan::{Scenario, ScenarioPack};

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

/// Minimal flag parser: positionals + `--key value` pairs.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = (*v).clone();
                        it.next();
                        v
                    }
                    _ => String::from("true"),
                };
                flags.push((key.to_string(), value));
            } else {
                positional.push(a.clone());
            }
        }
        Args { positional, flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::usage(format!("missing required flag --{key}")))
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::usage(format!("invalid value for --{key}: {v}"))),
        }
    }

    /// Reject flags outside `allowed` and surplus positionals beyond
    /// `max_positional` (the command word counts as one).
    fn check(&self, allowed: &[&str], max_positional: usize) -> CliResult {
        for (k, _) in &self.flags {
            if !allowed.contains(&k.as_str()) {
                return Err(CliError::usage(format!(
                    "unknown flag --{k} (allowed: {})",
                    if allowed.is_empty() {
                        "none".to_string()
                    } else {
                        allowed
                            .iter()
                            .map(|f| format!("--{f}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    }
                )));
            }
        }
        if self.positional.len() > max_positional {
            return Err(CliError::usage(format!(
                "unexpected argument '{}'",
                self.positional[max_positional]
            )));
        }
        Ok(())
    }
}

/// Resolve `--scenario`/`--scenario-file` plus the optional
/// `--duration-secs` override (shortens or stretches the traversal —
/// handy for quick smoke runs and CI).
fn scenario_arg(args: &Args) -> Result<Scenario, CliError> {
    scenario_arg_default(args, None)
}

/// Like [`scenario_arg`] but falls back to `default` when neither
/// `--scenario` nor `--scenario-file` is given (flight-recorder
/// commands default to the Porter walk).
fn scenario_arg_default(args: &Args, default: Option<&str>) -> Result<Scenario, CliError> {
    Ok(scenario_or_pack(args, default)?.0)
}

/// Does a `--scenario` value name a scenario-pack file rather than a
/// built-in scenario?
fn is_pack_path(v: &str) -> bool {
    v.ends_with(".toml") || v.ends_with(".json")
}

/// Load and validate a scenario pack. A bad pack is a bad invocation
/// (exit 2): the run has not started yet.
fn load_pack_arg(path: &str) -> Result<ScenarioPack, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::usage(format!("read scenario pack {path}: {e}")))?;
    wavelan::load_pack(path, &text).map_err(|e| CliError::usage(format!("{path}: {e}")))
}

/// Resolve the scenario flags, also returning the [`ScenarioPack`]
/// when `--scenario` named a pack file (`*.toml` / `*.json`): fleet
/// runs use the pack's full weighted model mix, while single-channel
/// commands run the pack's scenario stub (its first model spec).
fn scenario_or_pack(
    args: &Args,
    default: Option<&str>,
) -> Result<(Scenario, Option<ScenarioPack>), CliError> {
    let (mut sc, pack) = if let Some(path) = args.get("scenario-file") {
        let json = std::fs::read_to_string(path)
            .map_err(|e| CliError::runtime(format!("read {path}: {e}")))?;
        let sc = wavelan::ScenarioSpec::from_json(&json)
            .and_then(wavelan::ScenarioSpec::into_scenario)
            .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
        (sc, None)
    } else {
        let name = match (args.get("scenario"), default) {
            (Some(n), _) => n,
            (None, Some(d)) => d,
            (None, None) => return Err(CliError::usage("missing required flag --scenario")),
        };
        if is_pack_path(name) {
            let pack = load_pack_arg(name)?;
            (pack.scenario(), Some(pack))
        } else {
            let sc = Scenario::by_name(name).ok_or_else(|| {
                CliError::usage(format!(
                    "unknown scenario '{name}' (try: wean, porter, flagstaff, chatterbox, \
                     or a scenario-pack path ending in .toml/.json)"
                ))
            })?;
            (sc, None)
        }
    };
    if let Some(secs) = args.get("duration-secs") {
        let secs: u64 = secs
            .parse()
            .map_err(|_| CliError::usage(format!("invalid value for --duration-secs: {secs}")))?;
        if secs == 0 {
            return Err(CliError::usage("--duration-secs must be positive"));
        }
        sc.duration = SimDuration::from_secs(secs);
    }
    Ok((sc, pack))
}

fn cmd_dump_scenario(args: &Args) -> CliResult {
    args.check(&["scenario", "scenario-file", "duration-secs"], 1)?;
    let sc = scenario_arg(args)?;
    println!("{}", wavelan::ScenarioSpec::from_scenario(&sc).to_json());
    Ok(())
}

fn benchmark_named(name: &str) -> Result<Benchmark, CliError> {
    match name {
        "web" => Ok(Benchmark::Web),
        "ftp-send" => Ok(Benchmark::FtpSend),
        "ftp-recv" => Ok(Benchmark::FtpRecv),
        "andrew" => Ok(Benchmark::Andrew),
        other => Err(CliError::usage(format!(
            "unknown benchmark '{other}' (try: web, ftp-send, ftp-recv, andrew)"
        ))),
    }
}

fn benchmark_arg(args: &Args) -> Result<Benchmark, CliError> {
    benchmark_named(args.require("benchmark")?)
}

fn cmd_scenarios(args: &Args) -> CliResult {
    args.check(&[], 1)?;
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
    println!("\nchannel-model families (for --scenario <pack.toml|pack.json>):");
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
    args.check(
        &[
            "scenario",
            "scenario-file",
            "duration-secs",
            "trial",
            "out",
            "target-out",
        ],
        1,
    )?;
    let sc = scenario_arg(args)?;
    let trial = args.parse_num("trial", 1u32)?;
    let out = PathBuf::from(args.require("out")?);
    let cfg = RunConfig::default();
    if let Some(target_out) = args.get("target-out") {
        eprintln!(
            "collecting two-sided trace of '{}' trial {trial}...",
            sc.name
        );
        let (mobile, target) = emu::collect_trace_two_sided(&sc, trial, &cfg);
        write_trace(&out, &mobile)
            .map_err(|e| CliError::runtime(format!("write {}: {e}", out.display())))?;
        let tp = PathBuf::from(target_out);
        write_trace(&tp, &target)
            .map_err(|e| CliError::runtime(format!("write {}: {e}", tp.display())))?;
        eprintln!(
            "wrote {} ({} records) and {} ({} records)",
            out.display(),
            mobile.records.len(),
            tp.display(),
            target.records.len()
        );
    } else {
        eprintln!("collecting trace of '{}' trial {trial}...", sc.name);
        let trace = emu::collect_trace(&sc, trial, &cfg);
        write_trace(&out, &trace)
            .map_err(|e| CliError::runtime(format!("write {}: {e}", out.display())))?;
        eprintln!("wrote {} ({} records)", out.display(), trace.records.len());
    }
    Ok(())
}

fn distill_cfg(args: &Args) -> Result<DistillConfig, CliError> {
    Ok(DistillConfig {
        window: WindowConfig {
            width: SimDuration::from_secs(args.parse_num("window-secs", 5u64)?),
            step: SimDuration::from_secs(1),
        },
        reorder_horizon: args.parse_num("horizon", DistillConfig::default().reorder_horizon)?,
    })
}

fn cmd_distill(args: &Args) -> CliResult {
    args.check(&["out", "window-secs", "horizon"], 2)?;
    let input = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::usage("usage: tracemod distill <trace> --out <replay>"))?;
    let out = PathBuf::from(args.require("out")?);
    let cfg = distill_cfg(args)?;
    let path = Path::new(input);
    let (replay, solved, corrected, triplets) = if path.extension().is_some_and(|e| e == "json") {
        // JSON has no incremental decoder: batch path (same output).
        let trace =
            read_trace(path).map_err(|e| CliError::runtime(format!("read {input}: {e}")))?;
        let report = distill_with_report(&trace, &cfg);
        (
            report.replay,
            report.solved,
            report.corrected,
            report.triplets,
        )
    } else {
        // Binary traces stream through the incremental distiller: memory
        // stays O(window) however large the trace file is.
        let mut stream = TraceFileStream::open(path)
            .map_err(|e| CliError::runtime(format!("open {input}: {e}")))?;
        let header = stream
            .header()
            .map_err(|e| CliError::runtime(format!("read {input}: {e}")))?
            .clone();
        let mut replay = ReplayTrace::new(&format!("{} trial {}", header.scenario, header.trial));
        let stats = distill_stream(&mut stream, &cfg, &mut replay)
            .map_err(|e| CliError::runtime(format!("distill {input}: {e}")))?;
        (replay, stats.solved, stats.corrected, stats.triplets)
    };
    write_replay(&out, &replay)
        .map_err(|e| CliError::runtime(format!("write {}: {e}", out.display())))?;
    eprintln!(
        "distilled {} triplets ({} solved, {} corrected) → {} tuples → {}",
        triplets,
        solved,
        corrected,
        replay.tuples.len(),
        out.display()
    );
    Ok(())
}

fn cmd_inspect(args: &Args) -> CliResult {
    args.check(&["records"], 2)?;
    let input = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::usage("usage: tracemod inspect <file>"))?;
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
            let n: usize = args.parse_num("records", 0usize)?;
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
    args.check(&["benchmark", "trial", "tick-ms"], 2)?;
    let input = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::usage("usage: tracemod replay <replay> --benchmark <b>"))?;
    let replay = read_replay(Path::new(input))
        .map_err(|e| CliError::runtime(format!("read {input}: {e}")))?;
    let benchmark = benchmark_arg(args)?;
    let trial = args.parse_num("trial", 1u32)?;
    let tick_ms = args.parse_num("tick-ms", 10u64)?;
    let cfg = RunConfig {
        clock: if tick_ms == 0 {
            TickClock::ideal()
        } else {
            TickClock::with_resolution(SimDuration::from_millis(tick_ms))
        },
        ..RunConfig::default()
    };
    eprintln!(
        "running {} under modulation by '{}' (tick {} ms)...",
        benchmark.name(),
        replay.source,
        tick_ms
    );
    let r = modulated_run(&replay, trial, benchmark, &cfg);
    report_result(&r);
    Ok(())
}

fn cmd_live(args: &Args) -> CliResult {
    args.check(
        &[
            "scenario",
            "scenario-file",
            "duration-secs",
            "benchmark",
            "trial",
        ],
        1,
    )?;
    let sc = scenario_arg(args)?;
    let benchmark = benchmark_arg(args)?;
    let trial = args.parse_num("trial", 1u32)?;
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
    args.check(
        &[
            "scenario",
            "scenario-file",
            "duration-secs",
            "benchmark",
            "trial",
            "window-secs",
            "horizon",
            "out",
        ],
        1,
    )?;
    let out_dir = out_dir(args)?;
    let sc = scenario_arg(args)?;
    let benchmark = benchmark_arg(args)?;
    let trial = args.parse_num("trial", 1u32)?;
    let dcfg = distill_cfg(args)?;
    eprintln!(
        "live pipeline: collecting '{}' trial {trial} while running {} modulated...",
        sc.name,
        benchmark.name()
    );
    let out = live_modulated_run(&sc, trial, benchmark, &dcfg, &RunConfig::default());
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
    args.check(&["check", "format"], 2)?;
    let dir = args.positional.get(1).ok_or_else(|| {
        CliError::usage("usage: tracemod obs-report <run-dir> [--check] [--format text|json|md]")
    })?;
    let dir = Path::new(dir);
    let th = FidelityThresholds::default();
    // A fleet run leaves an aggregate report; a live-pipeline run, one
    // run manifest.
    let (rendered, violations, gate_name) =
        if let Some(r) = read_artifact(dir, Artifact::REPORT, FleetReport::from_json)? {
            let text = pick_format(
                args,
                || r.render_text(),
                || r.to_json_pretty(),
                || r.render_markdown(),
            )?;
            (text, r.check(&th), "fleet fidelity gate")
        } else if let Some(m) = read_artifact(dir, Artifact::MANIFEST, RunManifest::from_json)? {
            let text = pick_format(
                args,
                || m.render_text(),
                || m.to_json_pretty(),
                || m.render_markdown(),
            )?;
            (text, m.check(&th), "fidelity self-check")
        } else {
            return Err(CliError::runtime(format!(
                "{}: no {} or {} to report on",
                dir.display(),
                Artifact::REPORT.file,
                Artifact::MANIFEST.file
            )));
        };
    print!("{rendered}");
    if args.get("check").is_some() {
        gate(gate_name, violations)?;
    }
    Ok(())
}

/// The `--format` rendering (`text`, `json` or `md`) of a report.
fn pick_format(
    args: &Args,
    text: impl FnOnce() -> String,
    json: impl FnOnce() -> String,
    md: impl FnOnce() -> String,
) -> Result<String, CliError> {
    match args.get("format").unwrap_or("text") {
        "text" => Ok(text()),
        "json" => Ok(json() + "\n"),
        "md" => Ok(md()),
        other => Err(CliError::usage(format!(
            "unknown format '{other}' (try: text, json, md)"
        ))),
    }
}

/// Fail with every violation listed, or report the gate passed.
fn gate(name: &str, violations: Vec<String>) -> CliResult {
    if violations.is_empty() {
        eprintln!("{name}: PASS");
        return Ok(());
    }
    let mut msg = format!("{name} failed:");
    for v in &violations {
        msg.push_str("\n  - ");
        msg.push_str(v);
    }
    Err(CliError::runtime(msg))
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
    let names: Vec<&str> = artifacts.iter().map(|(a, _)| a.file).collect();
    let names = names.join(", ");
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
    let mut s = String::new();
    for m in manifests {
        s.push_str(&m.deterministic_json());
        s.push('\n');
    }
    s
}

/// Flags shared by the flight-recorder commands (`trace-export`,
/// `journey`): which live pipeline to run.
const FLIGHT_RUN_FLAGS: [&str; 7] = [
    "scenario",
    "scenario-file",
    "duration-secs",
    "benchmark",
    "trial",
    "window-secs",
    "horizon",
];

/// Run the live pipeline the flight-recorder commands observe.
/// Scenario defaults to the Porter walk and benchmark to `web`, so
/// `tracemod journey` works bare.
fn flight_run(args: &Args) -> Result<LiveModOutcome, CliError> {
    let sc = scenario_arg_default(args, Some("porter"))?;
    let benchmark = benchmark_named(args.get("benchmark").unwrap_or("web"))?;
    let trial = args.parse_num("trial", 1u32)?;
    let dcfg = distill_cfg(args)?;
    eprintln!(
        "recording flight of '{}' trial {trial} under {}...",
        sc.name,
        benchmark.name()
    );
    Ok(live_modulated_run(
        &sc,
        trial,
        benchmark,
        &dcfg,
        &RunConfig::default(),
    ))
}

fn cmd_trace_export(args: &Args) -> CliResult {
    let mut allowed: Vec<&str> = FLIGHT_RUN_FLAGS.to_vec();
    allowed.push("out");
    args.check(&allowed, 1)?;
    let out_path = PathBuf::from(args.require("out")?);
    let outcome = flight_run(args)?;
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

/// Parse `--window T0..T1` (seconds, decimals allowed) into ns bounds.
fn window_arg(spec: &str) -> Result<(u64, u64), CliError> {
    let bad = || {
        CliError::usage(format!(
            "invalid --window '{spec}' (expected T0..T1 in seconds)"
        ))
    };
    let (a, b) = spec.split_once("..").ok_or_else(bad)?;
    let t0: f64 = a.trim().parse().map_err(|_| bad())?;
    let t1: f64 = b.trim().parse().map_err(|_| bad())?;
    if t0 < 0.0 || t1 < t0 {
        return Err(bad());
    }
    Ok(((t0 * 1e9) as u64, (t1 * 1e9) as u64))
}

fn cmd_journey(args: &Args) -> CliResult {
    let mut allowed: Vec<&str> = FLIGHT_RUN_FLAGS.to_vec();
    allowed.extend(["packet-id", "window"]);
    args.check(&allowed, 1)?;
    if args.get("packet-id").is_some() && args.get("window").is_some() {
        return Err(CliError::usage(
            "--packet-id and --window are mutually exclusive",
        ));
    }
    let window = args.get("window").map(window_arg).transpose()?;
    let packet_id: Option<u64> = match args.get("packet-id") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| CliError::usage(format!("invalid value for --packet-id: {v}")))?,
        ),
    };
    let outcome = flight_run(args)?;
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
    args.check(&["baseline", "check", "json", "tolerance", "overhead"], 2)?;
    let current_path = args.positional.get(1).ok_or_else(|| {
        CliError::usage("usage: tracemod bench-diff <current.jsonl> [--baseline F] [--check]")
    })?;
    let baseline_path = args.get("baseline").unwrap_or("BENCH_baseline.json");
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| CliError::runtime(format!("read {p}: {e}")))
            .and_then(|t| parse_bench_jsonl(&t).map_err(|e| CliError::runtime(format!("{p}: {e}"))))
    };
    let baseline = read(baseline_path)?;
    let current = read(current_path)?;
    let cfg = BenchDiffConfig {
        default_tolerance_ratio: args.parse_num(
            "tolerance",
            BenchDiffConfig::default().default_tolerance_ratio,
        )?,
        ..BenchDiffConfig::default()
    };
    if cfg.default_tolerance_ratio < 1.0 {
        return Err(CliError::usage("--tolerance must be >= 1.0"));
    }
    let diff = BenchDiff::compare(&baseline, &current, &cfg);
    if args.get("json").is_some() {
        println!("{}", diff.to_json());
    } else {
        print!("{}", diff.render_text());
    }
    if args.get("check").is_some() && !diff.pass() {
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

fn cmd_chaos(args: &Args) -> CliResult {
    args.check(
        &[
            "seed",
            "plan",
            "scenario",
            "scenario-file",
            "duration-secs",
            "benchmark",
            "trial",
            "trials",
            "window-secs",
            "horizon",
            "jobs",
            "out",
            "fault-budget",
            "check",
        ],
        1,
    )?;
    let seed: u64 = args
        .require("seed")?
        .parse()
        .map_err(|_| CliError::usage("invalid value for --seed (expected u64)"))?;
    let plan_path = args.require("plan")?;
    // A bad plan file is a bad invocation, not a mid-run failure: the
    // run has not started yet, so both unreadable and unparseable plans
    // are usage errors (exit 2).
    let plan_text = std::fs::read_to_string(plan_path)
        .map_err(|e| CliError::usage(format!("read fault plan {plan_path}: {e}")))?;
    let fault_plan = FaultPlan::from_json(&plan_text)
        .map_err(|e| CliError::usage(format!("{plan_path}: {e}")))?;
    let out_dir = out_dir(args)?;
    let sc = scenario_arg_default(args, Some("porter"))?;
    let benchmark = benchmark_named(args.get("benchmark").unwrap_or("web"))?;
    let trial0 = args.parse_num("trial", 1u32)?;
    let trials = args.parse_num("trials", 1u32)?.max(1);
    let dcfg = distill_cfg(args)?;
    let jobs = args.parse_num("jobs", 1usize)?.max(1);

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
            kind: CellKind::Chaos {
                scenario: sc.clone(),
                benchmark,
                distill: dcfg,
                seed,
                plan: fault_plan.clone(),
            },
        });
    }
    let results = tplan.run(&Exec::with_workers(jobs));
    let outcomes = results.chaos(sc.name, benchmark);

    let mut fault_log = String::new();
    let mut injected_total = 0u64;
    for (i, o) in outcomes.iter().enumerate() {
        let trial = trial0 + i as u32;
        report_result(&o.outcome.result);
        for ev in &o.faults {
            // One observable event per injected fault.
            eprintln!(
                "[fault] trial {trial} t={:9.3}s {:<13} {}",
                ev.t_virtual_ns as f64 / 1e9,
                ev.fault,
                ev.info
            );
        }
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
            if o.outcome.manifest.fidelity.degraded {
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
                manifests_jsonl(outcomes.iter().map(|o| &o.outcome.manifest)),
            ),
        ],
    )?;
    if let Some(budget) = args.get("fault-budget") {
        let budget: u64 = budget
            .parse()
            .map_err(|_| CliError::usage(format!("invalid value for --fault-budget: {budget}")))?;
        if injected_total > budget {
            return Err(CliError::runtime(format!(
                "fault budget exceeded: {injected_total} faults injected > budget {budget}"
            )));
        }
    }
    if args.get("check").is_some() {
        let mut violations = Vec::new();
        for (i, o) in outcomes.iter().enumerate() {
            for v in o.outcome.manifest.check(&FidelityThresholds::default()) {
                violations.push(format!("trial {}: {v}", trial0 + i as u32));
            }
        }
        gate("fidelity self-check under faults", violations)?;
    }
    Ok(())
}

fn cmd_fleet(args: &Args) -> CliResult {
    args.check(
        &[
            "clients",
            "scenario",
            "scenario-file",
            "duration-secs",
            "seed",
            "shards",
            "jobs",
            "stations",
            "probe-interval-ms",
            "fault-seed",
            "fault-plan",
            "telemetry-interval-secs",
            "profile",
            "alerts",
            "alerts-baseline",
            "out",
            "check",
        ],
        1,
    )?;
    let out_dir = out_dir(args)?;
    let (sc, pack) = scenario_or_pack(args, Some("porter"))?;
    let clients: u32 = args.parse_num("clients", 1000u32)?;
    if clients == 0 {
        return Err(CliError::usage("--clients must be positive"));
    }
    let shards = args.parse_num("shards", 1usize)?.max(1);
    let jobs = args.parse_num("jobs", 1usize)?.max(1);
    let mut plan = FleetPlan::new(sc, clients)
        .with_seed(args.parse_num("seed", 7u64)?)
        .with_shards(shards);
    // A pack fleet mixes models across clients; single-model runs keep
    // the scenario path.
    plan.pack = pack;
    if let Some(stations) = args.get("stations") {
        let n: u32 = stations
            .parse()
            .map_err(|_| CliError::usage(format!("invalid value for --stations: {stations}")))?;
        if n == 0 {
            return Err(CliError::usage("--stations must be positive"));
        }
        plan.stations = n;
    }
    let probe_ms = args.parse_num("probe-interval-ms", 1000u64)?;
    if probe_ms == 0 {
        return Err(CliError::usage("--probe-interval-ms must be positive"));
    }
    plan = plan.with_probe_interval(SimDuration::from_millis(probe_ms));
    // The interval switches the sampling plane on; the series is then
    // embedded in the report and written as telemetry.jsonl/.prom.
    if args.get("telemetry-interval-secs").is_some() {
        let secs = args.parse_num("telemetry-interval-secs", 1u64)?;
        if secs == 0 {
            return Err(CliError::usage(
                "--telemetry-interval-secs must be positive",
            ));
        }
        plan = plan.with_telemetry(TelemetryConfig::default().with_interval_secs(secs));
    }
    if args.get("profile").is_some() {
        plan = plan.with_profile(true);
    }
    let rules = args.get("alerts").map(load_rules).transpose()?;
    let baseline = read_baseline(args.get("alerts-baseline"))?;

    eprintln!(
        "fleet: {} clients × '{}' ({} stations, {} shard(s), {} worker(s))...",
        plan.clients, plan.scenario.name, plan.stations, plan.shards, jobs
    );
    let exec = Exec::with_workers(jobs);
    let out = match args.get("fault-plan") {
        Some(plan_path) => {
            let fault_seed: u64 = args
                .parse_num("fault-seed", 42u64)
                .map_err(|_| CliError::usage("invalid value for --fault-seed (expected u64)"))?;
            let plan_text = std::fs::read_to_string(plan_path)
                .map_err(|e| CliError::usage(format!("read fault plan {plan_path}: {e}")))?;
            let fault_plan = FaultPlan::from_json(&plan_text)
                .map_err(|e| CliError::usage(format!("{plan_path}: {e}")))?;
            fleet_run_chaos(&plan, &exec, fault_seed, &fault_plan)
        }
        None => fleet_run(&plan, &exec),
    };

    print!("{}", out.report.render_text());
    for ev in &out.faults {
        eprintln!(
            "[fault] t={:9.3}s {:<13} {}",
            ev.t_virtual_ns as f64 / 1e9,
            ev.fault,
            ev.info
        );
    }
    if let Some(r) = &out.report.runner {
        eprintln!(
            "engine: {:.0} events/s over {:.2}s wall; per-client peaks: {} queued events, {} packets in flight",
            r.records_per_sec, r.wall_secs, out.peak_queue_depth, out.peak_packets_live
        );
    }
    if let Some(prof) = &out.profile {
        eprint!("{}", prof.render_text());
    }
    let alerts = match &rules {
        Some(rules) => {
            let alerts = fleet_alerts(&out, rules, baseline.as_ref()).map_err(CliError::runtime)?;
            eprintln!(
                "alerts: {} active, {} suppressed ({} rule(s) over {} boundaries)",
                alerts.active().count(),
                alerts.suppressed().count(),
                alerts.rules,
                alerts.boundaries
            );
            Some(alerts)
        }
        None => None,
    };
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
    if args.get("check").is_some() {
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
/// path to a rule file — TOML (`[[rule]]` tables) unless the extension
/// or the leading byte says JSON. Rules are compiled up front so a bad
/// rule file is a bad invocation (exit 2), not a mid-run failure.
fn load_rules(spec: &str) -> Result<RuleSet, CliError> {
    if spec == "builtin" {
        return Ok(RuleSet::builtin());
    }
    let text = std::fs::read_to_string(spec)
        .map_err(|e| CliError::usage(format!("read rules {spec}: {e}")))?;
    let rules = if spec.ends_with(".json") || text.trim_start().starts_with('{') {
        RuleSet::from_json(&text)
    } else {
        RuleSet::from_toml(&text)
    }
    .map_err(|e| CliError::usage(format!("{spec}: {e}")))?;
    rules
        .compile()
        .map_err(|e| CliError::usage(format!("{spec}: {e}")))?;
    Ok(rules)
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
    args.check(&["rules", "baseline", "out", "min-severity", "check"], 2)?;
    let rules = load_rules(args.require("rules")?)?;
    let out_dir = out_dir(args)?;
    let dir = Path::new(args.positional.get(1).ok_or_else(|| {
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
    if args.get("check").is_some() {
        let floor =
            Severity::parse(args.get("min-severity").unwrap_or("warn")).map_err(CliError::usage)?;
        gate("alert gate", alert_report.check(floor))?;
        eprintln!(
            "{} suppressed alert(s) attributed to faults",
            alert_report.suppressed().count()
        );
    }
    Ok(())
}

fn cmd_diff_runs(args: &Args) -> CliResult {
    args.check(&["shards", "check"], 3)?;
    let a_path = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::usage("missing run artifacts: tracemod diff-runs A B"))?;
    let b_path = args
        .positional
        .get(2)
        .ok_or_else(|| CliError::usage("missing second run artifact: tracemod diff-runs A B"))?;
    let mut opts = DiffOptions::default();
    if let Some(s) = args.get("shards") {
        let n: usize = s
            .parse()
            .map_err(|_| CliError::usage(format!("invalid value for --shards: {s}")))?;
        if n == 0 {
            return Err(CliError::usage("--shards must be positive"));
        }
        opts.shards = Some(n);
    }
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
    match divergence {
        Some(d) => {
            println!("first divergence: {d}");
            if args.get("check").is_some() {
                return Err(CliError::runtime(format!(
                    "runs diverge: {a_path} vs {b_path}"
                )));
            }
            Ok(())
        }
        None => Ok(()),
    }
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

const USAGE: &str = "usage: tracemod <command> [args]
commands:
  scenarios                                list the built-in mobile scenarios and the
                                           registered channel-model families
  dump-scenario --scenario S               print a scenario as editable JSON
  collect  --scenario S --trial N --out F  collect a trace (add --target-out F2 for two-sided;
                                           --scenario-file F.json uses a custom scenario)
  distill  <trace> --out F                 distill a trace into a replay trace (binary traces
                                           stream in bounded memory; --window-secs W --horizon H)
  inspect  <file> [--records N]            summarize a trace/replay file (optionally list records)
  replay   <replay> --benchmark B          run a benchmark under modulation
  live     --scenario S --benchmark B      run a benchmark live on the wireless scenario
  live-pipeline --scenario S --benchmark B collect, distill, and modulate concurrently
                                           (--out DIR writes manifest.json)
  obs-report <run-dir> [--check]           pretty-print a run directory's report.json, else its
                                           manifest.json (--format text|json|md); --check gates
                                           on the fidelity thresholds
  trace-export --out F                     run the live pipeline with the flight recorder and
                                           export Perfetto/chrome://tracing JSON
                                           (defaults: --scenario porter --benchmark web)
  journey [--packet-id N | --window T0..T1] run the live pipeline and print one packet's causal
                                           timeline (default: the packet covering most stages)
  bench-diff <current.jsonl> [--check]     compare criterion JSONL against a baseline
                                           (--baseline F, default BENCH_baseline.json;
                                           --json for machine-readable verdicts; --tolerance R;
                                           --overhead BASE=VARIANT:R gates VARIANT's same-run
                                           median at R× BASE)
  chaos --seed N --plan F                  run the live pipeline under a deterministic fault plan
                                           (defaults: --scenario porter --benchmark web; --trials T
                                           --jobs J for a matrix; --out DIR writes runner-stripped
                                           manifests.jsonl and faults.jsonl; --fault-budget N
                                           gates on injected faults; --check gates on the
                                           fidelity thresholds)
  fleet --clients N                        run N mobile clients under one fleet engine
                                           (defaults: --scenario porter, 1000 clients; --shards S
                                           shards clients across engines with byte-identical
                                           output, --jobs J workers; --stations K, --seed N,
                                           --probe-interval-ms M tune the fleet; --fault-plan F
                                           [--fault-seed N] injects faults; --out DIR writes
                                           manifests.jsonl, report.json and faults.jsonl;
                                           --telemetry-interval-secs N samples telemetry
                                           (telemetry.jsonl/.prom); --profile self-profiles
                                           (profile.txt); --alerts RULES evaluates SLO alert
                                           rules (alerts.jsonl/.md; --alerts-baseline DIR feeds
                                           delta rules); --check gates on the fleet fidelity
                                           thresholds and, with --alerts, on active alerts)
  alerts <run-dir> --rules RULES           evaluate SLO alert rules over a run directory's
                                           telemetry, report and faults (RULES is a TOML/JSON
                                           rule file or 'builtin'; --baseline DIR feeds delta
                                           rules; --out DIR writes alerts.jsonl/.md; --check
                                           [--min-severity info|warn|critical] fails on active
                                           alerts at or above the floor)
  diff-runs A B                            report the first field where two runs diverge, with
                                           virtual-time/client/shard context: two files
                                           (telemetry/manifest/fault/alert JSONL, fleet reports,
                                           flight traces) or two run directories (each
                                           deterministic artifact in causal order, named);
                                           --shards N names the owning shard; --check exits
                                           nonzero on divergence — the CI replacement for cmp
  help                                     print this usage and exit 0 (also --help / -h)
benchmarks: web, ftp-send, ftp-recv, andrew
scenario commands also accept --duration-secs N to shorten the traversal;
--scenario also takes a scenario-pack path (*.toml / *.json) built from the
channel-model registry — fleets split clients across the pack's weighted model
mix, single-channel commands run the pack's first model;
--out DIR must be missing or empty: one run directory holds one run";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw);
    // `help` in any spelling prints the full usage to stdout and exits
    // 0 — it is the one successful invocation that takes no action.
    // Unknown commands still print it to stderr and exit 2.
    let wants_help = matches!(
        args.positional.first().map(String::as_str),
        Some("help") | Some("-h")
    ) || args.get("help").is_some();
    if wants_help {
        println!("{USAGE}");
        return;
    }
    let result = match args.positional.first().map(String::as_str) {
        Some("scenarios") => cmd_scenarios(&args),
        Some("dump-scenario") => cmd_dump_scenario(&args),
        Some("collect") => cmd_collect(&args),
        Some("distill") => cmd_distill(&args),
        Some("inspect") => cmd_inspect(&args),
        Some("replay") => cmd_replay(&args),
        Some("live") => cmd_live(&args),
        Some("live-pipeline") => cmd_live_pipeline(&args),
        Some("obs-report") => cmd_obs_report(&args),
        Some("trace-export") => cmd_trace_export(&args),
        Some("journey") => cmd_journey(&args),
        Some("bench-diff") => cmd_bench_diff(&args),
        Some("chaos") => cmd_chaos(&args),
        Some("fleet") => cmd_fleet(&args),
        Some("alerts") => cmd_alerts(&args),
        Some("diff-runs") => cmd_diff_runs(&args),
        Some(other) => Err(CliError::usage(format!("unknown command '{other}'"))),
        None => Err(CliError::usage("no command given")),
    };
    match result {
        Ok(()) => {}
        Err(CliError::Usage(msg)) => {
            eprintln!("tracemod: {msg}");
            eprintln!("{USAGE}");
            exit(2);
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("tracemod: {msg}");
            exit(1);
        }
    }
}
