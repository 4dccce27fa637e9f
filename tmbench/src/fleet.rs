//! The two 10k-client fleet walks: `fleet_porter` (one WaveLAN
//! scenario, telemetry off: the engine-bound path) and
//! `fleet_leo_pack` (the LEO scenario pack through the model registry,
//! telemetry on, followed by the built-in alert rules and every artifact
//! `tracemod fleet` can write, rendered into memory).

use crate::util::{input_set, secs_since, Digest, Metrics};
use crate::{Pass, DEFAULT_SEED};
use emu::{fleet_alerts, fleet_run, Exec, FleetOutcome, FleetPlan};
use netsim::{SimDuration, SimRng};
use obs::{FidelityThresholds, FleetReport, RuleSet, RunManifest, TelemetryConfig};
use std::hint::black_box;
use std::time::Instant;
use wavelan::{load_pack, ChannelModel, Registry, Scenario};

/// The committed LEO scenario pack, read at set-up.
const LEO_PACK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../packs/leo.toml");
/// `emu::fleet` runs every fleet 10 virtual seconds past its walk so
/// in-flight probes drain; the virtual time a client covers is the walk
/// plus this grace.
const DRAIN_GRACE_S: f64 = 10.0;
/// Per-client probe cadence of both fleet workloads.
const PROBE_INTERVAL_MS: u64 = 500;
/// Plan seeds a seed chooses among: `DEFAULT_SEED + k` for `k` in
/// `0..PLAN_SEEDS`. Each full fleet was run once on each and no client
/// failed its fidelity gate; elsewhere about one plan seed in a hundred
/// has such a client, so that an operation of the workload fails.
const PLAN_SEEDS: u64 = 64;

#[derive(Clone, Copy, PartialEq)]
pub enum FleetKind {
    Porter,
    LeoPack,
}

/// Fleet size: clients and, when set, a walk shorter than the default
/// 60 s (the self-test's 5 s walks).
#[derive(Clone, Copy)]
pub struct FleetSize {
    pub clients: u32,
    pub walk_secs: Option<u64>,
}

impl FleetSize {
    pub const FULL: FleetSize = FleetSize {
        clients: 10_000,
        walk_secs: None,
    };
    pub const SMALL: FleetSize = FleetSize {
        clients: 100,
        walk_secs: Some(5),
    };
}

/// A prepared fleet workload.
pub struct Fleet {
    kind: FleetKind,
    plan: FleetPlan,
    full: bool,
}

/// Build the plan for `seed`, which picks the plan seed; the default
/// seed runs the plans' own default. The LEO workload reads and
/// validates the pack here, which also initialises the model registry.
pub fn setup(kind: FleetKind, seed: u64, size: FleetSize) -> Result<Fleet, String> {
    let plan = match kind {
        FleetKind::Porter => FleetPlan::new(Scenario::porter(), size.clients)
            .with_duration(SimDuration::from_secs(60)),
        FleetKind::LeoPack => {
            let text =
                std::fs::read_to_string(LEO_PACK).map_err(|e| format!("read {LEO_PACK}: {e}"))?;
            let pack = load_pack(LEO_PACK, &text)?;
            FleetPlan::from_pack(pack, size.clients).with_telemetry(TelemetryConfig::default())
        }
    };
    let mut plan = plan
        .with_seed(DEFAULT_SEED + input_set(seed, PLAN_SEEDS, &[]))
        .with_probe_interval(SimDuration::from_millis(PROBE_INTERVAL_MS));
    if let Some(secs) = size.walk_secs {
        plan = plan.with_duration(SimDuration::from_secs(secs));
    }
    Ok(Fleet {
        kind,
        plan,
        full: size.clients == FleetSize::FULL.clients && size.walk_secs.is_none(),
    })
}

/// Every artifact `tracemod fleet` writes, rendered into memory:
/// manifest JSONL, report JSON and markdown, and (when the plan samples
/// telemetry) telemetry JSONL and Prometheus plus the built-in alert
/// rules' JSONL. Returns a digest of the deterministic ones (the report
/// JSON and markdown carry the wall-clock runner section).
fn render_artifacts(out: &FleetOutcome, alerts: bool) -> Result<Digest, String> {
    let mut d = Digest::new();
    let mut manifests = String::new();
    for m in &out.manifests {
        manifests.push_str(&m.deterministic_json());
        manifests.push('\n');
    }
    d = d.bytes(manifests.as_bytes());
    black_box(out.report.to_json_pretty());
    black_box(out.report.render_markdown());
    if let Some(tel) = &out.report.telemetry {
        d = d.bytes(tel.to_jsonl().as_bytes());
        d = d.bytes(tel.to_prometheus().as_bytes());
    }
    if alerts {
        let report = fleet_alerts(out, &RuleSet::builtin(), None)?;
        d = d.bytes(report.to_jsonl().as_bytes());
    }
    Ok(d)
}

fn counter(report: &FleetReport, name: &str) -> u64 {
    report.metrics.counter(name).unwrap_or(0)
}

fn manifest_sum(out: &FleetOutcome, name: &str) -> u64 {
    out.manifests
        .iter()
        .map(|m| m.metrics.counter(name).unwrap_or(0))
        .sum()
}

impl Fleet {
    pub fn clients(&self) -> u32 {
        self.plan.clients
    }

    /// Virtual seconds one pass simulates: every client's walk plus the
    /// drain grace.
    fn vsec(&self) -> f64 {
        f64::from(self.plan.clients) * (self.plan.duration().as_secs_f64() + DRAIN_GRACE_S)
    }

    /// Whether the workload's pass includes alerts and artifact
    /// rendering (the LEO pack) or only the fleet run (Porter).
    fn renders(&self) -> bool {
        self.kind == FleetKind::LeoPack
    }

    /// One timed pass on one thread and one shard.
    pub fn pass(&self) -> Result<Pass, String> {
        let t = Instant::now();
        let out = fleet_run(&self.plan, &Exec::serial());
        let artifacts = if self.renders() {
            Some(render_artifacts(&out, true)?)
        } else {
            None
        };
        let wall_s = secs_since(t);

        let r = &out.report;
        let events = counter(r, "fleet.engine_events");
        let probes = manifest_sum(&out, "fleet.probes_sent");
        let completed = manifest_sum(&out, "fleet.rtts_completed");
        let lost = manifest_sum(&out, "fleet.packets_lost");
        // Every uplinked probe is recorded at its station once going
        // out and once coming back.
        let returns = counter(r, "fleet.station_frames") / 2;
        let mut digest = Digest::new()
            .u64(events)
            .u64(r.released_packets)
            .bytes(r.deterministic_json().as_bytes());
        if let Some(a) = artifacts {
            digest = digest.u64(a.finish());
        }
        let mut detail = Metrics::default();
        detail.set("events_per_s", events as f64 / wall_s, "1/s");
        detail.set("delay_error_p95_ms", r.mean_abs_delay_error_p95_ms, "ms");
        detail.set("deadline_miss_rate", r.deadline_miss_rate, "ratio");
        detail.set("failed_clients", f64::from(r.failed_clients), "count");
        detail.set("netsim.fleet_events", events as f64, "count");
        detail.set(
            "netsim.peak_queue_depth",
            out.peak_queue_depth as f64,
            "count",
        );
        detail.set(
            "netsim.peak_packets_live",
            out.peak_packets_live as f64,
            "count",
        );
        detail.set(
            "modulate.wheel_overflow_pushes",
            manifest_sum(&out, "modulate.sched.overflow_pushes") as f64,
            "count",
        );
        detail.set(
            "emu.fleet.wakes_per_probe",
            events.saturating_sub(probes + returns) as f64 / probes.max(1) as f64,
            "ratio",
        );
        detail.set("released_packets", r.released_packets as f64, "count");
        detail.set("probes_sent", probes as f64, "count");
        detail.set(
            "unaccounted_probes",
            (probes - (completed + lost).min(probes)) as f64,
            "count",
        );
        Ok(Pass {
            wall_s,
            vsec: self.vsec(),
            cell_ms: vec![r.runner.as_ref().map_or(wall_s, |run| run.wall_secs) * 1e3],
            ops: u64::from(self.plan.clients),
            failed_ops: u64::from(r.failed_clients),
            failed_cells: Vec::new(),
            fingerprint: digest.finish(),
            detail,
        })
    }

    /// Engine events of the seed state at the plan's default seed.
    pub fn golden_events(&self, seed: u64) -> Option<u64> {
        if !self.full || seed != DEFAULT_SEED {
            return None;
        }
        Some(match self.kind {
            FleetKind::Porter => 4_305_900,
            FleetKind::LeoPack => 4_699_101,
        })
    }

    /// The traced pass: the same plan under the program's own
    /// self-profiler, with the report fold, the artifacts and a
    /// telemetry-on/off pair timed from outside. `plain_run_s` is the
    /// untraced `fleet_run` wall time of this plan. Returns the traced
    /// pass wall time.
    pub fn traced(&self, plain_run_s: f64, out: &mut Metrics) -> Result<f64, String> {
        let profiled = self.plan.clone().with_profile(true);
        let t = Instant::now();
        let run = fleet_run(&profiled, &Exec::serial());
        let run_s = secs_since(t);
        let t = Instant::now();
        if self.renders() {
            black_box(render_artifacts(&run, true)?);
        }
        let in_pass_artifacts_s = secs_since(t);
        let wall = run_s + in_pass_artifacts_s;

        let prof = run
            .profile
            .as_ref()
            .ok_or("the profiler produced no data")?;
        let mut profile_ms = 0.0;
        for span in ["setup", "run", "probe", "mod_wake", "return", "finalize"] {
            let ms: f64 = prof
                .entries()
                .filter(|(k, _)| k.rsplit(';').next() == Some(span))
                .map(|(_, e)| e.wall_ns as f64 / 1e6)
                .sum();
            profile_ms += ms;
            out.set(&format!("profile.fleet.{span}_ms"), ms, "ms");
        }
        let setup_ms = out.get("profile.fleet.setup_ms").map_or(0.0, |m| m.value);
        out.set(
            "emu.fleet.setup_us_per_client",
            setup_ms * 1e3 / f64::from(self.plan.clients),
            "us",
        );

        // The report fold fleet_run ends with, and the manifests' JSON.
        let t = Instant::now();
        let report = FleetReport::from_manifests(
            self.plan.scenario.name,
            &run.manifests,
            &FidelityThresholds::default(),
        );
        black_box(report.deterministic_json());
        let fold_s = secs_since(t);
        let t = Instant::now();
        for m in &run.manifests {
            black_box(RunManifest::deterministic_json(m));
        }
        out.set("obs.manifest_ms", (fold_s + secs_since(t)) * 1e3, "ms");

        let t = Instant::now();
        black_box(render_artifacts(&run, self.plan.telemetry.is_some())?);
        out.set("obs.artifacts_ms", secs_since(t) * 1e3, "ms");

        // Telemetry on over telemetry off, on this workload's plan.
        let twin = match self.plan.telemetry {
            Some(_) => FleetPlan {
                telemetry: None,
                ..self.plan.clone()
            },
            None => self.plan.clone().with_telemetry(TelemetryConfig::default()),
        };
        let t = Instant::now();
        black_box(fleet_run(&twin, &Exec::serial()));
        let twin_s = secs_since(t);
        let (on, off) = if self.plan.telemetry.is_some() {
            (plain_run_s, twin_s)
        } else {
            (twin_s, plain_run_s)
        };
        out.set("obs.telemetry_overhead_ratio", on / off, "ratio");
        out.set(
            "trace.attributed_ms",
            profile_ms + fold_s * 1e3 + in_pass_artifacts_s * 1e3,
            "ms",
        );
        Ok(wall)
    }

    /// Client `c`'s channel model from this workload's source: the
    /// scenario's model, or the pack's spec through the registry.
    pub fn model(&self, client: u32, rng: &mut SimRng) -> Box<dyn ChannelModel> {
        match &self.plan.pack {
            Some(pack) => Registry::builtin()
                .build(pack.spec_for_client(client), self.plan.duration(), rng)
                .expect("pack specs are validated at load time"),
            None => self.plan.scenario.model(rng),
        }
    }
}
