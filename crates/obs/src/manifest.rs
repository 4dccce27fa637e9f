//! The per-run observability manifest: one runner-stripped line per
//! live-pipeline trial or fleet client in a run directory's
//! `manifests.jsonl`.

use crate::alerts::{evaluate, AlertInputs, RuleSet, Severity};
use crate::fidelity::FidelityReport;
use crate::registry::MetricsRegistry;
use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::Arc;

/// Manifest schema version, bumped on incompatible layout changes.
pub const MANIFEST_SCHEMA: u32 = 1;

/// Wall-clock runner measurements. Everything in here may differ from
/// run to run and between worker counts; it is excluded from
/// [`RunManifest::deterministic_json`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunnerSection {
    /// Wall-clock duration of the run, in seconds.
    pub wall_secs: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Trace records processed per wall-clock second.
    pub records_per_sec: f64,
    /// Fraction of worker-seconds spent executing cells (1.0 = all
    /// workers busy the whole run).
    pub worker_utilization: f64,
}

/// Compact JSON of `value` with its top-level `runner` entry written as
/// `null`: the bytes a copy with `runner: None` gives, from one
/// serialization and no copy.
pub(crate) fn runner_stripped_json<T: Serialize>(value: &T) -> Result<String, serde_json::Error> {
    let mut tree = value.serialize();
    if let Value::Object(entries) = &mut tree {
        for (key, v) in entries.iter_mut() {
            if key == "runner" {
                *v = Value::Null;
            }
        }
    }
    serde_json::value_to_string(&tree)
}

/// The channel model that produced a run's conditions, identified by
/// its registry family name + canonical parameter string — the stable
/// attribution key alerts and `diff-runs` group divergences by.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Registered model-family name ("piecewise", "errant", "leo", …).
    pub family: String,
    /// Canonical `key=value` parameter string (sorted keys; may be
    /// empty for all-defaults builds).
    pub params: String,
}

/// The machine-readable record of one emulation run: deterministic
/// sim-path metrics and fidelity self-check.
/// A fleet keeps one per client, so names and the model are shared,
/// not copied (parsed manifests own theirs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Schema version ([`MANIFEST_SCHEMA`]).
    pub schema: u32,
    /// Scenario name (e.g. `"porter_walk"`).
    pub scenario: Cow<'static, str>,
    /// Benchmark/workload name driving the run.
    pub benchmark: Cow<'static, str>,
    /// Trial index within the scenario.
    pub trial: u32,
    /// Stage-prefixed deterministic metrics
    /// (`netsim.*`, `wavelan.*`, `distill.*`, `modulate.*`, `emu.*`).
    pub metrics: MetricsRegistry,
    /// Modulation-layer fidelity self-check.
    pub fidelity: FidelityReport,
    /// The channel model behind this run (deterministic; part of the
    /// byte-identity surface). Absent in pre-registry manifests.
    #[serde(default)]
    pub model: Option<Arc<ModelInfo>>,
    /// Wall-clock runner section. A run manifest reads no wall clock,
    /// so no run fills it and the deterministic form writes `null`; the
    /// field is part of the manifest schema.
    #[serde(default)]
    pub runner: Option<RunnerSection>,
}

impl RunManifest {
    /// An empty manifest for the given run identity.
    pub fn new(
        scenario: impl Into<Cow<'static, str>>,
        benchmark: impl Into<Cow<'static, str>>,
        trial: u32,
    ) -> Self {
        RunManifest {
            schema: MANIFEST_SCHEMA,
            scenario: scenario.into(),
            benchmark: benchmark.into(),
            trial,
            metrics: MetricsRegistry::new(),
            fidelity: FidelityReport::empty(),
            model: None,
            runner: None,
        }
    }

    /// Record the channel model behind this run.
    pub fn set_model(&mut self, family: &str, params: &str) {
        self.model = Some(Arc::new(ModelInfo {
            family: family.to_string(),
            params: params.to_string(),
        }));
    }

    /// Parse a manifest from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("bad run manifest: {e}"))
    }

    /// Compact JSON with the wall-clock section stripped — the form two
    /// runs of the same cell must match **byte for byte**, regardless
    /// of `--jobs`.
    pub fn deterministic_json(&self) -> String {
        runner_stripped_json(self).unwrap_or_default()
    }

    /// Markdown report (the `tracemod obs-report` output) — suitable
    /// for pasting into a PR description or CI job summary.
    pub fn render_markdown(&self) -> String {
        let mut s = String::new();
        let f = &self.fidelity;
        let _ = writeln!(
            s,
            "## Run manifest: `{}` / `{}` trial {} (schema {})\n",
            self.scenario, self.benchmark, self.trial, self.schema
        );
        if let Some(m) = &self.model {
            let _ = writeln!(s, "Channel model: `{}` [{}]\n", m.family, m.params);
        }

        let _ = writeln!(s, "### Fidelity self-check\n");
        let _ = writeln!(s, "| metric | value |");
        let _ = writeln!(s, "|---|---|");
        let _ = writeln!(
            s,
            "| packets offered | {} ({} modulated, {} unmodulated = {:.1}%) |",
            f.modulated_packets + f.unmodulated_packets,
            f.modulated_packets,
            f.unmodulated_packets,
            f.unmodulated_fraction * 100.0
        );
        let _ = writeln!(
            s,
            "| released / dropped | {} / {} |",
            f.released_packets, f.dropped_packets
        );
        let _ = writeln!(
            s,
            "| delay error (ms) | mean {:+.3}, min {:+.3}, max {:+.3} |",
            f.delay_error_ms.mean, f.delay_error_ms.min, f.delay_error_ms.max
        );
        let _ = writeln!(
            s,
            "| abs delay error (ms) | p50 {:.3}, p95 {:.3}, p99 {:.3} |",
            f.abs_delay_error_p50_ms, f.abs_delay_error_p95_ms, f.abs_delay_error_p99_ms
        );
        let _ = writeln!(
            s,
            "| deadline misses | {} (rate {:.4}) |",
            f.deadline_misses, f.deadline_miss_rate
        );
        let _ = writeln!(
            s,
            "| corrections | {} drift clamps, {} delay-compensated |",
            f.drift_clamps, f.compensated_packets
        );
        let _ = writeln!(
            s,
            "| loss rate | expected {:.4}, observed {:.4} (delta {:+.4}) |",
            f.expected_loss_rate, f.observed_loss_rate, f.loss_delta
        );
        if f.degraded {
            let _ = writeln!(
                s,
                "| degraded | YES ({} starvation holds) |",
                f.starvation_holds
            );
        }
        let inputs = AlertInputs {
            run: Some(self),
            ..AlertInputs::default()
        };
        let verdict = evaluate(&RuleSet::builtin(), &inputs).expect("builtin rules judge a run");
        let violations = verdict.check(Severity::Warn);
        if violations.is_empty() {
            let _ = writeln!(s, "\n**Self-check: PASS** (builtin rules)");
        } else {
            let _ = writeln!(s, "\n**Self-check: FAIL**");
            for v in &violations {
                let _ = writeln!(s, "- {v}");
            }
        }

        let _ = writeln!(s, "\n### Metrics ({} recorded)\n", self.metrics.len());
        let _ = writeln!(s, "| name | value |");
        let _ = writeln!(s, "|---|---|");
        for (k, v) in self.metrics.counters() {
            let _ = writeln!(s, "| `{k}` | {v} |");
        }
        for (k, v) in self.metrics.gauges() {
            let _ = writeln!(s, "| `{k}` | {v:.4} |");
        }
        for (k, h) in self.metrics.hists() {
            let _ = writeln!(
                s,
                "| `{k}` | n={} mean={:.4} p95={:.4} |",
                h.count, h.mean, h.p95
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::FidelityCollector;

    fn sample_manifest() -> RunManifest {
        let mut m = RunManifest::new("porter_walk", "web", 0);
        m.metrics.set_counter("netsim.events", 420);
        m.metrics.set_gauge("modulate.buffer_peak", 3.0);
        let mut fc = FidelityCollector::new();
        for _ in 0..10 {
            fc.on_modulated(0.05);
            fc.on_release(1.5, false);
        }
        m.fidelity = fc.report();
        m
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let mut m = sample_manifest();
        m.runner = Some(RunnerSection {
            wall_secs: 1.25,
            workers: 8,
            records_per_sec: 1000.0,
            worker_utilization: 0.9,
        });
        let back = RunManifest::from_json(&serde_json::to_string(&m).unwrap()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.schema, MANIFEST_SCHEMA);
    }

    #[test]
    fn deterministic_json_strips_runner() {
        let mut a = sample_manifest();
        let mut b = sample_manifest();
        a.runner = Some(RunnerSection {
            wall_secs: 0.5,
            workers: 1,
            records_per_sec: 10.0,
            worker_utilization: 1.0,
        });
        b.runner = Some(RunnerSection {
            wall_secs: 9.0,
            workers: 8,
            records_per_sec: 99.0,
            worker_utilization: 0.2,
        });
        assert_ne!(a, b);
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        assert!(!a.deterministic_json().contains("wall_secs"));
        let stripped = RunManifest { runner: None, ..a };
        assert_eq!(
            b.deterministic_json(),
            serde_json::to_string(&stripped).unwrap()
        );
    }

    #[test]
    fn manifest_without_runner_field_parses() {
        let m = sample_manifest();
        let json = m.deterministic_json();
        let back = RunManifest::from_json(&json).unwrap();
        assert_eq!(back.runner, None);
        assert_eq!(back.metrics.counter("netsim.events"), Some(420));
    }

    #[test]
    fn render_markdown_has_tables_and_verdict() {
        let m = sample_manifest();
        let md = m.render_markdown();
        assert!(md.contains("## Run manifest: `porter_walk` / `web` trial 0"));
        assert!(md.contains("| metric | value |"));
        assert!(md.contains("| `netsim.events` | 420 |"));
        assert!(md.contains("**Self-check: PASS**"));
    }

    #[test]
    fn render_markdown_shows_every_fidelity_fact() {
        let mut m = sample_manifest();
        let mut fc = FidelityCollector::new();
        for i in 0..8 {
            fc.on_modulated(0.0);
            fc.on_release(0.5, false);
            if i < 3 {
                fc.on_drift_clamp();
            }
            if i < 5 {
                fc.on_compensated();
            }
        }
        fc.on_unmodulated();
        fc.on_unmodulated();
        m.fidelity = fc.report();
        let md = m.render_markdown();
        assert!(
            md.contains("| packets offered | 10 (8 modulated, 2 unmodulated = 20.0%) |"),
            "{md}"
        );
        assert!(
            md.contains("| corrections | 3 drift clamps, 5 delay-compensated |"),
            "{md}"
        );
    }
}
