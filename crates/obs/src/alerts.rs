//! The one engine that judges a run: declarative rules evaluated in
//! virtual time over one run's fidelity section or a fleet's report
//! and telemetry plane.
//!
//! A rule names a metric — a [`FidelityReport`] field of one run from
//! the `RUN_FIELDS` table (`run.*`), a [`SamplePoint`] field from the
//! telemetry field table `FIELDS` or the derived mean delay error
//! (`sample.*`), a [`FleetReport`] aggregate from the
//! `FLEET_AGGREGATES` table (`fleet.*`), or a fleet counter
//! (`fleet.metrics.*`) — and one predicate: a plain threshold
//! (`above` / `below`), a windowed burn rate (`window` + `frac`: the
//! fraction of the trailing window's boundaries violating the
//! threshold), or a delta-vs-baseline bound (`baseline_max_abs` /
//! `baseline_max_rel` against a second run's report). A `run.*`
//! threshold may carry a sample guard (`min_modulated_packets`): it
//! judges only runs that modulated at least that many packets. Rules
//! carry a severity and an optional chaos-aware suppression clause:
//! fault kinds plus a window length, keyed off [`FaultEvent`]
//! timestamps, so alerts raised in the shadow of an injected fault are
//! *attributed* to it instead of firing as false positives.
//!
//! **Subjects.** An evaluation judges one run (its manifest) with the
//! `run.*` rules, or one fleet with the rest. A fleet meets the `run.*`
//! rules client by client: [`FidelityThresholds`] is those rules
//! compiled, and [`FleetReport::from_manifests`] counts the clients
//! they fail in `fleet.failed_clients`.
//!
//! **Determinism.** Evaluation reads only deterministic inputs — the
//! merged integer telemetry series, the deterministic fields of the
//! fleet report, and virtual-time-stamped fault events — and never
//! wall clock, so the same run yields a byte-identical
//! [`AlertReport`] (JSONL and markdown) at any shard or worker count.
//!
//! Rules load from a small TOML subset ([`RuleSet::from_toml`]:
//! `[[rule]]` tables with string / number / string-array values), and
//! [`RuleSet::builtin`] holds the fidelity contract every `--check`
//! gates on.

use crate::fidelity::FidelityReport;
use crate::fleet::FleetReport;
use crate::manifest::RunManifest;
use crate::telemetry::{SamplePoint, FIELDS};
use crate::toml;
use serde::{Deserialize, Num, Serialize, Value};
use std::fmt::Write as _;

/// Alert-report schema version, bumped on incompatible layout changes.
pub const ALERTS_SCHEMA: u32 = 1;

/// Alert severity, ordered least to most urgent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: recorded, never gated on by default.
    Info,
    /// Degradation worth surfacing; the default gate floor.
    Warn,
    /// Fidelity contract broken.
    Critical,
}

impl Severity {
    /// Parse a severity name (`info`, `warn`, `critical`).
    pub fn parse(s: &str) -> Result<Severity, String> {
        match s {
            "info" => Ok(Severity::Info),
            "warn" | "" => Ok(Severity::Warn),
            "critical" => Ok(Severity::Critical),
            other => Err(format!(
                "unknown severity '{other}' (try: info, warn, critical)"
            )),
        }
    }

    /// Stable lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }
}

/// One declared rule, as parsed from TOML — a flat bag of optional
/// clauses validated into a predicate by [`RuleSet::compile`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSpec {
    /// Rule name (unique within a set; appears in every alert).
    pub name: String,
    /// Metric selector: `run.<field>`, `sample.<field>`,
    /// `fleet.<field>`, or `fleet.metrics.<counter>`.
    pub metric: String,
    /// Severity name (`info` / `warn` / `critical`; default `warn`).
    pub severity: String,
    /// Threshold: violate when the metric is strictly above this.
    pub above: Option<f64>,
    /// Threshold: violate when the metric is strictly below this.
    pub below: Option<f64>,
    /// Burn-rate window length in sample boundaries (with `frac`).
    pub window: Option<u64>,
    /// Burn-rate fraction in `[0, 1]`: the boundary violates when at
    /// least this fraction of the trailing `window` boundaries breach
    /// the threshold.
    pub frac: Option<f64>,
    /// Delta-vs-baseline: absolute tolerance around the baseline value.
    pub baseline_max_abs: Option<f64>,
    /// Delta-vs-baseline: relative tolerance (fraction of |baseline|).
    pub baseline_max_rel: Option<f64>,
    /// Fault kinds whose injection opens a suppression window.
    pub suppress: Vec<String>,
    /// Suppression window length in virtual seconds after each
    /// matching fault event (default 5 s when `suppress` is set).
    pub suppress_window_secs: Option<f64>,
    /// Sample guard of a `run.*` rule: runs that modulated fewer
    /// packets pass it unjudged.
    pub min_modulated_packets: Option<u64>,
}

/// A parsed set of alert rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    /// The declared rules, in declaration order.
    pub rules: Vec<RuleSpec>,
}

/// Default suppression window when a rule names fault kinds without a
/// `suppress_window_secs` clause.
const DEFAULT_SUPPRESS_WINDOW_NS: u64 = 5_000_000_000;

impl RuleSet {
    /// Parse the TOML subset: `[[rule]]` tables whose entries are
    /// `key = value` lines with string, number, integer or
    /// string-array values; `#` comments and blank lines are ignored.
    pub fn from_toml(s: &str) -> Result<RuleSet, String> {
        let mut rules: Vec<RuleSpec> = Vec::new();
        toml::read(s, "rules", "rule", |t| {
            if t.index == 0 {
                return t.rest(|key, _| Err(format!("'{key}' appears before any [[rule]] table")));
            }
            rules.push(RuleSpec {
                name: t.get("name", toml::string)?.unwrap_or_default(),
                metric: t.get("metric", toml::string)?.unwrap_or_default(),
                severity: t.get("severity", toml::string)?.unwrap_or_default(),
                above: t.get("above", toml::number)?,
                below: t.get("below", toml::number)?,
                window: t.get("window", toml::integer)?,
                frac: t.get("frac", toml::number)?,
                baseline_max_abs: t.get("baseline_max_abs", toml::number)?,
                baseline_max_rel: t.get("baseline_max_rel", toml::number)?,
                suppress: (t.get("suppress", |k, v| toml::array(k, v, toml::string))?)
                    .unwrap_or_default(),
                suppress_window_secs: t.get("suppress_window_secs", toml::number)?,
                min_modulated_packets: t.get("min_modulated_packets", toml::integer)?,
            });
            Ok(())
        })?;
        Ok(RuleSet { rules })
    }

    /// Compile and validate into evaluable rules.
    pub fn compile(&self) -> Result<Vec<CompiledRule>, String> {
        self.rules.iter().map(CompiledRule::from_spec).collect()
    }

    /// The built-in rules (`--rules builtin`, the rule file
    /// `builtin_rules.toml` beside this module): the fidelity contract
    /// that `obs-report`, `chaos`, `fleet` and `alerts --check` gate
    /// on, with every bar written once. The `run.*` rules judge one run
    /// and, through `fleet.failed_clients`, every fleet client; the
    /// `fleet.*` rules judge the fleet as a whole, and the `sample.*`
    /// rules its telemetry series.
    pub fn builtin() -> RuleSet {
        RuleSet::from_toml(include_str!("builtin_rules.toml")).expect("builtin rules parse")
    }
}

/// The metric a compiled rule reads.
#[derive(Debug, Clone, PartialEq)]
enum MetricSel {
    /// Entry `i` of [`RUN_FIELDS`].
    Run(usize),
    /// A per-boundary series of the telemetry rows.
    Sample(Series),
    /// Entry `i` of [`FLEET_AGGREGATES`].
    Fleet(usize),
    /// A fleet counter from the report's metrics registry.
    FleetCounter(String),
}

/// A compiled predicate over the selected metric.
#[derive(Debug, Clone, PartialEq)]
enum Predicate {
    /// Violate when the value is strictly above (`true`) / below
    /// (`false`) the threshold.
    Threshold {
        /// Strictly-above when true, strictly-below when false.
        above: bool,
        /// The threshold value.
        limit: f64,
    },
    /// Violate at a boundary when at least `frac` of the trailing
    /// `window` boundaries breach the threshold.
    BurnRate {
        /// Strictly-above when true, strictly-below when false.
        above: bool,
        /// The threshold value.
        limit: f64,
        /// Trailing window length in boundaries.
        window: u64,
        /// Violating fraction that trips the rule.
        frac: f64,
    },
    /// Violate when the value drifts outside
    /// `baseline ± (max_abs + max_rel × |baseline|)`.
    DeltaVsBaseline {
        /// Absolute tolerance.
        max_abs: f64,
        /// Relative tolerance as a fraction of |baseline|.
        max_rel: f64,
    },
}

impl Predicate {
    /// Human/markdown rendering of the violated condition.
    fn describe(&self) -> String {
        match self {
            Predicate::Threshold { above, limit } => {
                format!("{} {limit}", if *above { ">" } else { "<" })
            }
            Predicate::BurnRate {
                above,
                limit,
                window,
                frac,
            } => format!(
                ">= {frac} of last {window} samples {} {limit}",
                if *above { ">" } else { "<" }
            ),
            Predicate::DeltaVsBaseline { max_abs, max_rel } => {
                format!("within baseline ± ({max_abs} + {max_rel}·|baseline|)")
            }
        }
    }
}

/// One rule compiled and validated, ready to evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRule {
    name: String,
    metric_name: String,
    metric: MetricSel,
    severity: Severity,
    predicate: Predicate,
    min_modulated_packets: u64,
    suppress: Vec<String>,
    suppress_window_ns: u64,
}

/// A `sample.<name>` series: a field of the telemetry table
/// [`FIELDS`], or the one derived value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Series {
    /// Field `i` of [`FIELDS`].
    Field(usize),
    /// [`SamplePoint::mean_abs_delay_error_ms`].
    MeanAbsDelayErrorMs,
}

impl Series {
    fn parse(name: &str) -> Option<Series> {
        if name == "mean_abs_delay_error_ms" {
            return Some(Series::MeanAbsDelayErrorMs);
        }
        FIELDS
            .iter()
            .position(|f| f.name == name)
            .map(Series::Field)
    }

    fn read(self, row: &SamplePoint) -> f64 {
        match self {
            Series::Field(i) => row.values()[i] as f64,
            Series::MeanAbsDelayErrorMs => row.mean_abs_delay_error_ms(),
        }
    }
}

/// A `run.<name>` selector: the field's name and its reader.
type RunField = (&'static str, fn(&FidelityReport) -> f64);

/// The judgeable fields of one run's [`FidelityReport`], one entry
/// each, plus `abs_loss_delta` (|`loss_delta`|).
const RUN_FIELDS: [RunField; 18] = [
    ("modulated_packets", |f| f.modulated_packets as f64),
    ("unmodulated_packets", |f| f.unmodulated_packets as f64),
    ("dropped_packets", |f| f.dropped_packets as f64),
    ("released_packets", |f| f.released_packets as f64),
    ("abs_delay_error_p50_ms", |f| f.abs_delay_error_p50_ms),
    ("abs_delay_error_p95_ms", |f| f.abs_delay_error_p95_ms),
    ("abs_delay_error_p99_ms", |f| f.abs_delay_error_p99_ms),
    ("deadline_misses", |f| f.deadline_misses as f64),
    ("deadline_miss_rate", |f| f.deadline_miss_rate),
    ("drift_clamps", |f| f.drift_clamps as f64),
    ("compensated_packets", |f| f.compensated_packets as f64),
    ("expected_loss_rate", |f| f.expected_loss_rate),
    ("observed_loss_rate", |f| f.observed_loss_rate),
    ("loss_delta", |f| f.loss_delta),
    ("abs_loss_delta", |f| f.loss_delta.abs()),
    ("unmodulated_fraction", |f| f.unmodulated_fraction),
    ("starvation_holds", |f| f.starvation_holds as f64),
    ("degraded", |f| f64::from(u8::from(f.degraded))),
];

/// A `fleet.<name>` selector: the aggregate's name and its reader.
type Aggregate = (&'static str, fn(&FleetReport) -> f64);

/// The alertable aggregates of a [`FleetReport`], one entry each.
const FLEET_AGGREGATES: [Aggregate; 10] = [
    ("clients", |r| f64::from(r.clients)),
    ("modulated_packets", |r| r.modulated_packets as f64),
    ("released_packets", |r| r.released_packets as f64),
    ("dropped_packets", |r| r.dropped_packets as f64),
    ("deadline_misses", |r| r.deadline_misses as f64),
    ("deadline_miss_rate", |r| r.deadline_miss_rate),
    ("mean_abs_delay_error_p95_ms", |r| {
        r.mean_abs_delay_error_p95_ms
    }),
    ("worst_abs_delay_error_p95_ms", |r| {
        r.worst_abs_delay_error_p95_ms
    }),
    ("failed_clients", |r| f64::from(r.failed_clients)),
    ("degraded_clients", |r| f64::from(r.degraded_clients)),
];

impl CompiledRule {
    fn from_spec(spec: &RuleSpec) -> Result<CompiledRule, String> {
        if spec.name.is_empty() {
            return Err("rule (unnamed): missing 'name'".into());
        }
        let ctx = |msg: String| format!("rule '{}': {msg}", spec.name);
        let metric = if let Some(field) = spec.metric.strip_prefix("run.") {
            let i = RUN_FIELDS
                .iter()
                .position(|(name, _)| *name == field)
                .ok_or_else(|| ctx(format!("unknown run field '{field}'")))?;
            MetricSel::Run(i)
        } else if let Some(field) = spec.metric.strip_prefix("sample.") {
            let series = Series::parse(field)
                .ok_or_else(|| ctx(format!("unknown sample field '{field}'")))?;
            MetricSel::Sample(series)
        } else if let Some(counter) = spec.metric.strip_prefix("fleet.metrics.") {
            if counter.is_empty() {
                return Err(ctx("empty fleet counter name".into()));
            }
            MetricSel::FleetCounter(counter.to_string())
        } else if let Some(field) = spec.metric.strip_prefix("fleet.") {
            let i = FLEET_AGGREGATES
                .iter()
                .position(|(name, _)| *name == field)
                .ok_or_else(|| {
                    let names: Vec<&str> = FLEET_AGGREGATES.iter().map(|(n, _)| *n).collect();
                    ctx(format!(
                        "unknown fleet field '{field}' (try: {})",
                        names.join(", ")
                    ))
                })?;
            MetricSel::Fleet(i)
        } else {
            return Err(ctx(format!(
                "metric '{}' must start with run., sample., fleet., or fleet.metrics.",
                spec.metric
            )));
        };
        let is_run = matches!(metric, MetricSel::Run(_));
        let severity = Severity::parse(&spec.severity).map_err(&ctx)?;

        let threshold = match (spec.above, spec.below) {
            (Some(_), Some(_)) => return Err(ctx("'above' and 'below' are exclusive".into())),
            (Some(limit), None) => Some((true, limit)),
            (None, Some(limit)) => Some((false, limit)),
            (None, None) => None,
        };
        let baseline = spec.baseline_max_abs.is_some() || spec.baseline_max_rel.is_some();
        let predicate = match (threshold, baseline) {
            (Some(_), true) => {
                return Err(ctx(
                    "threshold and baseline clauses are exclusive in one rule".into(),
                ))
            }
            (None, false) => {
                return Err(ctx(
                    "rule needs 'above', 'below', or a baseline_max_* clause".into(),
                ))
            }
            (Some((above, limit)), false) => match (spec.window, spec.frac) {
                (None, None) => Predicate::Threshold { above, limit },
                (Some(window), frac) => {
                    if window == 0 {
                        return Err(ctx("'window' must be >= 1".into()));
                    }
                    let frac = frac.unwrap_or(1.0);
                    if !(0.0..=1.0).contains(&frac) {
                        return Err(ctx("'frac' must be in [0, 1]".into()));
                    }
                    if !matches!(metric, MetricSel::Sample(_)) {
                        return Err(ctx(
                            "burn-rate windows only apply to sample.* metrics".into()
                        ));
                    }
                    Predicate::BurnRate {
                        above,
                        limit,
                        window,
                        frac,
                    }
                }
                (None, Some(_)) => return Err(ctx("'frac' requires 'window'".into())),
            },
            (None, true) => {
                if spec.window.is_some() || spec.frac.is_some() {
                    return Err(ctx("baseline rules take no 'window'/'frac'".into()));
                }
                if is_run {
                    return Err(ctx("baseline rules read sample.* or fleet.* metrics".into()));
                }
                Predicate::DeltaVsBaseline {
                    max_abs: spec.baseline_max_abs.unwrap_or(0.0),
                    max_rel: spec.baseline_max_rel.unwrap_or(0.0),
                }
            }
        };
        if spec.min_modulated_packets.is_some() && !is_run {
            return Err(ctx("'min_modulated_packets' guards run.* rules only".into()));
        }
        let suppress_window_ns = match spec.suppress_window_secs {
            None => DEFAULT_SUPPRESS_WINDOW_NS,
            Some(s) if s >= 0.0 => (s * 1e9) as u64,
            Some(_) => return Err(ctx("'suppress_window_secs' must be >= 0".into())),
        };
        Ok(CompiledRule {
            name: spec.name.clone(),
            metric_name: spec.metric.clone(),
            metric,
            severity,
            predicate,
            min_modulated_packets: spec.min_modulated_packets.unwrap_or(0),
            suppress: spec.suppress.clone(),
            suppress_window_ns,
        })
    }

    /// The violated condition, rendered, with the sample guard.
    fn describe(&self) -> String {
        match self.min_modulated_packets {
            0 => self.predicate.describe(),
            n => format!("{} (from {n} modulated packets)", self.predicate.describe()),
        }
    }

    /// The value of this `run.*` rule when it fires on `f`. A run
    /// below the sample guard is not judged.
    fn fires_on_run(&self, f: &FidelityReport) -> Option<f64> {
        let (MetricSel::Run(i), Predicate::Threshold { above, limit }) =
            (&self.metric, &self.predicate)
        else {
            unreachable!("run.* rules compile to thresholds")
        };
        let value = RUN_FIELDS[*i].1(f);
        let judged = f.modulated_packets >= self.min_modulated_packets;
        (judged && threshold_violated(value, *above, *limit)).then_some(value)
    }

    /// An alert of this rule: `(t_first_ns, t_last_ns, samples)`, the
    /// worst value, and the fault that suppresses it, if any.
    fn alert(&self, span: (u64, u64, u64), value: f64, fault: Option<&FaultEvent>) -> Alert {
        Alert {
            rule: self.name.clone(),
            severity: self.severity.name().to_string(),
            metric: self.metric_name.clone(),
            t_first_ns: span.0,
            t_last_ns: span.1,
            samples: span.2,
            value,
            threshold: self.describe(),
            suppressed: fault.is_some(),
            attributed_to: fault.map_or_else(String::new, |f| {
                format!("{}@{:.1}s", f.fault, f.t_virtual_ns as f64 / 1e9)
            }),
        }
    }

    /// Read this rule's whole-run value off `rep` (a `fleet.*` or
    /// `fleet.metrics.*` selector); `which` names the report in errors.
    fn aggregate(&self, rep: &FleetReport, which: &str) -> Result<f64, String> {
        match &self.metric {
            MetricSel::Fleet(i) => Ok(FLEET_AGGREGATES[*i].1(rep)),
            MetricSel::FleetCounter(name) => {
                rep.metrics.counter(name).map(|v| v as f64).ok_or_else(|| {
                    format!(
                        "rule '{}': fleet counter '{name}' not in {which}",
                        self.name
                    )
                })
            }
            MetricSel::Sample(_) | MetricSel::Run(_) => {
                unreachable!("only fleet selectors read a report")
            }
        }
    }
}

/// One injected fault, virtual-time stamped: the line `faultkit`
/// writes to a run directory's `faults.jsonl` per injection (re-exported
/// there as `faultkit::FaultEvent`), and the suppression-window input
/// of the alert engine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Virtual time of the injection (ns from run start).
    pub t_virtual_ns: u64,
    /// Fault kind (stable name, e.g. `kill_worker`).
    pub fault: String,
    /// Human-readable detail (offsets, indices, deltas). Optional on
    /// read, since `alerts DIR` accepts fault logs written elsewhere.
    #[serde(default)]
    pub info: String,
}

/// Parse fault events from a run directory's `faults.jsonl` log
/// (blank lines are skipped).
pub fn parse_fault_stamps(text: &str) -> Result<Vec<FaultEvent>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("bad fault line: {e}")))
        .collect()
}

/// Everything one evaluation reads. All references: evaluation never
/// mutates its inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlertInputs<'a> {
    /// One run to judge with the `run.*` rules. When set, the run is
    /// the subject and every other rule is out of scope.
    pub run: Option<&'a RunManifest>,
    /// Merged telemetry series, oldest first (empty when the run
    /// sampled no telemetry).
    pub series: &'a [SamplePoint],
    /// The run's aggregate fleet report, for `fleet.*` rules.
    pub report: Option<&'a FleetReport>,
    /// A baseline run's report (its embedded telemetry serves
    /// `sample.*` baseline rules) for delta-vs-baseline predicates.
    pub baseline: Option<&'a FleetReport>,
    /// Injected faults driving suppression windows.
    pub faults: &'a [FaultEvent],
}

/// One fired alert. A `sample.*` alert covers a maximal run of
/// consecutive violating boundaries sharing a suppression status; a
/// `run.*` or `fleet.*` alert covers the whole run
/// (`t_first_ns == t_last_ns == 0`, `samples == 1`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// The firing rule's name.
    pub rule: String,
    /// Severity name (`info` / `warn` / `critical`).
    pub severity: String,
    /// The metric selector that violated.
    pub metric: String,
    /// First violating boundary (virtual ns; 0 for aggregate rules).
    pub t_first_ns: u64,
    /// Last violating boundary (virtual ns; 0 for aggregate rules).
    pub t_last_ns: u64,
    /// Violating boundaries covered (1 for aggregate rules).
    pub samples: u64,
    /// Worst observed value over the covered boundaries.
    pub value: f64,
    /// The violated condition, rendered.
    pub threshold: String,
    /// True when every covered boundary fell inside a suppression
    /// window opened by a matching injected fault.
    pub suppressed: bool,
    /// The suppressing fault (`kind@t`), empty when unsuppressed.
    #[serde(default)]
    pub attributed_to: String,
}

impl Alert {
    /// The stretch of virtual time the alert covers, rendered.
    fn span(&self) -> String {
        if !self.metric.starts_with("sample.") {
            return "whole run".into();
        }
        format!(
            "{:.1}s..{:.1}s ({} samples)",
            self.t_first_ns as f64 / 1e9,
            self.t_last_ns as f64 / 1e9,
            self.samples
        )
    }
}

/// The deterministic evaluation artifact: every alert plus tallies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertReport {
    /// Schema version ([`ALERTS_SCHEMA`]).
    pub schema: u32,
    /// Rules that judged the subject: the `run.*` rules for a run,
    /// the others for a fleet.
    pub rules: u64,
    /// Telemetry boundaries scanned.
    pub boundaries: u64,
    /// Fault stamps considered for suppression.
    pub fault_events: u64,
    /// Every fired alert, in rule order then virtual-time order.
    pub alerts: Vec<Alert>,
}

impl AlertReport {
    /// Alerts that fired inside suppression windows.
    pub fn suppressed(&self) -> impl Iterator<Item = &Alert> {
        self.alerts.iter().filter(|a| a.suppressed)
    }

    /// Alerts that fired with no covering suppression window.
    pub fn active(&self) -> impl Iterator<Item = &Alert> {
        self.alerts.iter().filter(|a| !a.suppressed)
    }

    /// The gate: violation strings for every active alert at or above
    /// `floor` (empty = pass). Suppressed alerts never gate — they are
    /// attributed to their injected fault instead.
    pub fn check(&self, floor: Severity) -> Vec<String> {
        self.active()
            .filter(|a| Severity::parse(&a.severity).map(|s| s >= floor) == Ok(true))
            .map(|a| {
                format!(
                    "[{}] {} {} {} (worst {}, {})",
                    a.severity,
                    a.rule,
                    a.metric,
                    a.threshold,
                    a.value,
                    a.span()
                )
            })
            .collect()
    }

    /// One JSON object per alert, in report order — the `--out`
    /// artifact. Byte-identical across shard layouts and reruns.
    pub fn to_jsonl(&self) -> String {
        self.trial_jsonl(None)
    }

    /// [`to_jsonl`](Self::to_jsonl) for the report of one trial of a
    /// run: each line then leads with `"trial":N`, so the JSONL of a
    /// multi-trial run says which trial each alert belongs to. `None`
    /// (a fleet) adds nothing.
    pub fn trial_jsonl(&self, trial: Option<u32>) -> String {
        let mut s = String::new();
        for a in &self.alerts {
            let mut line = a.serialize();
            if let (Some(t), Value::Object(entries)) = (trial, &mut line) {
                entries.insert(0, ("trial".into(), Value::Num(Num::U(t.into()))));
            }
            s.push_str(&serde_json::value_to_string(&line).expect("alert serializes"));
            s.push('\n');
        }
        s
    }

    /// Markdown report: summary counts plus one table row per alert.
    pub fn render_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "## Alerts\n");
        let active = self.active().count();
        let suppressed = self.suppressed().count();
        let _ = writeln!(
            s,
            "*{} rules over {} boundaries, {} fault events: {} active alert(s), {} suppressed.*\n",
            self.rules, self.boundaries, self.fault_events, active, suppressed
        );
        if self.alerts.is_empty() {
            let _ = writeln!(s, "No alerts fired.");
            return s;
        }
        let _ = writeln!(
            s,
            "| severity | rule | metric | violated | worst | window (virtual) | suppressed by |"
        );
        let _ = writeln!(s, "|---|---|---|---|---|---|---|");
        for a in &self.alerts {
            let _ = writeln!(
                s,
                "| {} | {} | `{}` | {} | {} | {} | {} |",
                a.severity,
                a.rule,
                a.metric,
                a.threshold,
                a.value,
                a.span(),
                if a.suppressed {
                    a.attributed_to.as_str()
                } else {
                    "—"
                }
            );
        }
        s
    }
}

/// The suppressing fault for `rule`, if any: the latest matching-kind
/// fault with boundary `t` inside `[fault.t, fault.t + window]`. A
/// whole-run value (`t` = `None`: `run.*`, `fleet.*`) integrates the
/// full run, so every matching injection taints it.
fn covering_fault<'a>(
    rule: &CompiledRule,
    faults: &'a [FaultEvent],
    t: Option<u64>,
) -> Option<&'a FaultEvent> {
    let covers = |f: &FaultEvent| {
        t.is_none_or(|t| f.t_virtual_ns <= t && t - f.t_virtual_ns <= rule.suppress_window_ns)
    };
    (faults.iter())
        .filter(|f| rule.suppress.iter().any(|k| k == &f.fault) && covers(f))
        .max_by_key(|f| f.t_virtual_ns)
}

/// Evaluate a rule set over a run. Pure over its inputs: the same
/// inputs always produce the same report, byte for byte.
///
/// With [`AlertInputs::run`] set the `run.*` rules judge that run;
/// otherwise the other rules judge a fleet. A set with no rule for the
/// subject, and a rule whose input is missing, are errors, never a
/// vacuous pass.
pub fn evaluate(rules: &RuleSet, inputs: &AlertInputs) -> Result<AlertReport, String> {
    let compiled: Vec<CompiledRule> = (rules.compile()?.into_iter())
        .filter(|r| matches!(r.metric, MetricSel::Run(_)) == inputs.run.is_some())
        .collect();
    if compiled.is_empty() {
        return Err(match inputs.run {
            Some(_) => "no run.* rule to judge a run".into(),
            None => "no sample.* or fleet.* rule to judge a fleet".into(),
        });
    }
    let mut report = AlertReport {
        schema: ALERTS_SCHEMA,
        rules: compiled.len() as u64,
        boundaries: inputs.series.len() as u64,
        fault_events: inputs.faults.len() as u64,
        alerts: Vec::new(),
    };
    for rule in &compiled {
        let fired = match &rule.metric {
            MetricSel::Sample(series) => {
                evaluate_series(rule, *series, inputs, &mut report.alerts)?;
                continue;
            }
            MetricSel::Run(_) => {
                let run = inputs.run.expect("run.* rules judge a run");
                rule.fires_on_run(&run.fidelity)
            }
            MetricSel::Fleet(_) | MetricSel::FleetCounter(_) => {
                let Some(rep) = inputs.report else {
                    return Err(format!(
                        "rule '{}' reads {} but no fleet report was provided",
                        rule.name, rule.metric_name
                    ));
                };
                let value = rule.aggregate(rep, "report")?;
                let violated = match &rule.predicate {
                    Predicate::Threshold { above, limit } => {
                        threshold_violated(value, *above, *limit)
                    }
                    Predicate::DeltaVsBaseline { max_abs, max_rel } => {
                        let Some(base) = inputs.baseline else {
                            return Err(format!(
                                "rule '{}' needs a baseline report for {}",
                                rule.name, rule.metric_name
                            ));
                        };
                        let b = rule.aggregate(base, "baseline")?;
                        (value - b).abs() > max_abs + max_rel * b.abs()
                    }
                    Predicate::BurnRate { .. } => unreachable!("rejected at compile"),
                };
                violated.then_some(value)
            }
        };
        if let Some(value) = fired {
            let fault = covering_fault(rule, inputs.faults, None);
            report.alerts.push(rule.alert((0, 0, 1), value, fault));
        }
    }
    Ok(report)
}

/// The per-run fidelity contract, compiled once: the `run.*` rules of
/// [`RuleSet::builtin`]. [`FleetReport::from_manifests`] counts a
/// client as failed when one of them fires on its fidelity section.
#[derive(Debug, Clone)]
pub struct FidelityThresholds(Vec<CompiledRule>);

impl Default for FidelityThresholds {
    fn default() -> Self {
        let rules = RuleSet::builtin().compile().expect("builtin rules compile");
        let run = rules
            .into_iter()
            .filter(|r| matches!(r.metric, MetricSel::Run(_)));
        FidelityThresholds(run.collect())
    }
}

impl FidelityThresholds {
    /// Whether a rule fails the run behind `f`. Allocates nothing.
    pub fn fails(&self, f: &FidelityReport) -> bool {
        self.0.iter().any(|r| r.fires_on_run(f).is_some())
    }
}

fn threshold_violated(value: f64, above: bool, limit: f64) -> bool {
    if above {
        value > limit
    } else {
        value < limit
    }
}

/// Series (`sample.*`) evaluation: per-boundary violation flags, then
/// maximal runs of consecutive violating boundaries sharing a
/// suppression status collapse into one alert each.
fn evaluate_series(
    rule: &CompiledRule,
    sel: Series,
    inputs: &AlertInputs,
    alerts: &mut Vec<Alert>,
) -> Result<(), String> {
    let series = inputs.series;
    // Per-boundary (violates, worst value observed for the alert row).
    let mut flags: Vec<Option<f64>> = Vec::with_capacity(series.len());
    match &rule.predicate {
        Predicate::Threshold { above, limit } => {
            for row in series {
                let v = sel.read(row);
                flags.push(threshold_violated(v, *above, *limit).then_some(v));
            }
        }
        Predicate::BurnRate {
            above,
            limit,
            window,
            frac,
        } => {
            let w = *window as usize;
            for i in 0..series.len() {
                let lo = (i + 1).saturating_sub(w);
                let win = &series[lo..=i];
                let bad = win
                    .iter()
                    .filter(|r| threshold_violated(sel.read(r), *above, *limit))
                    .count();
                // Full windows only: the first w-1 boundaries cannot burn.
                let burns = win.len() == w && bad as f64 >= *frac * w as f64;
                flags.push(burns.then(|| sel.read(&series[i])));
            }
        }
        Predicate::DeltaVsBaseline { max_abs, max_rel } => {
            let base_series = inputs
                .baseline
                .and_then(|b| b.telemetry.as_ref())
                .map(|t| t.series.as_slice())
                .ok_or_else(|| {
                    format!(
                        "rule '{}' needs a baseline report with telemetry for {}",
                        rule.name, rule.metric_name
                    )
                })?;
            for row in series {
                // Align by boundary time, not index: a perturbed run may
                // cover a different span.
                let b = base_series.iter().find(|r| r.t_ns == row.t_ns);
                flags.push(match b {
                    None => None,
                    Some(b) => {
                        let (v, bv) = (sel.read(row), sel.read(b));
                        ((v - bv).abs() > max_abs + max_rel * bv.abs()).then_some(v)
                    }
                });
            }
        }
    }
    // Collapse runs. A run splits when suppression status changes so a
    // fault-shadowed prefix suppresses while the tail still alarms.
    let mut i = 0;
    while i < series.len() {
        let Some(v0) = flags[i] else {
            i += 1;
            continue;
        };
        let first_fault = covering_fault(rule, inputs.faults, Some(series[i].t_ns));
        let status = first_fault.is_some();
        let (mut last, mut worst, mut count) = (i, v0, 1u64);
        let mut j = i + 1;
        while j < series.len() {
            let Some(v) = flags[j] else { break };
            if covering_fault(rule, inputs.faults, Some(series[j].t_ns)).is_some() != status {
                break;
            }
            worst = if worst >= v { worst } else { v };
            last = j;
            count += 1;
            j += 1;
        }
        let span = (series[i].t_ns, series[last].t_ns, count);
        alerts.push(rule.alert(span, worst, first_fault));
        i = j;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{FleetTelemetry, TELEMETRY_SCHEMA};

    fn row(t_secs: u64, queue_depth: u64, released: u64, err_ns: u64) -> SamplePoint {
        SamplePoint {
            t_ns: t_secs * 1_000_000_000,
            queue_depth,
            released,
            abs_delay_error_ns: err_ns,
            ..SamplePoint::default()
        }
    }

    fn one_rule(toml: &str) -> RuleSet {
        RuleSet::from_toml(toml).unwrap()
    }

    #[test]
    fn toml_parses_rules_and_rejects_garbage() {
        let rs = one_rule(
            r#"
# a comment
[[rule]]
name = "deep-queue"            # trailing comment
metric = "sample.queue_depth"
severity = "critical"
above = 100
window = 2
frac = 0.5
suppress = ["kill_worker", "stall_feed"]
suppress_window_secs = 7.5
"#,
        );
        assert_eq!(rs.rules.len(), 1);
        let r = &rs.rules[0];
        assert_eq!(r.name, "deep-queue");
        assert_eq!(r.above, Some(100.0));
        assert_eq!(r.window, Some(2));
        assert_eq!(r.suppress, vec!["kill_worker", "stall_feed"]);
        assert_eq!(r.suppress_window_secs, Some(7.5));

        assert!(
            RuleSet::from_toml("name = \"x\"").is_err(),
            "entry before table"
        );
        assert!(
            RuleSet::from_toml("[[rule]]\nbogus = 1").is_err(),
            "unknown key"
        );
        assert!(RuleSet::from_toml("[rule]").is_err(), "plain table");
        assert!(RuleSet::from_toml("[[rule]]\nname = unquoted").is_err());
    }

    /// Counts are integers, read exactly: 2^53 + 1 does not round to
    /// 2^53, and a fraction, an exponent or a value past `u64` is an
    /// error that names the key.
    #[test]
    fn counts_parse_as_exact_integers() {
        let rule = |value: &str| {
            RuleSet::from_toml(&format!("[[rule]]\nname = \"x\"\nwindow = {value}\n"))
                .map(|rs| rs.rules[0].window)
        };
        assert_eq!(rule("9007199254740993"), Ok(Some(9_007_199_254_740_993)));
        assert_eq!(rule("18446744073709551615"), Ok(Some(u64::MAX)));
        for value in ["1e300", "2.5", "3.0", "-1", "18446744073709551616"] {
            let err = rule(value).expect_err(value);
            assert!(
                err.starts_with("rules line 3: ") && err.contains("'window'"),
                "{err}"
            );
        }
    }

    #[test]
    fn compile_rejects_bad_specs() {
        let bad = [
            "[[rule]]\nname = \"x\"\nmetric = \"sample.nope\"\nabove = 1\n",
            "[[rule]]\nname = \"x\"\nmetric = \"fleet.nope\"\nabove = 1\n",
            "[[rule]]\nname = \"x\"\nmetric = \"queue_depth\"\nabove = 1\n",
            "[[rule]]\nname = \"x\"\nmetric = \"sample.released\"\n",
            "[[rule]]\nname = \"x\"\nmetric = \"sample.released\"\nabove = 1\nbelow = 2\n",
            "[[rule]]\nname = \"x\"\nmetric = \"sample.released\"\nabove = 1\nbaseline_max_abs = 2\n",
            "[[rule]]\nname = \"x\"\nmetric = \"sample.released\"\nabove = 1\nfrac = 0.5\n",
            "[[rule]]\nname = \"x\"\nmetric = \"sample.released\"\nabove = 1\nwindow = 2\nfrac = 1.5\n",
            "[[rule]]\nname = \"x\"\nmetric = \"fleet.deadline_miss_rate\"\nabove = 1\nwindow = 2\n",
            "[[rule]]\nname = \"x\"\nmetric = \"sample.released\"\nabove = 1\nseverity = \"loud\"\n",
            "[[rule]]\nmetric = \"sample.released\"\nabove = 1\n",
            "[[rule]]\nname = \"x\"\nmetric = \"run.nope\"\nabove = 1\n",
            "[[rule]]\nname = \"x\"\nmetric = \"run.loss_delta\"\nbaseline_max_abs = 1\n",
            "[[rule]]\nname = \"x\"\nmetric = \"run.loss_delta\"\nabove = 1\nwindow = 2\n",
            "[[rule]]\nname = \"x\"\nmetric = \"fleet.clients\"\nabove = 1\nmin_modulated_packets = 2\n",
        ];
        for toml in bad {
            let rs = RuleSet::from_toml(toml).unwrap();
            assert!(rs.compile().is_err(), "should reject: {toml}");
        }
    }

    #[test]
    fn threshold_groups_consecutive_boundaries() {
        let rs = one_rule("[[rule]]\nname = \"q\"\nmetric = \"sample.queue_depth\"\nabove = 10\n");
        let series = [
            row(1, 5, 0, 0),
            row(2, 11, 0, 0),
            row(3, 30, 0, 0),
            row(4, 2, 0, 0),
            row(5, 12, 0, 0),
        ];
        let rep = evaluate(
            &rs,
            &AlertInputs {
                series: &series,
                ..AlertInputs::default()
            },
        )
        .unwrap();
        assert_eq!(rep.alerts.len(), 2);
        let a = &rep.alerts[0];
        assert_eq!((a.t_first_ns, a.t_last_ns), (2_000_000_000, 3_000_000_000));
        assert_eq!(a.samples, 2);
        assert_eq!(a.value, 30.0);
        assert!(!a.suppressed);
        assert_eq!(rep.alerts[1].t_first_ns, 5_000_000_000);
        assert_eq!(rep.check(Severity::Warn).len(), 2);
        assert_eq!(rep.check(Severity::Critical).len(), 0, "warn < critical");
    }

    #[test]
    fn burn_rate_needs_full_window_fraction() {
        let rs = one_rule(
            "[[rule]]\nname = \"burn\"\nmetric = \"sample.queue_depth\"\nabove = 10\nwindow = 3\nfrac = 0.6\n",
        );
        // Boundaries: ok, bad, bad, ok, bad — windows of 3 with >= 2 bad
        // are (1,2,3) at t=3s... wait indexes: [5,20,20,5,20]
        let series = [
            row(1, 5, 0, 0),
            row(2, 20, 0, 0),
            row(3, 20, 0, 0),
            row(4, 5, 0, 0),
            row(5, 20, 0, 0),
        ];
        let rep = evaluate(
            &rs,
            &AlertInputs {
                series: &series,
                ..AlertInputs::default()
            },
        )
        .unwrap();
        // Full windows: t=3 ([5,20,20] → 2/3 burns), t=4 ([20,20,5] →
        // 2/3 burns), t=5 ([20,5,20] → 2/3 burns). t=1,2 lack a window.
        assert_eq!(rep.alerts.len(), 1);
        let a = &rep.alerts[0];
        assert_eq!((a.t_first_ns, a.t_last_ns), (3_000_000_000, 5_000_000_000));
        assert_eq!(a.samples, 3);
    }

    #[test]
    fn suppression_window_attributes_and_splits_runs() {
        let rs = one_rule(
            "[[rule]]\nname = \"q\"\nmetric = \"sample.queue_depth\"\nabove = 10\nsuppress = [\"kill_worker\"]\nsuppress_window_secs = 2.0\n",
        );
        let series = [
            row(1, 20, 0, 0), // before the fault: active
            row(2, 20, 0, 0), // fault at t=2s: suppressed
            row(3, 20, 0, 0), // within 2s window: suppressed
            row(4, 20, 0, 0), // within window (t - 2s = 2s <= 2s): suppressed
            row(5, 20, 0, 0), // window expired: active again
        ];
        let faults = [FaultEvent {
            t_virtual_ns: 2_000_000_000,
            fault: "kill_worker".into(),
            info: "shard 1".into(),
        }];
        let rep = evaluate(
            &rs,
            &AlertInputs {
                series: &series,
                faults: &faults,
                ..AlertInputs::default()
            },
        )
        .unwrap();
        assert_eq!(rep.alerts.len(), 3, "{:?}", rep.alerts);
        assert!(!rep.alerts[0].suppressed);
        assert_eq!(rep.alerts[0].samples, 1);
        assert!(rep.alerts[1].suppressed);
        assert_eq!(rep.alerts[1].samples, 3);
        assert_eq!(rep.alerts[1].attributed_to, "kill_worker@2.0s");
        assert!(!rep.alerts[2].suppressed);
        // Only the unsuppressed runs gate.
        assert_eq!(rep.check(Severity::Warn).len(), 2);
        // A different fault kind does not suppress.
        let other = [FaultEvent {
            t_virtual_ns: 2_000_000_000,
            fault: "stall_feed".into(),
            info: String::new(),
        }];
        let rep2 = evaluate(
            &rs,
            &AlertInputs {
                series: &series,
                faults: &other,
                ..AlertInputs::default()
            },
        )
        .unwrap();
        assert_eq!(rep2.alerts.len(), 1);
        assert!(!rep2.alerts[0].suppressed);
    }

    fn fleet_report_with(series: Vec<SamplePoint>, miss_rate: f64) -> FleetReport {
        let mut rep = FleetReport::from_manifests("t", &[], &FidelityThresholds::default());
        rep.deadline_miss_rate = miss_rate;
        rep.telemetry = Some(FleetTelemetry {
            schema: TELEMETRY_SCHEMA,
            interval_ns: 1_000_000_000,
            evicted: 0,
            series,
            worst_clients: Vec::new(),
            hot_stations: Vec::new(),
        });
        rep
    }

    #[test]
    fn aggregate_rules_fire_and_suppress_without_windows() {
        let rs = one_rule(
            "[[rule]]\nname = \"miss\"\nmetric = \"fleet.deadline_miss_rate\"\nseverity = \"critical\"\nabove = 0.05\nsuppress = [\"stall_feed\"]\n",
        );
        let rep = fleet_report_with(Vec::new(), 0.2);
        let out = evaluate(
            &rs,
            &AlertInputs {
                report: Some(&rep),
                ..AlertInputs::default()
            },
        )
        .unwrap();
        assert_eq!(out.alerts.len(), 1);
        assert!(!out.alerts[0].suppressed);
        assert_eq!(out.check(Severity::Critical).len(), 1);
        // Any matching fault suppresses the whole-run aggregate.
        let faults = [FaultEvent {
            t_virtual_ns: 40_000_000_000,
            fault: "stall_feed".into(),
            info: String::new(),
        }];
        let out2 = evaluate(
            &rs,
            &AlertInputs {
                report: Some(&rep),
                faults: &faults,
                ..AlertInputs::default()
            },
        )
        .unwrap();
        assert!(out2.alerts[0].suppressed);
        assert_eq!(out2.alerts[0].attributed_to, "stall_feed@40.0s");
        assert!(out2.check(Severity::Critical).is_empty());
        // Missing report is an evaluation error, not a silent pass.
        assert!(evaluate(&rs, &AlertInputs::default()).is_err());
    }

    #[test]
    fn baseline_delta_fires_on_drift_only() {
        let rs = one_rule(
            "[[rule]]\nname = \"drift\"\nmetric = \"sample.released\"\nbaseline_max_abs = 1\nbaseline_max_rel = 0.1\n",
        );
        let base = fleet_report_with(
            vec![row(1, 0, 100, 0), row(2, 0, 100, 0), row(3, 0, 100, 0)],
            0.0,
        );
        // t=2 drifts by 20 > 1 + 0.1·100 = 11; t=3 within tolerance.
        let series = [row(1, 0, 100, 0), row(2, 0, 120, 0), row(3, 0, 109, 0)];
        let out = evaluate(
            &rs,
            &AlertInputs {
                series: &series,
                baseline: Some(&base),
                ..AlertInputs::default()
            },
        )
        .unwrap();
        assert_eq!(out.alerts.len(), 1);
        assert_eq!(out.alerts[0].t_first_ns, 2_000_000_000);
        assert_eq!(out.alerts[0].value, 120.0);
        // No baseline → evaluation error.
        assert!(evaluate(
            &rs,
            &AlertInputs {
                series: &series,
                ..AlertInputs::default()
            }
        )
        .is_err());
    }

    #[test]
    fn fleet_counter_rules_read_the_registry() {
        let rs = one_rule(
            "[[rule]]\nname = \"kills\"\nmetric = \"fleet.metrics.fault.worker_kills\"\nabove = 0\n",
        );
        let mut rep = fleet_report_with(Vec::new(), 0.0);
        rep.metrics.set_counter("fault.worker_kills", 2);
        let out = evaluate(
            &rs,
            &AlertInputs {
                report: Some(&rep),
                ..AlertInputs::default()
            },
        )
        .unwrap();
        assert_eq!(out.alerts.len(), 1);
        assert_eq!(out.alerts[0].value, 2.0);
        // Unknown counter is an error.
        rep.metrics = crate::MetricsRegistry::new();
        assert!(evaluate(
            &rs,
            &AlertInputs {
                report: Some(&rep),
                ..AlertInputs::default()
            }
        )
        .is_err());
    }

    #[test]
    fn exports_are_deterministic_and_round_trip() {
        let rs = RuleSet::builtin();
        let series = [row(1, 5, 10, 200_000_000), row(2, 7, 0, 0)];
        let mut rep = fleet_report_with(series.to_vec(), 0.9);
        rep.clients = 3;
        rep.released_packets = 10;
        let faults = [FaultEvent {
            t_virtual_ns: 1_000_000_000,
            fault: "kill_worker".into(),
            info: String::new(),
        }];
        let inputs = AlertInputs {
            series: &series,
            report: Some(&rep),
            faults: &faults,
            ..AlertInputs::default()
        };
        let a = evaluate(&rs, &inputs).unwrap();
        let b = evaluate(&rs, &inputs).unwrap();
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.render_markdown(), b.render_markdown());
        let jsonl = a.to_jsonl();
        let back: Vec<Alert> = jsonl
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(back, a.alerts);
        // A trial's lines lead with its number; a fleet's add nothing.
        assert_eq!(a.trial_jsonl(None), jsonl);
        let trial: Vec<String> = jsonl
            .lines()
            .map(|l| format!("{{\"trial\":7,{}", &l[1..]))
            .collect();
        assert_eq!(a.trial_jsonl(Some(7)), trial.join("\n") + "\n");
        let md = a.render_markdown();
        assert!(md.contains("## Alerts"));
        assert!(md.contains("fleet-deadline-miss-rate"));
    }

    #[test]
    fn run_rules_judge_one_run_behind_their_guard() {
        let rs = one_rule(
            "[[rule]]\nname = \"loss\"\nmetric = \"run.abs_loss_delta\"\nabove = 0.05\nmin_modulated_packets = 3\n",
        );
        let mut run = RunManifest::new("s", "b", 0);
        run.fidelity.loss_delta = -0.5;
        let judge = |run: &RunManifest| {
            let inputs = AlertInputs {
                run: Some(run),
                ..AlertInputs::default()
            };
            evaluate(&rs, &inputs).unwrap().alerts
        };
        // Two modulated packets: below the guard, not judged.
        run.fidelity.modulated_packets = 2;
        assert!(judge(&run).is_empty());
        run.fidelity.modulated_packets = 3;
        let alerts = judge(&run);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].value, 0.5);
        assert_eq!(alerts[0].threshold, "> 0.05 (from 3 modulated packets)");
        // A run rule has no fleet to judge, and a fleet rule no run.
        let fleet = fleet_report_with(Vec::new(), 0.0);
        let fleet_inputs = AlertInputs {
            report: Some(&fleet),
            ..AlertInputs::default()
        };
        assert!(evaluate(&rs, &fleet_inputs).is_err());
        let miss = one_rule("[[rule]]\nname = \"m\"\nmetric = \"fleet.clients\"\nbelow = 1\n");
        let run_inputs = AlertInputs {
            run: Some(&run),
            ..AlertInputs::default()
        };
        assert!(evaluate(&miss, &run_inputs).is_err());
    }

    #[test]
    fn builtin_rules_compile() {
        assert!(RuleSet::builtin().compile().is_ok());
        // Quiet inputs: no alerts, gate passes.
        let mut rep = fleet_report_with(Vec::new(), 0.0);
        rep.clients = 2;
        rep.released_packets = 10;
        let out = evaluate(
            &RuleSet::builtin(),
            &AlertInputs {
                report: Some(&rep),
                ..AlertInputs::default()
            },
        )
        .unwrap();
        assert!(out.alerts.is_empty());
        assert!(out.check(Severity::Info).is_empty());
    }

    #[test]
    fn fault_stamps_parse_from_jsonl() {
        let text = "{\"t_virtual_ns\":5,\"fault\":\"kill_worker\",\"info\":\"x\"}\n\n";
        let stamps = parse_fault_stamps(text).unwrap();
        assert_eq!(stamps.len(), 1);
        assert_eq!(stamps[0].fault, "kill_worker");
        assert!(parse_fault_stamps("not json\n").is_err());
    }
}
