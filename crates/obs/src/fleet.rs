//! The aggregate fleet fidelity report (`report.json` in a fleet run
//! directory).
//!
//! A fleet run produces one [`RunManifest`] per client (trial = client
//! index); this module folds them into a single machine-readable
//! summary: fleet-wide packet totals, the distribution of per-client
//! fidelity (worst and released-weighted mean p95 delay error), and
//! counts of clients that a per-run rule failed. Like the per-run
//! manifest, everything except the [`RunnerSection`] derives purely
//! from simulation state, so [`FleetReport::deterministic_json`] is
//! byte-identical across worker counts and shard layouts.

use crate::alerts::FidelityThresholds;
use crate::manifest::{runner_stripped_json, RunManifest, RunnerSection};
use crate::registry::MetricsRegistry;
use crate::telemetry::FleetTelemetry;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Fleet-report schema version, bumped on incompatible layout changes.
pub const FLEET_SCHEMA: u32 = 1;

/// How many clients ran one channel-model realization — the per-family
/// breakdown of a mixed-radio fleet (scenario packs assign different
/// model specs to different client shares).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelUsage {
    /// Registered model-family name.
    pub family: String,
    /// Canonical `key=value` parameter string for this spec.
    pub params: String,
    /// Clients whose channel came from this spec.
    pub clients: u32,
}

/// Aggregate fidelity and accounting across a whole fleet of clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Schema version ([`FLEET_SCHEMA`]).
    pub schema: u32,
    /// Scenario every client walked.
    pub scenario: String,
    /// Number of clients aggregated.
    pub clients: u32,
    /// Sum of modulated packets across clients.
    pub modulated_packets: u64,
    /// Sum of released (delayed then dispatched) packets.
    pub released_packets: u64,
    /// Sum of packets dropped by the loss processes.
    pub dropped_packets: u64,
    /// Sum of deadline misses.
    pub deadline_misses: u64,
    /// Fleet-wide deadline-miss rate (misses / released).
    pub deadline_miss_rate: f64,
    /// Released-weighted mean of per-client |delay error| p95 (ms).
    pub mean_abs_delay_error_p95_ms: f64,
    /// Worst per-client |delay error| p95 (ms).
    pub worst_abs_delay_error_p95_ms: f64,
    /// Clients that a per-run rule failed (a `run.*` rule of
    /// [`RuleSet::builtin`](crate::RuleSet::builtin)).
    pub failed_clients: u32,
    /// Clients whose run degraded (sustained starvation).
    pub degraded_clients: u32,
    /// Client index owning the worst |delay error| p95 (`None` for an
    /// empty fleet).
    #[serde(default)]
    pub worst_p95_client: Option<u32>,
    /// Channel-model breakdown in first-seen client order (empty when
    /// manifests predate model attribution). Mirrored into
    /// `fleet.model_clients.<family>` counters for alert selectors.
    #[serde(default)]
    pub models: Vec<ModelUsage>,
    /// Fleet-level deterministic metrics (station traffic, engine
    /// event totals, arena peaks that are layout-invariant).
    pub metrics: MetricsRegistry,
    /// Live telemetry series and outlier trackers, present when the
    /// run sampled telemetry. Deterministic (virtual-time sampled),
    /// so it stays in [`deterministic_json`](FleetReport::deterministic_json).
    #[serde(default)]
    pub telemetry: Option<FleetTelemetry>,
    /// Wall-clock runner measurements, excluded from
    /// [`deterministic_json`](FleetReport::deterministic_json).
    #[serde(default)]
    pub runner: Option<RunnerSection>,
}

impl FleetReport {
    /// Fold per-client manifests (trial = client index, in client
    /// order) into the aggregate report. `thresholds`, the compiled
    /// per-run rules, drives the per-client pass/fail tally.
    pub fn from_manifests(
        scenario: &str,
        manifests: &[RunManifest],
        thresholds: &FidelityThresholds,
    ) -> Self {
        let mut r = FleetReport {
            schema: FLEET_SCHEMA,
            scenario: scenario.to_string(),
            clients: manifests.len() as u32,
            modulated_packets: 0,
            released_packets: 0,
            dropped_packets: 0,
            deadline_misses: 0,
            deadline_miss_rate: 0.0,
            mean_abs_delay_error_p95_ms: 0.0,
            worst_abs_delay_error_p95_ms: 0.0,
            failed_clients: 0,
            degraded_clients: 0,
            worst_p95_client: None,
            models: Vec::new(),
            metrics: MetricsRegistry::new(),
            telemetry: None,
            runner: None,
        };
        let mut weighted_p95 = 0.0f64;
        for m in manifests {
            let f = &m.fidelity;
            r.modulated_packets += f.modulated_packets;
            r.released_packets += f.released_packets;
            r.dropped_packets += f.dropped_packets;
            r.deadline_misses += f.deadline_misses;
            weighted_p95 += f.abs_delay_error_p95_ms * f.released_packets as f64;
            if r.worst_p95_client.is_none()
                || f.abs_delay_error_p95_ms > r.worst_abs_delay_error_p95_ms
            {
                r.worst_abs_delay_error_p95_ms = f.abs_delay_error_p95_ms;
                r.worst_p95_client = Some(m.trial);
            }
            if thresholds.fails(f) {
                r.failed_clients += 1;
            }
            if f.degraded {
                r.degraded_clients += 1;
            }
            if let Some(mi) = &m.model {
                match r
                    .models
                    .iter_mut()
                    .find(|u| u.family == mi.family && u.params == mi.params)
                {
                    Some(u) => u.clients += 1,
                    None => r.models.push(ModelUsage {
                        family: mi.family.clone(),
                        params: mi.params.clone(),
                        clients: 1,
                    }),
                }
            }
        }
        let tallies: Vec<(String, u64)> = r
            .models
            .iter()
            .map(|u| {
                (
                    format!("fleet.model_clients.{}", u.family),
                    u.clients as u64,
                )
            })
            .collect();
        for (name, n) in tallies {
            r.metrics.add_counter(&name, n);
        }
        if r.released_packets > 0 {
            r.deadline_miss_rate = r.deadline_misses as f64 / r.released_packets as f64;
            r.mean_abs_delay_error_p95_ms = weighted_p95 / r.released_packets as f64;
        }
        r
    }

    /// Pretty-printed JSON form (the `report.json` artifact).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet report serializes")
    }

    /// Parse a report back from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Compact JSON with the wall-clock runner section stripped: equal
    /// runs produce equal bytes regardless of machine, worker count,
    /// or shard layout.
    pub fn deterministic_json(&self) -> String {
        runner_stripped_json(self).expect("fleet report serializes")
    }

    /// Markdown report: the dedicated fleet section (client count,
    /// worst-p95 client, failed/degraded tallies) plus — when the run
    /// sampled telemetry — the shared sparkline/table section from
    /// [`FleetTelemetry::render_markdown_section`].
    pub fn render_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "## Fleet report — `{}`\n", self.scenario);
        let _ = writeln!(s, "| metric | value |");
        let _ = writeln!(s, "|---|---|");
        let _ = writeln!(s, "| clients | {} |", self.clients);
        let _ = writeln!(s, "| modulated packets | {} |", self.modulated_packets);
        let _ = writeln!(s, "| released packets | {} |", self.released_packets);
        let _ = writeln!(s, "| dropped packets | {} |", self.dropped_packets);
        let _ = writeln!(
            s,
            "| deadline misses | {} ({:.4} rate) |",
            self.deadline_misses, self.deadline_miss_rate
        );
        let _ = writeln!(
            s,
            "| mean \\|delay err\\| p95 | {:.2} ms |",
            self.mean_abs_delay_error_p95_ms
        );
        match self.worst_p95_client {
            Some(c) => {
                let _ = writeln!(
                    s,
                    "| worst \\|delay err\\| p95 | {:.2} ms (client {c}) |",
                    self.worst_abs_delay_error_p95_ms
                );
            }
            None => {
                let _ = writeln!(s, "| worst \\|delay err\\| p95 | n/a (no clients) |");
            }
        }
        let _ = writeln!(s, "| failed clients | {} |", self.failed_clients);
        let _ = writeln!(s, "| degraded clients | {} |", self.degraded_clients);
        if !self.models.is_empty() {
            let _ = writeln!(s, "\n### Channel models\n");
            let _ = writeln!(s, "| family | params | clients |");
            let _ = writeln!(s, "|---|---|---|");
            for u in &self.models {
                let _ = writeln!(s, "| `{}` | `{}` | {} |", u.family, u.params, u.clients);
            }
        }
        let counters: Vec<_> = self.metrics.counters().collect();
        if !counters.is_empty() {
            let _ = writeln!(s, "\n### Fleet counters\n");
            let _ = writeln!(s, "| counter | value |");
            let _ = writeln!(s, "|---|---|");
            for (k, v) in counters {
                let _ = writeln!(s, "| `{k}` | {v} |");
            }
        }
        if let Some(tel) = &self.telemetry {
            let _ = writeln!(s);
            s.push_str(&tel.render_markdown_section());
        }
        if let Some(r) = &self.runner {
            let _ = writeln!(
                s,
                "\n*Runner: {:.2} s wall × {} workers.*",
                r.wall_secs, r.workers
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_alerts, AlertInputs, FidelityCollector, RuleSet, Severity};

    /// The builtin rules' violations on `r` (empty = pass).
    fn gate(r: &FleetReport) -> Vec<String> {
        let inputs = AlertInputs {
            report: Some(r),
            ..AlertInputs::default()
        };
        let alerts = evaluate_alerts(&RuleSet::builtin(), &inputs).unwrap();
        alerts.check(Severity::Warn)
    }

    fn manifest(trial: u32, err_ms: f64, releases: u64) -> RunManifest {
        let mut fc = FidelityCollector::new();
        for _ in 0..releases {
            fc.on_modulated(0.0);
            fc.on_release(err_ms, false);
        }
        let mut m = RunManifest::new("porter_walk", "fleet-probe", trial);
        m.fidelity = fc.report();
        m
    }

    #[test]
    fn aggregates_weighted_and_worst_p95() {
        let manifests = vec![manifest(0, 1.0, 300), manifest(1, 3.0, 100)];
        let r =
            FleetReport::from_manifests("porter_walk", &manifests, &FidelityThresholds::default());
        assert_eq!(r.clients, 2);
        assert_eq!(r.released_packets, 400);
        assert!(r.worst_abs_delay_error_p95_ms >= 2.5);
        assert!(r.mean_abs_delay_error_p95_ms < r.worst_abs_delay_error_p95_ms);
        assert_eq!(r.failed_clients, 0);
        assert!(gate(&r).is_empty());
    }

    #[test]
    fn failing_client_fails_the_fleet_gate() {
        let manifests = vec![manifest(0, 1.0, 300), manifest(1, 50.0, 300)];
        let th = FidelityThresholds::default();
        let r = FleetReport::from_manifests("porter_walk", &manifests, &th);
        assert_eq!(r.failed_clients, 1);
        let violations = gate(&r);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("fleet-failed-clients"));
    }

    #[test]
    fn empty_fleet_is_no_data_not_a_pass() {
        let th = FidelityThresholds::default();
        let r = FleetReport::from_manifests("porter_walk", &[], &th);
        assert_eq!(r.clients, 0);
        assert_eq!(r.deadline_miss_rate, 0.0);
        assert!(r.mean_abs_delay_error_p95_ms.is_finite());
        assert!(r.worst_p95_client.is_none());
        let v = gate(&r);
        assert!(v[0].contains("fleet-no-clients"), "{v:?}");
    }

    #[test]
    fn zero_released_is_no_data_not_a_pass() {
        let th = FidelityThresholds::default();
        let manifests = vec![manifest(0, 0.0, 0), manifest(1, 0.0, 0)];
        let r = FleetReport::from_manifests("porter_walk", &manifests, &th);
        assert_eq!(r.clients, 2);
        assert_eq!(r.released_packets, 0);
        assert!(!r.deadline_miss_rate.is_nan());
        assert!(!r.mean_abs_delay_error_p95_ms.is_nan());
        let v = gate(&r);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("fleet-no-releases"));
    }

    #[test]
    fn worst_client_is_identified() {
        let manifests = vec![
            manifest(0, 1.0, 300),
            manifest(1, 3.0, 100),
            manifest(2, 2.0, 50),
        ];
        let r =
            FleetReport::from_manifests("porter_walk", &manifests, &FidelityThresholds::default());
        assert_eq!(r.worst_p95_client, Some(1));
        let md = r.render_markdown();
        assert!(md.contains("## Fleet report"));
        assert!(md.contains("(client 1)"));
        assert!(md.contains("| clients | 3 |"));
    }

    #[test]
    fn model_usage_aggregates_in_first_seen_order() {
        let mut a = manifest(0, 1.0, 10);
        a.set_model("leo", "pass_secs=45");
        let mut b = manifest(1, 1.0, 10);
        b.set_model("errant", "operator=op2 rat=4g");
        let mut c = manifest(2, 1.0, 10);
        c.set_model("leo", "pass_secs=45");
        let r = FleetReport::from_manifests("leo-mix", &[a, b, c], &FidelityThresholds::default());
        assert_eq!(r.models.len(), 2);
        assert_eq!(r.models[0].family, "leo");
        assert_eq!(r.models[0].clients, 2);
        assert_eq!(r.models[1].family, "errant");
        assert_eq!(r.models[1].clients, 1);
        assert_eq!(r.metrics.counter("fleet.model_clients.leo"), Some(2));
        assert_eq!(r.metrics.counter("fleet.model_clients.errant"), Some(1));
        let md = r.render_markdown();
        assert!(md.contains("### Channel models"));
        assert!(md.contains("| `leo` | `pass_secs=45` | 2 |"));
        assert!(md.contains("| `errant` | `operator=op2 rat=4g` | 1 |"));
    }

    #[test]
    fn report_without_models_field_parses() {
        let manifests = vec![manifest(0, 1.0, 10)];
        let r =
            FleetReport::from_manifests("porter_walk", &manifests, &FidelityThresholds::default());
        assert!(r.models.is_empty());
        // Old reports (pre-models JSON) must still deserialize.
        let json = r.deterministic_json();
        assert!(json.contains("\"models\":[]"), "{json}");
        let stripped = json.replace("\"models\":[],", "");
        let parsed = FleetReport::from_json(&stripped).unwrap();
        assert!(parsed.models.is_empty());
    }

    #[test]
    fn deterministic_json_strips_runner() {
        let manifests = vec![manifest(0, 1.0, 10)];
        let mut r =
            FleetReport::from_manifests("porter_walk", &manifests, &FidelityThresholds::default());
        let det = r.deterministic_json();
        r.runner = Some(RunnerSection {
            wall_secs: 1.23,
            workers: 8,
            records_per_sec: 0.0,
            worker_utilization: 0.5,
        });
        assert_eq!(r.deterministic_json(), det);
        let stripped = FleetReport {
            runner: None,
            ..r.clone()
        };
        assert_eq!(det, serde_json::to_string(&stripped).unwrap());
        let parsed = FleetReport::from_json(&r.to_json_pretty()).unwrap();
        assert_eq!(parsed, r);
    }
}
