//! Serializable scenario specifications: define custom mobile scenarios
//! in JSON and load them in tools (`tracemod collect --scenario-file`),
//! exactly like exchanging trace files — the paper's vision of traces and
//! scenario definitions as shareable benchmark families (§6).

use crate::crosstraffic::CrossTrafficCfg;
use crate::model::Checkpoint;
use crate::scenario::Scenario;
use crate::MAX_DURATION_SECS;
use netsim::SimDuration;
use serde::{Deserialize, Serialize};

/// One checkpoint, as written in a scenario file.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct CheckpointSpec {
    /// Label shown on figure axes ("x0", "lobby", ...).
    pub label: String,
    /// Signal level range (WaveLAN units).
    pub signal: (f64, f64),
    /// One-way latency range in milliseconds.
    pub latency_ms: (f64, f64),
    /// Bandwidth range in kb/s.
    pub bw_kbps: (f64, f64),
    /// One-way loss-rate range (0–1).
    pub loss: (f64, f64),
}

/// Cross-traffic parameters, as written in a scenario file.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct CrossSpec {
    /// Number of interfering users.
    pub users: usize,
    /// Frames per burst (min, max).
    pub burst_frames: (u64, u64),
    /// Bytes per frame (min, max).
    pub frame_bytes: (u64, u64),
    /// Think time between bursts in seconds (min, max).
    pub think_secs: (f64, f64),
    /// Collision loss while a burst is active.
    pub collision_loss: f64,
}

/// A complete scenario definition file.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name.
    pub name: String,
    /// Traversal duration in seconds.
    pub duration_secs: u64,
    /// Checkpoints along the traversal (at least two).
    pub checkpoints: Vec<CheckpointSpec>,
    /// Interfering traffic, if any.
    #[serde(default)]
    pub cross: Option<CrossSpec>,
    /// Stationary scenario (figures use histograms).
    #[serde(default)]
    pub stationary: bool,
    /// Uplink loss multiplier (1.0 = symmetric).
    #[serde(default = "default_asym")]
    pub loss_asym_up: f64,
}

fn default_asym() -> f64 {
    1.0
}

impl ScenarioSpec {
    /// Capture a built-in scenario as a spec (for `--dump` and editing).
    pub fn from_scenario(sc: &Scenario) -> ScenarioSpec {
        ScenarioSpec {
            name: sc.name.to_string(),
            duration_secs: sc.duration.as_secs_f64() as u64,
            checkpoints: sc
                .checkpoints
                .iter()
                .map(|c| CheckpointSpec {
                    label: c.label.to_string(),
                    signal: c.signal,
                    latency_ms: c.latency_ms,
                    bw_kbps: c.bw_kbps,
                    loss: c.loss,
                })
                .collect(),
            cross: sc.cross.as_ref().map(|c| CrossSpec {
                users: c.users,
                burst_frames: c.burst_frames,
                frame_bytes: c.frame_bytes,
                think_secs: c.think_secs,
                collision_loss: c.collision_loss,
            }),
            stationary: sc.stationary,
            loss_asym_up: sc.loss_asym_up,
        }
    }

    /// Build a runnable [`Scenario`]. Labels are interned (leaked) — specs
    /// are loaded a handful of times per process, from tools.
    pub fn into_scenario(self) -> Result<Scenario, String> {
        if self.checkpoints.len() < 2 {
            return Err("a scenario needs at least two checkpoints".into());
        }
        if self.duration_secs == 0 {
            return Err("duration_secs must be positive".into());
        }
        if self.duration_secs > MAX_DURATION_SECS {
            return Err(format!(
                "duration_secs {} is above the cap of {MAX_DURATION_SECS}",
                self.duration_secs
            ));
        }
        for c in &self.checkpoints {
            if !(0.0..=1.0).contains(&c.loss.0) || !(0.0..=1.0).contains(&c.loss.1) {
                return Err(format!("checkpoint '{}': loss out of [0,1]", c.label));
            }
            if c.bw_kbps.0 <= 0.0 {
                return Err(format!(
                    "checkpoint '{}': bandwidth must be positive",
                    c.label
                ));
            }
        }
        let checkpoints = self
            .checkpoints
            .into_iter()
            .map(|c| Checkpoint {
                label: Box::leak(c.label.into_boxed_str()),
                signal: c.signal,
                latency_ms: c.latency_ms,
                bw_kbps: c.bw_kbps,
                loss: c.loss,
            })
            .collect();
        Ok(Scenario {
            name: Box::leak(self.name.into_boxed_str()),
            checkpoints,
            duration: SimDuration::from_secs(self.duration_secs),
            cross: self.cross.map(|c| CrossTrafficCfg {
                users: c.users,
                burst_frames: c.burst_frames,
                frame_bytes: c.frame_bytes,
                think_secs: c.think_secs,
                collision_loss: c.collision_loss,
            }),
            stationary: self.stationary,
            loss_asym_up: self.loss_asym_up,
            model_spec: None,
        })
    }

    /// Parse from JSON.
    pub fn from_json(json: &str) -> Result<ScenarioSpec, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_scenarios_round_trip_through_json() {
        for sc in Scenario::all() {
            let spec = ScenarioSpec::from_scenario(&sc);
            let json = spec.to_json();
            let back = ScenarioSpec::from_json(&json).unwrap();
            assert_eq!(back, spec);
            let rebuilt = back.into_scenario().unwrap();
            assert_eq!(rebuilt.name, sc.name);
            assert_eq!(rebuilt.duration, sc.duration);
            assert_eq!(rebuilt.checkpoints.len(), sc.checkpoints.len());
            assert_eq!(rebuilt.stationary, sc.stationary);
            assert_eq!(rebuilt.loss_asym_up, sc.loss_asym_up);
        }
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut spec = ScenarioSpec::from_scenario(&Scenario::porter());
        spec.checkpoints.truncate(1);
        assert!(spec.into_scenario().is_err());

        let mut spec = ScenarioSpec::from_scenario(&Scenario::porter());
        spec.duration_secs = 0;
        assert!(spec.into_scenario().is_err());

        let mut spec = ScenarioSpec::from_scenario(&Scenario::porter());
        spec.checkpoints[0].loss = (0.0, 1.5);
        assert!(spec.into_scenario().is_err());

        let mut spec = ScenarioSpec::from_scenario(&Scenario::porter());
        spec.checkpoints[0].bw_kbps = (0.0, 100.0);
        assert!(spec.into_scenario().is_err());
    }

    #[test]
    fn defaults_for_optional_fields() {
        let json = r#"{
            "name": "minimal",
            "duration_secs": 30,
            "checkpoints": [
                {"label": "a", "signal": [10, 20], "latency_ms": [1, 5],
                 "bw_kbps": [1000, 1500], "loss": [0, 0.02]},
                {"label": "b", "signal": [5, 10], "latency_ms": [2, 8],
                 "bw_kbps": [800, 1200], "loss": [0.01, 0.05]}
            ]
        }"#;
        let spec = ScenarioSpec::from_json(json).unwrap();
        assert!(spec.cross.is_none());
        assert!(!spec.stationary);
        assert_eq!(spec.loss_asym_up, 1.0);
        let sc = spec.into_scenario().unwrap();
        assert_eq!(sc.name, "minimal");
        assert_eq!(sc.labels(), vec!["a", "b"]);
    }

    #[test]
    fn custom_scenario_is_runnable() {
        let json = r#"{
            "name": "hallway",
            "duration_secs": 20,
            "checkpoints": [
                {"label": "door", "signal": [15, 20], "latency_ms": [1, 4],
                 "bw_kbps": [1400, 1600], "loss": [0, 0.01]},
                {"label": "stairs", "signal": [4, 8], "latency_ms": [5, 30],
                 "bw_kbps": [300, 900], "loss": [0.05, 0.2]}
            ]
        }"#;
        let sc = ScenarioSpec::from_json(json)
            .unwrap()
            .into_scenario()
            .unwrap();
        let mut trial = netsim::SimRng::seed_from_u64(1);
        let mut model = sc.model(&mut trial);
        let mut rng = netsim::SimRng::seed_from_u64(2);
        let early = model.sample(netsim::SimTime::from_secs(1), &mut rng);
        let late = model.sample(netsim::SimTime::from_secs(19), &mut rng);
        assert!(early.signal.level > late.signal.level);
    }
}
