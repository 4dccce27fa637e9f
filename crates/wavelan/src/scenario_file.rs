//! Scenario files: a custom mobile scenario written in the TOML subset
//! of [`obs::toml`] and loaded by tools (`tracemod collect
//! --scenario-file`), exchanged like trace files — the paper's vision of
//! traces and scenario definitions as shareable benchmark families
//! (§6). `tracemod dump-scenario` prints one to edit.
//!
//! ```toml
//! name = "hallway"
//! duration_secs = 20
//! stationary = false            # optional, default false
//! loss_asym_up = 1.0            # optional, default 1.0
//! # Cross traffic, optional: all five cross_* keys or none.
//! cross_users = 2
//! cross_burst_frames = [1, 4]
//! cross_frame_bytes = [100, 1000]
//! cross_think_secs = [1.0, 5.0]
//! cross_collision_loss = 0.05
//!
//! [[checkpoint]]                # at least two, spread evenly in time
//! label = "door"
//! signal = [15.0, 20.0]         # WaveLAN units
//! latency_ms = [1.0, 4.0]
//! bw_kbps = [1400.0, 1600.0]
//! loss = [0.0, 0.01]
//! ```

use crate::crosstraffic::CrossTrafficCfg;
use crate::model::Checkpoint;
use crate::scenario::Scenario;
use netsim::SimDuration;
use obs::toml;
use std::fmt::Write as _;

impl Scenario {
    /// Read a scenario file. Every error names its line. Labels and the
    /// name are interned (leaked): a tool loads a scenario file once.
    pub fn from_toml(doc: &str) -> Result<Scenario, String> {
        let (mut checkpoints, mut sc) = (Vec::new(), None);
        toml::read(doc, "scenario", "checkpoint", |t| {
            if t.index > 0 {
                checkpoints.push(Checkpoint {
                    label: t.need("label", toml::string)?.leak(),
                    signal: t.need("signal", range)?,
                    latency_ms: t.need("latency_ms", range)?,
                    bw_kbps: t.need("bw_kbps", |key, value| match range(key, value)? {
                        bw if bw.0 > 0.0 => Ok(bw),
                        _ => Err(format!("'bw_kbps' must be positive, got '{value}'")),
                    })?,
                    loss: t.need("loss", |key, value| match range(key, value)? {
                        (lo, hi) if lo.min(hi) >= 0.0 && lo.max(hi) <= 1.0 => Ok((lo, hi)),
                        _ => Err(format!("'loss' must be in [0, 1], got '{value}'")),
                    })?,
                });
                return Ok(());
            }
            if checkpoints.len() < 2 {
                return Err("a scenario needs at least two [[checkpoint]] tables".into());
            }
            sc = Some(Scenario {
                name: t.need("name", toml::string)?.leak(),
                duration: SimDuration::from_secs(t.need("duration_secs", crate::duration_secs)?),
                stationary: t.get("stationary", toml::boolean)?.unwrap_or(false),
                loss_asym_up: t.get("loss_asym_up", toml::number)?.unwrap_or(1.0),
                cross: match t.get("cross_users", toml::integer)? {
                    Some(users) => Some(CrossTrafficCfg {
                        users,
                        burst_frames: t
                            .need("cross_burst_frames", |k, v| pair(k, v, toml::integer))?,
                        frame_bytes: t
                            .need("cross_frame_bytes", |k, v| pair(k, v, toml::integer))?,
                        think_secs: t.need("cross_think_secs", range)?,
                        collision_loss: t.need("cross_collision_loss", toml::number)?,
                    }),
                    None => None,
                },
                checkpoints: std::mem::take(&mut checkpoints),
                model_spec: None,
            });
            Ok(())
        })?;
        Ok(sc.expect("toml::read visits the top level last"))
    }

    /// The scenario file that reads back as this scenario. Numbers
    /// print in Rust's shortest round-trip form, so
    /// [`from_toml`](Self::from_toml) rebuilds every bit.
    pub fn to_toml(&self) -> String {
        let secs = self.duration.as_secs_f64() as u64;
        let mut s = format!("name = \"{}\"\nduration_secs = {secs}\n", self.name);
        let _ = writeln!(s, "stationary = {}", self.stationary);
        let _ = writeln!(s, "loss_asym_up = {:?}", self.loss_asym_up);
        if let Some(c) = &self.cross {
            let _ = writeln!(s, "cross_users = {}", c.users);
            let _ = writeln!(s, "cross_burst_frames = {}", text(c.burst_frames));
            let _ = writeln!(s, "cross_frame_bytes = {}", text(c.frame_bytes));
            let _ = writeln!(s, "cross_think_secs = {}", text(c.think_secs));
            let _ = writeln!(s, "cross_collision_loss = {:?}", c.collision_loss);
        }
        for c in &self.checkpoints {
            let _ = writeln!(s, "\n[[checkpoint]]\nlabel = \"{}\"", c.label);
            let _ = writeln!(s, "signal = {}", text(c.signal));
            let _ = writeln!(s, "latency_ms = {}", text(c.latency_ms));
            let _ = writeln!(s, "bw_kbps = {}", text(c.bw_kbps));
            let _ = writeln!(s, "loss = {}", text(c.loss));
        }
        s
    }
}

/// A `[lo, hi]` range as TOML text, each end in `Debug` form: the
/// shortest text that reads back to the same bits.
fn text<T: std::fmt::Debug>((lo, hi): (T, T)) -> String {
    format!("{:?}", [lo, hi])
}

/// A `[lo, hi]` value for `key`, each end read by `item`.
fn pair<T: Copy>(
    key: &str,
    value: &str,
    item: fn(&str, &str) -> Result<T, String>,
) -> Result<(T, T), String> {
    match toml::array(key, value, item)?[..] {
        [lo, hi] => Ok((lo, hi)),
        _ => Err(format!(
            "expected a range [lo, hi] for '{key}', got '{value}'"
        )),
    }
}

/// A `[lo, hi]` range of numbers.
fn range(key: &str, value: &str) -> Result<(f64, f64), String> {
    pair(key, value, toml::number)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HALLWAY: &str = r#"
name = "hallway"
duration_secs = 20

[[checkpoint]]
label = "door"
signal = [15, 20]
latency_ms = [1, 4]
bw_kbps = [1400, 1600]
loss = [0, 0.01]

[[checkpoint]]
label = "stairs"
signal = [4, 8]
latency_ms = [5, 30]
bw_kbps = [300, 900]
loss = [0.05, 0.2]
"#;

    #[test]
    fn builtin_scenarios_round_trip_through_toml() {
        for sc in Scenario::all() {
            let text = sc.to_toml();
            let back = Scenario::from_toml(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(back.to_toml(), text);
            assert_eq!(back.name, sc.name);
            assert_eq!(back.duration, sc.duration);
            assert_eq!(
                format!("{:?}", back.checkpoints),
                format!("{:?}", sc.checkpoints)
            );
            assert_eq!(format!("{:?}", back.cross), format!("{:?}", sc.cross));
            assert_eq!(back.stationary, sc.stationary);
            assert_eq!(back.loss_asym_up.to_bits(), sc.loss_asym_up.to_bits());
        }
    }

    #[test]
    fn bad_files_are_refused_with_their_line() {
        let edit = |from: &str, to: &str| HALLWAY.replacen(from, to, 1);
        let cases = [
            (
                edit("= 20", "= 0"),
                "line 3: 'duration_secs' must be a positive integer",
            ),
            (
                edit("= 20", "= 2.5"),
                "line 3: expected an integer for 'duration_secs'",
            ),
            (
                edit("= 20", "= 86401"),
                "line 3: 'duration_secs' 86401 is above the cap",
            ),
            (
                edit("loss = [0,", "loss = [1.5,"),
                "line 10: 'loss' must be in [0, 1]",
            ),
            (edit("[1400,", "[0,"), "line 9: 'bw_kbps' must be positive"),
            (
                edit("[15, 20]", "[15, 20, 25]"),
                "line 7: expected a range [lo, hi] for 'signal'",
            ),
            (
                edit("[15, 20]", "15"),
                "line 7: expected an array for 'signal'",
            ),
            (
                edit("label = \"door\"", "label = \"a\"\nlabel = \"b\""),
                "line 7: duplicate key 'label'",
            ),
            (
                edit("\nloss = [0,", "\nloss_pct = 1\nloss = [0,"),
                "line 10: unknown [[checkpoint]] key 'loss_pct'",
            ),
            (
                edit("\nloss = [0,", "\n# loss = [0,"),
                "line 5: [[checkpoint]] 1 has no 'loss'",
            ),
            (
                edit("name = \"hallway\"", ""),
                "line 1: the top level has no 'name'",
            ),
            (
                edit("= 20", "= 20\nstationary = no"),
                "line 4: expected true or false for 'stationary'",
            ),
            (
                edit("= 20", "= 20\ncross_users = 3"),
                "line 1: the top level has no 'cross_burst_frames'",
            ),
            (
                edit("= 20", "= 20\ncross_think_secs = [1, 2]"),
                "line 4: unknown top-level key 'cross_think_secs'",
            ),
            (
                HALLWAY
                    .split("\n[[checkpoint]]\nlabel = \"stairs\"")
                    .next()
                    .unwrap()
                    .to_string(),
                "line 1: a scenario needs at least two",
            ),
        ];
        for (text, needle) in cases {
            let err = Scenario::from_toml(&text).expect_err(needle);
            assert!(
                err.starts_with("scenario line ") && err.contains(needle),
                "{needle}: {err}"
            );
        }
    }

    #[test]
    fn optional_keys_default() {
        let sc = Scenario::from_toml(HALLWAY).unwrap();
        assert_eq!(sc.name, "hallway");
        assert_eq!(sc.labels(), vec!["door", "stairs"]);
        assert!(sc.cross.is_none());
        assert!(!sc.stationary);
        assert_eq!(sc.loss_asym_up, 1.0);
        assert!(sc.model_spec.is_none());
    }

    #[test]
    fn custom_scenario_is_runnable() {
        let sc = Scenario::from_toml(HALLWAY).unwrap();
        let mut trial = netsim::SimRng::seed_from_u64(1);
        let mut model = sc.model(&mut trial);
        let mut rng = netsim::SimRng::seed_from_u64(2);
        let early = model.sample(netsim::SimTime::from_secs(1), &mut rng);
        let late = model.sample(netsim::SimTime::from_secs(19), &mut rng);
        assert!(early.signal.level > late.signal.level);
    }
}
