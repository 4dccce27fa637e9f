//! The channel-model plugin registry and scenario-pack format.
//!
//! The paper hard-wires one radio (the WaveLAN) as *the* channel; this
//! module promotes [`ChannelModel`] into a plugin layer so the same
//! collect → distill → modulate methodology runs against radios the
//! paper never saw. A [`ModelSpec`] names a registered model *family*
//! plus its parameters; a [`ScenarioPack`] (a TOML file, the
//! `--scenario <pack.toml>` CLI form) bundles one or more weighted
//! specs so a fleet can mix radios across its clients. The
//! [`Registry`] maps family names to factory functions — models are
//! constructed by name + params instead of compile-time wiring, and
//! identified everywhere (manifests, telemetry, conformance tests) by
//! their stable name strings.
//!
//! Five families are built in: `constant`, `piecewise` (the paper's
//! checkpoint scenarios), `physical` (WavePoint propagation + handoff),
//! `errant` (cellular operator/RAT profiles), and `leo` (satellite
//! pass schedule).

use crate::errant::{self, ErrantModel, Rat};
use crate::leo::{LeoConfig, LeoModel};
use crate::mobility::{Position, WalkBuilder};
use crate::model::{ChannelModel, ConstantModel, LinkConditions, PiecewiseModel};
use crate::scenario::Scenario;
use crate::signal::SignalInfo;
use crate::wavepoint::{PhysicalModel, WavePoint};
use netsim::{SimDuration, SimRng};
use obs::toml;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// One parameter value: scenario packs only need numbers and strings.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A numeric parameter (`pass_secs = 45`).
    Num(f64),
    /// A string parameter (`operator = "op2"`).
    Str(String),
}

/// Ordered `key → value` parameters of a [`ModelSpec`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelParams {
    entries: Vec<(String, ParamValue)>,
}

impl ModelParams {
    /// An empty parameter set (every family must accept one: all
    /// parameters have defaults except where documented).
    pub fn new() -> Self {
        ModelParams::default()
    }

    /// Set (or replace) a numeric parameter.
    pub fn set_num(&mut self, key: &str, v: f64) {
        self.set(key, ParamValue::Num(v));
    }

    /// Set (or replace) a string parameter.
    pub fn set_str(&mut self, key: &str, v: &str) {
        self.set(key, ParamValue::Str(v.to_string()));
    }

    fn set(&mut self, key: &str, v: ParamValue) {
        match self.entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = v,
            None => self.entries.push((key.to_string(), v)),
        }
    }

    /// Numeric value of `key`, if present and numeric.
    pub fn num(&self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(ParamValue::Num(v)) => Ok(Some(*v)),
            Some(ParamValue::Str(s)) => {
                Err(format!("param '{key}': expected a number, got \"{s}\""))
            }
        }
    }

    /// String value of `key`, if present and a string.
    pub fn str_value(&self, key: &str) -> Result<Option<&str>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(ParamValue::Str(s)) => Ok(Some(s.as_str())),
            Some(ParamValue::Num(v)) => Err(format!("param '{key}': expected a string, got {v}")),
        }
    }

    /// Numeric value with a default, validated finite.
    pub fn num_or(&self, key: &str, default: f64) -> Result<f64, String> {
        let v = self.num(key)?.unwrap_or(default);
        if !v.is_finite() {
            return Err(format!("param '{key}': must be finite, got {v}"));
        }
        Ok(v)
    }

    fn get(&self, key: &str) -> Option<&ParamValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Declared keys, in declaration order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Canonical `key=value` rendering, keys sorted — the stable params
    /// string recorded in manifests and telemetry.
    pub fn canonical(&self) -> String {
        let mut pairs: Vec<&(String, ParamValue)> = self.entries.iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::new();
        for (k, v) in pairs {
            if !out.is_empty() {
                out.push(' ');
            }
            match v {
                ParamValue::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                    let _ = write!(out, "{k}={}", *n as i64);
                }
                ParamValue::Num(n) => {
                    let _ = write!(out, "{k}={n}");
                }
                ParamValue::Str(s) => {
                    let _ = write!(out, "{k}={s}");
                }
            }
        }
        out
    }
}

/// A named model family plus parameters — everything needed to build a
/// [`ChannelModel`] through the [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Registered family name ("constant", "piecewise", "physical",
    /// "errant", "leo").
    pub family: String,
    /// Family parameters; missing keys take family defaults.
    pub params: ModelParams,
}

impl ModelSpec {
    /// A spec with no parameters (family defaults).
    pub fn family(name: &str) -> Self {
        ModelSpec {
            family: name.to_string(),
            params: ModelParams::new(),
        }
    }

    /// `(family, canonical-params)` — the identification recorded in
    /// run manifests.
    pub fn info(&self) -> (String, String) {
        (self.family.clone(), self.params.canonical())
    }
}

/// A family's constructor: validated params + run duration + the
/// per-client RNG stream → a boxed model (or a structured error).
type BuildFn = fn(&ModelParams, SimDuration, &mut SimRng) -> Result<Box<dyn ChannelModel>, String>;

/// One registered model family.
pub struct Family {
    /// Stable family name (the `family =` key of pack entries).
    pub name: &'static str,
    /// Parameter keys this family accepts.
    pub param_keys: &'static [&'static str],
    /// Whether the family models discrete station/satellite handoffs
    /// (so its `handoffs()` counter can be nonzero).
    pub has_handoffs: bool,
    /// One-line description for `tracemod scenarios`.
    pub describe: &'static str,
    build: BuildFn,
}

/// The model-family registry. Use [`Registry::builtin`] for the
/// process-wide instance holding the five built-in families.
pub struct Registry {
    families: Vec<Family>,
}

impl Registry {
    /// The built-in registry (constructed once per process).
    pub fn builtin() -> &'static Registry {
        static REG: OnceLock<Registry> = OnceLock::new();
        REG.get_or_init(|| Registry {
            families: vec![
                Family {
                    name: "constant",
                    param_keys: &["latency_ms", "bw_kbps", "loss", "signal"],
                    has_handoffs: false,
                    describe: "fixed conditions (defaults: the typical WaveLAN channel)",
                    build: build_constant,
                },
                Family {
                    name: "piecewise",
                    param_keys: &["scenario"],
                    has_handoffs: false,
                    describe: "checkpoint-interpolated WaveLAN scenario (requires scenario=<name>)",
                    build: build_piecewise,
                },
                Family {
                    name: "physical",
                    param_keys: &["stations", "spacing_m"],
                    has_handoffs: true,
                    describe: "WavePoint propagation + roaming along a straight walk",
                    build: build_physical,
                },
                Family {
                    name: "errant",
                    param_keys: &["operator", "rat"],
                    has_handoffs: false,
                    describe: "cellular operator/RAT profile with per-client session draws",
                    build: build_errant,
                },
                Family {
                    name: "leo",
                    param_keys: &[
                        "pass_secs",
                        "outage_ms",
                        "delay_zenith_ms",
                        "delay_horizon_ms",
                        "bw_mbps",
                        "loss",
                    ],
                    has_handoffs: true,
                    describe: "satellite pass schedule: per-pass delay steps + handoff outages",
                    build: build_leo,
                },
            ],
        })
    }

    /// The registered families.
    pub fn families(&self) -> &[Family] {
        &self.families
    }

    /// Look a family up by name.
    pub fn get(&self, name: &str) -> Option<&Family> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Build a model from a spec. `duration` is the run duration the
    /// model should span; `rng` supplies the per-trial/per-client
    /// realization. Errors are structured strings naming the offending
    /// family/param.
    pub fn build(
        &self,
        spec: &ModelSpec,
        duration: SimDuration,
        rng: &mut SimRng,
    ) -> Result<Box<dyn ChannelModel>, String> {
        let family = self.get(&spec.family).ok_or_else(|| {
            let known: Vec<&str> = self.families.iter().map(|f| f.name).collect();
            format!(
                "unknown model family '{}' (registered: {})",
                spec.family,
                known.join(", ")
            )
        })?;
        for key in spec.params.keys() {
            if !family.param_keys.contains(&key) {
                return Err(format!(
                    "model family '{}': unknown param '{}' (accepts: {})",
                    family.name,
                    key,
                    family.param_keys.join(", ")
                ));
            }
        }
        if duration.as_nanos() == 0 {
            return Err(format!(
                "model family '{}': duration must be positive",
                family.name
            ));
        }
        (family.build)(&spec.params, duration, rng)
            .map_err(|e| format!("model family '{}': {e}", family.name))
    }
}

fn build_constant(
    p: &ModelParams,
    duration: SimDuration,
    _rng: &mut SimRng,
) -> Result<Box<dyn ChannelModel>, String> {
    let latency_ms = p.num_or("latency_ms", 2.0)?;
    let bw_kbps = p.num_or("bw_kbps", 1500.0)?;
    let loss = p.num_or("loss", 0.02)?;
    let signal = p.num_or("signal", 20.0)?;
    if latency_ms < 0.0 {
        return Err(format!("latency_ms must be >= 0, got {latency_ms}"));
    }
    if bw_kbps <= 0.0 {
        return Err(format!("bw_kbps must be > 0, got {bw_kbps}"));
    }
    if !(0.0..=1.0).contains(&loss) {
        return Err(format!("loss must be in [0, 1], got {loss}"));
    }
    Ok(Box::new(ConstantModel::new(
        LinkConditions {
            latency: SimDuration::from_secs_f64(latency_ms / 1e3),
            bandwidth_bps: (bw_kbps * 1000.0) as u64,
            loss,
            signal: SignalInfo::from_level(signal.max(0.0)),
        },
        duration,
    )))
}

fn build_piecewise(
    p: &ModelParams,
    duration: SimDuration,
    rng: &mut SimRng,
) -> Result<Box<dyn ChannelModel>, String> {
    let name = p
        .str_value("scenario")?
        .ok_or_else(|| "missing required param 'scenario'".to_string())?;
    let sc = Scenario::by_name(name).ok_or_else(|| {
        format!(
            "unknown scenario '{name}' (known: {})",
            Scenario::all()
                .iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    Ok(Box::new(PiecewiseModel::new(
        sc.name,
        sc.checkpoints,
        duration,
        rng,
    )))
}

fn build_physical(
    p: &ModelParams,
    duration: SimDuration,
    _rng: &mut SimRng,
) -> Result<Box<dyn ChannelModel>, String> {
    let stations = p.num_or("stations", 3.0)?;
    let spacing = p.num_or("spacing_m", 100.0)?;
    if stations < 1.0 || stations.fract() != 0.0 || stations > 64.0 {
        return Err(format!(
            "stations must be an integer in 1..=64, got {stations}"
        ));
    }
    if spacing <= 0.0 {
        return Err(format!("spacing_m must be > 0, got {spacing}"));
    }
    let n = stations as usize;
    let total = spacing * (n.max(2) - 1) as f64;
    // Walk the whole corridor over the run: speed derived from the
    // duration so the traversal spans it exactly.
    let speed = (total / duration.as_secs_f64()).max(0.01);
    let path = WalkBuilder::start_at(Position::new(0.0, 0.0))
        .walk_to(Position::new(total, 0.0), speed)
        .build();
    let points = (0..n)
        .map(|i| WavePoint::at(Position::new(spacing * i as f64, 5.0)))
        .collect();
    Ok(Box::new(PhysicalModel::new("physical", path, points)))
}

fn build_errant(
    p: &ModelParams,
    duration: SimDuration,
    rng: &mut SimRng,
) -> Result<Box<dyn ChannelModel>, String> {
    let operator = p.str_value("operator")?.unwrap_or("op1");
    let rat_tok = p.str_value("rat")?.unwrap_or("4g");
    let rat = Rat::parse(rat_tok)
        .ok_or_else(|| format!("rat must be \"3g\" or \"4g\", got \"{rat_tok}\""))?;
    let profile = errant::profile(operator, rat).ok_or_else(|| {
        format!(
            "unknown operator \"{operator}\" (known: {})",
            errant::operators().join(", ")
        )
    })?;
    Ok(Box::new(ErrantModel::new(*profile, duration, rng)))
}

fn build_leo(
    p: &ModelParams,
    duration: SimDuration,
    rng: &mut SimRng,
) -> Result<Box<dyn ChannelModel>, String> {
    let d = LeoConfig::default();
    let pass_secs = p.num_or("pass_secs", d.pass.as_secs_f64())?;
    let outage_ms = p.num_or("outage_ms", d.outage.as_millis_f64())?;
    let zenith_ms = p.num_or("delay_zenith_ms", d.delay_zenith.as_millis_f64())?;
    let horizon_ms = p.num_or("delay_horizon_ms", d.delay_horizon.as_millis_f64())?;
    let bw_mbps = p.num_or("bw_mbps", d.bw_bps as f64 / 1e6)?;
    let loss = p.num_or("loss", d.loss)?;
    if pass_secs <= 0.0 {
        return Err(format!("pass_secs must be > 0, got {pass_secs}"));
    }
    if outage_ms < 0.0 || outage_ms / 1e3 >= pass_secs {
        return Err(format!(
            "outage_ms must be in [0, pass) — got {outage_ms} against pass {pass_secs}s"
        ));
    }
    if zenith_ms <= 0.0 || horizon_ms < zenith_ms {
        return Err(format!(
            "need 0 < delay_zenith_ms <= delay_horizon_ms, got {zenith_ms}/{horizon_ms}"
        ));
    }
    if bw_mbps <= 0.0 {
        return Err(format!("bw_mbps must be > 0, got {bw_mbps}"));
    }
    if !(0.0..=1.0).contains(&loss) {
        return Err(format!("loss must be in [0, 1], got {loss}"));
    }
    let cfg = LeoConfig {
        pass: SimDuration::from_secs_f64(pass_secs),
        outage: SimDuration::from_secs_f64(outage_ms / 1e3),
        delay_zenith: SimDuration::from_secs_f64(zenith_ms / 1e3),
        delay_horizon: SimDuration::from_secs_f64(horizon_ms / 1e3),
        bw_bps: (bw_mbps * 1e6) as u64,
        loss,
    };
    Ok(Box::new(LeoModel::new(cfg, duration, rng)))
}

/// One weighted entry of a [`ScenarioPack`].
#[derive(Debug, Clone, PartialEq)]
pub struct PackEntry {
    /// What to build.
    pub spec: ModelSpec,
    /// Relative share of fleet clients assigned this model (≥ 1).
    pub share: u32,
}

/// A scenario pack: a named, weighted mix of model specs plus the run
/// duration — the unit of configuration behind `--scenario <pack>`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPack {
    /// Pack name (becomes the scenario name in manifests/reports).
    pub name: String,
    /// Run duration in seconds.
    pub duration_secs: u64,
    /// The weighted model mix, in declaration order.
    pub entries: Vec<PackEntry>,
}

impl ScenarioPack {
    /// Parse the TOML subset: top-level `name`/`duration_secs`, then
    /// `[[model]]` tables with `family`, optional `share`, and free
    /// `key = value` parameters. `#` comments and blank lines are
    /// ignored. Syntax only — call [`validate`](Self::validate) next.
    pub fn from_toml(s: &str) -> Result<ScenarioPack, String> {
        let mut name = String::new();
        let mut duration_secs = 0;
        let mut entries: Vec<PackEntry> = Vec::new();
        toml::read(s, "pack", "model", |t| {
            if t.index == 0 {
                name = t.need("name", toml::string)?;
                if name.is_empty() {
                    return Err("'name' must not be empty".into());
                }
                duration_secs = t.need("duration_secs", crate::duration_secs)?;
                return Ok(());
            }
            let mut spec = ModelSpec {
                family: t.need("family", toml::string)?,
                params: ModelParams::new(),
            };
            let share = t
                .get("share", |key, value| match toml::integer(key, value)? {
                    n @ 1..=1_000_000 => Ok(n),
                    _ => Err(format!("'share' must be a positive integer, got '{value}'")),
                })?
                .unwrap_or(1);
            t.rest(|param, value| {
                let value = match value.starts_with('"') {
                    true => ParamValue::Str(toml::string(param, value)?),
                    false => ParamValue::Num(toml::number(param, value)?),
                };
                spec.params.set(param, value);
                Ok(())
            })?;
            entries.push(PackEntry { spec, share });
            Ok(())
        })?;
        Ok(ScenarioPack {
            name,
            duration_secs,
            entries,
        })
    }

    /// Semantic validation: at least one model, every spec must build
    /// against `registry` (with a throwaway RNG), shares sane. After
    /// this passes, later [`Registry::build`] calls on the pack's specs
    /// cannot fail.
    pub fn validate(&self, registry: &Registry) -> Result<(), String> {
        if self.entries.is_empty() {
            return Err(format!("pack '{}': no [[model]] entries", self.name));
        }
        if self.duration_secs == 0 {
            return Err(format!("pack '{}': duration must be positive", self.name));
        }
        for e in &self.entries {
            if e.share == 0 {
                return Err(format!("pack '{}': share must be >= 1", self.name));
            }
            let mut probe = SimRng::seed_from_u64(0);
            registry
                .build(&e.spec, self.duration(), &mut probe)
                .map_err(|err| format!("pack '{}': {err}", self.name))?;
        }
        Ok(())
    }

    /// The run duration.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_secs(self.duration_secs)
    }

    /// The spec governing fleet client `client` — cumulative shares
    /// over `client % total_share`, a pure function of the client index
    /// so the assignment is shard-invariant.
    pub fn spec_for_client(&self, client: u32) -> &ModelSpec {
        &self.entries[self.entry_for_client(client)].spec
    }

    /// The index into [`entries`](Self::entries) of the spec governing
    /// fleet client `client` (see [`spec_for_client`](Self::spec_for_client)).
    pub fn entry_for_client(&self, client: u32) -> usize {
        let total: u64 = self.entries.iter().map(|e| e.share as u64).sum();
        let mut slot = client as u64 % total.max(1);
        for (i, e) in self.entries.iter().enumerate() {
            if slot < e.share as u64 {
                return i;
            }
            slot -= e.share as u64;
        }
        0
    }

    /// A [`Scenario`] stub carrying this pack, so every single-channel
    /// code path (collect/live/figures) runs a pack transparently: the
    /// scenario's `model()` builds the pack's *first* entry through the
    /// registry; fleets consult [`spec_for_client`](Self::spec_for_client)
    /// for the full mix.
    pub fn scenario(&self) -> Scenario {
        let mut sc = Scenario::chatterbox();
        sc.name = Box::leak(self.name.clone().into_boxed_str());
        sc.duration = self.duration();
        sc.cross = None;
        sc.stationary = false;
        sc.loss_asym_up = 1.0;
        sc.model_spec = Some(self.entries[0].spec.clone());
        sc
    }
}

/// Parse a pack file's TOML `contents` and validate it against the
/// built-in registry. Errors carry a `"{path}: "` prefix.
pub fn load_pack(path: &str, contents: &str) -> Result<ScenarioPack, String> {
    let pack = ScenarioPack::from_toml(contents)
        .and_then(|pack| pack.validate(Registry::builtin()).map(|()| pack));
    pack.map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimTime;

    const LEO_TOML: &str = r#"
# a LEO mix with a cellular fallback share
name = "leo-mix"
duration_secs = 120

[[model]]
family = "leo"
share = 3
pass_secs = 45
outage_ms = 250

[[model]]
family = "errant"
share = 1
operator = "op2"
rat = "4g"
"#;

    #[test]
    fn toml_pack_round_trip() {
        let pack = ScenarioPack::from_toml(LEO_TOML).unwrap();
        assert_eq!(pack.name, "leo-mix");
        assert_eq!(pack.duration_secs, 120);
        assert_eq!(pack.entries.len(), 2);
        assert_eq!(pack.entries[0].spec.family, "leo");
        assert_eq!(pack.entries[0].share, 3);
        assert_eq!(
            pack.entries[0].spec.params.num("pass_secs").unwrap(),
            Some(45.0)
        );
        assert_eq!(
            pack.entries[1].spec.params.str_value("operator").unwrap(),
            Some("op2")
        );
        pack.validate(Registry::builtin()).unwrap();
    }

    #[test]
    fn client_mix_follows_shares_and_is_pure() {
        let pack = ScenarioPack::from_toml(LEO_TOML).unwrap();
        let fam = |c: u32| pack.spec_for_client(c).family.as_str();
        // shares 3:1 → clients 0..3 leo, 3 errant, repeating.
        assert_eq!(fam(0), "leo");
        assert_eq!(fam(2), "leo");
        assert_eq!(fam(3), "errant");
        assert_eq!(fam(4), "leo");
        assert_eq!(fam(7), "errant");
        let leo_count = (0..1000).filter(|&c| fam(c) == "leo").count();
        assert_eq!(leo_count, 750);
    }

    #[test]
    fn registry_builds_all_families_by_default() {
        let reg = Registry::builtin();
        assert!(reg.families().len() >= 5);
        for fam in reg.families() {
            let mut spec = ModelSpec::family(fam.name);
            if fam.name == "piecewise" {
                spec.params.set_str("scenario", "porter");
            }
            let mut rng = SimRng::seed_from_u64(1);
            let mut m = reg
                .build(&spec, SimDuration::from_secs(60), &mut rng)
                .unwrap_or_else(|e| panic!("{}: {e}", fam.name));
            let mut srng = SimRng::seed_from_u64(2);
            let c = m.sample(SimTime::from_secs(10), &mut srng);
            assert!(c.bandwidth_bps > 0, "{}", fam.name);
        }
    }

    #[test]
    fn structured_errors_name_the_problem() {
        let reg = Registry::builtin();
        let mut rng = SimRng::seed_from_u64(1);
        let dur = SimDuration::from_secs(60);

        let err = reg
            .build(&ModelSpec::family("nonesuch"), dur, &mut rng)
            .err()
            .unwrap();
        assert!(err.contains("unknown model family 'nonesuch'"), "{err}");

        let err = reg
            .build(&ModelSpec::family("piecewise"), dur, &mut rng)
            .err()
            .unwrap();
        assert!(err.contains("missing required param 'scenario'"), "{err}");

        let mut spec = ModelSpec::family("leo");
        spec.params.set_num("bw_mbps", -4.0);
        let err = reg.build(&spec, dur, &mut rng).err().unwrap();
        assert!(err.contains("bw_mbps must be > 0"), "{err}");

        let mut spec = ModelSpec::family("constant");
        spec.params.set_num("frobnicate", 1.0);
        let err = reg.build(&spec, dur, &mut rng).err().unwrap();
        assert!(err.contains("unknown param 'frobnicate'"), "{err}");
    }

    #[test]
    fn packs_and_rules_read_the_same_toml_subset() {
        let pack = ScenarioPack::from_toml;
        let rules = obs::RuleSet::from_toml;

        // An unterminated string value.
        assert_eq!(
            pack("[[model]]\nfamily = \"leo\"\nname = \"leo").unwrap_err(),
            "pack line 3: expected a quoted string for 'name', got '\"leo'"
        );
        assert_eq!(
            rules("[[rule]]\nmetric = \"x\"\nname = \"leo").unwrap_err(),
            "rules line 3: expected a quoted string for 'name', got '\"leo'"
        );

        // A `#` inside quotes is text; the one after them starts a comment.
        let p =
            pack("name = \"p\"\nduration_secs = 9\n[[model]]\nfamily = \"x\"\nname = \"a#b\" # c");
        let p = p.unwrap();
        assert_eq!(p.entries[0].spec.params.str_value("name"), Ok(Some("a#b")));
        let r = rules("[[rule]]\nname = \"a#b\" # c").unwrap();
        assert_eq!(r.rules[0].name, "a#b");

        // A key before any table: packs have top-level keys, rules none.
        assert_eq!(
            pack("name = \"p\"\nduration_secs = 9\nwindow = 3").unwrap_err(),
            "pack line 3: unknown top-level key 'window'"
        );
        assert_eq!(
            rules("window = 3").unwrap_err(),
            "rules line 1: 'window' appears before any [[rule]] table"
        );

        // A repeated key is refused at its second line, whether the
        // front end takes it by name or as a free parameter.
        let head = "name = \"p\"\nduration_secs = 9\n[[model]]\nfamily = \"leo\"\n";
        for (extra, key) in [
            ("family = \"leo\"", "family"),
            ("share = 2\nshare = 3", "share"),
        ] {
            assert_eq!(
                pack(&format!("{head}{extra}\n")).unwrap_err(),
                format!(
                    "pack line {}: duplicate key '{key}'",
                    4 + extra.lines().count()
                )
            );
        }
        assert_eq!(
            pack(&format!("{head}alt_km = 550\nalt_km = 600\n")).unwrap_err(),
            "pack line 6: duplicate key 'alt_km'"
        );
        assert_eq!(
            rules("[[rule]]\nname = \"a\"\nname = \"b\"").unwrap_err(),
            "rules line 3: duplicate key 'name'"
        );

        // A JSON document: both readers name the TOML form they expect.
        assert_eq!(
            pack("{\"name\": \"j\"}").unwrap_err(),
            "pack line 1: expected a TOML `key = value` line or a [[model]] table, got '{\"name\": \"j\"}'"
        );
        assert_eq!(
            rules("{\"rules\": []}").unwrap_err(),
            "rules line 1: expected a TOML `key = value` line or a [[rule]] table, got '{\"rules\": []}'"
        );

        // An unknown table.
        assert_eq!(
            pack("# header\n[[scenario]]").unwrap_err(),
            "pack line 2: unsupported table '[[scenario]]' (only [[model]] tables)"
        );
        assert_eq!(
            rules("# header\n[[scenario]]").unwrap_err(),
            "rules line 2: unsupported table '[[scenario]]' (only [[rule]] tables)"
        );
    }

    #[test]
    fn pack_scenario_stub_builds_first_entry() {
        let pack = ScenarioPack::from_toml(LEO_TOML).unwrap();
        let sc = pack.scenario();
        assert_eq!(sc.name, "leo-mix");
        assert_eq!(sc.duration.as_secs_f64() as u64, 120);
        let mut rng = SimRng::seed_from_u64(5);
        let mut m = sc.model(&mut rng);
        assert_eq!(m.name(), "leo");
        let mut srng = SimRng::seed_from_u64(6);
        let _ = m.sample(SimTime::from_secs(1), &mut srng);
    }

    #[test]
    fn canonical_params_are_sorted_and_stable() {
        let mut p = ModelParams::new();
        p.set_num("pass_secs", 45.0);
        p.set_str("operator", "op1");
        p.set_num("loss", 0.25);
        assert_eq!(p.canonical(), "loss=0.25 operator=op1 pass_secs=45");
    }
}
