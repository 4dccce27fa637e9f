//! Time-varying channel models.
//!
//! A [`ChannelModel`] answers: "what are the instantaneous one-way
//! conditions of the wireless hop right now?" Scenario models are built
//! from per-checkpoint target ranges (matching Figures 2–5) interpolated
//! over the traversal, with per-trial randomness so that four trials of
//! one scenario differ the way the paper's four trials do.

use crate::signal::SignalInfo;
use netsim::{SimDuration, SimRng, SimTime};

/// Instantaneous one-way conditions of the wireless hop.
#[derive(Debug, Clone, Copy)]
pub struct LinkConditions {
    /// One-way fixed latency (propagation + MAC + base-station
    /// processing).
    pub latency: SimDuration,
    /// Instantaneous usable bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way probability of losing a packet.
    pub loss: f64,
    /// What the device reports.
    pub signal: SignalInfo,
}

/// A source of time-varying channel conditions.
///
/// Implementations are identified by their stable [`name`](Self::name)
/// string (the registry's model-name key), never by `TypeId` downcasts
/// — there is deliberately no `Any` supertrait.
pub trait ChannelModel: Send {
    /// Conditions at `now`. May be stochastic (uses `rng`).
    fn sample(&mut self, now: SimTime, rng: &mut SimRng) -> LinkConditions;

    /// Total scenario duration (conditions repeat/flatten past this).
    fn duration(&self) -> SimDuration;

    /// Scenario name for reports.
    fn name(&self) -> &str {
        "channel"
    }

    /// Base-station handoffs performed so far. Nonzero only for models
    /// with explicit station association (e.g. the physical
    /// WavePoint model); interpolated scenario models have no discrete
    /// handoff events.
    fn handoffs(&self) -> u64 {
        0
    }
}

/// A fixed-conditions model (useful for tests and the wired baseline).
#[derive(Debug, Clone)]
pub struct ConstantModel {
    /// The conditions returned for every sample.
    pub conditions: LinkConditions,
    /// Reported duration.
    pub span: SimDuration,
}

impl ConstantModel {
    /// A model that always returns `conditions`.
    pub fn new(conditions: LinkConditions, span: SimDuration) -> Self {
        ConstantModel { conditions, span }
    }
}

impl ChannelModel for ConstantModel {
    fn sample(&mut self, _now: SimTime, _rng: &mut SimRng) -> LinkConditions {
        self.conditions
    }

    fn duration(&self) -> SimDuration {
        self.span
    }

    fn name(&self) -> &str {
        "constant"
    }
}

/// One checkpoint along a scenario path: target parameter ranges observed
/// there (the vertical bars in Figures 2–4).
#[derive(Debug, Clone, Copy)]
pub struct Checkpoint {
    /// Label, e.g. "x3".
    pub label: &'static str,
    /// Signal level range (WaveLAN units).
    pub signal: (f64, f64),
    /// One-way latency range in milliseconds. Values are sampled
    /// log-uniformly so occasional spikes near `hi` occur.
    pub latency_ms: (f64, f64),
    /// Bandwidth range in kilobits per second.
    pub bw_kbps: (f64, f64),
    /// One-way loss-rate range (0–1).
    pub loss: (f64, f64),
}

/// A piecewise scenario: checkpoints spread evenly across `duration`,
/// linearly interpolated, with per-trial jitter and short-lived latency
/// spikes.
pub struct PiecewiseModel {
    name: &'static str,
    checkpoints: Vec<Checkpoint>,
    duration: SimDuration,
    /// Per-trial multiplicative offsets (drawn once per construction).
    trial_latency_k: f64,
    trial_bw_k: f64,
    trial_loss_k: f64,
    trial_signal_k: f64,
    /// Probability per sample of a latency spike toward the range top.
    spike_p: f64,
    /// Temporal-coherence state: positions in [0,1] within each range,
    /// evolved as a reflected random walk so conditions vary smoothly
    /// (correlation time ≈ `tau`) rather than i.i.d. per packet.
    walk: WalkState,
    /// Correlation time of the random walk.
    tau: SimDuration,
}

/// Reflected-random-walk state shared by the temporally-coherent
/// models (piecewise WaveLAN scenarios and the ERRANT cellular
/// profiles): four positions in `[0, 1]`, one per link parameter,
/// evolved smoothly with correlation time `tau`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WalkState {
    pub(crate) last: Option<SimTime>,
    pub(crate) lat_u: f64,
    pub(crate) bw_u: f64,
    pub(crate) loss_u: f64,
    pub(crate) sig_u: f64,
}

impl WalkState {
    pub(crate) fn centered() -> Self {
        WalkState {
            last: None,
            lat_u: 0.5,
            bw_u: 0.5,
            loss_u: 0.5,
            sig_u: 0.5,
        }
    }

    pub(crate) fn advance(&mut self, now: SimTime, tau: SimDuration, rng: &mut SimRng) {
        let dt = match self.last {
            None => {
                self.lat_u = rng.f64();
                self.bw_u = rng.f64();
                self.loss_u = rng.f64();
                self.sig_u = rng.f64();
                self.last = Some(now);
                return;
            }
            Some(last) => now.since(last).as_secs_f64(),
        };
        self.last = Some(now);
        if dt <= 0.0 {
            return;
        }
        // Step size grows with elapsed time; saturates at a full-range
        // re-draw once dt >> tau.
        let sigma = (dt / tau.as_secs_f64()).sqrt().min(1.0) * 0.5;
        let mut step = |u: &mut f64| {
            let mut v = *u + rng.normal(0.0, sigma);
            // Reflect into [0, 1].
            while !(0.0..=1.0).contains(&v) {
                if v < 0.0 {
                    v = -v;
                } else {
                    v = 2.0 - v;
                }
            }
            *u = v;
        };
        step(&mut self.lat_u);
        step(&mut self.bw_u);
        step(&mut self.loss_u);
        step(&mut self.sig_u);
    }
}

impl PiecewiseModel {
    /// Build a trial of a scenario. `trial_rng` supplies the per-trial
    /// variation; two models built with identically-seeded RNGs behave
    /// identically.
    pub fn new(
        name: &'static str,
        checkpoints: Vec<Checkpoint>,
        duration: SimDuration,
        trial_rng: &mut SimRng,
    ) -> Self {
        assert!(checkpoints.len() >= 2, "need at least two checkpoints");
        PiecewiseModel {
            name,
            checkpoints,
            duration,
            trial_latency_k: trial_rng.range_f64(0.85, 1.15),
            trial_bw_k: trial_rng.range_f64(0.92, 1.08),
            trial_loss_k: trial_rng.range_f64(0.88, 1.12),
            trial_signal_k: trial_rng.range_f64(0.9, 1.1),
            spike_p: 0.02,
            walk: WalkState::centered(),
            tau: SimDuration::from_secs(3),
        }
    }

    /// Position along the path in [0, 1].
    fn frac(&self, now: SimTime) -> f64 {
        let d = self.duration.as_nanos().max(1);
        (now.as_nanos() as f64 / d as f64).min(1.0)
    }

    /// Interpolated checkpoint ranges at a position.
    fn ranges_at(&self, frac: f64) -> Checkpoint {
        let n = self.checkpoints.len();
        let pos = frac * (n - 1) as f64;
        let i = (pos.floor() as usize).min(n - 2);
        let t = pos - i as f64;
        let a = self.checkpoints[i];
        let b = self.checkpoints[i + 1];
        let lerp = |x: (f64, f64), y: (f64, f64)| -> (f64, f64) {
            (x.0 + (y.0 - x.0) * t, x.1 + (y.1 - x.1) * t)
        };
        Checkpoint {
            label: a.label,
            signal: lerp(a.signal, b.signal),
            latency_ms: lerp(a.latency_ms, b.latency_ms),
            bw_kbps: lerp(a.bw_kbps, b.bw_kbps),
            loss: lerp(a.loss, b.loss),
        }
    }
}

impl ChannelModel for PiecewiseModel {
    fn sample(&mut self, now: SimTime, rng: &mut SimRng) -> LinkConditions {
        let r = self.ranges_at(self.frac(now));
        self.walk.advance(now, self.tau, rng);

        // Latency: log-scale position within the range (so time spent
        // near the floor dominates, with excursions toward the top), plus
        // occasional short spikes pinned near the range top — the spikes
        // in the paper's latency plots.
        let (l_lo, l_hi) = (r.latency_ms.0.max(0.05), r.latency_ms.1.max(0.06));
        let lat_ms = if rng.chance(self.spike_p) {
            rng.range_f64(0.7 * l_hi, l_hi)
        } else {
            let u = self.walk.lat_u;
            l_lo * (l_hi / l_lo).powf(u * u) // biased toward the low end
        } * self.trial_latency_k;

        let lerp = |(lo, hi): (f64, f64), u: f64| lo + (hi - lo) * u;
        let bw_kbps = lerp(r.bw_kbps, self.walk.bw_u) * self.trial_bw_k;
        let loss = (lerp(r.loss, self.walk.loss_u) * self.trial_loss_k).clamp(0.0, 0.95);
        let sig = lerp(r.signal, self.walk.sig_u) * self.trial_signal_k;

        LinkConditions {
            latency: SimDuration::from_secs_f64(lat_ms / 1e3),
            bandwidth_bps: (bw_kbps * 1000.0).max(1000.0) as u64,
            loss,
            signal: SignalInfo::from_level(sig),
        }
    }

    fn duration(&self) -> SimDuration {
        self.duration
    }

    fn name(&self) -> &str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_point_model() -> PiecewiseModel {
        let mut rng = SimRng::seed_from_u64(1);
        PiecewiseModel::new(
            "test",
            vec![
                Checkpoint {
                    label: "a",
                    signal: (20.0, 20.0),
                    latency_ms: (1.0, 1.0),
                    bw_kbps: (2000.0, 2000.0),
                    loss: (0.0, 0.0),
                },
                Checkpoint {
                    label: "b",
                    signal: (10.0, 10.0),
                    latency_ms: (9.0, 9.0),
                    bw_kbps: (1000.0, 1000.0),
                    loss: (0.5, 0.5),
                },
            ],
            SimDuration::from_secs(100),
            &mut rng,
        )
    }

    #[test]
    fn interpolation_moves_between_checkpoints() {
        let mut m = two_point_model();
        let mut rng = SimRng::seed_from_u64(2);
        let start = m.sample(SimTime::ZERO, &mut rng);
        let end = m.sample(SimTime::from_secs(100), &mut rng);
        assert!(start.signal.level > end.signal.level);
        assert!(start.bandwidth_bps > end.bandwidth_bps);
        assert!(start.loss < end.loss);
        assert!(start.latency < end.latency);
        // Midpoint is between the two.
        let mid = m.sample(SimTime::from_secs(50), &mut rng);
        assert!(mid.signal.level < start.signal.level);
        assert!(mid.signal.level > end.signal.level);
    }

    #[test]
    fn past_duration_clamps() {
        let mut m = two_point_model();
        let mut rng = SimRng::seed_from_u64(2);
        let end = m.sample(SimTime::from_secs(100), &mut rng);
        let past = m.sample(SimTime::from_secs(500), &mut rng);
        assert!((end.loss - past.loss).abs() < 0.2);
    }

    #[test]
    fn trials_differ_but_are_reproducible() {
        let build = |seed: u64| {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut m = two_point_model();
            m.trial_latency_k = rng.range_f64(0.85, 1.15);
            m
        };
        let a = build(1).trial_latency_k;
        let b = build(1).trial_latency_k;
        let c = build(2).trial_latency_k;
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn constant_model_is_constant() {
        let conditions = LinkConditions {
            latency: SimDuration::from_millis(2),
            bandwidth_bps: 1_500_000,
            loss: 0.02,
            signal: SignalInfo::from_level(20.0),
        };
        let mut m = ConstantModel::new(conditions, SimDuration::from_secs(60));
        let mut rng = SimRng::seed_from_u64(3);
        let a = m.sample(SimTime::ZERO, &mut rng);
        let b = m.sample(SimTime::from_secs(30), &mut rng);
        assert_eq!(a.bandwidth_bps, b.bandwidth_bps);
        assert_eq!(a.latency, b.latency);
        assert_eq!(m.name(), "constant");
    }

    #[test]
    fn latency_samples_are_biased_low_with_spikes() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut m = PiecewiseModel::new(
            "spiky",
            vec![
                Checkpoint {
                    label: "a",
                    signal: (20.0, 20.0),
                    latency_ms: (1.5, 100.0),
                    bw_kbps: (1500.0, 1500.0),
                    loss: (0.0, 0.0),
                },
                Checkpoint {
                    label: "b",
                    signal: (20.0, 20.0),
                    latency_ms: (1.5, 100.0),
                    bw_kbps: (1500.0, 1500.0),
                    loss: (0.0, 0.0),
                },
            ],
            SimDuration::from_secs(10),
            &mut rng,
        );
        // Sample along time so the coherent walk explores the range.
        let samples: Vec<f64> = (0..2000)
            .map(|i| {
                m.sample(SimTime::from_millis(5 * i), &mut rng)
                    .latency
                    .as_millis_f64()
            })
            .collect();
        let median = {
            let mut s = samples.clone();
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        };
        let max = samples.iter().cloned().fold(0.0, f64::max);
        // Median stays near the floor; spikes reach most of the range top.
        assert!(median < 15.0, "median {median}");
        assert!(max > 60.0, "max {max}");
    }
}
