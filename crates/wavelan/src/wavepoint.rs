//! WavePoint infrastructure and physical signal propagation: an
//! alternative, physically-grounded [`ChannelModel`].
//!
//! The empirical scenario models ([`crate::scenario`]) specify observed
//! parameter ranges directly. This module instead derives them: base
//! stations ("WavePoints, bridges to an Ethernet") are placed on a floor
//! plan, signal level follows log-distance path loss with shadowing, the
//! roaming protocol hands the mobile off to the strongest station (with
//! hysteresis and a brief outage, §3.1.1), and latency/bandwidth/loss are
//! functions of the received signal — the way a real WaveLAN degrades.

use crate::mobility::{MobilityPath, Position};
use crate::model::{ChannelModel, LinkConditions};
use crate::signal::SignalInfo;
use netsim::{SimDuration, SimRng, SimTime};

/// One WavePoint base station.
#[derive(Debug, Clone, Copy)]
pub struct WavePoint {
    /// Location.
    pub pos: Position,
    /// Transmit-power offset in WaveLAN signal units (0 = nominal).
    pub power_offset: f64,
}

impl WavePoint {
    /// A nominal-power WavePoint at `pos`.
    pub fn at(pos: Position) -> Self {
        WavePoint {
            pos,
            power_offset: 0.0,
        }
    }
}

/// Propagation parameters (log-distance path loss, in WaveLAN units).
#[derive(Debug, Clone, Copy)]
pub struct Propagation {
    /// Signal level at the reference distance.
    pub level_at_ref: f64,
    /// Reference distance in meters.
    pub ref_distance: f64,
    /// Path-loss exponent (≈2 free space; 3–4 indoors).
    pub exponent: f64,
    /// Shadowing standard deviation (slow fading), WaveLAN units.
    pub shadowing_sigma: f64,
}

impl Default for Propagation {
    fn default() -> Self {
        Propagation {
            level_at_ref: 34.0,
            ref_distance: 3.0,
            exponent: 3.2,
            shadowing_sigma: 2.0,
        }
    }
}

impl Propagation {
    /// Mean signal level at `distance` meters (before shadowing).
    pub fn level_at(&self, distance: f64) -> f64 {
        let d = distance.max(self.ref_distance);
        // 10·n·log10(d/d0) loss, scaled into WaveLAN's unit range.
        (self.level_at_ref - 10.0 * self.exponent * (d / self.ref_distance).log10() * 0.55).max(0.0)
    }
}

/// How signal level maps to link conditions — the device's rate/robustness
/// behaviour.
#[derive(Debug, Clone, Copy)]
pub struct SignalResponse {
    /// Signal at/above which the link runs at full quality.
    pub good: f64,
    /// Signal at/below which the link is unusable.
    pub dead: f64,
    /// Bandwidth at full quality (b/s).
    pub bw_full_bps: f64,
    /// Bandwidth floor near the dead zone (b/s).
    pub bw_floor_bps: f64,
    /// Base one-way latency.
    pub base_latency: SimDuration,
    /// Loss probability near the dead zone.
    pub loss_at_dead: f64,
}

impl Default for SignalResponse {
    fn default() -> Self {
        SignalResponse {
            good: 12.0,
            dead: 3.0,
            bw_full_bps: 1_550_000.0,
            bw_floor_bps: 120_000.0,
            base_latency: SimDuration::from_millis(2),
            loss_at_dead: 0.85,
        }
    }
}

impl SignalResponse {
    /// Fraction of full quality at `level` (1 at `good`, 0 at `dead`).
    fn quality(&self, level: f64) -> f64 {
        ((level - self.dead) / (self.good - self.dead)).clamp(0.0, 1.0)
    }
}

/// Handoff (roaming-protocol) parameters.
#[derive(Debug, Clone, Copy)]
pub struct HandoffConfig {
    /// A rival station must beat the current one by this margin to
    /// trigger a handoff (hysteresis).
    pub hysteresis: f64,
    /// Communication outage while re-associating.
    pub outage: SimDuration,
}

impl Default for HandoffConfig {
    fn default() -> Self {
        HandoffConfig {
            hysteresis: 3.0,
            outage: SimDuration::from_millis(400),
        }
    }
}

/// Counters for diagnostics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhysicalStats {
    /// Handoffs performed.
    pub handoffs: u64,
}

/// The physical channel model: mobility + propagation + handoff.
pub struct PhysicalModel {
    name: String,
    path: MobilityPath,
    stations: Vec<WavePoint>,
    prop: Propagation,
    response: SignalResponse,
    handoff: HandoffConfig,
    associated: usize,
    outage_until: SimTime,
    shadow: f64,
    shadow_at: SimTime,
    stats: PhysicalStats,
}

impl PhysicalModel {
    /// Build a model for a walk through a set of stations.
    pub fn new(name: &str, path: MobilityPath, stations: Vec<WavePoint>) -> Self {
        assert!(!stations.is_empty(), "need at least one WavePoint");
        PhysicalModel {
            name: name.to_string(),
            path,
            stations,
            prop: Propagation::default(),
            response: SignalResponse::default(),
            handoff: HandoffConfig::default(),
            associated: 0,
            outage_until: SimTime::ZERO,
            shadow: 0.0,
            shadow_at: SimTime::ZERO,
            stats: PhysicalStats::default(),
        }
    }

    /// Diagnostics.
    pub fn stats(&self) -> PhysicalStats {
        self.stats
    }

    fn mean_level(&self, station: usize, pos: &Position) -> f64 {
        let st = &self.stations[station];
        self.prop.level_at(st.pos.distance(pos)) + st.power_offset
    }

    fn update_shadowing(&mut self, now: SimTime, rng: &mut SimRng) {
        // Slow log-normal shadowing: random walk with ~2 s correlation.
        let dt = now.since(self.shadow_at).as_secs_f64();
        self.shadow_at = now;
        if dt <= 0.0 {
            return;
        }
        let sigma = self.prop.shadowing_sigma * (dt / 2.0).sqrt().min(1.0);
        self.shadow = (self.shadow + rng.normal(0.0, sigma)).clamp(
            -2.5 * self.prop.shadowing_sigma,
            2.5 * self.prop.shadowing_sigma,
        );
    }
}

impl ChannelModel for PhysicalModel {
    fn sample(&mut self, now: SimTime, rng: &mut SimRng) -> LinkConditions {
        let pos = self.path.position_at(now);
        self.update_shadowing(now, rng);

        // Roaming: consider the strongest station; hand off with
        // hysteresis, paying an outage window.
        let current = self.mean_level(self.associated, &pos);
        let (best_idx, best_level) = (0..self.stations.len())
            .map(|i| (i, self.mean_level(i, &pos)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("stations is non-empty");
        if best_idx != self.associated && best_level > current + self.handoff.hysteresis {
            self.associated = best_idx;
            // Saturating: queried at `SimTime::MAX`-ish instants the
            // outage window must clamp, not overflow.
            self.outage_until = now.saturating_add(self.handoff.outage);
            self.stats.handoffs += 1;
        }

        let level = (self.mean_level(self.associated, &pos) + self.shadow).max(0.0);
        let q = self.response.quality(level);
        let in_outage = now < self.outage_until;

        let bw = self.response.bw_floor_bps
            + (self.response.bw_full_bps - self.response.bw_floor_bps) * q;
        // Latency inflates as the link degrades (retries at the MAC).
        let lat_scale = 1.0 + (1.0 - q) * 20.0 + if in_outage { 60.0 } else { 0.0 };
        let loss = if in_outage {
            1.0
        } else {
            self.response.loss_at_dead * (1.0 - q).powi(2)
        };

        LinkConditions {
            latency: self.response.base_latency.mul_f64(lat_scale),
            bandwidth_bps: bw as u64,
            loss,
            signal: SignalInfo::from_level(level),
        }
    }

    fn duration(&self) -> SimDuration {
        self.path.duration()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn handoffs(&self) -> u64 {
        self.stats.handoffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::WalkBuilder;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(9)
    }

    #[test]
    fn signal_decays_with_distance() {
        let p = Propagation::default();
        let near = p.level_at(3.0);
        let mid = p.level_at(30.0);
        let far = p.level_at(300.0);
        assert!(near > mid && mid > far, "{near} {mid} {far}");
        assert!(near >= 30.0);
        assert!(far < 10.0);
    }

    #[test]
    fn walking_between_stations_hands_off() {
        // Two stations 120 m apart; walk from one to the other.
        let path = WalkBuilder::start_at(Position::new(0.0, 0.0))
            .walk_to(Position::new(120.0, 0.0), 1.5)
            .build();
        let stations = vec![
            WavePoint::at(Position::new(0.0, 5.0)),
            WavePoint::at(Position::new(120.0, 5.0)),
        ];
        let mut m = PhysicalModel::new("two-cell", path, stations);
        let mut r = rng();
        let dur = m.duration();
        let mut outage_seen = false;
        for i in 0..200 {
            let t = SimTime::from_nanos(dur.as_nanos() * i / 200);
            let c = m.sample(t, &mut r);
            if c.loss >= 1.0 {
                outage_seen = true;
            }
        }
        assert_eq!(m.stats().handoffs, 1, "expected exactly one handoff");
        assert_eq!(m.associated, 1);
        assert!(outage_seen, "handoff outage not observed");
    }

    #[test]
    fn conditions_track_signal_quality() {
        let path = MobilityPath::stationary(Position::new(0.0, 0.0));
        let stations = vec![WavePoint::at(Position::new(0.0, 3.0))];
        let mut near = PhysicalModel::new("near", path, stations);
        let far_path = MobilityPath::stationary(Position::new(200.0, 0.0));
        let far_stations = vec![WavePoint::at(Position::new(0.0, 3.0))];
        let mut far = PhysicalModel::new("far", far_path, far_stations);
        let mut r = rng();
        let cn = near.sample(SimTime::from_secs(1), &mut r);
        let cf = far.sample(SimTime::from_secs(1), &mut r);
        assert!(cn.signal.level > cf.signal.level);
        assert!(cn.bandwidth_bps > cf.bandwidth_bps);
        assert!(cn.loss < cf.loss);
        assert!(cn.latency < cf.latency);
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        // Stand exactly between two equal stations: shadowing wiggles the
        // levels but hysteresis (3 units) must prevent constant handoffs.
        let path = MobilityPath::stationary(Position::new(60.0, 0.0));
        let stations = vec![
            WavePoint::at(Position::new(0.0, 0.0)),
            WavePoint::at(Position::new(120.0, 0.0)),
        ];
        let mut m = PhysicalModel::new("between", path, stations);
        let mut r = rng();
        for i in 0..1000 {
            let _ = m.sample(SimTime::from_millis(100 * i), &mut r);
        }
        assert!(
            m.stats().handoffs < 12,
            "flapping: {} handoffs",
            m.stats().handoffs
        );
    }

    #[test]
    fn physical_model_drives_a_channel() {
        use crate::channel::{WirelessChannel, MOBILE_PORT};
        use netsim::{EventKind, Frame, Node, PortId, Simulator};

        struct Sink(u32);
        impl Node for Sink {
            fn on_event(&mut self, ev: EventKind, _ctx: &mut netsim::Context<'_>) {
                if matches!(ev, EventKind::Deliver { .. }) {
                    self.0 += 1;
                }
            }
        }

        let path = WalkBuilder::start_at(Position::new(0.0, 0.0))
            .walk_to(Position::new(60.0, 0.0), 1.5)
            .build();
        let model = PhysicalModel::new("walk", path, vec![WavePoint::at(Position::new(10.0, 5.0))]);
        let mut sim = Simulator::new(4);
        let a = sim.add_node(Box::new(Sink(0)));
        let b = sim.add_node(Box::new(Sink(0)));
        let ch =
            WirelessChannel::new(Box::new(model)).install(&mut sim, (a, PortId(0)), (b, PortId(0)));
        for i in 0..20u64 {
            sim.schedule_event(
                SimTime::from_secs(i),
                ch,
                EventKind::Deliver {
                    port: MOBILE_PORT,
                    frame: Frame::new(vec![0u8; 200], SimTime::ZERO),
                },
            );
        }
        sim.run_until(SimTime::from_secs(60));
        let delivered = sim.node::<Sink>(b).0;
        assert!(delivered >= 15, "only {delivered}/20 delivered");
    }
}
