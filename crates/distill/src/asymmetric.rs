//! One-way (asymmetric) distillation — the paper's future-work extension
//! (§5.3, §6): "fine-grained, low-drift, synchronized clocks … would
//! enable us to eliminate our assumption of network symmetry and hence
//! allow us to use one-way rather than round-trip measurements."
//!
//! Our simulated hosts share the global simulation clock, i.e. perfectly
//! synchronized clocks. Collecting a second trace *at the echo target*
//! lets us pair each probe's send and arrival records and measure every
//! leg one way:
//!
//! * uplink delay of probe k: `arrival_at_target − send_at_mobile`;
//! * downlink delay of reply k: `arrival_at_mobile − send_at_target`;
//! * per-direction loss directly from which probes/replies arrived.
//!
//! The one-way model per direction is `t = F + s·V`, with the uplink
//! bottleneck separable exactly as in the round-trip case (the two
//! back-to-back large probes queue at the uplink bottleneck:
//! `t3 − t2 = s2·Vb`). On the downlink the replies are already spaced by
//! the uplink bottleneck, so — as the paper itself observes — they do
//! not queue, and `Vb_down` is not directly observable from this
//! workload. We attribute the downlink's residual (wired-segment) cost
//! symmetric to the uplink's and assign the remainder to the downlink
//! bottleneck: `Vb_down = max(V_down − Vr_up, 0)`, `Vr_down = V_down −
//! Vb_down`.

use crate::loss::{LossCount, ProbeOutcome};
use crate::pipeline::quality_tuple;
use crate::window::{slide, DelayMean, TimedEstimate};
use crate::DistillConfig;
use solver_one_way::solve_one_way;
use std::collections::BTreeMap;
use tracekit::{Dir, ProtoInfo, ReplayTrace, Trace};

mod solver_one_way {
    use crate::solver::DelayEstimate;

    /// One-way triplet observation: sizes in bytes, one-way times in
    /// seconds, with `queued` telling whether the third probe queued at
    /// this direction's bottleneck (true for uplink).
    #[derive(Debug, Clone, Copy)]
    pub struct OneWayObservation {
        /// Wire size of the small probe.
        pub s1: f64,
        /// Wire size of each large probe.
        pub s2: f64,
        /// One-way time of the small probe.
        pub t1: f64,
        /// One-way time of the first large probe.
        pub t2: f64,
        /// One-way time of the second (possibly queued) large probe.
        pub t3: f64,
        /// Whether the third probe queued at this direction's bottleneck.
        pub queued: bool,
    }

    /// Solve the one-way equations:
    /// `t1 = F + s1·V`, `t2 = F + s2·V`, and (queued) `t3 = t2 + s2·Vb`.
    /// For the non-queued direction, `vr_hint` (the other direction's
    /// residual cost) splits V into Vb + Vr.
    pub fn solve_one_way(obs: &OneWayObservation, vr_hint: f64) -> Option<DelayEstimate> {
        if obs.s2 <= obs.s1 || obs.s1 <= 0.0 {
            return None;
        }
        let v = (obs.t2 - obs.t1) / (obs.s2 - obs.s1);
        let f = obs.t1 - obs.s1 * v;
        let (vb, vr) = if obs.queued {
            let vb = (obs.t3 - obs.t2) / obs.s2;
            (vb, v - vb)
        } else {
            let vb = (v - vr_hint).max(0.0);
            (vb, v - vb)
        };
        let est = DelayEstimate { f, vb, vr };
        est.is_physical().then_some(est)
    }
}

pub use solver_one_way::OneWayObservation;

/// The two per-direction replay traces plus bookkeeping.
#[derive(Debug)]
pub struct AsymmetricReport {
    /// Mobile→fixed (uplink / "send") conditions.
    pub up: ReplayTrace,
    /// Fixed→mobile (downlink / "recv") conditions.
    pub down: ReplayTrace,
    /// Complete one-way triplets per direction (up, down).
    pub triplets: (usize, usize),
}

#[derive(Debug, Default, Clone, Copy)]
struct Leg {
    sent_ns: Option<u64>,
    arrived_ns: Option<u64>,
    wire: Option<u32>,
}

#[derive(Debug, Default, Clone, Copy)]
struct GroupSlot {
    up: [Leg; 3],
    down: [Leg; 3],
}

fn ingest(trace: &Trace, at_mobile: bool, groups: &mut BTreeMap<u16, GroupSlot>) {
    for p in trace.packets() {
        let (seq, is_echo, gen) = match p.proto {
            ProtoInfo::IcmpEcho { seq, gen_ts_ns, .. } => (seq, true, gen_ts_ns),
            ProtoInfo::IcmpEchoReply { seq, .. } => (seq, false, 0),
            _ => continue,
        };
        let slot = groups.entry(seq / 3).or_default();
        let k = (seq % 3) as usize;
        match (is_echo, p.dir, at_mobile) {
            // Probe leaves the mobile: uplink send. Use the *generation*
            // timestamp carried in the payload (the paper records it for
            // exactly this purpose): the back-to-back probes are
            // generated simultaneously, so queueing at the uplink
            // bottleneck — not host send pacing — separates their
            // one-way times.
            (true, Dir::Out, true) => {
                slot.up[k].sent_ns = Some(if gen > 0 { gen } else { p.timestamp_ns });
                slot.up[k].wire = Some(p.wire_len);
            }
            // Probe arrives at the target: uplink arrival.
            (true, Dir::In, false) => slot.up[k].arrived_ns = Some(p.timestamp_ns),
            // Reply leaves the target: downlink send.
            (false, Dir::Out, false) => {
                slot.down[k].sent_ns = Some(p.timestamp_ns);
                slot.down[k].wire = Some(p.wire_len);
            }
            // Reply arrives at the mobile: downlink arrival.
            (false, Dir::In, true) => slot.down[k].arrived_ns = Some(p.timestamp_ns),
            _ => {}
        }
    }
}

fn leg_estimates(
    groups: &BTreeMap<u16, GroupSlot>,
    t0: u64,
    uplink: bool,
    vr_hint: f64,
) -> (Vec<TimedEstimate>, Vec<ProbeOutcome>, usize) {
    let mut estimates = Vec::new();
    let mut outcomes = Vec::new();
    let mut triplets = 0;
    for slot in groups.values() {
        let legs = if uplink { &slot.up } else { &slot.down };
        for leg in legs {
            if let Some(sent) = leg.sent_ns {
                outcomes.push(ProbeOutcome {
                    at: sent.saturating_sub(t0) as f64 / 1e9,
                    replied: leg.arrived_ns.is_some(),
                });
            }
        }
        let ow = |k: usize| -> Option<f64> {
            Some((legs[k].arrived_ns?.saturating_sub(legs[k].sent_ns?)) as f64 / 1e9)
        };
        let (Some(t1), Some(t2), Some(t3)) = (ow(0), ow(1), ow(2)) else {
            continue;
        };
        let (Some(w0), Some(w1), Some(sent0)) = (legs[0].wire, legs[1].wire, legs[0].sent_ns)
        else {
            continue;
        };
        triplets += 1;
        let obs = OneWayObservation {
            s1: w0 as f64,
            s2: w1 as f64,
            t1,
            t2,
            t3,
            queued: uplink,
        };
        if let Some(est) = solve_one_way(&obs, vr_hint) {
            estimates.push(TimedEstimate {
                at: sent0.saturating_sub(t0) as f64 / 1e9,
                est,
            });
        }
    }
    outcomes.sort_by(|a, b| a.at.total_cmp(&b.at));
    (estimates, outcomes, triplets)
}

fn to_replay(
    source: String,
    estimates: &[TimedEstimate],
    outcomes: &[ProbeOutcome],
    span: f64,
    cfg: &DistillConfig,
) -> ReplayTrace {
    let delays = slide(DelayMean::default(), estimates, span, &cfg.window);
    let losses = slide(LossCount::one_way(), outcomes, span, &cfg.window);
    let mut replay = ReplayTrace::new(&source);
    for (i, d) in delays.iter().enumerate() {
        let loss = losses.get(i).map_or(0.0, |l| l.value);
        replay.tuples.push(quality_tuple(d, loss));
    }
    replay
}

/// Distill per-direction replay traces from the two endpoint traces
/// (mobile-side and target-side), exploiting synchronized clocks.
pub fn distill_asymmetric(mobile: &Trace, target: &Trace, cfg: &DistillConfig) -> AsymmetricReport {
    let t0 = mobile
        .records
        .first()
        .map(|r| r.timestamp_ns())
        .unwrap_or(0);
    let span = mobile.span_ns() as f64 / 1e9;

    let mut groups = BTreeMap::new();
    ingest(mobile, true, &mut groups);
    ingest(target, false, &mut groups);

    // Uplink first (its Vb is directly observable); its mean residual
    // cost then seeds the downlink's Vb/Vr split.
    let (up_est, up_out, up_trip) = leg_estimates(&groups, t0, true, 0.0);
    let mean_vr_up = if up_est.is_empty() {
        0.0
    } else {
        up_est.iter().map(|e| e.est.vr).sum::<f64>() / up_est.len() as f64
    };
    let (down_est, down_out, down_trip) = leg_estimates(&groups, t0, false, mean_vr_up);

    AsymmetricReport {
        up: to_replay(
            format!("{} trial {} (uplink)", mobile.scenario, mobile.trial),
            &up_est,
            &up_out,
            span,
            cfg,
        ),
        down: to_replay(
            format!("{} trial {} (downlink)", mobile.scenario, mobile.trial),
            &down_est,
            &down_out,
            span,
            cfg,
        ),
        triplets: (up_trip, down_trip),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracekit::{PacketRecord, TraceRecord};

    /// Build mobile+target traces for an asymmetric constant channel:
    /// uplink (F_u, V_u, loss handled by caller), downlink (F_d, V_d).
    #[allow(clippy::too_many_arguments)]
    fn synth_pair(
        secs: u64,
        f_up: f64,
        v_up: f64,
        vb_up: f64,
        f_down: f64,
        v_down: f64,
        drop_up: impl Fn(u16) -> bool,
        drop_down: impl Fn(u16) -> bool,
    ) -> (Trace, Trace) {
        let mut mobile = Trace::new("mobile", "synth", 1);
        let mut target = Trace::new("target", "synth", 1);
        let (s1, s2) = (106u32, 542u32);
        for g in 0..secs {
            let base = g * 1_000_000_000;
            for k in 0..3u16 {
                let seq = (g as u16) * 3 + k;
                let wire = if k == 0 { s1 } else { s2 };
                let s = wire as f64;
                let send = base + k as u64 * 1000;
                mobile.records.push(TraceRecord::Packet(PacketRecord {
                    timestamp_ns: send,
                    dir: Dir::Out,
                    wire_len: wire,
                    proto: ProtoInfo::IcmpEcho {
                        ident: 1,
                        seq,
                        payload_len: wire - 42,
                        gen_ts_ns: send,
                    },
                }));
                if drop_up(seq) {
                    continue;
                }
                // Uplink one-way time; third probe queues s2·Vb_up extra.
                let extra = if k == 2 { s * vb_up } else { 0.0 };
                let up_ns = ((f_up + s * v_up + extra) * 1e9) as u64;
                let arrive = send + up_ns;
                target.records.push(TraceRecord::Packet(PacketRecord {
                    timestamp_ns: arrive,
                    dir: Dir::In,
                    wire_len: wire,
                    proto: ProtoInfo::IcmpEcho {
                        ident: 1,
                        seq,
                        payload_len: wire - 42,
                        gen_ts_ns: send,
                    },
                }));
                // Reply leaves immediately.
                target.records.push(TraceRecord::Packet(PacketRecord {
                    timestamp_ns: arrive,
                    dir: Dir::Out,
                    wire_len: wire,
                    proto: ProtoInfo::IcmpEchoReply {
                        ident: 1,
                        seq,
                        payload_len: wire - 42,
                        rtt_ns: 0,
                    },
                }));
                if drop_down(seq) {
                    continue;
                }
                let down_ns = ((f_down + s * v_down) * 1e9) as u64;
                mobile.records.push(TraceRecord::Packet(PacketRecord {
                    timestamp_ns: arrive + down_ns,
                    dir: Dir::In,
                    wire_len: wire,
                    proto: ProtoInfo::IcmpEchoReply {
                        ident: 1,
                        seq,
                        payload_len: wire - 42,
                        rtt_ns: up_ns + down_ns,
                    },
                }));
            }
        }
        mobile.records.sort_by_key(|r| r.timestamp_ns());
        target.records.sort_by_key(|r| r.timestamp_ns());
        (mobile, target)
    }

    #[test]
    fn recovers_asymmetric_ground_truth() {
        // Uplink: F 3 ms, V 6 µs/B (Vb 5, Vr 1). Downlink: F 1 ms,
        // V 3 µs/B.
        let (m, t) = synth_pair(40, 3e-3, 6e-6, 5e-6, 1e-3, 3e-6, |_| false, |_| false);
        let rep = distill_asymmetric(&m, &t, &DistillConfig::default());
        assert_eq!(rep.triplets, (40, 40));
        let up_lat = rep.up.mean_latency().as_millis_f64();
        let down_lat = rep.down.mean_latency().as_millis_f64();
        assert!((up_lat - 3.0).abs() < 0.1, "up F {up_lat}");
        assert!((down_lat - 1.0).abs() < 0.1, "down F {down_lat}");
        assert!(
            (rep.up.mean_vb() - 5000.0).abs() < 50.0,
            "{}",
            rep.up.mean_vb()
        );
        // Downlink Vb = V_down − Vr_up = 3 − 1 = 2 µs/B.
        assert!(
            (rep.down.mean_vb() - 2000.0).abs() < 50.0,
            "{}",
            rep.down.mean_vb()
        );
        assert_eq!(rep.up.mean_loss(), 0.0);
        assert_eq!(rep.down.mean_loss(), 0.0);
    }

    #[test]
    fn per_direction_loss_measured_directly() {
        // Drop 1 of 3 probes on the uplink only: L_up = 1/3 exactly (no
        // square root needed — this is the whole point of two-sided
        // collection).
        let (m, t) = synth_pair(
            60,
            2e-3,
            5e-6,
            4e-6,
            2e-3,
            5e-6,
            |seq| seq % 3 == 1,
            |_| false,
        );
        let rep = distill_asymmetric(&m, &t, &DistillConfig::default());
        assert!(
            (rep.up.mean_loss() - 1.0 / 3.0).abs() < 0.05,
            "{}",
            rep.up.mean_loss()
        );
        assert!(rep.down.mean_loss() < 0.01, "{}", rep.down.mean_loss());
    }

    #[test]
    fn downlink_loss_does_not_contaminate_uplink() {
        let (m, t) = synth_pair(
            60,
            2e-3,
            5e-6,
            4e-6,
            2e-3,
            5e-6,
            |_| false,
            |seq| seq % 2 == 0,
        );
        let rep = distill_asymmetric(&m, &t, &DistillConfig::default());
        assert!(rep.up.mean_loss() < 0.01, "{}", rep.up.mean_loss());
        assert!(
            (rep.down.mean_loss() - 0.5).abs() < 0.07,
            "{}",
            rep.down.mean_loss()
        );
    }

    #[test]
    fn empty_traces_yield_empty_replays() {
        let m = Trace::new("m", "s", 1);
        let t = Trace::new("t", "s", 1);
        let rep = distill_asymmetric(&m, &t, &DistillConfig::default());
        assert!(rep.up.tuples.is_empty());
        assert!(rep.down.tuples.is_empty());
        assert_eq!(rep.triplets, (0, 0));
    }
}
