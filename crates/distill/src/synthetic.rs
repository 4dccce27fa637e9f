//! Synthetic replay traces (§6): hand-built quality-tuple sequences for
//! exploring system behaviour under controlled variations — constant
//! conditions, step changes, and impulses — plus the WaveLAN-like and
//! slow-network traces used by the delay-compensation experiment
//! (Figure 1).

use netsim::SimDuration;
use tracekit::{QualityTuple, ReplayTrace};

/// Parameters of a constant-network segment.
#[derive(Debug, Clone, Copy)]
pub struct NetworkParams {
    /// One-way fixed latency.
    pub latency: SimDuration,
    /// Bottleneck per-byte cost in ns/byte (4000 ns/B ≈ 2 Mb/s).
    pub vb_ns_per_byte: f64,
    /// Residual per-byte cost in ns/byte.
    pub vr_ns_per_byte: f64,
    /// One-way loss probability.
    pub loss: f64,
}

impl NetworkParams {
    /// Roughly a healthy WaveLAN: 2 ms, ~2 Mb/s bottleneck, light
    /// residual costs, 1% loss.
    pub fn wavelan_like() -> Self {
        NetworkParams {
            latency: SimDuration::from_millis(2),
            vb_ns_per_byte: 4000.0,
            vr_ns_per_byte: 800.0,
            loss: 0.01,
        }
    }

    /// A much slower network (≈ 250 kb/s, 50 ms) — used to show that
    /// delay compensation is independent of the traced network (§3.3).
    pub fn slow_network() -> Self {
        NetworkParams {
            latency: SimDuration::from_millis(50),
            vb_ns_per_byte: 32_000.0,
            vr_ns_per_byte: 1_000.0,
            loss: 0.02,
        }
    }

    fn tuple(&self, d: SimDuration) -> QualityTuple {
        QualityTuple {
            duration_ns: d.as_nanos(),
            latency_ns: self.latency.as_nanos(),
            vb_ns_per_byte: self.vb_ns_per_byte,
            vr_ns_per_byte: self.vr_ns_per_byte,
            loss: self.loss,
        }
    }
}

/// A constant-conditions trace.
pub fn constant(name: &str, params: NetworkParams, span: SimDuration) -> ReplayTrace {
    ReplayTrace {
        source: name.to_string(),
        tuples: vec![params.tuple(span)],
    }
}

/// A step change: `before` for `at`, then `after` for the remainder of
/// `span`.
pub fn step(
    name: &str,
    before: NetworkParams,
    after: NetworkParams,
    at: SimDuration,
    span: SimDuration,
) -> ReplayTrace {
    assert!(at < span, "step must occur within the span");
    ReplayTrace {
        source: name.to_string(),
        tuples: vec![before.tuple(at), after.tuple(span - at)],
    }
}

/// An impulse: `base` conditions with a `spike` of the given `width`
/// starting at `at`.
pub fn impulse(
    name: &str,
    base: NetworkParams,
    spike: NetworkParams,
    at: SimDuration,
    width: SimDuration,
    span: SimDuration,
) -> ReplayTrace {
    assert!(at + width < span, "impulse must fit within the span");
    ReplayTrace {
        source: name.to_string(),
        tuples: vec![
            base.tuple(at),
            spike.tuple(width),
            base.tuple(span - at - width),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_single_tuple() {
        let t = constant(
            "c",
            NetworkParams::wavelan_like(),
            SimDuration::from_secs(60),
        );
        assert_eq!(t.tuples.len(), 1);
        assert!(t.is_valid());
        assert_eq!(t.total_duration(), SimDuration::from_secs(60));
    }

    #[test]
    fn step_switches_parameters() {
        let t = step(
            "s",
            NetworkParams::wavelan_like(),
            NetworkParams::slow_network(),
            SimDuration::from_secs(30),
            SimDuration::from_secs(60),
        );
        assert_eq!(t.tuples.len(), 2);
        assert_eq!(t.tuples[0].duration(), SimDuration::from_secs(30));
        let (before, after) = (t.tuples[0], t.tuples[1]);
        assert!(after.vb_ns_per_byte > before.vb_ns_per_byte);
        assert!(after.latency_ns > before.latency_ns);
    }

    #[test]
    fn impulse_recovers() {
        let t = impulse(
            "i",
            NetworkParams::wavelan_like(),
            NetworkParams::slow_network(),
            SimDuration::from_secs(20),
            SimDuration::from_secs(5),
            SimDuration::from_secs(60),
        );
        assert_eq!(t.tuples.len(), 3);
        assert_eq!(t.tuples[0].duration(), SimDuration::from_secs(20));
        assert_eq!(t.tuples[1].duration(), SimDuration::from_secs(5));
        let [base, spike, back] = [0, 1, 2].map(|i| t.tuples[i].latency_ns);
        assert!(spike > base);
        assert_eq!(base, back);
    }

    #[test]
    #[should_panic(expected = "within the span")]
    fn step_outside_span_panics() {
        step(
            "bad",
            NetworkParams::wavelan_like(),
            NetworkParams::slow_network(),
            SimDuration::from_secs(60),
            SimDuration::from_secs(60),
        );
    }

    #[test]
    fn wavelan_params_equal_two_megabits() {
        let p = NetworkParams::wavelan_like();
        let bw = 8e9 / p.vb_ns_per_byte;
        assert!((bw - 2_000_000.0).abs() < 1.0);
    }
}
