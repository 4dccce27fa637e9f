//! Replay traces: the distilled list `S` of network quality tuples
//! ⟨d, F, Vb, Vr, L⟩ (§3.2.1) that drives the modulation layer.

use netsim::SimDuration;

/// One interval of invariant network behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityTuple {
    /// Interval duration `d` in nanoseconds.
    pub duration_ns: u64,
    /// One-way fixed latency `F` in nanoseconds.
    pub latency_ns: u64,
    /// Bottleneck per-byte cost `Vb` (ns per byte).
    pub vb_ns_per_byte: f64,
    /// Residual per-byte cost `Vr` (ns per byte).
    pub vr_ns_per_byte: f64,
    /// One-way loss probability `L` in [0, 1].
    pub loss: f64,
}

impl QualityTuple {
    /// Interval duration as a [`SimDuration`].
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_nanos(self.duration_ns)
    }

    /// Fixed latency as a [`SimDuration`].
    pub fn latency(&self) -> SimDuration {
        SimDuration::from_nanos(self.latency_ns)
    }

    /// Per-byte delay for a packet of `bytes` through the non-bottleneck
    /// part of the path: `s · Vr`.
    pub fn residual_delay(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos((self.vr_ns_per_byte * bytes as f64).round().max(0.0) as u64)
    }

    /// Validity: finite, non-negative costs and a loss probability.
    pub fn is_valid(&self) -> bool {
        self.duration_ns > 0
            && self.vb_ns_per_byte.is_finite()
            && self.vr_ns_per_byte.is_finite()
            && self.vb_ns_per_byte >= 0.0
            && self.vr_ns_per_byte >= 0.0
            && (0.0..=1.0).contains(&self.loss)
    }
}

/// A whole replay trace: tuples played back in order. During modulation
/// the daemon may loop the list until the experiment ends.
///
/// ```
/// use tracekit::ReplayTrace;
/// use netsim::SimDuration;
///
/// let t = ReplayTrace::constant(
///     "wavelan-like", SimDuration::from_secs(30),
///     SimDuration::from_millis(2), 4000.0, 800.0, 0.01,
/// );
/// assert!(t.is_valid());
/// assert_eq!(t.total_duration(), SimDuration::from_secs(30));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayTrace {
    /// Provenance string ("porter trial 2", "synthetic step", ...).
    pub source: String,
    /// The tuples, in playback order.
    pub tuples: Vec<QualityTuple>,
}

impl ReplayTrace {
    /// An empty trace with a provenance label.
    pub fn new(source: &str) -> Self {
        ReplayTrace {
            source: source.to_string(),
            tuples: Vec::new(),
        }
    }

    /// A single-tuple constant-conditions trace spanning `span`.
    pub fn constant(
        source: &str,
        span: SimDuration,
        latency: SimDuration,
        vb_ns_per_byte: f64,
        vr_ns_per_byte: f64,
        loss: f64,
    ) -> Self {
        ReplayTrace {
            source: source.to_string(),
            tuples: vec![QualityTuple {
                duration_ns: span.as_nanos(),
                latency_ns: latency.as_nanos(),
                vb_ns_per_byte,
                vr_ns_per_byte,
                loss,
            }],
        }
    }

    /// Total duration of one pass through the trace.
    pub fn total_duration(&self) -> SimDuration {
        SimDuration::from_nanos(self.tuples.iter().map(|t| t.duration_ns).sum())
    }

    /// All tuples valid?
    pub fn is_valid(&self) -> bool {
        !self.tuples.is_empty() && self.tuples.iter().all(QualityTuple::is_valid)
    }

    /// Long-term (duration-weighted) average bottleneck per-byte cost —
    /// the quantity delay compensation subtracts (§3.3, Figure 1).
    pub fn mean_vb(&self) -> f64 {
        let total: u64 = self.tuples.iter().map(|t| t.duration_ns).sum();
        if total == 0 {
            return 0.0;
        }
        self.tuples
            .iter()
            .map(|t| t.vb_ns_per_byte * t.duration_ns as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Duration-weighted average one-way latency.
    pub fn mean_latency(&self) -> SimDuration {
        let total: u64 = self.tuples.iter().map(|t| t.duration_ns).sum();
        if total == 0 {
            return SimDuration::ZERO;
        }
        let sum: f64 = self
            .tuples
            .iter()
            .map(|t| t.latency_ns as f64 * t.duration_ns as f64)
            .sum();
        SimDuration::from_nanos((sum / total as f64).round() as u64)
    }

    /// Duration-weighted average loss rate.
    pub fn mean_loss(&self) -> f64 {
        let total: u64 = self.tuples.iter().map(|t| t.duration_ns).sum();
        if total == 0 {
            return 0.0;
        }
        self.tuples
            .iter()
            .map(|t| t.loss * t.duration_ns as f64)
            .sum::<f64>()
            / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> ReplayTrace {
        ReplayTrace {
            source: "t".into(),
            tuples: vec![
                QualityTuple {
                    duration_ns: 1_000,
                    latency_ns: 10,
                    vb_ns_per_byte: 4.0,
                    vr_ns_per_byte: 1.0,
                    loss: 0.0,
                },
                QualityTuple {
                    duration_ns: 3_000,
                    latency_ns: 30,
                    vb_ns_per_byte: 8.0,
                    vr_ns_per_byte: 2.0,
                    loss: 0.5,
                },
            ],
        }
    }

    #[test]
    fn weighted_means() {
        let t = trace();
        // mean Vb = (4*1000 + 8*3000) / 4000 = 7.0
        assert!((t.mean_vb() - 7.0).abs() < 1e-12);
        // mean latency = (10*1000 + 30*3000)/4000 = 25
        assert_eq!(t.mean_latency().as_nanos(), 25);
        // mean loss = (0*1000 + 0.5*3000)/4000 = 0.375
        assert!((t.mean_loss() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn tuple_helpers() {
        let q = QualityTuple {
            duration_ns: 1,
            latency_ns: 5_000_000,
            vb_ns_per_byte: 4000.0, // 2 Mb/s
            vr_ns_per_byte: 800.0,
            loss: 0.1,
        };
        assert_eq!(q.residual_delay(1000), SimDuration::from_micros(800));
        assert!(q.is_valid());
    }

    #[test]
    fn validity_checks() {
        let mut q = QualityTuple {
            duration_ns: 1,
            latency_ns: 0,
            vb_ns_per_byte: 0.0,
            vr_ns_per_byte: 0.0,
            loss: 0.0,
        };
        assert!(q.is_valid());
        q.loss = 1.5;
        assert!(!q.is_valid());
        q.loss = 0.5;
        q.vb_ns_per_byte = -1.0;
        assert!(!q.is_valid());
        q.vb_ns_per_byte = f64::NAN;
        assert!(!q.is_valid());
        assert!(!ReplayTrace::new("empty").is_valid());
    }

    #[test]
    fn constant_constructor() {
        let t = ReplayTrace::constant(
            "c",
            SimDuration::from_secs(60),
            SimDuration::from_millis(2),
            4000.0,
            800.0,
            0.02,
        );
        assert_eq!(t.tuples.len(), 1);
        assert_eq!(t.total_duration(), SimDuration::from_secs(60));
        assert!(t.is_valid());
        assert_eq!(t.tuples[0].latency_ns, 2_000_000);
    }

    #[test]
    fn empty_trace_means() {
        let t = ReplayTrace::new("e");
        assert_eq!(t.total_duration(), SimDuration::ZERO);
        assert_eq!(t.mean_vb(), 0.0);
        assert_eq!(t.mean_latency(), SimDuration::ZERO);
    }
}
