//! Emulation-fidelity self-checks.
//!
//! The paper validates modulation by comparing benchmark results on the
//! real and emulated networks (§5). This module distills that
//! methodology into an always-on per-run health signal measured inside
//! the modulation layer itself:
//!
//! * **delay error** — per released packet, the actual (virtual-time)
//!   release minus the model's intended due time, i.e. the combined
//!   quantization and scheduling error of the emulation (the paper's
//!   §5.4 under-delay artifact made measurable);
//! * **deadline misses** — packets released after their quantized due
//!   time (the kernel timer fired late);
//! * **drift-compensation corrections** — monotone-release clamps,
//!   where a shrinking tuple delay would have reordered a direction;
//! * **loss delta** — observed drop rate minus the replay trace's
//!   expected loss probability over the same packets.

use crate::metrics::{Hist, HistSnapshot};
use netsim::stats::Summary;
use serde::{Deserialize, Serialize};

/// Histogram range for signed delay error, in milliseconds. ±25 ms
/// comfortably brackets the ±half-tick quantization of a 10 ms clock.
const DELAY_ERR_RANGE_MS: f64 = 25.0;
const DELAY_ERR_BINS: usize = 50;

/// Accumulates fidelity evidence inside the modulation layer.
///
/// All inputs are derived from virtual time and per-cell RNG streams,
/// so the resulting [`FidelityReport`] is bitwise deterministic.
#[derive(Debug, Clone)]
pub struct FidelityCollector {
    delay_error_ms: Hist,
    abs_error_ms: Summary,
    abs_error_total_ns: u64,
    deadline_misses: u64,
    drift_clamps: u64,
    compensated: u64,
    expected_loss_sum: f64,
    modulated: u64,
    dropped: u64,
    unmodulated: u64,
    released: u64,
    starvation_holds: u64,
    starvation_saturated: bool,
}

impl Default for FidelityCollector {
    fn default() -> Self {
        FidelityCollector::new()
    }
}

impl FidelityCollector {
    /// An empty collector.
    pub fn new() -> Self {
        FidelityCollector {
            delay_error_ms: Hist::new(-DELAY_ERR_RANGE_MS, DELAY_ERR_RANGE_MS, DELAY_ERR_BINS),
            abs_error_ms: Summary::keeping_samples(),
            abs_error_total_ns: 0,
            deadline_misses: 0,
            drift_clamps: 0,
            compensated: 0,
            expected_loss_sum: 0.0,
            modulated: 0,
            dropped: 0,
            unmodulated: 0,
            released: 0,
            starvation_holds: 0,
            starvation_saturated: false,
        }
    }

    /// A packet passed through with no tuple available.
    pub fn on_unmodulated(&mut self) {
        self.unmodulated += 1;
    }

    /// A packet entered the modulation process under a tuple whose loss
    /// probability is `expected_loss`.
    pub fn on_modulated(&mut self, expected_loss: f64) {
        self.modulated += 1;
        self.expected_loss_sum += expected_loss;
    }

    /// The loss process dropped the packet.
    pub fn on_drop(&mut self) {
        self.dropped += 1;
    }

    /// A release was clamped to keep per-direction order monotone.
    pub fn on_drift_clamp(&mut self) {
        self.drift_clamps += 1;
    }

    /// Inbound delay compensation reduced this packet's `Vb`.
    pub fn on_compensated(&mut self) {
        self.compensated += 1;
    }

    /// The live tuple feed starved: the modulator held its last tuple
    /// past its duration and backed off. One call per backoff window.
    /// Transient holds are inherent to streaming distillation (the
    /// tuple stream trails collection by the reorder horizon), so holds
    /// alone do not mark the run degraded — see
    /// [`on_starvation_saturated`](Self::on_starvation_saturated).
    pub fn on_starvation_hold(&mut self) {
        self.starvation_holds += 1;
    }

    /// Feed starvation persisted long enough for the hold backoff to
    /// saturate at its cap: the modulator replayed stale network
    /// quality for a sustained stretch. Marks the run `degraded`.
    pub fn on_starvation_saturated(&mut self) {
        self.starvation_saturated = true;
    }

    /// A modulated packet was released (immediately or from the hold
    /// queue). `error_ms` is actual release time minus the model's
    /// intended due time, in milliseconds (negative = under-delay);
    /// `missed_deadline` marks a release after its quantized due time.
    pub fn on_release(&mut self, error_ms: f64, missed_deadline: bool) {
        self.released += 1;
        self.delay_error_ms.observe(error_ms);
        self.abs_error_ms.add(error_ms.abs());
        // `as` saturates on overflow/NaN; saturating_add keeps the
        // accumulator well-defined under pathological error magnitudes.
        self.abs_error_total_ns = self
            .abs_error_total_ns
            .saturating_add((error_ms.abs() * 1e6) as u64);
        if missed_deadline {
            self.deadline_misses += 1;
        }
    }

    /// Packets that entered the modulation process so far.
    pub fn modulated(&self) -> u64 {
        self.modulated
    }

    /// Telemetry readout: `(released_packets, Σ|delay error| in
    /// integer ns)`. Integer so shard telemetry sums merge exactly;
    /// cheap (two loads) so the fleet sampler can poll it every
    /// boundary without touching percentile math.
    pub fn error_accum(&self) -> (u64, u64) {
        (self.released, self.abs_error_total_ns)
    }

    /// `true` once sustained feed starvation has marked the run
    /// degraded (cheap flag read; the full report recomputation is
    /// not needed on the telemetry sampling path).
    pub fn is_degraded(&self) -> bool {
        self.starvation_saturated
    }

    /// Snapshot the evidence into a report.
    pub fn report(&self) -> FidelityReport {
        let released = self.released.max(1) as f64;
        let offered = (self.modulated + self.unmodulated).max(1) as f64;
        let expected_loss_rate = if self.modulated == 0 {
            0.0
        } else {
            self.expected_loss_sum / self.modulated as f64
        };
        let observed_loss_rate = if self.modulated == 0 {
            0.0
        } else {
            self.dropped as f64 / self.modulated as f64
        };
        let [abs_p50, abs_p95, abs_p99] = self
            .abs_error_ms
            .percentiles([50.0, 95.0, 99.0])
            .unwrap_or_default();
        FidelityReport {
            modulated_packets: self.modulated,
            unmodulated_packets: self.unmodulated,
            dropped_packets: self.dropped,
            released_packets: self.released,
            delay_error_ms: self.delay_error_ms.snapshot(),
            abs_delay_error_p50_ms: abs_p50,
            abs_delay_error_p95_ms: abs_p95,
            abs_delay_error_p99_ms: abs_p99,
            deadline_misses: self.deadline_misses,
            deadline_miss_rate: self.deadline_misses as f64 / released,
            drift_clamps: self.drift_clamps,
            compensated_packets: self.compensated,
            expected_loss_rate,
            observed_loss_rate,
            loss_delta: observed_loss_rate - expected_loss_rate,
            unmodulated_fraction: self.unmodulated as f64 / offered,
            starvation_holds: self.starvation_holds,
            degraded: self.starvation_saturated,
        }
    }
}

/// The fidelity self-check section of a run manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FidelityReport {
    /// Packets that entered the modulation process (had a tuple).
    pub modulated_packets: u64,
    /// Packets passed through before any tuple was available.
    pub unmodulated_packets: u64,
    /// Packets dropped by the loss process.
    pub dropped_packets: u64,
    /// Modulated packets released (immediately or after a hold).
    pub released_packets: u64,
    /// Signed intended-vs-actual delay error per released packet (ms;
    /// negative = released early / under-delayed).
    pub delay_error_ms: HistSnapshot,
    /// Median of |delay error| (ms).
    pub abs_delay_error_p50_ms: f64,
    /// 95th percentile of |delay error| (ms).
    pub abs_delay_error_p95_ms: f64,
    /// 99th percentile of |delay error| (ms).
    pub abs_delay_error_p99_ms: f64,
    /// Releases later than their quantized due time.
    pub deadline_misses: u64,
    /// `deadline_misses / released_packets`.
    pub deadline_miss_rate: f64,
    /// Monotone-release clamps (drift-compensation corrections).
    pub drift_clamps: u64,
    /// Inbound packets whose `Vb` was reduced by delay compensation.
    pub compensated_packets: u64,
    /// Mean tuple loss probability over modulated packets.
    pub expected_loss_rate: f64,
    /// Observed drop rate over modulated packets.
    pub observed_loss_rate: f64,
    /// `observed_loss_rate − expected_loss_rate`.
    pub loss_delta: f64,
    /// Fraction of offered packets that went unmodulated.
    pub unmodulated_fraction: f64,
    /// Feed-starvation backoff windows: times the modulator held its
    /// last tuple past its duration because the live feed had nothing.
    #[serde(default)]
    pub starvation_holds: u64,
    /// The run degraded gracefully instead of failing: stale network
    /// quality was replayed during *sustained* feed starvation (the
    /// hold backoff saturated at its cap). Transient starvation only
    /// bumps `starvation_holds`.
    #[serde(default)]
    pub degraded: bool,
}

impl FidelityReport {
    /// A report with no evidence (all zero).
    pub fn empty() -> Self {
        FidelityCollector::new().report()
    }

    /// Check against thresholds; returns human-readable violations
    /// (empty = pass).
    pub fn check(&self, th: &FidelityThresholds) -> Vec<String> {
        let mut out = Vec::new();
        if self.abs_delay_error_p95_ms > th.max_abs_delay_error_p95_ms {
            out.push(format!(
                "delay-error p95 {:.2} ms exceeds {:.2} ms",
                self.abs_delay_error_p95_ms, th.max_abs_delay_error_p95_ms
            ));
        }
        if self.deadline_miss_rate > th.max_deadline_miss_rate {
            out.push(format!(
                "deadline-miss rate {:.4} exceeds {:.4}",
                self.deadline_miss_rate, th.max_deadline_miss_rate
            ));
        }
        if self.modulated_packets >= th.min_loss_samples
            && self.loss_delta.abs() > th.max_abs_loss_delta
        {
            out.push(format!(
                "loss delta {:+.4} exceeds ±{:.4} (expected {:.4}, observed {:.4})",
                self.loss_delta,
                th.max_abs_loss_delta,
                self.expected_loss_rate,
                self.observed_loss_rate
            ));
        }
        if self.unmodulated_fraction > th.max_unmodulated_fraction {
            out.push(format!(
                "unmodulated fraction {:.3} exceeds {:.3}",
                self.unmodulated_fraction, th.max_unmodulated_fraction
            ));
        }
        out
    }
}

/// Regression thresholds for [`FidelityReport::check`] (the CI gate).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FidelityThresholds {
    /// Maximum allowed p95 of |delay error| in ms. The default (8 ms)
    /// brackets the ±half-tick rounding of the 10 ms NetBSD clock plus
    /// scheduling slack.
    pub max_abs_delay_error_p95_ms: f64,
    /// Maximum allowed deadline-miss rate.
    pub max_deadline_miss_rate: f64,
    /// Maximum allowed |loss delta|.
    pub max_abs_loss_delta: f64,
    /// Loss delta is only gated once this many packets were modulated
    /// (below that, binomial noise dominates).
    pub min_loss_samples: u64,
    /// Maximum allowed unmodulated fraction.
    pub max_unmodulated_fraction: f64,
}

impl Default for FidelityThresholds {
    fn default() -> Self {
        FidelityThresholds {
            max_abs_delay_error_p95_ms: 8.0,
            max_deadline_miss_rate: 0.05,
            max_abs_loss_delta: 0.05,
            min_loss_samples: 200,
            max_unmodulated_fraction: 0.9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_passes_default_thresholds() {
        let mut c = FidelityCollector::new();
        for i in 0..500 {
            c.on_modulated(0.02);
            // Quantization error within ±5 ms.
            c.on_release((i % 10) as f64 - 4.5, false);
        }
        for _ in 0..10 {
            c.on_modulated(0.02);
            c.on_drop();
        }
        let r = c.report();
        assert_eq!(r.modulated_packets, 510);
        assert!(r.abs_delay_error_p95_ms <= 5.0);
        assert!((r.observed_loss_rate - 10.0 / 510.0).abs() < 1e-12);
        assert!(r.check(&FidelityThresholds::default()).is_empty());
    }

    #[test]
    fn violations_are_reported() {
        let mut c = FidelityCollector::new();
        for _ in 0..300 {
            c.on_modulated(0.01);
            c.on_release(20.0, true); // way past the tick
        }
        for _ in 0..60 {
            c.on_modulated(0.01);
            c.on_drop();
        }
        let r = c.report();
        let v = r.check(&FidelityThresholds::default());
        assert_eq!(v.len(), 3, "{v:?}"); // delay, deadline, loss
        assert!(v[0].contains("delay-error"));
    }

    #[test]
    fn loss_gate_needs_samples() {
        let mut c = FidelityCollector::new();
        for _ in 0..10 {
            c.on_modulated(0.0);
            c.on_drop();
        }
        // Observed 100% loss vs expected 0%, but only 10 packets:
        // the loss gate stays silent.
        let r = c.report();
        let v = r.check(&FidelityThresholds::default());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn starvation_marks_run_degraded() {
        let mut c = FidelityCollector::new();
        c.on_modulated(0.0);
        c.on_release(0.0, false);
        let clean = c.report();
        assert!(!clean.degraded);
        assert_eq!(clean.starvation_holds, 0);
        // Transient starvation: counted but not degraded — the tuple
        // stream inherently trails collection by the reorder horizon.
        c.on_starvation_hold();
        c.on_starvation_hold();
        let r = c.report();
        assert!(!r.degraded);
        assert_eq!(r.starvation_holds, 2);
        // Sustained starvation (backoff saturated) marks degradation.
        c.on_starvation_hold();
        c.on_starvation_saturated();
        let r = c.report();
        assert!(r.degraded);
        assert_eq!(r.starvation_holds, 3);
        // Degradation is surfaced, not gated: default thresholds still
        // judge the run on its release precision.
        assert!(r.check(&FidelityThresholds::default()).is_empty());
    }

    #[test]
    fn error_accum_tracks_integer_ns_sum() {
        let mut c = FidelityCollector::new();
        assert_eq!(c.error_accum(), (0, 0));
        c.on_modulated(0.0);
        c.on_release(-2.0, false);
        c.on_modulated(0.0);
        c.on_release(1.5, false);
        assert_eq!(c.error_accum(), (2, 3_500_000));
        assert!(!c.is_degraded());
        c.on_starvation_saturated();
        assert!(c.is_degraded());
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut c = FidelityCollector::new();
        c.on_modulated(0.1);
        c.on_drift_clamp();
        c.on_compensated();
        c.on_release(-2.0, false);
        c.on_unmodulated();
        let r = c.report();
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: FidelityReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.drift_clamps, 1);
        assert_eq!(back.compensated_packets, 1);
    }
}
