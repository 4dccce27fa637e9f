//! Scalar and distribution metrics.
//!
//! [`Counter`] and [`Gauge`] are atomic and may be shared across
//! runner threads; [`Hist`] is single-owner and meant for per-cell
//! (deterministic, virtual-time-keyed) measurement.

use netsim::stats::{Histogram, Summary};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic floating-point gauge that also tracks its peak.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
    peak_bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
            peak_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Set the current value (and raise the peak if exceeded).
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        let mut peak = self.peak_bits.load(Ordering::Relaxed);
        while v > f64::from_bits(peak) {
            match self.peak_bits.compare_exchange_weak(
                peak,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => peak = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Largest value ever set (0 if never set).
    pub fn peak(&self) -> f64 {
        let p = f64::from_bits(self.peak_bits.load(Ordering::Relaxed));
        if p.is_finite() {
            p
        } else {
            0.0
        }
    }
}

/// A fixed-bucket histogram with exact percentiles.
///
/// Composition, not duplication: bucketing comes from
/// [`netsim::stats::Histogram`]; mean/stddev/extrema/percentiles come
/// from a sample-retaining [`netsim::stats::Summary`].
#[derive(Debug, Clone)]
pub struct Hist {
    buckets: Histogram,
    summary: Summary,
}

impl Hist {
    /// A histogram with `bins` equal-width bins across `[lo, hi)`
    /// (out-of-range observations clamp into the edge bins).
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        Hist {
            buckets: Histogram::new(lo, hi, bins),
            summary: Summary::keeping_samples(),
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, x: f64) {
        self.buckets.add(x);
        self.summary.add(x);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// The underlying streaming summary.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// The underlying bucket histogram.
    pub fn buckets(&self) -> &Histogram {
        &self.buckets
    }

    /// A serializable snapshot of the distribution.
    pub fn snapshot(&self) -> HistSnapshot {
        let [p50, p95, p99] = self
            .summary
            .percentiles([50.0, 95.0, 99.0])
            .unwrap_or_default();
        HistSnapshot {
            count: self.summary.count(),
            mean: self.summary.mean(),
            stddev: self.summary.stddev(),
            min: self.summary.min(),
            max: self.summary.max(),
            p50,
            p95,
            p99,
            bins: self.buckets.bins().to_vec(),
        }
    }
}

/// Serializable summary of a [`Hist`]: streaming moments, exact
/// percentiles, and raw bin counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Raw bin counts.
    pub bins: Vec<u64>,
}

impl HistSnapshot {
    /// A snapshot of an empty distribution (no bins).
    pub fn empty() -> Self {
        HistSnapshot {
            count: 0,
            mean: 0.0,
            stddev: 0.0,
            min: 0.0,
            max: 0.0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
            bins: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        assert_eq!(g.peak(), 0.0);
        g.set(3.5);
        g.set(1.0);
        assert_eq!(g.get(), 1.0);
        assert_eq!(g.peak(), 3.5);
    }

    #[test]
    fn hist_reuses_summary_percentiles() {
        let mut h = Hist::new(0.0, 100.0, 10);
        for i in 1..=100 {
            h.observe(i as f64);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p95 - 95.05).abs() < 1e-9);
        // Snapshot percentiles are exactly the Summary's, not a
        // bucket approximation.
        assert_eq!(s.p99.to_bits(), h.summary().p99().to_bits());
        assert_eq!(s.bins.iter().sum::<u64>(), 100);
    }

    #[test]
    fn hist_snapshot_roundtrips_through_json() {
        let mut h = Hist::new(-5.0, 5.0, 4);
        h.observe(-1.0);
        h.observe(2.5);
        let snap = h.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: HistSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
