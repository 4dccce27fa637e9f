//! Distribution metrics.
//!
//! [`Hist`] is single-owner and meant for per-cell (deterministic,
//! virtual-time-keyed) measurement.

use netsim::stats::{Histogram, Summary};
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

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
            bins: Bins::from_dense(self.buckets.bins()),
        }
    }
}

/// Serializable summary of a [`Hist`]: streaming moments, exact
/// percentiles, and raw bin counts.
///
/// Every fleet client keeps one of these per histogram until the run
/// ends, so the bins are held trimmed ([`Bins`]); the serialized form is
/// the dense array, byte for byte.
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
    pub bins: Bins,
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
            bins: Bins::default(),
        }
    }
}

/// A histogram's bin counts, held as the span between the first and the
/// last nonzero bin. A client run fills a handful of a histogram's
/// hundreds of bins, so the zeros on either side are only counted.
/// Serialization writes, and `Debug` prints, the dense list; parsing
/// trims it again, so equal dense lists give equal values.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Bins {
    /// Number of bins, zeros included.
    len: u32,
    /// Index of the first nonzero bin (0 when all are zero).
    offset: u32,
    /// The bins from the first to the last nonzero one.
    span: Box<[u64]>,
}

impl Bins {
    /// Trim a dense list of bin counts.
    pub fn from_dense(dense: &[u64]) -> Self {
        let len = u32::try_from(dense.len()).expect("fewer than 2^32 bins");
        let Some(first) = dense.iter().position(|&c| c != 0) else {
            return Bins {
                len,
                ..Bins::default()
            };
        };
        let last = dense.iter().rposition(|&c| c != 0).unwrap_or(first);
        Bins {
            len,
            offset: first as u32,
            span: dense[first..=last].into(),
        }
    }

    /// Every bin count in order, zeros included.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let lead = self.offset as usize;
        let trail = self.len as usize - lead - self.span.len();
        std::iter::repeat_n(0, lead)
            .chain(self.span.iter().copied())
            .chain(std::iter::repeat_n(0, trail))
    }
}

impl fmt::Debug for Bins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for Bins {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(|c| c.serialize()).collect())
    }
}

impl Deserialize for Bins {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        Vec::<u64>::deserialize(v).map(|dense| Bins::from_dense(&dense))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
