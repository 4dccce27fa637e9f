//! Statistics helpers shared by experiments: running summaries, time
//! series with range reduction (the paper's per-checkpoint min/max bars),
//! and simple histograms (Figure 5).

use crate::time::SimTime;

/// Online mean / standard deviation / extrema (Welford's algorithm),
/// with optional sample retention for exact percentiles.
///
/// [`new`](Summary::new) keeps no samples — O(1) memory, the mode every
/// pre-existing caller gets. [`keeping_samples`](Summary::keeping_samples)
/// (and [`of`](Summary::of)) additionally retain each observation so
/// [`percentile`](Summary::percentile) / [`p50`](Summary::p50) /
/// [`p95`](Summary::p95) / [`p99`](Summary::p99) are exact.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    samples: Option<Vec<f64>>,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            samples: None,
        }
    }

    /// Empty summary that retains every observation, enabling exact
    /// percentile queries at the cost of O(n) memory.
    pub fn keeping_samples() -> Self {
        Summary {
            samples: Some(Vec::new()),
            ..Summary::new()
        }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if let Some(s) = &mut self.samples {
            s.push(x);
        }
    }

    /// Build a summary from a slice (samples are retained, so
    /// percentiles are available).
    pub fn of(xs: &[f64]) -> Self {
        let mut s = Summary::keeping_samples();
        for &x in xs {
            s.add(x);
        }
        s
    }

    /// True when observations are retained for percentile queries.
    pub fn retains_samples(&self) -> bool {
        self.samples.is_some()
    }

    /// The retained observations, in insertion order (`None` unless
    /// built with [`keeping_samples`](Summary::keeping_samples) or
    /// [`of`](Summary::of)).
    pub fn samples(&self) -> Option<&[f64]> {
        self.samples.as_deref()
    }

    /// Exact percentile (`p` in 0–100) with linear interpolation
    /// between closest ranks. `None` when empty or when samples were
    /// not retained.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        self.percentiles([p]).map(|[v]| v)
    }

    /// Several exact percentiles from one sort of the samples, each
    /// computed exactly as [`percentile`](Summary::percentile) would.
    /// `None` when empty or when samples were not retained.
    pub fn percentiles<const N: usize>(&self, ps: [f64; N]) -> Option<[f64; N]> {
        let s = self.samples.as_ref()?;
        if s.is_empty() {
            return None;
        }
        let mut sorted = s.clone();
        sorted.sort_by(f64::total_cmp);
        Some(ps.map(|p| {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }))
    }

    /// Median (0 when empty or samples not retained).
    pub fn p50(&self) -> f64 {
        self.percentile(50.0).unwrap_or(0.0)
    }

    /// 95th percentile (0 when empty or samples not retained).
    pub fn p95(&self) -> f64 {
        self.percentile(95.0).unwrap_or(0.0)
    }

    /// 99th percentile (0 when empty or samples not retained).
    pub fn p99(&self) -> f64 {
        self.percentile(99.0).unwrap_or(0.0)
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n−1 denominator; 0 for fewer than two
    /// observations). This matches the parenthesized figures in the
    /// paper's tables.
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// A `(time, value)` series with helpers for bucketing into normalized
/// intervals — used to combine multiple trials of a scenario onto a common
/// checkpoint axis, as in Figures 2–4.
#[derive(Debug, Clone, Default)]
pub struct Series {
    points: Vec<(SimTime, f64)>,
}

impl Series {
    /// Empty series.
    pub fn new() -> Self {
        Series { points: Vec::new() }
    }

    /// Append an observation; times must be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            debug_assert!(t >= last, "series must be time-ordered");
        }
        self.points.push((t, v));
    }

    /// All points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Values only.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|&(_, v)| v)
    }

    /// Split the series into `buckets` equal spans of *normalized* time
    /// (position along the trace, 0..1) and summarize each — this is the
    /// paper's normalization of inter-checkpoint intervals across trials.
    /// Empty buckets yield empty summaries.
    pub fn normalized_buckets(&self, buckets: usize) -> Vec<Summary> {
        let mut out = vec![Summary::new(); buckets];
        if self.points.is_empty() || buckets == 0 {
            return out;
        }
        let t0 = self.points[0].0.as_nanos();
        let t1 = self.points[self.points.len() - 1].0.as_nanos();
        let span = (t1 - t0).max(1);
        for &(t, v) in &self.points {
            let frac = (t.as_nanos() - t0) as f64 / span as f64;
            let idx = ((frac * buckets as f64) as usize).min(buckets - 1);
            out[idx].add(v);
        }
        out
    }
}

/// Fixed-width histogram over `[lo, hi)`; out-of-range values clamp into
/// the first/last bin. Used for the Chatterbox distributions (Figure 5).
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Create a histogram with `bins` equal-width bins across `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0 && hi > lo, "invalid histogram bounds");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            total: 0,
        }
    }

    /// Record one observation.
    pub fn add(&mut self, x: f64) {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        let idx = if x < self.lo {
            0
        } else {
            (((x - self.lo) / w) as usize).min(self.bins.len() - 1)
        };
        self.bins[idx] += 1;
        self.total += 1;
    }

    /// Raw bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Approximate percentile (`p` in 0–100) from the bin counts, with
    /// linear interpolation inside the containing bin. `None` when no
    /// observations have been recorded. Accuracy is bounded by the bin
    /// width; use [`Summary::percentile`] when exactness matters.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = (p / 100.0).clamp(0.0, 1.0) * self.total as f64;
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        let mut seen = 0.0;
        for (i, &c) in self.bins.iter().enumerate() {
            let next = seen + c as f64;
            if next >= target && c > 0 {
                let frac = if c == 0 {
                    0.0
                } else {
                    (target - seen) / c as f64
                };
                return Some(self.lo + w * (i as f64 + frac.clamp(0.0, 1.0)));
            }
            seen = next;
        }
        Some(self.hi)
    }

    /// `(bin_center, fraction_of_total)` pairs for display.
    pub fn normalized(&self) -> Vec<(f64, f64)> {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let center = self.lo + w * (i as f64 + 0.5);
                let frac = if self.total == 0 {
                    0.0
                } else {
                    c as f64 / self.total as f64
                };
                (center, frac)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_hand_computation() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample stddev of this classic set is ~2.138.
        assert!((s.stddev() - 2.138089935).abs() < 1e-6);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn percentiles_match_single_percentile_queries_bitwise() {
        // Reference: one sort per query, closest-rank interpolation.
        fn reference(xs: &[f64], p: f64) -> f64 {
            let mut sorted = xs.to_vec();
            sorted.sort_by(f64::total_cmp);
            let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
        const PS: [f64; 5] = [0.0, 50.0, 95.0, 99.0, 100.0];
        assert_eq!(Summary::of(&[]).percentiles(PS), None);
        assert_eq!(Summary::new().percentiles([50.0]), None);
        let mut rng = crate::rng::SimRng::seed_from_u64(5);
        let mut inputs = vec![vec![3.25]];
        for n in [2, 7, 100, 1_001] {
            inputs.push((0..n).map(|_| rng.range_f64(-50.0, 2_000.0)).collect());
        }
        for xs in &inputs {
            let s = Summary::of(xs);
            let got = s.percentiles(PS).expect("non-empty");
            for (v, p) in got.into_iter().zip(PS) {
                assert_eq!(v.to_bits(), s.percentile(p).unwrap().to_bits());
                assert_eq!(v.to_bits(), reference(xs, p).to_bits());
            }
        }
    }

    #[test]
    fn summary_empty_and_single() {
        let e = Summary::new();
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.stddev(), 0.0);
        let s = Summary::of(&[3.0]);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn summary_percentiles_exact_with_samples() {
        let s = Summary::of(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert!((s.p50() - 50.5).abs() < 1e-12);
        assert!((s.p95() - 95.05).abs() < 1e-9);
        assert!((s.p99() - 99.01).abs() < 1e-9);
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.samples().map(<[f64]>::len), Some(100));
    }

    #[test]
    fn summary_without_samples_has_no_percentiles() {
        let mut s = Summary::new();
        s.add(5.0);
        assert!(!s.retains_samples());
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.p95(), 0.0);
        assert_eq!(Summary::keeping_samples().percentile(50.0), None);
    }

    #[test]
    fn summary_streaming_moments_unaffected_by_retention() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let with = Summary::of(&xs);
        let mut without = Summary::new();
        for &x in &xs {
            without.add(x);
        }
        assert_eq!(with.mean().to_bits(), without.mean().to_bits());
        assert_eq!(with.stddev().to_bits(), without.stddev().to_bits());
        assert_eq!(with.min().to_bits(), without.min().to_bits());
        assert_eq!(with.max().to_bits(), without.max().to_bits());
    }

    #[test]
    fn histogram_percentile_interpolates() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for i in 0..100 {
            h.add(i as f64 + 0.5);
        }
        let p50 = h.percentile(50.0).unwrap();
        assert!((45.0..=55.0).contains(&p50), "p50 {p50}");
        let p95 = h.percentile(95.0).unwrap();
        assert!((90.0..=100.0).contains(&p95), "p95 {p95}");
        assert_eq!(Histogram::new(0.0, 1.0, 4).percentile(50.0), None);
    }

    #[test]
    fn series_bucketing_normalizes_time() {
        let mut s = Series::new();
        for i in 0..100u64 {
            s.push(SimTime::from_millis(i * 10), i as f64);
        }
        let buckets = s.normalized_buckets(4);
        assert_eq!(buckets.len(), 4);
        // First bucket covers roughly values 0..25.
        assert!(buckets[0].max() <= 25.0);
        assert!(buckets[3].min() >= 74.0);
        let n: u64 = buckets.iter().map(|b| b.count()).sum();
        assert_eq!(n, 100);
    }

    #[test]
    fn series_bucketing_edge_cases() {
        let s = Series::new();
        assert_eq!(s.normalized_buckets(3).len(), 3);
        let mut one = Series::new();
        one.push(SimTime::ZERO, 1.0);
        let b = one.normalized_buckets(2);
        assert_eq!(b[0].count(), 1);
    }

    #[test]
    fn histogram_clamps_and_normalizes() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [-1.0, 0.5, 3.0, 9.9, 42.0] {
            h.add(x);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.bins()[0], 2); // -1.0 clamped, 0.5
        assert_eq!(h.bins()[4], 2); // 9.9, 42.0 clamped
        let norm = h.normalized();
        let total: f64 = norm.iter().map(|&(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(norm[0].0, 1.0); // center of first bin
    }
}
