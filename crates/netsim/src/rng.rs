//! Deterministic random number generation for simulations.
//!
//! Every source of randomness in an experiment flows through a [`SimRng`]
//! seeded from the experiment's trial number, so identical seeds reproduce
//! identical packet-level behaviour — the property the paper calls
//! "controlled and repeatable".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG with the handful of distributions the simulator needs.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform u64.
    pub fn u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Uniform in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + self.f64() * (hi - lo)
    }

    /// Uniform integer in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Normally distributed value (Box–Muller), mean `mu`, std dev `sigma`.
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        if sigma <= 0.0 {
            return mu;
        }
        let u1: f64 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2: f64 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mu + sigma * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn normal_moments_reasonable() {
        let mut r = SimRng::seed_from_u64(42);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "sd {}", var.sqrt());
        assert_eq!(r.normal(1.0, 0.0), 1.0);
    }

    #[test]
    fn empty_ranges_return_lo() {
        let mut r = SimRng::seed_from_u64(3);
        assert_eq!(r.range_f64(2.0, 2.0), 2.0);
        assert_eq!(r.range_u64(9, 9), 9);
        assert_eq!(r.range_u64(9, 3), 9);
    }
}
