//! The triplet solver (§3.2.2): from the round-trip times of one ping
//! group — a small probe of size `s1` followed by two back-to-back large
//! probes of size `s2` — derive the instantaneous delay parameters
//! `F` (fixed latency), `Vb` (bottleneck per-byte cost), and `Vr`
//! (residual per-byte cost).
//!
//! Equations 5–8 of the paper:
//!
//! ```text
//! t1 = 2(F + s1·V)            V  = (t2 − t1) / (2(s2 − s1))
//! t2 = 2(F + s2·V)      ⇒     F  = t1/2 − s1·V
//! t3 = 2(F + s2·V) + s2·Vb    Vb = (t3 − t2) / s2
//!                             Vr = V − Vb
//! ```

/// One complete ping group's observations. Sizes are wire bytes; times
/// are round-trip seconds.
#[derive(Debug, Clone, Copy)]
pub struct TripletObservation {
    /// Wire size of the small probe.
    pub s1: f64,
    /// Wire size of each large probe.
    pub s2: f64,
    /// Round-trip time of the small probe.
    pub t1: f64,
    /// Round-trip time of the first large probe.
    pub t2: f64,
    /// Round-trip time of the second (queued) large probe.
    pub t3: f64,
}

/// Instantaneous delay parameters (seconds / seconds-per-byte).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DelayEstimate {
    /// One-way fixed latency `F`.
    pub f: f64,
    /// Bottleneck per-byte cost `Vb`.
    pub vb: f64,
    /// Residual per-byte cost `Vr`.
    pub vr: f64,
}

impl DelayEstimate {
    /// Total per-byte cost `V = Vb + Vr`.
    pub fn v(&self) -> f64 {
        self.vb + self.vr
    }

    /// All components non-negative and finite?
    pub fn is_physical(&self) -> bool {
        self.f.is_finite()
            && self.vb.is_finite()
            && self.vr.is_finite()
            && self.f >= 0.0
            && self.vb >= 0.0
            && self.vr >= 0.0
    }
}

/// Why a raw solve was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveIssue {
    /// Probe sizes equal or inverted: the equations are singular.
    DegenerateSizes,
    /// One or more derived parameters were negative — the packets in the
    /// group saw substantially different network conditions (§3.2.2).
    Negative,
}

/// Solve equations 5–8 exactly. Returns `Err(Negative)` when any
/// parameter comes out negative, signalling the caller to apply the
/// previous-parameters correction.
///
/// ```
/// use distill::{solve, TripletObservation};
/// // Ground truth: F = 2 ms, Vb = 4 µs/B, Vr = 1 µs/B.
/// let (f, vb, vr) = (2e-3, 4e-6, 1e-6);
/// let (s1, s2) = (106.0, 542.0);
/// let obs = TripletObservation {
///     s1, s2,
///     t1: 2.0 * (f + s1 * (vb + vr)),
///     t2: 2.0 * (f + s2 * (vb + vr)),
///     t3: 2.0 * (f + s2 * (vb + vr)) + s2 * vb,
/// };
/// let est = solve(&obs).unwrap();
/// assert!((est.f - f).abs() < 1e-12);
/// assert!((est.vb - vb).abs() < 1e-12);
/// ```
pub fn solve(obs: &TripletObservation) -> Result<DelayEstimate, SolveIssue> {
    if obs.s2 <= obs.s1 || obs.s1 <= 0.0 {
        return Err(SolveIssue::DegenerateSizes);
    }
    let v = (obs.t2 - obs.t1) / (2.0 * (obs.s2 - obs.s1));
    let f = obs.t1 / 2.0 - obs.s1 * v;
    let vb = (obs.t3 - obs.t2) / obs.s2;
    let vr = v - vb;
    let est = DelayEstimate { f, vb, vr };
    if est.is_physical() {
        Ok(est)
    } else {
        Err(SolveIssue::Negative)
    }
}

/// The paper's correction for groups whose packets saw different
/// conditions: reuse the previous `Vb`/`Vr` and fold the residual timing
/// difference into `F` ("short-term performance variation is most likely
/// due to media access delay"). The correction does not cascade: callers
/// must pass the last *solved* parameters, never a corrected result.
pub fn correct(prev: &DelayEstimate, obs: &TripletObservation) -> DelayEstimate {
    let v = prev.v();
    // Expected round-trips under the previous parameters.
    let e1 = 2.0 * (prev.f + obs.s1 * v);
    let e2 = 2.0 * (prev.f + obs.s2 * v);
    let e3 = e2 + obs.s2 * prev.vb;
    // Average the per-packet residuals, halved (round-trip → one-way),
    // and apply to F.
    let resid = ((obs.t1 - e1) + (obs.t2 - e2) + (obs.t3 - e3)) / 3.0 / 2.0;
    DelayEstimate {
        f: (prev.f + resid).max(0.0),
        vb: prev.vb,
        vr: prev.vr,
    }
}

/// Solve with fallback: exact solve, else correction from `prev`, else
/// (no previous estimate yet) component-wise clamp to zero.
pub fn solve_or_correct(
    prev: Option<&DelayEstimate>,
    obs: &TripletObservation,
) -> (DelayEstimate, bool) {
    match solve(obs) {
        Ok(est) => (est, true),
        Err(_) => match prev {
            Some(p) => (correct(p, obs), false),
            None => {
                // Bootstrap: clamp the raw (possibly negative) solution.
                let v = ((obs.t2 - obs.t1) / (2.0 * (obs.s2 - obs.s1).max(1.0))).max(0.0);
                let f = (obs.t1 / 2.0 - obs.s1 * v).max(0.0);
                let vb = ((obs.t3 - obs.t2) / obs.s2.max(1.0)).max(0.0).min(v);
                (
                    DelayEstimate {
                        f,
                        vb,
                        vr: (v - vb).max(0.0),
                    },
                    false,
                )
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a noiseless observation from known ground-truth parameters.
    fn obs_from(f: f64, vb: f64, vr: f64, s1: f64, s2: f64) -> TripletObservation {
        let v = vb + vr;
        TripletObservation {
            s1,
            s2,
            t1: 2.0 * (f + s1 * v),
            t2: 2.0 * (f + s2 * v),
            t3: 2.0 * (f + s2 * v) + s2 * vb,
        }
    }

    #[test]
    fn exact_recovery_from_noiseless_observation() {
        // WaveLAN-ish: F = 2 ms, Vb = 4 µs/B (2 Mb/s), Vr = 0.8 µs/B.
        let truth = (2e-3, 4e-6, 0.8e-6);
        let obs = obs_from(truth.0, truth.1, truth.2, 106.0, 542.0);
        let est = solve(&obs).unwrap();
        assert!((est.f - truth.0).abs() < 1e-12);
        assert!((est.vb - truth.1).abs() < 1e-12);
        assert!((est.vr - truth.2).abs() < 1e-12);
        assert!((est.v() - (truth.1 + truth.2)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_sizes_rejected() {
        let mut obs = obs_from(1e-3, 1e-6, 0.0, 100.0, 500.0);
        obs.s1 = 500.0;
        assert_eq!(solve(&obs), Err(SolveIssue::DegenerateSizes));
        obs.s1 = 600.0;
        assert_eq!(solve(&obs), Err(SolveIssue::DegenerateSizes));
    }

    #[test]
    fn negative_parameters_detected() {
        // t2 < t1 (the small packet saw worse conditions): negative V.
        let obs = TripletObservation {
            s1: 100.0,
            s2: 500.0,
            t1: 10e-3,
            t2: 6e-3,
            t3: 8e-3,
        };
        assert_eq!(solve(&obs), Err(SolveIssue::Negative));
    }

    #[test]
    fn correction_keeps_previous_per_byte_costs() {
        let prev = DelayEstimate {
            f: 2e-3,
            vb: 4e-6,
            vr: 1e-6,
        };
        // Group with a media-access stall: all packets ~10 ms late.
        let mut obs = obs_from(prev.f, prev.vb, prev.vr, 106.0, 542.0);
        obs.t1 += 10e-3;
        obs.t2 += 10e-3;
        obs.t3 += 10e-3;
        let est = correct(&prev, &obs);
        assert_eq!(est.vb, prev.vb);
        assert_eq!(est.vr, prev.vr);
        // The 10 ms round-trip excess shows up as ~5 ms of one-way F.
        assert!((est.f - (prev.f + 5e-3)).abs() < 1e-9, "f = {}", est.f);
    }

    #[test]
    fn correction_clamps_f_at_zero() {
        let prev = DelayEstimate {
            f: 1e-3,
            vb: 4e-6,
            vr: 1e-6,
        };
        let mut obs = obs_from(prev.f, prev.vb, prev.vr, 106.0, 542.0);
        // Implausibly fast group.
        obs.t1 = 1e-6;
        obs.t2 = 1e-6;
        obs.t3 = 1e-6;
        let est = correct(&prev, &obs);
        assert_eq!(est.f, 0.0);
    }

    #[test]
    fn solve_or_correct_uses_prev_on_failure() {
        let prev = DelayEstimate {
            f: 2e-3,
            vb: 4e-6,
            vr: 1e-6,
        };
        let bad = TripletObservation {
            s1: 100.0,
            s2: 500.0,
            t1: 10e-3,
            t2: 6e-3,
            t3: 8e-3,
        };
        let (est, solved) = solve_or_correct(Some(&prev), &bad);
        assert!(!solved);
        assert_eq!(est.vb, prev.vb);

        let good = obs_from(1e-3, 2e-6, 0.5e-6, 106.0, 542.0);
        let (est, solved) = solve_or_correct(Some(&prev), &good);
        assert!(solved);
        assert!((est.vb - 2e-6).abs() < 1e-12);
    }

    #[test]
    fn bootstrap_without_previous_clamps() {
        let bad = TripletObservation {
            s1: 100.0,
            s2: 500.0,
            t1: 10e-3,
            t2: 6e-3, // negative V
            t3: 8e-3,
        };
        let (est, solved) = solve_or_correct(None, &bad);
        assert!(!solved);
        assert!(est.is_physical());
    }
}
