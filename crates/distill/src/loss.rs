//! The loss estimator (§3.2.2, equations 9–10).
//!
//! Over a window, `a` ECHO probes were sent and `b` ECHOREPLY packets
//! came back. With per-direction survival probability `P`, a reply
//! requires two survivals: `b = P²·a`, so `L = 1 − P = 1 − sqrt(b/a)`.
//!
//! [`LossCount`] is the [`Accumulator`] that counts probe outcomes
//! inside the sliding [`Window`](crate::window::Window), the same
//! operator the delay average runs on.

use crate::window::Accumulator;

/// Per-probe bookkeeping: when each ECHO was sent (seconds from trace
/// start) and whether its reply arrived.
#[derive(Debug, Clone, Copy)]
pub struct ProbeOutcome {
    /// Send time in seconds.
    pub at: f64,
    /// Reply observed?
    pub replied: bool,
}

/// Estimate the one-way loss rate from counts (equation 10). Returns
/// `None` when `a == 0` (no probes in the window).
pub fn loss_from_counts(a: u64, b: u64) -> Option<f64> {
    if a == 0 {
        return None;
    }
    let ratio = (b as f64 / a as f64).clamp(0.0, 1.0);
    Some((1.0 - ratio.sqrt()).clamp(0.0, 1.0))
}

/// Direct one-way loss from counts: `L = 1 − b/a` — used by the
/// synchronized-clocks extension where each leg's arrivals are observed
/// directly (no squaring through a round trip).
pub fn loss_from_counts_direct(a: u64, b: u64) -> Option<f64> {
    if a == 0 {
        return None;
    }
    Some((1.0 - (b as f64 / a as f64)).clamp(0.0, 1.0))
}

/// The windowed loss count: the probes inside the window (`a`) and how
/// many of them were answered (`b`). A window with no probes repeats
/// the previous estimate (initially 0).
#[derive(Debug)]
pub struct LossCount {
    replied: u64,
    one_way: bool,
}

impl LossCount {
    /// Round-trip probes, estimated with equation 10
    /// ([`loss_from_counts`]).
    pub fn round_trip() -> Self {
        LossCount {
            replied: 0,
            one_way: false,
        }
    }

    /// One-way legs observed at both ends, estimated directly
    /// ([`loss_from_counts_direct`]).
    pub fn one_way() -> Self {
        LossCount {
            replied: 0,
            one_way: true,
        }
    }
}

impl Accumulator for LossCount {
    type Entry = ProbeOutcome;
    type Value = f64;

    fn at(p: &ProbeOutcome) -> f64 {
        p.at
    }

    fn add(&mut self, p: &ProbeOutcome) {
        self.replied += u64::from(p.replied);
    }

    fn sub(&mut self, p: &ProbeOutcome) {
        self.replied -= u64::from(p.replied);
    }

    fn value(&self, n: usize) -> Option<f64> {
        let estimate = if self.one_way {
            loss_from_counts_direct
        } else {
            loss_from_counts
        };
        estimate(n as u64, self.replied)
    }

    fn seed(_: Option<&ProbeOutcome>) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{slide, Window, WindowConfig};

    fn windowed_loss(probes: &[ProbeOutcome], span: f64) -> Vec<f64> {
        let steps = slide(
            LossCount::round_trip(),
            probes,
            span,
            &WindowConfig::default(),
        );
        steps.iter().map(|s| s.value).collect()
    }

    #[test]
    fn perfect_delivery_is_zero_loss() {
        assert_eq!(loss_from_counts(10, 10), Some(0.0));
    }

    #[test]
    fn total_loss_is_one() {
        assert_eq!(loss_from_counts(10, 0), Some(1.0));
    }

    #[test]
    fn square_root_inversion() {
        // If one-way loss is 19% then P = 0.81 and replies = 0.81² =
        // 65.61% of probes.
        let l = loss_from_counts(10_000, 6561).unwrap();
        assert!((l - 0.19).abs() < 1e-3, "{l}");
    }

    #[test]
    fn no_probes_is_none() {
        assert_eq!(loss_from_counts(0, 0), None);
    }

    #[test]
    fn excess_replies_clamped() {
        // Duplicate replies can make b > a; clamp instead of NaN.
        assert_eq!(loss_from_counts(5, 9), Some(0.0));
    }

    #[test]
    fn windowed_loss_tracks_change() {
        // 0–10 s: all replied. 10–20 s: none replied.
        let mut probes = Vec::new();
        for i in 0..60 {
            let at = i as f64 / 3.0;
            probes.push(ProbeOutcome {
                at,
                replied: at < 10.0,
            });
        }
        let ls = windowed_loss(&probes, 20.0);
        assert_eq!(ls.len(), 20);
        assert_eq!(ls[5], 0.0);
        // Deep in the outage the window holds only lost probes.
        assert_eq!(ls[19], 1.0);
        // Transition region is between.
        assert!(ls[11] > 0.0 && ls[11] < 1.0);
    }

    #[test]
    fn windowed_loss_holds_last_value_through_gaps() {
        let probes = vec![
            ProbeOutcome {
                at: 0.5,
                replied: true,
            },
            ProbeOutcome {
                at: 1.5,
                replied: false,
            },
        ];
        // After t≈6.5 the window is empty; estimate holds.
        let ls = windowed_loss(&probes, 10.0);
        let filled = ls[1];
        assert!(filled > 0.0);
        assert_eq!(ls[9], ls[6]);
    }

    #[test]
    fn empty_probes_all_zero() {
        let ls = windowed_loss(&[], 5.0);
        assert_eq!(ls, vec![0.0; 5]);
    }

    #[test]
    fn incremental_emits_before_finish() {
        let mut w = Window::new(&WindowConfig::default(), LossCount::round_trip());
        let mut peak = 0;
        for i in 0..20 {
            w.push(ProbeOutcome {
                at: i as f64 / 2.0,
                replied: true,
            });
            peak = w.live_len().max(peak);
        }
        // Outcome at 9.5 s proves steps ending ≤ 9 s complete.
        assert_eq!(w.ready(), 9);
        w.finish(10.0);
        assert_eq!(w.ready(), 10);
        assert!(peak <= 16, "peak live {peak}");
    }
}
