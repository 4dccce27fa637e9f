//! The sliding window (§3.2.2): one operator that turns time-sorted
//! entries into one value per step. The paper's five-second window
//! "balances the desire to discount outlying estimates with the need to
//! be reactive to true change"; the distiller runs two instances of it,
//! averaging per-group delay estimates ([`DelayMean`]) and counting
//! probe outcomes ([`crate::loss::LossCount`]).
//!
//! The operator is incremental: [`Window`] consumes entries one at a
//! time and emits a finalized step as soon as an entry past the step's
//! admission boundary proves it complete, holding only the entries
//! still inside the window (O(window) state). The batch [`slide`] is a
//! thin adapter over it.

use crate::solver::DelayEstimate;
use netsim::SimDuration;
use std::collections::VecDeque;
use std::fmt::Debug;

/// Window configuration.
#[derive(Debug, Clone, Copy)]
pub struct WindowConfig {
    /// Width of the averaging window.
    pub width: SimDuration,
    /// Step between emitted tuples (each tuple's duration `d`).
    pub step: SimDuration,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            width: SimDuration::from_secs(5),
            step: SimDuration::from_secs(1),
        }
    }
}

/// A timestamped delay estimate (seconds since trace start).
#[derive(Debug, Clone, Copy)]
pub struct TimedEstimate {
    /// Observation time in seconds from trace start.
    pub at: f64,
    /// The estimate.
    pub est: DelayEstimate,
}

/// One finalized window step.
#[derive(Debug, Clone, Copy)]
pub struct Step<V> {
    /// Step start time (seconds from trace start).
    pub start: f64,
    /// Step duration (seconds) — `d` in the paper.
    pub duration: f64,
    /// The window's value for this step.
    pub value: V,
}

/// What a [`Window`] keeps over the entries inside it: running sums
/// that each admitted entry adds to and each expired entry subtracts
/// from, in arrival order.
pub trait Accumulator {
    /// One timestamped input.
    type Entry: Copy + Debug;
    /// One step's output.
    type Value: Copy + Debug;
    /// The entry's time in seconds from trace start.
    fn at(e: &Self::Entry) -> f64;
    /// Admit one entry into the sums.
    fn add(&mut self, e: &Self::Entry);
    /// Expire one entry from the sums.
    fn sub(&mut self, e: &Self::Entry);
    /// The value over the `n` entries inside the window, or `None` to
    /// repeat the previous step's value.
    fn value(&self, n: usize) -> Option<Self::Value>;
    /// The value of steps before any value exists, given the first
    /// entry ever pushed (if any).
    fn seed(first: Option<&Self::Entry>) -> Self::Value;
}

/// The delay average: the component-wise mean of the estimates inside
/// the window, each component clamped at 0. An empty window repeats
/// the previous average; steps before the first average take the first
/// estimate (or zero when there is none).
#[derive(Debug, Default)]
pub struct DelayMean {
    f: f64,
    vb: f64,
    vr: f64,
}

impl Accumulator for DelayMean {
    type Entry = TimedEstimate;
    type Value = DelayEstimate;

    fn at(e: &TimedEstimate) -> f64 {
        e.at
    }

    fn add(&mut self, e: &TimedEstimate) {
        self.f += e.est.f;
        self.vb += e.est.vb;
        self.vr += e.est.vr;
    }

    fn sub(&mut self, e: &TimedEstimate) {
        self.f -= e.est.f;
        self.vb -= e.est.vb;
        self.vr -= e.est.vr;
    }

    fn value(&self, n: usize) -> Option<DelayEstimate> {
        let k = n as f64;
        (n > 0).then(|| DelayEstimate {
            f: (self.f / k).max(0.0),
            vb: (self.vb / k).max(0.0),
            vr: (self.vr / k).max(0.0),
        })
    }

    fn seed(first: Option<&TimedEstimate>) -> DelayEstimate {
        first.map(|e| e.est).unwrap_or_default()
    }
}

/// Incremental sliding window over time-sorted entries.
///
/// Step `i` starts at `i·step` and its window is the trailing interval
/// `(end − width, end]` with `end = i·step + step`. A step is emitted
/// as soon as a pushed entry lies strictly past its `end` — at which
/// point no later entry can enter it — so output flows while input is
/// still arriving. [`finish`](Window::finish) flushes the remaining
/// steps once the trace span is known.
///
/// State is the entries currently inside (or awaiting) the window plus
/// the accumulator's sums: O(window), never the whole trace.
#[derive(Debug)]
pub struct Window<A: Accumulator> {
    step: f64,
    width: f64,
    acc: A,
    /// Pushed but not yet admitted to any window.
    pending: VecDeque<A::Entry>,
    /// Admitted and not yet expired (inside the current window).
    active: VecDeque<A::Entry>,
    next_step: usize,
    /// The previous step's value (the seed before any value exists).
    last: Option<A::Value>,
    out: VecDeque<Step<A::Value>>,
}

impl<A: Accumulator> Window<A> {
    /// An empty window over `acc`.
    pub fn new(cfg: &WindowConfig, acc: A) -> Self {
        let step = cfg.step.as_secs_f64();
        let width = cfg.width.as_secs_f64();
        assert!(step > 0.0 && width > 0.0, "window config must be positive");
        Window {
            step,
            width,
            acc,
            pending: VecDeque::new(),
            active: VecDeque::new(),
            next_step: 0,
            last: None,
            out: VecDeque::new(),
        }
    }

    /// Push the next entry (must be ≥ all previously pushed times).
    pub fn push(&mut self, e: A::Entry) {
        let at = A::at(&e);
        debug_assert!(
            self.pending.back().is_none_or(|p| A::at(p) <= at),
            "window entries must be time-sorted"
        );
        if self.last.is_none() {
            self.last = Some(A::seed(Some(&e)));
        }
        // Every step whose end this entry is strictly past is complete:
        // nothing later can enter it (mid-stream the span is unknown,
        // but span ≥ at > end means the step's duration is exactly
        // `step`).
        loop {
            let start = self.next_step as f64 * self.step;
            let end = start + self.step;
            if at <= end {
                break;
            }
            self.flush_step(start, end, self.step);
        }
        self.pending.push_back(e);
    }

    // Finalize one step: admit, expire, then take the value.
    fn flush_step(&mut self, start: f64, end: f64, duration: f64) {
        let lo = end - self.width;
        while let Some(p) = self.pending.front().copied() {
            if A::at(&p) > end {
                break;
            }
            self.acc.add(&p);
            self.active.push_back(p);
            self.pending.pop_front();
        }
        while let Some(t) = self.active.front().copied() {
            if A::at(&t) > lo {
                break;
            }
            self.acc.sub(&t);
            self.active.pop_front();
        }
        let value = self
            .acc
            .value(self.active.len())
            .or(self.last)
            .unwrap_or_else(|| A::seed(None));
        self.last = Some(value);
        self.out.push_back(Step {
            start,
            duration,
            value,
        });
        self.next_step += 1;
    }

    /// Declare end of input with the trace span (seconds): flush every
    /// step needed to cover `[0, span]`. The final step's duration is
    /// clipped to the span.
    pub fn finish(&mut self, span: f64) {
        if span <= 0.0 {
            return;
        }
        let steps = (span / self.step).ceil() as usize;
        while self.next_step < steps {
            let start = self.next_step as f64 * self.step;
            let end = start + self.step;
            let duration = (span - start).min(self.step);
            self.flush_step(start, end, duration);
        }
    }

    /// Pop the next finalized step, if any.
    pub fn pop(&mut self) -> Option<Step<A::Value>> {
        self.out.pop_front()
    }

    /// Number of finalized steps awaiting [`pop`](Window::pop).
    pub fn ready(&self) -> usize {
        self.out.len()
    }

    /// Entries currently held (pending + inside the window).
    pub fn live_len(&self) -> usize {
        self.pending.len() + self.active.len()
    }
}

/// Slide a window of `cfg.width` over `entries` (which must be sorted
/// by time), emitting one step per `cfg.step` covering `[0, span]`
/// (and any step an entry past the span completes). Batch adapter over
/// [`Window`].
pub fn slide<A: Accumulator>(
    acc: A,
    entries: &[A::Entry],
    span: f64,
    cfg: &WindowConfig,
) -> Vec<Step<A::Value>> {
    let mut w = Window::new(cfg, acc);
    if span <= 0.0 {
        return Vec::new();
    }
    for e in entries {
        w.push(*e);
    }
    w.finish(span);
    w.out.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(f: f64) -> DelayEstimate {
        DelayEstimate {
            f,
            vb: 4e-6,
            vr: 1e-6,
        }
    }

    fn series(vals: &[(f64, f64)]) -> Vec<TimedEstimate> {
        vals.iter()
            .map(|&(at, f)| TimedEstimate { at, est: est(f) })
            .collect()
    }

    #[test]
    fn one_tuple_per_step_covering_span() {
        let es = series(&[(0.5, 1e-3), (1.5, 2e-3), (2.5, 3e-3)]);
        let out = slide(DelayMean::default(), &es, 10.0, &WindowConfig::default());
        assert_eq!(out.len(), 10);
        assert_eq!(out[0].start, 0.0);
        assert_eq!(out[9].start, 9.0);
        let total: f64 = out.iter().map(|w| w.duration).sum();
        assert!((total - 10.0).abs() < 1e-9);
    }

    #[test]
    fn window_averages_estimates() {
        // Estimates at 0.5s (F=2ms) and 0.9s (F=4ms): first tuple's
        // window (−4, 1] holds both → F = 3 ms.
        let es = series(&[(0.5, 2e-3), (0.9, 4e-3)]);
        let out = slide(DelayMean::default(), &es, 2.0, &WindowConfig::default());
        assert!((out[0].value.f - 3e-3).abs() < 1e-12);
    }

    #[test]
    fn five_second_window_discounts_outliers_slowly() {
        // Steady 2 ms with one 100 ms spike at t=10: the spike lifts the
        // five windows that contain it, then vanishes.
        let mut vals: Vec<(f64, f64)> = (0..30).map(|i| (i as f64 + 0.5, 2e-3)).collect();
        vals[10].1 = 100e-3;
        let es = series(&vals);
        let out = slide(DelayMean::default(), &es, 30.0, &WindowConfig::default());
        // Window for tuple 10 (covering (6,11]) includes the spike.
        assert!(out[10].value.f > 20e-3);
        assert!(out[14].value.f > 20e-3);
        // By tuple 15 the spike has left the window.
        assert!((out[15].value.f - 2e-3).abs() < 1e-9);
        assert!((out[5].value.f - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn empty_windows_reuse_previous() {
        // Gap between t=2 and t=20 (ping replies lost): tuples in the gap
        // hold the last known parameters.
        let es = series(&[(1.0, 2e-3), (2.0, 2e-3), (20.5, 8e-3)]);
        let out = slide(DelayMean::default(), &es, 22.0, &WindowConfig::default());
        assert!((out[10].value.f - 2e-3).abs() < 1e-12);
        assert!((out[15].value.f - 2e-3).abs() < 1e-12);
        assert!((out[20].value.f - 8e-3).abs() < 1e-12);
    }

    #[test]
    fn leading_gap_uses_first_estimate() {
        let es = series(&[(8.0, 7e-3)]);
        let out = slide(DelayMean::default(), &es, 10.0, &WindowConfig::default());
        assert!((out[0].value.f - 7e-3).abs() < 1e-12);
    }

    #[test]
    fn empty_input_yields_zero_estimates() {
        let out = slide(DelayMean::default(), &[], 3.0, &WindowConfig::default());
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].value.f, 0.0);
    }

    #[test]
    fn reactivity_to_step_change() {
        // F jumps from 2 ms to 50 ms at t=10; within a window-width the
        // average converges to the new value.
        let vals: Vec<(f64, f64)> = (0..30)
            .map(|i| {
                let t = i as f64 + 0.5;
                (t, if t < 10.0 { 2e-3 } else { 50e-3 })
            })
            .collect();
        let out = slide(
            DelayMean::default(),
            &series(&vals),
            30.0,
            &WindowConfig::default(),
        );
        assert!((out[5].value.f - 2e-3).abs() < 1e-9);
        // Fully converged five seconds after the change.
        assert!((out[16].value.f - 50e-3).abs() < 1e-9);
        // Mid-transition: between the two.
        assert!(out[12].value.f > 2e-3 && out[12].value.f < 50e-3);
    }

    #[test]
    fn incremental_emits_before_finish() {
        let cfg = WindowConfig::default();
        let mut w = Window::new(&cfg, DelayMean::default());
        for i in 0..10 {
            w.push(TimedEstimate {
                at: i as f64 + 0.5,
                est: est(2e-3),
            });
        }
        // The estimate at 9.5 s proves windows ending ≤ 9 s complete.
        assert_eq!(w.ready(), 9);
        w.finish(10.0);
        assert_eq!(w.ready(), 10);
    }

    #[test]
    fn state_stays_bounded_by_window() {
        let cfg = WindowConfig::default();
        let mut w = Window::new(&cfg, DelayMean::default());
        let (mut n, mut peak) = (0usize, 0usize);
        // 4 estimates per second for 1000 s: peak live state must stay
        // around width+step worth of estimates, not the full 4000.
        for i in 0..4000 {
            w.push(TimedEstimate {
                at: i as f64 / 4.0,
                est: est(1e-3),
            });
            peak = peak.max(w.live_len());
            n += w.ready();
            while w.pop().is_some() {}
        }
        w.finish(1000.0);
        while w.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 1000);
        // (5 s window + 1 s step + 1 boundary) × 4/s = 28; allow slack.
        assert!(peak <= 32, "peak live {peak}");
    }
}
