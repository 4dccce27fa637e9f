//! The sliding window checked against its definition.
//!
//! Step `i` starts at `i·step`, ends at `end = i·step + step`, and
//! covers the entries with `end − width < at ≤ end`. Its value is the
//! accumulator's value over exactly those entries; a step whose
//! accumulator has no value repeats the previous step, and steps before
//! any value take the seed. The batch covers `[0, span]` (the last step
//! clipped to the span) plus every step an entry past the span
//! completes.
//!
//! Each property recounts every step from scratch over the entry list
//! and demands bit-for-bit equality with [`Window`], for the delay
//! average and both loss counts. Delay components are small multiples
//! of 2⁻¹⁰, so every partial sum is exact and a recount in any order
//! must give the running sums' bits. Entry times include ties, times on
//! a step's end and on its expiry boundary, and gaps longer than the
//! window; the inputs include empty ones and spans shorter than the
//! entries.

use distill::loss::{loss_from_counts, loss_from_counts_direct, LossCount, ProbeOutcome};
use distill::window::{slide, Accumulator, DelayMean, Step, TimedEstimate, Window, WindowConfig};
use distill::DelayEstimate;
use netsim::SimDuration;
use proptest::prelude::*;

/// One generated entry: how its time follows the previous entry's
/// (`kind`, `frac`), three delay components in 2⁻¹⁰ units, and whether
/// the probe was answered.
type Move = (u8, f64, i32, i32, i32, bool);

#[derive(Debug)]
struct Case {
    cfg: WindowConfig,
    step: f64,
    width: f64,
    times: Vec<f64>,
    span: f64,
}

fn build_case(
    step_ms: u64,
    width_steps: u64,
    width_extra_ms: u64,
    moves: &[Move],
    span_kind: u8,
    span_frac: f64,
) -> Case {
    let cfg = WindowConfig {
        width: SimDuration::from_millis(step_ms * width_steps + width_extra_ms),
        step: SimDuration::from_millis(step_ms),
    };
    let (step, width) = (cfg.step.as_secs_f64(), cfg.width.as_secs_f64());
    // The first boundary `k·step + step + shift` at or after `t`.
    let next_boundary = |t: f64, shift: f64| {
        let mut k = ((t - shift) / step).floor().max(0.0) as u64;
        loop {
            let b = k as f64 * step + step + shift;
            if b >= t {
                return b;
            }
            k += 1;
        }
    };
    let mut t = 0.0f64;
    let mut times = Vec::with_capacity(moves.len());
    for &(kind, frac, ..) in moves {
        t = match kind {
            // A tie with the previous entry.
            0 => t,
            // A gap shorter than two steps.
            1 => t + frac * 2.0 * step,
            // A gap longer than the window.
            2 => t + width + frac * 2.0 * step,
            // Exactly on a step's end.
            3 => next_boundary(t, 0.0),
            // Exactly on a step's expiry boundary `end − width`.
            _ => next_boundary(t, -width),
        };
        times.push(t);
    }
    let span = match span_kind {
        0 => 0.0,
        1 => t * span_frac,
        _ => t + span_frac * 3.0 * step,
    };
    Case {
        cfg,
        step,
        width,
        times,
        span,
    }
}

/// Recount every step from its definition. `value` gets the indices of
/// the entries inside the step's window.
fn recount<V: Copy>(case: &Case, seed: V, value: impl Fn(&[usize]) -> Option<V>) -> Vec<Step<V>> {
    if case.span <= 0.0 {
        return Vec::new();
    }
    let end_of = |i: usize| i as f64 * case.step + case.step;
    let last_at = case.times.last().copied().unwrap_or(f64::NEG_INFINITY);
    // Steps an entry strictly past their end completed mid-stream.
    let mut early = 0;
    while end_of(early) < last_at {
        early += 1;
    }
    let by_span = (case.span / case.step).ceil() as usize;
    let mut prev = seed;
    (0..early.max(by_span))
        .map(|i| {
            let start = i as f64 * case.step;
            let end = end_of(i);
            let inside: Vec<usize> = (0..case.times.len())
                .filter(|&j| end - case.width < case.times[j] && case.times[j] <= end)
                .collect();
            prev = value(&inside).unwrap_or(prev);
            let duration = if i < early {
                case.step
            } else {
                (case.span - start).min(case.step)
            };
            Step {
                start,
                duration,
                value: prev,
            }
        })
        .collect()
}

/// The same steps with every entry pushed one at a time and finalized
/// steps popped between pushes, some but not all of them each time.
fn interleaved<A: Accumulator>(
    case: &Case,
    acc: A,
    entries: &[A::Entry],
    moves: &[Move],
) -> Vec<Step<A::Value>> {
    let mut w = Window::new(&case.cfg, acc);
    let mut out = Vec::new();
    if case.span <= 0.0 {
        return out;
    }
    for (e, m) in entries.iter().zip(moves) {
        w.push(*e);
        for _ in 0..m.0 {
            out.extend(w.pop());
        }
    }
    w.finish(case.span);
    while let Some(s) = w.pop() {
        out.push(s);
    }
    out
}

trait Bits {
    fn bits(&self) -> Vec<u64>;
}

impl Bits for f64 {
    fn bits(&self) -> Vec<u64> {
        vec![self.to_bits()]
    }
}

impl Bits for DelayEstimate {
    fn bits(&self) -> Vec<u64> {
        vec![self.f.to_bits(), self.vb.to_bits(), self.vr.to_bits()]
    }
}

fn check<V: Bits + std::fmt::Debug>(
    what: &str,
    got: &[Step<V>],
    want: &[Step<V>],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: step count", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let bits = |s: &Step<V>| (s.start.to_bits(), s.duration.to_bits(), s.value.bits());
        prop_assert!(
            bits(g) == bits(w),
            "{}: step {} is {:?}, its definition gives {:?}",
            what,
            i,
            g,
            w
        );
    }
    Ok(())
}

fn entries(case: &Case, moves: &[Move]) -> (Vec<TimedEstimate>, Vec<ProbeOutcome>) {
    let unit = |v: i32| v as f64 / 1024.0;
    let estimates = case
        .times
        .iter()
        .zip(moves)
        .map(|(&at, &(_, _, f, vb, vr, _))| TimedEstimate {
            at,
            est: DelayEstimate {
                f: unit(f),
                vb: unit(vb),
                vr: unit(vr),
            },
        })
        .collect();
    let outcomes = case
        .times
        .iter()
        .zip(moves)
        .map(|(&at, m)| ProbeOutcome { at, replied: m.5 })
        .collect();
    (estimates, outcomes)
}

fn move_strategy() -> impl Strategy<Value = Move> {
    (
        0u8..5,
        0.0f64..1.0,
        -64i32..1024,
        -64i32..1024,
        -64i32..1024,
        any::<bool>(),
    )
}

proptest! {
    #[test]
    fn delay_average_matches_its_definition(
        step_ms in 100u64..2000,
        width_steps in 1u64..8,
        width_extra_ms in 0u64..1000,
        moves in proptest::collection::vec(move_strategy(), 0..48),
        span_kind in 0u8..3,
        span_frac in 0.0f64..1.0,
    ) {
        let case = build_case(step_ms, width_steps, width_extra_ms, &moves, span_kind, span_frac);
        let (estimates, _) = entries(&case, &moves);
        let seed = estimates.first().map_or(DelayEstimate::default(), |e| e.est);
        let want = recount(&case, seed, |inside| {
            let k = inside.len() as f64;
            let sum = |c: fn(&DelayEstimate) -> f64| {
                inside.iter().map(|&j| c(&estimates[j].est)).sum::<f64>()
            };
            (!inside.is_empty()).then(|| DelayEstimate {
                f: (sum(|e| e.f) / k).max(0.0),
                vb: (sum(|e| e.vb) / k).max(0.0),
                vr: (sum(|e| e.vr) / k).max(0.0),
            })
        });
        let got = slide(DelayMean::default(), &estimates, case.span, &case.cfg);
        check("delay", &got, &want)?;
        let got = interleaved(&case, DelayMean::default(), &estimates, &moves);
        check("delay, interleaved", &got, &want)?;
    }

    #[test]
    fn loss_counts_match_their_definition(
        step_ms in 100u64..2000,
        width_steps in 1u64..8,
        width_extra_ms in 0u64..1000,
        moves in proptest::collection::vec(move_strategy(), 0..48),
        span_kind in 0u8..3,
        span_frac in 0.0f64..1.0,
    ) {
        let case = build_case(step_ms, width_steps, width_extra_ms, &moves, span_kind, span_frac);
        let (_, outcomes) = entries(&case, &moves);
        let counts = |inside: &[usize]| {
            let replied = inside.iter().filter(|&&j| outcomes[j].replied).count();
            (inside.len() as u64, replied as u64)
        };
        let round_trip = recount(&case, 0.0, |inside| {
            let (a, b) = counts(inside);
            loss_from_counts(a, b)
        });
        let one_way = recount(&case, 0.0, |inside| {
            let (a, b) = counts(inside);
            loss_from_counts_direct(a, b)
        });
        let got = slide(LossCount::round_trip(), &outcomes, case.span, &case.cfg);
        check("round-trip loss", &got, &round_trip)?;
        let got = interleaved(&case, LossCount::round_trip(), &outcomes, &moves);
        check("round-trip loss, interleaved", &got, &round_trip)?;
        let got = slide(LossCount::one_way(), &outcomes, case.span, &case.cfg);
        check("one-way loss", &got, &one_way)?;
        let got = interleaved(&case, LossCount::one_way(), &outcomes, &moves);
        check("one-way loss, interleaved", &got, &one_way)?;
    }
}
