//! Property tests for the flight recorder's ring-buffer invariants:
//! bounded retention, oldest-first eviction (contiguous trailing seq
//! range), and the never-split guarantee — a span's begin and end can
//! never land on opposite sides of an eviction, because only complete
//! records enter the ring.

use obs::flight::{FlightRecorder, Stage};
use proptest::prelude::*;

/// One randomized recorder operation.
/// `(kind, t, d)`: 0 = instant at `t`; 1 = complete span `[t, t+d]`.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    proptest::collection::vec((0u8..2, 0u64..1_000_000, 0u64..1_000), 1..200)
}

proptest! {
    #[test]
    fn ring_is_bounded_contiguous_and_never_splits(
        ops in arb_ops(),
        capacity in 1usize..24,
    ) {
        let mut r = FlightRecorder::new(capacity);
        for &(kind, t, d) in &ops {
            if kind == 0 {
                r.instant(Stage::Collect, "i", Some(t), None, t, String::new());
            } else {
                r.span(Stage::Modulate, "s", Some(t), None, t, t + d, String::new());
            }
            // Bounded retention at every step, not just at the end.
            prop_assert!(r.len() <= r.capacity(), "ring over capacity");
            prop_assert_eq!(
                r.evicted() + r.len() as u64,
                r.pushed(),
                "evicted + retained != pushed"
            );
        }

        // Every record is pushed as one complete record.
        prop_assert_eq!(r.pushed(), ops.len() as u64, "every record must be pushed");

        let seqs: Vec<u64> = r.records().map(|rec| rec.seq).collect();
        if let (Some(&min), Some(&max)) = (seqs.first(), seqs.last()) {
            // Oldest-first eviction: the ring retains exactly the
            // trailing contiguous window of sequence numbers.
            prop_assert_eq!(max - min + 1, seqs.len() as u64, "seq range not contiguous");
            prop_assert_eq!(max + 1, r.pushed(), "newest record missing");
            prop_assert_eq!(min, r.evicted(), "oldest retained != eviction count");
            prop_assert!(
                seqs.windows(2).all(|w| w[1] == w[0] + 1),
                "seqs not ascending by one"
            );
        }

        // Never-split: every retained record is complete (an end at or
        // after its begin); no bare begin can survive in the ring.
        for rec in r.records() {
            prop_assert!(rec.end_ns >= rec.begin_ns, "record with end before begin");
        }
    }
}
