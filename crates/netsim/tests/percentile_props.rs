//! Property test for [`Summary::percentiles`]: the selection-based
//! order statistics must agree bit for bit with a full `total_cmp` sort
//! followed by the same closest-rank interpolation, on inputs full of
//! duplicates, signed zeros, infinities and NaNs.

use netsim::stats::Summary;
use proptest::prelude::*;

/// Reference: sort a copy, then interpolate between closest ranks.
fn reference(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn arb_sample() -> impl Strategy<Value = f64> {
    let special = prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(-f64::NAN),
    ];
    prop_oneof![
        // Heavy duplicates: a pool of eight values.
        4 => (0u8..8).prop_map(|k| f64::from(k) * 0.5 - 1.0),
        1 => special,
        2 => -1e6f64..1e6,
        // Any bit pattern: subnormals and NaN payloads too.
        1 => any::<u64>().prop_map(f64::from_bits),
    ]
}

fn arb_percentile() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(50.0),
        Just(95.0),
        Just(99.0),
        Just(100.0),
        0.0f64..100.0,
        -10.0f64..110.0,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn percentiles_match_a_full_sort_bitwise(
        xs in proptest::collection::vec(arb_sample(), 1..2_000),
        extra in (arb_percentile(), arb_percentile(), arb_percentile()),
    ) {
        let s = Summary::of(&xs);
        let ps = [0.0, 50.0, 95.0, 99.0, 100.0, extra.0, extra.1, extra.2];
        let got = s.percentiles(ps).expect("non-empty");
        for (v, p) in got.into_iter().zip(ps) {
            let want = reference(&xs, p);
            prop_assert_eq!(v.to_bits(), want.to_bits(), "p{} of {} samples", p, xs.len());
            let single = s.percentile(p).expect("non-empty");
            prop_assert_eq!(single.to_bits(), want.to_bits(), "single p{}", p);
        }
    }
}
