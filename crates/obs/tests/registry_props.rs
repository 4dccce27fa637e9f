//! Property coverage for the merge algebra the fleet path leans on.
//!
//! Shard outputs fold into fleet aggregates through two mechanisms:
//! [`MetricsRegistry::merge`] (stage-prefixed registry folding) and
//! the telemetry [`TopK`] trackers. Both must be order-insensitive in
//! exactly the ways the merge code assumes — these proptests pin that
//! down:
//!
//! * merging registries under **distinct prefixes** commutes (the
//!   fleet merges shard registries under per-stage prefixes);
//! * **counters** under one prefix commute and associate (counters
//!   add; gauges and hists are documented last-wins overwrites, so the
//!   fleet only routes commutative data through counters);
//! * [`TopK::offer_max`] is permutation-invariant even under tied
//!   weights (the deterministic `(weight desc, key asc)` total order),
//!   which is what makes per-shard worst-client tracking merge into a
//!   layout-invariant fleet view.

use obs::{MetricsRegistry, TopK};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// A registry of counters built from `(suffix index, value)` pairs.
fn counters_from(pairs: &[(u8, u32)]) -> MetricsRegistry {
    let mut r = MetricsRegistry::new();
    for &(k, v) in pairs {
        r.add_counter(&format!("c{k}"), u64::from(v));
    }
    r
}

fn snapshot(r: &MetricsRegistry) -> String {
    serde_json::to_string(r).expect("registry serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging two stage registries under distinct prefixes lands in
    /// the same snapshot whichever arrives first — including gauges
    /// and hists, which cannot collide across prefixes.
    #[test]
    fn distinct_prefix_merge_commutes(
        a in pvec((0u8..6, 0u32..1000), 0..8),
        b in pvec((0u8..6, 0u32..1000), 0..8),
        ga in 0u32..1000,
        gb in 0u32..1000,
    ) {
        let mut ra = counters_from(&a);
        ra.set_gauge("load", f64::from(ga) / 10.0);
        let mut rb = counters_from(&b);
        rb.set_gauge("load", f64::from(gb) / 10.0);

        let mut ab = MetricsRegistry::new();
        ab.merge("alpha", &ra);
        ab.merge("beta", &rb);
        let mut ba = MetricsRegistry::new();
        ba.merge("beta", &rb);
        ba.merge("alpha", &ra);
        prop_assert_eq!(snapshot(&ab), snapshot(&ba));
    }

    /// Counter-only registries merged under one prefix commute and
    /// associate: any merge tree over the same shard registries yields
    /// the same snapshot (the additive algebra the fleet relies on).
    #[test]
    fn same_prefix_counter_merge_commutes_and_associates(
        a in pvec((0u8..5, 0u32..1000), 0..8),
        b in pvec((0u8..5, 0u32..1000), 0..8),
        c in pvec((0u8..5, 0u32..1000), 0..8),
    ) {
        let (ra, rb, rc) = (counters_from(&a), counters_from(&b), counters_from(&c));

        // (a ⊕ b) ⊕ c
        let mut left = MetricsRegistry::new();
        left.merge("shard", &ra);
        left.merge("shard", &rb);
        left.merge("shard", &rc);
        // c ⊕ (b ⊕ a)
        let mut right = MetricsRegistry::new();
        right.merge("shard", &rc);
        right.merge("shard", &rb);
        right.merge("shard", &ra);
        // a ⊕ (c ⊕ b)
        let mut mixed = MetricsRegistry::new();
        mixed.merge("shard", &ra);
        mixed.merge("shard", &rc);
        mixed.merge("shard", &rb);

        let want = snapshot(&left);
        prop_assert_eq!(&want, &snapshot(&right));
        prop_assert_eq!(&want, &snapshot(&mixed));
    }

    /// `offer_max` top-K is a pure function of the offered *set*:
    /// permuting the stream never changes the ranked result, even with
    /// tied weights competing for the last slot (ties resolve by the
    /// smaller key, a total order).
    #[test]
    fn topk_offer_max_is_permutation_invariant_under_ties(
        // Keys from a small domain and weights from a tiny range force
        // dense ties; dedup to the offer-once regime the fleet uses.
        raw in pvec((0u64..32, 0u64..4), 1..24),
        capacity in 1usize..6,
        rot in 0usize..24,
    ) {
        let mut seen = std::collections::BTreeSet::new();
        let fwd: Vec<(u64, u64)> = raw.into_iter().filter(|(k, _)| seen.insert(*k)).collect();
        let mut rev = fwd.clone();
        rev.reverse();
        let mut rotated = fwd.clone();
        let pivot = rot % rotated.len().max(1);
        rotated.rotate_left(pivot);

        let feed = |stream: &[(u64, u64)]| {
            let mut t = TopK::new(capacity);
            for &(k, w) in stream {
                t.offer_max(k, w);
            }
            t.ranked()
        };
        let want = feed(&fwd);
        prop_assert_eq!(&want, &feed(&rev));
        prop_assert_eq!(&want, &feed(&rotated));

        // The ranking is the deterministic total order, and for
        // offer-once streams it is exactly the K best of the set.
        let mut best: Vec<(u64, u64)> = fwd.clone();
        best.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        best.truncate(capacity);
        let got: Vec<(u64, u64)> = want.iter().map(|e| (e.key, e.weight)).collect();
        let want_pairs: Vec<(u64, u64)> = best;
        prop_assert_eq!(got, want_pairs);
    }

    /// Merging per-shard `offer_max` trackers is independent of shard
    /// order and equals one tracker fed the whole stream — the exact
    /// merge the fleet performs over per-client p95 entries (each key
    /// offered in exactly one shard).
    #[test]
    fn topk_shard_merge_matches_global_feed(
        raw in pvec((0u64..24, 0u64..5), 1..20),
        capacity in 1usize..5,
        split in 0usize..20,
    ) {
        let mut seen = std::collections::BTreeSet::new();
        let all: Vec<(u64, u64)> = raw.into_iter().filter(|(k, _)| seen.insert(*k)).collect();
        let cut = split % (all.len() + 1);
        let (left, right) = all.split_at(cut);

        let feed = |stream: &[(u64, u64)]| {
            let mut t = TopK::new(capacity);
            for &(k, w) in stream {
                t.offer_max(k, w);
            }
            t
        };
        let global = feed(&all).ranked();

        let mut lr = feed(left);
        lr.merge_max(&feed(right));
        let mut rl = feed(right);
        rl.merge_max(&feed(left));
        prop_assert_eq!(&global, &lr.ranked());
        prop_assert_eq!(&global, &rl.ranked());
    }
}
