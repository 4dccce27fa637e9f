//! Property coverage for the registry merge algebra the fleet path
//! leans on.
//!
//! Shard outputs fold into fleet aggregates through
//! [`MetricsRegistry::merge`] (stage-prefixed registry folding), which
//! must be order-insensitive in exactly the ways the merge code
//! assumes — these proptests pin that down:
//!
//! * merging registries under **distinct prefixes** commutes (the
//!   fleet merges shard registries under per-stage prefixes);
//! * **counters** under one prefix commute and associate (counters
//!   add; gauges and hists are documented last-wins overwrites, so the
//!   fleet only routes commutative data through counters).

use obs::MetricsRegistry;
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
}
