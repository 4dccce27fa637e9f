//! Properties of the registry's key-sorted tables.
//!
//! A [`MetricsRegistry`] keeps its counters, gauges and histograms in
//! tables sorted by key, so what it serializes depends only on what was
//! recorded, not on the order it was recorded in:
//!
//! * any insertion order of `set_*` and `add_counter` calls gives the
//!   same JSON bytes;
//! * counters add commutatively, to the sum of what was added;
//! * a key that parsed JSON repeats keeps its last value;
//! * a registry keyed by `&'static str` names equals, serializes and
//!   prints like its own parsed copy, whose keys are owned.

use obs::{Hist, MetricsRegistry};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn snapshot(r: &MetricsRegistry) -> String {
    serde_json::to_string(r).expect("registry serializes")
}

/// Apply one operation: `kind` picks `set_counter`, `add_counter`,
/// `set_gauge` or `set_hist`, each over its own key names.
fn apply(r: &mut MetricsRegistry, (kind, key, value): (u8, u8, u32)) {
    match kind {
        0 => r.set_counter(format!("set.c{key}"), u64::from(value)),
        1 => r.add_counter(format!("add.c{key}"), u64::from(value)),
        2 => r.set_gauge(format!("g{key}"), f64::from(value) / 8.0),
        _ => {
            let mut h = Hist::new(0.0, 1_000.0, 50);
            h.observe(f64::from(value));
            r.set_hist(format!("h{key}"), h.snapshot());
        }
    }
}

/// The static names [`apply_static`] records under.
const STATIC_KEYS: [&str; 4] = ["a.count", "b.count", "m.level", "z.delay"];

/// Apply one operation like [`apply`], under a static key.
fn apply_static(r: &mut MetricsRegistry, (kind, key, value): (u8, u8, u32)) {
    let name = STATIC_KEYS[usize::from(key) % STATIC_KEYS.len()];
    match kind {
        0 => r.set_counter(name, u64::from(value)),
        1 => r.add_counter(name, u64::from(value)),
        2 => r.set_gauge(name, f64::from(value) / 8.0),
        _ => {
            let mut h = Hist::new(0.0, 1_000.0, 50);
            h.observe(f64::from(value));
            r.set_hist(name, h.snapshot());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Borrowed and owned keys are the same keys: the registry parsed
    /// back from a static-keyed registry's JSON is equal to it, writes
    /// the same bytes and prints the same `Debug`.
    #[test]
    fn static_keys_equal_their_parsed_owned_copies(
        ops in pvec((0u8..4, 0u8..8, 0u32..1000), 0..32),
    ) {
        let mut r = MetricsRegistry::new();
        for &op in &ops {
            apply_static(&mut r, op);
        }
        let json = snapshot(&r);
        let back: MetricsRegistry = serde_json::from_str(&json).expect("registry parses");
        prop_assert_eq!(&back, &r);
        prop_assert_eq!(snapshot(&back), json);
        prop_assert_eq!(format!("{back:?}"), format!("{r:?}"));
    }

    /// Recording the same operations in another order gives the same
    /// bytes. A `set_*` key is set once (a second set would overwrite,
    /// which no order-free property can hold); adds may repeat a key.
    #[test]
    fn insertion_order_does_not_change_the_bytes(
        ops in pvec((0u8..4, 0u8..8, 0u32..1000, any::<u32>()), 0..32),
    ) {
        let mut seen = Vec::new();
        let ops: Vec<_> = ops
            .into_iter()
            .filter(|&(kind, key, _, _)| kind == 1 || {
                let fresh = !seen.contains(&(kind, key));
                seen.push((kind, key));
                fresh
            })
            .collect();
        let mut shuffled = ops.clone();
        shuffled.sort_by_key(|&(_, _, _, rank)| rank);

        let (mut a, mut b) = (MetricsRegistry::new(), MetricsRegistry::new());
        for &(kind, key, value, _) in &ops {
            apply(&mut a, (kind, key, value));
        }
        for &(kind, key, value, _) in shuffled.iter().rev() {
            apply(&mut b, (kind, key, value));
        }
        prop_assert_eq!(snapshot(&a), snapshot(&b));
        prop_assert_eq!(&a, &b);
        let names: Vec<&str> = a.counters().map(|(k, _)| k).collect();
        prop_assert!(names.windows(2).all(|w| w[0] < w[1]), "counters sorted: {:?}", names);
    }

    /// Adding counters in either order gives the sum of the adds under
    /// every key, as if each total had been set once.
    #[test]
    fn counters_add_commutatively(
        adds in pvec((0u8..6, 0u32..1000), 0..24),
    ) {
        let mut forward = MetricsRegistry::new();
        for &(k, v) in &adds {
            forward.add_counter(format!("c{k}"), u64::from(v));
        }
        let mut backward = MetricsRegistry::new();
        for &(k, v) in adds.iter().rev() {
            backward.add_counter(format!("c{k}"), u64::from(v));
        }
        let mut totals = BTreeMap::new();
        for &(k, v) in &adds {
            *totals.entry(format!("c{k}")).or_insert(0u64) += u64::from(v);
        }
        let mut set = MetricsRegistry::new();
        for (k, v) in totals {
            set.set_counter(k, v);
        }
        prop_assert_eq!(snapshot(&forward), snapshot(&backward));
        prop_assert_eq!(snapshot(&forward), snapshot(&set));
    }

    /// A key repeated in a parsed object keeps the last value given,
    /// and the parsed registry serializes its keys sorted, once each.
    #[test]
    fn a_repeated_key_in_parsed_json_keeps_the_last_value(
        counters in pvec((0u8..5, 0u32..1000), 1..16),
        gauges in pvec((0u8..5, 0u32..1000), 0..16),
    ) {
        let object = |entries: &[(u8, u32)], scale: &str| {
            let fields: Vec<String> = entries
                .iter()
                .map(|(k, v)| format!("\"k{k}\":{v}{scale}"))
                .collect();
            format!("{{{}}}", fields.join(","))
        };
        let json = format!(
            "{{\"counters\":{},\"gauges\":{},\"hists\":{{}}}}",
            object(&counters, ""),
            object(&gauges, ".5"),
        );
        let r: MetricsRegistry = serde_json::from_str(&json).expect("registry parses");

        let last_counters: BTreeMap<String, u64> = counters
            .iter()
            .map(|&(k, v)| (format!("k{k}"), u64::from(v)))
            .collect();
        let last_gauges: BTreeMap<String, f64> = gauges
            .iter()
            .map(|&(k, v)| (format!("k{k}"), f64::from(v) + 0.5))
            .collect();
        for (k, &v) in &last_counters {
            prop_assert_eq!(r.counter(k), Some(v));
        }
        for (k, &v) in &last_gauges {
            prop_assert_eq!(r.gauge(k), Some(v));
        }
        prop_assert_eq!(r.len(), last_counters.len() + last_gauges.len());
        let names: Vec<&str> = r.counters().map(|(k, _)| k).collect();
        let want: Vec<&str> = last_counters.keys().map(String::as_str).collect();
        prop_assert_eq!(names, want);
    }
}
