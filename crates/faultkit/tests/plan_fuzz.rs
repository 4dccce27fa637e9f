//! Fuzz for the fault-plan reader ([`FaultPlan::from_toml`]): arbitrary
//! text, and the committed plans in `packs/faults/` under a few random
//! mutations, parse or fail with an error that names its line, and
//! nothing panics.

#[path = "../../obs/tests/mutate/mod.rs"]
mod mutate;

use faultkit::FaultPlan;
use mutate::assert_structured;
use proptest::collection;
use proptest::prelude::*;

/// Fragments spliced into a plan at random byte offsets.
const TOKENS: [&str; 16] = [
    "[[fault]]",
    "[fault]",
    "[[",
    "]]",
    "=",
    "\"",
    "#",
    "\n",
    "kind = \"",
    "kind = \"clock_jump\"\n",
    "kind = \"kill_worker\"\nidx = ",
    "delta_ms = -",
    "at_byte = ",
    "pct = ",
    "é",
    "\u{0}",
];

/// The committed plans, in name order.
fn committed() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../packs/faults");
    let mut paths: Vec<_> = (std::fs::read_dir(dir).expect("packs/faults exists"))
        .map(|e| e.unwrap().path())
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect()
}

#[test]
fn committed_plans_parse() {
    let plans = committed();
    assert_eq!(plans.len(), 9);
    for text in plans {
        FaultPlan::from_toml(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    #[test]
    fn arbitrary_text_parses_or_fails_cleanly(bytes in collection::vec(any::<u8>(), 0..600)) {
        if let Err(e) = FaultPlan::from_toml(&String::from_utf8_lossy(&bytes)) {
            assert_structured(&e, "fault plan");
        }
    }

    #[test]
    fn mutated_committed_plans_parse_or_fail_cleanly(
        pick in any::<usize>(),
        ops in collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..6),
    ) {
        let plans = committed();
        let mut bytes = plans[pick % plans.len()].clone().into_bytes();
        for op in ops {
            mutate::apply(&mut bytes, op, &TOKENS);
        }
        if let Err(e) = FaultPlan::from_toml(&String::from_utf8_lossy(&bytes)) {
            assert_structured(&e, "fault plan");
        }
    }
}
