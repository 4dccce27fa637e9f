//! Fuzz for the scenario-file reader ([`Scenario::from_toml`]):
//! arbitrary text, and the four paper scenarios' dumps
//! ([`Scenario::to_toml`]) under a few random mutations, parse or fail
//! with an error that names its line, and nothing panics. Whatever
//! parses dumps to a file that reads back to the same dump.

#[path = "../../obs/tests/mutate/mod.rs"]
mod mutate;

use mutate::assert_structured;
use proptest::collection;
use proptest::prelude::*;
use wavelan::Scenario;

/// Fragments spliced into a scenario file at random byte offsets.
const TOKENS: [&str; 16] = [
    "[[checkpoint]]",
    "[checkpoint]",
    "[[",
    "]]",
    "=",
    "\"",
    "#",
    "\n",
    ",",
    "[1, 2]",
    "label = \"",
    "loss = [",
    "cross_users = ",
    "stationary = true\n",
    "é",
    "\u{0}",
];

fn check(text: &str) {
    match Scenario::from_toml(text) {
        Ok(sc) => {
            let dump = sc.to_toml();
            let back = Scenario::from_toml(&dump).unwrap_or_else(|e| panic!("{e}\n{dump}"));
            assert_eq!(back.to_toml(), dump);
        }
        Err(e) => assert_structured(&e, "scenario"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    #[test]
    fn arbitrary_text_parses_or_fails_cleanly(bytes in collection::vec(any::<u8>(), 0..600)) {
        check(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_paper_scenarios_parse_or_fail_cleanly(
        pick in any::<usize>(),
        ops in collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..6),
    ) {
        let all = Scenario::all();
        let mut bytes = all[pick % all.len()].to_toml().into_bytes();
        for op in ops {
            mutate::apply(&mut bytes, op, &TOKENS);
        }
        check(&String::from_utf8_lossy(&bytes));
    }
}
