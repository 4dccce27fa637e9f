//! Mutation fuzz for the alert-rule front end ([`RuleSet::from_toml`],
//! then [`RuleSet::compile`]) and the shared TOML-subset reader
//! ([`obs::toml::read`]) behind it and the scenario packs.
//!
//! Inputs start from the built-in rule set rendered back to TOML (its
//! `run.*` rules with the loss rule's `min_modulated_packets` guard,
//! its `fleet.*` and its `sample.*` rules) and take a few random
//! mutations: truncation, byte flips, spliced
//! tokens, huge or negative numbers, unterminated strings, duplicated
//! lines and raw non-UTF-8 bytes, decoded lossily. The contract under
//! attack: every input returns `Ok` or an `Err` that names the line it
//! failed on, and nothing panics.

mod mutate;

use mutate::assert_structured;
use obs::toml;
use obs::RuleSet;
use proptest::prelude::*;
use std::fmt::Write as _;

/// Render a rule set in the TOML subset `from_toml` reads.
fn to_toml(set: &RuleSet) -> String {
    let mut s = String::new();
    for r in &set.rules {
        let _ = writeln!(s, "[[rule]]");
        for (key, value) in [
            ("name", &r.name),
            ("metric", &r.metric),
            ("severity", &r.severity),
        ] {
            let _ = writeln!(s, "{key} = \"{value}\"");
        }
        let numbers = [
            ("above", r.above),
            ("below", r.below),
            ("frac", r.frac),
            ("baseline_max_abs", r.baseline_max_abs),
            ("baseline_max_rel", r.baseline_max_rel),
            ("suppress_window_secs", r.suppress_window_secs),
        ];
        for (key, value) in numbers {
            if let Some(v) = value {
                let _ = writeln!(s, "{key} = {v:?}");
            }
        }
        // Counts are integers: `3.0` is a float, and refused.
        let counts = [
            ("window", r.window),
            ("min_modulated_packets", r.min_modulated_packets),
        ];
        for (key, value) in counts {
            if let Some(n) = value {
                let _ = writeln!(s, "{key} = {n}");
            }
        }
        if !r.suppress.is_empty() {
            let kinds: Vec<String> = r.suppress.iter().map(|k| format!("\"{k}\"")).collect();
            let _ = writeln!(s, "suppress = [{}]", kinds.join(", "));
        }
        s.push('\n');
    }
    s
}

/// Fragments spliced into the text at random byte offsets.
const TOKENS: [&str; 18] = [
    "[[rule]]",
    "[rule]",
    "[[",
    "]]",
    "=",
    "\"",
    "[",
    "]",
    ",",
    "#",
    "\n",
    "window = ",
    "min_modulated_packets = ",
    "metric = \"run.",
    "suppress = [\"stall_feed\"",
    "name = \"unterminated",
    "é",
    "\u{0}",
];

/// A bar of NaN compares false against every value, so a rule holding
/// one would never fire and `--check` would pass vacuously. Every
/// non-finite number is refused where it is read, naming its line.
#[test]
fn non_finite_numbers_are_refused_with_their_line() {
    for key in [
        "above",
        "below",
        "baseline_max_abs",
        "frac",
        "window",
        "min_modulated_packets",
    ] {
        for value in ["nan", "NaN", "inf", "-inf", "1e999"] {
            let text = format!(
                "[[rule]]\nname = \"x\"\nmetric = \"fleet.deadline_miss_rate\"\n{key} = {value}\n"
            );
            let err = RuleSet::from_toml(&text).expect_err(&text);
            assert_structured(&err, "rules");
            assert!(err.starts_with("rules line 4: "), "{err}");
        }
    }
}

#[test]
fn builtin_rules_round_trip_through_the_renderer() {
    let builtin = RuleSet::builtin();
    assert_eq!(RuleSet::from_toml(&to_toml(&builtin)), Ok(builtin));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    #[test]
    fn mutated_rule_text_parses_or_fails_cleanly(
        ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..6),
    ) {
        let mut bytes = to_toml(&RuleSet::builtin()).into_bytes();
        for op in ops {
            mutate::apply(&mut bytes, op, &TOKENS);
        }
        let text = String::from_utf8_lossy(&bytes);

        match RuleSet::from_toml(&text) {
            // A parsed set compiles or reports why not.
            Ok(set) => drop(set.compile()),
            Err(e) => assert_structured(&e, "rules"),
        }

        let read = toml::read(&text, "fuzz", "rule", |t| {
            let _ = t.get("name", toml::string);
            let _ = t.need("window", toml::integer::<u64>);
            t.rest(|key, value| {
                let _ = toml::string(key, value);
                let _ = toml::number(key, value);
                let _ = toml::boolean(key, value);
                let _ = toml::array(key, value, toml::number);
                if key.is_empty() {
                    return Err("empty key".into());
                }
                Ok(())
            })
        });
        if let Err(e) = read {
            assert_structured(&e, "fuzz");
        }
    }
}
