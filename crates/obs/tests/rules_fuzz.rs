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

use obs::toml::{self, Line};
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
            ("window", r.window.map(|w| w as f64)),
            ("frac", r.frac),
            ("baseline_max_abs", r.baseline_max_abs),
            ("baseline_max_rel", r.baseline_max_rel),
            ("suppress_window_secs", r.suppress_window_secs),
            (
                "min_modulated_packets",
                r.min_modulated_packets.map(|n| n as f64),
            ),
        ];
        for (key, value) in numbers {
            if let Some(v) = value {
                let _ = writeln!(s, "{key} = {v:?}");
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

/// Values a `key = ` line is rewritten to.
const VALUES: [&str; 14] = [
    "1e999",
    "-1e999",
    "18446744073709551616",
    "-18446744073709551616",
    "-5",
    "0",
    "0.5",
    "nan",
    "inf",
    "-inf",
    "0x10",
    "\"",
    "\"text\"",
    "",
];

/// One mutation: `(op, a, b)` with `a`, `b` reduced modulo whatever
/// they index.
type Op = (u8, usize, usize);

fn apply(bytes: &mut Vec<u8>, (op, a, b): Op) {
    let len = bytes.len();
    let lines = |bytes: &[u8]| -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut start = 0;
        for (i, &c) in bytes.iter().enumerate() {
            if c == b'\n' {
                out.push((start, i));
                start = i + 1;
            }
        }
        out.push((start, bytes.len()));
        out
    };
    match op % 7 {
        // Truncate.
        0 => bytes.truncate(a % (len + 1)),
        // Flip bits of one byte (maybe into invalid UTF-8).
        1 if len > 0 => bytes[a % len] ^= (b % 255 + 1) as u8,
        // Splice a token.
        2 => {
            let at = a % (len + 1);
            bytes.splice(at..at, TOKENS[b % TOKENS.len()].bytes());
        }
        // Rewrite a value: huge, negative, non-finite or unterminated.
        3 => {
            let ls = lines(bytes);
            let (start, end) = ls[a % ls.len()];
            if let Some(eq) = bytes[start..end].iter().position(|&c| c == b'=') {
                let v = VALUES[b % VALUES.len()];
                bytes.splice(start + eq + 1..end, format!(" {v}").into_bytes());
            }
        }
        // Drop a line's closing quote.
        4 => {
            let ls = lines(bytes);
            let (start, end) = ls[a % ls.len()];
            if let Some(q) = bytes[start..end].iter().rposition(|&c| c == b'"') {
                bytes.remove(start + q);
            }
        }
        // Duplicate a line (a repeated key or table header) elsewhere.
        5 => {
            let ls = lines(bytes);
            let (start, end) = ls[a % ls.len()];
            let mut line = bytes[start..end].to_vec();
            line.push(b'\n');
            let (at, _) = ls[b % ls.len()];
            bytes.splice(at..at, line);
        }
        // A raw byte.
        _ => {
            let at = a % (len + 1);
            bytes.insert(at, b as u8);
        }
    }
}

/// A `from_toml` or `read` error names its line.
fn assert_structured(err: &str, label: &str) {
    let rest = err
        .strip_prefix(label)
        .and_then(|r| r.strip_prefix(" line "))
        .unwrap_or_else(|| panic!("unstructured error: {err:?}"));
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    assert!(
        digits > 0 && rest[digits..].starts_with(": "),
        "unstructured error: {err:?}"
    );
}

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
            apply(&mut bytes, op);
        }
        let text = String::from_utf8_lossy(&bytes);

        match RuleSet::from_toml(&text) {
            // A parsed set compiles or reports why not.
            Ok(set) => drop(set.compile()),
            Err(e) => assert_structured(&e, "rules"),
        }

        let read = toml::read(&text, "fuzz", "rule", |line| {
            if let Line::Entry(key, value) = line {
                let _ = toml::string(key, value);
                let _ = toml::number(key, value);
                if key.is_empty() {
                    return Err("empty key".into());
                }
            }
            Ok(())
        });
        if let Err(e) = read {
            assert_structured(&e, "fuzz");
        }
    }
}
