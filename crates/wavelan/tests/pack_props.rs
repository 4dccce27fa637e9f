//! Scenario-pack parser property tests: arbitrary and
//! structurally-malformed TOML inputs must never panic the parser,
//! and the semantic failure modes (unknown family, missing
//! params, out-of-range rates) must surface as structured errors.

use proptest::collection;
use proptest::prelude::*;
use wavelan::registry::{Registry, ScenarioPack};

/// Raw bytes → lossy string: hostile line soup for the parser.
fn arb_garbage() -> impl Strategy<Value = String> {
    collection::vec(any::<u8>(), 0..600).prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// TOML-shaped lines assembled from plausible fragments, so the fuzz
/// reaches deep into the key/value handling instead of dying on line 1.
fn arb_tomlish() -> impl Strategy<Value = String> {
    let line = prop_oneof![
        Just("[[model]]".to_string()),
        Just("[model]".to_string()),
        Just("name = \"fuzz\"".to_string()),
        Just("name = fuzz".to_string()),
        Just("duration_secs = 60".to_string()),
        Just("duration_secs = -3".to_string()),
        Just("duration_secs = 1e99".to_string()),
        Just("family = \"leo\"".to_string()),
        Just("family = \"nonesuch\"".to_string()),
        Just("share = 0".to_string()),
        Just("share = 2.5".to_string()),
        Just("pass_secs = 45".to_string()),
        Just("pass_secs = nan".to_string()),
        Just("operator = \"op1\"".to_string()),
        Just("rat = \"5g\"".to_string()),
        Just("loss = 7.0".to_string()),
        Just("bw_mbps = -1".to_string()),
        Just("= = =".to_string()),
        Just("#comment \" with quote".to_string()),
        Just(String::new()),
        (any::<u32>(), any::<f64>()).prop_map(|(k, v)| format!("k{k} = {v}")),
        collection::vec(any::<u8>(), 0..40)
            .prop_map(|b| String::from_utf8_lossy(&b).replace('\n', " ")),
    ];
    collection::vec(line, 0..25).prop_map(|ls| ls.join("\n"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn raw_garbage_never_panics(s in arb_garbage()) {
        let _ = ScenarioPack::from_toml(&s).map(|p| p.validate(Registry::builtin()));
    }

    #[test]
    fn tomlish_inputs_never_panic(s in arb_tomlish()) {
        if let Ok(pack) = ScenarioPack::from_toml(&s) {
            // Whatever parsed must either validate or produce an Err —
            // never a panic; and a validated pack must be buildable.
            if pack.validate(Registry::builtin()).is_ok() {
                let mut rng = netsim::SimRng::seed_from_u64(1);
                for e in &pack.entries {
                    prop_assert!(Registry::builtin()
                        .build(&e.spec, pack.duration(), &mut rng)
                        .is_ok());
                }
            }
        }
    }
}

#[test]
fn unknown_family_is_a_structured_error() {
    let toml = "name = \"x\"\nduration_secs = 30\n\n[[model]]\nfamily = \"martian\"\n";
    let pack = ScenarioPack::from_toml(toml).unwrap();
    let err = pack.validate(Registry::builtin()).err().unwrap();
    assert!(err.contains("unknown model family 'martian'"), "{err}");
    assert!(err.contains("registered:"), "{err}");
}

#[test]
fn missing_required_param_is_a_structured_error() {
    let toml = "name = \"x\"\nduration_secs = 30\n\n[[model]]\nfamily = \"piecewise\"\n";
    let pack = ScenarioPack::from_toml(toml).unwrap();
    let err = pack.validate(Registry::builtin()).err().unwrap();
    assert!(err.contains("missing required param 'scenario'"), "{err}");
}

#[test]
fn out_of_range_rates_are_structured_errors() {
    for (param, needle) in [
        ("loss = 3.0", "loss must be in [0, 1]"),
        ("bw_mbps = 0", "bw_mbps must be > 0"),
        ("pass_secs = -10", "pass_secs must be > 0"),
        ("outage_ms = 999999", "outage_ms must be in [0, pass)"),
    ] {
        let toml =
            format!("name = \"x\"\nduration_secs = 30\n\n[[model]]\nfamily = \"leo\"\n{param}\n");
        let pack = ScenarioPack::from_toml(&toml).unwrap();
        let err = pack.validate(Registry::builtin()).err().unwrap();
        assert!(err.contains(needle), "{param}: {err}");
    }
}

#[test]
fn syntax_errors_carry_line_numbers() {
    let toml = "name = \"x\"\nduration_secs = 30\nwat\n";
    let err = ScenarioPack::from_toml(toml).err().unwrap();
    assert!(err.contains("line 3"), "{err}");

    let toml = "name = \"x\"\nduration_secs = 30\n[table]\n";
    let err = ScenarioPack::from_toml(toml).err().unwrap();
    assert!(err.contains("line 3") && err.contains("[[model]]"), "{err}");
}

#[test]
fn empty_pack_and_zero_share_rejected() {
    let pack = ScenarioPack::from_toml("name = \"x\"\nduration_secs = 9\n").unwrap();
    let err = pack.validate(Registry::builtin()).err().unwrap();
    assert!(err.contains("no [[model]] entries"), "{err}");

    let err = ScenarioPack::from_toml(
        "name = \"x\"\nduration_secs = 9\n\n[[model]]\nfamily = \"leo\"\nshare = 0\n",
    )
    .err()
    .unwrap();
    assert!(err.contains("'share' must be a positive integer"), "{err}");
}
