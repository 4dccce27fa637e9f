//! Property coverage for the telemetry export surfaces the alert and
//! diff planes consume.
//!
//! Two guarantees matter downstream:
//!
//! * **JSONL round-trip** — `tracemod alerts DIR` re-reads the
//!   `telemetry.jsonl` rows `fleet --out DIR` wrote; every [`SamplePoint`]
//!   field must survive serialize → parse bit-exactly, and a whole
//!   series must survive `to_jsonl` → per-line parse in order.
//! * **Prometheus exposition shape** — scrapers only tolerate the text
//!   format: every sample line needs a preceding `# HELP` + `# TYPE`
//!   pair for its metric, metric names must match the Prometheus
//!   grammar, and label values / HELP text must be escaped so
//!   adversarial keys cannot break line framing.

use obs::telemetry::{escape_help, escape_label_value, valid_metric_name};
use obs::{FleetTelemetry, SamplePoint, TopEntry, TELEMETRY_SCHEMA};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

fn point(seed: &[u64; 12]) -> SamplePoint {
    SamplePoint {
        t_ns: seed[0],
        events: seed[1],
        queue_depth: seed[2],
        packets_live: seed[3],
        mod_held: seed[4],
        probes_sent: seed[5],
        rtts_completed: seed[6],
        packets_lost: seed[7],
        released: seed[8],
        abs_delay_error_ns: seed[9],
        station_frames: seed[10],
        degraded_clients: seed[11],
    }
}

/// Characters adversarial to the exposition format, plus benign ones;
/// the shim has no `Arbitrary for String`, so strings are drawn as
/// palette indices.
const PALETTE: [char; 8] = ['a', 'Z', '\\', '"', '\n', ' ', '0', 'é'];

fn palette_string(ixs: &[usize]) -> String {
    ixs.iter().map(|&i| PALETTE[i]).collect()
}

fn telemetry_with(series: Vec<SamplePoint>) -> FleetTelemetry {
    FleetTelemetry {
        schema: TELEMETRY_SCHEMA,
        interval_ns: 1_000_000_000,
        evicted: 0,
        series,
        worst_clients: vec![TopEntry {
            key: 7,
            weight: 1234,
        }],
        hot_stations: vec![TopEntry {
            key: 2,
            weight: 998,
        }],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One row: serialize → parse is the identity on every field,
    /// including u64 values past 2^53 where a float-routed codec
    /// would round.
    #[test]
    fn sample_point_round_trips_through_json(fields in pvec(any::<u64>(), 12)) {
        let row = point(&<[u64; 12]>::try_from(fields).expect("12 fields"));
        let json = serde_json::to_string(&row).expect("row serializes");
        let back: SamplePoint = serde_json::from_str(&json).expect("row parses");
        prop_assert_eq!(row, back);
    }

    /// A whole series: `to_jsonl` emits one parseable object per row,
    /// in series order, and re-emitting the parsed rows reproduces the
    /// bytes (the determinism contract `diff-runs` leans on).
    #[test]
    fn series_round_trips_through_jsonl(rows in pvec(pvec(any::<u64>(), 12), 0..20)) {
        let series: Vec<SamplePoint> = rows
            .iter()
            .map(|f| point(&<[u64; 12]>::try_from(f.clone()).expect("12 fields")))
            .collect();
        let tel = telemetry_with(series.clone());
        let jsonl = tel.to_jsonl();
        let parsed: Vec<SamplePoint> = jsonl
            .lines()
            .map(|l| serde_json::from_str(l).expect("line parses"))
            .collect();
        prop_assert_eq!(&parsed, &series);
        let reemitted = telemetry_with(parsed).to_jsonl();
        prop_assert_eq!(reemitted, jsonl);
    }

    /// Label-value escaping: the escaped form contains no raw newline,
    /// no unescaped quote, and round-trips (unescape restores the
    /// original), so arbitrary keys cannot break exposition framing.
    #[test]
    fn label_value_escaping_is_invertible(ixs in pvec(0usize..8, 0..24)) {
        let v = palette_string(&ixs);
        let esc = escape_label_value(&v);
        prop_assert!(!esc.contains('\n'));
        // Every quote must be preceded by an odd run of backslashes.
        let bytes = esc.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'"' {
                let back = bytes[..i].iter().rev().take_while(|&&c| c == b'\\').count();
                prop_assert!(back % 2 == 1, "unescaped quote in {esc:?}");
            }
        }
        // Invert: \\ → \, \" → ", \n → newline.
        let mut out = String::new();
        let mut it = esc.chars();
        while let Some(c) = it.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match it.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => prop_assert!(false, "dangling backslash in {esc:?}"),
            }
        }
        prop_assert_eq!(out, v);
    }

    /// HELP escaping strips raw newlines and keeps backslashes
    /// self-describing.
    #[test]
    fn help_escaping_never_breaks_lines(ixs in pvec(0usize..8, 0..24)) {
        let esc = escape_help(&palette_string(&ixs));
        prop_assert!(!esc.contains('\n'));
    }
}

/// Every sample line in the exposition names a metric that (a) matches
/// the Prometheus name grammar and (b) was announced by `# HELP` and
/// `# TYPE` lines earlier in the stream.
#[test]
fn prometheus_exposition_is_well_formed() {
    let series: Vec<SamplePoint> = (1..=5)
        .map(|i| SamplePoint {
            t_ns: i * 1_000_000_000,
            events: 10 * i,
            queue_depth: i,
            packets_live: 2 * i,
            mod_held: i,
            probes_sent: i,
            rtts_completed: i,
            packets_lost: 0,
            released: i,
            abs_delay_error_ns: 1000 * i,
            station_frames: 3 * i,
            degraded_clients: 0,
        })
        .collect();
    let text = telemetry_with(series).to_prometheus();
    let mut announced: Vec<String> = Vec::new();
    let mut typed: Vec<String> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().expect("HELP names a metric");
            assert!(valid_metric_name(name), "bad HELP name {name:?}");
            announced.push(name.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let name = it.next().expect("TYPE names a metric");
            let kind = it.next().expect("TYPE names a kind");
            assert!(matches!(kind, "counter" | "gauge"), "bad kind {kind:?}");
            assert!(
                announced.contains(&name.to_string()),
                "TYPE before HELP for {name}"
            );
            typed.push(name.to_string());
        } else if !line.is_empty() {
            let name = line
                .split(['{', ' '])
                .next()
                .expect("sample line names a metric");
            assert!(valid_metric_name(name), "bad metric name {name:?}");
            assert!(
                typed.contains(&name.to_string()),
                "sample before TYPE: {line}"
            );
        }
    }
    assert!(typed.len() >= 11, "expected the full metric family set");
}

/// The metric-name validator accepts the grammar and rejects the
/// near-misses that would corrupt an exposition.
#[test]
fn metric_name_grammar() {
    for ok in ["fleet_queue_depth", "a", "_x", "ns:sub_total", "A9_"] {
        assert!(valid_metric_name(ok), "{ok:?} should be valid");
    }
    for bad in ["", "9lives", "has space", "dash-ed", "newline\n", "é"] {
        assert!(!valid_metric_name(bad), "{bad:?} should be invalid");
    }
}
