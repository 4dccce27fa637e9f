//! Checks `BENCH_history.jsonl`, the trajectory of the repo benchmark
//! (format in README's benchmark section): every line carries the seven
//! fields, names a workload and an end-to-end metric with its unit that
//! `BENCHMARK.json` declares, rests on at least ten alternating
//! parent/change pairs, and has positive medians.

use serde::{Deserialize, Value};
use std::collections::HashSet;

const FIELDS: [&str; 7] = [
    "change_median",
    "metric",
    "pairs",
    "parent_median",
    "pr",
    "unit",
    "workload",
];

fn read_repo_file(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    let entries = v.as_object().expect("a JSON object");
    Value::field(entries, name).unwrap_or_else(|| panic!("missing field `{name}`"))
}

fn get<T: Deserialize>(v: &Value, name: &str) -> T {
    T::deserialize(field(v, name)).unwrap_or_else(|e| panic!("field `{name}`: {e}"))
}

#[test]
fn every_history_line_is_a_declared_metric_over_ten_pairs() {
    let bench: Value = serde_json::from_str(&read_repo_file("BENCHMARK.json")).unwrap();
    let workloads: Vec<String> = get::<Vec<Value>>(&bench, "workloads")
        .iter()
        .map(|w| get(w, "name"))
        .collect();
    let metrics: Vec<(String, String)> = get::<Vec<Value>>(&bench, "end_to_end")
        .iter()
        .map(|m| (get(m, "name"), get(m, "unit")))
        .collect();

    let history = read_repo_file("BENCH_history.jsonl");
    let mut seen = HashSet::new();
    for (i, line) in history.lines().enumerate() {
        let at = format!("BENCH_history.jsonl:{}", i + 1);
        let v: Value = serde_json::from_str(line).unwrap_or_else(|e| panic!("{at}: {e}"));
        let mut keys: Vec<&str> = v
            .as_object()
            .unwrap_or_else(|| panic!("{at}: not an object"))
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, FIELDS, "{at}: fields");

        let pr: u32 = get(&v, "pr");
        let workload: String = get(&v, "workload");
        let metric = (get::<String>(&v, "metric"), get::<String>(&v, "unit"));
        assert!(
            workloads.contains(&workload),
            "{at}: unknown workload {workload}"
        );
        assert!(
            metrics.contains(&metric),
            "{at}: undeclared metric {metric:?}"
        );
        assert!(get::<u32>(&v, "pairs") >= 10, "{at}: fewer than 10 pairs");
        for median in ["parent_median", "change_median"] {
            assert!(get::<f64>(&v, median) > 0.0, "{at}: {median} not positive");
        }
        assert!(seen.insert((pr, workload, metric)), "{at}: repeated line");
    }
    assert!(!seen.is_empty(), "BENCH_history.jsonl is empty");
}
