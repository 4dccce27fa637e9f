//! Cross-run divergence forensics: the first-divergence finder behind
//! `tracemod diff-runs`.
//!
//! Determinism CI used to gate shard/worker invariance with `cmp`,
//! whose entire diagnosis is "files differ". This module walks two
//! runs' artifacts — per-client manifest JSONL, telemetry series
//! JSONL, fault-event logs, fleet reports, flight-recorder Chrome
//! traces, alert JSONL, or any JSON/JSONL — **in lockstep** and
//! reports the *earliest differing field* with whatever context the
//! artifact carries: virtual time, client index, shard (derived from
//! `--shards` via the fleet's contiguous client ranges), and the
//! packet/event label for flight streams. "Files differ" becomes
//! "record 7213 (client 7213, shard 3, t=41.2s):
//! `fidelity.deadline_misses` 4 → 5".
//!
//! The walk is purely structural over parsed JSON values, preserving
//! object key order, so the reported path is the first difference in
//! document order — stable across reruns. A `.json` or `.jsonl`
//! artifact that does not parse is an error naming it, never a text
//! diff: two copies of the same corrupt artifact are not "identical
//! runs". Other artifacts (Prometheus text, markdown) are compared line
//! by line.

use serde::Value;
use std::fmt::Write as _;

/// What a pair of artifacts was recognized as (from the first record's
/// fields). Purely informational — the walk is the same for all kinds;
/// the kind picks which context fields get extracted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Telemetry `SamplePoint` JSONL (`telemetry.jsonl`).
    Telemetry,
    /// Per-client or per-trial run-manifest JSONL (`manifests.jsonl`).
    Manifests,
    /// Fault-event JSONL (`faults.jsonl`).
    Faults,
    /// Alert-report JSONL (`alerts.jsonl`).
    Alerts,
    /// A fleet aggregate report (single JSON document).
    FleetReport,
    /// A flight-recorder Chrome trace (single JSON document with
    /// `traceEvents`).
    Flight,
    /// Some other JSON / JSONL payload.
    Json,
    /// Not JSON at all: plain text compared line by line.
    Text,
}

impl ArtifactKind {
    /// Stable lower-case label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            ArtifactKind::Telemetry => "telemetry",
            ArtifactKind::Manifests => "manifests",
            ArtifactKind::Faults => "fault-log",
            ArtifactKind::Alerts => "alerts",
            ArtifactKind::FleetReport => "fleet-report",
            ArtifactKind::Flight => "flight-trace",
            ArtifactKind::Json => "json",
            ArtifactKind::Text => "text",
        }
    }
}

/// Options steering context extraction.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffOptions {
    /// Shard count of the runs under comparison; lets manifest
    /// divergences name the owning shard via the fleet's contiguous
    /// client ranges.
    pub shards: Option<usize>,
}

/// The earliest difference between two artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// What the artifacts were recognized as.
    pub kind: ArtifactKind,
    /// Zero-based record index (JSONL line, array element, or text
    /// line) where the runs first part ways.
    pub record: usize,
    /// Field path inside the record (empty for whole-record context
    /// like a length mismatch).
    pub path: String,
    /// Side A's value at the path, rendered as JSON (or `<absent>`).
    pub a: String,
    /// Side B's value at the path, rendered as JSON (or `<absent>`).
    pub b: String,
    /// Virtual time of the diverging record, when it carries one.
    pub t_ns: Option<u64>,
    /// Client index, when the record carries one (manifest `trial`).
    pub client: Option<u32>,
    /// Owning shard, when derivable (`--shards` + manifest records).
    pub shard: Option<usize>,
    /// Extra label (flight event name, fault kind, alert rule).
    pub detail: Option<String>,
}

impl Divergence {
    /// One-line human rendering:
    /// `telemetry record 41 (t=41.2s): released 4 → 5`.
    pub fn render(&self) -> String {
        let mut s = format!("{} record {}", self.kind.label(), self.record);
        let mut ctx: Vec<String> = Vec::new();
        if let Some(c) = self.client {
            ctx.push(format!("client {c}"));
        }
        if let Some(sh) = self.shard {
            ctx.push(format!("shard {sh}"));
        }
        if let Some(t) = self.t_ns {
            ctx.push(format!("t={:.1}s", t as f64 / 1e9));
        }
        if let Some(d) = &self.detail {
            ctx.push(d.clone());
        }
        if !ctx.is_empty() {
            let _ = write!(s, " ({})", ctx.join(", "));
        }
        if self.path.is_empty() {
            let _ = write!(s, ": {} → {}", self.a, self.b);
        } else {
            let _ = write!(s, ": `{}` {} → {}", self.path, self.a, self.b);
        }
        s
    }
}

/// Compare two artifacts, each given as `(name, text)`, and return how
/// many records side A holds with the earliest divergence, or `None`
/// when they are identical in content. A `.json` or `.jsonl` artifact
/// is walked as JSON records, and one that does not parse is an error
/// naming it; anything else is compared line by line.
pub fn diff_artifacts(
    (name_a, a): (&str, &str),
    (name_b, b): (&str, &str),
    opts: &DiffOptions,
) -> Result<(usize, Option<Divergence>), String> {
    let is_json = |name: &str| name.ends_with(".json") || name.ends_with(".jsonl");
    if !is_json(name_a) && !is_json(name_b) {
        return Ok((a.lines().count(), diff_text(a, b)));
    }
    let parse = |name: &str, text: &str| {
        parse_records(text).map_err(|e| format!("{name} is not valid JSON: {e}"))
    };
    let (ra, rb) = (parse(name_a, a)?, parse(name_b, b)?);
    let kind = classify(ra.first().or_else(|| rb.first()));
    Ok((ra.len(), diff_records(kind, &ra, &rb, opts)))
}

/// Parse an artifact into a record sequence: a whole-text JSON
/// document is one record; otherwise every non-blank line must parse
/// as JSON (JSONL), and the first that does not is the error.
fn parse_records(text: &str) -> Result<Vec<Value>, String> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Ok(Vec::new());
    }
    // Multi-line pretty JSON documents (fleet reports, flight traces)
    // parse whole; JSONL parses per line.
    if let Ok(v) = serde_json::from_str::<Value>(trimmed) {
        return Ok(vec![v]);
    }
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let record =
            serde_json::from_str::<Value>(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        records.push(record);
    }
    Ok(records)
}

/// Recognize the artifact family from a record's fields.
fn classify(first: Option<&Value>) -> ArtifactKind {
    let Some(Value::Object(entries)) = first else {
        return ArtifactKind::Json;
    };
    let has = |k: &str| Value::field(entries, k).is_some();
    if has("traceEvents") {
        ArtifactKind::Flight
    } else if has("t_ns") && has("events") {
        ArtifactKind::Telemetry
    } else if has("t_virtual_ns") && has("fault") {
        ArtifactKind::Faults
    } else if has("rule") && has("suppressed") {
        ArtifactKind::Alerts
    } else if has("trial") && has("fidelity") {
        ArtifactKind::Manifests
    } else if has("deadline_miss_rate") && has("clients") {
        ArtifactKind::FleetReport
    } else {
        ArtifactKind::Json
    }
}

/// Lockstep walk over parsed record sequences.
fn diff_records(
    kind: ArtifactKind,
    a: &[Value],
    b: &[Value],
    opts: &DiffOptions,
) -> Option<Divergence> {
    for (i, (ra, rb)) in a.iter().zip(b.iter()).enumerate() {
        if let Some((path, va, vb)) = first_divergence(ra, rb) {
            let mut d = Divergence {
                kind,
                record: i,
                path,
                a: va,
                b: vb,
                t_ns: None,
                client: None,
                shard: None,
                detail: None,
            };
            enrich(&mut d, ra, rb, a.len().max(b.len()), opts);
            return Some(d);
        }
    }
    if a.len() != b.len() {
        return Some(Divergence {
            kind,
            record: a.len().min(b.len()),
            path: String::new(),
            a: format!("{} records", a.len()),
            b: format!("{} records", b.len()),
            t_ns: None,
            client: None,
            shard: None,
            detail: Some("record counts differ".into()),
        });
    }
    None
}

/// Pull virtual-time / client / shard / label context out of the
/// diverging record (side A, falling back to B for fields only it has).
fn enrich(d: &mut Divergence, ra: &Value, rb: &Value, total_records: usize, opts: &DiffOptions) {
    let get = |name: &str| -> Option<&Value> {
        [ra, rb].into_iter().find_map(|r| {
            r.as_object()
                .and_then(|entries| Value::field(entries, name))
        })
    };
    let as_u64 = |v: &Value| -> Option<u64> {
        match v {
            Value::Num(serde::Num::U(n)) => Some(*n),
            Value::Num(serde::Num::I(n)) if *n >= 0 => Some(*n as u64),
            Value::Num(serde::Num::F(f)) if *f >= 0.0 => Some(*f as u64),
            _ => None,
        }
    };
    d.t_ns = get("t_ns").or_else(|| get("t_virtual_ns")).and_then(as_u64);
    if d.kind == ArtifactKind::Faults {
        if let Some(Value::Str(f)) = get("fault") {
            d.detail = Some(format!("fault {f}"));
        }
    }
    if d.kind == ArtifactKind::Alerts {
        if let Some(Value::Str(r)) = get("rule") {
            d.detail = Some(format!("rule {r}"));
        }
    }
    if d.kind == ArtifactKind::Manifests {
        d.client = get("trial").and_then(as_u64).map(|t| t as u32);
        if let (Some(client), Some(shards)) = (d.client, opts.shards) {
            d.shard = shard_of(client, total_records as u32, shards);
        }
    }
    if d.kind == ArtifactKind::Flight {
        // The diverging field names a traceEvents element; surface that
        // event's own timestamp (Chrome `ts` is microseconds) and name.
        if let Some(idx) = trace_event_index(&d.path) {
            for side in [ra, rb] {
                let ev = side
                    .as_object()
                    .and_then(|e| Value::field(e, "traceEvents"))
                    .and_then(|v| match v {
                        Value::Seq(items) => items.get(idx),
                        _ => None,
                    });
                let Some(Value::Object(ev)) = ev else {
                    continue;
                };
                if d.t_ns.is_none() {
                    d.t_ns = Value::field(ev, "ts").and_then(as_u64).map(|us| us * 1_000);
                }
                if d.detail.is_none() {
                    if let Some(Value::Str(name)) = Value::field(ev, "name") {
                        d.detail = Some(format!("event {name}"));
                    }
                }
            }
        }
    }
}

/// The shard owning `client` under the fleet's contiguous near-equal
/// ranges (mirrors `FleetPlan::shard_ranges`).
fn shard_of(client: u32, clients: u32, shards: usize) -> Option<usize> {
    if clients == 0 || shards == 0 || client >= clients {
        return None;
    }
    let shards = (shards as u32).min(clients);
    let base = clients / shards;
    let rem = clients % shards;
    let mut lo = 0u32;
    for s in 0..shards {
        let hi = lo + base + u32::from(s < rem);
        if client < hi {
            return Some(s as usize);
        }
        lo = hi;
    }
    None
}

/// Extract `N` from a path starting `traceEvents[N]`.
fn trace_event_index(path: &str) -> Option<usize> {
    let rest = path.strip_prefix("traceEvents[")?;
    let end = rest.find(']')?;
    rest[..end].parse().ok()
}

/// The first differing field between two JSON values, in document
/// order: `(path, rendered_a, rendered_b)`, or `None` when equal.
/// Object keys walk in side A's order, then B-only keys; arrays walk
/// index by index with a length sentinel.
pub fn first_divergence(a: &Value, b: &Value) -> Option<(String, String, String)> {
    let mut path = String::new();
    walk(a, b, &mut path)
}

/// Render a JSON value compactly for divergence output.
fn render(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "<unserializable>".into())
}

fn push_key(path: &mut String, key: &str) {
    if !path.is_empty() {
        path.push('.');
    }
    path.push_str(key);
}

fn walk(a: &Value, b: &Value, path: &mut String) -> Option<(String, String, String)> {
    match (a, b) {
        (Value::Object(ea), Value::Object(eb)) => {
            for (k, va) in ea {
                let saved = path.len();
                push_key(path, k);
                let hit = match Value::field(eb, k) {
                    Some(vb) => walk(va, vb, path),
                    None => Some((path.clone(), render(va), "<absent>".into())),
                };
                if hit.is_some() {
                    return hit;
                }
                path.truncate(saved);
            }
            for (k, vb) in eb {
                if Value::field(ea, k).is_none() {
                    let saved = path.len();
                    push_key(path, k);
                    let hit = (path.clone(), "<absent>".into(), render(vb));
                    path.truncate(saved);
                    return Some(hit);
                }
            }
            None
        }
        (Value::Seq(sa), Value::Seq(sb)) => {
            for (i, (va, vb)) in sa.iter().zip(sb.iter()).enumerate() {
                let saved = path.len();
                let _ = write!(path, "[{i}]");
                if let Some(hit) = walk(va, vb, path) {
                    return Some(hit);
                }
                path.truncate(saved);
            }
            if sa.len() != sb.len() {
                let i = sa.len().min(sb.len());
                let saved = path.len();
                let _ = write!(path, "[{i}]");
                let hit = (
                    path.clone(),
                    sa.get(i).map(render).unwrap_or_else(|| "<absent>".into()),
                    sb.get(i).map(render).unwrap_or_else(|| "<absent>".into()),
                );
                path.truncate(saved);
                return Some(hit);
            }
            None
        }
        _ => {
            let (ra, rb) = (render(a), render(b));
            if ra == rb {
                None
            } else {
                Some((path.clone(), ra, rb))
            }
        }
    }
}

/// Line-level diff for artifacts that are not JSON.
fn diff_text(a: &str, b: &str) -> Option<Divergence> {
    let (la, lb): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    for (i, (ya, yb)) in la.iter().zip(lb.iter()).enumerate() {
        if ya != yb {
            return Some(Divergence {
                kind: ArtifactKind::Text,
                record: i,
                path: String::new(),
                a: format!("{ya:?}"),
                b: format!("{yb:?}"),
                t_ns: None,
                client: None,
                shard: None,
                detail: None,
            });
        }
    }
    if la.len() != lb.len() {
        return Some(Divergence {
            kind: ArtifactKind::Text,
            record: la.len().min(lb.len()),
            path: String::new(),
            a: format!("{} lines", la.len()),
            b: format!("{} lines", lb.len()),
            t_ns: None,
            client: None,
            shard: None,
            detail: Some("line counts differ".into()),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The earliest divergence between two JSONL artifacts.
    fn jsonl(a: &str, b: &str, opts: &DiffOptions) -> Option<Divergence> {
        diff_artifacts(("a.jsonl", a), ("b.jsonl", b), opts)
            .unwrap()
            .1
    }

    #[test]
    fn identical_artifacts_have_no_divergence() {
        let tel = "{\"t_ns\":1000000000,\"events\":5}\n{\"t_ns\":2000000000,\"events\":7}\n";
        let same = diff_artifacts(("a.jsonl", tel), ("b.jsonl", tel), &DiffOptions::default());
        assert_eq!(same, Ok((2, None)));
        assert_eq!(jsonl("", "", &DiffOptions::default()), None);
    }

    #[test]
    fn telemetry_divergence_names_field_and_virtual_time() {
        let a = "{\"t_ns\":1000000000,\"events\":5,\"released\":4}\n\
                 {\"t_ns\":41200000000,\"events\":9,\"released\":4}\n";
        let b = "{\"t_ns\":1000000000,\"events\":5,\"released\":4}\n\
                 {\"t_ns\":41200000000,\"events\":9,\"released\":5}\n";
        let d = jsonl(a, b, &DiffOptions::default()).unwrap();
        assert_eq!(d.kind, ArtifactKind::Telemetry);
        assert_eq!(d.record, 1);
        assert_eq!(d.path, "released");
        assert_eq!((d.a.as_str(), d.b.as_str()), ("4", "5"));
        assert_eq!(d.t_ns, Some(41_200_000_000));
        let r = d.render();
        assert!(r.contains("telemetry record 1"), "{r}");
        assert!(r.contains("t=41.2s"), "{r}");
        assert!(r.contains("`released` 4 → 5"), "{r}");
    }

    #[test]
    fn manifest_divergence_names_client_and_shard() {
        // 10 clients; rows are manifests keyed by trial. Client 7 under
        // 3 shards of (4,3,3) lives on shard 2.
        let row = |trial: u32, misses: u64| {
            format!("{{\"trial\":{trial},\"fidelity\":{{\"deadline_misses\":{misses}}}}}")
        };
        let a: String = (0..10).map(|i| row(i, 4) + "\n").collect();
        let mut b_rows: Vec<String> = (0..10).map(|i| row(i, 4)).collect();
        b_rows[7] = row(7, 5);
        let b = b_rows.join("\n") + "\n";
        let d = jsonl(&a, &b, &DiffOptions { shards: Some(3) }).unwrap();
        assert_eq!(d.kind, ArtifactKind::Manifests);
        assert_eq!(d.record, 7);
        assert_eq!(d.path, "fidelity.deadline_misses");
        assert_eq!(d.client, Some(7));
        assert_eq!(d.shard, Some(2));
        assert!(d.render().contains("client 7, shard 2"), "{}", d.render());
    }

    #[test]
    fn record_count_mismatch_is_a_divergence() {
        let a = "{\"t_ns\":1,\"events\":1}\n";
        let b = "{\"t_ns\":1,\"events\":1}\n{\"t_ns\":2,\"events\":1}\n";
        let d = jsonl(a, b, &DiffOptions::default()).unwrap();
        assert_eq!(d.record, 1);
        assert_eq!(d.a, "1 records");
        assert_eq!(d.b, "2 records");
    }

    #[test]
    fn object_key_asymmetries_are_reported() {
        let d = first_divergence(
            &serde_json::from_str("{\"x\":1,\"y\":2}").unwrap(),
            &serde_json::from_str("{\"x\":1}").unwrap(),
        )
        .unwrap();
        assert_eq!(d, ("y".into(), "2".into(), "<absent>".into()));
        let d = first_divergence(
            &serde_json::from_str("{\"x\":1}").unwrap(),
            &serde_json::from_str("{\"x\":1,\"z\":3}").unwrap(),
        )
        .unwrap();
        assert_eq!(d, ("z".into(), "<absent>".into(), "3".into()));
    }

    #[test]
    fn flight_trace_divergence_carries_event_context() {
        let a = r#"{"traceEvents":[{"name":"modulate","ts":41200000,"args":{"packet":7213}},{"name":"release","ts":41300000,"args":{"packet":7213}}]}"#;
        let b = r#"{"traceEvents":[{"name":"modulate","ts":41200000,"args":{"packet":7213}},{"name":"release","ts":41350000,"args":{"packet":7213}}]}"#;
        let d = jsonl(a, b, &DiffOptions::default()).unwrap();
        assert_eq!(d.kind, ArtifactKind::Flight);
        assert_eq!(d.path, "traceEvents[1].ts");
        assert_eq!(d.t_ns, Some(41_300_000_000));
        assert_eq!(d.detail.as_deref(), Some("event release"));
    }

    #[test]
    fn fault_log_divergence_names_the_fault() {
        let a = "{\"t_virtual_ns\":12000000000,\"fault\":\"kill_worker\",\"info\":\"shard 1\"}\n";
        let b = "{\"t_virtual_ns\":12000000000,\"fault\":\"kill_worker\",\"info\":\"shard 2\"}\n";
        let d = jsonl(a, b, &DiffOptions::default()).unwrap();
        assert_eq!(d.kind, ArtifactKind::Faults);
        assert_eq!(d.path, "info");
        assert_eq!(d.t_ns, Some(12_000_000_000));
        assert_eq!(d.detail.as_deref(), Some("fault kill_worker"));
    }

    #[test]
    fn text_artifacts_diff_line_by_line() {
        let text = |a, b| diff_artifacts(("a.md", a), ("b.md", b), &DiffOptions::default());
        let d = text("alpha\nbeta\n", "alpha\ngamma\n").unwrap().1.unwrap();
        assert_eq!(d.kind, ArtifactKind::Text);
        assert_eq!(d.record, 1);
        assert!(d.a.contains("beta") && d.b.contains("gamma"));
        let d = text("alpha\n", "alpha\nbeta\n").unwrap().1.unwrap();
        assert_eq!(d.detail.as_deref(), Some("line counts differ"));
        assert_eq!(text("same\n", "same\n"), Ok((1, None)));
    }

    #[test]
    fn an_unparsable_json_artifact_is_an_error_naming_it() {
        let good = "{\"t_ns\":1,\"events\":1}\n";
        let cut = "{\"t_ns\":1,\"events\":1}\n{\"t_ns\":2,\"ev\n";
        let opts = DiffOptions::default();
        let err = diff_artifacts(("a/x.jsonl", cut), ("b/x.jsonl", cut), &opts).unwrap_err();
        assert!(
            err.starts_with("a/x.jsonl is not valid JSON: line 2:"),
            "{err}"
        );
        let err = diff_artifacts(("a/x.jsonl", good), ("b/x.jsonl", cut), &opts).unwrap_err();
        assert!(err.starts_with("b/x.jsonl is not valid JSON"), "{err}");
        let deep = "[".repeat(50_000) + &"]".repeat(50_000);
        let err = diff_artifacts(("r.json", &deep), ("r.json", &deep), &opts).unwrap_err();
        assert!(err.starts_with("r.json is not valid JSON"), "{err}");
        // Prometheus text is not JSON, so the same bytes compare as text.
        assert_eq!(
            diff_artifacts(("t.prom", cut), ("t.prom", cut), &opts),
            Ok((2, None))
        );
    }

    #[test]
    fn nested_array_length_mismatch_points_at_first_extra() {
        let a: Value = serde_json::from_str("{\"xs\":[1,2]}").unwrap();
        let b: Value = serde_json::from_str("{\"xs\":[1,2,3]}").unwrap();
        let (path, va, vb) = first_divergence(&a, &b).unwrap();
        assert_eq!(path, "xs[2]");
        assert_eq!((va.as_str(), vb.as_str()), ("<absent>", "3"));
    }

    #[test]
    fn shard_attribution_matches_fleet_ranges() {
        // 10 clients / 3 shards → (0..4)(4..7)(7..10).
        assert_eq!(shard_of(0, 10, 3), Some(0));
        assert_eq!(shard_of(3, 10, 3), Some(0));
        assert_eq!(shard_of(4, 10, 3), Some(1));
        assert_eq!(shard_of(7, 10, 3), Some(2));
        assert_eq!(shard_of(9, 10, 3), Some(2));
        assert_eq!(shard_of(10, 10, 3), None);
        // More shards than clients degrades like the fleet does.
        assert_eq!(shard_of(1, 2, 8), Some(1));
    }
}
