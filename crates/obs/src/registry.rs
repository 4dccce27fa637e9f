//! The metrics registry: a named, ordered, serializable snapshot of
//! everything a pipeline stage measured.

use crate::metrics::HistSnapshot;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// A snapshot of named metrics — counters (integers), gauges (floats),
/// and histogram summaries — keyed by dotted stage-qualified names
/// (`"modulate.deadline_misses"`). Keys are kept sorted, so two
/// registries built from the same measurements serialize identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, HistSnapshot>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Set counter `name` to `v` (overwrites).
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_string(), v);
    }

    /// Add `v` to counter `name` (creating it at zero).
    pub fn add_counter(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Set gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Store a histogram snapshot under `name`.
    pub fn set_hist(&mut self, name: &str, h: HistSnapshot) {
        self.hists.insert(name.to_string(), h);
    }

    /// Counter value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge value, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram snapshot, if present.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histogram snapshots, sorted by name.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &HistSnapshot)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Total number of metrics recorded.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.hists.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merge `other` into `self`, prefixing every key with
    /// `"{prefix}."`. Counters add; gauges and histograms overwrite.
    pub fn merge(&mut self, prefix: &str, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            self.add_counter(&format!("{prefix}.{k}"), *v);
        }
        for (k, v) in &other.gauges {
            self.set_gauge(&format!("{prefix}.{k}"), *v);
        }
        for (k, v) in &other.hists {
            self.set_hist(&format!("{prefix}.{k}"), v.clone());
        }
    }
}

fn map_to_value<T: Serialize>(m: &BTreeMap<String, T>) -> Value {
    Value::Object(m.iter().map(|(k, v)| (k.clone(), v.serialize())).collect())
}

fn map_from_value<T: Deserialize>(v: &Value, what: &str) -> Result<BTreeMap<String, T>, DeError> {
    let entries = v
        .as_object()
        .ok_or_else(|| DeError::new(format!("registry.{what}: expected object")))?;
    let mut out = BTreeMap::new();
    for (k, v) in entries {
        out.insert(k.clone(), T::deserialize(v)?);
    }
    Ok(out)
}

impl Serialize for MetricsRegistry {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("counters".to_string(), map_to_value(&self.counters)),
            ("gauges".to_string(), map_to_value(&self.gauges)),
            ("hists".to_string(), map_to_value(&self.hists)),
        ])
    }
}

impl Deserialize for MetricsRegistry {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_object()
            .ok_or_else(|| DeError::new("registry: expected object"))?;
        let need = |name: &str| {
            Value::field(entries, name)
                .ok_or_else(|| DeError::new(format!("registry: missing field {name}")))
        };
        Ok(MetricsRegistry {
            counters: map_from_value(need("counters")?, "counters")?,
            gauges: map_from_value(need("gauges")?, "gauges")?,
            hists: map_from_value(need("hists")?, "hists")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Hist;

    #[test]
    fn registry_roundtrips_and_sorts() {
        let mut r = MetricsRegistry::new();
        r.set_counter("z.last", 3);
        r.set_counter("a.first", 1);
        r.set_gauge("m.load", 0.75);
        let mut h = Hist::new(0.0, 10.0, 5);
        h.observe(4.0);
        r.set_hist("m.delay", h.snapshot());

        let json = serde_json::to_string_pretty(&r).unwrap();
        // Sorted key order in the serialized form.
        assert!(json.find("a.first").unwrap() < json.find("z.last").unwrap());
        let back: MetricsRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.counter("a.first"), Some(1));
        assert_eq!(back.gauge("m.load"), Some(0.75));
        assert_eq!(back.hist("m.delay").unwrap().count, 1);
    }

    #[test]
    fn merge_prefixes_and_adds() {
        let mut stage = MetricsRegistry::new();
        stage.set_counter("events", 10);
        stage.set_gauge("depth", 4.0);
        let mut root = MetricsRegistry::new();
        root.merge("netsim", &stage);
        root.merge("netsim", &stage); // counters accumulate
        assert_eq!(root.counter("netsim.events"), Some(20));
        assert_eq!(root.gauge("netsim.depth"), Some(4.0));
    }
}
