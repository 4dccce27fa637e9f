//! The metrics registry: a named, ordered, serializable snapshot of
//! everything a pipeline stage measured.

use crate::metrics::HistSnapshot;
use serde::{DeError, Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::fmt;

/// A snapshot of named metrics — counters (integers), gauges (floats),
/// and histogram summaries — keyed by dotted stage-qualified names
/// (`"modulate.deadline_misses"`). Keys are kept sorted, so two
/// registries built from the same measurements serialize identically.
///
/// Every fleet client keeps one registry of a dozen entries, so each
/// table is one key-sorted `Vec` searched by binary search rather than
/// a tree of mostly empty nodes, and a key given as a `&'static str`
/// is kept borrowed rather than copied (parsed keys are owned).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: Table<u64>,
    gauges: Table<f64>,
    hists: Table<HistSnapshot>,
}

/// One key-sorted table of named values.
#[derive(Clone, PartialEq)]
struct Table<T>(Vec<(Cow<'static, str>, T)>);

impl<T> Default for Table<T> {
    fn default() -> Self {
        Table(Vec::new())
    }
}

impl<T> Table<T> {
    fn get(&self, name: &str) -> Option<&T> {
        let i = self.find(name).ok()?;
        Some(&self.0[i].1)
    }

    fn set(&mut self, name: Cow<'static, str>, v: T) {
        match self.find(&name) {
            Ok(i) => self.0[i].1 = v,
            Err(i) => self.0.insert(i, (name, v)),
        }
    }

    fn find(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.as_ref().cmp(name))
    }

    fn iter(&self) -> impl Iterator<Item = (&str, &T)> {
        self.0.iter().map(|(k, v)| (k.as_ref(), v))
    }
}

impl<T: fmt::Debug> fmt::Debug for Table<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T: Serialize> Serialize for Table<T> {
    fn serialize(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.serialize()))
                .collect(),
        )
    }
}

impl<T: Deserialize> Table<T> {
    /// Parse an object; a key given twice keeps its last value.
    fn parse(v: &Value, what: &str) -> Result<Self, DeError> {
        let entries = v
            .as_object()
            .ok_or_else(|| DeError::new(format!("registry.{what}: expected object")))?;
        let mut out = Table(Vec::with_capacity(entries.len()));
        for (k, v) in entries {
            out.set(Cow::Owned(k.clone()), T::deserialize(v)?);
        }
        Ok(out)
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// An empty registry with room for exactly this many counters,
    /// gauges and histograms, for a caller that knows what it records.
    pub fn with_capacity(counters: usize, gauges: usize, hists: usize) -> Self {
        MetricsRegistry {
            counters: Table(Vec::with_capacity(counters)),
            gauges: Table(Vec::with_capacity(gauges)),
            hists: Table(Vec::with_capacity(hists)),
        }
    }

    /// Set counter `name` to `v` (overwrites).
    pub fn set_counter(&mut self, name: impl Into<Cow<'static, str>>, v: u64) {
        self.counters.set(name.into(), v);
    }

    /// Add `v` to counter `name` (creating it at zero).
    pub fn add_counter(&mut self, name: impl Into<Cow<'static, str>>, v: u64) {
        let name = name.into();
        let c = &mut self.counters;
        match c.find(&name) {
            Ok(i) => c.0[i].1 += v,
            Err(i) => c.0.insert(i, (name, v)),
        }
    }

    /// Set gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: impl Into<Cow<'static, str>>, v: f64) {
        self.gauges.set(name.into(), v);
    }

    /// Store a histogram snapshot under `name`.
    pub fn set_hist(&mut self, name: impl Into<Cow<'static, str>>, h: HistSnapshot) {
        self.hists.set(name.into(), h);
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
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// All histogram snapshots, sorted by name.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &HistSnapshot)> {
        self.hists.iter()
    }

    /// Total number of metrics recorded.
    pub fn len(&self) -> usize {
        self.counters.0.len() + self.gauges.0.len() + self.hists.0.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Serialize for MetricsRegistry {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("counters".to_string(), self.counters.serialize()),
            ("gauges".to_string(), self.gauges.serialize()),
            ("hists".to_string(), self.hists.serialize()),
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
            counters: Table::parse(need("counters")?, "counters")?,
            gauges: Table::parse(need("gauges")?, "gauges")?,
            hists: Table::parse(need("hists")?, "hists")?,
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
}
