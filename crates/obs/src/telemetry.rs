//! The fleet telemetry plane: live virtual-time series and top-K
//! outliers for long-running fleet runs.
//!
//! `obs::fleet::FleetReport` is post-hoc — at 10k clients and ~1M
//! events/s a run that degrades 30 s in is invisible until it ends.
//! This module adds the in-flight signal: each fleet shard sums its
//! clients' cumulative readings on a configurable **virtual-time**
//! interval, and the fleet merge builds one [`FleetTelemetry`] from the
//! summed readings ([`FleetTelemetry::from_readings`]): a bounded
//! series of [`SamplePoint`] rows (events/s, queue depth, packet-store
//! occupancy, modulation hold depth, per-interval release/error
//! tallies), the worst per-client p95 RTTs and the hottest stations.
//!
//! **Determinism.** Sampling is keyed to virtual time with a strict
//! boundary rule — the sample at boundary `t` reflects exactly the
//! events with due time `< t` — so a client contributes identically to
//! a sample no matter which shard simulates it. Every series field is
//! an integer (counts, or nanosecond sums); integer addition is
//! associative, so shard readings summed in plan order are
//! **byte-identical** at 1, 2, or 8 shards — the same invariance
//! contract the fleet manifests carry. Differencing, ring bounding and
//! ranking happen once, after that sum, so the eviction count and the
//! outlier lists are layout-invariant too. Floating-point derived
//! values (means, rates) are computed only at render time from the
//! merged integers.
//!
//! **One field table.** Each [`SamplePoint`] field is declared once, in
//! the `sample_fields!` list below, with its kind (interval delta or
//! boundary level), its Prometheus series and its markdown row. The
//! list expands to the struct and to the crate-private `FIELDS` table;
//! differencing, summing, the exports and the `sample.*` alert
//! selectors all iterate `FIELDS` rather than naming fields.
//!
//! Exports: JSONL time-series ([`FleetTelemetry::to_jsonl`]), a
//! Prometheus-style text exposition ([`FleetTelemetry::to_prometheus`]),
//! and a markdown sparkline/table section
//! ([`FleetTelemetry::render_markdown_section`]) shared with
//! `tracemod obs-report`.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Telemetry schema version, bumped on incompatible layout changes.
pub const TELEMETRY_SCHEMA: u32 = 1;

/// Sparkline glyphs, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
/// Maximum sparkline width in the markdown renderer; longer series are
/// decimated by bucket-mean.
const SPARK_WIDTH: usize = 48;

/// Configuration for the fleet telemetry plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Virtual-time sampling interval in nanoseconds.
    pub interval_ns: u64,
    /// Series rows kept (the oldest boundaries are evicted).
    pub ring_capacity: usize,
    /// Entries kept per outlier list.
    pub top_k: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            interval_ns: 1_000_000_000,
            ring_capacity: 512,
            top_k: 8,
        }
    }
}

impl TelemetryConfig {
    /// Set the sampling interval in whole virtual seconds.
    pub fn with_interval_secs(mut self, secs: u64) -> Self {
        assert!(secs > 0, "telemetry interval must be positive");
        self.interval_ns = secs * 1_000_000_000;
        self
    }

    /// Set the number of series rows kept.
    pub fn with_ring_capacity(mut self, cap: usize) -> Self {
        assert!(cap > 0, "telemetry ring needs at least one slot");
        self.ring_capacity = cap;
        self
    }
}

/// How a [`SamplePoint`] field relates to its sampling interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Counted over the interval: a shard reads a running total and
    /// [`FleetTelemetry::from_readings`] differences consecutive
    /// readings. Prometheus exports it as a `counter` summed over the
    /// retained window.
    Delta,
    /// Read at the boundary and kept as is. Prometheus exports it as a
    /// `gauge` read from the last row.
    Level,
}

/// How the markdown section renders a [`SamplePoint`] field.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Markdown {
    /// Not rendered.
    Hidden,
    /// The field's values, under this label.
    Row(&'static str),
    /// The derived [`SamplePoint::mean_abs_delay_error_ms`], under this
    /// label, in place of the field it is derived from.
    MeanMs(&'static str),
}

/// One row of the field table [`FIELDS`]: everything the exports and
/// the alert selectors know about one [`SamplePoint`] field.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Field {
    /// The JSON key and the `sample.<name>` alert selector.
    pub name: &'static str,
    /// Interval delta or boundary level.
    pub kind: Kind,
    /// Prometheus metric name and HELP text, when exported; the TYPE
    /// follows from `kind`.
    pub prometheus: Option<(&'static str, &'static str)>,
    /// The markdown row, if any.
    pub markdown: Markdown,
}

/// Declares [`SamplePoint`] and its field table [`FIELDS`] from one
/// list, so each field is written down once: its doc, name, kind,
/// Prometheus series and markdown row.
macro_rules! sample_fields {
    ($(
        $(#[doc = $doc:literal])*
        $name:ident: $kind:ident, $prometheus:expr, $markdown:expr;
    )*) => {
        /// One telemetry row: the fleet's state at virtual boundary
        /// `t_ns`. Every field is an integer so shard readings sum
        /// exactly; the field table says which are interval deltas and
        /// which are boundary levels.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
        pub struct SamplePoint {
            /// Virtual boundary time (ns); the row covers
            /// `(t_ns - interval, t_ns]` for deltas, exclusive of events
            /// due exactly at `t_ns`.
            pub t_ns: u64,
            $($(#[doc = $doc])* pub $name: u64,)*
        }

        /// The field table: one entry per [`SamplePoint`] field after
        /// `t_ns`, in JSON order. Differencing, summing, every export
        /// and the `sample.*` alert selectors iterate it.
        pub(crate) const FIELDS: &[Field] = &[$(Field {
            name: stringify!($name),
            kind: Kind::$kind,
            prometheus: $prometheus,
            markdown: $markdown,
        },)*];

        impl SamplePoint {
            /// The field values in [`FIELDS`] order.
            pub(crate) fn values(&self) -> [u64; FIELDS.len()] {
                [$(self.$name),*]
            }

            /// The fields, mutably, in [`FIELDS`] order.
            fn values_mut(&mut self) -> [&mut u64; FIELDS.len()] {
                [$(&mut self.$name),*]
            }
        }
    };
}

use Markdown::{Hidden, MeanMs, Row};

sample_fields! {
    /// Engine events dispatched in the interval.
    events: Delta,
        Some(("fleet_engine_events_total", "Engine events dispatched over the retained window.")),
        Row("events / interval");
    /// Engine events pending at the boundary.
    queue_depth: Level,
        Some(("fleet_queue_depth", "Engine events pending at the last boundary.")),
        Row("queue depth");
    /// Packet-store rows in flight at the boundary.
    packets_live: Level,
        Some(("fleet_packets_live", "Packets in flight at the last boundary.")),
        Row("packets live");
    /// Packets held across all modulators' hold queues at the boundary.
    mod_held: Level,
        Some(("fleet_mod_held", "Packets held in modulation wheels at the last boundary.")),
        Row("mod held");
    /// Probes emitted in the interval.
    probes_sent: Delta,
        Some(("fleet_probes_sent_total", "Probes emitted over the retained window.")),
        Hidden;
    /// Round trips completed in the interval.
    rtts_completed: Delta,
        Some(("fleet_rtts_completed_total", "Round trips completed over the retained window.")),
        Row("rtts completed");
    /// Packets lost to the loss processes in the interval.
    packets_lost: Delta,
        Some(("fleet_packets_lost_total", "Packets lost over the retained window.")),
        Hidden;
    /// Modulated releases in the interval.
    released: Delta,
        Some(("fleet_released_total", "Modulated releases over the retained window.")),
        Row("released");
    /// Integer-ns sum of |intended − actual| release delay error over
    /// the interval's releases (divide by `released` for the mean).
    abs_delay_error_ns: Delta, None, MeanMs("mean \\|delay err\\|");
    /// Frames forwarded through base stations in the interval.
    station_frames: Delta,
        Some((
            "fleet_station_frames_total",
            "Frames forwarded through base stations over the retained window.",
        )),
        Row("station frames");
    /// Clients whose modulator has marked itself degraded, cumulative
    /// at the boundary.
    degraded_clients: Level,
        Some(("fleet_degraded_clients", "Clients marked degraded at the last boundary.")),
        Row("degraded clients");
}

impl SamplePoint {
    /// Mean |release delay error| over the interval, in milliseconds
    /// (0 when nothing was released). The one derived series: the
    /// `sample.mean_abs_delay_error_ms` selector and the markdown's
    /// delay-error row.
    pub fn mean_abs_delay_error_ms(&self) -> f64 {
        if self.released == 0 {
            0.0
        } else {
            self.abs_delay_error_ns as f64 / self.released as f64 / 1e6
        }
    }

    /// Sum every field of `other` into `self`: how a fleet shard adds
    /// one client's reading to a boundary's row, and how shard rows
    /// merge. `t_ns` must already agree.
    pub fn absorb(&mut self, other: &SamplePoint) {
        debug_assert_eq!(
            self.t_ns, other.t_ns,
            "merging rows from different boundaries"
        );
        for (v, o) in self.values_mut().into_iter().zip(other.values()) {
            *v += o;
        }
    }
}

/// One tracked outlier: a key (client or station index) and its
/// weight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopEntry {
    /// Tracked key (client index, station index, ...).
    pub key: u64,
    /// The entry's score (a p95 in µs, a frame count, ...).
    pub weight: u64,
}

/// The serializable fleet telemetry, built once by
/// [`from_readings`](FleetTelemetry::from_readings): the bounded series
/// plus the fleet-wide outlier lists. Rides in the fleet report (and
/// its deterministic JSON) — every field derives from simulation state,
/// so it is byte-identical across shard layouts and worker counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetTelemetry {
    /// Schema version ([`TELEMETRY_SCHEMA`]).
    pub schema: u32,
    /// Virtual-time sampling interval (ns).
    pub interval_ns: u64,
    /// Boundaries sampled but not kept in `series` (the oldest).
    pub evicted: u64,
    /// The kept rows, oldest first.
    pub series: Vec<SamplePoint>,
    /// Worst per-client p95 RTT (weight = µs), ranked worst first.
    pub worst_clients: Vec<TopEntry>,
    /// Hottest stations (weight = frames forwarded), ranked first.
    pub hot_stations: Vec<TopEntry>,
}

impl FleetTelemetry {
    /// Build the fleet telemetry from the summed cumulative readings of
    /// all shards: `readings` are consecutive boundaries ending at the
    /// last of the run's `boundaries`, either all of them or at least
    /// the last `ring_capacity + 1` (the extra one differences the
    /// first row kept). Interval-delta fields are differenced against
    /// the previous reading; boundary-level fields are kept as read.
    /// The last `ring_capacity` rows are kept and the rest count as
    /// evicted. `clients` offers each client's p95 RTT (µs) and
    /// `stations` each station's frame count, once each; both rank by
    /// `(weight desc, key asc)` into the top `top_k`, and stations that
    /// forwarded nothing are left out.
    pub fn from_readings(
        cfg: &TelemetryConfig,
        boundaries: u64,
        readings: &[SamplePoint],
        clients: impl IntoIterator<Item = (u32, u64)>,
        stations: impl IntoIterator<Item = (u32, u64)>,
    ) -> FleetTelemetry {
        assert!(
            readings.len() as u64 == boundaries || readings.len() > cfg.ring_capacity,
            "readings must start at the first boundary or reach past the ring"
        );
        let mut prev = [0u64; FIELDS.len()];
        let mut series: Vec<SamplePoint> = readings
            .iter()
            .map(|reading| {
                let mut row = *reading;
                for ((v, p), f) in row.values_mut().into_iter().zip(prev).zip(FIELDS) {
                    if f.kind == Kind::Delta {
                        *v -= p;
                    }
                }
                prev = reading.values();
                row
            })
            .collect();
        series.drain(..series.len().saturating_sub(cfg.ring_capacity));
        FleetTelemetry {
            schema: TELEMETRY_SCHEMA,
            interval_ns: cfg.interval_ns,
            evicted: boundaries - series.len() as u64,
            series,
            worst_clients: top(cfg.top_k, clients),
            hot_stations: top(cfg.top_k, stations.into_iter().filter(|&(_, n)| n > 0)),
        }
    }

    /// One JSON object per sample row, in series order — the
    /// `telemetry.jsonl` artifact. Byte-identical across shard layouts.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for row in &self.series {
            s.push_str(&serde_json::to_string(row).expect("sample row serializes"));
            s.push('\n');
        }
        s
    }

    /// Prometheus-style text exposition of the final state: cumulative
    /// counters over the retained window, boundary gauges from the last
    /// row, and the outlier trackers as labeled series. HELP text and
    /// label values go through the exposition-format escaping rules
    /// ([`escape_help`], [`escape_label_value`]).
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        let mut metric = |name: &str, help: &str, kind: &str, v: u64| {
            let _ = writeln!(s, "# HELP {name} {}", escape_help(help));
            let _ = writeln!(s, "# TYPE {name} {kind}");
            let _ = writeln!(s, "{name} {v}");
        };
        let mut totals = [0u64; FIELDS.len()];
        for row in &self.series {
            for (t, v) in totals.iter_mut().zip(row.values()) {
                *t += v;
            }
        }
        let last = self.series.last().copied().unwrap_or_default().values();
        // Counters first, then the ring's own eviction counter, then
        // the gauges.
        for (i, f) in FIELDS.iter().enumerate() {
            if let (Kind::Delta, Some((name, help))) = (f.kind, f.prometheus) {
                metric(name, help, "counter", totals[i]);
            }
        }
        metric(
            "fleet_telemetry_evicted_rows_total",
            "Series rows evicted by the bounded ring.",
            "counter",
            self.evicted,
        );
        for (i, f) in FIELDS.iter().enumerate() {
            if let (Kind::Level, Some((name, help))) = (f.kind, f.prometheus) {
                metric(name, help, "gauge", last[i]);
            }
        }
        if !self.worst_clients.is_empty() {
            let _ = writeln!(
                s,
                "# HELP fleet_client_rtt_p95_us Worst per-client p95 RTT (microseconds)."
            );
            let _ = writeln!(s, "# TYPE fleet_client_rtt_p95_us gauge");
            for e in &self.worst_clients {
                let _ = writeln!(
                    s,
                    "fleet_client_rtt_p95_us{{client=\"{}\"}} {}",
                    escape_label_value(&e.key.to_string()),
                    e.weight
                );
            }
        }
        if !self.hot_stations.is_empty() {
            let _ = writeln!(
                s,
                "# HELP fleet_station_hot_frames Frames through the hottest stations."
            );
            let _ = writeln!(s, "# TYPE fleet_station_hot_frames gauge");
            for e in &self.hot_stations {
                let _ = writeln!(
                    s,
                    "fleet_station_hot_frames{{station=\"{}\"}} {}",
                    escape_label_value(&e.key.to_string()),
                    e.weight
                );
            }
        }
        s
    }

    /// Markdown sparkline/table section, shared between the fleet
    /// report renderer and `tracemod obs-report`.
    pub fn render_markdown_section(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "### Telemetry ({} samples @ {:.1} s virtual{})\n",
            self.series.len(),
            self.interval_ns as f64 / 1e9,
            if self.evicted > 0 {
                format!(", {} evicted", self.evicted)
            } else {
                String::new()
            }
        );
        if self.series.is_empty() {
            let _ = writeln!(s, "*No samples recorded (run shorter than one interval).*");
            return s;
        }
        let _ = writeln!(s, "| series | spark | min | mean | max | last |");
        let _ = writeln!(s, "|---|---|---|---|---|---|");
        for (i, f) in FIELDS.iter().enumerate() {
            let (label, unit, values): (_, _, Vec<f64>) = match f.markdown {
                Hidden => continue,
                Row(label) => (
                    label,
                    "",
                    self.series.iter().map(|r| r.values()[i] as f64).collect(),
                ),
                MeanMs(label) => (
                    label,
                    " ms",
                    self.series
                        .iter()
                        .map(SamplePoint::mean_abs_delay_error_ms)
                        .collect(),
                ),
            };
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let last = *values.last().expect("non-empty series");
            let _ = writeln!(
                s,
                "| {label} | `{}` | {} | {} | {} | {} |",
                sparkline(&values),
                fmt_val(min, unit),
                fmt_val(mean, unit),
                fmt_val(max, unit),
                fmt_val(last, unit)
            );
        }
        if !self.worst_clients.is_empty() {
            let _ = writeln!(s, "\n#### Worst clients (p95 RTT)\n");
            let _ = writeln!(s, "| client | p95 RTT |");
            let _ = writeln!(s, "|---|---|");
            for e in &self.worst_clients {
                let _ = writeln!(s, "| {} | {:.2} ms |", e.key, e.weight as f64 / 1e3);
            }
        }
        if !self.hot_stations.is_empty() {
            let _ = writeln!(s, "\n#### Hottest stations\n");
            let _ = writeln!(s, "| station | frames |");
            let _ = writeln!(s, "|---|---|");
            for e in &self.hot_stations {
                let _ = writeln!(s, "| {} | {} |", e.key, e.weight);
            }
        }
        s
    }
}

/// The `k` highest-weighted entries, ranked by `(weight desc, key
/// asc)`: a total order, so the result depends only on the offered
/// set, never on its order.
fn top(k: usize, entries: impl IntoIterator<Item = (u32, u64)>) -> Vec<TopEntry> {
    let mut ranked: Vec<TopEntry> = entries
        .into_iter()
        .map(|(key, weight)| TopEntry {
            key: u64::from(key),
            weight,
        })
        .collect();
    ranked.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.key.cmp(&b.key)));
    ranked.truncate(k);
    ranked
}

/// Escape a Prometheus label value per the text exposition format:
/// backslash, double quote, and newline become `\\`, `\"`, `\n`.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escape Prometheus HELP text per the exposition format: backslash
/// and newline become `\\` and `\n` (quotes stay literal in HELP).
pub fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// True when `name` is a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`). The exposition tests hold every
/// exported series name to this.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Format a rendered value: integers bare, fractional values to two
/// places, with an optional unit suffix.
fn fmt_val(v: f64, unit: &str) -> String {
    if unit.is_empty() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}{unit}")
    }
}

/// Render values as a fixed-height Unicode sparkline, decimating by
/// bucket-mean when wider than the fixed 48-cell budget. A flat series
/// renders at the lowest level.
pub fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let decimated: Vec<f64> = if values.len() > SPARK_WIDTH {
        (0..SPARK_WIDTH)
            .map(|b| {
                let lo = b * values.len() / SPARK_WIDTH;
                let hi = ((b + 1) * values.len() / SPARK_WIDTH).max(lo + 1);
                values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            })
            .collect()
    } else {
        values.to_vec()
    };
    let min = decimated.iter().copied().fold(f64::INFINITY, f64::min);
    let max = decimated.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    decimated
        .iter()
        .map(|&v| {
            let level = if span <= 0.0 {
                0
            } else {
                (((v - min) / span) * (SPARKS.len() - 1) as f64).round() as usize
            };
            SPARKS[level.min(SPARKS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;

    /// A cumulative reading at boundary `k` seconds.
    fn reading(k: u64, events: u64, released: u64, err_ns: u64) -> SamplePoint {
        SamplePoint {
            t_ns: k * S,
            events,
            released,
            abs_delay_error_ns: err_ns,
            queue_depth: 3,
            ..SamplePoint::default()
        }
    }

    fn cfg(ring_capacity: usize, top_k: usize) -> TelemetryConfig {
        TelemetryConfig {
            top_k,
            ..TelemetryConfig::default()
        }
        .with_ring_capacity(ring_capacity)
    }

    fn none() -> std::iter::Empty<(u32, u64)> {
        std::iter::empty()
    }

    fn pairs(entries: &[TopEntry]) -> Vec<(u64, u64)> {
        entries.iter().map(|e| (e.key, e.weight)).collect()
    }

    #[test]
    fn readings_are_differenced_and_bounded() {
        let readings = [
            reading(1, 10, 4, 8_000_000),
            reading(2, 25, 6, 12_000_000),
            reading(3, 30, 6, 12_000_000),
        ];
        let tel = FleetTelemetry::from_readings(&cfg(2, 8), 3, &readings, none(), none());
        assert_eq!(tel.evicted, 1);
        assert_eq!(tel.series.len(), 2);
        assert_eq!(tel.series[0].t_ns, 2 * S);
        assert_eq!(tel.series[0].events, 15);
        assert_eq!(tel.series[0].queue_depth, 3, "levels are kept as read");
        assert_eq!(tel.series[0].released, 2);
        assert_eq!(tel.series[0].abs_delay_error_ns, 4_000_000);
        assert!((tel.series[0].mean_abs_delay_error_ms() - 2.0).abs() < 1e-12);
        assert_eq!(tel.series[1].events, 5);
        assert_eq!(tel.series[1].released, 0);
        assert_eq!(tel.series[1].mean_abs_delay_error_ms(), 0.0);
        // JSONL is one parseable object per row.
        let jsonl = tel.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        let back: SamplePoint = serde_json::from_str(jsonl.lines().last().unwrap()).unwrap();
        assert_eq!(back, tel.series[1]);
    }

    #[test]
    fn only_the_last_ring_capacity_plus_one_readings_matter() {
        let readings: Vec<SamplePoint> = (1..=5u64)
            .map(|k| reading(k, 10 * k * k, k, 1_000_000 * k))
            .collect();
        let cfg = cfg(2, 8);
        let all = FleetTelemetry::from_readings(&cfg, 5, &readings, none(), none());
        let tail = FleetTelemetry::from_readings(&cfg, 5, &readings[2..], none(), none());
        assert_eq!(all.evicted, 3);
        assert_eq!(all, tail);
    }

    #[test]
    fn hot_stations_are_the_exact_top_k_in_any_offer_order() {
        // More stations than slots, with a weight tie: the smaller key
        // ranks first, whichever order the stations come in.
        let frames = [(0u32, 100u64), (1, 90), (2, 5), (3, 100), (4, 0), (5, 3)];
        for order in [frames.to_vec(), frames.iter().rev().copied().collect()] {
            let tel = FleetTelemetry::from_readings(&cfg(4, 3), 0, &[], none(), order);
            assert_eq!(pairs(&tel.hot_stations), vec![(0, 100), (3, 100), (1, 90)]);
        }
    }

    #[test]
    fn stations_that_forwarded_nothing_are_dropped() {
        let frames = [(0u32, 0u64), (1, 7), (2, 0)];
        let tel = FleetTelemetry::from_readings(&cfg(4, 8), 0, &[], none(), frames);
        assert_eq!(pairs(&tel.hot_stations), vec![(1, 7)]);
    }

    #[test]
    fn worst_clients_rank_by_weight_then_key() {
        let p95s = [(7u32, 18_250u64), (3, 18_250), (5, 41_003), (1, 9_000)];
        let tel = FleetTelemetry::from_readings(&cfg(4, 3), 0, &[], p95s, none());
        assert_eq!(
            pairs(&tel.worst_clients),
            vec![(5, 41_003), (3, 18_250), (7, 18_250)]
        );
    }

    #[test]
    fn entries_written_with_the_old_error_field_still_read() {
        // Reports from before `TopEntry::error` was dropped carry it;
        // `--alerts-baseline` must still load them.
        let e: TopEntry = serde_json::from_str(r#"{"key":3,"weight":9,"error":4}"#).unwrap();
        assert_eq!(e, TopEntry { key: 3, weight: 9 });
    }

    #[test]
    fn sparkline_scales_and_decimates() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0]), "▁▁");
        let s = sparkline(&[0.0, 7.0]);
        assert_eq!(s.chars().next(), Some('▁'));
        assert_eq!(s.chars().last(), Some('█'));
        let long: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert_eq!(sparkline(&long).chars().count(), SPARK_WIDTH);
    }
}
