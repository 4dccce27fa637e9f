//! The fleet telemetry plane: live virtual-time series and top-K
//! outliers for long-running fleet runs.
//!
//! `obs::fleet::FleetReport` is post-hoc — at 10k clients and ~1M
//! events/s a run that degrades 30 s in is invisible until it ends.
//! This module adds the in-flight signal: each fleet shard owns a
//! [`ShardTelemetry`] that is sampled on a configurable **virtual-time**
//! interval into a bounded time-series ring of [`SamplePoint`] rows
//! (events/s, queue depth, packet-store occupancy, modulation hold
//! depth, per-interval release/error tallies), plus an exact
//! [`TopK`] tracker surfacing the worst per-client p95 RTTs as the run
//! progresses.
//!
//! **Determinism.** Sampling is keyed to virtual time with a strict
//! boundary rule — the sample at boundary `t` reflects exactly the
//! events with due time `< t` — so a client contributes identically to
//! a sample no matter which shard simulates it. Every series field is
//! an integer (counts, or nanosecond sums); integer addition is
//! associative, so per-shard rows merged by summation in plan order
//! ([`FleetTelemetry::merge`]) are **byte-identical** at 1, 2, or 8
//! shards — the same invariance contract the fleet manifests carry.
//! Floating-point derived values (means, rates) are computed only at
//! render time from the merged integers.
//!
//! **One field table.** Each [`SamplePoint`] field is declared once, in
//! the `sample_fields!` list below, with its kind (interval delta or
//! boundary level), its Prometheus series and its markdown row. The
//! list expands to the struct and to the crate-private `FIELDS` table;
//! sampling, merging, the exports and the `sample.*` alert selectors
//! all iterate `FIELDS` rather than naming fields.
//!
//! Exports: JSONL time-series ([`FleetTelemetry::to_jsonl`]), a
//! Prometheus-style text exposition ([`FleetTelemetry::to_prometheus`]),
//! and a markdown sparkline/table section
//! ([`FleetTelemetry::render_markdown_section`]) shared with
//! `tracemod obs-report --format md`.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
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
    /// Bounded series-ring capacity (oldest rows evict first).
    pub ring_capacity: usize,
    /// Outlier entries kept per top-K tracker.
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

    /// Set the series-ring capacity.
    pub fn with_ring_capacity(mut self, cap: usize) -> Self {
        assert!(cap > 0, "telemetry ring needs at least one slot");
        self.ring_capacity = cap;
        self
    }
}

/// How a [`SamplePoint`] field relates to its sampling interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Counted over the interval: a shard reads a running total and the
    /// ring differences consecutive readings. Prometheus exports it as
    /// a `counter` summed over the retained window.
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
        /// One merged telemetry row: the fleet's state at virtual
        /// boundary `t_ns`. Every field is an integer so shard rows merge
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
        /// `t_ns`, in JSON order. Sampling, merging, every export and
        /// the `sample.*` alert selectors iterate it.
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

/// One shard's telemetry: a bounded virtual-time series ring plus a
/// top-K tracker of the shard's worst clients. Owned single-threaded
/// by the shard's engine loop — recording is a handful of integer
/// subtractions per boundary, nothing on the per-event hot path.
#[derive(Debug, Clone)]
pub struct ShardTelemetry {
    cfg: TelemetryConfig,
    prev: SamplePoint,
    ring: VecDeque<SamplePoint>,
    evicted: u64,
    worst_clients: TopK,
}

impl ShardTelemetry {
    /// An empty ring under `cfg`.
    pub fn new(cfg: TelemetryConfig) -> Self {
        ShardTelemetry {
            cfg,
            prev: SamplePoint::default(),
            ring: VecDeque::with_capacity(cfg.ring_capacity.min(1024)),
            evicted: 0,
            worst_clients: TopK::new(cfg.top_k),
        }
    }

    /// The configured sampling interval.
    pub fn interval_ns(&self) -> u64 {
        self.cfg.interval_ns
    }

    /// Record the boundary at virtual time `t_ns` from a cumulative
    /// reading (its `t_ns` is ignored): interval-delta fields are
    /// running totals, differenced against the previous boundary;
    /// boundary-level fields are kept as read.
    pub fn sample(&mut self, t_ns: u64, cur: SamplePoint) {
        let mut row = SamplePoint { t_ns, ..cur };
        let prev = self.prev.values();
        for (i, v) in row.values_mut().into_iter().enumerate() {
            if FIELDS[i].kind == Kind::Delta {
                *v -= prev[i];
            }
        }
        if self.ring.len() == self.cfg.ring_capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(row);
        self.prev = cur;
    }

    /// Count `boundaries` rows as evicted without recording them: a
    /// shard that knows the ring could never keep them need not sum
    /// them. They precede every row passed to [`sample`](Self::sample).
    pub fn skip_evicted(&mut self, boundaries: u64) {
        self.evicted += boundaries;
    }

    /// Record a finished client's p95 RTT (microseconds) into the
    /// shard's worst-client tracker.
    pub fn note_client_p95(&mut self, client: u32, p95_rtt_us: u64) {
        self.worst_clients.offer_max(u64::from(client), p95_rtt_us);
    }

    /// Rows currently retained, oldest first.
    pub fn series(&self) -> impl Iterator<Item = &SamplePoint> {
        self.ring.iter()
    }

    /// Rows evicted by the bounded ring.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The shard's worst-client tracker.
    pub fn worst_clients(&self) -> &TopK {
        &self.worst_clients
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

/// A bounded top-K tracker: at most `capacity` entries, fed through
/// [`offer_max`](TopK::offer_max), which keeps the K largest scores.
/// For offer-once streams (each key offered exactly once, e.g. a
/// client's final p95 or a station's exact frame count) the result is
/// the **exact** top K and is independent of offer order — which is
/// what lets per-shard trackers merge into a layout-invariant fleet
/// view.
///
/// All ordering is deterministic: entries compare by `(weight, key)`
/// with ties broken toward the **smaller key** (the smaller key ranks
/// higher and survives eviction).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopK {
    capacity: u64,
    entries: Vec<TopEntry>,
}

impl TopK {
    /// An empty tracker keeping at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "top-K tracker needs capacity >= 1");
        TopK {
            capacity: capacity as u64,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// `true` when `a` outranks `b` (strictly greater weight, or equal
    /// weight and smaller key).
    fn beats(a: (u64, u64), b: (u64, u64)) -> bool {
        a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
    }

    /// Index of the lowest-ranked entry (smallest weight; among equal
    /// weights, the largest key — the one eviction removes first).
    fn min_index(&self) -> usize {
        let mut min = 0;
        for (i, e) in self.entries.iter().enumerate().skip(1) {
            let m = &self.entries[min];
            if Self::beats((m.weight, m.key), (e.weight, e.key)) {
                min = i;
            }
        }
        min
    }

    /// Score update: keep `key` at the maximum `score` seen, admitting
    /// it only if it outranks the current minimum when full — exact
    /// for offer-once streams.
    pub fn offer_max(&mut self, key: u64, score: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.weight = e.weight.max(score);
            return;
        }
        if (self.entries.len() as u64) < self.capacity {
            self.entries.push(TopEntry { key, weight: score });
            return;
        }
        let i = self.min_index();
        let m = &self.entries[i];
        if Self::beats((score, key), (m.weight, m.key)) {
            self.entries[i] = TopEntry { key, weight: score };
        }
    }

    /// Fold another tracker's entries into this one (score semantics:
    /// a key present in both keeps its maximum weight).
    pub fn merge_max(&mut self, other: &TopK) {
        for e in other.ranked() {
            self.offer_max(e.key, e.weight);
        }
    }

    /// Entries ranked highest first — weight descending, key ascending
    /// on ties. Deterministic for identical content however it was fed.
    pub fn ranked(&self) -> Vec<TopEntry> {
        let mut v = self.entries.clone();
        v.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.key.cmp(&b.key)));
        v
    }

    /// Number of monitored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The merged, serializable fleet telemetry: shard rings summed in
/// plan order plus the fleet-wide outlier trackers. Rides in the
/// fleet report (and its deterministic JSON) — every field derives
/// from simulation state, so it is byte-identical across shard
/// layouts and worker counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetTelemetry {
    /// Schema version ([`TELEMETRY_SCHEMA`]).
    pub schema: u32,
    /// Virtual-time sampling interval (ns).
    pub interval_ns: u64,
    /// Rows evicted across all shard rings.
    pub evicted: u64,
    /// Merged series, oldest first.
    pub series: Vec<SamplePoint>,
    /// Worst per-client p95 RTT (weight = µs), ranked worst first.
    pub worst_clients: Vec<TopEntry>,
    /// Hottest stations (weight = frames forwarded), ranked first.
    pub hot_stations: Vec<TopEntry>,
}

impl FleetTelemetry {
    /// Merge per-shard telemetry **in plan order**: rows at the same
    /// boundary sum field-wise (all shards sample the same boundary
    /// set, so the rings align index for index), worst-client trackers
    /// fold under max semantics. Panics if shard rings disagree on
    /// interval or boundaries — that would mean the shards ran
    /// different plans.
    pub fn merge<'a>(shards: impl IntoIterator<Item = &'a ShardTelemetry>) -> FleetTelemetry {
        let mut out: Option<(FleetTelemetry, TopK)> = None;
        for shard in shards {
            match &mut out {
                None => {
                    let tel = FleetTelemetry {
                        schema: TELEMETRY_SCHEMA,
                        interval_ns: shard.cfg.interval_ns,
                        evicted: shard.evicted,
                        series: shard.series().copied().collect(),
                        worst_clients: Vec::new(),
                        hot_stations: Vec::new(),
                    };
                    out = Some((tel, shard.worst_clients.clone()));
                }
                Some((tel, worst)) => {
                    assert_eq!(
                        tel.interval_ns, shard.cfg.interval_ns,
                        "shards sampled on different intervals"
                    );
                    assert_eq!(
                        tel.series.len(),
                        shard.ring.len(),
                        "shard rings cover different boundary sets"
                    );
                    for (row, other) in tel.series.iter_mut().zip(shard.series()) {
                        assert_eq!(row.t_ns, other.t_ns, "shard boundary mismatch");
                        row.absorb(other);
                    }
                    tel.evicted += shard.evicted;
                    worst.merge_max(&shard.worst_clients);
                }
            }
        }
        let (mut tel, worst) = out.unwrap_or_else(|| {
            (
                FleetTelemetry {
                    schema: TELEMETRY_SCHEMA,
                    interval_ns: 0,
                    evicted: 0,
                    series: Vec::new(),
                    worst_clients: Vec::new(),
                    hot_stations: Vec::new(),
                },
                TopK::new(1),
            )
        });
        tel.worst_clients = worst.ranked();
        tel
    }

    /// Fill the hot-station tracker from exact per-station frame
    /// counts (the merged station table, each station offered once),
    /// keeping the top `k`.
    pub fn set_hot_stations(&mut self, k: usize, frames: impl IntoIterator<Item = (u32, u64)>) {
        let mut top = TopK::new(k.max(1));
        for (station, count) in frames {
            if count > 0 {
                top.offer_max(u64::from(station), count);
            }
        }
        self.hot_stations = top.ranked();
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
    /// report renderer and `obs-report --format md`.
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

    fn inputs(events: u64, released: u64, err_ns: u64) -> SamplePoint {
        SamplePoint {
            events,
            released,
            abs_delay_error_ns: err_ns,
            queue_depth: 3,
            ..SamplePoint::default()
        }
    }

    #[test]
    fn ring_differences_counters_and_bounds_rows() {
        let cfg = TelemetryConfig::default()
            .with_interval_secs(1)
            .with_ring_capacity(2);
        let mut t = ShardTelemetry::new(cfg);
        t.sample(1_000_000_000, inputs(10, 4, 8_000_000));
        t.sample(2_000_000_000, inputs(25, 6, 12_000_000));
        t.sample(3_000_000_000, inputs(30, 6, 12_000_000));
        assert_eq!(t.evicted(), 1);
        let rows: Vec<_> = t.series().copied().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].t_ns, 2_000_000_000);
        assert_eq!(rows[0].events, 15);
        assert_eq!(rows[0].released, 2);
        assert_eq!(rows[0].abs_delay_error_ns, 4_000_000);
        assert!((rows[0].mean_abs_delay_error_ms() - 2.0).abs() < 1e-12);
        assert_eq!(rows[1].events, 5);
        assert_eq!(rows[1].released, 0);
        assert_eq!(rows[1].mean_abs_delay_error_ms(), 0.0);
    }

    #[test]
    fn skipping_rows_the_ring_would_evict_changes_nothing() {
        let cfg = TelemetryConfig::default()
            .with_interval_secs(1)
            .with_ring_capacity(2);
        let readings: Vec<SamplePoint> = (1..=5u64)
            .map(|k| SamplePoint {
                t_ns: k * 1_000_000_000,
                ..inputs(10 * k * k, k, 1_000_000 * k)
            })
            .collect();
        let mut full = ShardTelemetry::new(cfg);
        for r in &readings {
            full.sample(r.t_ns, *r);
        }
        // Only the last capacity + 1 readings, each a sum of two halves.
        let mut summed = ShardTelemetry::new(cfg);
        summed.skip_evicted(2);
        for r in &readings[2..] {
            let mut row = SamplePoint {
                t_ns: r.t_ns,
                events: r.events / 2,
                ..SamplePoint::default()
            };
            row.absorb(&SamplePoint {
                events: r.events - r.events / 2,
                ..*r
            });
            summed.sample(row.t_ns, row);
        }
        assert_eq!(summed.evicted(), full.evicted());
        assert_eq!(
            summed.series().collect::<Vec<_>>(),
            full.series().collect::<Vec<_>>()
        );
    }

    #[test]
    fn merge_sums_rows_and_folds_outliers() {
        let cfg = TelemetryConfig::default();
        let mut a = ShardTelemetry::new(cfg);
        let mut b = ShardTelemetry::new(cfg);
        a.sample(1_000_000_000, inputs(10, 1, 1_000_000));
        b.sample(1_000_000_000, inputs(20, 3, 5_000_000));
        a.note_client_p95(0, 900);
        b.note_client_p95(5, 1_500);
        let merged = FleetTelemetry::merge([&a, &b]);
        assert_eq!(merged.series.len(), 1);
        assert_eq!(merged.series[0].events, 30);
        assert_eq!(merged.series[0].released, 4);
        assert_eq!(merged.series[0].queue_depth, 6);
        assert_eq!(merged.worst_clients[0].key, 5);
        assert_eq!(merged.worst_clients[0].weight, 1_500);
        // JSONL is one parseable object per row.
        let jsonl = merged.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        let back: SamplePoint = serde_json::from_str(jsonl.trim()).unwrap();
        assert_eq!(back, merged.series[0]);
    }

    #[test]
    fn topk_offer_max_is_exact_and_order_independent() {
        let mut fwd = TopK::new(2);
        let mut rev = TopK::new(2);
        let items = [(1u64, 10u64), (2, 30), (3, 20), (4, 30)];
        for &(k, w) in &items {
            fwd.offer_max(k, w);
        }
        for &(k, w) in items.iter().rev() {
            rev.offer_max(k, w);
        }
        // Ties at weight 30: the smaller key (2) outranks key 4.
        let r = fwd.ranked();
        assert_eq!(r, rev.ranked());
        assert_eq!((r[0].key, r[0].weight), (2, 30));
        assert_eq!((r[1].key, r[1].weight), (4, 30));
    }

    #[test]
    fn entries_written_with_the_old_error_field_still_read() {
        // Reports from before `TopEntry::error` was dropped carry it;
        // `--alerts-baseline` must still load them.
        let e: TopEntry = serde_json::from_str(r#"{"key":3,"weight":9,"error":4}"#).unwrap();
        assert_eq!(e, TopEntry { key: 3, weight: 9 });
    }

    #[test]
    fn hot_stations_are_the_exact_top_k_in_any_offer_order() {
        // More stations than slots, the hottest offered first: each
        // newcomer must be ranked on its own count, not inherit the
        // evicted minimum's.
        let frames = [(0u32, 100u64), (1, 90), (2, 5), (3, 4), (4, 0), (5, 3)];
        let mut tel = FleetTelemetry::merge(std::iter::empty());
        for order in [frames.to_vec(), frames.iter().rev().copied().collect()] {
            tel.set_hot_stations(2, order);
            let top: Vec<_> = tel.hot_stations.iter().map(|e| (e.key, e.weight)).collect();
            assert_eq!(top, vec![(0, 100), (1, 90)]);
        }
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
