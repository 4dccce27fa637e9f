//! Packet-lifecycle flight recorder.
//!
//! The paper debugs modulation fidelity with an in-kernel circular
//! trace buffer; this module is that idea lifted into the emulator: a
//! bounded ring of lifecycle events, all timestamped in **virtual
//! time**, that follows a packet from the moment it is observed at
//! collection through distillation and into the modulation decision
//! that its observation ultimately influenced.
//!
//! Identity works in two layers:
//!
//! * a **key** is a cheap content hash (FNV-1a over frame bytes, or a
//!   field mix for parsed records) computed independently by each
//!   stage — stages never exchange state, they just hash what they see;
//! * a [`PacketId`] is a small stable integer assigned the first time
//!   a key is [`FlightRecorder::assign`]ed (at collection for probe
//!   packets, at the modulation offer for benchmark packets). Other
//!   representations of the same packet (e.g. the parsed
//!   `PacketRecord`) are tied to the id with
//!   [`FlightRecorder::alias`].
//!
//! Events recorded *before* a key is assigned still resolve: the
//! export and journey APIs look keys up at read time, after the whole
//! run has finished assigning.
//!
//! The ring holds only **complete** records: a span enters it once,
//! with both ends known, so eviction can never separate a begin from
//! its end — the "never split a span pair" invariant holds by
//! construction.
//!
//! Everything here derives from sim state only (no wall clock, no
//! ambient randomness), so exports are byte-identical across worker
//! counts.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Stable per-run packet identity, dense from 0 in assignment order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Pipeline stage that produced an event; one export track each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Link-level frame transit inside a simulator.
    Netsim,
    /// WaveLAN channel: air time, rate changes, handoffs, loss.
    Wavelan,
    /// Trace collection: the packet filter observed a frame.
    Collect,
    /// Distillation: an observation fed a quality tuple.
    Distill,
    /// Modulation: the intended-vs-actual delay/loss decision.
    Modulate,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Netsim,
        Stage::Wavelan,
        Stage::Collect,
        Stage::Distill,
        Stage::Modulate,
    ];

    /// Short lowercase label (also the export `cat` field).
    pub fn label(&self) -> &'static str {
        match self {
            Stage::Netsim => "netsim",
            Stage::Wavelan => "wavelan",
            Stage::Collect => "collect",
            Stage::Distill => "distill",
            Stage::Modulate => "modulate",
        }
    }

    /// Export track (Chrome `tid`); 1-based, pipeline order.
    fn track(&self) -> u64 {
        match self {
            Stage::Netsim => 1,
            Stage::Wavelan => 2,
            Stage::Collect => 3,
            Stage::Distill => 4,
            Stage::Modulate => 5,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One completed lifecycle event. `begin_ns == end_ns` is an instant;
/// anything longer is a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Monotone sequence number assigned when the record entered the
    /// ring; the ring always holds a contiguous seq range.
    pub seq: u64,
    /// Stage that produced the event.
    pub stage: Stage,
    /// Event name (`"transit"`, `"air"`, `"release"`, ...).
    pub name: &'static str,
    /// Content key of the packet this event is about, if known.
    pub key: Option<u64>,
    /// Distilled-tuple index this event is tied to, if any.
    pub tuple: Option<u64>,
    /// Virtual-time start, ns.
    pub begin_ns: u64,
    /// Virtual-time end, ns (== `begin_ns` for instants).
    pub end_ns: u64,
    /// Free-form human detail (deterministic — derived from sim state).
    pub detail: String,
}

impl FlightRecord {
    /// True when the record covers a non-zero time span.
    pub fn is_span(&self) -> bool {
        self.end_ns > self.begin_ns
    }

    /// Span duration in ns (0 for instants).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.begin_ns
    }
}

/// Bounded ring buffer of [`FlightRecord`]s plus the key → [`PacketId`]
/// registry. See the module docs for the identity model.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    records: VecDeque<FlightRecord>,
    next_seq: u64,
    evicted: u64,
    ids: BTreeMap<u64, PacketId>,
    next_id: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` completed records (oldest
    /// evicted first). Capacity is clamped to at least 1.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            records: VecDeque::new(),
            next_seq: 0,
            evicted: 0,
            ids: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Maximum number of retained records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently in the ring.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted to make room (total pushed = `len + evicted`).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Total records ever pushed into the ring.
    pub fn pushed(&self) -> u64 {
        self.next_seq
    }

    /// Distinct packets assigned an id so far.
    pub fn packets(&self) -> u64 {
        self.next_id
    }

    /// Id for `key`, assigning the next dense id on first sight.
    pub fn assign(&mut self, key: u64) -> PacketId {
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = PacketId(self.next_id);
        self.next_id += 1;
        self.ids.insert(key, id);
        id
    }

    /// Tie an additional key (another representation of the same
    /// packet) to an existing id. First binding of a key wins.
    pub fn alias(&mut self, key: u64, id: PacketId) {
        self.ids.entry(key).or_insert(id);
    }

    /// Id previously assigned to `key`, if any.
    pub fn packet_for_key(&self, key: u64) -> Option<PacketId> {
        self.ids.get(&key).copied()
    }

    fn push(&mut self, mut rec: FlightRecord) {
        rec.seq = self.next_seq;
        self.next_seq += 1;
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.evicted += 1;
        }
        self.records.push_back(rec);
    }

    /// Record a completed span `[begin_ns, end_ns]`.
    #[allow(clippy::too_many_arguments)] // mirrors the record's fields
    pub fn span(
        &mut self,
        stage: Stage,
        name: &'static str,
        key: Option<u64>,
        tuple: Option<u64>,
        begin_ns: u64,
        end_ns: u64,
        detail: String,
    ) {
        self.push(FlightRecord {
            seq: 0,
            stage,
            name,
            key,
            tuple,
            begin_ns,
            end_ns: end_ns.max(begin_ns),
            detail,
        });
    }

    /// Record a zero-duration event at `at_ns`.
    pub fn instant(
        &mut self,
        stage: Stage,
        name: &'static str,
        key: Option<u64>,
        tuple: Option<u64>,
        at_ns: u64,
        detail: String,
    ) {
        self.span(stage, name, key, tuple, at_ns, at_ns, detail);
    }

    /// Retained records, oldest first (ascending `seq`).
    pub fn records(&self) -> impl Iterator<Item = &FlightRecord> {
        self.records.iter()
    }

    /// Records whose span overlaps `[t0_ns, t1_ns]`, oldest first.
    pub fn window(&self, t0_ns: u64, t1_ns: u64) -> Vec<&FlightRecord> {
        self.records
            .iter()
            .filter(|r| r.begin_ns <= t1_ns && r.end_ns >= t0_ns)
            .collect()
    }

    /// Human-readable listing of [`window`](FlightRecorder::window),
    /// one timeline line per record (what `tracemod journey --window`
    /// prints).
    pub fn render_window(&self, t0_ns: u64, t1_ns: u64) -> String {
        let recs = self.window(t0_ns, t1_ns);
        let mut out = format!(
            "{} record(s) in [{} .. {}]\n",
            recs.len(),
            secs(t0_ns),
            secs(t1_ns)
        );
        for r in recs {
            out.push_str(&render_record(r));
        }
        out
    }

    /// The retained causal timeline of one packet, or `None` if no
    /// retained record resolves to `id`.
    pub fn journey(&self, id: PacketId) -> Option<PacketJourney> {
        let mut direct: Vec<FlightRecord> = self
            .records
            .iter()
            .filter(|r| r.key.and_then(|k| self.packet_for_key(k)) == Some(id))
            .cloned()
            .collect();
        if direct.is_empty() {
            return None;
        }
        direct.sort_by_key(|r| (r.begin_ns, r.seq));
        let tuples: Vec<u64> = {
            let set: BTreeSet<u64> = direct.iter().filter_map(|r| r.tuple).collect();
            set.into_iter().collect()
        };
        let mut causal: Vec<FlightRecord> = self
            .records
            .iter()
            .filter(|r| {
                r.stage == Stage::Modulate
                    && r.tuple.is_some_and(|t| tuples.contains(&t))
                    && r.key.and_then(|k| self.packet_for_key(k)) != Some(id)
            })
            .cloned()
            .collect();
        causal.sort_by_key(|r| (r.begin_ns, r.seq));
        Some(PacketJourney {
            id,
            records: direct,
            causal,
            tuples,
        })
    }

    /// The packet whose journey covers the most distinct stages
    /// (counting causally linked modulation); ties break toward the
    /// earliest-assigned id. `None` when nothing resolves.
    pub fn best_packet(&self) -> Option<PacketId> {
        let mut stages: BTreeMap<PacketId, BTreeSet<Stage>> = BTreeMap::new();
        let mut id_tuples: BTreeMap<PacketId, BTreeSet<u64>> = BTreeMap::new();
        let mut modulated_tuples: BTreeSet<u64> = BTreeSet::new();
        for r in &self.records {
            if r.stage == Stage::Modulate {
                if let Some(t) = r.tuple {
                    modulated_tuples.insert(t);
                }
            }
            if let Some(id) = r.key.and_then(|k| self.packet_for_key(k)) {
                stages.entry(id).or_default().insert(r.stage);
                if let Some(t) = r.tuple {
                    id_tuples.entry(id).or_default().insert(t);
                }
            }
        }
        stages
            .iter()
            .map(|(&id, s)| {
                let causal_mod = !s.contains(&Stage::Modulate)
                    && id_tuples
                        .get(&id)
                        .is_some_and(|ts| ts.iter().any(|t| modulated_tuples.contains(t)));
                (s.len() + usize::from(causal_mod), id)
            })
            // max_by_key returns the *last* max; invert the id so the
            // earliest id wins ties, then undo.
            .max_by_key(|&(score, id)| (score, u64::MAX - id.0))
            .map(|(_, id)| id)
    }

    /// Export the retained records as Chrome trace-event / Perfetto
    /// JSON: one track per stage, complete (`X`) events for spans,
    /// instant (`i`) events for points, and flow arrows (`s`/`t`/`f`)
    /// linking each resolved packet's events across stages.
    ///
    /// Field order is fixed and all timestamps are virtual, so the
    /// bytes are identical across worker counts.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(256 + self.records.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",");
        out.push_str("\"otherData\":{\"generator\":\"tracemod flight-recorder\",\"schema\":1},");
        out.push_str("\"traceEvents\":[");
        let mut first = true;
        let mut emit = |s: String, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&s);
        };
        emit(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"tracemod pipeline (virtual time)\"}}"
                .to_string(),
            &mut out,
        );
        for st in Stage::ALL {
            emit(
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    st.track(),
                    st.label()
                ),
                &mut out,
            );
        }
        for r in &self.records {
            let mut e = String::with_capacity(160);
            if r.is_span() {
                e.push_str(&format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
                    r.stage.track(),
                    us(r.begin_ns),
                    us(r.duration_ns())
                ));
            } else {
                e.push_str(&format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"s\":\"t\"",
                    r.stage.track(),
                    us(r.begin_ns)
                ));
            }
            e.push_str(&format!(
                ",\"name\":\"{}\",\"cat\":\"{}\",\"args\":{{\"seq\":{}",
                r.name,
                r.stage.label(),
                r.seq
            ));
            if let Some(id) = r.key.and_then(|k| self.packet_for_key(k)) {
                e.push_str(&format!(",\"packet\":{id}"));
            }
            if let Some(k) = r.key {
                e.push_str(&format!(",\"key\":\"0x{k:016x}\""));
            }
            if let Some(t) = r.tuple {
                e.push_str(&format!(",\"tuple\":{t}"));
            }
            if !r.detail.is_empty() {
                e.push_str(",\"detail\":\"");
                esc(&r.detail, &mut e);
                e.push('"');
            }
            e.push_str("}}");
            emit(e, &mut out);
        }
        // Flow arrows: one chain per packet with ≥ 2 resolved records.
        let mut chains: BTreeMap<PacketId, Vec<&FlightRecord>> = BTreeMap::new();
        for r in &self.records {
            if let Some(id) = r.key.and_then(|k| self.packet_for_key(k)) {
                chains.entry(id).or_default().push(r);
            }
        }
        for (id, mut recs) in chains {
            if recs.len() < 2 {
                continue;
            }
            recs.sort_by_key(|r| (r.begin_ns, r.seq));
            let last = recs.len() - 1;
            for (i, r) in recs.iter().enumerate() {
                let ph = if i == 0 {
                    "s"
                } else if i == last {
                    "f"
                } else {
                    "t"
                };
                let bp = if ph == "f" { ",\"bp\":\"e\"" } else { "" };
                emit(
                    format!(
                        "{{\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{},\"id\":{}{},\
                         \"name\":\"packet\",\"cat\":\"flow\"}}",
                        ph,
                        r.stage.track(),
                        us(r.begin_ns),
                        id.0,
                        bp
                    ),
                    &mut out,
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Microseconds with exact sub-µs precision, as a JSON number literal.
fn us(ns: u64) -> String {
    if ns.is_multiple_of(1_000) {
        format!("{}", ns / 1_000)
    } else {
        format!("{}.{:03}", ns / 1_000, ns % 1_000)
    }
}

/// Minimal JSON string escaping (details are ASCII we generate).
fn esc(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Seconds with µs precision for human-readable timelines.
fn secs(ns: u64) -> String {
    format!(
        "{}.{:06}s",
        ns / 1_000_000_000,
        (ns % 1_000_000_000) / 1_000
    )
}

/// One packet's retained causal timeline: its own events plus the
/// modulation decisions made under tuples its observation fed.
#[derive(Debug, Clone)]
pub struct PacketJourney {
    /// The packet.
    pub id: PacketId,
    /// Events that resolve to this packet, timeline order.
    pub records: Vec<FlightRecord>,
    /// Modulation events on other packets under this packet's tuples.
    pub causal: Vec<FlightRecord>,
    /// Distilled-tuple indices this packet's observation fed.
    pub tuples: Vec<u64>,
}

impl PacketJourney {
    /// Distinct stages covered, counting causally linked modulation.
    pub fn stages(&self) -> Vec<Stage> {
        let mut set: BTreeSet<Stage> = self.records.iter().map(|r| r.stage).collect();
        if !self.causal.is_empty() {
            set.insert(Stage::Modulate);
        }
        set.into_iter().collect()
    }

    /// Total span time per stage over the packet's own events, in
    /// pipeline-stage order (stages with no spans omitted).
    pub fn stage_latency_ns(&self) -> Vec<(Stage, u64)> {
        let mut sums: BTreeMap<Stage, u64> = BTreeMap::new();
        for r in &self.records {
            if r.is_span() {
                *sums.entry(r.stage).or_insert(0) += r.duration_ns();
            }
        }
        Stage::ALL
            .iter()
            .filter_map(|s| sums.get(s).map(|&v| (*s, v)))
            .collect()
    }

    /// Human-readable timeline with per-stage latency breakdown.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let stages = self.stages();
        out.push_str(&format!(
            "packet {}: {} event(s) across {} stage(s)",
            self.id,
            self.records.len(),
            stages.len()
        ));
        if !self.tuples.is_empty() {
            let ts: Vec<String> = self.tuples.iter().map(|t| t.to_string()).collect();
            out.push_str(&format!(", fed tuple(s) {}", ts.join(", ")));
        }
        out.push('\n');
        for r in &self.records {
            out.push_str(&render_record(r));
        }
        let lat = self.stage_latency_ns();
        if !lat.is_empty() {
            out.push_str("per-stage latency:\n");
            for (s, ns) in lat {
                out.push_str(&format!(
                    "  {:<8} {:>10.3} ms\n",
                    s.label(),
                    ns as f64 / 1e6
                ));
            }
        }
        if !self.causal.is_empty() {
            out.push_str(&format!(
                "modulation decisions under this packet's tuple(s) ({} shown):\n",
                self.causal.len()
            ));
            for r in &self.causal {
                out.push_str(&render_record(r));
            }
        }
        out
    }
}

/// One timeline line: `[stage] begin (+dur) name detail`.
fn render_record(r: &FlightRecord) -> String {
    let dur = if r.is_span() {
        format!(" (+{:.3} ms)", r.duration_ns() as f64 / 1e6)
    } else {
        String::new()
    };
    let tuple = match r.tuple {
        Some(t) => format!(" tuple={t}"),
        None => String::new(),
    };
    format!(
        "  [{:<8}] {:>14} {:<12}{}{}  {}\n",
        r.stage.label(),
        secs(r.begin_ns),
        r.name,
        dur,
        tuple,
        r.detail
    )
}

/// FNV-1a over raw frame bytes: the content key every stage can
/// compute independently from the bytes it holds.
pub fn frame_key(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a sequence of u64 parts (little-endian), for keys built
/// from parsed fields rather than raw bytes.
pub fn mix_key(parts: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for b in p.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Cloneable, shareable handle to a [`FlightRecorder`]. Locking is
/// poison-proof: a panicking holder cannot wedge later observers.
#[derive(Debug, Clone)]
pub struct FlightHandle {
    inner: Arc<Mutex<FlightRecorder>>,
}

impl FlightHandle {
    /// A fresh recorder behind a shared handle.
    pub fn new(capacity: usize) -> Self {
        FlightHandle {
            inner: Arc::new(Mutex::new(FlightRecorder::new(capacity))),
        }
    }

    /// Run `f` with the recorder locked.
    pub fn with<R>(&self, f: impl FnOnce(&mut FlightRecorder) -> R) -> R {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut g)
    }

    /// See [`FlightRecorder::assign`].
    pub fn assign(&self, key: u64) -> PacketId {
        self.with(|r| r.assign(key))
    }

    /// See [`FlightRecorder::alias`].
    pub fn alias(&self, key: u64, id: PacketId) {
        self.with(|r| r.alias(key, id))
    }

    /// See [`FlightRecorder::span`].
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        stage: Stage,
        name: &'static str,
        key: Option<u64>,
        tuple: Option<u64>,
        begin_ns: u64,
        end_ns: u64,
        detail: String,
    ) {
        self.with(|r| r.span(stage, name, key, tuple, begin_ns, end_ns, detail));
    }

    /// See [`FlightRecorder::instant`].
    pub fn instant(
        &self,
        stage: Stage,
        name: &'static str,
        key: Option<u64>,
        tuple: Option<u64>,
        at_ns: u64,
        detail: String,
    ) {
        self.with(|r| r.instant(stage, name, key, tuple, at_ns, detail));
    }

    /// See [`FlightRecorder::to_chrome_trace`].
    pub fn to_chrome_trace(&self) -> String {
        self.with(|r| r.to_chrome_trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(r: &mut FlightRecorder, n: u64) {
        r.instant(
            Stage::Collect,
            "collect",
            Some(n),
            None,
            n * 10,
            format!("p{n}"),
        );
    }

    #[test]
    fn ring_evicts_oldest_first_and_keeps_seq_contiguous() {
        let mut r = FlightRecorder::new(4);
        for n in 0..10 {
            rec(&mut r, n);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.evicted(), 6);
        assert_eq!(r.pushed(), 10);
        let seqs: Vec<u64> = r.records().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn identity_assign_alias_resolve() {
        let mut r = FlightRecorder::new(8);
        let id = r.assign(0xaa);
        assert_eq!(r.assign(0xaa), id);
        r.alias(0xbb, id);
        assert_eq!(r.packet_for_key(0xbb), Some(id));
        let id2 = r.assign(0xcc);
        assert_ne!(id, id2);
        // alias never rebinds
        r.alias(0xbb, id2);
        assert_eq!(r.packet_for_key(0xbb), Some(id));
        assert_eq!(r.packets(), 2);
    }

    #[test]
    fn journey_links_stages_and_causal_modulation() {
        let mut r = FlightRecorder::new(64);
        let id = r.assign(0x1);
        r.alias(0x2, id); // parsed-record alias
        r.span(
            Stage::Netsim,
            "transit",
            Some(0x1),
            None,
            0,
            500,
            "wl".into(),
        );
        r.span(
            Stage::Wavelan,
            "air",
            Some(0x1),
            None,
            500,
            900,
            String::new(),
        );
        r.instant(
            Stage::Collect,
            "collect",
            Some(0x2),
            None,
            900,
            String::new(),
        );
        r.instant(
            Stage::Distill,
            "attribute",
            Some(0x2),
            Some(7),
            1_000,
            String::new(),
        );
        // Benchmark packet modulated under tuple 7:
        r.assign(0x9);
        r.instant(
            Stage::Modulate,
            "release",
            Some(0x9),
            Some(7),
            2_000,
            String::new(),
        );
        let j = r.journey(id).unwrap();
        assert_eq!(j.records.len(), 4);
        assert_eq!(j.tuples, vec![7]);
        assert_eq!(j.causal.len(), 1);
        assert_eq!(j.stages(), Stage::ALL.to_vec());
        assert_eq!(r.best_packet(), Some(id));
        let lat = j.stage_latency_ns();
        assert_eq!(lat, vec![(Stage::Netsim, 500), (Stage::Wavelan, 400)]);
        let text = j.render_text();
        assert!(text.contains("5 stage(s)"));
        assert!(text.contains("tuple(s) 7"));
    }

    #[test]
    fn chrome_trace_has_tracks_flows_and_fixed_shape() {
        let mut r = FlightRecorder::new(64);
        let id = r.assign(0x1);
        r.span(
            Stage::Netsim,
            "transit",
            Some(0x1),
            None,
            1_000,
            2_500,
            "wl".into(),
        );
        r.instant(
            Stage::Collect,
            "collect",
            Some(0x1),
            None,
            2_500,
            "q\"x\"".into(),
        );
        let _ = id;
        let json = r.to_chrome_trace();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\","));
        assert!(json.contains("\"thread_name\""));
        for st in Stage::ALL {
            assert!(json.contains(&format!("\"name\":\"{}\"", st.label())));
        }
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"s\"")); // flow start
        assert!(json.contains("\"ph\":\"f\"")); // flow finish
        assert!(json.contains("\\\"x\\\"")); // escaped detail
        assert!(!json.contains("wall"), "no wall-clock fields in export");
        // Parses as JSON under the shim.
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        let obj = v.as_object().unwrap();
        assert!(serde::Value::field(obj, "traceEvents").is_some());
    }

    #[test]
    fn sub_microsecond_timestamps_are_exact() {
        assert_eq!(us(1_234_567), "1234.567");
        assert_eq!(us(2_000), "2");
        assert_eq!(us(0), "0");
    }

    #[test]
    fn keys_are_stable() {
        assert_eq!(frame_key(b"abc"), frame_key(b"abc"));
        assert_ne!(frame_key(b"abc"), frame_key(b"abd"));
        assert_eq!(mix_key(&[1, 2]), mix_key(&[1, 2]));
        assert_ne!(mix_key(&[1, 2]), mix_key(&[2, 1]));
    }
}
