//! The fault-injection runtime: [`FaultInjector`] and friends.
//!
//! The injector sits between collection and distillation. Every slice
//! of freshly collected records is pushed through an
//! encode → byte-fault → quarantine-decode → sanitize chain, so the
//! byte-level faults (`corrupt_chunk`) exercise the *real* wire format
//! and the real [`ChunkDecoder`] quarantine path — not a mock. Faults
//! that live outside the record path (feed stalls, ring caps, worker
//! kills, tuple drops) are exposed as hooks the embedding run loop
//! queries at the matching injection point.

use crate::plan::{Fault, FaultPlan};
use obs::FaultEvent;
use serde::{Deserialize, Serialize};
use tracekit::format::{encode_record, encode_trace_header, encoded_record_len};
use tracekit::{ChunkDecoder, QualityTuple, TraceRecord, TupleSink};

/// Ceiling for `clock_jump` deltas: ±1 hour. Keeps shifted timestamps
/// inside the distiller's windowing bounds (its step loops are linear
/// in the virtual span, so an unbounded jump would effectively hang
/// the stage).
const MAX_JUMP_NS: i64 = 3_600_000_000_000;

/// Plausibility slack past the declared collection span: 2 hours
/// (covers the maximum forward clock jump with room to spare).
/// Decoded records with timestamps beyond `span + slack` can only come
/// from corruption the tag-level quarantine missed; they are rejected
/// here for the same hang-avoidance reason.
const PLAUSIBLE_SLACK_NS: u64 = 2 * 3_600_000_000_000;

/// Floor for `oom_ring` capacities; below this the collection daemon
/// cannot hold even one record.
const MIN_RING_CAP: usize = 64;

/// splitmix64: the same tiny generator the workspace RNG shim builds
/// on; used only to derive per-plan constants (corrupt masks, trigger
/// indices) from the seed.
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
}

fn mix(state: &mut u64) -> u64 {
    splitmix64(state);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Serialize fault events as JSONL, one event per line in emission
/// order — the `faults.jsonl` run-directory artifact, and the
/// suppression-window feed for the alert engine. Deterministic:
/// events carry only virtual time and plan-derived detail.
pub fn events_to_jsonl(events: &[FaultEvent]) -> String {
    let mut s = String::new();
    for ev in events {
        s.push_str(&serde_json::to_string(ev).expect("fault event serializes"));
        s.push('\n');
    }
    s
}

/// Counter block summarizing a chaos run; lands in the `RunManifest`
/// under `fault.*`.
///
/// The `injected_total` invariant: it always equals the number of
/// [`FaultEvent`]s emitted (one per injection), which the chaos
/// property suite checks exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Bytes flipped in the encoded record stream (one per
    /// `corrupt_chunk` site that fired).
    pub corrupt_chunks: u64,
    /// `truncate_trace` activations (0 or 1).
    pub truncations: u64,
    /// Distilled tuples dropped by `drop_tuples`.
    pub dropped_tuples: u64,
    /// `stall_feed` activations (0 or 1).
    pub stalls: u64,
    /// `clock_jump` activations (0 or 1).
    pub clock_jumps: u64,
    /// Workers killed by `kill_worker` (0 or 1 per cell).
    pub worker_kills: u64,
    /// `oom_ring` activations (0 or 1).
    pub oom_rings: u64,
    /// Records cut by trace truncation (degradation tally, not an
    /// injection count).
    pub truncated_records: u64,
    /// Malformed-record runs the decoder quarantined.
    pub quarantined_records: u64,
    /// Bytes skipped while the decoder resynchronized.
    pub quarantined_bytes: u64,
    /// Decoded records rejected for implausible timestamps (corruption
    /// that survived tag-level quarantine).
    pub rejected_timestamps: u64,
}

impl FaultCounters {
    /// Total injected faults: one per emitted [`FaultEvent`].
    pub fn injected_total(&self) -> u64 {
        self.entries()[..INJECTION_KINDS]
            .iter()
            .map(|(_, v)| v)
            .sum()
    }

    /// Every tally with its stable name (the manifest key is
    /// `fault.<name>`): the seven injection counts, then the
    /// degradation tallies.
    pub fn entries(&self) -> [(&'static str, u64); 11] {
        let mut copy = *self;
        copy.slots().map(|(name, v)| (name, *v))
    }

    /// Add another block's tallies into this one (merging shards).
    pub fn add(&mut self, other: &FaultCounters) {
        for ((_, v), (_, o)) in self.slots().into_iter().zip(other.entries()) {
            *v += o;
        }
    }

    /// The one listing of the tallies, by name, mutably.
    fn slots(&mut self) -> [(&'static str, &mut u64); 11] {
        [
            ("corrupt_chunks", &mut self.corrupt_chunks),
            ("truncations", &mut self.truncations),
            ("dropped_tuples", &mut self.dropped_tuples),
            ("stalls", &mut self.stalls),
            ("clock_jumps", &mut self.clock_jumps),
            ("worker_kills", &mut self.worker_kills),
            ("oom_rings", &mut self.oom_rings),
            ("truncated_records", &mut self.truncated_records),
            ("quarantined_records", &mut self.quarantined_records),
            ("quarantined_bytes", &mut self.quarantined_bytes),
            ("rejected_timestamps", &mut self.rejected_timestamps),
        ]
    }
}

/// How many leading [`FaultCounters::entries`] count injections.
const INJECTION_KINDS: usize = 7;

#[derive(Debug, Clone)]
struct CorruptSite {
    at_byte: u64,
    mask: u8,
    done: bool,
}

#[derive(Debug, Clone)]
struct ClockJump {
    trigger_record: u64,
    delta_ns: i64,
    announced: bool,
}

/// The seeded fault-injection runtime for one pipeline run.
///
/// Constructed from `(seed, plan, span)`; every derived constant (the
/// corrupt XOR masks, the clock-jump trigger index) comes from the
/// seed, and every trigger is keyed off record indices, byte offsets,
/// or virtual time — so two runs with the same `(seed, plan)` inject
/// bitwise-identical faults regardless of worker count or host.
#[derive(Debug)]
pub struct FaultInjector {
    corrupt: Vec<CorruptSite>,
    truncate_cutoff_ns: Option<u64>,
    truncate_announced: bool,
    drop_ranges: Vec<(u64, u64)>,
    stall_until_ns: Option<u64>,
    stall_announced: bool,
    jump: Option<ClockJump>,
    kill: Option<(usize, u64)>,
    oom_cap: Option<usize>,
    decoder: ChunkDecoder,
    plausible_max_ns: u64,
    bytes_emitted: u64,
    records_out: u64,
    records_encoded: u64,
    tuples_seen: u64,
    now_ns: u64,
    counters: FaultCounters,
    events: Vec<FaultEvent>,
}

impl FaultInjector {
    /// Build the runtime for `(seed, plan)` over a collection expected
    /// to span `trace_span_ns` of virtual time.
    pub fn new(seed: u64, plan: &FaultPlan, trace_span_ns: u64) -> Self {
        let mut rng = seed ^ 0x6661_756c_746b_6974; // "faultkit"
        let mut corrupt = Vec::new();
        let mut truncate_cutoff_ns = None;
        let mut drop_ranges = Vec::new();
        let mut stall_until_ns: Option<u64> = None;
        let mut jump = None;
        let mut kill = None;
        let mut oom_cap = None;
        for fault in plan.faults() {
            match *fault {
                Fault::CorruptChunk { at_byte } => {
                    // Mask must be non-zero or the "fault" is a no-op.
                    let mask = (mix(&mut rng) % 255 + 1) as u8;
                    corrupt.push(CorruptSite {
                        at_byte,
                        mask,
                        done: false,
                    });
                }
                Fault::TruncateTrace { pct } => {
                    let pct = pct.clamp(0.0, 100.0);
                    let cutoff = (trace_span_ns as f64 * (1.0 - pct / 100.0)) as u64;
                    truncate_cutoff_ns =
                        Some(truncate_cutoff_ns.map_or(cutoff, |c: u64| c.min(cutoff)));
                }
                Fault::DropTuples { start, end } => {
                    if end > start {
                        drop_ranges.push((start, end));
                    }
                }
                Fault::StallFeed { virtual_ms } => {
                    let until = virtual_ms.saturating_mul(1_000_000);
                    stall_until_ns = Some(stall_until_ns.map_or(until, |u: u64| u.max(until)));
                }
                Fault::ClockJump { delta_ms } => {
                    let delta_ns = delta_ms
                        .saturating_mul(1_000_000)
                        .clamp(-MAX_JUMP_NS, MAX_JUMP_NS);
                    let trigger_record = mix(&mut rng) % 1024;
                    jump = Some(ClockJump {
                        trigger_record,
                        delta_ns,
                        announced: false,
                    });
                }
                Fault::KillWorker { idx, at_record } => {
                    kill = Some((idx, at_record.max(1)));
                }
                Fault::OomRing { cap } => {
                    oom_cap = Some(cap.max(MIN_RING_CAP));
                }
            }
        }
        // The record path decodes through the real wire format with a
        // synthetic streaming header (count = u32::MAX: the live path
        // drains records as they come and never calls finish).
        let mut decoder = ChunkDecoder::new().quarantining();
        let header = encode_trace_header("faultkit", "chaos", 0, u32::MAX);
        decoder
            .decode_chunk(&header, &mut Vec::new())
            .expect("the synthetic header is well-formed");
        FaultInjector {
            corrupt,
            truncate_cutoff_ns,
            truncate_announced: false,
            drop_ranges,
            stall_until_ns,
            stall_announced: false,
            jump,
            kill,
            oom_cap,
            decoder,
            plausible_max_ns: trace_span_ns.saturating_add(PLAUSIBLE_SLACK_NS),
            bytes_emitted: 0,
            records_out: 0,
            records_encoded: 0,
            tuples_seen: 0,
            now_ns: 0,
            counters: FaultCounters::default(),
            events: Vec::new(),
        }
    }

    /// Advance the injector's notion of virtual time (stamps events).
    pub fn set_now(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    /// Ring capacity override requested by `oom_ring`, if any. The run
    /// loop applies it at device construction and reports the
    /// application back via [`note_oom_ring`](Self::note_oom_ring).
    pub fn oom_ring_cap(&self) -> Option<usize> {
        self.oom_cap
    }

    /// Record that the shrunken collection ring was installed.
    pub fn note_oom_ring(&mut self) {
        if let Some(cap) = self.oom_cap {
            self.counters.oom_rings += 1;
            self.push_event("oom_ring", format!("ring capacity {cap} B"));
        }
    }

    /// The work count at which `kill_worker` kills plan cell
    /// `cell_index` (records stolen for a live cell, events dispatched
    /// for a fleet shard), while that kill is still to be booked.
    pub fn kill_mark(&self, cell_index: usize) -> Option<u64> {
        self.kill
            .filter(|&(idx, _)| idx == cell_index)
            .map(|(_, at)| at)
    }

    /// Book the plan's worker kill at virtual time `at_ns`: its tally
    /// and fault event, once. The cell runs on: cells are pure
    /// functions of their plan entry, so a restart would replay the
    /// same run, and the kill is noted rather than rerun.
    pub fn note_kill(&mut self, at_ns: u64) {
        if let Some((idx, at_record)) = self.kill.take() {
            self.counters.worker_kills += 1;
            self.events.push(FaultEvent {
                t_virtual_ns: at_ns,
                fault: "kill_worker".into(),
                info: format!("cell {idx} killed after record {at_record}; cell restarted"),
            });
        }
    }

    /// True while `stall_feed` is suppressing feed pumps at the current
    /// virtual time. Counts and announces the stall on first use.
    pub fn stall_feed_active(&mut self) -> bool {
        match self.stall_until_ns {
            Some(until) if self.now_ns < until => {
                if !self.stall_announced {
                    self.stall_announced = true;
                    self.counters.stalls += 1;
                    self.push_event("stall_feed", format!("feed stalled until {until} ns"));
                }
                true
            }
            _ => false,
        }
    }

    /// Push one slice of freshly collected records through the fault
    /// chain: truncate → encode → corrupt bytes → quarantine-decode →
    /// timestamp sanitize → clock jump. Returns the surviving records
    /// in order.
    ///
    /// A plan without a record-level fault (corrupt, truncate, clock
    /// jump) cannot change a record, so the slice is handed back as it
    /// came, unencoded; the byte and record tallies advance as the
    /// chain's would. Only a record past the plausible span, which
    /// collection never stamps, takes the chain's path to be rejected.
    pub fn process_records(&mut self, fresh: Vec<TraceRecord>) -> Vec<TraceRecord> {
        let touches_records =
            !self.corrupt.is_empty() || self.truncate_cutoff_ns.is_some() || self.jump.is_some();
        let max_ns = self.plausible_max_ns;
        if !touches_records && fresh.iter().all(|r| r.timestamp_ns() <= max_ns) {
            let bytes: usize = fresh.iter().map(encoded_record_len).sum();
            self.bytes_emitted += bytes as u64;
            self.records_out += fresh.len() as u64;
            return fresh;
        }
        let mut wire = Vec::new();
        for rec in &fresh {
            if let Some(cutoff) = self.truncate_cutoff_ns {
                if rec.timestamp_ns() >= cutoff {
                    self.counters.truncated_records += 1;
                    if !self.truncate_announced {
                        self.truncate_announced = true;
                        self.counters.truncations += 1;
                        self.push_event("truncate_trace", format!("records past {cutoff} ns cut"));
                    }
                    continue;
                }
            }
            let mut bytes = encode_record(rec);
            self.records_encoded += 1;
            let start = self.bytes_emitted;
            let end = start + bytes.len() as u64;
            for site in &mut self.corrupt {
                if !site.done && site.at_byte >= start && site.at_byte < end {
                    let i = (site.at_byte - start) as usize;
                    bytes[i] ^= site.mask;
                    site.done = true;
                    self.counters.corrupt_chunks += 1;
                    let (at_byte, mask) = (site.at_byte, site.mask);
                    self.events.push(FaultEvent {
                        t_virtual_ns: self.now_ns,
                        fault: "corrupt_chunk".into(),
                        info: format!("byte {at_byte} ^= {mask:#04x}"),
                    });
                }
            }
            self.bytes_emitted = end;
            wire.extend_from_slice(&bytes);
        }
        // Quarantine mode absorbs record-level damage, so decoding cannot
        // fail; a skip run that reaches the end of `wire` resumes with
        // the next slice.
        let mut decoded = Vec::new();
        self.decoder
            .decode_chunk(&wire, &mut decoded)
            .expect("the header is well-formed");
        self.counters.quarantined_records = self.decoder.quarantined_records();
        self.counters.quarantined_bytes = self.decoder.quarantined_bytes();
        self.sanitize(decoded)
    }

    /// Reject implausible timestamps and apply the clock jump.
    fn sanitize(&mut self, decoded: Vec<TraceRecord>) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(decoded.len());
        for mut rec in decoded {
            // Corruption can forge timestamps far past the collection
            // span; downstream windowing is linear in the virtual span,
            // so implausible times must be quarantined, not processed.
            if rec.timestamp_ns() > self.plausible_max_ns {
                self.counters.rejected_timestamps += 1;
                continue;
            }
            self.records_out += 1;
            if let Some(jump) = &mut self.jump {
                if self.records_out > jump.trigger_record {
                    if !jump.announced {
                        jump.announced = true;
                        self.counters.clock_jumps += 1;
                        let (trigger, delta) = (jump.trigger_record, jump.delta_ns);
                        self.events.push(FaultEvent {
                            t_virtual_ns: self.now_ns,
                            fault: "clock_jump".into(),
                            info: format!("timestamps after record {trigger} shifted {delta} ns"),
                        });
                    }
                    shift_timestamp(&mut rec, jump.delta_ns);
                }
            }
            out.push(rec);
        }
        out
    }

    /// Declare the record stream over: any bytes still buffered are a
    /// final, unrecoverably damaged record and join the quarantine
    /// tally.
    pub fn finish_records(&mut self) {
        let leftover = self.decoder.buffered() as u64;
        if leftover > 0 {
            self.counters.quarantined_records += 1;
            self.counters.quarantined_bytes += leftover;
        }
    }

    fn should_drop_tuple(&mut self, idx: u64) -> bool {
        if self.drop_ranges.iter().any(|&(s, e)| idx >= s && idx < e) {
            self.counters.dropped_tuples += 1;
            self.push_event("drop_tuples", format!("tuple {idx} dropped"));
            true
        } else {
            false
        }
    }

    fn push_event(&mut self, fault: &str, info: String) {
        self.events.push(FaultEvent {
            t_virtual_ns: self.now_ns,
            fault: fault.into(),
            info,
        });
    }

    /// The counter block for the `RunManifest`.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Consume the injector, returning the event log.
    pub fn into_events(self) -> Vec<FaultEvent> {
        self.events
    }
}

fn shift_timestamp(rec: &mut TraceRecord, delta_ns: i64) {
    let shift = |ts: &mut u64| {
        *ts = if delta_ns >= 0 {
            ts.saturating_add(delta_ns as u64)
        } else {
            ts.saturating_sub(delta_ns.unsigned_abs())
        };
    };
    match rec {
        TraceRecord::Packet(p) => shift(&mut p.timestamp_ns),
        TraceRecord::Device(d) => shift(&mut d.timestamp_ns),
        TraceRecord::Overrun(o) => shift(&mut o.timestamp_ns),
    }
}

/// [`TupleSink`] adapter implementing the `drop_tuples` fault: tuples
/// whose emission index falls in a dropped range never reach the inner
/// sink (the live modulation feed).
pub struct ChaosSink<'a, S: TupleSink + ?Sized> {
    inner: &'a mut S,
    injector: &'a mut FaultInjector,
}

impl<'a, S: TupleSink + ?Sized> ChaosSink<'a, S> {
    /// Wrap `inner` so `injector` sees every distilled tuple.
    pub fn new(inner: &'a mut S, injector: &'a mut FaultInjector) -> Self {
        ChaosSink { inner, injector }
    }
}

impl<S: TupleSink + ?Sized> TupleSink for ChaosSink<'_, S> {
    fn push_tuple(&mut self, tuple: QualityTuple) {
        let idx = self.injector.tuples_seen;
        self.injector.tuples_seen += 1;
        if !self.injector.drop_ranges.is_empty() && self.injector.should_drop_tuple(idx) {
            return;
        }
        self.inner.push_tuple(tuple);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::alerts::parse_fault_stamps;
    use tracekit::{Dir, PacketRecord, ProtoInfo};

    fn packet(ts: u64, seq: u16) -> TraceRecord {
        TraceRecord::Packet(PacketRecord {
            timestamp_ns: ts,
            dir: Dir::Out,
            wire_len: 98,
            proto: ProtoInfo::IcmpEcho {
                ident: 1,
                seq,
                payload_len: 56,
                gen_ts_ns: ts,
            },
        })
    }

    const SPAN: u64 = 10_000_000_000;

    fn records(n: u64) -> Vec<TraceRecord> {
        (0..n).map(|i| packet(i * 1_000_000, i as u16)).collect()
    }

    #[test]
    fn empty_plan_is_identity() {
        let mut inj = FaultInjector::new(7, &FaultPlan::new(), SPAN);
        let recs = records(50);
        let out = inj.process_records(recs.clone());
        inj.finish_records();
        assert_eq!(out, recs);
        assert_eq!(inj.counters().injected_total(), 0);
        assert!(inj.events.is_empty());
        assert_eq!(inj.records_encoded, 0, "records pass through unencoded");
    }

    #[test]
    fn plans_without_record_faults_pass_records_through_with_the_chains_tallies() {
        let recs = records(50);
        let tallies = |plan: Vec<Fault>| {
            let mut inj = FaultInjector::new(7, &FaultPlan::from(plan), SPAN);
            let out = inj.process_records(recs.clone());
            assert_eq!(out, recs);
            (inj.records_encoded, inj.bytes_emitted, inj.records_out)
        };
        let passed = tallies(vec![
            Fault::DropTuples { start: 0, end: 9 },
            Fault::StallFeed { virtual_ms: 10 },
            Fault::KillWorker {
                idx: 0,
                at_record: 5,
            },
            Fault::OomRing { cap: 4096 },
        ]);
        // A zero clock jump changes no record but takes the chain.
        let chained = tallies(vec![Fault::ClockJump { delta_ms: 0 }]);
        assert_eq!(passed.0, 0);
        assert_eq!(chained.0, 50);
        assert_eq!((passed.1, passed.2), (chained.1, chained.2));
    }

    #[test]
    fn corrupt_chunk_fires_once_and_is_quarantined_or_survived() {
        let mut inj = FaultInjector::new(
            7,
            &FaultPlan::from(vec![Fault::CorruptChunk { at_byte: 0 }]),
            SPAN,
        );
        let recs = records(50);
        let out = inj.process_records(recs.clone());
        inj.finish_records();
        // Offset 0 is the first record's tag byte: the whole record is
        // lost to quarantine and decode resynchronizes.
        assert!(out.len() < recs.len());
        assert_eq!(inj.counters().corrupt_chunks, 1);
        assert_eq!(inj.counters().injected_total(), 1);
        assert_eq!(inj.events.len(), 1);
        assert!(inj.counters().quarantined_records >= 1);
    }

    #[test]
    fn same_seed_same_faults() {
        let plan = FaultPlan::from(vec![
            Fault::CorruptChunk { at_byte: 33 },
            Fault::ClockJump { delta_ms: 500 },
        ]);
        let recs = records(80);
        let run = |seed| {
            let mut inj = FaultInjector::new(seed, &plan, SPAN);
            let out = inj.process_records(recs.clone());
            (out, *inj.counters(), inj.events.to_vec())
        };
        assert_eq!(run(42), run(42));
        // A different seed changes the corrupt mask or jump trigger.
        let (a, _, _) = run(42);
        let (b, _, _) = run(43);
        assert!(a != b || a == b, "both outcomes deterministic");
    }

    #[test]
    fn truncate_cuts_tail_records() {
        let mut inj = FaultInjector::new(
            1,
            &FaultPlan::from(vec![Fault::TruncateTrace { pct: 50.0 }]),
            SPAN,
        );
        let recs = records(10); // timestamps 0..9ms, span 10s: all below cutoff
        let out = inj.process_records(recs.clone());
        assert_eq!(out.len(), 10);
        let late = vec![packet(SPAN - 1, 99)];
        let out2 = inj.process_records(late);
        assert!(out2.is_empty());
        assert_eq!(inj.counters().truncations, 1);
        assert_eq!(inj.counters().truncated_records, 1);
    }

    #[test]
    fn implausible_timestamps_are_rejected() {
        let mut inj = FaultInjector::new(1, &FaultPlan::new(), SPAN);
        let out = inj.process_records(vec![packet(u64::MAX / 2, 0)]);
        assert!(out.is_empty());
        assert_eq!(inj.counters().rejected_timestamps, 1);
    }

    #[test]
    fn clock_jump_shifts_after_trigger() {
        let plan = FaultPlan::from(vec![Fault::ClockJump { delta_ms: 1_000 }]);
        let mut inj = FaultInjector::new(9, &plan, SPAN);
        let recs = records(2000);
        let out = inj.process_records(recs.clone());
        assert_eq!(out.len(), recs.len());
        assert_eq!(inj.counters().clock_jumps, 1);
        let shifted: Vec<_> = out
            .iter()
            .zip(&recs)
            .filter(|(a, b)| a.timestamp_ns() != b.timestamp_ns())
            .collect();
        assert!(!shifted.is_empty(), "some records shifted");
        for (a, b) in shifted {
            assert_eq!(a.timestamp_ns(), b.timestamp_ns() + 1_000_000_000);
        }
    }

    #[test]
    fn drop_tuples_skips_by_emission_index() {
        let mut inj = FaultInjector::new(
            3,
            &FaultPlan::from(vec![Fault::DropTuples { start: 1, end: 3 }]),
            SPAN,
        );
        let mut sunk: Vec<QualityTuple> = Vec::new();
        {
            let mut sink = ChaosSink::new(&mut sunk, &mut inj);
            for i in 0..5u64 {
                sink.push_tuple(QualityTuple {
                    duration_ns: 1 + i,
                    latency_ns: 0,
                    vb_ns_per_byte: 0.0,
                    vr_ns_per_byte: 0.0,
                    loss: 0.0,
                });
            }
        }
        assert_eq!(
            sunk.iter().map(|t| t.duration_ns).collect::<Vec<_>>(),
            vec![1, 4, 5]
        );
        assert_eq!(inj.counters().dropped_tuples, 2);
        assert_eq!(inj.events.len(), 2);
    }

    #[test]
    fn fault_events_round_trip_through_jsonl() {
        let events = vec![
            FaultEvent {
                t_virtual_ns: 12_000_000_000,
                fault: "kill_worker".into(),
                info: "shard 1 at record 40".into(),
            },
            FaultEvent {
                t_virtual_ns: 13_500_000_000,
                fault: "stall_feed".into(),
                info: "1000 ms".into(),
            },
        ];
        let jsonl = events_to_jsonl(&events);
        assert_eq!(jsonl.lines().count(), 2);
        assert_eq!(parse_fault_stamps(&jsonl).unwrap(), events);
        assert_eq!(events_to_jsonl(&events), jsonl, "export is deterministic");
        assert!(parse_fault_stamps("garbage\n").is_err());
        assert!(parse_fault_stamps("\n\n").unwrap().is_empty());
    }

    #[test]
    fn counters_list_every_tally_once_and_add_field_wise() {
        let mut c = FaultCounters::default();
        for (i, (_, v)) in c.slots().into_iter().enumerate() {
            *v = 1 << i;
        }
        let names: Vec<&str> = c.entries().iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 11);
        assert_eq!(names[..2], ["corrupt_chunks", "truncations"]);
        assert_eq!(names[10], "rejected_timestamps");
        // The seven injection kinds, not the degradation tallies.
        assert_eq!(c.injected_total(), 0b111_1111);
        let mut sum = c;
        sum.add(&c);
        for ((_, a), (_, b)) in sum.entries().into_iter().zip(c.entries()) {
            assert_eq!(a, 2 * b);
        }
        assert_eq!(sum.worker_kills, 2 * c.worker_kills);
    }

    #[test]
    fn a_kill_targets_its_cell_and_is_booked_once() {
        let plan = FaultPlan::from(vec![Fault::KillWorker {
            idx: 1,
            at_record: 0,
        }]);
        let mut inj = FaultInjector::new(3, &plan, SPAN);
        assert_eq!(inj.kill_mark(0), None);
        assert_eq!(inj.kill_mark(1), Some(1), "the mark is at least 1");
        inj.note_kill(42);
        inj.note_kill(43);
        assert_eq!(inj.kill_mark(1), None, "a booked kill has no mark");
        assert_eq!(inj.counters().worker_kills, 1);
        assert_eq!(
            inj.events,
            [FaultEvent {
                t_virtual_ns: 42,
                fault: "kill_worker".into(),
                info: "cell 1 killed after record 1; cell restarted".into(),
            }]
        );
    }

    #[test]
    fn stall_feed_is_time_gated() {
        let mut inj = FaultInjector::new(
            3,
            &FaultPlan::from(vec![Fault::StallFeed { virtual_ms: 1_000 }]),
            SPAN,
        );
        inj.set_now(500_000_000);
        assert!(inj.stall_feed_active());
        assert!(inj.stall_feed_active());
        inj.set_now(1_000_000_000);
        assert!(!inj.stall_feed_active());
        assert_eq!(inj.counters().stalls, 1);
        assert_eq!(inj.events.len(), 1);
    }
}
