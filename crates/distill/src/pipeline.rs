//! The one-pass distillation pipeline (§3.2): collected trace → replay
//! trace. Runs in time linear in the trace length.
//!
//! The core is the incremental [`Distiller`]: it consumes trace records
//! one at a time (from a [`RecordStream`] or pushed directly), solves
//! probe triplets as their groups complete, feeds the sliding delay and
//! loss windows, and emits ⟨d, F, Vb, Vr, L⟩ tuples into a
//! [`TupleSink`] as soon as each window step is provably final — so
//! modulation can start consuming tuples while collection is still
//! running, and peak state is O(window), never the whole trace. The
//! batch [`distill_with_report`] entry point is a thin adapter over the
//! same operator and produces bit-identical output.

use crate::loss::{LossCount, ProbeOutcome};
use crate::solver::{solve_or_correct, DelayEstimate, TripletObservation};
use crate::window::{DelayMean, Step, TimedEstimate, Window, WindowConfig};
use obs::flight::{FlightHandle, Stage};
use std::collections::BTreeMap;
use tracekit::stream::{RecordStream, StreamError, TupleSink};
use tracekit::{ProtoInfo, QualityTuple, ReplayTrace, Trace, TraceRecord};

/// Distillation parameters.
#[derive(Debug, Clone, Copy)]
pub struct DistillConfig {
    /// Sliding-window configuration (5 s window, 1 s step by default).
    pub window: WindowConfig,
    /// How many probe groups past a group the stream may advance before
    /// the group is retired (solved and counted). Bounds both the
    /// distiller's state and its output latency in live mode: a reply
    /// arriving after its group retired is dropped (counted in
    /// [`DistillStats::late_records`]). With 1 s probe groups the
    /// default of 30 tolerates replies up to ~30 s late — far beyond
    /// any RTT the testbed produces — so batch and streaming results
    /// coincide.
    pub reorder_horizon: u16,
}

impl Default for DistillConfig {
    fn default() -> Self {
        DistillConfig {
            window: WindowConfig::default(),
            reorder_horizon: 30,
        }
    }
}

/// A batch distillation's product and the run's counters.
#[derive(Debug)]
pub struct DistillReport {
    /// The replay trace (the actual product).
    pub replay: ReplayTrace,
    /// What the distiller counted on the way.
    pub stats: DistillStats,
}

/// Counters from an incremental distillation run.
#[derive(Debug, Clone, Default)]
pub struct DistillStats {
    /// Groups solved exactly.
    pub solved: usize,
    /// Groups that needed the previous-parameters correction.
    pub corrected: usize,
    /// Complete triplets found.
    pub triplets: usize,
    /// Echo probes sent.
    pub probes_sent: usize,
    /// Replies observed.
    pub replies_seen: usize,
    /// Tuples emitted into the sink.
    pub tuples: usize,
    /// Probe records that arrived after their group had been retired
    /// (beyond the reorder horizon) and were dropped.
    pub late_records: usize,
    /// High-water mark of open (unretired) probe groups.
    pub peak_open_groups: usize,
    /// Groups retired (aged out past the reorder horizon or flushed by
    /// [`Distiller::finish`]).
    pub groups_retired: usize,
    /// High-water mark of estimates/outcomes held inside the sliding
    /// windows — together with `peak_open_groups`, the O(window)
    /// evidence.
    pub peak_window_entries: usize,
}

#[derive(Debug, Default, Clone, Copy)]
struct GroupSlot {
    send_ns: [Option<u64>; 3],
    wire: [Option<u32>; 3],
    rtt_ns: [Option<u64>; 3],
    /// Flight-recorder keys of the outbound probes (only populated
    /// when a recorder is attached), so a solved group's estimate can
    /// be attributed back to the packets that produced it.
    key: [Option<u64>; 3],
}

/// Incremental distillation operator: trace records in, quality tuples
/// out, O(window) state in between.
///
/// Push records in trace order with
/// [`push_record`](Distiller::push_record); tuples appear in the sink
/// as soon as their window step can no longer change. Call
/// [`finish`](Distiller::finish) when the record source is exhausted to
/// retire the remaining groups, flush the windows over the full trace
/// span, and collect the run's [`DistillStats`].
#[derive(Debug)]
pub struct Distiller {
    cfg: DistillConfig,
    t0: Option<u64>,
    last_ns: u64,
    groups: BTreeMap<u16, GroupSlot>,
    max_group: u16,
    prev_solved: Option<DelayEstimate>,
    delay: Window<DelayMean>,
    loss: Window<LossCount>,
    stats: DistillStats,
    flight: Option<FlightHandle>,
    /// Estimates awaiting tuple attribution: (probe key, estimate time
    /// in trace seconds, solved-exactly flag).
    pending_attr: Vec<(u64, f64, bool)>,
    /// Cumulative playback coverage of emitted tuples (trace seconds).
    emitted_span: f64,
    /// Emission index of the next tuple (matches the modulator's
    /// consumption order — the buffer between them is FIFO).
    tuple_idx: u64,
    /// Monotone watermarks for window feed times. The windows require
    /// time-sorted input; a hostile trace (clock jumps, corruption)
    /// can retire groups with regressing send times, so feed times are
    /// clamped up to the watermark instead of wedging the stage. A
    /// no-op on well-ordered traces.
    loss_watermark: f64,
    delay_watermark: f64,
}

impl Distiller {
    /// A fresh distiller.
    pub fn new(cfg: &DistillConfig) -> Self {
        Distiller {
            cfg: *cfg,
            t0: None,
            last_ns: 0,
            groups: BTreeMap::new(),
            max_group: 0,
            prev_solved: None,
            delay: Window::new(&cfg.window, DelayMean::default()),
            loss: Window::new(&cfg.window, LossCount::round_trip()),
            stats: DistillStats::default(),
            flight: None,
            pending_attr: Vec::new(),
            emitted_span: 0.0,
            tuple_idx: 0,
            loss_watermark: 0.0,
            delay_watermark: 0.0,
        }
    }

    /// Attach a flight recorder: each emitted tuple is stamped with its
    /// emission index and playback coverage, and each solved probe
    /// group's packets are attributed to the first tuple whose coverage
    /// window their estimate fed.
    pub fn with_flight(mut self, flight: FlightHandle) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Consume one trace record; completed tuples land in `sink`.
    pub fn push_record<S: TupleSink + ?Sized>(&mut self, rec: &TraceRecord, sink: &mut S) {
        let ts = rec.timestamp_ns();
        if self.t0.is_none() {
            self.t0 = Some(ts);
        }
        self.last_ns = ts;
        if let TraceRecord::Packet(p) = rec {
            match p.proto {
                ProtoInfo::IcmpEcho { seq, .. } if p.dir == tracekit::Dir::Out => {
                    self.stats.probes_sent += 1;
                    let g = seq / 3;
                    if self.is_retired(g) {
                        self.stats.late_records += 1;
                    } else {
                        let slot = self.groups.entry(g).or_default();
                        let k = (seq % 3) as usize;
                        slot.send_ns[k] = Some(p.timestamp_ns);
                        slot.wire[k] = Some(p.wire_len);
                        if self.flight.is_some() {
                            slot.key[k] = Some(p.flight_key());
                        }
                        self.max_group = self.max_group.max(g);
                    }
                }
                ProtoInfo::IcmpEchoReply { seq, rtt_ns, .. } if p.dir == tracekit::Dir::In => {
                    self.stats.replies_seen += 1;
                    let g = seq / 3;
                    if self.is_retired(g) {
                        self.stats.late_records += 1;
                    } else {
                        let slot = self.groups.entry(g).or_default();
                        slot.rtt_ns[(seq % 3) as usize] = Some(rtt_ns);
                        self.max_group = self.max_group.max(g);
                    }
                }
                _ => {}
            }
            self.stats.peak_open_groups = self.stats.peak_open_groups.max(self.groups.len());
            self.retire_aged();
        }
        self.drain_ready(sink);
    }

    // A group already processed cannot be reopened: anything below the
    // smallest open key with the horizon fully behind max_group is gone.
    fn is_retired(&self, g: u16) -> bool {
        if self.groups.contains_key(&g) {
            return false;
        }
        (g as u32) + (self.cfg.reorder_horizon as u32) < self.max_group as u32
    }

    // Retire groups that the stream has advanced past by more than the
    // reorder horizon, in key order (matching the batch BTreeMap sweep).
    fn retire_aged(&mut self) {
        while let Some(&g) = self.groups.keys().next() {
            if (g as u32) + (self.cfg.reorder_horizon as u32) >= self.max_group as u32 {
                break;
            }
            let slot = self.groups.remove(&g).unwrap_or_default();
            self.retire_group(&slot);
        }
    }

    // Per-group solve/correct and window feeding — the exact batch body.
    fn retire_group(&mut self, slot: &GroupSlot) {
        self.stats.groups_retired += 1;
        let t0 = self.t0.unwrap_or(0);
        for k in 0..3 {
            if let Some(send) = slot.send_ns[k] {
                let at = ((send.saturating_sub(t0)) as f64 / 1e9).max(self.loss_watermark);
                self.loss_watermark = at;
                self.loss.push(ProbeOutcome {
                    at,
                    replied: slot.rtt_ns[k].is_some(),
                });
            }
        }
        let (Some(send0), Some(w0), Some(w1)) = (slot.send_ns[0], slot.wire[0], slot.wire[1])
        else {
            return;
        };
        let (Some(r0), Some(r1), Some(r2)) = (slot.rtt_ns[0], slot.rtt_ns[1], slot.rtt_ns[2])
        else {
            return;
        };
        self.stats.triplets += 1;
        let obs = TripletObservation {
            s1: w0 as f64,
            s2: w1 as f64,
            t1: r0 as f64 / 1e9,
            t2: r1 as f64 / 1e9,
            t3: r2 as f64 / 1e9,
        };
        let (est, solved) = solve_or_correct(self.prev_solved.as_ref(), &obs);
        if solved {
            self.stats.solved += 1;
            // The correction must not cascade: only exact solves become
            // the baseline for future corrections.
            self.prev_solved = Some(est);
        } else {
            self.stats.corrected += 1;
        }
        let timed = TimedEstimate {
            at: ((send0.saturating_sub(t0)) as f64 / 1e9).max(self.delay_watermark),
            est,
        };
        self.delay_watermark = timed.at;
        if self.flight.is_some() {
            for key in slot.key.iter().flatten() {
                self.pending_attr.push((*key, timed.at, solved));
            }
        }
        self.delay.push(timed);
    }

    // Pair finalized delay steps with finalized loss steps (both
    // windows emit in step order) into sink tuples.
    fn drain_ready<S: TupleSink + ?Sized>(&mut self, sink: &mut S) {
        self.stats.peak_window_entries = self
            .stats
            .peak_window_entries
            .max(self.delay.live_len() + self.loss.live_len());
        while self.delay.ready() > 0 && self.loss.ready() > 0 {
            let (Some(d), Some(Step { value: loss, .. })) = (self.delay.pop(), self.loss.pop())
            else {
                break;
            };
            let start = self.emitted_span;
            let end = start + d.duration;
            self.emitted_span = end;
            let idx = self.tuple_idx;
            self.tuple_idx += 1;
            if let Some(fl) = &self.flight {
                let t0 = self.t0.unwrap_or(0);
                let at_ns = |secs: f64| t0.saturating_add((secs.max(0.0) * 1e9) as u64);
                fl.instant(
                    Stage::Distill,
                    "tuple",
                    None,
                    Some(idx),
                    at_ns(start),
                    format!(
                        "covers {start:.1}s..{end:.1}s F={:.3}ms loss={loss:.3}",
                        d.value.f.max(0.0) * 1e3
                    ),
                );
                // Attribute each waiting estimate to the first tuple
                // whose coverage reaches past it.
                let mut i = 0;
                while i < self.pending_attr.len() {
                    if self.pending_attr[i].1 < end {
                        let (key, at, solved) = self.pending_attr.remove(i);
                        fl.instant(
                            Stage::Distill,
                            "attribute",
                            Some(key),
                            Some(idx),
                            at_ns(at),
                            format!(
                                "estimate at {at:.1}s ({}) fed tuple {idx}",
                                if solved { "solved" } else { "corrected" }
                            ),
                        );
                    } else {
                        i += 1;
                    }
                }
            }
            sink.push_tuple(quality_tuple(&d, loss));
            self.stats.tuples += 1;
        }
    }

    /// Declare the record source exhausted: retire every open group,
    /// flush both windows over the full trace span, emit the remaining
    /// tuples, and return the run's statistics.
    pub fn finish<S: TupleSink + ?Sized>(mut self, sink: &mut S) -> DistillStats {
        let keys: Vec<u16> = self.groups.keys().copied().collect();
        for g in keys {
            let slot = self.groups.remove(&g).unwrap_or_default();
            self.retire_group(&slot);
        }
        let span = self.last_ns.saturating_sub(self.t0.unwrap_or(0)) as f64 / 1e9;
        self.delay.finish(span);
        self.loss.finish(span);
        self.drain_ready(sink);
        self.stats
    }
}

/// The quality tuple for one delay step and the loss estimate of the
/// same step: the step's length becomes `d`, and each delay component
/// is clamped at 0 (a leading step may carry the raw first estimate).
pub(crate) fn quality_tuple(d: &Step<DelayEstimate>, loss: f64) -> QualityTuple {
    QualityTuple {
        duration_ns: (d.duration * 1e9).round() as u64,
        latency_ns: (d.value.f.max(0.0) * 1e9).round() as u64,
        vb_ns_per_byte: d.value.vb.max(0.0) * 1e9,
        vr_ns_per_byte: d.value.vr.max(0.0) * 1e9,
        loss,
    }
}

/// Distill every record a stream yields into `sink`, treating the first
/// `Ok(None)` as end-of-stream (use the [`Distiller`] directly for live
/// sources where `None` is transient).
pub fn distill_stream<R, S>(
    stream: &mut R,
    cfg: &DistillConfig,
    sink: &mut S,
) -> Result<DistillStats, StreamError>
where
    R: RecordStream + ?Sized,
    S: TupleSink + ?Sized,
{
    let mut d = Distiller::new(cfg);
    while let Some(rec) = stream.next_record()? {
        d.push_record(&rec, sink);
    }
    Ok(d.finish(sink))
}

/// Distill a whole collected trace, returning the replay trace and the
/// run's counters. Batch adapter over the incremental [`Distiller`] —
/// output is bit-identical to the original whole-trace pipeline.
pub fn distill_with_report(trace: &Trace, cfg: &DistillConfig) -> DistillReport {
    let mut replay = ReplayTrace::new(&format!("{} trial {}", trace.scenario, trace.trial));
    let mut distiller = Distiller::new(cfg);
    for rec in &trace.records {
        distiller.push_record(rec, &mut replay);
    }
    let stats = distiller.finish(&mut replay);
    DistillReport { replay, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracekit::{Dir, PacketRecord, TraceRecord, VecStream};

    /// Synthesize a trace of perfect ping triplets under constant
    /// conditions: F (one-way s), Vb/Vr (s per byte), per-direction loss
    /// handled by the caller omitting replies.
    fn synth_trace(secs: u64, f: f64, vb: f64, vr: f64, drop_reply: impl Fn(u16) -> bool) -> Trace {
        let mut t = Trace::new("h", "synth", 1);
        let (s1, s2) = (106u32, 542u32);
        let v = vb + vr;
        for g in 0..secs {
            let base_ns = g * 1_000_000_000;
            for k in 0..3u16 {
                let seq = (g as u16) * 3 + k;
                let wire = if k == 0 { s1 } else { s2 };
                let send_ns = base_ns + k as u64; // back-to-back
                t.records.push(TraceRecord::Packet(PacketRecord {
                    timestamp_ns: send_ns,
                    dir: Dir::Out,
                    wire_len: wire,
                    proto: ProtoInfo::IcmpEcho {
                        ident: 1,
                        seq,
                        payload_len: wire - 42,
                        gen_ts_ns: send_ns,
                    },
                }));
                if drop_reply(seq) {
                    continue;
                }
                let s = wire as f64;
                let rtt = match k {
                    0 => 2.0 * (f + s * v),
                    1 => 2.0 * (f + s * v),
                    _ => 2.0 * (f + s * v) + s * vb,
                };
                let rtt_ns = (rtt * 1e9) as u64;
                t.records.push(TraceRecord::Packet(PacketRecord {
                    timestamp_ns: send_ns + rtt_ns,
                    dir: Dir::In,
                    wire_len: wire,
                    proto: ProtoInfo::IcmpEchoReply {
                        ident: 1,
                        seq,
                        payload_len: wire - 42,
                        rtt_ns,
                    },
                }));
            }
        }
        t.records.sort_by_key(|r| r.timestamp_ns());
        t
    }

    #[test]
    fn recovers_constant_ground_truth() {
        let (f, vb, vr) = (2e-3, 4e-6, 0.8e-6);
        let trace = synth_trace(30, f, vb, vr, |_| false);
        let report = distill_with_report(&trace, &DistillConfig::default());
        assert_eq!(report.stats.triplets, 30);
        assert_eq!(report.stats.solved, 30);
        assert_eq!(report.stats.corrected, 0);
        let replay = &report.replay;
        assert!(replay.is_valid());
        // Every tuple should carry the ground-truth parameters.
        for q in &replay.tuples {
            assert!((q.latency_ns as f64 - f * 1e9).abs() < 1e3, "{q:?}");
            assert!((q.vb_ns_per_byte - vb * 1e9).abs() < 1.0, "{q:?}");
            assert!((q.vr_ns_per_byte - vr * 1e9).abs() < 1.0, "{q:?}");
            assert_eq!(q.loss, 0.0);
        }
    }

    #[test]
    fn loss_estimated_from_missing_replies() {
        // Drop every second group's replies entirely: reply rate 1/2,
        // so L = 1 − sqrt(0.5) ≈ 0.293.
        let trace = synth_trace(40, 2e-3, 4e-6, 0.8e-6, |seq| (seq / 3) % 2 == 0);
        let report = distill_with_report(&trace, &DistillConfig::default());
        let mean = report.replay.mean_loss();
        assert!((mean - 0.293).abs() < 0.05, "mean loss {mean}");
        // Only half the triplets complete.
        assert_eq!(report.stats.triplets, 20);
        assert_eq!(report.stats.probes_sent, 120);
        assert_eq!(report.stats.replies_seen, 60);
    }

    #[test]
    fn incomplete_triplets_do_not_produce_estimates() {
        // Lose only the third packet of each group: no triplet completes,
        // but probes still contribute to loss accounting.
        let trace = synth_trace(10, 2e-3, 4e-6, 0.8e-6, |seq| seq % 3 == 2);
        let report = distill_with_report(&trace, &DistillConfig::default());
        assert_eq!(report.stats.triplets, 0);
        assert_eq!(report.stats.solved + report.stats.corrected, 0);
        // Loss: 2/3 replied → L = 1 − sqrt(2/3) ≈ 0.184.
        let mean = report.replay.mean_loss();
        assert!((mean - 0.184).abs() < 0.05, "mean loss {mean}");
    }

    #[test]
    fn tuple_durations_cover_trace_span() {
        let trace = synth_trace(25, 1e-3, 4e-6, 1e-6, |_| false);
        let replay = distill_with_report(&trace, &DistillConfig::default()).replay;
        let total = replay.total_duration().as_secs_f64();
        let span = trace.span_ns() as f64 / 1e9;
        assert!((total - span).abs() < 0.1, "total {total}, span {span}");
    }

    #[test]
    fn empty_trace_produces_empty_replay() {
        let trace = Trace::new("h", "empty", 1);
        let replay = distill_with_report(&trace, &DistillConfig::default()).replay;
        assert!(replay.tuples.is_empty());
    }

    #[test]
    fn single_pass_is_linear_and_fast() {
        // 1 hour of probes = 3600 groups; distillation should be
        // effectively instant (well under a second even in debug builds).
        let trace = synth_trace(3600, 2e-3, 4e-6, 0.8e-6, |_| false);
        let start = std::time::Instant::now();
        let replay = distill_with_report(&trace, &DistillConfig::default()).replay;
        assert!(replay.is_valid());
        assert!(start.elapsed().as_secs_f64() < 5.0);
    }

    #[test]
    fn stream_matches_batch_bitwise() {
        let trace = synth_trace(60, 2e-3, 4e-6, 0.8e-6, |seq| seq % 7 == 3);
        let cfg = DistillConfig::default();
        let batch = distill_with_report(&trace, &cfg).replay;
        let mut streamed: Vec<QualityTuple> = Vec::new();
        let mut stream = VecStream::from_trace(trace);
        let stats = distill_stream(&mut stream, &cfg, &mut streamed).unwrap();
        assert_eq!(streamed.len(), batch.tuples.len());
        for (s, b) in streamed.iter().zip(&batch.tuples) {
            assert_eq!(s.duration_ns, b.duration_ns);
            assert_eq!(s.latency_ns, b.latency_ns);
            assert_eq!(s.vb_ns_per_byte.to_bits(), b.vb_ns_per_byte.to_bits());
            assert_eq!(s.vr_ns_per_byte.to_bits(), b.vr_ns_per_byte.to_bits());
            assert_eq!(s.loss.to_bits(), b.loss.to_bits());
        }
        assert_eq!(stats.late_records, 0);
    }

    #[test]
    fn tuples_flow_before_finish() {
        let trace = synth_trace(120, 2e-3, 4e-6, 0.8e-6, |_| false);
        let cfg = DistillConfig::default();
        let mut sink: Vec<QualityTuple> = Vec::new();
        let mut d = Distiller::new(&cfg);
        let mut mid_count = None;
        for (i, rec) in trace.records.iter().enumerate() {
            d.push_record(rec, &mut sink);
            if i == trace.records.len() / 2 {
                mid_count = Some(sink.len());
            }
        }
        let stats = d.finish(&mut sink);
        // With a 30-group horizon, tuples start flowing ~31 steps in:
        // by mid-trace (~60 s) a healthy batch must already be out.
        let mid = mid_count.unwrap();
        assert!(mid >= 20, "only {mid} tuples by mid-trace");
        assert_eq!(sink.len(), stats.tuples);
        assert_eq!(sink.len(), 120);
    }

    #[test]
    fn distiller_state_is_bounded() {
        let trace = synth_trace(1800, 2e-3, 4e-6, 0.8e-6, |_| false);
        let cfg = DistillConfig::default();
        let mut sink: Vec<QualityTuple> = Vec::new();
        let mut d = Distiller::new(&cfg);
        for rec in &trace.records {
            d.push_record(rec, &mut sink);
        }
        let stats = d.finish(&mut sink);
        // 1800 groups flowed through, but never more than
        // horizon + 2 were open at once, and the windows held only a
        // window's worth of entries.
        assert!(
            stats.peak_open_groups <= cfg.reorder_horizon as usize + 2,
            "peak open groups {}",
            stats.peak_open_groups
        );
        assert!(
            stats.peak_window_entries <= 64,
            "peak window entries {}",
            stats.peak_window_entries
        );
    }

    #[test]
    fn late_replies_beyond_horizon_are_dropped_and_counted() {
        let mut trace = synth_trace(50, 2e-3, 4e-6, 0.8e-6, |seq| seq == 0);
        // Hand-craft a reply to group 0 arriving 49 s late — far past
        // the 30-group horizon.
        trace.records.push(TraceRecord::Packet(PacketRecord {
            timestamp_ns: 49_500_000_000,
            dir: Dir::In,
            wire_len: 106,
            proto: ProtoInfo::IcmpEchoReply {
                ident: 1,
                seq: 0,
                payload_len: 64,
                rtt_ns: 49_500_000_000,
            },
        }));
        let cfg = DistillConfig::default();
        let mut sink: Vec<QualityTuple> = Vec::new();
        let mut d = Distiller::new(&cfg);
        for rec in &trace.records {
            d.push_record(rec, &mut sink);
        }
        let stats = d.finish(&mut sink);
        assert_eq!(stats.late_records, 1);
    }
}
