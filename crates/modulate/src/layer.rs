//! The in-kernel modulation layer (§3.3): a [`LinkShim`] placed between
//! IP and the device that delays and drops every inbound and outbound
//! packet according to the replay trace's quality tuples.
//!
//! Model realization, per the paper:
//!
//! * a **single unified delay queue** — outbound and inbound packets
//!   share one bottleneck, so they interfere with one another;
//! * per-packet delay `F + s·(Vb + Vr)`, with the bottleneck term
//!   (`s·Vb`) serialized: a packet may queue behind the previous
//!   packet's bottleneck departure;
//! * random **drop with probability L applied after the bottleneck**
//!   (lost packets still consume bottleneck time);
//! * departures quantized to the host's clock resolution
//!   ([`TickClock`]);
//! * **delay compensation**: the modulating network's measured mean
//!   `Vb` is subtracted from the replay `Vb` for inbound packets.

use crate::clock::{Quantized, TickClock};
use crate::daemon::TupleBuffer;
use netsim::wheel::{CalendarQueue, WheelStats};
use netsim::{SimDuration, SimRng, SimTime};
use netstack::{Direction, LinkShim, ShimRelease, ShimVerdict};
use obs::flight::{frame_key, FlightHandle, Stage};
use obs::{FidelityCollector, FidelityReport};
use tracekit::{QualityTuple, ReplayTrace};

/// First backoff window after the live tuple buffer runs dry
/// mid-stream (doubles per consecutive empty poll).
const STARVE_BACKOFF_INITIAL_NS: u64 = 250_000_000;
/// Backoff cap. Reaching it means the feed starved for a sustained
/// stretch (several seconds), which marks the run degraded.
const STARVE_BACKOFF_MAX_NS: u64 = 8_000_000_000;

/// Signed difference `a − b` in milliseconds.
fn signed_ms(a: SimTime, b: SimTime) -> f64 {
    if a >= b {
        a.since(b).as_secs_f64() * 1e3
    } else {
        -(b.since(a).as_secs_f64() * 1e3)
    }
}

/// Where the modulator gets its quality tuples.
enum TupleSource {
    /// Whole replay trace held in memory.
    Trace {
        replay: ReplayTrace,
        start: Option<SimTime>,
        looping: bool,
    },
    /// Streamed through the bounded kernel buffer by the daemon.
    Buffer {
        buf: TupleBuffer,
        current: Option<QualityTuple>,
        until: SimTime,
        /// Tuples consumed so far; `popped − 1` is the emission index
        /// of `current` (the distiller counts the same way, so flight
        /// records from both stages meet on the same tuple id).
        popped: u64,
        /// In a starvation backoff window: the buffer was open but
        /// empty when `current` expired, so the stale tuple is being
        /// replayed until the next poll.
        starved: bool,
        /// Width of the next backoff window (ns), doubling per
        /// consecutive empty poll up to [`STARVE_BACKOFF_MAX_NS`].
        backoff_ns: u64,
    },
    /// Per-direction replay traces from one-way (synchronized-clocks)
    /// distillation: outbound packets follow `up`, inbound follow
    /// `down`. Clamped playback, shared start.
    Asymmetric {
        up: ReplayTrace,
        down: ReplayTrace,
        start: Option<SimTime>,
    },
}

/// Modulation counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModStats {
    /// Packets offered to the layer.
    pub offered: u64,
    /// Packets released with no hold (sub-half-tick delay).
    pub immediate: u64,
    /// Packets held for later release.
    pub held: u64,
    /// Packets dropped by the loss process.
    pub dropped: u64,
    /// Packets passed through because no tuple was available yet.
    pub unmodulated: u64,
}

#[derive(Debug)]
struct HeldPkt {
    due: SimTime,
    /// The model's intended (clamped, unquantized) release time — kept
    /// for the fidelity self-check's delay-error measurement.
    ideal_due: SimTime,
    seq: u64,
    dir: Direction,
    bytes: Vec<u8>,
    /// When the packet entered the modulation layer (flight recording).
    offered: SimTime,
    /// Flight-recorder content key, when a recorder is attached.
    key: Option<u64>,
    /// Tuple emission index governing this packet's delay decision.
    tuple: Option<u64>,
}

impl netsim::wheel::WheelItem for HeldPkt {
    fn due_ns(&self) -> u64 {
        self.due.as_nanos()
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// Hold-queue bucket width: the scheduling clock's tick (every quantized
/// release lands on a tick boundary, so one bucket per tick), or ~1 ms
/// for the ideal clock.
fn hold_tick_ns(clock: &TickClock) -> u64 {
    match clock.resolution.as_nanos() {
        0 => 1 << 20,
        r => r,
    }
}

/// A cached `params_at` result for replay-backed sources: `tuple` is in
/// effect for elapsed times in `[from_ns, until_ns)`.
#[derive(Clone, Copy)]
struct TupleWindow {
    tuple: QualityTuple,
    from_ns: u64,
    until_ns: u64,
}

/// The modulation layer.
///
/// ```
/// use modulate::{Modulator, TickClock};
/// use netstack::{Direction, LinkShim, ShimVerdict};
/// use netsim::{SimDuration, SimRng, SimTime};
/// use tracekit::ReplayTrace;
///
/// // Emulate a 2 Mb/s, 5 ms network with an ideal clock.
/// let replay = ReplayTrace::constant(
///     "demo", SimDuration::from_secs(60),
///     SimDuration::from_millis(5), 4000.0, 0.0, 0.0,
/// );
/// let mut m = Modulator::from_replay(replay).with_clock(TickClock::ideal());
/// let mut rng = SimRng::seed_from_u64(1);
/// m.begin(SimTime::ZERO);
/// // A 1000-byte packet: 4 ms bottleneck service + 5 ms latency.
/// let v = m.offer(Direction::Outbound, vec![0; 1000], SimTime::ZERO, &mut rng);
/// assert!(matches!(v, ShimVerdict::Hold));
/// assert_eq!(m.next_wakeup(), Some(SimTime::from_millis(9)));
/// ```
pub struct Modulator {
    source: TupleSource,
    clock: TickClock,
    /// Mean bottleneck per-byte cost of the modulating (physical)
    /// network, in ns/byte, subtracted from inbound `Vb`.
    compensation_vb: f64,
    bottleneck_free: SimTime,
    held: Box<CalendarQueue<HeldPkt>>,
    /// Latest release time per direction ([out, in]): releases are kept
    /// monotone so a tuple transition to lower latency cannot reorder
    /// packets within a direction (a real serial path never would).
    last_due: [SimTime; 2],
    seq: u64,
    stats: ModStats,
    fidelity: FidelityCollector,
    flight: Option<FlightHandle>,
    /// Cached governing-tuple window per direction ([out, in]) for
    /// replay-backed sources, so the hot path does one interval scan
    /// per tuple transition instead of one per packet. (The buffer
    /// source is already incremental and bypasses this.)
    window: [Option<TupleWindow>; 2],
    /// Reused drain buffer for `collect_due_into`.
    release_scratch: Vec<HeldPkt>,
}

impl Modulator {
    /// Modulator playing a whole in-memory replay trace. Playback starts
    /// at the first packet offered, or at [`begin`](Modulator::begin).
    /// When the trace runs out the final tuple stays in effect (matching
    /// a mobile user who has stopped moving); use
    /// [`looping`](Modulator::looping) to replay the file until
    /// interrupted instead, as the paper's daemon optionally does.
    pub fn from_replay(replay: ReplayTrace) -> Self {
        Modulator::with_source(TupleSource::Trace {
            replay,
            start: None,
            looping: false,
        })
    }

    fn with_source(source: TupleSource) -> Self {
        let clock = TickClock::netbsd();
        Modulator {
            source,
            held: Box::new(CalendarQueue::new(hold_tick_ns(&clock))),
            clock,
            compensation_vb: 0.0,
            bottleneck_free: SimTime::ZERO,
            last_due: [SimTime::ZERO; 2],
            seq: 0,
            stats: ModStats::default(),
            fidelity: FidelityCollector::new(),
            flight: None,
            window: [None; 2],
            release_scratch: Vec::new(),
        }
    }

    /// Modulator playing per-direction replay traces (the
    /// synchronized-clocks extension): outbound traffic follows the
    /// uplink trace, inbound the downlink trace. No symmetry assumption
    /// and no compensation needed.
    pub fn from_asymmetric(up: ReplayTrace, down: ReplayTrace) -> Self {
        Modulator::with_source(TupleSource::Asymmetric {
            up,
            down,
            start: None,
        })
    }

    /// Modulator reading tuples from the daemon-fed kernel buffer.
    pub fn from_buffer(buf: TupleBuffer) -> Self {
        Modulator::with_source(TupleSource::Buffer {
            buf,
            current: None,
            until: SimTime::ZERO,
            popped: 0,
            starved: false,
            backoff_ns: STARVE_BACKOFF_INITIAL_NS,
        })
    }

    /// Use a specific scheduling clock (default: the 10 ms NetBSD tick).
    pub fn with_clock(mut self, clock: TickClock) -> Self {
        self.clock = clock;
        // Re-bucket the calendar queue to the new tick, preserving any
        // custom wheel width (construction time only: the queue is
        // still empty).
        if self.held.is_empty() {
            self.held = Box::new(CalendarQueue::with_slots(
                hold_tick_ns(&self.clock),
                self.held.slot_count(),
            ));
        }
        self
    }

    /// Use a narrow delay-queue wheel of `slot_count` slots (default:
    /// [`netsim::wheel::SLOTS`] = 4096). Fleet runs give each of their
    /// thousands of per-client modulators a 64–256 slot wheel — the
    /// live window still covers hundreds of milliseconds at the 10 ms
    /// tick, far past any realistic hold, while the slot heads shrink
    /// from ~16 KiB to 256 B–1 KiB per client; anything beyond the
    /// horizon rides the overflow stage with identical release order.
    /// Construction-time only: panics if packets are already held.
    pub fn with_wheel_slots(mut self, slot_count: usize) -> Self {
        assert!(
            self.held.is_empty(),
            "resize the wheel before offering packets"
        );
        self.held = Box::new(CalendarQueue::with_slots(
            hold_tick_ns(&self.clock),
            slot_count,
        ));
        self
    }

    /// Attach a flight recorder: every intended-vs-actual delay
    /// decision — pass-throughs, drops, drift clamps, immediate
    /// releases, and hold spans — is recorded against the governing
    /// tuple's emission index.
    pub fn with_flight(mut self, flight: FlightHandle) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Loop the replay trace until the experiment ends instead of holding
    /// the final tuple.
    pub fn looping(mut self, on: bool) -> Self {
        if let TupleSource::Trace { looping, .. } = &mut self.source {
            *looping = on;
        }
        self
    }

    /// Enable inbound delay compensation with the measured mean `Vb`
    /// (ns/byte) of the modulating network.
    pub fn with_compensation(mut self, vb_ns_per_byte: f64) -> Self {
        self.compensation_vb = vb_ns_per_byte.max(0.0);
        self
    }

    /// Pin the replay start time (otherwise the first packet starts it).
    pub fn begin(&mut self, at: SimTime) {
        match &mut self.source {
            TupleSource::Trace { start, .. } | TupleSource::Asymmetric { start, .. } => {
                *start = Some(at)
            }
            TupleSource::Buffer { .. } => {}
        }
        self.window = [None; 2];
    }

    /// Counters.
    pub fn stats(&self) -> ModStats {
        self.stats
    }

    /// Snapshot of the fidelity self-check (intended-vs-actual delay
    /// error, deadline misses, drift clamps, loss delta).
    pub fn fidelity(&self) -> FidelityReport {
        self.fidelity.report()
    }

    /// Packets still waiting in the hold queue.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Telemetry readout: `(released_packets, Σ|delay error| ns)` as
    /// exact integers. Unlike [`fidelity`](Self::fidelity) this does no
    /// percentile math, so the fleet sampler can poll it at every
    /// boundary.
    pub fn error_accum(&self) -> (u64, u64) {
        self.fidelity.error_accum()
    }

    /// `true` once sustained tuple-feed starvation has marked this
    /// client degraded. Cheap flag read for the telemetry sampler.
    pub fn is_degraded(&self) -> bool {
        self.fidelity.is_degraded()
    }

    /// Calendar-queue usage counters. Virtual-time deterministic.
    pub fn sched_stats(&self) -> WheelStats {
        self.held.stats()
    }

    /// Offer a batch of same-direction frames that all arrived at `now`
    /// — the per-tick entry point, equivalent to calling
    /// [`offer`](LinkShim::offer) per frame (same verdicts, same RNG
    /// draws, same counters) but without a verdict round-trip each
    /// time: pass-throughs are appended to `out` as immediate releases
    /// in offer order, holds enter the delay queue, drops are counted
    /// in [`stats`](Modulator::stats).
    pub fn offer_batch(
        &mut self,
        dir: Direction,
        frames: impl IntoIterator<Item = Vec<u8>>,
        now: SimTime,
        rng: &mut SimRng,
        out: &mut Vec<ShimRelease>,
    ) {
        for bytes in frames {
            if let ShimVerdict::Pass(bytes) = self.offer(dir, bytes, now, rng) {
                out.push(ShimRelease { dir, bytes });
            }
        }
    }

    fn params_at(&mut self, dir: Direction, now: SimTime) -> Option<QualityTuple> {
        let dir_idx = match dir {
            Direction::Outbound => 0,
            Direction::Inbound => 1,
        };
        match &mut self.source {
            TupleSource::Asymmetric { up, down, start } => {
                let s = *start.get_or_insert(now);
                let elapsed = now.since(s);
                if let Some(w) = &self.window[dir_idx] {
                    let e = elapsed.as_nanos();
                    if w.from_ns <= e && e < w.until_ns {
                        return Some(w.tuple);
                    }
                }
                let trace = match dir {
                    Direction::Outbound => up,
                    Direction::Inbound => down,
                };
                let (tuple, from_ns, until_ns) = trace.window_at(elapsed, false)?;
                self.window[dir_idx] = Some(TupleWindow {
                    tuple,
                    from_ns,
                    until_ns,
                });
                Some(tuple)
            }
            TupleSource::Trace {
                replay,
                start,
                looping,
            } => {
                let s = *start.get_or_insert(now);
                let elapsed = now.since(s);
                // Both directions share one trace: cache in slot 0.
                if let Some(w) = &self.window[0] {
                    let e = elapsed.as_nanos();
                    if w.from_ns <= e && e < w.until_ns {
                        return Some(w.tuple);
                    }
                }
                let (tuple, from_ns, until_ns) = replay.window_at(elapsed, *looping)?;
                self.window[0] = Some(TupleWindow {
                    tuple,
                    from_ns,
                    until_ns,
                });
                Some(tuple)
            }
            TupleSource::Buffer {
                buf,
                current,
                until,
                popped,
                starved,
                backoff_ns,
            } => {
                // Advance through expired tuples. An empty buffer means
                // two very different things depending on whether the
                // writer closed it: end-of-trace (hold the final tuple
                // silently, as a replay file would) versus starvation
                // (replay the *stale* tuple, back off exponentially,
                // and — once the backoff saturates — mark the run
                // degraded).
                loop {
                    match current {
                        None => match buf.pop() {
                            Some(t) => {
                                *until = now + t.duration();
                                *current = Some(t);
                                *popped += 1;
                            }
                            None => return None,
                        },
                        Some(c) => {
                            if now < *until {
                                return Some(*c);
                            }
                            match buf.pop() {
                                Some(t) => {
                                    if *starved {
                                        // Recovered: the schedule
                                        // slipped during the outage, so
                                        // restart the tuple clock.
                                        *starved = false;
                                        *backoff_ns = STARVE_BACKOFF_INITIAL_NS;
                                        *until = now + t.duration();
                                    } else {
                                        *until += t.duration();
                                    }
                                    *current = Some(t);
                                    *popped += 1;
                                }
                                None if buf.is_closed() => {
                                    // Genuine end of trace: hold the
                                    // final tuple, not a degradation.
                                    return Some(*c);
                                }
                                None => {
                                    // Starved: replay the stale tuple
                                    // for one backoff window before
                                    // polling again.
                                    *starved = true;
                                    *until = now + SimDuration::from_nanos(*backoff_ns);
                                    *backoff_ns = (*backoff_ns * 2).min(STARVE_BACKOFF_MAX_NS);
                                    self.fidelity.on_starvation_hold();
                                    if *backoff_ns >= STARVE_BACKOFF_MAX_NS {
                                        self.fidelity.on_starvation_saturated();
                                    }
                                    return Some(*c);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Emission index of the tuple currently governing decisions
    /// (buffer source only — trace sources have no shared emission
    /// numbering with a live distiller).
    fn current_tuple_index(&self) -> Option<u64> {
        match &self.source {
            TupleSource::Buffer {
                current: Some(_),
                popped,
                ..
            } => popped.checked_sub(1),
            _ => None,
        }
    }
}

impl LinkShim for Modulator {
    fn offer(
        &mut self,
        dir: Direction,
        bytes: Vec<u8>,
        now: SimTime,
        rng: &mut SimRng,
    ) -> ShimVerdict {
        self.stats.offered += 1;
        let key = self.flight.as_ref().map(|fl| {
            let k = frame_key(&bytes);
            // Benchmark packets enter the observed pipeline here, so
            // this is where their identity is born.
            fl.assign(k);
            k
        });
        let Some(q) = self.params_at(dir, now) else {
            // No tuples yet (daemon still priming): transparent.
            self.stats.unmodulated += 1;
            self.fidelity.on_unmodulated();
            if let Some(fl) = &self.flight {
                fl.instant(
                    Stage::Modulate,
                    "pass",
                    key,
                    None,
                    now.as_nanos(),
                    "unmodulated (no tuple yet)".to_string(),
                );
            }
            return ShimVerdict::Pass(bytes);
        };
        let tuple = self.current_tuple_index();
        self.fidelity.on_modulated(q.loss);
        let s = bytes.len() as f64;

        // Bottleneck serialization, shared by both directions, with the
        // inbound compensation applied to Vb.
        let vb = match dir {
            Direction::Inbound => (q.vb_ns_per_byte - self.compensation_vb).max(0.0),
            Direction::Outbound => q.vb_ns_per_byte,
        };
        if matches!(dir, Direction::Inbound) && self.compensation_vb > 0.0 && q.vb_ns_per_byte > 0.0
        {
            self.fidelity.on_compensated();
        }
        let service = netsim::SimDuration::from_nanos((s * vb).round().max(0.0) as u64);
        let start = self.bottleneck_free.max(now);
        let leave_bottleneck = start + service;
        self.bottleneck_free = leave_bottleneck;

        // Loss applied after the bottleneck: a lost packet has already
        // consumed bottleneck time.
        if rng.chance(q.loss) {
            self.stats.dropped += 1;
            self.fidelity.on_drop();
            if let Some(fl) = &self.flight {
                fl.instant(
                    Stage::Modulate,
                    "drop",
                    key,
                    tuple,
                    leave_bottleneck.as_nanos(),
                    format!("loss process p={:.4}", q.loss),
                );
            }
            return ShimVerdict::Drop;
        }

        let intended = leave_bottleneck + q.latency() + q.residual_delay(bytes.len());
        let mut due = intended;
        // Keep per-direction releases monotone (no reordering when the
        // active tuple's delay shrinks).
        let dir_idx = match dir {
            Direction::Outbound => 0,
            Direction::Inbound => 1,
        };
        if due < self.last_due[dir_idx] {
            due = self.last_due[dir_idx];
            self.fidelity.on_drift_clamp();
            if let Some(fl) = &self.flight {
                fl.instant(
                    Stage::Modulate,
                    "clamp",
                    key,
                    tuple,
                    now.as_nanos(),
                    format!(
                        "monotone clamp +{:.3}ms (intended {:.3}ms)",
                        signed_ms(due, intended),
                        signed_ms(intended, now)
                    ),
                );
            }
        }
        self.last_due[dir_idx] = due.max(now);
        match self.clock.quantize(now, due) {
            Quantized::Immediate => {
                self.stats.immediate += 1;
                // Released now although the model wanted `due`: the
                // paper's §5.4 under-delay artifact (negative error).
                self.fidelity.on_release(signed_ms(now, due), false);
                if let Some(fl) = &self.flight {
                    fl.instant(
                        Stage::Modulate,
                        "release",
                        key,
                        tuple,
                        now.as_nanos(),
                        format!(
                            "immediate, intended +{:.3}ms err {:+.3}ms",
                            signed_ms(due, now),
                            signed_ms(now, due)
                        ),
                    );
                }
                ShimVerdict::Pass(bytes)
            }
            Quantized::At(t) => {
                self.stats.held += 1;
                self.seq += 1;
                self.held.push(HeldPkt {
                    due: t,
                    ideal_due: due,
                    seq: self.seq,
                    dir,
                    bytes,
                    offered: now,
                    key,
                    tuple,
                });
                ShimVerdict::Hold
            }
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.held.next_due_ns().map(SimTime::from_nanos)
    }

    fn collect_due(&mut self, now: SimTime, rng: &mut SimRng) -> Vec<ShimRelease> {
        let mut out = Vec::new();
        self.collect_due_into(now, rng, &mut out);
        out
    }

    fn collect_due_into(&mut self, now: SimTime, _rng: &mut SimRng, out: &mut Vec<ShimRelease>) {
        // Drain in one batch (wholesale-sorted buckets), then account
        // each release in `(due, seq)` order.
        let mut due = std::mem::take(&mut self.release_scratch);
        due.clear();
        self.held.drain_due_into(now.as_nanos(), &mut due);
        for p in due.drain(..) {
            // Released at `now`: positive error = held past the intended
            // time (quantization or a late wakeup), deadline missed when
            // the quantized due tick itself has already passed.
            let err_ms = signed_ms(now, p.ideal_due);
            let missed = now > p.due;
            self.fidelity.on_release(err_ms, missed);
            if let Some(fl) = &self.flight {
                fl.span(
                    Stage::Modulate,
                    "hold",
                    p.key,
                    p.tuple,
                    p.offered.as_nanos(),
                    now.as_nanos(),
                    format!(
                        "held {:.3}ms err {err_ms:+.3}ms{}",
                        signed_ms(now, p.offered),
                        if missed { " (deadline missed)" } else { "" }
                    ),
                );
            }
            out.push(ShimRelease {
                dir: p.dir,
                bytes: p.bytes,
            });
        }
        self.release_scratch = due;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimDuration;

    fn trace(latency_ms: u64, vb: f64, vr: f64, loss: f64) -> ReplayTrace {
        ReplayTrace::constant(
            "test",
            SimDuration::from_secs(3600),
            SimDuration::from_millis(latency_ms),
            vb,
            vr,
            loss,
        )
    }

    fn rng() -> SimRng {
        SimRng::seed_from_u64(42)
    }

    fn offer(
        m: &mut Modulator,
        dir: Direction,
        n: usize,
        now: SimTime,
        r: &mut SimRng,
    ) -> ShimVerdict {
        m.offer(dir, vec![0u8; n], now, r)
    }

    #[test]
    fn delay_formula_f_plus_s_v() {
        // F = 50 ms, Vb = 4000 ns/B, Vr = 1000 ns/B, ideal clock.
        let mut m =
            Modulator::from_replay(trace(50, 4000.0, 1000.0, 0.0)).with_clock(TickClock::ideal());
        let mut r = rng();
        m.begin(SimTime::ZERO);
        let v = offer(&mut m, Direction::Outbound, 1000, SimTime::ZERO, &mut r);
        assert!(matches!(v, ShimVerdict::Hold));
        // due = s·Vb (4 ms) + F (50 ms) + s·Vr (1 ms) = 55 ms.
        assert_eq!(m.next_wakeup(), Some(SimTime::from_millis(55)));
        let rel = m.collect_due(SimTime::from_millis(55), &mut r);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel[0].bytes.len(), 1000);
    }

    #[test]
    fn unified_bottleneck_couples_directions() {
        let mut m =
            Modulator::from_replay(trace(0, 4000.0, 0.0, 0.0)).with_clock(TickClock::ideal());
        let mut r = rng();
        m.begin(SimTime::ZERO);
        // Outbound then inbound at t=0, 1000 B each: bottleneck services
        // them serially (4 ms each).
        offer(&mut m, Direction::Outbound, 1000, SimTime::ZERO, &mut r);
        offer(&mut m, Direction::Inbound, 1000, SimTime::ZERO, &mut r);
        let due1 = m.next_wakeup().unwrap();
        assert_eq!(due1, SimTime::from_millis(4));
        let rel = m.collect_due(SimTime::from_millis(8), &mut r);
        assert_eq!(rel.len(), 2);
        assert!(matches!(rel[0].dir, Direction::Outbound));
        assert!(matches!(rel[1].dir, Direction::Inbound));
    }

    #[test]
    fn inbound_compensation_reduces_vb_only_inbound() {
        let mut m = Modulator::from_replay(trace(0, 4000.0, 0.0, 0.0))
            .with_clock(TickClock::ideal())
            .with_compensation(800.0); // the Ethernet's per-byte cost
        let mut r = rng();
        m.begin(SimTime::ZERO);
        offer(&mut m, Direction::Inbound, 1000, SimTime::ZERO, &mut r);
        // Inbound service = (4000−800) ns/B × 1000 B = 3.2 ms.
        assert_eq!(m.next_wakeup(), Some(SimTime::from_nanos(3_200_000)));
        m.collect_due(SimTime::from_secs(1), &mut r);
        offer(
            &mut m,
            Direction::Outbound,
            1000,
            SimTime::from_secs(2),
            &mut r,
        );
        // Outbound unchanged: 4 ms after its start.
        assert_eq!(
            m.next_wakeup(),
            Some(SimTime::from_secs(2) + SimDuration::from_millis(4))
        );
    }

    #[test]
    fn compensation_clamps_at_zero() {
        let mut m = Modulator::from_replay(trace(0, 500.0, 0.0, 0.0))
            .with_clock(TickClock::ideal())
            .with_compensation(800.0);
        let mut r = rng();
        m.begin(SimTime::ZERO);
        // Vb − comp < 0 → clamped: only F (0) remains → immediate.
        let v = offer(&mut m, Direction::Inbound, 1000, SimTime::ZERO, &mut r);
        assert!(matches!(v, ShimVerdict::Pass(_)));
    }

    #[test]
    fn loss_applied_after_bottleneck() {
        let mut m =
            Modulator::from_replay(trace(0, 4000.0, 0.0, 1.0)).with_clock(TickClock::ideal());
        let mut r = rng();
        m.begin(SimTime::ZERO);
        let v = offer(&mut m, Direction::Outbound, 1000, SimTime::ZERO, &mut r);
        assert!(matches!(v, ShimVerdict::Drop));
        // The dropped packet still consumed bottleneck time: the next
        // packet queues behind it.
        let mut m2 =
            Modulator::from_replay(trace(0, 4000.0, 0.0, 0.0)).with_clock(TickClock::ideal());
        m2.begin(SimTime::ZERO);
        m2.bottleneck_free = m.bottleneck_free;
        offer(&mut m2, Direction::Outbound, 1000, SimTime::ZERO, &mut r);
        assert_eq!(m2.next_wakeup(), Some(SimTime::from_millis(8)));
    }

    #[test]
    fn ten_ms_tick_sends_short_delays_immediately() {
        // Delay = 2 ms < half tick → immediate: the paper's under-delay
        // artifact for short NFS messages.
        let mut m = Modulator::from_replay(trace(2, 0.0, 0.0, 0.0));
        let mut r = rng();
        m.begin(SimTime::ZERO);
        let v = offer(&mut m, Direction::Outbound, 100, SimTime::ZERO, &mut r);
        assert!(matches!(v, ShimVerdict::Pass(_)));
        assert_eq!(m.stats().immediate, 1);
        // Delay = 8 ms → due at 1.008 s rounds to the 1.010 s tick.
        let mut m8 = Modulator::from_replay(trace(8, 0.0, 0.0, 0.0));
        m8.begin(SimTime::ZERO);
        let v = offer(
            &mut m8,
            Direction::Outbound,
            100,
            SimTime::from_secs(1),
            &mut r,
        );
        assert!(matches!(v, ShimVerdict::Hold));
        assert_eq!(
            m8.next_wakeup(),
            Some(SimTime::from_secs(1) + SimDuration::from_millis(10))
        );
    }

    #[test]
    fn buffer_source_streams_tuples() {
        let buf = TupleBuffer::new(8);
        buf.write(&[
            QualityTuple {
                duration_ns: 1_000_000_000,
                latency_ns: 5_000_000,
                vb_ns_per_byte: 0.0,
                vr_ns_per_byte: 0.0,
                loss: 0.0,
            },
            QualityTuple {
                duration_ns: 1_000_000_000,
                latency_ns: 40_000_000,
                vb_ns_per_byte: 0.0,
                vr_ns_per_byte: 0.0,
                loss: 0.0,
            },
        ]);
        let mut m = Modulator::from_buffer(buf.clone()).with_clock(TickClock::ideal());
        let mut r = rng();
        // First tuple: 5 ms latency.
        offer(&mut m, Direction::Outbound, 10, SimTime::ZERO, &mut r);
        assert_eq!(m.next_wakeup(), Some(SimTime::from_millis(5)));
        m.collect_due(SimTime::from_secs(1), &mut r);
        // Second tuple active after 1 s: 40 ms latency.
        offer(
            &mut m,
            Direction::Outbound,
            10,
            SimTime::from_millis(1500),
            &mut r,
        );
        assert_eq!(m.next_wakeup(), Some(SimTime::from_millis(1540)));
        // Starved buffer: last tuple stretches.
        m.collect_due(SimTime::from_secs(10), &mut r);
        offer(
            &mut m,
            Direction::Outbound,
            10,
            SimTime::from_secs(30),
            &mut r,
        );
        assert_eq!(
            m.next_wakeup(),
            Some(SimTime::from_secs(30) + SimDuration::from_millis(40))
        );
    }

    #[test]
    fn starvation_and_stream_end_are_distinguished() {
        let mk = |lat_ms: u64| QualityTuple {
            duration_ns: 1_000_000_000,
            latency_ns: lat_ms * 1_000_000,
            vb_ns_per_byte: 0.0,
            vr_ns_per_byte: 0.0,
            loss: 0.0,
        };
        // --- Open buffer that runs dry: starvation with backoff. ---
        let buf = TupleBuffer::new(8);
        buf.write(&[mk(5)]);
        let mut m = Modulator::from_buffer(buf.clone()).with_clock(TickClock::ideal());
        let mut r = rng();
        offer(&mut m, Direction::Outbound, 10, SimTime::ZERO, &mut r);
        assert_eq!(m.next_wakeup(), Some(SimTime::from_millis(5)));
        m.collect_due(SimTime::from_secs(1), &mut r);
        // Tuple expired at 1 s, buffer open + empty → starvation hold:
        // the stale 5 ms tuple still modulates.
        offer(
            &mut m,
            Direction::Outbound,
            10,
            SimTime::from_millis(1100),
            &mut r,
        );
        assert_eq!(m.fidelity().starvation_holds, 1);
        assert!(
            !m.fidelity().degraded,
            "transient starvation is not degradation"
        );
        m.collect_due(SimTime::from_millis(1150), &mut r);
        // Within the 250 ms backoff window the buffer is NOT re-polled:
        // a fresh tuple sits unread while the stale one replays.
        buf.write(&[mk(40)]);
        offer(
            &mut m,
            Direction::Outbound,
            10,
            SimTime::from_millis(1200),
            &mut r,
        );
        assert_eq!(m.next_wakeup(), Some(SimTime::from_millis(1205)));
        assert_eq!(m.fidelity().starvation_holds, 1);
        m.collect_due(SimTime::from_secs(2), &mut r);
        // Past the window: recovery pops the fresh tuple and restarts
        // its clock from now.
        offer(
            &mut m,
            Direction::Outbound,
            10,
            SimTime::from_millis(1400),
            &mut r,
        );
        assert_eq!(m.next_wakeup(), Some(SimTime::from_millis(1440)));
        assert_eq!(m.fidelity().starvation_holds, 1);
        m.collect_due(SimTime::from_secs(3), &mut r);
        // Sustained starvation (no refill): consecutive empty polls
        // escalate 250→500→1000→2000→4000 ms; when the next window
        // reaches the 8 s cap the run is marked degraded.
        let mut t = SimTime::from_millis(2500);
        for _ in 0..5 {
            offer(&mut m, Direction::Outbound, 10, t, &mut r);
            m.collect_due(t + SimDuration::from_secs(20), &mut r);
            t += SimDuration::from_secs(20);
        }
        assert_eq!(m.fidelity().starvation_holds, 6);
        assert!(m.fidelity().degraded, "saturated backoff marks degradation");

        // --- Closed buffer: end of trace, a silent final hold. ---
        let buf2 = TupleBuffer::new(8);
        buf2.write(&[mk(7)]);
        buf2.close();
        let mut m2 = Modulator::from_buffer(buf2).with_clock(TickClock::ideal());
        offer(&mut m2, Direction::Outbound, 10, SimTime::ZERO, &mut r);
        m2.collect_due(SimTime::from_secs(5), &mut r);
        // Long after the tuple expired: still modulates with it, with
        // no starvation accounting — the stream simply ended.
        offer(
            &mut m2,
            Direction::Outbound,
            10,
            SimTime::from_secs(6),
            &mut r,
        );
        assert_eq!(
            m2.next_wakeup(),
            Some(SimTime::from_secs(6) + SimDuration::from_millis(7))
        );
        assert_eq!(m2.fidelity().starvation_holds, 0);
        assert!(!m2.fidelity().degraded);
    }

    #[test]
    fn empty_buffer_passes_through() {
        let buf = TupleBuffer::new(8);
        let mut m = Modulator::from_buffer(buf);
        let mut r = rng();
        let v = offer(&mut m, Direction::Inbound, 500, SimTime::ZERO, &mut r);
        assert!(matches!(v, ShimVerdict::Pass(_)));
        assert_eq!(m.stats().unmodulated, 1);
    }

    #[test]
    fn fifo_release_order() {
        let mut m =
            Modulator::from_replay(trace(20, 1000.0, 0.0, 0.0)).with_clock(TickClock::ideal());
        let mut r = rng();
        m.begin(SimTime::ZERO);
        for i in 0..5 {
            offer(
                &mut m,
                Direction::Outbound,
                100 + i * 10,
                SimTime::ZERO,
                &mut r,
            );
        }
        let rel = m.collect_due(SimTime::from_secs(1), &mut r);
        assert_eq!(rel.len(), 5);
        let sizes: Vec<usize> = rel.iter().map(|p| p.bytes.len()).collect();
        assert_eq!(sizes, vec![100, 110, 120, 130, 140]);
    }

    #[test]
    fn asymmetric_source_uses_per_direction_tuples() {
        let up = trace(10, 6000.0, 0.0, 0.0); // slow uplink
        let down = trace(2, 2000.0, 0.0, 0.0); // fast downlink
        let mut m = Modulator::from_asymmetric(up, down).with_clock(TickClock::ideal());
        let mut r = rng();
        m.begin(SimTime::ZERO);
        offer(&mut m, Direction::Outbound, 1000, SimTime::ZERO, &mut r);
        // Outbound: 6 ms bottleneck + 10 ms latency = 16 ms.
        assert_eq!(m.next_wakeup(), Some(SimTime::from_millis(16)));
        m.collect_due(SimTime::from_secs(1), &mut r);
        // Inbound at t=2s: 2 ms bottleneck + 2 ms latency = 4 ms.
        offer(
            &mut m,
            Direction::Inbound,
            1000,
            SimTime::from_secs(2),
            &mut r,
        );
        assert_eq!(
            m.next_wakeup(),
            Some(SimTime::from_secs(2) + SimDuration::from_millis(4))
        );
    }

    #[test]
    fn stats_accounting() {
        let mut m = Modulator::from_replay(trace(50, 0.0, 0.0, 0.0));
        let mut r = rng();
        m.begin(SimTime::ZERO);
        for _ in 0..10 {
            offer(&mut m, Direction::Outbound, 100, SimTime::ZERO, &mut r);
        }
        let s = m.stats();
        assert_eq!(s.offered, 10);
        assert_eq!(s.held, 10);
        assert_eq!(s.dropped, 0);
        assert_eq!(s.immediate, 0);
    }
}
