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
//!   ([`TickClock`]), never reordered within a direction, so held
//!   packets wait in one FIFO per direction and leave in exact
//!   `(due, seq)` order;
//! * **delay compensation**: the modulating network's measured mean
//!   `Vb` is subtracted from the replay `Vb` for inbound packets.

use crate::clock::{Quantized, TickClock};
use crate::daemon::TupleBuffer;
use netsim::{SimDuration, SimRng, SimTime};
use netstack::{Direction, LinkShim, ShimRelease, ShimVerdict};
use obs::flight::{frame_key, FlightHandle, Stage};
use obs::{FidelityCollector, FidelityReport};
use std::collections::VecDeque;
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

/// Per-direction slot (`[out, in]`) of the modulator's paired state.
fn dir_idx(dir: Direction) -> usize {
    match dir {
        Direction::Outbound => 0,
        Direction::Inbound => 1,
    }
}

/// Where a [`Cursor`] takes its tuples from.
enum Feed {
    /// An owned tuple list taken front to back: a whole replay trace,
    /// or one direction of a per-direction pair.
    List(std::vec::IntoIter<QualityTuple>),
    /// The bounded kernel buffer a feeder writes into.
    Buffer(TupleBuffer),
}

/// What a [`Feed`] hands over when asked for the next tuple.
enum Take {
    Tuple(QualityTuple),
    /// An exhausted list or a closed buffer: the trace is over.
    Ended,
    /// An open buffer that is empty right now.
    Starved,
}

impl Feed {
    fn take(&mut self) -> Take {
        match self {
            Feed::List(tuples) => tuples.next().map_or(Take::Ended, Take::Tuple),
            Feed::Buffer(buf) => match buf.pop() {
                Some(t) => Take::Tuple(t),
                None if buf.is_closed() => Take::Ended,
                None => Take::Starved,
            },
        }
    }
}

/// The playback cursor: the tuple governing now, until when, and how
/// many tuples its feed has handed over.
struct Cursor {
    feed: Feed,
    current: Option<QualityTuple>,
    until: SimTime,
    /// Tuples taken so far; `taken − 1` is the emission index of
    /// `current` (the distiller counts the same way, so flight records
    /// from both stages meet on the same tuple id).
    taken: u64,
    /// While starved: the width of the next backoff window (ns),
    /// doubling per consecutive empty poll up to
    /// [`STARVE_BACKOFF_MAX_NS`].
    backoff_ns: Option<u64>,
}

impl Cursor {
    /// The tuple governing `now` and its emission index. The first
    /// tuple governs until `start + d`, each later one for its own `d`
    /// after that; `start` is set here if nothing set it before.
    fn advance(
        &mut self,
        now: SimTime,
        start: &mut Option<SimTime>,
        fidelity: &mut FidelityCollector,
    ) -> Option<(QualityTuple, u64)> {
        loop {
            if let Some(c) = self.current {
                if now < self.until {
                    return Some((c, self.taken - 1));
                }
            }
            match (self.feed.take(), self.current) {
                (Take::Tuple(t), prev) => {
                    let from = match (prev, self.backoff_ns.take()) {
                        (None, _) => *start.get_or_insert(now),
                        // Back from starvation: the schedule slipped
                        // during the outage, so restart the tuple clock.
                        (Some(_), Some(_)) => now,
                        (Some(_), None) => self.until,
                    };
                    self.until = from.saturating_add(t.duration());
                    self.current = Some(t);
                    self.taken += 1;
                }
                // A feed that never yielded a tuple: packets pass
                // through unmodulated.
                (_, None) => return None,
                // The trace is over: hold the final tuple for good.
                (Take::Ended, Some(c)) => {
                    self.until = SimTime::MAX;
                    return Some((c, self.taken - 1));
                }
                // Starved: replay the stale tuple for one backoff
                // window before polling again, and mark the run
                // degraded once the backoff saturates.
                (Take::Starved, Some(c)) => {
                    let window = self.backoff_ns.unwrap_or(STARVE_BACKOFF_INITIAL_NS);
                    let next = (window * 2).min(STARVE_BACKOFF_MAX_NS);
                    self.until = now + SimDuration::from_nanos(window);
                    self.backoff_ns = Some(next);
                    fidelity.on_starvation_hold();
                    if next >= STARVE_BACKOFF_MAX_NS {
                        fidelity.on_starvation_saturated();
                    }
                    return Some((c, self.taken - 1));
                }
            }
        }
    }
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

impl HeldPkt {
    fn key(&self) -> (SimTime, u64) {
        (self.due, self.seq)
    }
}

/// The delay queue: one FIFO of held packets per direction (`[out,
/// in]`). [`Modulator::offer`] keeps each direction's release times
/// non-decreasing and numbers every hold with a growing `seq`, so each
/// FIFO is already sorted by `(due, seq)`. Releasing the smaller of the
/// two fronts each time merges them in the exact `(due, seq)` order.
#[derive(Default)]
struct HoldQueue {
    dirs: [VecDeque<HeldPkt>; 2],
    /// High-water mark of [`len`](Self::len).
    peak: usize,
}

impl HoldQueue {
    fn len(&self) -> usize {
        self.dirs[0].len() + self.dirs[1].len()
    }

    fn push(&mut self, p: HeldPkt) {
        let fifo = &mut self.dirs[dir_idx(p.dir)];
        if let Some(back) = fifo.back() {
            assert!(back.key() < p.key(), "hold queue release order broken");
        }
        fifo.push_back(p);
        self.peak = self.peak.max(self.len());
    }

    /// The FIFO whose front is released next.
    fn first(&self) -> Option<usize> {
        match (self.dirs[0].front(), self.dirs[1].front()) {
            (Some(o), Some(i)) => Some(usize::from(i.key() < o.key())),
            (Some(_), None) => Some(0),
            (None, Some(_)) => Some(1),
            (None, None) => None,
        }
    }

    fn next_due(&self) -> Option<SimTime> {
        self.first().map(|d| self.dirs[d][0].due)
    }

    /// Release the next packet if it is due by `now`.
    fn pop_due(&mut self, now: SimTime) -> Option<HeldPkt> {
        let fifo = &mut self.dirs[self.first()?];
        if fifo[0].due <= now {
            fifo.pop_front()
        } else {
            None
        }
    }
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
    /// One cursor shared by both directions, or one per direction
    /// (`[out, in]`) for per-direction traces.
    cursors: Vec<Cursor>,
    /// When playback started: [`begin`](Modulator::begin)'s instant, or
    /// else the instant the first tuple was taken. Per-direction
    /// cursors share it.
    start: Option<SimTime>,
    clock: TickClock,
    /// Mean bottleneck per-byte cost of the modulating (physical)
    /// network, in ns/byte, subtracted from inbound `Vb`.
    compensation_vb: f64,
    bottleneck_free: SimTime,
    held: HoldQueue,
    /// Latest release time per direction ([out, in]): releases are kept
    /// monotone so a tuple transition to lower latency cannot reorder
    /// packets within a direction (a real serial path never would).
    last_due: [SimTime; 2],
    seq: u64,
    stats: ModStats,
    fidelity: FidelityCollector,
    flight: Option<FlightHandle>,
}

impl Modulator {
    /// Modulator playing a whole in-memory replay trace. Playback starts
    /// at the first packet offered, or at [`begin`](Modulator::begin).
    /// When the trace runs out the final tuple stays in effect (matching
    /// a mobile user who has stopped moving).
    pub fn from_replay(replay: ReplayTrace) -> Self {
        Modulator::with_feeds(vec![Feed::List(replay.tuples.into_iter())])
    }

    fn with_feeds(feeds: Vec<Feed>) -> Self {
        Modulator {
            cursors: feeds
                .into_iter()
                .map(|feed| Cursor {
                    feed,
                    current: None,
                    until: SimTime::ZERO,
                    taken: 0,
                    backoff_ns: None,
                })
                .collect(),
            start: None,
            held: HoldQueue::default(),
            clock: TickClock::netbsd(),
            compensation_vb: 0.0,
            bottleneck_free: SimTime::ZERO,
            last_due: [SimTime::ZERO; 2],
            seq: 0,
            stats: ModStats::default(),
            fidelity: FidelityCollector::new(),
            flight: None,
        }
    }

    /// Modulator playing per-direction replay traces (the
    /// synchronized-clocks extension): outbound traffic follows the
    /// uplink trace, inbound the downlink trace. No symmetry assumption
    /// and no compensation needed.
    pub fn from_asymmetric(up: ReplayTrace, down: ReplayTrace) -> Self {
        Modulator::with_feeds(vec![
            Feed::List(up.tuples.into_iter()),
            Feed::List(down.tuples.into_iter()),
        ])
    }

    /// Modulator reading tuples from the kernel buffer a feeder writes.
    /// A closed buffer that runs dry holds the final tuple, as a replay
    /// trace does; an open one that runs dry is starved, and the stale
    /// tuple replays under an exponential backoff until tuples return.
    pub fn from_buffer(buf: TupleBuffer) -> Self {
        Modulator::with_feeds(vec![Feed::Buffer(buf)])
    }

    /// Use a specific scheduling clock (default: the 10 ms NetBSD tick).
    pub fn with_clock(mut self, clock: TickClock) -> Self {
        self.clock = clock;
        self
    }

    /// Does nothing: the hold queue is two FIFOs and has no wheel to
    /// size. Kept only because `tmbench` still calls it.
    #[doc(hidden)]
    pub fn with_wheel_slots(self, _slot_count: usize) -> Self {
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

    /// Enable inbound delay compensation with the measured mean `Vb`
    /// (ns/byte) of the modulating network.
    pub fn with_compensation(mut self, vb_ns_per_byte: f64) -> Self {
        self.compensation_vb = vb_ns_per_byte.max(0.0);
        self
    }

    /// Pin the playback start time (otherwise the first tuple taken
    /// starts it). Call it before the first packet.
    pub fn begin(&mut self, at: SimTime) {
        self.start = Some(at);
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

    /// High-water mark of [`held_count`](Self::held_count).
    pub fn peak_held(&self) -> usize {
        self.held.peak
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

    /// The tuple governing `dir` at `now`, with its emission index.
    fn params_at(&mut self, dir: Direction, now: SimTime) -> Option<(QualityTuple, u64)> {
        let i = dir_idx(dir).min(self.cursors.len() - 1);
        self.cursors[i].advance(now, &mut self.start, &mut self.fidelity)
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
        let Some((q, index)) = self.params_at(dir, now) else {
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
        let tuple = Some(index);
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
        // active tuple's delay shrinks). The hold queue relies on it.
        let dir_idx = dir_idx(dir);
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
        self.held.next_due()
    }

    fn collect_due_into(&mut self, now: SimTime, _rng: &mut SimRng, out: &mut Vec<ShimRelease>) {
        while let Some(p) = self.held.pop_due(now) {
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

    /// Drain every release due at `now` through a fresh buffer.
    fn drain_due(m: &mut Modulator, now: SimTime, r: &mut SimRng) -> Vec<ShimRelease> {
        let mut out = Vec::new();
        m.collect_due_into(now, r, &mut out);
        out
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
        let rel = drain_due(&mut m, SimTime::from_millis(55), &mut r);
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
        let rel = drain_due(&mut m, SimTime::from_millis(8), &mut r);
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
        drain_due(&mut m, SimTime::from_secs(1), &mut r);
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
        drain_due(&mut m, SimTime::from_secs(1), &mut r);
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
        drain_due(&mut m, SimTime::from_secs(10), &mut r);
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
        drain_due(&mut m, SimTime::from_secs(1), &mut r);
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
        drain_due(&mut m, SimTime::from_millis(1150), &mut r);
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
        drain_due(&mut m, SimTime::from_secs(2), &mut r);
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
        drain_due(&mut m, SimTime::from_secs(3), &mut r);
        // Sustained starvation (no refill): consecutive empty polls
        // escalate 250→500→1000→2000→4000 ms; when the next window
        // reaches the 8 s cap the run is marked degraded.
        let mut t = SimTime::from_millis(2500);
        for _ in 0..5 {
            offer(&mut m, Direction::Outbound, 10, t, &mut r);
            drain_due(&mut m, t + SimDuration::from_secs(20), &mut r);
            t += SimDuration::from_secs(20);
        }
        assert_eq!(m.fidelity().starvation_holds, 6);
        assert!(m.fidelity().degraded, "saturated backoff marks degradation");

        // --- End of trace: a silent final hold, whichever feed ran
        // out: a closed buffer, an exhausted list, or exhausted
        // per-direction lists (outbound 7 ms, inbound 9 ms). ---
        let one = |t: QualityTuple| ReplayTrace {
            source: "one".into(),
            tuples: vec![t],
        };
        let buf2 = TupleBuffer::new(8);
        buf2.write(&[mk(7)]);
        buf2.close();
        let ended = [
            ("closed buffer", Modulator::from_buffer(buf2), 7),
            ("exhausted list", Modulator::from_replay(one(mk(7))), 7),
            (
                "exhausted per-direction lists",
                Modulator::from_asymmetric(one(mk(7)), one(mk(9))),
                9,
            ),
        ];
        for (feed, m2, inbound_ms) in ended {
            let mut m2 = m2.with_clock(TickClock::ideal());
            offer(&mut m2, Direction::Outbound, 10, SimTime::ZERO, &mut r);
            drain_due(&mut m2, SimTime::from_secs(5), &mut r);
            // Long after the tuple expired: still modulates with it, with
            // no starvation accounting — the stream simply ended.
            for (dir, at_s, ms) in [
                (Direction::Outbound, 6, 7),
                (Direction::Inbound, 3_600, inbound_ms),
            ] {
                let at = SimTime::from_secs(at_s);
                offer(&mut m2, dir, 10, at, &mut r);
                let want = at + SimDuration::from_millis(ms);
                assert_eq!(m2.next_wakeup(), Some(want), "{feed} {dir:?}");
                drain_due(&mut m2, SimTime::MAX, &mut r);
            }
            assert_eq!(m2.fidelity().starvation_holds, 0, "{feed}");
            assert!(!m2.fidelity().degraded, "{feed}");
            assert_eq!(m2.stats().unmodulated, 0, "{feed}");
        }

        // --- A feed that never yields a tuple passes packets through
        // unmodulated, and is neither starved nor ended. ---
        let closed_empty = TupleBuffer::new(8);
        closed_empty.close();
        let never = [
            (
                "open empty buffer",
                Modulator::from_buffer(TupleBuffer::new(8)),
            ),
            ("closed empty buffer", Modulator::from_buffer(closed_empty)),
            ("empty trace", Modulator::from_replay(ReplayTrace::new("e"))),
            (
                "empty per-direction traces",
                Modulator::from_asymmetric(ReplayTrace::new("u"), ReplayTrace::new("d")),
            ),
        ];
        for (feed, mut m3) in never {
            for (dir, at_s) in [(Direction::Outbound, 0), (Direction::Inbound, 10)] {
                let v = offer(&mut m3, dir, 500, SimTime::from_secs(at_s), &mut r);
                assert!(matches!(v, ShimVerdict::Pass(_)), "{feed} {dir:?}");
            }
            assert_eq!(m3.stats().unmodulated, 2, "{feed}");
            assert_eq!(m3.fidelity().starvation_holds, 0, "{feed}");
        }
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
        let rel = drain_due(&mut m, SimTime::from_secs(1), &mut r);
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
        drain_due(&mut m, SimTime::from_secs(1), &mut r);
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
