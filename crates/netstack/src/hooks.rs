//! The two kernel extension points the paper adds to the protocol stack:
//!
//! * a **device tap** in the input/output routines of the network device —
//!   this is where trace *collection* hooks in (§3.1.2);
//! * a **link shim** between the IP layer and the device — this is where
//!   the *modulation* layer sits (§3.3).
//!
//! Both are traits so that `tracekit` and `modulate` plug into the stack
//! without the stack depending on them.

use netsim::{SimRng, SimTime};
use std::any::Any;

/// Direction of a frame relative to the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Leaving the host.
    Outbound,
    /// Arriving at the host.
    Inbound,
}

/// Observer invoked for every frame crossing the device boundary, plus a
/// periodic poll for device status sampling (signal level etc.).
pub trait DeviceTap: Any + Send {
    /// A frame passed the device input/output routine.
    fn on_frame(&mut self, dir: Direction, bytes: &[u8], now: SimTime);

    /// Called at the host's device-poll cadence while tracing is enabled.
    fn on_poll(&mut self, _now: SimTime) {}
}

/// What the shim decided to do with a frame offered to it.
#[derive(Debug)]
pub enum ShimVerdict {
    /// Forward immediately; ownership of the (possibly modified) frame
    /// returns to the host.
    Pass(Vec<u8>),
    /// Silently discard.
    Drop,
    /// The shim has queued the frame and will release it from
    /// [`LinkShim::collect_due_into`] at or after [`LinkShim::next_wakeup`].
    Hold,
}

/// A frame released by the shim after a hold.
#[derive(Debug)]
pub struct ShimRelease {
    /// Which side of the stack the frame continues toward.
    pub dir: Direction,
    /// The frame bytes.
    pub bytes: Vec<u8>,
}

/// A packet-processing layer between IP and the device. The host offers it
/// every frame in both directions; held frames are re-injected when the
/// host's shim timer fires.
pub trait LinkShim: Any + Send {
    /// Offer a frame traveling in `dir`. `Hold` transfers ownership into
    /// the shim's internal queue.
    fn offer(
        &mut self,
        dir: Direction,
        bytes: Vec<u8>,
        now: SimTime,
        rng: &mut SimRng,
    ) -> ShimVerdict;

    /// Earliest instant at which a held frame (or internal bookkeeping)
    /// needs service, if any. The host keeps a timer armed for this.
    fn next_wakeup(&self) -> Option<SimTime>;

    /// Remove every frame due at or before `now` and append it, in
    /// order, to the caller-owned `out`, so a host servicing its shim
    /// timer every tick can reuse one allocation.
    fn collect_due_into(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<ShimRelease>);
}

/// A shim that passes everything through — useful as a baseline and in
/// tests.
#[derive(Debug, Default)]
pub struct PassthroughShim;

impl LinkShim for PassthroughShim {
    fn offer(
        &mut self,
        _dir: Direction,
        bytes: Vec<u8>,
        _now: SimTime,
        _rng: &mut SimRng,
    ) -> ShimVerdict {
        ShimVerdict::Pass(bytes)
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        None
    }

    fn collect_due_into(&mut self, _now: SimTime, _rng: &mut SimRng, _out: &mut Vec<ShimRelease>) {}
}

/// A tap that counts frames and bytes per direction — useful baseline and
/// test double.
#[derive(Debug, Default)]
pub struct CountingTap {
    /// Outbound (frames, bytes).
    pub outbound: (u64, u64),
    /// Inbound (frames, bytes).
    pub inbound: (u64, u64),
    /// Number of polls observed.
    pub polls: u64,
}

impl DeviceTap for CountingTap {
    fn on_frame(&mut self, dir: Direction, bytes: &[u8], _now: SimTime) {
        let slot = match dir {
            Direction::Outbound => &mut self.outbound,
            Direction::Inbound => &mut self.inbound,
        };
        slot.0 += 1;
        slot.1 += bytes.len() as u64;
    }

    fn on_poll(&mut self, _now: SimTime) {
        self.polls += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_tap_counts() {
        let mut tap = CountingTap::default();
        tap.on_frame(Direction::Outbound, &[0u8; 100], SimTime::ZERO);
        tap.on_frame(Direction::Inbound, &[0u8; 40], SimTime::ZERO);
        tap.on_frame(Direction::Inbound, &[0u8; 60], SimTime::ZERO);
        tap.on_poll(SimTime::ZERO);
        assert_eq!(tap.outbound, (1, 100));
        assert_eq!(tap.inbound, (2, 100));
        assert_eq!(tap.polls, 1);
    }

    #[test]
    fn passthrough_never_holds() {
        let mut shim = PassthroughShim;
        let mut rng = SimRng::seed_from_u64(1);
        match shim.offer(Direction::Outbound, vec![1, 2, 3], SimTime::ZERO, &mut rng) {
            ShimVerdict::Pass(bytes) => assert_eq!(bytes, vec![1, 2, 3]),
            other => panic!("expected Pass, got {other:?}"),
        }
        assert!(shim.next_wakeup().is_none());
        let mut out = Vec::new();
        shim.collect_due_into(SimTime::MAX, &mut rng, &mut out);
        assert!(out.is_empty());
    }
}
