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
