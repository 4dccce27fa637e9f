//! Events, node identity, and frames carried by the engine.

use crate::time::SimTime;

/// Identifies a node registered with the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies one of a node's attachment points to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub usize);

/// A raw frame as carried on a link: opaque bytes, plus the simulation
/// timestamp at which it was originally handed to the sending device.
///
/// Keeping frames as bytes (rather than a typed packet enum) mirrors a real
/// NIC boundary: every layer above must parse, which is exactly where the
/// paper's tracing and modulation hooks sit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Serialized frame contents (link header + payload).
    pub data: Vec<u8>,
    /// When the original sender queued this frame.
    pub born: SimTime,
}

impl Frame {
    /// Construct a frame born at `born`.
    pub fn new(data: Vec<u8>, born: SimTime) -> Self {
        Frame { data, born }
    }

    /// Size on the wire in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the frame carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// What happened, from the perspective of the receiving node.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A frame finished propagating across a link and arrived on `port`.
    Deliver {
        /// The local port the frame arrived on.
        port: PortId,
        /// The frame itself.
        frame: Frame,
    },
    /// A timer set by this node fired. `token` is caller-defined.
    Timer {
        /// Caller-defined discriminator set when the timer was scheduled.
        token: u64,
    },
    /// A frame this node held with [`Context::hold`](crate::Context::hold)
    /// came back at the instant it asked for. `token` is caller-defined.
    Held {
        /// Caller-defined discriminator set when the frame was held.
        token: u64,
        /// The frame, unchanged.
        frame: Frame,
    },
}

/// Events a [`Simulator`](crate::Simulator) has dispatched, by kind:
/// a work count that reads the same on any machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// [`EventKind::Deliver`]s: one per frame a link delivered.
    pub deliver: u64,
    /// [`EventKind::Timer`]s.
    pub timer: u64,
    /// [`EventKind::Held`]s: frames a node held for itself.
    pub held: u64,
}

impl EventCounts {
    pub(crate) fn count(&mut self, kind: &EventKind) {
        match kind {
            EventKind::Deliver { .. } => self.deliver += 1,
            EventKind::Timer { .. } => self.timer += 1,
            EventKind::Held { .. } => self.held += 1,
        }
    }
}

/// An entry in the global event queue.
#[derive(Debug)]
pub(crate) struct Scheduled {
    pub time: SimTime,
    pub seq: u64,
    pub target: NodeId,
    pub kind: EventKind,
}

impl crate::core::WheelItem for Scheduled {
    fn due_ns(&self) -> u64 {
        self.time.as_nanos()
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_len() {
        let f = Frame::new(vec![0u8; 42], SimTime::ZERO);
        assert_eq!(f.len(), 42);
        assert!(!f.is_empty());
        assert!(Frame::new(vec![], SimTime::ZERO).is_empty());
    }
}
