//! Point-to-point duplex links with serialization, propagation, and a
//! drop-tail queue.
//!
//! A link connects two node ports. Each direction has independent
//! parameters and state, so asymmetric links (the condition the paper's
//! symmetry assumption papers over) can be modeled directly.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Identifies a link registered with the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Static parameters of one direction of a link.
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// Serialization rate in bits per second. `0` means infinitely fast
    /// (used for host-to-channel attachments whose delay the channel owns).
    pub bandwidth_bps: u64,
    /// Propagation delay applied after serialization completes.
    pub propagation: SimDuration,
    /// Maximum number of frames queued awaiting serialization before the
    /// link tail-drops. `usize::MAX` disables dropping.
    pub queue_frames: usize,
}

impl LinkParams {
    /// An infinitely fast, zero-delay attachment.
    pub fn instant() -> Self {
        LinkParams {
            bandwidth_bps: 0,
            propagation: SimDuration::ZERO,
            queue_frames: usize::MAX,
        }
    }

    /// A classic 10 Mb/s Ethernet segment with a short propagation delay —
    /// the modulation substrate used throughout the paper's experiments.
    pub fn ethernet_10mbps() -> Self {
        LinkParams {
            bandwidth_bps: 10_000_000,
            propagation: SimDuration::from_micros(50),
            queue_frames: 64,
        }
    }

    /// General constructor.
    pub fn new(bandwidth_bps: u64, propagation: SimDuration, queue_frames: usize) -> Self {
        LinkParams {
            bandwidth_bps,
            propagation,
            queue_frames,
        }
    }
}

/// Dynamic state of one direction.
#[derive(Debug)]
pub(crate) struct Direction {
    pub params: LinkParams,
    /// Transmitter is busy until this instant.
    busy_until: SimTime,
    /// Departure times of frames currently queued or in service, used to
    /// compute instantaneous queue occupancy lazily.
    in_flight: VecDeque<SimTime>,
    /// The latest offer instant: offers never go backwards.
    last_offer: SimTime,
}

impl Direction {
    pub fn new(params: LinkParams) -> Self {
        Direction {
            params,
            busy_until: SimTime::ZERO,
            in_flight: VecDeque::new(),
            last_offer: SimTime::ZERO,
        }
    }

    /// Offer a frame of `bytes` at time `now`. Returns the arrival time at
    /// the far end, or `None` if the frame was tail-dropped. Panics if
    /// `now` is before an earlier offer's instant: the lazy queue drain
    /// below is only right for offers in time order, which a sender
    /// using [`Context::send_at`](crate::Context::send_at) must keep.
    pub fn offer(&mut self, now: SimTime, bytes: usize) -> Option<SimTime> {
        assert!(
            now >= self.last_offer,
            "link offers went backwards: {now:?} after {:?}",
            self.last_offer
        );
        self.last_offer = now;
        // Lazily drain entries that have already departed.
        while matches!(self.in_flight.front(), Some(&d) if d <= now) {
            self.in_flight.pop_front();
        }
        if self.in_flight.len() >= self.params.queue_frames {
            return None;
        }
        let start = self.busy_until.max(now);
        let depart = start + SimDuration::transmission(bytes, self.params.bandwidth_bps);
        self.busy_until = depart;
        self.in_flight.push_back(depart);
        Some(depart + self.params.propagation)
    }
}

/// A duplex link: direction 0 carries a→b traffic, direction 1 carries b→a.
#[derive(Debug)]
pub(crate) struct Link {
    pub dirs: [Direction; 2],
}

impl Link {
    pub fn new(ab: LinkParams, ba: LinkParams) -> Self {
        Link {
            dirs: [Direction::new(ab), Direction::new(ba)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(bps: u64, prop_us: u64, q: usize) -> LinkParams {
        LinkParams::new(bps, SimDuration::from_micros(prop_us), q)
    }

    #[test]
    fn serialization_and_propagation() {
        // 1000 bytes at 8 Mb/s = 1 ms serialization + 100 us propagation.
        let mut d = Direction::new(params(8_000_000, 100, 16));
        let arrival = d.offer(SimTime::ZERO, 1000).unwrap();
        assert_eq!(arrival, SimTime::from_micros(1100));
    }

    #[test]
    fn back_to_back_frames_queue() {
        let mut d = Direction::new(params(8_000_000, 0, 16));
        let a1 = d.offer(SimTime::ZERO, 1000).unwrap();
        let a2 = d.offer(SimTime::ZERO, 1000).unwrap();
        assert_eq!(a1, SimTime::from_millis(1));
        assert_eq!(a2, SimTime::from_millis(2));
    }

    #[test]
    fn idle_link_does_not_queue() {
        let mut d = Direction::new(params(8_000_000, 0, 16));
        let _ = d.offer(SimTime::ZERO, 1000).unwrap();
        // Offered after the first departed: no queueing delay.
        let a = d.offer(SimTime::from_millis(5), 1000).unwrap();
        assert_eq!(a, SimTime::from_millis(6));
    }

    #[test]
    fn tail_drop_when_queue_full() {
        let mut d = Direction::new(params(8_000_000, 0, 2));
        assert!(d.offer(SimTime::ZERO, 1000).is_some());
        assert!(d.offer(SimTime::ZERO, 1000).is_some());
        assert!(d.offer(SimTime::ZERO, 1000).is_none());
        // After the queue drains, frames are accepted again.
        assert!(d.offer(SimTime::from_secs(1), 1000).is_some());
    }

    #[test]
    #[should_panic(expected = "link offers went backwards")]
    fn offers_out_of_time_order_panic() {
        let mut d = Direction::new(params(8_000_000, 0, 16));
        let _ = d.offer(SimTime::from_millis(5), 1000);
        let _ = d.offer(SimTime::from_millis(4), 1000);
    }

    #[test]
    fn instant_link_is_transparent() {
        let mut d = Direction::new(LinkParams::instant());
        let a = d.offer(SimTime::from_secs(3), 100_000).unwrap();
        assert_eq!(a, SimTime::from_secs(3));
    }
}
