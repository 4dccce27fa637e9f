//! The [`Node`] trait and the [`Context`] handed to nodes during dispatch.

use crate::core::EventCore;
use crate::event::{EventKind, Frame, NodeId, PortId, Scheduled};
use crate::link::Link;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::any::Any;

/// Where a node's port attaches: which link, which direction index for
/// transmission, and who is on the far end.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PortBinding {
    pub link: usize,
    /// Index into `Link::dirs` for frames sent *out* of this port.
    pub dir: usize,
    pub peer: NodeId,
    pub peer_port: PortId,
}

/// Every node's port bindings, indexed by node and then by port: a
/// frame's route is two `Vec` lookups, with no hashing per send.
#[derive(Debug, Default)]
pub(crate) struct PortTable(Vec<Vec<Option<PortBinding>>>);

impl PortTable {
    /// The binding of `node`'s `port`, if it is connected.
    pub fn get(&self, node: NodeId, port: PortId) -> Option<&PortBinding> {
        self.0.get(node.0)?.get(port.0)?.as_ref()
    }

    /// Bind `node`'s `port` to direction `dir` of `link`, whose far end
    /// is `peer`.
    pub fn bind(
        &mut self,
        node: NodeId,
        port: PortId,
        link: usize,
        dir: usize,
        peer: (NodeId, PortId),
    ) {
        if self.0.len() <= node.0 {
            self.0.resize_with(node.0 + 1, Vec::new);
        }
        let ports = &mut self.0[node.0];
        if ports.len() <= port.0 {
            ports.resize(port.0 + 1, None);
        }
        ports[port.0] = Some(PortBinding {
            link,
            dir,
            peer: peer.0,
            peer_port: peer.1,
        });
    }
}

/// A simulated component: a host, a wireless channel, a router, a daemon.
///
/// Nodes receive [`EventKind`]s and react by sending frames, setting
/// timers, and holding frames for later through the [`Context`]. All state
/// lives inside the node; the engine owns scheduling and links.
pub trait Node: Any + Send {
    /// Handle one event. Called with monotonically non-decreasing
    /// `ctx.now()` values.
    fn on_event(&mut self, event: EventKind, ctx: &mut Context<'_>);

    /// Human-readable name for diagnostics.
    fn name(&self) -> &str {
        "node"
    }
}

/// Passive observer of frame movement through links, installed with
/// [`Simulator::set_frame_hook`](crate::Simulator::set_frame_hook).
///
/// The hook sees every [`Context::send`] and [`Context::send_at`]
/// outcome — accepted frames with their computed arrival time, and
/// tail-dropped frames — when the send is made, stamped with the send
/// instant. It must
/// not influence the simulation (it gets no scheduling or RNG access),
/// so installing one cannot change an event trace.
pub trait FrameHook: Send {
    /// A link accepted `bytes` from `from` at `sent`; delivery to `to`
    /// is scheduled for `arrival`.
    fn on_transit(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: &[u8],
        sent: SimTime,
        arrival: SimTime,
    );

    /// The outgoing link direction tail-dropped the frame sent at `now`.
    fn on_link_drop(&mut self, from: NodeId, to: NodeId, bytes: &[u8], now: SimTime) {
        let _ = (from, to, bytes, now);
    }
}

/// Engine services available to a node while it handles an event.
pub struct Context<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) core: &'a mut EventCore<Scheduled>,
    pub(crate) links: &'a mut Vec<Link>,
    pub(crate) ports: &'a PortTable,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) hook: &'a mut Option<Box<dyn FrameHook>>,
}

impl Context<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deterministic RNG shared by the simulation.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    fn push(&mut self, time: SimTime, target: NodeId, kind: EventKind) {
        self.core.push(|seq| Scheduled {
            time,
            seq,
            target,
            kind,
        });
    }

    /// Transmit `frame` out of `port`. Returns `true` if the link accepted
    /// it (it may tail-drop). Panics if the port is not connected — that is
    /// always a topology-construction bug.
    pub fn send(&mut self, port: PortId, frame: Frame) -> bool {
        let now = self.now;
        self.send_at(now, port, frame)
    }

    /// Transmit `frame` out of `port` at `at ≥ now`: the link direction
    /// is offered the frame at `at`, and the frame hook sees it sent at
    /// `at`. This is a frame that only waits out a known delay before
    /// its send, without an event of its own for the wait. Offers on one
    /// link direction must come in non-decreasing `at` order (the
    /// direction asserts it). Returns `true` if the link accepted the
    /// frame. Panics if `at` is before now or the port is not connected.
    pub fn send_at(&mut self, at: SimTime, port: PortId, frame: Frame) -> bool {
        assert!(at >= self.now, "cannot send into the past");
        let binding = *self
            .ports
            .get(self.node, port)
            .unwrap_or_else(|| panic!("node {:?} port {:?} is not connected", self.node, port));
        let dir = &mut self.links[binding.link].dirs[binding.dir];
        match dir.offer(at, frame.len()) {
            Some(arrival) => {
                if let Some(h) = self.hook.as_mut() {
                    h.on_transit(self.node, binding.peer, &frame.data, at, arrival);
                }
                self.push(
                    arrival,
                    binding.peer,
                    EventKind::Deliver {
                        port: binding.peer_port,
                        frame,
                    },
                );
                true
            }
            None => {
                if let Some(h) = self.hook.as_mut() {
                    h.on_link_drop(self.node, binding.peer, &frame.data, at);
                }
                false
            }
        }
    }

    /// Arrange for a `Timer { token }` event on this node after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, token: u64) {
        let t = self.now + delay;
        let node = self.node;
        self.push(t, node, EventKind::Timer { token });
    }

    /// Arrange for a `Timer { token }` event on this node at absolute time
    /// `at` (clamped to now if already past).
    pub fn schedule_at(&mut self, at: SimTime, token: u64) {
        let t = at.max(self.now);
        let node = self.node;
        self.push(t, node, EventKind::Timer { token });
    }

    /// Hand `frame` back to this node as a `Held { token, frame }` event
    /// at absolute time `at`: a frame waiting out a delay waits in the
    /// engine's queue, in the same `(due, seq)` order as every other
    /// event. Panics if `at` is before now.
    pub fn hold(&mut self, at: SimTime, token: u64, frame: Frame) {
        let node = self.node;
        self.push(at, node, EventKind::Held { token, frame });
    }
}
