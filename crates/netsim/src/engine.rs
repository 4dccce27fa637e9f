//! The discrete-event simulator: nodes and links on top of the event
//! core.

use crate::core::{EventCore, Step};
use crate::event::{EventCounts, EventKind, NodeId, PortId, Scheduled};
use crate::link::{Link, LinkId, LinkParams};
use crate::node::{Context, FrameHook, Node, PortTable};
use crate::rng::SimRng;
use crate::time::SimTime;

/// A deterministic discrete-event network simulator.
///
/// Construction: add nodes, connect ports with links, seed initial events,
/// then [`run`](Simulator::run) / [`run_until`](Simulator::run_until). The
/// same seed and topology always produce the same event trace. The clock,
/// the queue and the dispatch loop are an [`EventCore`]; this type routes
/// each event to its target node.
pub struct Simulator {
    core: EventCore<Scheduled>,
    nodes: Vec<Option<Box<dyn Node>>>,
    links: Vec<Link>,
    ports: PortTable,
    rng: SimRng,
    frame_hook: Option<Box<dyn FrameHook>>,
    counts: EventCounts,
}

impl Simulator {
    /// Create a simulator with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulator {
            core: EventCore::new(),
            nodes: Vec::new(),
            links: Vec::new(),
            ports: PortTable::default(),
            rng: SimRng::seed_from_u64(seed),
            frame_hook: None,
            counts: EventCounts::default(),
        }
    }

    /// Install a passive [`FrameHook`] observing every link send.
    /// Hooks get no scheduling or RNG access, so installing one never
    /// changes the event trace.
    pub fn set_frame_hook(&mut self, hook: Box<dyn FrameHook>) {
        self.frame_hook = Some(hook);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.core.now_ns())
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed()
    }

    /// Events processed so far, by kind.
    pub fn events_by_kind(&self) -> EventCounts {
        self.counts
    }

    /// High-water mark of the event-queue depth — keyed to event
    /// scheduling only (virtual time), so it is identical across runs
    /// regardless of wall-clock interleaving.
    pub fn peak_queue_depth(&self) -> usize {
        self.core.peak_queue_depth()
    }

    /// Register a node; returns its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        self.nodes.push(Some(node));
        NodeId(self.nodes.len() - 1)
    }

    /// Connect `a`'s port `pa` to `b`'s port `pb` with the given per
    /// direction parameters (`ab` carries a→b). Panics if either port is
    /// already bound.
    pub fn connect(
        &mut self,
        a: NodeId,
        pa: PortId,
        b: NodeId,
        pb: PortId,
        ab: LinkParams,
        ba: LinkParams,
    ) -> LinkId {
        assert!(
            self.ports.get(a, pa).is_none(),
            "port {pa:?} of node {a:?} already connected"
        );
        assert!(
            self.ports.get(b, pb).is_none(),
            "port {pb:?} of node {b:?} already connected"
        );
        self.links.push(Link::new(ab, ba));
        let link = self.links.len() - 1;
        self.ports.bind(a, pa, link, 0, (b, pb));
        self.ports.bind(b, pb, link, 1, (a, pa));
        LinkId(link)
    }

    /// Connect with identical parameters in both directions.
    pub fn connect_sym(
        &mut self,
        a: NodeId,
        pa: PortId,
        b: NodeId,
        pb: PortId,
        params: LinkParams,
    ) -> LinkId {
        self.connect(a, pa, b, pb, params, params)
    }

    /// Seed an event from outside any node (e.g. to kick off an
    /// application at t=0).
    pub fn schedule_event(&mut self, time: SimTime, target: NodeId, kind: EventKind) {
        self.core.push(|seq| Scheduled {
            time,
            seq,
            target,
            kind,
        });
    }

    /// Borrow a node, downcast to its concrete type. Panics on a type
    /// mismatch or if called re-entrantly for a node being dispatched.
    pub fn node<T: Node>(&self, id: NodeId) -> &T {
        let node = self.nodes[id.0]
            .as_deref()
            .expect("node is currently being dispatched");
        (node as &dyn std::any::Any)
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Mutably borrow a node, downcast to its concrete type.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        let node = self.nodes[id.0]
            .as_deref_mut()
            .expect("node is currently being dispatched");
        (node as &mut dyn std::any::Any)
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    /// Run until the queue is empty or `limit` events have been processed,
    /// leaving the clock at the last event. Returns the number of events
    /// processed by this call.
    pub fn run(&mut self, limit: u64) -> u64 {
        let start = self.core.events_processed();
        self.dispatch(u64::MAX, limit);
        self.core.events_processed() - start
    }

    /// Run until simulated time reaches `deadline` (events at exactly
    /// `deadline` are processed) or the queue empties; the clock then
    /// advances to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.dispatch(deadline.as_nanos(), u64::MAX);
    }

    /// Drive the core, handing each event to its target node.
    fn dispatch(&mut self, deadline_ns: u64, limit: u64) {
        self.core.run(deadline_ns, 0, limit, &mut |step, core| {
            let Step::Event(ev) = step else {
                unreachable!("sampling is off")
            };
            self.counts.count(&ev.kind);
            let mut node = self.nodes[ev.target.0]
                .take()
                .expect("re-entrant dispatch of a node");
            let mut ctx = Context {
                now: ev.time,
                node: ev.target,
                core,
                links: &mut self.links,
                ports: &self.ports,
                rng: &mut self.rng,
                hook: &mut self.frame_hook,
            };
            node.on_event(ev.kind, &mut ctx);
            self.nodes[ev.target.0] = Some(node);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Frame;
    use crate::time::SimDuration;

    /// Test node: echoes every delivered frame back out the same port after
    /// a fixed delay, and counts everything it sees.
    struct Echo {
        delay: SimDuration,
        received: Vec<(SimTime, usize)>,
        timers: Vec<u64>,
        bounce: bool,
    }

    impl Echo {
        fn new(bounce: bool) -> Self {
            Echo {
                delay: SimDuration::from_millis(1),
                received: Vec::new(),
                timers: Vec::new(),
                bounce,
            }
        }
    }

    impl Node for Echo {
        fn on_event(&mut self, event: EventKind, ctx: &mut Context<'_>) {
            match event {
                EventKind::Deliver { port, frame } => {
                    self.received.push((ctx.now(), frame.len()));
                    if self.bounce {
                        ctx.schedule_in(self.delay, port.0 as u64);
                    }
                }
                EventKind::Timer { token } => {
                    self.timers.push(token);
                    if self.bounce {
                        let f = Frame::new(vec![0u8; 100], ctx.now());
                        ctx.send(PortId(token as usize), f);
                        self.bounce = false; // only once
                    }
                }
                EventKind::Held { .. } => {}
            }
        }
    }

    fn two_node_sim() -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Echo::new(false)));
        let b = sim.add_node(Box::new(Echo::new(true)));
        sim.connect_sym(
            a,
            PortId(0),
            b,
            PortId(0),
            LinkParams::new(8_000_000, SimDuration::from_micros(100), 16),
        );
        (sim, a, b)
    }

    #[test]
    fn frame_travels_and_bounces() {
        let (mut sim, a, b) = two_node_sim();
        // Inject a frame as if node a sent it: seed a Deliver on b directly
        // is easier, but we want to exercise links, so use a timer on b
        // that makes it transmit. Instead: seed a Deliver at a's port via
        // schedule_event from outside.
        sim.schedule_event(
            SimTime::ZERO,
            b,
            EventKind::Deliver {
                port: PortId(0),
                frame: Frame::new(vec![0u8; 200], SimTime::ZERO),
            },
        );
        sim.run(1000);
        // b received the injected frame at t=0, then after 1ms sent 100
        // bytes back: 100B at 8Mb/s = 100us serialization + 100us
        // propagation → arrives at a at 1.2ms.
        let bn: &Echo = sim.node(b);
        assert_eq!(bn.received, vec![(SimTime::ZERO, 200)]);
        let an: &Echo = sim.node(a);
        assert_eq!(an.received, vec![(SimTime::from_micros(1200), 100)]);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let (mut sim, _a, _b) = two_node_sim();
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.events_processed(), 0);
    }

    #[test]
    fn determinism_across_runs() {
        let trace = |seed: u64| {
            let (mut sim, _a, b) = two_node_sim();
            for i in 0..10 {
                sim.schedule_event(
                    SimTime::from_millis(i * 3),
                    b,
                    EventKind::Deliver {
                        port: PortId(0),
                        frame: Frame::new(vec![0u8; 64 + i as usize], SimTime::ZERO),
                    },
                );
            }
            let _ = seed;
            sim.run(10_000);
            let bn: &Echo = sim.node(b);
            bn.received.clone()
        };
        assert_eq!(trace(1), trace(1));
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Echo::new(false)));
        sim.schedule_event(SimTime::from_millis(5), a, EventKind::Timer { token: 2 });
        sim.schedule_event(SimTime::from_millis(1), a, EventKind::Timer { token: 1 });
        sim.schedule_event(SimTime::from_millis(9), a, EventKind::Timer { token: 3 });
        sim.run(100);
        let an: &Echo = sim.node(a);
        assert_eq!(an.timers, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_millis(9));
        assert_eq!(sim.events_processed(), 3);
    }

    /// Test node: on its kick timer (token 0) it holds frames and sets
    /// timers at the scripted instants, then logs what comes back.
    struct Holder {
        /// `(at_ms, token, is_hold)`.
        script: Vec<(u64, u64, bool)>,
        log: Vec<(SimTime, &'static str, u64)>,
    }

    impl Node for Holder {
        fn on_event(&mut self, event: EventKind, ctx: &mut Context<'_>) {
            match event {
                EventKind::Timer { token: 0 } => {
                    for &(at_ms, token, is_hold) in &self.script {
                        let at = SimTime::from_millis(at_ms);
                        if is_hold {
                            let frame = Frame::new(vec![0u8; token as usize], ctx.now());
                            ctx.hold(at, token, frame);
                        } else {
                            ctx.schedule_at(at, token);
                        }
                    }
                }
                EventKind::Timer { token } => self.log.push((ctx.now(), "timer", token)),
                EventKind::Held { token, frame } => {
                    assert_eq!(frame.len(), token as usize, "held frame came back changed");
                    self.log.push((ctx.now(), "held", token));
                }
                EventKind::Deliver { .. } => {}
            }
        }
    }

    fn run_holder(
        kick_ms: u64,
        script: Vec<(u64, u64, bool)>,
    ) -> Vec<(SimTime, &'static str, u64)> {
        let mut sim = Simulator::new(1);
        let h = sim.add_node(Box::new(Holder {
            script,
            log: Vec::new(),
        }));
        sim.schedule_event(
            SimTime::from_millis(kick_ms),
            h,
            EventKind::Timer { token: 0 },
        );
        sim.run(100);
        sim.node::<Holder>(h).log.clone()
    }

    #[test]
    fn held_frames_return_in_hold_order() {
        let log = run_holder(0, vec![(5, 3, true), (5, 1, true), (5, 2, true)]);
        let t = SimTime::from_millis(5);
        assert_eq!(log, vec![(t, "held", 3), (t, "held", 1), (t, "held", 2)]);
    }

    #[test]
    fn held_frames_interleave_with_timers_by_due_then_seq() {
        let log = run_holder(
            0,
            vec![
                (5, 1, true),
                (5, 10, false),
                (2, 2, true),
                (5, 3, true),
                (2, 11, false),
            ],
        );
        let (t2, t5) = (SimTime::from_millis(2), SimTime::from_millis(5));
        assert_eq!(
            log,
            vec![
                (t2, "held", 2),
                (t2, "timer", 11),
                (t5, "held", 1),
                (t5, "timer", 10),
                (t5, "held", 3),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn holding_into_the_past_panics() {
        run_holder(5, vec![(1, 1, true)]);
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let (mut sim, a, _b) = two_node_sim();
        let c = sim.add_node(Box::new(Echo::new(false)));
        sim.connect_sym(a, PortId(0), c, PortId(0), LinkParams::instant());
    }
}
