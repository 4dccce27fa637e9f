//! Property tests for the discrete-event engine: deterministic replay,
//! causal event ordering, and link conservation/FIFO.

use netsim::{
    Context, EventKind, Frame, LinkParams, Node, PortId, SimDuration, SimTime, Simulator,
};
use proptest::prelude::*;

/// Records every event it sees, with timestamps; can also echo frames.
struct Recorder {
    log: Vec<(u64, String)>,
}

impl Node for Recorder {
    fn on_event(&mut self, ev: EventKind, ctx: &mut Context<'_>) {
        let desc = match &ev {
            EventKind::Deliver { port, frame } => format!("deliver p{} len{}", port.0, frame.len()),
            EventKind::Timer { token } => format!("timer {token}"),
            EventKind::Held { token, frame } => format!("held {token} len{}", frame.len()),
        };
        self.log.push((ctx.now().as_nanos(), desc));
    }
}

fn arb_events() -> impl Strategy<Value = Vec<(u64, u8, u64)>> {
    // (time_us, kind, token)
    proptest::collection::vec((0u64..1_000_000, 0u8..2, any::<u64>()), 1..64)
}

proptest! {
    /// The same schedule replays identically, and event timestamps are
    /// non-decreasing regardless of insertion order.
    #[test]
    fn deterministic_and_ordered(events in arb_events()) {
        let run = || {
            let mut sim = Simulator::new(42);
            let n = sim.add_node(Box::new(Recorder { log: Vec::new() }));
            for &(t_us, kind, token) in &events {
                let ev = if kind == 0 {
                    EventKind::Timer { token }
                } else {
                    EventKind::Held { token, frame: Frame::new(vec![0u8; (token % 64) as usize], SimTime::ZERO) }
                };
                sim.schedule_event(SimTime::from_micros(t_us), n, ev);
            }
            sim.run(10_000);
            sim.node::<Recorder>(n).log.clone()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b, "replay diverged");
        prop_assert_eq!(a.len(), events.len());
        prop_assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "time went backwards");
    }

    /// A drop-tail link delivers frames in FIFO order, never invents or
    /// duplicates frames, and drops only when the queue bound binds.
    #[test]
    fn link_fifo_and_conservation(
        sizes in proptest::collection::vec(46usize..1514, 1..60),
        gaps_us in proptest::collection::vec(0u64..2_000, 1..60),
        queue in 1usize..32,
        bw_mbps in 1u64..100,
    ) {
        struct Sender {
            to_send: Vec<usize>,
            idx: usize,
            gaps: Vec<u64>,
        }
        impl Node for Sender {
            fn on_event(&mut self, ev: EventKind, ctx: &mut Context<'_>) {
                if matches!(ev, EventKind::Timer { .. })
                    && self.idx < self.to_send.len() {
                        let size = self.to_send[self.idx];
                        ctx.send(PortId(0), Frame::new(vec![0u8; size], ctx.now()));
                        self.idx += 1;
                        let gap = self.gaps[self.idx % self.gaps.len()];
                        if self.idx < self.to_send.len() {
                            ctx.schedule_in(SimDuration::from_micros(gap), 0);
                        }
                    }
            }
        }

        let n = sizes.len();
        let mut sim = Simulator::new(5);
        let tx = sim.add_node(Box::new(Sender {
            to_send: sizes.clone(),
            idx: 0,
            gaps: gaps_us.clone(),
        }));
        let rx = sim.add_node(Box::new(Recorder { log: Vec::new() }));
        sim.connect_sym(
            tx,
            PortId(0),
            rx,
            PortId(0),
            LinkParams::new(bw_mbps * 1_000_000, SimDuration::from_micros(10), queue),
        );
        sim.schedule_event(SimTime::ZERO, tx, EventKind::Timer { token: 0 });
        sim.run(1_000_000);

        let log = &sim.node::<Recorder>(rx).log;
        prop_assert!(log.len() <= n, "link invented frames");
        // Delivered frames appear as a subsequence of the sent sizes.
        let mut it = sizes.iter();
        for (_, desc) in log {
            let len: usize = desc
                .rsplit("len")
                .next()
                .and_then(|s| s.parse().ok())
                .expect("recorder format");
            prop_assert!(
                it.any(|&s| s == len),
                "delivery order is not a subsequence of send order"
            );
        }
        // No drops expected when the queue bound can never bind.
        if queue >= n {
            prop_assert_eq!(log.len(), n, "dropped despite ample queue");
        }
    }
}
