//! The event core: one virtual clock, one binary heap, one dispatch
//! loop.
//!
//! Both simulators in this crate run on [`EventCore`]. The paper
//! pipeline's [`Simulator`](crate::Simulator) stores one over its
//! node-addressed events and adds nodes, links and frame hooks on top;
//! the fleet's [`FleetSim`](crate::fleet::FleetSim) *is* one over
//! client-tagged [`FleetEvent`](crate::fleet::FleetEvent)s. The core
//! owns no threads and no wall clock: it advances only when
//! [`run`](EventCore::run) dispatches, so the same schedule always
//! replays the same way.
//!
//! The queue is a plain binary heap on `(due, seq)` because it is
//! always nearly empty: a fleet client's core peaks at 2 queued events,
//! a single-client run at a few hundred. At those depths a sift costs a
//! handful of comparisons, less than any bucket bookkeeping.
//!
//! [`run`](EventCore::run) is the only loop that pops the queue. Its
//! two extras over plain dispatch cost a caller that does not use them
//! two comparisons per event:
//!
//! * **sampling boundaries** — a [`Step::Sample`] at every multiple of
//!   an interval, ordered against events by a fixed rule. A fleet shard
//!   runs each client on a core of its own and sums the clients'
//!   readings per boundary; the rule makes each reading the same as on
//!   one core shared by every client;
//! * **an event budget** — an abort after a fixed number of events
//!   (the single-client `Simulator::run(limit)`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Sort keys for queued events. `(due_ns, seq)` must be unique per
/// queue ([`EventCore::push`] guarantees this with a monotone sequence
/// counter), which makes dispatch order total and deterministic.
pub trait WheelItem {
    /// Absolute due time in nanoseconds.
    fn due_ns(&self) -> u64;
    /// Tie-break sequence number (scheduling order).
    fn seq(&self) -> u64;
}

/// Min-heap adapter: reverses `(due, seq)` so `BinaryHeap` pops the
/// earliest item first.
struct Front<T>(T);

impl<T: WheelItem> PartialEq for Front<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T: WheelItem> Eq for Front<T> {}
impl<T: WheelItem> PartialOrd for Front<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: WheelItem> Ord for Front<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0.due_ns(), other.0.seq()).cmp(&(self.0.due_ns(), self.0.seq()))
    }
}

/// A deterministic event core: a virtual clock plus a min-heap of `T`s
/// dispatched in `(due, seq)` order.
///
/// `seq` is assigned by [`push`](Self::push) in schedule order, so two
/// events due at the same instant dispatch in the order they were
/// scheduled.
pub struct EventCore<T: WheelItem> {
    now_ns: u64,
    seq: u64,
    queue: BinaryHeap<Front<T>>,
    processed: u64,
    queue_peak: usize,
}

/// One step of [`EventCore::run`]: a dispatched event or a sampling
/// boundary.
#[derive(Debug)]
pub enum Step<T> {
    /// An event, dispatched in `(due, seq)` order.
    Event(T),
    /// A sampling boundary at this virtual time: every event with an
    /// earlier due time has been dispatched, none with a later-or-equal
    /// one has.
    Sample(u64),
}

impl<T: WheelItem> Default for EventCore<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: WheelItem> EventCore<T> {
    /// An empty core at time zero.
    pub fn new() -> Self {
        EventCore {
            now_ns: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            processed: 0,
            queue_peak: 0,
        }
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Events dispatched so far (samples are not events).
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Events currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of the queue depth. Keyed to scheduling only
    /// (virtual time), so it is identical across runs of the same
    /// schedule. A fleet reports it as diagnostic data, never as part
    /// of its shard-invariant output.
    pub fn peak_queue_depth(&self) -> usize {
        self.queue_peak
    }

    /// Queue the event `make(seq)` builds from its schedule-order
    /// sequence number. Panics if the event is due before now.
    pub fn push(&mut self, make: impl FnOnce(u64) -> T) {
        self.seq += 1;
        let item = make(self.seq);
        assert!(
            item.due_ns() >= self.now_ns,
            "cannot schedule into the past"
        );
        self.queue.push(Front(item));
        self.queue_peak = self.queue_peak.max(self.queue.len());
    }

    /// Dispatch events in `(due, seq)` order until the queue is empty
    /// or the next event lies beyond `deadline_ns`; the clock then
    /// advances to the deadline. The handler receives each event plus
    /// the core, so it can schedule follow-ups directly.
    pub fn run_until<F>(&mut self, deadline_ns: u64, handler: &mut F)
    where
        F: FnMut(T, &mut Self),
    {
        self.run(deadline_ns, 0, u64::MAX, &mut |step, core| {
            if let Step::Event(ev) = step {
                handler(ev, core);
            }
        });
    }

    /// The run loop: dispatch events in `(due, seq)` order up to
    /// `deadline_ns` under an event budget of `limit`, delivering a
    /// [`Step::Sample`] at every virtual boundary `t` that is a
    /// positive multiple of `interval_ns` (0 disables sampling).
    ///
    /// **Boundary rule** — the sample at boundary `t` is delivered
    /// after every event with `due < t` and before any event with
    /// `due >= t`, with the clock advanced to `t`. A fleet client
    /// therefore contributes identically to a sample no matter which
    /// shard's core hosts it: this is what makes merged telemetry
    /// series byte-identical across shard layouts. Trailing boundaries
    /// `<= deadline_ns` past the last event are still delivered, and
    /// the clock then advances to the deadline.
    ///
    /// Samples do **not** count against `limit` and do not increment
    /// [`events_processed`](Self::events_processed), so enabling
    /// sampling cannot shift an event-budget kill point. Returns `true`
    /// if the event budget ran out first; no trailing samples are
    /// delivered and the clock does not advance to the deadline in that
    /// case.
    ///
    /// A `deadline_ns` of `u64::MAX` means no deadline: the run ends
    /// when the queue empties, with no trailing samples and the clock
    /// left at the last event.
    pub fn run<F>(
        &mut self,
        deadline_ns: u64,
        interval_ns: u64,
        limit: u64,
        handler: &mut F,
    ) -> bool
    where
        F: FnMut(Step<T>, &mut Self),
    {
        let start = self.processed;
        // Next boundary strictly after `now`; u64::MAX = disabled.
        let mut next_sample = self
            .now_ns
            .checked_div(interval_ns)
            .map_or(u64::MAX, |q| (q + 1).saturating_mul(interval_ns));
        while let Some(due) = self.queue.peek().map(|f| f.0.due_ns()) {
            if due > deadline_ns {
                break;
            }
            while next_sample <= due && next_sample <= deadline_ns && next_sample != u64::MAX {
                self.sample(next_sample, handler);
                next_sample = next_sample.saturating_add(interval_ns);
            }
            if self.processed - start >= limit {
                return true;
            }
            let ev = self.queue.pop().expect("peek saw an item").0;
            debug_assert!(ev.due_ns() >= self.now_ns, "event queue went backwards");
            self.now_ns = ev.due_ns();
            self.processed += 1;
            handler(Step::Event(ev), self);
        }
        if deadline_ns == u64::MAX {
            return false;
        }
        while next_sample <= deadline_ns {
            self.sample(next_sample, handler);
            next_sample = next_sample.saturating_add(interval_ns);
        }
        self.now_ns = self.now_ns.max(deadline_ns);
        false
    }

    /// Deliver the sample at boundary `t_ns`, advancing the clock to it.
    fn sample<F>(&mut self, t_ns: u64, handler: &mut F)
    where
        F: FnMut(Step<T>, &mut Self),
    {
        self.now_ns = self.now_ns.max(t_ns);
        handler(Step::Sample(t_ns), self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetSim;

    #[test]
    fn events_dispatch_in_due_seq_order_across_clients() {
        let mut sim: FleetSim<u8> = FleetSim::new();
        sim.schedule(300, 2, 0);
        sim.schedule(100, 0, 0);
        sim.schedule(100, 1, 0); // same due: schedule order breaks the tie
        let mut order = Vec::new();
        sim.run_until(1_000, &mut |ev, _| order.push((ev.due_ns, ev.client)));
        assert_eq!(order, vec![(100, 0), (100, 1), (300, 2)]);
        assert_eq!(sim.events_processed(), 3);
        assert_eq!(sim.now_ns(), 1_000);
    }

    #[test]
    fn handler_can_chain_events() {
        let mut sim: FleetSim<u32> = FleetSim::new();
        sim.schedule(10, 5, 0);
        let mut hops = 0u32;
        sim.run_until(10_000, &mut |ev, sim| {
            hops += 1;
            if ev.kind < 3 {
                sim.schedule(sim.now_ns() + 10, ev.client, ev.kind + 1);
            }
        });
        assert_eq!(hops, 4);
        assert!(sim.queue_depth() == 0);
    }

    #[test]
    fn event_budget_aborts_mid_run() {
        let mut sim: FleetSim<u8> = FleetSim::new();
        for i in 0..10u64 {
            sim.schedule(i * 100, 0, 0);
        }
        let killed = sim.run(u64::MAX, 0, 4, &mut |_, _| {});
        assert!(killed);
        assert_eq!(sim.events_processed(), 4);
        assert_eq!(sim.queue_depth(), 6);
        let killed = sim.run(u64::MAX, 0, u64::MAX, &mut |_, _| {});
        assert!(!killed);
        assert_eq!(sim.events_processed(), 10);
    }

    #[test]
    fn samples_land_between_events_on_the_boundary_rule() {
        let mut sim: FleetSim<u8> = FleetSim::new();
        sim.schedule(50, 0, 0);
        sim.schedule(100, 0, 0); // due exactly at a boundary
        sim.schedule(150, 0, 0);
        sim.schedule(320, 0, 0);
        let mut steps = Vec::new();
        sim.run(400, 100, u64::MAX, &mut |step, sim| match step {
            Step::Event(ev) => steps.push(('e', ev.due_ns, sim.events_processed())),
            Step::Sample(t) => steps.push(('s', t, sim.events_processed())),
        });
        // Boundary t sits after events due < t, before events due >= t
        // (the event at exactly 100 lands after sample 100); trailing
        // boundaries up to the deadline are flushed.
        assert_eq!(
            steps,
            vec![
                ('e', 50, 1),
                ('s', 100, 1),
                ('e', 100, 2),
                ('e', 150, 3),
                ('s', 200, 3),
                ('s', 300, 3),
                ('e', 320, 4),
                ('s', 400, 4),
            ]
        );
        assert_eq!(sim.now_ns(), 400);
    }

    #[test]
    fn samples_do_not_consume_the_event_budget() {
        let mut sim: FleetSim<u8> = FleetSim::new();
        for i in 1..=6u64 {
            sim.schedule(i * 100, 0, 0);
        }
        let mut samples = 0;
        let mut events = 0;
        let killed = sim.run(u64::MAX, 50, 4, &mut |step, _| match step {
            Step::Sample(_) => samples += 1,
            Step::Event(_) => events += 1,
        });
        assert!(killed);
        assert_eq!(events, 4, "kill point identical to the unsampled run");
        assert_eq!(sim.events_processed(), 4);
        assert!(samples >= 7, "boundaries up to the 4th event sampled");
        assert_eq!(sim.now_ns(), 500, "last boundary before the abort");
    }

    #[test]
    fn zero_interval_disables_sampling() {
        let mut sim: FleetSim<u8> = FleetSim::new();
        sim.schedule(10, 0, 0);
        let mut samples = 0;
        sim.run(1_000, 0, u64::MAX, &mut |step, _| {
            if matches!(step, Step::Sample(_)) {
                samples += 1;
            }
        });
        assert_eq!(samples, 0);
        assert_eq!(sim.now_ns(), 1_000);
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn a_run_without_deadline_leaves_the_clock_at_the_last_event() {
        let mut sim: FleetSim<u8> = FleetSim::new();
        sim.schedule(70, 0, 0);
        sim.schedule(30, 0, 0);
        let killed = sim.run(u64::MAX, 0, u64::MAX, &mut |_, _| {});
        assert!(!killed);
        assert_eq!(sim.now_ns(), 70);
        // An empty queue leaves the clock where it is.
        sim.run(u64::MAX, 0, u64::MAX, &mut |_, _| {});
        assert_eq!(sim.now_ns(), 70);
    }

    #[test]
    fn run_until_advances_the_clock_to_the_deadline() {
        let mut sim: FleetSim<u8> = FleetSim::new();
        sim.schedule(30, 0, 0);
        sim.schedule(500, 0, 0); // past the deadline: stays queued
        sim.run_until(200, &mut |_, _| {});
        assert_eq!(sim.now_ns(), 200);
        assert_eq!(sim.events_processed(), 1);
        // Events at exactly the deadline are dispatched.
        sim.run_until(500, &mut |_, _| {});
        assert_eq!((sim.now_ns(), sim.events_processed()), (500, 2));
        // An idle core still advances.
        sim.run_until(9_000, &mut |_, _| {});
        assert_eq!(sim.now_ns(), 9_000);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim: FleetSim<u8> = FleetSim::new();
        sim.run_until(100, &mut |_, _| {});
        sim.schedule(50, 0, 0);
    }
}
