//! Property test for [`FleetSim`]'s run loop against a sort oracle:
//! random schedules whose events chain follow-ups (some due at the very
//! instant they are scheduled, so same-due ties are common), run under a
//! sampling interval, a deadline and an event budget, must dispatch in
//! exactly ascending `(due, seq)` order with every sampling boundary
//! placed by the boundary rule, and report the same event count, peak
//! queue depth, kill point and final clock as the oracle.

use netsim::fleet::FleetSim;
use netsim::Step;
use proptest::prelude::*;

/// One queued event in the oracle: `(due, seq, client, hops)`.
type Ev = (u64, u64, u32, u8);

/// What a run logs: `(true, due, seq, client)` for an event,
/// `(false, t, 0, 0)` for the sample at boundary `t`.
type Log = Vec<(bool, u64, u64, u32)>;

#[derive(Debug, Clone)]
struct Case {
    /// Initial events: `(due, client, hops)`.
    initial: Vec<(u64, u32, u8)>,
    /// Follow-up delays, indexed by the parent's seq (zeros tie).
    delays: Vec<u64>,
    interval: u64,
    deadline: u64,
    limit: u64,
}

fn arb_case() -> impl Strategy<Value = Case> {
    let due = prop_oneof![(0u64..40).prop_map(|k| k * 250), 0u64..10_000];
    let delay = prop_oneof![Just(0u64), (0u64..8).prop_map(|k| k * 250), 0u64..3_000];
    (
        proptest::collection::vec((due, 0u32..6, 0u8..4), 1..48),
        proptest::collection::vec(delay, 1..16),
        prop_oneof![Just(0u64), Just(250u64), 1u64..2_000],
        prop_oneof![Just(u64::MAX), 0u64..20_000],
        prop_oneof![Just(u64::MAX), 0u64..200],
    )
        .prop_map(|(initial, delays, interval, deadline, limit)| Case {
            initial,
            delays,
            interval,
            deadline,
            limit,
        })
}

/// The follow-ups an event with `hops` left schedules: one always, a
/// second when its seq is a multiple of three.
fn follow_ups(case: &Case, due: u64, seq: u64, hops: u8) -> Vec<(u64, u8)> {
    if hops == 0 {
        return Vec::new();
    }
    let delay = |i: u64| case.delays[((seq + i) % case.delays.len() as u64) as usize];
    let mut out = vec![(due + delay(0), hops - 1)];
    if seq.is_multiple_of(3) {
        out.push((due + delay(1), hops - 1));
    }
    out
}

/// `(log, events, peak depth, killed, final clock)`.
type Outcome = (Log, u64, usize, bool, u64);

fn run_core(case: &Case) -> Outcome {
    let mut sim: FleetSim<u8> = FleetSim::new();
    for &(due, client, hops) in &case.initial {
        sim.schedule(due, client, hops);
    }
    let mut log = Log::new();
    let killed = sim.run(
        case.deadline,
        case.interval,
        case.limit,
        &mut |step, sim| match step {
            Step::Event(ev) => {
                assert_eq!(sim.now_ns(), ev.due_ns);
                log.push((true, ev.due_ns, ev.seq, ev.client));
                for (due, hops) in follow_ups(case, ev.due_ns, ev.seq, ev.kind) {
                    sim.schedule(due, ev.client, hops);
                }
            }
            Step::Sample(t) => {
                assert_eq!(sim.now_ns(), t);
                log.push((false, t, 0, 0));
            }
        },
    );
    (
        log,
        sim.events_processed(),
        sim.peak_queue_depth(),
        killed,
        sim.now_ns(),
    )
}

/// The oracle: sort the pending set before every dispatch.
fn run_oracle(case: &Case) -> Outcome {
    let mut pending: Vec<Ev> = Vec::new();
    let mut seq = 0u64;
    let mut peak = 0usize;
    let mut push = |pending: &mut Vec<Ev>, due, client, hops| {
        seq += 1;
        pending.push((due, seq, client, hops));
        peak = peak.max(pending.len());
    };
    for &(due, client, hops) in &case.initial {
        push(&mut pending, due, client, hops);
    }
    let sampling = case.interval > 0;
    let mut next_sample = case.interval;
    let mut log = Log::new();
    let (mut events, mut now, mut killed) = (0u64, 0u64, false);
    loop {
        pending.sort_unstable();
        let Some(&(due, ev_seq, client, hops)) = pending.first() else {
            break;
        };
        if due > case.deadline {
            break;
        }
        while sampling && next_sample <= due {
            log.push((false, next_sample, 0, 0));
            now = next_sample;
            next_sample += case.interval;
        }
        if events >= case.limit {
            killed = true;
            break;
        }
        pending.remove(0);
        events += 1;
        now = due;
        log.push((true, due, ev_seq, client));
        for (d, h) in follow_ups(case, due, ev_seq, hops) {
            push(&mut pending, d, client, h);
        }
    }
    if !killed && case.deadline != u64::MAX {
        while sampling && next_sample <= case.deadline {
            log.push((false, next_sample, 0, 0));
            next_sample += case.interval;
        }
        now = now.max(case.deadline);
    }
    (log, events, peak, killed, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fleet_sim_dispatches_in_sort_oracle_order(case in arb_case()) {
        let got = run_core(&case);
        let want = run_oracle(&case);
        prop_assert_eq!(got, want);
    }
}
