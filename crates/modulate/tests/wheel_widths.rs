//! Wheel width never changes the modulation layer's behaviour: for
//! arbitrary offer/collect schedules — including clock jumps past the
//! wheel horizon and stalls at a frozen clock — a modulator whose hold
//! queue has a narrow 64-slot wheel (most holds ride the overflow
//! stage) and one with the default 4096-slot wheel must produce
//! identical verdicts, identical release sequences (direction and
//! payload), identical next wakeup deadlines, and identical stats and
//! fidelity reports. The queue itself is held to a binary-heap oracle
//! in `netsim/tests/wheel_props.rs`.

use modulate::{Modulator, TickClock};
use netsim::{SimDuration, SimRng, SimTime};
use netstack::{Direction, LinkShim, ShimVerdict};
use proptest::prelude::*;
use tracekit::{QualityTuple, ReplayTrace};

fn arb_tuple() -> impl Strategy<Value = QualityTuple> {
    (
        100_000_000u64..5_000_000_000,
        0u64..100_000_000,
        0.0f64..20_000.0,
        0.0f64..5_000.0,
        0.0f64..0.5,
    )
        .prop_map(|(d, lat, vb, vr, loss)| QualityTuple {
            duration_ns: d,
            latency_ns: lat,
            vb_ns_per_byte: vb,
            vr_ns_per_byte: vr,
            loss,
        })
}

#[derive(Debug, Clone, Copy)]
enum Step {
    /// Offer one frame after `gap_us`.
    Offer {
        gap_us: u64,
        size: usize,
        inbound: bool,
    },
    /// Offer a burst of frames at one instant via `offer_batch`.
    Burst {
        gap_us: u64,
        count: u8,
        size: usize,
        inbound: bool,
    },
    /// Advance (or stall: `gap_us == 0`, or jump: hours) and collect.
    Collect { gap_us: u64 },
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..50_000, 40usize..1514, any::<bool>()).prop_map(|(gap_us, size, inbound)| {
            Step::Offer {
                gap_us,
                size,
                inbound,
            }
        }),
        (0u64..20_000, 2u8..20, 40usize..1514, any::<bool>()).prop_map(
            |(gap_us, count, size, inbound)| Step::Burst {
                gap_us,
                count,
                size,
                inbound,
            }
        ),
        // Stall / tick-scale advance / clock jump far past the horizon.
        prop_oneof![Just(0u64), 1u64..50_000, 3_600_000_000u64..7_200_000_000,]
            .prop_map(|gap_us| Step::Collect { gap_us }),
    ]
}

/// Run a schedule through one modulator and transcribe every observable:
/// verdicts, releases, wakeups, and the closing stats/fidelity reports.
fn transcript(slots: usize, tuples: &[QualityTuple], steps: &[Step], tick_ms: u64) -> Vec<String> {
    let replay = ReplayTrace {
        source: "prop".into(),
        tuples: tuples.to_vec(),
    };
    let clock = if tick_ms == 0 {
        TickClock::ideal()
    } else {
        TickClock::with_resolution(SimDuration::from_millis(tick_ms))
    };
    let mut m = Modulator::from_replay(replay)
        .with_clock(clock)
        .with_wheel_slots(slots);
    let mut rng = SimRng::seed_from_u64(0xC0FFEE);
    m.begin(SimTime::ZERO);
    let mut now = SimTime::ZERO;
    let mut log = Vec::new();
    let mut out = Vec::new();
    for (i, s) in steps.iter().enumerate() {
        match *s {
            Step::Offer {
                gap_us,
                size,
                inbound,
            } => {
                now += SimDuration::from_micros(gap_us);
                let dir = if inbound {
                    Direction::Inbound
                } else {
                    Direction::Outbound
                };
                let size = size + (i % 7);
                match m.offer(dir, vec![i as u8; size], now, &mut rng) {
                    ShimVerdict::Pass(bytes) => log.push(format!("{i} pass {}", bytes.len())),
                    ShimVerdict::Drop => log.push(format!("{i} drop")),
                    ShimVerdict::Hold => log.push(format!("{i} hold")),
                }
            }
            Step::Burst {
                gap_us,
                count,
                size,
                inbound,
            } => {
                now += SimDuration::from_micros(gap_us);
                let dir = if inbound {
                    Direction::Inbound
                } else {
                    Direction::Outbound
                };
                m.offer_batch(
                    dir,
                    (0..count).map(|k| vec![k; size]),
                    now,
                    &mut rng,
                    &mut out,
                );
                for rel in out.drain(..) {
                    log.push(format!("{i} batchpass {:?} {}", rel.dir, rel.bytes.len()));
                }
            }
            Step::Collect { gap_us } => {
                now += SimDuration::from_micros(gap_us);
                for rel in m.collect_due(now, &mut rng) {
                    log.push(format!("{i} rel {:?} {}", rel.dir, rel.bytes.len()));
                }
            }
        }
        log.push(format!(
            "{i} wakeup {:?} held {}",
            m.next_wakeup(),
            m.held_count()
        ));
    }
    // Drain the stragglers, then freeze the end-of-run reports.
    for rel in m.collect_due(SimTime::MAX, &mut rng) {
        log.push(format!("end rel {:?} {}", rel.dir, rel.bytes.len()));
    }
    log.push(format!("stats {:?}", m.stats()));
    log.push(format!("fidelity {:?}", m.fidelity()));
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same schedule, same seed: 64- and 4096-slot hold queues are
    /// observationally identical, for every clock resolution.
    #[test]
    fn narrow_and_default_wheel_modulators_are_bitwise_equivalent(
        tuples in proptest::collection::vec(arb_tuple(), 1..6),
        steps in proptest::collection::vec(arb_step(), 1..60),
        tick_ms in prop_oneof![Just(0u64), Just(1), Just(10)],
    ) {
        let narrow = transcript(64, &tuples, &steps, tick_ms);
        let default = transcript(netsim::wheel::SLOTS, &tuples, &steps, tick_ms);
        prop_assert_eq!(narrow, default);
    }
}
