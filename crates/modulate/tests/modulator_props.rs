//! Property tests for the modulation layer's queueing invariants.

use modulate::{Modulator, TickClock};
use netsim::{SimDuration, SimRng, SimTime};
use netstack::{Direction, LinkShim, ShimRelease, ShimVerdict};
use proptest::prelude::*;
use tracekit::{QualityTuple, ReplayTrace};

/// Drain every release due at `now` through a fresh buffer.
fn drain_due(m: &mut Modulator, now: SimTime, rng: &mut SimRng) -> Vec<ShimRelease> {
    let mut out = Vec::new();
    m.collect_due_into(now, rng, &mut out);
    out
}

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
struct Offer {
    gap_us: u64,
    size: usize,
    inbound: bool,
}

fn arb_offer() -> impl Strategy<Value = Offer> {
    (0u64..50_000, 40usize..1514, any::<bool>()).prop_map(|(gap_us, size, inbound)| Offer {
        gap_us,
        size,
        inbound,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: every offered packet is exactly one of
    /// {passed immediately, released later, dropped}. Releases preserve
    /// per-direction FIFO order (tracked by a size-encoded sequence).
    #[test]
    fn conservation_and_fifo(
        tuples in proptest::collection::vec(arb_tuple(), 1..6),
        offers in proptest::collection::vec(arb_offer(), 1..80),
        tick_ms in prop_oneof![Just(0u64), Just(1), Just(10)],
    ) {
        let replay = ReplayTrace { source: "prop".into(), tuples };
        let clock = if tick_ms == 0 {
            TickClock::ideal()
        } else {
            TickClock::with_resolution(SimDuration::from_millis(tick_ms))
        };
        let mut m = Modulator::from_replay(replay).with_clock(clock);
        let mut rng = SimRng::seed_from_u64(7);
        m.begin(SimTime::ZERO);

        let mut now = SimTime::ZERO;
        let mut immediate = 0u64;
        let mut released = 0u64;
        // Track per-direction emission order via payload length stamps.
        let mut out_seq_expected: Vec<usize> = Vec::new();
        let mut in_seq_expected: Vec<usize> = Vec::new();
        let mut out_seen = 0usize;
        let mut in_seen = 0usize;

        let offered = offers.len() as u64;
        for (i, o) in offers.iter().enumerate() {
            now += SimDuration::from_micros(o.gap_us);
            // Collect anything due before this offer.
            for rel in drain_due(&mut m, now, &mut rng) {
                released += 1;
                match rel.dir {
                    Direction::Outbound => {
                        prop_assert_eq!(rel.bytes.len(), out_seq_expected[out_seen]);
                        out_seen += 1;
                    }
                    Direction::Inbound => {
                        prop_assert_eq!(rel.bytes.len(), in_seq_expected[in_seen]);
                        in_seen += 1;
                    }
                }
            }
            let dir = if o.inbound { Direction::Inbound } else { Direction::Outbound };
            // Unique-ish size stamp: base size + index ensures FIFO check
            // is meaningful.
            let size = o.size + (i % 7);
            match m.offer(dir, vec![0u8; size], now, &mut rng) {
                ShimVerdict::Pass(bytes) => {
                    prop_assert_eq!(bytes.len(), size);
                    immediate += 1;
                }
                ShimVerdict::Drop => {}
                ShimVerdict::Hold => match dir {
                    Direction::Outbound => out_seq_expected.push(size),
                    Direction::Inbound => in_seq_expected.push(size),
                },
            }
        }
        // Drain everything.
        for rel in drain_due(&mut m, SimTime::MAX, &mut rng) {
            released += 1;
            match rel.dir {
                Direction::Outbound => {
                    prop_assert_eq!(rel.bytes.len(), out_seq_expected[out_seen]);
                    out_seen += 1;
                }
                Direction::Inbound => {
                    prop_assert_eq!(rel.bytes.len(), in_seq_expected[in_seen]);
                    in_seen += 1;
                }
            }
        }
        let stats = m.stats();
        prop_assert_eq!(stats.offered, offered);
        prop_assert_eq!(stats.immediate, immediate);
        prop_assert_eq!(stats.held, released); // every held packet was released
        prop_assert_eq!(stats.immediate + stats.held + stats.dropped + stats.unmodulated, offered);
        prop_assert!(m.next_wakeup().is_none(), "packets left behind");
        prop_assert_eq!(out_seen, out_seq_expected.len());
        prop_assert_eq!(in_seen, in_seq_expected.len());
    }

    /// Hold deadlines are never before the offer time, and with an ideal
    /// clock the delay is at least the tuple's fixed latency.
    #[test]
    fn delays_respect_model_floor(
        lat_ms in 1u64..200,
        vb in 0.0f64..10_000.0,
        sizes in proptest::collection::vec(40usize..1514, 1..30),
    ) {
        let replay = ReplayTrace::constant(
            "floor",
            SimDuration::from_secs(3600),
            SimDuration::from_millis(lat_ms),
            vb,
            0.0,
            0.0,
        );
        let mut m = Modulator::from_replay(replay).with_clock(TickClock::ideal());
        let mut rng = SimRng::seed_from_u64(3);
        m.begin(SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for (i, &s) in sizes.iter().enumerate() {
            now += SimDuration::from_millis(i as u64);
            m.offer(Direction::Outbound, vec![0u8; s], now, &mut rng);
            let due = m.next_wakeup().expect("held");
            prop_assert!(due >= now + SimDuration::from_millis(lat_ms));
            // Drain so next_wakeup refers to the most recent packet.
            drain_due(&mut m, SimTime::MAX, &mut rng);
        }
    }
}
