//! Pins the modulation layer's release order. 400 fixed schedules, each
//! drawn from its own seeded [`SimRng`], are replayed through a
//! [`Modulator`]; every observable goes into one transcript whose FNV-1a
//! digest is fixed below:
//!
//! * each step's verdicts, then every release in order as
//!   `(direction, length, first payload byte)`;
//! * after each step, `next_wakeup` and `held_count`;
//! * at the end, `stats()` and `fidelity()`.
//!
//! The schedules cover both replay sources (one shared trace, and
//! per-direction traces with different up/down latencies), the ideal,
//! 1 ms and 10 ms clocks, inbound compensation, `offer_batch` bursts,
//! collects exactly at the next wakeup, stalls at a frozen clock and
//! hour-long clock jumps. Any change to how
//! the hold queue orders its packets must leave the digest untouched.

use modulate::{Modulator, TickClock};
use netsim::{SimDuration, SimRng, SimTime};
use netstack::{Direction, LinkShim, ShimRelease, ShimVerdict};
use tracekit::{QualityTuple, ReplayTrace};

const SCHEDULES: u64 = 400;
const DIGEST: u64 = 0x9480_e873_def8_3e62;

/// FNV-1a over the transcript, one line at a time.
struct Transcript {
    hash: u64,
    lines: u64,
}

impl Transcript {
    fn line(&mut self, s: &str) {
        for b in s.bytes().chain(std::iter::once(b'\n')) {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
        self.lines += 1;
    }

    fn releases(&mut self, tag: &str, out: &mut Vec<ShimRelease>) {
        for r in out.drain(..) {
            let first = r.bytes.first().copied();
            self.line(&format!("{tag} {:?} {} {first:?}", r.dir, r.bytes.len()));
        }
    }
}

/// A replay trace of 1–6 tuples; `lat` bounds the latency in ms.
fn trace(rng: &mut SimRng, lat: (u64, u64)) -> ReplayTrace {
    let n = rng.range_u64(1, 7);
    let tuples = (0..n)
        .map(|_| QualityTuple {
            duration_ns: rng.range_u64(100_000_000, 5_000_000_000),
            latency_ns: rng.range_u64(lat.0, lat.1) * 1_000_000,
            vb_ns_per_byte: rng.range_f64(0.0, 20_000.0),
            vr_ns_per_byte: rng.range_f64(0.0, 5_000.0),
            loss: if rng.chance(0.3) {
                0.0
            } else {
                rng.range_f64(0.0, 0.3)
            },
        })
        .collect();
    ReplayTrace {
        source: "hold-order".into(),
        tuples,
    }
}

fn dir(rng: &mut SimRng) -> Direction {
    if rng.chance(0.5) {
        Direction::Inbound
    } else {
        Direction::Outbound
    }
}

/// Replay schedule `id` into the transcript.
fn replay(id: u64, t: &mut Transcript) {
    let mut gen = SimRng::seed_from_u64(0x401D_0000 + id);
    let mut m = if id.is_multiple_of(2) {
        Modulator::from_replay(trace(&mut gen, (0, 100)))
    } else {
        // Slow uplink, a faster but longer-latency downlink.
        let up = trace(&mut gen, (0, 60));
        let down = trace(&mut gen, (40, 200));
        Modulator::from_asymmetric(up, down)
    };
    m = m.with_clock(match id % 3 {
        0 => TickClock::ideal(),
        1 => TickClock::with_resolution(SimDuration::from_millis(1)),
        _ => TickClock::netbsd(),
    });
    if id % 4 == 3 {
        m = m.with_compensation(gen.range_f64(0.0, 10_000.0));
    }
    t.line(&format!("schedule {id}"));

    let mut rng = SimRng::seed_from_u64(0xC0FFEE ^ id);
    m.begin(SimTime::ZERO);
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    let mut pkt = 0u8;
    let steps = gen.range_u64(1, 80);
    for i in 0..steps {
        match gen.range_u64(0, 10) {
            0..=3 => {
                now += SimDuration::from_micros(gen.range_u64(0, 30_000));
                let d = dir(&mut gen);
                let size = gen.range_u64(40, 1514) as usize;
                pkt = pkt.wrapping_add(1);
                let v = match m.offer(d, vec![pkt; size], now, &mut rng) {
                    ShimVerdict::Pass(b) => format!("pass {} {:?}", b.len(), b.first()),
                    ShimVerdict::Drop => "drop".to_string(),
                    ShimVerdict::Hold => "hold".to_string(),
                };
                t.line(&format!("{i} offer {d:?} {v}"));
            }
            4..=5 => {
                now += SimDuration::from_micros(gen.range_u64(0, 20_000));
                let d = dir(&mut gen);
                let count = gen.range_u64(2, 20) as u8;
                let size = gen.range_u64(40, 1514) as usize;
                let first = pkt;
                pkt = pkt.wrapping_add(count);
                m.offer_batch(
                    d,
                    (1..=count).map(|k| vec![first.wrapping_add(k); size]),
                    now,
                    &mut rng,
                    &mut out,
                );
                t.line(&format!("{i} burst {d:?} {count}"));
                t.releases("batchpass", &mut out);
            }
            step => {
                let next = match step {
                    6 => now,
                    7 => now + SimDuration::from_secs(gen.range_u64(3_600, 7_200)),
                    8 => now + SimDuration::from_micros(gen.range_u64(1, 50_000)),
                    // Exactly at the next release, as a host timer fires.
                    _ => m.next_wakeup().unwrap_or(now).max(now),
                };
                now = next;
                m.collect_due_into(now, &mut rng, &mut out);
                t.line(&format!("{i} collect at {}", now.as_nanos()));
                t.releases("rel", &mut out);
            }
        }
        t.line(&format!(
            "{i} wakeup {:?} held {}",
            m.next_wakeup(),
            m.held_count()
        ));
    }
    m.collect_due_into(SimTime::MAX, &mut rng, &mut out);
    t.releases("end", &mut out);
    t.line(&format!("stats {:?}", m.stats()));
    t.line(&format!("fidelity {:?}", m.fidelity()));
}

#[test]
fn release_order_over_fixed_schedules_is_pinned() {
    let mut t = Transcript {
        hash: 0xcbf2_9ce4_8422_2325,
        lines: 0,
    };
    for id in 0..SCHEDULES {
        replay(id, &mut t);
    }
    assert_eq!(
        (t.hash, t.lines),
        (DIGEST, 66_524),
        "hold-queue transcript moved: digest {:#018x} over {} lines",
        t.hash,
        t.lines
    );
}
