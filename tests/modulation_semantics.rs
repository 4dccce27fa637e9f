//! End-to-end semantics of the modulation layer observed through real
//! benchmarks: scheduling granularity, compensation and loss; and the
//! kernel tuple buffer, pinned to the in-memory replay over the
//! modulation layer's fixed release-order schedules.

use emu::{build_ethernet, Hardware, SERVER_IP};
use modulate::{Modulator, TickClock, TupleBuffer};
use netsim::{SimDuration, SimRng, SimTime};
use netstack::{Direction, LinkShim, ShimRelease, ShimVerdict};
use tracekit::{QualityTuple, ReplayTrace};
use workloads::{FtpClient, FtpDirection, FtpServer, PingConfig, PingWorkload};

fn wavelan_like(span_secs: u64) -> ReplayTrace {
    ReplayTrace::constant(
        "synthetic wavelan",
        SimDuration::from_secs(span_secs),
        SimDuration::from_millis(2),
        4000.0,
        800.0,
        0.0,
    )
}

fn ftp_with_modulator(m: Modulator, size: usize) -> f64 {
    let (mut tb, app) = build_ethernet(3, Hardware::default(), |laptop, server| {
        laptop.set_shim(Box::new(m));
        server.add_app(Box::new(FtpServer::new()));
        laptop.add_app(Box::new(FtpClient::new(
            SERVER_IP,
            FtpDirection::Send,
            size,
        )))
    });
    tb.start();
    tb.sim.run_until(SimTime::from_secs(1200));
    tb.laptop_host()
        .app::<FtpClient>(app)
        .elapsed()
        .expect("transfer completed")
        .as_secs_f64()
}

#[test]
fn modulated_throughput_matches_emulated_bottleneck() {
    // Vb = 4000 ns/B → 2 Mb/s. 2 MB should take ≈ 8–11 s (headers,
    // ACK interference in the unified queue, slow start).
    let secs = ftp_with_modulator(Modulator::from_replay(wavelan_like(3600)), 2_000_000);
    assert!((8.0..14.0).contains(&secs), "{secs}");
}

#[test]
fn ideal_clock_vs_netbsd_tick() {
    // With a 2 ms fixed latency and fast per-byte costs, small packets'
    // delays fall under half a tick: the NetBSD clock under-delays
    // relative to an ideal clock. Measure with ping RTTs.
    let rtt_with = |clock: TickClock| {
        let replay = ReplayTrace::constant(
            "lat only",
            SimDuration::from_secs(3600),
            SimDuration::from_millis(2),
            0.0,
            0.0,
            0.0,
        );
        let (mut tb, app) = build_ethernet(4, Hardware::default(), |laptop, server| {
            let _ = server;
            laptop.set_shim(Box::new(
                Modulator::from_replay(replay.clone()).with_clock(clock),
            ));
            let mut cfg = PingConfig::paper(SERVER_IP);
            cfg.duration = SimDuration::from_secs(10);
            laptop.add_app(Box::new(PingWorkload::new(cfg)))
        });
        tb.start();
        tb.sim.run_until(SimTime::from_secs(15));
        let w: &PingWorkload = tb.laptop_host().app(app);
        assert!(w.replies > 0);
        w.replies
    };
    // Both complete; the behavioural difference (under-delay) is covered
    // at the unit level; here we assert the stack runs under both clocks.
    assert!(rtt_with(TickClock::netbsd()) > 0);
    assert!(rtt_with(TickClock::ideal()) > 0);
}

#[test]
fn compensation_speeds_up_inbound_only() {
    let base = Modulator::from_replay(wavelan_like(3600));
    let store = ftp_with_modulator(base, 1_000_000);

    let comp_recv = {
        let m = Modulator::from_replay(wavelan_like(3600)).with_compensation(800.0);
        let (mut tb, app) = build_ethernet(5, Hardware::default(), |laptop, server| {
            laptop.set_shim(Box::new(m));
            server.add_app(Box::new(FtpServer::new()));
            laptop.add_app(Box::new(FtpClient::new(
                SERVER_IP,
                FtpDirection::Recv,
                1_000_000,
            )))
        });
        tb.start();
        tb.sim.run_until(SimTime::from_secs(600));
        tb.laptop_host()
            .app::<FtpClient>(app)
            .elapsed()
            .expect("transfer completed")
            .as_secs_f64()
    };
    // Inbound Vb reduced 4000 → 3200 ns/B: fetch with compensation beats
    // uncompensated store by roughly the Vb ratio.
    assert!(
        comp_recv < store * 0.95,
        "store {store:.2}s, compensated fetch {comp_recv:.2}s"
    );
}

#[test]
fn modulated_loss_slows_transfers() {
    let lossless = ftp_with_modulator(Modulator::from_replay(wavelan_like(3600)), 1_000_000);
    let lossy_replay = ReplayTrace::constant(
        "lossy",
        SimDuration::from_secs(3600),
        SimDuration::from_millis(2),
        4000.0,
        800.0,
        0.02,
    );
    let lossy = ftp_with_modulator(Modulator::from_replay(lossy_replay), 1_000_000);
    assert!(
        lossy > lossless * 1.1,
        "loss had no effect: {lossless:.2}s vs {lossy:.2}s"
    );
}

/// One trace the way `crates/modulate/tests/hold_order.rs` draws it: 1–6
/// tuples, `lat` bounding the latency in ms.
fn schedule_trace(rng: &mut SimRng, lat: (u64, u64)) -> ReplayTrace {
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

fn schedule_dir(rng: &mut SimRng) -> Direction {
    if rng.chance(0.5) {
        Direction::Inbound
    } else {
        Direction::Outbound
    }
}

/// Play `hold_order.rs` schedule `id` through the modulator `build`
/// makes from the schedule's trace number `which` (even schedules draw
/// one trace, odd ones an uplink and a downlink), and return every
/// verdict, release, wakeup and the final counters as text. Playback
/// starts at the first packet: no `begin`.
fn play_schedule(id: u64, which: usize, build: impl Fn(ReplayTrace) -> Modulator) -> Vec<String> {
    let mut gen = SimRng::seed_from_u64(0x401D_0000 + id);
    let mut traces = vec![schedule_trace(&mut gen, (0, 100))];
    if id % 2 == 1 {
        traces = vec![traces.remove(0), schedule_trace(&mut gen, (40, 200))];
    }
    let mut m = build(traces.swap_remove(which)).with_clock(match id % 3 {
        0 => TickClock::ideal(),
        1 => TickClock::with_resolution(SimDuration::from_millis(1)),
        _ => TickClock::netbsd(),
    });
    if id % 4 == 3 {
        m = m.with_compensation(gen.range_f64(0.0, 10_000.0));
    }
    fn releases(lines: &mut Vec<String>, out: &mut Vec<ShimRelease>) {
        for r in out.drain(..) {
            lines.push(format!(
                "{:?} {} {:?}",
                r.dir,
                r.bytes.len(),
                r.bytes.first()
            ));
        }
    }
    let mut lines = Vec::new();
    let mut rng = SimRng::seed_from_u64(0xC0FFEE ^ id);
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    let mut pkt = 0u8;
    for i in 0..gen.range_u64(1, 80) {
        match gen.range_u64(0, 10) {
            0..=3 => {
                now += SimDuration::from_micros(gen.range_u64(0, 30_000));
                let d = schedule_dir(&mut gen);
                let size = gen.range_u64(40, 1514) as usize;
                pkt = pkt.wrapping_add(1);
                let v = match m.offer(d, vec![pkt; size], now, &mut rng) {
                    ShimVerdict::Pass(b) => format!("pass {}", b.len()),
                    ShimVerdict::Drop => "drop".to_string(),
                    ShimVerdict::Hold => "hold".to_string(),
                };
                lines.push(format!("{i} offer {d:?} {v}"));
            }
            4..=5 => {
                now += SimDuration::from_micros(gen.range_u64(0, 20_000));
                let d = schedule_dir(&mut gen);
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
                lines.push(format!("{i} burst {d:?} {count}"));
                releases(&mut lines, &mut out);
            }
            step => {
                now = match step {
                    6 => now,
                    7 => now + SimDuration::from_secs(gen.range_u64(3_600, 7_200)),
                    8 => now + SimDuration::from_micros(gen.range_u64(1, 50_000)),
                    _ => m.next_wakeup().unwrap_or(now).max(now),
                };
                m.collect_due_into(now, &mut rng, &mut out);
                lines.push(format!("{i} collect at {}", now.as_nanos()));
                releases(&mut lines, &mut out);
            }
        }
        lines.push(format!(
            "wakeup {:?} held {}",
            m.next_wakeup(),
            m.held_count()
        ));
    }
    m.collect_due_into(SimTime::MAX, &mut rng, &mut out);
    releases(&mut lines, &mut out);
    lines.push(format!("stats {:?}", m.stats()));
    lines.push(format!("fidelity {:?}", m.fidelity()));
    lines
}

#[test]
fn closed_buffer_modulates_like_in_memory_trace() {
    // The architecture of §3.3 streams tuples through a bounded kernel
    // buffer. A buffer holding the whole trace, closed by its writer,
    // must modulate exactly like the in-memory replay: same verdicts,
    // same release order and instants, same counters — including the
    // hour-long jumps that play the final tuple past the trace end.
    for id in 0..400 {
        for which in 0..1 + (id % 2) as usize {
            let in_memory = play_schedule(id, which, Modulator::from_replay);
            let buffered = play_schedule(id, which, |replay| {
                let buf = TupleBuffer::new(replay.tuples.len());
                assert_eq!(buf.write(&replay.tuples), replay.tuples.len());
                buf.close();
                Modulator::from_buffer(buf)
            });
            assert_eq!(in_memory, buffered, "schedule {id} trace {which}");
        }
    }
}

#[test]
fn unmodulated_ethernet_is_much_faster_than_modulated() {
    let modulated = ftp_with_modulator(Modulator::from_replay(wavelan_like(3600)), 2_000_000);
    let (mut tb, app) = build_ethernet(6, Hardware::default(), |laptop, server| {
        server.add_app(Box::new(FtpServer::new()));
        laptop.add_app(Box::new(FtpClient::new(
            SERVER_IP,
            FtpDirection::Send,
            2_000_000,
        )))
    });
    tb.start();
    tb.sim.run_until(SimTime::from_secs(120));
    let bare = tb
        .laptop_host()
        .app::<FtpClient>(app)
        .elapsed()
        .expect("transfer completed")
        .as_secs_f64();
    assert!(
        modulated > bare * 1.8,
        "bare {bare:.2}s vs modulated {modulated:.2}s"
    );
}
