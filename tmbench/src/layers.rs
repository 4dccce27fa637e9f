//! Per-layer probes: each one drives a single layer's public API at a
//! fixed size, timed from outside with `Instant`, and reports the
//! layer's cost per unit of work. Every probe runs `REPS` times and
//! keeps the median, so one scheduler hiccup cannot set the number.
//!
//! The probes are layer micro-benchmarks at the fleet's sizes, not
//! replays of `emu`'s own per-client set-up (which is private): the
//! program's own set-up time is reported from its profiler as
//! `emu.fleet.setup_us_per_client` by the fleet workloads.

use crate::util::{median, secs_since, Metrics};
use modulate::{Modulator, TickClock};
use netsim::fleet::{FleetSim, PacketStore, StationTable};
use netsim::{Context, EventKind, LinkParams, Node, SimDuration, SimRng, SimTime, Simulator};
use netstack::{Direction, LinkShim, ShimRelease, ShimVerdict};
use std::hint::black_box;
use std::time::Instant;
use tracekit::{QualityTuple, ReplayTrace};
use wavelan::ChannelModel;

const REPS: usize = 3;
/// The fleet's tuple cadence: each client's channel is sampled every
/// 2 s of the walk (the distiller's interval scale).
const TUPLE_CADENCE_NS: u64 = 2_000_000_000;
/// Fleet probe sizes (the paper's short and long pings).
const PROBE_SIZES: [u32; 2] = [106, 542];

/// Builds client `c`'s channel model from the workload's source
/// (`Scenario::model` or `Registry::builtin().build`).
pub type ModelFactory<'a> = &'a dyn Fn(u32, &mut SimRng) -> Box<dyn ChannelModel>;

/// Sizes of the probes. `clients`, `walk` and `interval` mirror the
/// fleet workloads; the rest are fixed iteration counts.
pub struct ProbeSize {
    pub clients: u32,
    pub walk: SimDuration,
    pub interval: SimDuration,
    pub timer_events: u64,
    pub tcp_bytes: usize,
    pub codec_frames: u32,
    pub station_hops: u32,
}

impl ProbeSize {
    pub fn full() -> Self {
        ProbeSize {
            clients: 10_000,
            walk: SimDuration::from_secs(60),
            interval: SimDuration::from_millis(500),
            timer_events: 1_000_000,
            tcp_bytes: 1_000_000,
            codec_frames: 100_000,
            station_hops: 1_000_000,
        }
    }

    pub fn small() -> Self {
        ProbeSize {
            clients: 100,
            walk: SimDuration::from_secs(5),
            interval: SimDuration::from_millis(500),
            timer_events: 10_000,
            tcp_bytes: 100_000,
            codec_frames: 1_000,
            station_hops: 10_000,
        }
    }
}

/// Run every probe and record its metric.
pub fn probe_all(models: ModelFactory<'_>, size: &ProbeSize, out: &mut Metrics) {
    out.set(
        "netsim.engine_ns_per_event",
        engine_ns_per_event(size.timer_events),
        "ns",
    );
    out.set(
        "netstack.tcp_ms_per_mb",
        tcp_ms_per_mb(size.tcp_bytes),
        "ms/MB",
    );
    out.set(
        "packet.codec_ns_per_frame",
        codec_ns_per_frame(size.codec_frames),
        "ns",
    );
    out.set(
        "wavelan.synth_us_per_client",
        synth_us_per_client(models, size),
        "us",
    );
    let replays = synthetic_replays(size);
    out.set(
        "modulate.build_us_per_client",
        modulator_build_us_per_client(&replays),
        "us",
    );
    out.set(
        "modulate.ns_per_probe",
        modulate_ns_per_probe(&replays, size),
        "ns",
    );
    out.set("netsim.fleet_ns_per_event", fleet_ns_per_event(size), "ns");
    out.set("netsim.station_ns_per_hop", station_ns_per_hop(size), "ns");
}

/// Median over `REPS` runs of `f`, which returns (seconds, units).
/// Returns nanoseconds per unit.
fn ns_per_unit(mut f: impl FnMut() -> (f64, u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (secs, units) = f();
            assert!(units > 0, "a probe must do some work");
            secs * 1e9 / units as f64
        })
        .collect();
    median(&samples)
}

/// Node that reschedules itself `remaining` times (the engine's raw
/// dispatch cost, as in the `engine/timer_events_100k` criterion entry).
struct SelfTimer {
    remaining: u64,
}

impl Node for SelfTimer {
    fn on_event(&mut self, _ev: EventKind, ctx: &mut Context<'_>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.schedule_in(SimDuration::from_micros(10), 0);
        }
    }
}

fn engine_ns_per_event(events: u64) -> f64 {
    ns_per_unit(|| {
        let t = Instant::now();
        let mut sim = Simulator::new(1);
        let n = sim.add_node(Box::new(SelfTimer { remaining: events }));
        sim.schedule_event(SimTime::ZERO, n, EventKind::Timer { token: 0 });
        sim.run(events + 10);
        let secs = secs_since(t);
        (secs, sim.events_processed())
    })
}

/// One FTP upload of `bytes` between two full-stack hosts over a 10 Mb/s
/// Ethernet (the `engine/tcp_bulk_1mb_full_stack` set-up).
fn tcp_ms_per_mb(bytes: usize) -> f64 {
    use netstack::{start_host, Host, HostConfig, NIC_PORT};
    use packet::MacAddr;
    use std::net::Ipv4Addr;
    use workloads::{FtpClient, FtpDirection, FtpServer};

    // ns per byte equals ms per MB (10^6 bytes, 10^6 ns).
    ns_per_unit(|| {
        let t = Instant::now();
        let ip_c = Ipv4Addr::new(10, 0, 0, 1);
        let ip_s = Ipv4Addr::new(10, 0, 0, 2);
        let mut ch = Host::new(
            HostConfig::new("c", ip_c, MacAddr::local(1)).with_arp(ip_s, MacAddr::local(2)),
        );
        let app = ch.add_app(Box::new(FtpClient::new(ip_s, FtpDirection::Send, bytes)));
        let mut sh = Host::new(
            HostConfig::new("s", ip_s, MacAddr::local(2)).with_arp(ip_c, MacAddr::local(1)),
        );
        sh.add_app(Box::new(FtpServer::new()));
        let mut sim = Simulator::new(7);
        let nc = sim.add_node(Box::new(ch));
        let ns = sim.add_node(Box::new(sh));
        sim.connect_sym(nc, NIC_PORT, ns, NIC_PORT, LinkParams::ethernet_10mbps());
        start_host(&mut sim, ns, SimTime::ZERO);
        start_host(&mut sim, nc, SimTime::from_millis(1));
        sim.run_until(SimTime::from_secs(60));
        let secs = secs_since(t);
        assert!(
            sim.node::<Host>(nc).app::<FtpClient>(app).is_done(),
            "the transfer must complete"
        );
        (secs, bytes as u64)
    })
}

/// Emit and parse of a full Ethernet/IPv4/TCP frame (1460 B payload)
/// and of an ICMP echo (500 B payload); cost per frame round.
fn codec_ns_per_frame(frames: u32) -> f64 {
    use packet::{
        EtherHeader, EtherType, IcmpMessage, IpProtocol, Ipv4Header, MacAddr, TcpFlags, TcpHeader,
    };
    use std::net::Ipv4Addr;
    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    let payload = vec![0xABu8; 1460];
    let echo = IcmpMessage::Echo {
        ident: 7,
        seq: 3,
        payload: vec![0u8; 500],
    };
    ns_per_unit(|| {
        let t = Instant::now();
        let mut parsed = 0u64;
        for i in 0..frames {
            let tcp = TcpHeader {
                src_port: 20,
                dst_port: 40000,
                seq: i,
                ack: 67890,
                flags: TcpFlags::ACK,
                window: 32768,
                mss: None,
            }
            .emit(black_box(&payload), SRC, DST);
            let ip = Ipv4Header {
                src: SRC,
                dst: DST,
                protocol: IpProtocol::Tcp,
                ttl: 64,
                ident: 99,
                total_len: 0,
                more_fragments: false,
                frag_offset: 0,
            }
            .emit(&tcp);
            let frame = EtherHeader {
                dst: MacAddr::local(2),
                src: MacAddr::local(1),
                ethertype: EtherType::Ipv4,
            }
            .emit(&ip);
            let (_, l3) = EtherHeader::parse(black_box(&frame)).expect("own frame parses");
            let (ih, l4) = Ipv4Header::parse(l3).expect("own packet parses");
            let (th, body) = TcpHeader::parse(l4, ih.src, ih.dst).expect("own segment parses");
            parsed += u64::from(th.seq == i && body.len() == payload.len());

            let wire = black_box(&echo).emit();
            parsed += u64::from(IcmpMessage::parse(&wire).is_ok());
        }
        let secs = secs_since(t);
        assert_eq!(parsed, 2 * u64::from(frames), "every frame round-trips");
        (secs, parsed)
    })
}

/// The wavelan layer's per-client cost: build the client's channel
/// model through the workload's factory and sample it at the tuple
/// cadence over the walk. µs per client.
fn synth_us_per_client(models: ModelFactory<'_>, size: &ProbeSize) -> f64 {
    let ns = ns_per_unit(|| {
        let t = Instant::now();
        let mut sampled = 0u64;
        for c in 0..size.clients {
            let mut rng = SimRng::seed_from_u64(u64::from(c) + 1);
            let mut model = models(c, &mut rng);
            let mut t_ns = 0u64;
            while t_ns < size.walk.as_nanos() {
                black_box(model.sample(SimTime::from_nanos(t_ns), &mut rng));
                sampled += 1;
                t_ns += TUPLE_CADENCE_NS;
            }
        }
        black_box(sampled);
        (secs_since(t), u64::from(size.clients))
    });
    ns / 1e3
}

/// One fixed replay per client for the modulation probes: a 2 Mb/s
/// channel whose latency steps through 5–45 ms per tuple with 1% loss,
/// phase-shifted by client so the modulators do not move in lockstep.
fn synthetic_replays(size: &ProbeSize) -> Vec<ReplayTrace> {
    let tuples = size.walk.as_nanos() / TUPLE_CADENCE_NS;
    (0..size.clients)
        .map(|c| {
            let mut replay = ReplayTrace::new("tmbench/synthetic");
            replay.tuples = (0..tuples)
                .map(|i| QualityTuple {
                    duration_ns: TUPLE_CADENCE_NS,
                    latency_ns: 5_000_000 + (u64::from(c) + i) % 9 * 5_000_000,
                    vb_ns_per_byte: 4_000.0,
                    vr_ns_per_byte: 0.0,
                    loss: 0.01,
                })
                .collect();
            replay
        })
        .collect()
}

fn fleet_modulator(replay: ReplayTrace) -> Modulator {
    let mut m = Modulator::from_replay(replay)
        .with_clock(TickClock::netbsd())
        .with_wheel_slots(64);
    m.begin(SimTime::ZERO);
    m
}

fn modulator_build_us_per_client(replays: &[ReplayTrace]) -> f64 {
    let ns = ns_per_unit(|| {
        let inputs: Vec<ReplayTrace> = replays.to_vec();
        let t = Instant::now();
        let built: Vec<Modulator> = inputs.into_iter().map(fleet_modulator).collect();
        let secs = secs_since(t);
        let n = black_box(built).len() as u64;
        (secs, n)
    });
    ns / 1e3
}

/// Client phase offset inside the probe interval (deterministic spread).
fn phase_ns(client: u32, interval_ns: u64) -> u64 {
    (u64::from(client).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) % interval_ns
}

/// 10k interleaved modulators, each offered a probe per interval and
/// drained at its `next_wakeup` before the next offer — the fleet's
/// modulation work without its event core.
fn modulate_ns_per_probe(replays: &[ReplayTrace], size: &ProbeSize) -> f64 {
    let interval_ns = size.interval.as_nanos();
    let rounds = size.walk.as_nanos() / interval_ns;
    ns_per_unit(|| {
        let mut clients: Vec<(Modulator, SimRng, u64)> = replays
            .iter()
            .zip(0u32..)
            .map(|(r, c)| {
                (
                    fleet_modulator(r.clone()),
                    SimRng::seed_from_u64(u64::from(c) + 1),
                    phase_ns(c, interval_ns),
                )
            })
            .collect();
        let mut pool: Vec<Vec<u8>> = Vec::new();
        let mut scratch: Vec<ShimRelease> = Vec::new();
        let mut probes = 0u64;
        let t = Instant::now();
        for k in 0..rounds {
            for (m, rng, phase) in clients.iter_mut() {
                let now_ns = k * interval_ns + *phase;
                while let Some(w) = m.next_wakeup() {
                    if w.as_nanos() > now_ns {
                        break;
                    }
                    m.collect_due_into(w, rng, &mut scratch);
                    let drained = !scratch.is_empty();
                    pool.extend(scratch.drain(..).map(|r| r.bytes));
                    if !drained && m.next_wakeup() == Some(w) {
                        break;
                    }
                }
                let mut frame = pool.pop().unwrap_or_default();
                frame.resize(PROBE_SIZES[(k % 2) as usize] as usize, 0);
                match m.offer(Direction::Outbound, frame, SimTime::from_nanos(now_ns), rng) {
                    ShimVerdict::Pass(bytes) => pool.push(bytes),
                    ShimVerdict::Hold | ShimVerdict::Drop => {}
                }
                probes += 1;
            }
        }
        (secs_since(t), probes)
    })
}

/// 10k clients self-rescheduling on the fleet event core with a no-op
/// handler: pure dispatch cost per event.
fn fleet_ns_per_event(size: &ProbeSize) -> f64 {
    let interval_ns = size.interval.as_nanos();
    let walk_ns = size.walk.as_nanos();
    ns_per_unit(|| {
        let t = Instant::now();
        let mut sim: FleetSim<u32> = FleetSim::new();
        for c in 0..size.clients {
            sim.schedule(phase_ns(c, interval_ns), c, 0);
        }
        sim.run_until(walk_ns + interval_ns, &mut |ev, sim| {
            let next = ev.due_ns + interval_ns;
            if next <= walk_ns {
                sim.schedule(next, ev.client, ev.kind);
            }
        });
        (secs_since(t), sim.events_processed())
    })
}

/// The fleet's station/core hop: packet-arena alloc and release plus
/// the station table's load-inflated service time and traffic record,
/// with up to 64 packets in flight.
fn station_ns_per_hop(size: &ProbeSize) -> f64 {
    let stations = (size.clients / 32).max(1);
    ns_per_unit(|| {
        let t = Instant::now();
        let mut table = StationTable::for_fleet(size.clients, stations, 0.02);
        let mut store = PacketStore::new();
        let mut in_flight = std::collections::VecDeque::with_capacity(64);
        let mut service_ns = 0u64;
        for i in 0..size.station_hops {
            let client = i.wrapping_mul(7919) % size.clients;
            let bytes = PROBE_SIZES[(i % 2) as usize];
            let packet = store.alloc(client, bytes, u64::from(i));
            let station = table.station_of(client);
            service_ns += table.service_ns(station, bytes, 80.0);
            table.record(station, bytes);
            in_flight.push_back(packet);
            if in_flight.len() > 64 {
                store.release(in_flight.pop_front().expect("non-empty"));
            }
        }
        let secs = secs_since(t);
        black_box(service_ns);
        assert_eq!(table.total_frames(), u64::from(size.station_hops));
        (secs, u64::from(size.station_hops))
    })
}
