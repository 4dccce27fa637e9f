//! Fleet orchestration: N mobile clients cut into shards, each client's
//! timeline on a virtual-time engine of its own, byte-identical output
//! at any shard count.
//!
//! A [`FleetPlan`] describes a fleet — N clients all walking one
//! scenario, each with its *own* synthesized channel (per-client seeds
//! drive [`Scenario::model`], so the fleet is N distinct realizations
//! of the scenario's quality envelope, not N copies of one curve).
//! Plans built from a [`ScenarioPack`] ([`FleetPlan::from_pack`]) go
//! further: clients split across the pack's weighted mix of registry
//! model specs — a mixed-radio fleet where some clients ride a LEO
//! constellation while others walk an ERRANT cellular profile.
//! [`fleet_run`] shards the clients into contiguous ranges, runs each
//! shard as a [`TrialPlan`] cell (reusing the plan-order reassembly
//! machinery, so shard outputs merge deterministically no matter how
//! workers interleave), and concatenates the per-client
//! [`RunManifest`]s in client order.
//!
//! **Shard invariance.** A client's entire simulation depends only on
//! plan parameters and its own client index: its channel and traffic
//! RNG streams are seeded per client, its modulator is private, and the
//! shared infrastructure it traverses — base stations and the wired
//! core — is a [`StationTable`] of *static* load factors computed from
//! the full fleet layout rather than runtime queue state. Cross-client
//! coupling is therefore commutative (station counters sum), and the
//! merged output is byte-identical at 1, 2, or 8 shards. The
//! determinism tests in `tests/fleet_determinism.rs` hold the runner to
//! exactly that, and pin the bytes of two small fleets. The same fact
//! sets the execution order: a client's events dispatch in the same
//! relative order whoever shares its event core, so a shard plays its
//! clients' whole timelines one after another, each on a [`FleetSim`]
//! of its own, and only one client's state is ever hot.
//!
//! **Traffic model.** Each client probes like the paper's collection
//! daemon: alternating 106- and 542-byte pings on a fixed cadence
//! (phase-staggered per client). The probe passes the client's
//! modulation layer outbound (trace-driven delay/loss), crosses its
//! base station and the wired core to a server, and the echo returns
//! through the station and the modulation layer inbound; the completed
//! round trip lands in a per-client RTT histogram.

use crate::plan::{CellKind, Exec, TrialCell, TrialPlan};
use crate::runs::RunConfig;
use faultkit::{FaultCounters, FaultEvent, FaultInjector, FaultPlan};
use modulate::{Modulator, TickClock};
use netsim::fleet::{FleetSim, PacketStore, StationTable};
use netsim::Step;
use netsim::{SimDuration, SimRng, SimTime};
use netstack::{Direction, LinkShim, ShimRelease, ShimVerdict};
use obs::fleet::FleetReport;
use obs::telemetry::{FleetTelemetry, SamplePoint, TelemetryConfig};
use obs::{FidelityThresholds, Hist, Profiler, RunManifest, RunnerSection};
use tracekit::{QualityTuple, ReplayTrace};
use wavelan::{ChannelModel, Registry, Scenario, ScenarioPack};

/// Small probe wire size (the paper's short ping).
const PROBE_SMALL: u32 = 106;
/// Large probe wire size (the paper's long ping).
const PROBE_LARGE: u32 = 542;
/// One-way wired-core latency between a base station and the server.
const WIRED_ONEWAY_NS: u64 = 250_000;
/// Base per-byte service cost through a station's wired uplink
/// (100 Mb/s ⇒ 80 ns/byte), inflated by the station's load factor.
const CORE_NS_PER_BYTE: f64 = 80.0;
/// Server per-request turnaround (Pentium 90, cf. the testbed).
const SERVER_CPU_NS: u64 = 350_000;
/// Per-byte service inflation per additional client on a station.
const STATION_ALPHA: f64 = 0.02;
/// Cadence at which each client's channel model is sampled into replay
/// tuples (the distiller's interval scale).
const TUPLE_CADENCE_NS: u64 = 2_000_000_000;
/// Virtual grace past the scenario end for in-flight drains.
const DRAIN_GRACE_NS: u64 = 10_000_000_000;

/// Seed-purpose tags (disjoint from `runs::seed_for` purposes 1–9).
const PURPOSE_CHANNEL: u64 = 0x21;
const PURPOSE_TRAFFIC: u64 = 0x22;
const PURPOSE_PHASE: u64 = 0x23;

/// FNV-style per-client seed derivation: one independent stream per
/// `(fleet seed, client, purpose)`, stable across shard layouts.
fn client_seed(fleet_seed: u64, client: u32, purpose: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ purpose;
    h = h.wrapping_mul(0x100_0000_01b3);
    h ^= fleet_seed;
    h = h.wrapping_mul(0x100_0000_01b3);
    h ^= u64::from(client) << 1 | 1;
    h.wrapping_mul(0x100_0000_01b3)
}

/// Description of a fleet run.
#[derive(Clone)]
pub struct FleetPlan {
    /// Scenario every client walks (each with its own realization).
    pub scenario: Scenario,
    /// Number of clients.
    pub clients: u32,
    /// Fleet seed; per-client streams derive from it.
    pub seed: u64,
    /// Shard count (contiguous client ranges, one engine each).
    pub shards: usize,
    /// Base-station count (clients attach round-robin).
    pub stations: u32,
    /// Probe cadence per client.
    pub probe_interval: SimDuration,
    /// Override the scenario duration (tests and benches shorten it).
    pub duration: Option<SimDuration>,
    /// Telemetry-plane configuration; `None` (default) runs with the
    /// plane off and zero sampling work in the engine loop.
    pub telemetry: Option<TelemetryConfig>,
    /// Run the scoped self-profiler (wall-clock spans over the shard
    /// hot paths; opt-in because it reads `Instant` per event).
    pub profile: bool,
    /// Scenario pack behind this plan, when one was loaded: clients
    /// draw their channel spec from the pack's weighted mix
    /// ([`ScenarioPack::spec_for_client`]) instead of all walking the
    /// scenario's single model — a mixed-radio fleet.
    pub pack: Option<ScenarioPack>,
}

impl FleetPlan {
    /// A fleet of `clients` walking `scenario` with the defaults: one
    /// shard, one station per 32 clients, 1 s probe cadence. Every
    /// client's modulator runs the NetBSD 10 ms clock.
    pub fn new(scenario: Scenario, clients: u32) -> Self {
        assert!(clients > 0, "a fleet needs at least one client");
        FleetPlan {
            scenario,
            clients,
            seed: 7,
            shards: 1,
            stations: (clients / 32).max(1),
            probe_interval: SimDuration::from_secs(1),
            duration: None,
            telemetry: None,
            profile: false,
            pack: None,
        }
    }

    /// A fleet built from a scenario pack: clients split across the
    /// pack's weighted model mix, all other knobs at [`FleetPlan::new`]
    /// defaults. The pack must already be validated (see
    /// [`wavelan::load_pack`]).
    pub fn from_pack(pack: ScenarioPack, clients: u32) -> Self {
        let mut plan = FleetPlan::new(pack.scenario(), clients);
        plan.pack = Some(pack);
        plan
    }

    /// Set the fleet seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Override the scenario duration.
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = Some(duration);
        self
    }

    /// Set the probe cadence.
    pub fn with_probe_interval(mut self, interval: SimDuration) -> Self {
        assert!(interval.as_nanos() > 0, "probe interval must be positive");
        self.probe_interval = interval;
        self
    }

    /// Enable the telemetry plane under `cfg`.
    pub fn with_telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Enable the scoped self-profiler.
    pub fn with_profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Effective duration (override or the scenario's).
    pub fn duration(&self) -> SimDuration {
        self.duration.unwrap_or(self.scenario.duration)
    }

    /// Virtual end of every client's timeline: the walk plus the drain
    /// grace.
    fn end_ns(&self) -> u64 {
        self.duration().as_nanos() + DRAIN_GRACE_NS
    }

    /// The channel model family + canonical params governing `client`
    /// — the pack's per-client spec for mixed fleets, otherwise the
    /// scenario's own model identity. Pure function of the client
    /// index, so attribution is shard-invariant.
    pub fn model_info_for(&self, client: u32) -> (String, String) {
        match &self.pack {
            Some(pack) => pack.spec_for_client(client).info(),
            None => self.scenario.model_info(),
        }
    }

    /// Contiguous near-equal client ranges, one per shard. Contiguity
    /// is what lets the merged manifest list be a plain concatenation
    /// in plan order.
    pub fn shard_ranges(&self) -> Vec<(u32, u32)> {
        let shards = self.shards.min(self.clients as usize).max(1) as u32;
        let base = self.clients / shards;
        let rem = self.clients % shards;
        let mut ranges = Vec::with_capacity(shards as usize);
        let mut lo = 0;
        for s in 0..shards {
            let hi = lo + base + u64::from(s < rem) as u32;
            ranges.push((lo, hi));
            lo = hi;
        }
        ranges
    }
}

/// Build one client's channel model. Plans carrying a scenario pack
/// route through the registry with the client's spec from the weighted
/// mix; plain plans use the scenario's own model. Either way the model
/// is a generic [`ChannelModel`] — nothing here assumes WaveLAN.
fn client_model(plan: &FleetPlan, client: u32, rng: &mut SimRng) -> Box<dyn ChannelModel> {
    match &plan.pack {
        Some(pack) => Registry::builtin()
            .build(pack.spec_for_client(client), plan.duration(), rng)
            .expect("pack specs are validated at load time"),
        None => plan.scenario.model(rng),
    }
}

/// Synthesize one client's replay trace: its own realization of its
/// channel model, sampled on the tuple cadence. This is the per-client
/// diversity that makes a fleet meaningful — each client draws a
/// distinct realization (and, under a pack, possibly a distinct model
/// family) from its seed.
fn client_replay(plan: &FleetPlan, client: u32) -> ReplayTrace {
    let mut rng = SimRng::seed_from_u64(client_seed(plan.seed, client, PURPOSE_CHANNEL));
    let mut model = client_model(plan, client, &mut rng);
    let duration_ns = plan.duration().as_nanos();
    let mut replay = ReplayTrace::new(&format!("fleet/{}/{client}", plan.scenario.name));
    let mut t = 0u64;
    while t < duration_ns {
        let c = model.sample(SimTime::from_nanos(t), &mut rng);
        replay.tuples.push(QualityTuple {
            duration_ns: TUPLE_CADENCE_NS,
            latency_ns: c.latency.as_nanos(),
            vb_ns_per_byte: 8e9 / c.bandwidth_bps.max(1) as f64,
            vr_ns_per_byte: 0.0,
            loss: c.loss,
        });
        t += TUPLE_CADENCE_NS;
    }
    replay
}

/// Fleet event payload.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The client emits its next probe.
    Probe,
    /// Service the client's modulation queue (scheduled at its
    /// earliest due release).
    ModWake,
    /// The server's echo arrives back at the client's inbound shim.
    Return {
        /// Packet-store row of the probe being echoed.
        packet: u32,
    },
}

/// Per-client simulation state.
struct ClientState {
    m: Modulator,
    rng: SimRng,
    /// Earliest scheduled `ModWake`, `u64::MAX` when none; dedups the
    /// wake events (the modulator's `next_wakeup` moves as packets
    /// arrive).
    next_wake_ns: u64,
    small_next: bool,
    station: u32,
    probes_sent: u64,
    completed: u64,
    lost: u64,
    rtt_ms: Hist,
}

impl ClientState {
    /// Client `c` at time zero: its own channel realization behind a
    /// fresh modulator, and its own traffic stream.
    fn new(plan: &FleetPlan, c: u32, station: u32) -> Self {
        let mut m = Modulator::from_replay(client_replay(plan, c)).with_clock(TickClock::netbsd());
        m.begin(SimTime::ZERO);
        ClientState {
            m,
            rng: SimRng::seed_from_u64(client_seed(plan.seed, c, PURPOSE_TRAFFIC)),
            next_wake_ns: u64::MAX,
            small_next: true,
            station,
            probes_sent: 0,
            completed: 0,
            lost: 0,
            rtt_ms: Hist::new(0.0, 2_000.0, 200),
        }
    }

    /// The client's run manifest.
    fn manifest(&self, plan: &FleetPlan, c: u32) -> RunManifest {
        let mut man = RunManifest::new(plan.scenario.name, "fleet-probe", c);
        let (family, params) = plan.model_info_for(c);
        man.set_model(&family, &params);
        man.fidelity = self.m.fidelity();
        let mm = &mut man.metrics;
        mm.set_counter("fleet.probes_sent", self.probes_sent);
        mm.set_counter("fleet.rtts_completed", self.completed);
        mm.set_counter("fleet.packets_lost", self.lost);
        mm.set_counter("fleet.station", u64::from(self.station));
        mm.set_hist("fleet.rtt_ms", self.rtt_ms.snapshot());
        let s = self.m.stats();
        mm.set_counter("modulate.offered", s.offered);
        mm.set_counter("modulate.immediate", s.immediate);
        mm.set_counter("modulate.held", s.held);
        mm.set_counter("modulate.dropped", s.dropped);
        mm.set_counter("modulate.unmodulated", s.unmodulated);
        mm.set_counter("modulate.sched.pushes", s.held);
        man
    }
}

/// One shard of a fleet: the clients in `[lo, hi)` plus the fault
/// configuration, packaged as a [`TrialPlan`] cell payload.
pub struct FleetShard {
    plan: FleetPlan,
    lo: u32,
    hi: u32,
    fault: (u64, FaultPlan),
}

/// Everything one shard produced.
#[derive(Debug)]
pub struct FleetShardOutcome {
    /// First client index of the shard (merge-order check).
    pub first_client: u32,
    /// Per-client manifests, in client order.
    pub manifests: Vec<RunManifest>,
    /// This shard's station traffic counters (summed into the fleet
    /// table on merge).
    pub stations: StationTable,
    /// Events the shard's clients dispatched (layout-invariant in sum).
    pub events_processed: u64,
    /// Largest per-client engine queue high-water mark (diagnostic;
    /// never part of deterministic output).
    pub peak_queue_depth: usize,
    /// Largest per-client count of concurrent in-flight packets, which
    /// is also the shard packet arena's row count (diagnostic).
    pub peak_packets_live: usize,
    /// Virtual seconds the shard covered.
    pub virtual_secs: f64,
    /// Faults injected while running this shard.
    pub faults: Vec<FaultEvent>,
    /// Fault tallies for this shard.
    pub counters: FaultCounters,
    /// This shard's cumulative telemetry readings, summed over its
    /// clients, at the run's last `ring_capacity + 1` sampling
    /// boundaries, when the plan enables the plane (summed fleet-wide
    /// in plan order, then built into [`FleetTelemetry`]).
    pub telemetry: Option<Vec<SamplePoint>>,
    /// This shard's self-profile, when the plan enables it
    /// (wall-clock; merged by summation, never deterministic).
    pub profile: Option<Profiler>,
}

/// Reinterpret a frame's leading bytes as its packet-store row. Frames
/// cycle through a shard-local pool; only these four bytes are ever
/// read, so stale tail bytes cannot influence anything.
fn packet_of(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("probe frames are ≥ 4 B"))
}

/// Pull a frame from the pool (or allocate), size it, stamp the packet
/// id into the leading bytes.
fn frame_for(pool: &mut Vec<Vec<u8>>, packet: u32, size: u32) -> Vec<u8> {
    let mut f = pool.pop().unwrap_or_default();
    f.resize(size as usize, 0);
    f[..4].copy_from_slice(&packet.to_le_bytes());
    f
}

/// Schedule the server echo for an uplinked probe: station service
/// (load-inflated) out and back, the wired core both ways, and the
/// server turnaround.
#[allow(clippy::too_many_arguments)] // one parameter per physical hop input; a struct would be pure ceremony
fn uplink(
    sim: &mut FleetSim<Ev>,
    stations: &mut StationTable,
    station: u32,
    client: u32,
    packet: u32,
    size: u32,
    bytes: Vec<u8>,
    pool: &mut Vec<Vec<u8>>,
    now_ns: u64,
) {
    stations.record(station, size);
    let core = 2 * stations.service_ns(station, size, CORE_NS_PER_BYTE)
        + 2 * WIRED_ONEWAY_NS
        + SERVER_CPU_NS;
    sim.schedule(now_ns + core, client, Ev::Return { packet });
    pool.push(bytes);
}

/// Account a completed round trip and free the packet row.
fn complete(cl: &mut ClientState, store: &mut PacketStore, packet: u32, now_ns: u64) {
    let rtt_ms = (now_ns - store.sent_ns(packet)) as f64 / 1e6;
    cl.rtt_ms.observe(rtt_ms);
    cl.completed += 1;
    store.release(packet);
}

/// Re-arm the client's `ModWake` if its modulator's earliest due
/// release moved earlier than the armed wake.
fn update_wake(sim: &mut FleetSim<Ev>, cl: &mut ClientState, client: u32) {
    if let Some(w) = cl.m.next_wakeup() {
        let w_ns = w.as_nanos();
        if w_ns < cl.next_wake_ns {
            cl.next_wake_ns = w_ns;
            sim.schedule(w_ns, client, Ev::ModWake);
        }
    }
}

/// One client's modulation and traffic share of a telemetry row (the
/// engine-wide fields stay zero).
fn client_reading(cl: &ClientState) -> SamplePoint {
    let (released, abs_delay_error_ns) = cl.m.error_accum();
    SamplePoint {
        mod_held: cl.m.held_count() as u64,
        probes_sent: cl.probes_sent,
        rtts_completed: cl.completed,
        packets_lost: cl.lost,
        released,
        abs_delay_error_ns,
        degraded_clients: u64::from(cl.m.is_degraded()),
        ..SamplePoint::default()
    }
}

impl FleetShard {
    /// Execute the shard. Its clients run to completion one at a time:
    /// each client's whole timeline runs on its own [`FleetSim`] from t = 0
    /// to the shard deadline, and whole-shard outputs come out as from one
    /// core carrying every client (module doc).
    ///
    /// `cell_index` is this shard's position in its trial plan:
    /// `kill_worker(idx, at_event)` faults target cell indices (exactly like
    /// [`live_modulated_run`](crate::live_modulated_run)), so kills land on
    /// the same shard at any worker count. A killed shard runs once: it
    /// keeps the dues it dispatches and, if it dispatched more than
    /// `at_event` = N events, notes the kill at the N-th smallest (0 for
    /// N = 0), where one core dispatching in `(due, seq)` order would have
    /// been killed. Telemetry samples are not events. Shards are pure
    /// functions of the plan, so a killed shard's output is bitwise that of
    /// an unkilled one, preserving merge order.
    ///
    /// With telemetry on, each client adds its cumulative reading at every
    /// sampling boundary to that boundary's summed row. Only the last
    /// `ring_capacity + 1` boundaries are summed (the extra one differences
    /// the first row kept), so memory is bounded by the kept series; the
    /// merge differences the fleet-wide sums once.
    pub fn run(&self, cell_index: usize) -> FleetShardOutcome {
        let (plan, lo, hi) = (&self.plan, self.lo, self.hi);
        let (seed, fplan) = &self.fault;
        let mut injector = FaultInjector::new(*seed, fplan, plan.end_ns());
        let duration_ns = plan.duration().as_nanos();
        let end_ns = plan.end_ns();
        let interval_ns = plan.probe_interval.as_nanos();
        let mut stations = StationTable::for_fleet(plan.clients, plan.stations, STATION_ALPHA);
        let mut store = PacketStore::new();
        let mut pool: Vec<Vec<u8>> = Vec::new();
        let mut scratch: Vec<ShimRelease> = Vec::new();
        let mut prof = plan.profile.then(|| {
            let mut p = Profiler::new();
            p.enter("shard");
            p
        });
        let tel_cfg = plan.telemetry;
        let sample_interval = tel_cfg.map_or(0, |cfg| cfg.interval_ns);
        let boundaries = end_ns.checked_div(sample_interval).unwrap_or(0);
        let first_summed = boundaries
            .saturating_sub(tel_cfg.map_or(0, |cfg| (cfg.ring_capacity as u64).saturating_add(1)));
        let mut sums: Vec<SamplePoint> = (first_summed..boundaries)
            .map(|k| SamplePoint {
                t_ns: (k + 1) * sample_interval,
                ..SamplePoint::default()
            })
            .collect();
        let kill_mark = injector.kill_mark(cell_index);
        let mut dues: Option<Vec<u64>> = kill_mark.map(|_| Vec::new());
        let mut manifests = Vec::with_capacity((hi - lo) as usize);
        let mut events = 0u64;
        let mut peak_queue_depth = 0usize;

        for c in lo..hi {
            if let Some(p) = prof.as_mut() {
                p.enter("setup");
            }
            let mut cl = ClientState::new(plan, c, stations.station_of(c));
            let frames_before = stations.frames(cl.station);
            let mut sim: FleetSim<Ev> = FleetSim::new();
            let phase = client_seed(plan.seed, c, PURPOSE_PHASE) % interval_ns;
            sim.schedule(phase, c, Ev::Probe);
            if let Some(p) = prof.as_mut() {
                p.exit("setup");
                p.enter("run");
            }
            sim.run(end_ns, sample_interval, u64::MAX, &mut |step, sim| {
                let ev = match step {
                    Step::Sample(t_ns) => {
                        let k = t_ns / sample_interval - 1;
                        if let Some(i) = k.checked_sub(first_summed) {
                            sums[i as usize].absorb(&SamplePoint {
                                t_ns,
                                events: sim.events_processed(),
                                queue_depth: sim.queue_depth() as u64,
                                packets_live: store.live() as u64,
                                station_frames: stations.frames(cl.station) - frames_before,
                                ..client_reading(&cl)
                            });
                        }
                        return;
                    }
                    Step::Event(ev) => ev,
                };
                if let Some(dues) = dues.as_mut() {
                    dues.push(ev.due_ns);
                }
                let span = match ev.kind {
                    Ev::Probe => "probe",
                    Ev::ModWake => "mod_wake",
                    Ev::Return { .. } => "return",
                };
                if let Some(p) = prof.as_mut() {
                    p.enter(span);
                }
                let now_ns = ev.due_ns;
                let now = SimTime::from_nanos(now_ns);
                match ev.kind {
                    Ev::Probe => {
                        let size = if cl.small_next {
                            PROBE_SMALL
                        } else {
                            PROBE_LARGE
                        };
                        cl.small_next = !cl.small_next;
                        cl.probes_sent += 1;
                        let packet = store.alloc(ev.client, size, now_ns);
                        let frame = frame_for(&mut pool, packet, size);
                        match cl.m.offer(Direction::Outbound, frame, now, &mut cl.rng) {
                            ShimVerdict::Pass(bytes) => uplink(
                                sim,
                                &mut stations,
                                cl.station,
                                ev.client,
                                packet,
                                size,
                                bytes,
                                &mut pool,
                                now_ns,
                            ),
                            ShimVerdict::Hold => {}
                            ShimVerdict::Drop => {
                                cl.lost += 1;
                                store.release(packet);
                            }
                        }
                        if now_ns + interval_ns <= duration_ns {
                            sim.schedule(now_ns + interval_ns, ev.client, Ev::Probe);
                        }
                        update_wake(sim, &mut cl, ev.client);
                    }
                    Ev::ModWake => {
                        // A stale wake (a newer one is armed) falls through
                        // without touching the modulator.
                        if cl.next_wake_ns == now_ns {
                            cl.next_wake_ns = u64::MAX;
                            cl.m.collect_due_into(now, &mut cl.rng, &mut scratch);
                            for rel in scratch.drain(..) {
                                let packet = packet_of(&rel.bytes);
                                match rel.dir {
                                    Direction::Outbound => {
                                        let size = store.size(packet);
                                        uplink(
                                            sim,
                                            &mut stations,
                                            cl.station,
                                            ev.client,
                                            packet,
                                            size,
                                            rel.bytes,
                                            &mut pool,
                                            now_ns,
                                        );
                                    }
                                    Direction::Inbound => {
                                        complete(&mut cl, &mut store, packet, now_ns);
                                        pool.push(rel.bytes);
                                    }
                                }
                            }
                            update_wake(sim, &mut cl, ev.client);
                        }
                    }
                    Ev::Return { packet } => {
                        let size = store.size(packet);
                        stations.record(cl.station, size);
                        let frame = frame_for(&mut pool, packet, size);
                        match cl.m.offer(Direction::Inbound, frame, now, &mut cl.rng) {
                            ShimVerdict::Pass(bytes) => {
                                complete(&mut cl, &mut store, packet, now_ns);
                                pool.push(bytes);
                            }
                            ShimVerdict::Hold => {}
                            ShimVerdict::Drop => {
                                cl.lost += 1;
                                store.release(packet);
                            }
                        }
                        update_wake(sim, &mut cl, ev.client);
                    }
                }
                if let Some(p) = prof.as_mut() {
                    p.exit(span);
                }
            });
            events += sim.events_processed();
            peak_queue_depth = peak_queue_depth.max(sim.peak_queue_depth());
            // Probes still held or in transit at the deadline end with the
            // client, so the store only ever holds one client's packets.
            store.release_all();
            if let Some(p) = prof.as_mut() {
                p.add_virtual(end_ns);
                p.exit("run");
                p.enter("finalize");
            }
            manifests.push(cl.manifest(plan, c));
            if let Some(p) = prof.as_mut() {
                p.exit("finalize");
            }
        }

        if let (Some(n), Some(mut dues)) = (kill_mark, dues) {
            if events > n {
                injector.note_kill(
                    n.checked_sub(1)
                        .map_or(0, |i| *dues.select_nth_unstable(i as usize).1),
                );
            }
        }
        if let Some(p) = prof.as_mut() {
            p.exit("shard");
        }

        FleetShardOutcome {
            first_client: lo,
            manifests,
            stations,
            events_processed: events,
            peak_queue_depth,
            peak_packets_live: store.peak_live(),
            virtual_secs: end_ns as f64 / 1e9,
            counters: *injector.counters(),
            faults: injector.into_events(),
            telemetry: tel_cfg.map(|_| sums),
            profile: prof,
        }
    }
}

/// Everything a fleet run produces.
pub struct FleetOutcome {
    /// Per-client manifests in client order (the concatenation of the
    /// shard outputs in plan order).
    pub manifests: Vec<RunManifest>,
    /// The aggregate fidelity report (with a wall-clock runner
    /// section; strip via
    /// [`deterministic_json`](obs::fleet::FleetReport::deterministic_json)).
    pub report: FleetReport,
    /// Merged station traffic (per-shard tables summed).
    pub stations: StationTable,
    /// Faults injected, in plan order.
    pub faults: Vec<FaultEvent>,
    /// Summed fault tallies across shards.
    pub counters: FaultCounters,
    /// Largest per-client engine queue high-water mark (diagnostic).
    pub peak_queue_depth: usize,
    /// Largest per-client count of concurrent in-flight packets
    /// (diagnostic; each shard's packet arena holds this many rows at
    /// most, since its clients run one at a time).
    pub peak_packets_live: usize,
    /// Merged shard self-profiles, when the plan enabled profiling
    /// (wall-clock — diagnostic only, like the runner section).
    pub profile: Option<Profiler>,
}

/// Run a fleet: shard the clients, execute one engine per shard on the
/// plan's worker pool, merge in plan order. This is [`fleet_run_chaos`]
/// under the empty fault plan.
pub fn fleet_run(plan: &FleetPlan, exec: &Exec) -> FleetOutcome {
    fleet_run_chaos(plan, exec, 0, &FaultPlan::new())
}

/// Evaluate an alert rule set over a finished fleet run: the run's
/// telemetry series, its aggregate report, and its injected-fault
/// timestamps (for suppression windows) feed [`obs::alerts`], with an
/// optional `baseline` report serving delta-vs-baseline predicates.
/// Evaluation is post-hoc and pure — nothing touches the engine hot
/// path, and the resulting report is byte-identical at any shard or
/// worker count (proptested in `tests/fleet_determinism.rs`).
pub fn fleet_alerts(
    out: &FleetOutcome,
    rules: &obs::RuleSet,
    baseline: Option<&FleetReport>,
) -> Result<obs::AlertReport, String> {
    let series = out
        .report
        .telemetry
        .as_ref()
        .map_or(&[][..], |t| t.series.as_slice());
    obs::evaluate_alerts(
        rules,
        &obs::AlertInputs {
            series,
            report: Some(&out.report),
            baseline,
            faults: &out.faults,
            run: None,
        },
    )
}

/// [`fleet_run`] under deterministic fault injection: `kill_worker`
/// entries in `fault_plan` target shard cell indices, and a killed
/// shard is noted without perturbing merge order or output bytes.
///
/// The fleet applies only `kill_worker`. Every other fault kind acts on
/// the live pipeline's trace records, tuples, feed or collection ring,
/// none of which a fleet client has, so such entries inject nothing
/// here; `tracemod fleet` refuses a plan that holds them.
pub fn fleet_run_chaos(
    plan: &FleetPlan,
    exec: &Exec,
    fault_seed: u64,
    fault_plan: &FaultPlan,
) -> FleetOutcome {
    let mut tp = TrialPlan::new();
    for (i, (lo, hi)) in plan.shard_ranges().into_iter().enumerate() {
        tp.push(TrialCell {
            label: format!("fleet/{}/shard{i}", plan.scenario.name),
            trial: i as u32,
            cfg: RunConfig::default(),
            kind: CellKind::Fleet(FleetShard {
                plan: plan.clone(),
                lo,
                hi,
                fault: (fault_seed, fault_plan.clone()),
            }),
        });
    }
    let results = tp.run(exec);
    let wall = results.metrics.wall_secs;
    let worker_utilization = results.metrics.worker_utilization();

    // The first shard's manifests become the outcome's, grown once to
    // hold the rest: no second `clients`-long vector beside the shards'.
    let mut manifests: Vec<RunManifest> = Vec::new();
    let mut stations = StationTable::for_fleet(plan.clients, plan.stations, STATION_ALPHA);
    let mut faults = Vec::new();
    let mut counters = FaultCounters::default();
    let mut events = 0u64;
    let mut peak_queue_depth = 0usize;
    let mut peak_packets_live = 0usize;
    let mut readings: Option<Vec<SamplePoint>> = None;
    let mut profile: Option<Profiler> = None;
    for mut shard in results.into_fleet_outcomes() {
        debug_assert_eq!(
            shard.first_client,
            manifests.len() as u32,
            "shards merge in client order"
        );
        if manifests.is_empty() {
            manifests = std::mem::take(&mut shard.manifests);
            manifests.reserve_exact((plan.clients as usize).saturating_sub(manifests.len()));
        } else {
            manifests.append(&mut shard.manifests);
        }
        stations.merge(&shard.stations);
        faults.append(&mut shard.faults);
        counters.add(&shard.counters);
        events += shard.events_processed;
        peak_queue_depth = peak_queue_depth.max(shard.peak_queue_depth);
        peak_packets_live = peak_packets_live.max(shard.peak_packets_live);
        if let Some(rows) = shard.telemetry {
            match readings.as_mut() {
                Some(sum) => sum.iter_mut().zip(&rows).for_each(|(r, o)| r.absorb(o)),
                None => readings = Some(rows),
            }
        }
        if let Some(p) = &shard.profile {
            profile.get_or_insert_with(Profiler::new).merge(p);
        }
    }

    let mut report = FleetReport::from_manifests(
        plan.scenario.name,
        &manifests,
        &FidelityThresholds::default(),
    );
    if let Some(cfg) = &plan.telemetry {
        // A client's p95 RTT comes from its manifest's RTT snapshot;
        // station hot spots come from the *merged* station table
        // (stations span shards, so exact fleet-wide counts are the
        // only layout-invariant source).
        let p95s = manifests.iter().zip(0..).filter_map(|(man, c)| {
            let rtt = man.metrics.hist("fleet.rtt_ms").expect("set per client");
            (rtt.count > 0).then(|| (c, (rtt.p95 * 1_000.0).round() as u64))
        });
        report.telemetry = Some(FleetTelemetry::from_readings(
            cfg,
            plan.end_ns() / cfg.interval_ns,
            readings.as_deref().unwrap_or_default(),
            p95s,
            (0..stations.stations() as u32).map(|s| (s, stations.frames(s))),
        ));
    }
    report.metrics.set_counter("fleet.engine_events", events);
    report
        .metrics
        .set_counter("fleet.stations", u64::from(plan.stations));
    report
        .metrics
        .set_counter("fleet.station_frames", stations.total_frames());
    report
        .metrics
        .set_counter("fleet.station_bytes", stations.total_bytes());
    report.runner = Some(RunnerSection {
        wall_secs: wall,
        workers: exec.workers,
        records_per_sec: if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        },
        worker_utilization,
    });

    FleetOutcome {
        manifests,
        report,
        stations,
        faults,
        counters,
        peak_queue_depth,
        peak_packets_live,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan(clients: u32) -> FleetPlan {
        FleetPlan::new(Scenario::porter(), clients)
            .with_duration(SimDuration::from_secs(3))
            .with_probe_interval(SimDuration::from_millis(500))
    }

    #[test]
    fn clients_get_distinct_channels() {
        let plan = tiny_plan(3);
        let a = client_replay(&plan, 0);
        let b = client_replay(&plan, 1);
        assert_eq!(a.tuples.len(), b.tuples.len());
        assert_ne!(
            a.tuples[0].latency_ns, b.tuples[0].latency_ns,
            "per-client channel realizations must differ"
        );
    }

    #[test]
    fn shard_ranges_are_contiguous_and_cover() {
        let plan = tiny_plan(10).with_shards(3);
        let r = plan.shard_ranges();
        assert_eq!(r, vec![(0, 4), (4, 7), (7, 10)]);
        // More shards than clients degrades gracefully.
        let r = tiny_plan(2).with_shards(8).shard_ranges();
        assert_eq!(r, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn small_fleet_completes_round_trips() {
        let plan = tiny_plan(4);
        let out = fleet_run(&plan, &Exec::serial());
        assert_eq!(out.manifests.len(), 4);
        assert_eq!(out.report.clients, 4);
        let completed: u64 = out
            .manifests
            .iter()
            .map(|m| m.metrics.counter("fleet.rtts_completed").unwrap_or(0))
            .sum();
        assert!(completed > 0, "probes must complete round trips");
        assert!(out.stations.total_frames() > 0);
        assert!(out.peak_packets_live > 0);
        // Aggregate gate: a healthy tiny fleet passes the builtin rules.
        let alerts = fleet_alerts(&out, &obs::RuleSet::builtin(), None).unwrap();
        let violations = alerts.check(obs::Severity::Warn);
        assert!(violations.is_empty(), "fleet gate failed: {violations:?}");
    }

    #[test]
    fn telemetry_samples_and_outliers_populate() {
        let plan = tiny_plan(4).with_telemetry(TelemetryConfig::default());
        let out = fleet_run(&plan, &Exec::serial());
        let tel = out.report.telemetry.as_ref().expect("telemetry enabled");
        // 3 s scenario + 10 s drain grace ⇒ 13 one-second boundaries.
        assert_eq!(tel.series.len(), 13);
        assert_eq!(tel.interval_ns, 1_000_000_000);
        let probes: u64 = tel.series.iter().map(|r| r.probes_sent).sum();
        let manifest_probes: u64 = out
            .manifests
            .iter()
            .map(|m| m.metrics.counter("fleet.probes_sent").unwrap_or(0))
            .sum();
        assert_eq!(probes, manifest_probes, "series deltas sum to run totals");
        assert!(tel.series.iter().any(|r| r.released > 0));
        assert!(!tel.worst_clients.is_empty());
        assert!(!tel.hot_stations.is_empty());
        assert_eq!(
            tel.hot_stations.iter().map(|e| e.weight).sum::<u64>(),
            out.stations.total_frames(),
            "one station ⇒ top-K holds all frames"
        );
        assert!(out.profile.is_none(), "profiler stays off unless asked");
    }

    #[test]
    fn hot_stations_are_the_busiest_stations() {
        let cfg = TelemetryConfig {
            top_k: 3,
            ..TelemetryConfig::default()
        };
        let plan = tiny_plan(200).with_telemetry(cfg);
        assert!(plan.stations > 3, "more stations than top-K slots");
        let out = fleet_run(&plan, &Exec::serial());
        let mut want: Vec<(u64, u64)> = (0..plan.stations)
            .map(|s| (u64::from(s), out.stations.frames(s)))
            .collect();
        want.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        want.truncate(3);
        let tel = out.report.telemetry.as_ref().expect("telemetry enabled");
        let got: Vec<(u64, u64)> = tel.hot_stations.iter().map(|e| (e.key, e.weight)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn telemetry_leaves_manifests_unchanged() {
        let plain = fleet_run(&tiny_plan(3), &Exec::serial());
        let with_tel = fleet_run(
            &tiny_plan(3).with_telemetry(TelemetryConfig::default()),
            &Exec::serial(),
        );
        let a: Vec<String> = plain
            .manifests
            .iter()
            .map(RunManifest::deterministic_json)
            .collect();
        let b: Vec<String> = with_tel
            .manifests
            .iter()
            .map(RunManifest::deterministic_json)
            .collect();
        assert_eq!(a, b, "telemetry must not perturb the simulation");
    }

    #[test]
    fn profiler_covers_the_hot_paths() {
        let plan = tiny_plan(2).with_profile(true);
        let out = fleet_run(&plan, &Exec::serial());
        let prof = out.profile.expect("profiling enabled");
        let stacks: Vec<&str> = prof.entries().map(|(k, _)| k).collect();
        assert!(stacks.contains(&"shard;run;probe"), "{stacks:?}");
        assert!(stacks.contains(&"shard;run;return"), "{stacks:?}");
        assert!(stacks.contains(&"shard;setup"), "{stacks:?}");
        let collapsed = prof.render_collapsed();
        assert!(collapsed.contains("shard;run;probe "));
    }

    #[test]
    fn engine_peaks_are_per_client() {
        // Clients run one at a time, so the peaks are per-client maxima
        // and no longer depend on how clients are grouped into shards.
        let serial = fleet_run(&tiny_plan(6), &Exec::serial());
        let sharded = fleet_run(&tiny_plan(6).with_shards(3), &Exec::serial());
        assert_eq!(serial.peak_queue_depth, sharded.peak_queue_depth);
        assert_eq!(serial.peak_packets_live, sharded.peak_packets_live);
        // One client probes every 500 ms over ~30 ms round trips.
        assert!(serial.peak_queue_depth <= 4, "{}", serial.peak_queue_depth);
        assert!(
            serial.peak_packets_live <= 2,
            "{}",
            serial.peak_packets_live
        );
    }

    #[test]
    fn pack_fleet_mixes_models_and_stays_shard_invariant() {
        let toml = "name = \"mix\"\nduration_secs = 3\n\n[[model]]\nfamily = \"leo\"\nshare = 3\n\n[[model]]\nfamily = \"errant\"\noperator = \"op2\"\nrat = \"4g\"\n";
        let pack = ScenarioPack::from_toml(toml).unwrap();
        pack.validate(Registry::builtin()).unwrap();
        let plan = FleetPlan::from_pack(pack, 8).with_probe_interval(SimDuration::from_millis(500));
        let serial = fleet_run(&plan, &Exec::serial());
        assert_eq!(serial.report.scenario, "mix");
        // Shares 3:1 over client % 4 ⇒ 6 LEO clients, 2 ERRANT.
        assert_eq!(serial.report.models.len(), 2);
        assert_eq!(serial.report.models[0].family, "leo");
        assert_eq!(serial.report.models[0].clients, 6);
        assert_eq!(serial.report.models[1].family, "errant");
        assert_eq!(serial.report.models[1].clients, 2);
        assert_eq!(
            serial.report.metrics.counter("fleet.model_clients.leo"),
            Some(6)
        );
        // Per-client manifests carry the model attribution.
        assert_eq!(serial.manifests[3].model.as_ref().unwrap().family, "errant");
        assert!(serial.manifests[3]
            .model
            .as_ref()
            .unwrap()
            .params
            .contains("operator=op2"));
        // Mixed fleets keep the byte-identity guarantee.
        let sharded = fleet_run(&plan.clone().with_shards(4), &Exec::with_workers(2));
        let a: Vec<String> = serial
            .manifests
            .iter()
            .map(RunManifest::deterministic_json)
            .collect();
        let b: Vec<String> = sharded
            .manifests
            .iter()
            .map(RunManifest::deterministic_json)
            .collect();
        assert_eq!(a, b, "pack fleet must match serial bytes at 4 shards");
        assert_eq!(
            serial.report.deterministic_json(),
            sharded.report.deterministic_json()
        );
    }

    #[test]
    fn manifests_identical_across_shard_counts() {
        let serial = fleet_run(&tiny_plan(5), &Exec::serial());
        for shards in [2usize, 4] {
            let sharded = fleet_run(&tiny_plan(5).with_shards(shards), &Exec::with_workers(2));
            let a: Vec<String> = serial
                .manifests
                .iter()
                .map(RunManifest::deterministic_json)
                .collect();
            let b: Vec<String> = sharded
                .manifests
                .iter()
                .map(RunManifest::deterministic_json)
                .collect();
            assert_eq!(a, b, "{shards} shards must match serial bytes");
            assert_eq!(
                serial.report.deterministic_json(),
                sharded.report.deterministic_json()
            );
        }
    }
}
