//! The three phases of the methodology as runnable operations:
//! collection (§3.1), live benchmark runs (§5.1's "real" columns), and
//! modulated runs (§3.3 + §5.1's "modulated" columns), plus the one-time
//! compensation measurement of the modulating network.

use crate::hooks::FlightFrameHook;
use crate::testbed::{build_ethernet, build_wireless, Hardware, SERVER_IP};
use crate::workload::{extract, install, is_done, run_to_completion, Benchmark, RunResult};
use distill::{distill_with_report, DistillConfig, DistillReport, DistillStats, Distiller};
use faultkit::{ChaosSink, FaultCounters, FaultEvent, FaultInjector, FaultPlan};
use modulate::{Modulator, TickClock, TupleBuffer, TupleFeed};
use netsim::{NodeId, SimDuration, SimRng, SimTime, Simulator};
use netstack::{AppId, Host};
use obs::flight::FlightHandle;
use obs::{MetricsRegistry, RunManifest};
use tracekit::{CollectionDaemon, Collector, PseudoDevice, ReplayTrace, SignalSource, Trace};
use wavelan::{Scenario, WirelessChannel};
use workloads::{PingConfig, PingWorkload};

/// Everything configurable about an experiment run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Host hardware model.
    pub hw: Hardware,
    /// Modulation scheduling clock.
    pub clock: TickClock,
    /// Apply inbound delay compensation with this measured Vb (ns/byte);
    /// `None` disables compensation.
    pub compensation: Option<f64>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            hw: Hardware::default(),
            clock: TickClock::netbsd(),
            compensation: None,
        }
    }
}

/// Derive the deterministic seed for (scenario, trial, purpose).
fn seed_for(scenario: &str, trial: u32, purpose: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ purpose;
    for b in scenario.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^ (trial as u64) << 32
}

/// The channel a collection trial traverses, plus a signal source
/// reading its meter for the laptop's tracer.
fn collection_channel(scenario: &Scenario, trial: u32) -> (WirelessChannel, SignalSource) {
    let mut trial_rng = SimRng::seed_from_u64(seed_for(scenario.name, trial, 1));
    let channel = scenario.channel(&mut trial_rng);
    let meter = channel.meter();
    (channel, Box::new(move || meter.lock().quantized()))
}

/// Equip `laptop` to collect a trace, the same way on every
/// collection testbed: a [`Collector`] on `dev` (sampling `signal` and
/// stamping `flight` when given), the paper's ping workload for
/// `ping_secs`, and the daemon that drains `dev` into a trace labelled
/// `(scenario, trial)`. Returns the daemon's id.
fn install_collection(
    laptop: &mut Host,
    dev: &PseudoDevice,
    signal: Option<SignalSource>,
    flight: Option<FlightHandle>,
    ping_secs: u64,
    (scenario, trial): (&str, u32),
) -> AppId {
    let mut collector = Collector::new(dev.clone());
    if let Some(signal) = signal {
        collector = collector.with_signal_source(signal);
    }
    if let Some(flight) = flight {
        collector = collector.with_flight(flight);
    }
    laptop.set_tracer(Box::new(collector));
    let mut ping_cfg = PingConfig::paper(SERVER_IP);
    ping_cfg.duration = SimDuration::from_secs(ping_secs);
    laptop.add_app(Box::new(PingWorkload::new(ping_cfg)));
    laptop.add_app(Box::new(CollectionDaemon::new(
        dev.clone(),
        "thinkpad",
        scenario,
        trial,
    )))
}

/// The trace `daemon` on `host` has collected up to now.
fn finish_collection(sim: &mut Simulator, host: NodeId, daemon: AppId) -> Trace {
    let now_ns = sim.now().as_nanos();
    let host: &mut Host = sim.node_mut(host);
    host.app_mut::<CollectionDaemon>(daemon).finish(now_ns)
}

/// **Collection phase**: traverse `scenario` (trial `trial`) with the
/// instrumented laptop running the ping workload; return the collected
/// trace.
pub fn collect_trace(scenario: &Scenario, trial: u32, cfg: &RunConfig) -> Trace {
    let (channel, signal) = collection_channel(scenario, trial);
    let dev = PseudoDevice::new(65_536);
    let scenario_secs = scenario.duration.as_secs_f64() as u64;
    let (mut tb, daemon) = build_wireless(
        seed_for(scenario.name, trial, 2),
        cfg.hw,
        channel,
        |laptop, _server| {
            install_collection(
                laptop,
                &dev,
                Some(signal),
                None,
                scenario_secs,
                (scenario.name, trial),
            )
        },
    );
    tb.start();
    tb.sim.run_until(SimTime::from_secs(scenario_secs + 5));
    finish_collection(&mut tb.sim, tb.laptop, daemon)
}

/// Collection + distillation in one step.
pub fn collect_and_distill(scenario: &Scenario, trial: u32, cfg: &RunConfig) -> DistillReport {
    let trace = collect_trace(scenario, trial, cfg);
    distill_with_report(&trace, &DistillConfig::default())
}

/// **Two-sided collection** (the §6 synchronized-clocks extension):
/// tracers on *both* endpoints; the simulation's global clock plays the
/// role of the synchronized clocks. Returns (mobile trace, target
/// trace).
pub fn collect_trace_two_sided(
    scenario: &Scenario,
    trial: u32,
    cfg: &RunConfig,
) -> (tracekit::Trace, tracekit::Trace) {
    let (channel, signal) = collection_channel(scenario, trial);
    let dev_m = PseudoDevice::new(65_536);
    let dev_t = PseudoDevice::new(65_536);
    let scenario_secs = scenario.duration.as_secs_f64() as u64;
    let (mut tb, (daemon_m, daemon_t)) = build_wireless(
        seed_for(scenario.name, trial, 2),
        cfg.hw,
        channel,
        |laptop, server| {
            server.set_tracer(Box::new(Collector::new(dev_t.clone())));
            let daemon_m = install_collection(
                laptop,
                &dev_m,
                Some(signal),
                None,
                scenario_secs,
                (scenario.name, trial),
            );
            let daemon_t = server.add_app(Box::new(CollectionDaemon::new(
                dev_t.clone(),
                "server",
                scenario.name,
                trial,
            )));
            (daemon_m, daemon_t)
        },
    );
    tb.start();
    tb.sim.run_until(SimTime::from_secs(scenario_secs + 5));
    let mobile = finish_collection(&mut tb.sim, tb.laptop, daemon_m);
    let target = finish_collection(&mut tb.sim, tb.server, daemon_t);
    (mobile, target)
}

/// **Live run**: execute `benchmark` over the real (simulated-wireless)
/// scenario — the paper's "Real" columns.
pub fn live_run(
    scenario: &Scenario,
    trial: u32,
    benchmark: Benchmark,
    cfg: &RunConfig,
) -> RunResult {
    let mut trial_rng = SimRng::seed_from_u64(seed_for(scenario.name, trial, 3));
    let channel = scenario.channel(&mut trial_rng);
    let (mut tb, inst) = build_wireless(
        seed_for(scenario.name, trial, 4),
        cfg.hw,
        channel,
        |laptop, server| install(benchmark, laptop, server),
    );
    run_to_completion(&mut tb, &inst)
}

/// **Modulated run**: execute `benchmark` on the isolated Ethernet with
/// the modulation layer playing back `replay` — the paper's "Modulated"
/// columns.
pub fn modulated_run(
    replay: &ReplayTrace,
    trial: u32,
    benchmark: Benchmark,
    cfg: &RunConfig,
) -> RunResult {
    let mut modulator = Modulator::from_replay(replay.clone()).with_clock(cfg.clock);
    if let Some(vb) = cfg.compensation {
        modulator = modulator.with_compensation(vb);
    }
    let (mut tb, inst) = build_ethernet(
        seed_for(&replay.source, trial, 5),
        cfg.hw,
        |laptop, server| {
            laptop.set_shim(Box::new(modulator));
            install(benchmark, laptop, server)
        },
    );
    run_to_completion(&mut tb, &inst)
}

/// Diagnostics from a [`live_modulated_run`]'s streaming pipeline.
#[derive(Debug, Clone)]
pub struct LiveModStats {
    /// Tuples the incremental distiller pushed into the feed.
    pub tuples_fed: u64,
    /// Tuples the modulator consumed from the kernel buffer.
    pub tuples_consumed: u64,
    /// Virtual time (s) when the modulator first consumed a tuple;
    /// `Some(t)` with `t <` [`collection_secs`](Self::collection_secs)
    /// demonstrates modulation starting while collection still runs.
    pub first_consumption_secs: Option<f64>,
    /// Virtual seconds the collection phase ran (trace span + drain).
    pub collection_secs: f64,
    /// High-water mark of the user-space feed backlog.
    pub peak_backlog: usize,
    /// Statistics from the incremental distillation.
    pub distill: DistillStats,
}

/// Benchmark result, pipeline diagnostics and fault ledger from a live
/// run.
#[derive(Debug, Clone)]
pub struct LiveModOutcome {
    /// The benchmark outcome on the modulated Ethernet.
    pub result: RunResult,
    /// Streaming-pipeline diagnostics.
    pub stats: LiveModStats,
    /// Observability manifest: deterministic metrics from every
    /// pipeline stage (including the `fault.*` block, all zero under
    /// the empty plan) and the modulation fidelity self-check. It reads
    /// no wall clock, so its `runner` section stays empty.
    pub manifest: RunManifest,
    /// Causal flight recorder holding per-packet lifecycle events from
    /// every pipeline stage; export with
    /// [`to_chrome_trace`](obs::flight::FlightHandle::to_chrome_trace)
    /// or query with [`obs::flight::FlightRecorder::journey`].
    pub flight: FlightHandle,
    /// Every fault injected, in virtual-time order (empty under the
    /// empty plan).
    pub faults: Vec<FaultEvent>,
    /// Final injection and degradation tallies; `injected_total()`
    /// always equals `faults.len()`.
    pub counters: FaultCounters,
}

/// **Live modulated run**: collection, distillation, and modulation
/// running *concurrently* — the streaming pipeline end to end — under
/// the fault plan `plan`, faults seeded from `seed`. The empty plan is
/// the clean run.
///
/// The collection testbed is built exactly like [`collect_trace`]
/// (same seed purposes, same apps), but instead of waiting for the
/// full trace, records are stolen from the collection daemon between
/// lockstep slices and pushed through a [`FaultInjector`] (encode →
/// byte faults → quarantine-decode → sanitize) into an incremental
/// [`Distiller`] whose tuples flow — via a [`ChaosSink`], a
/// [`TupleFeed`] and the bounded kernel [`TupleBuffer`] — straight into
/// a [`Modulator`] shimmed under the benchmark on the modulation
/// Ethernet. The two simulations advance in 500 ms lockstep, so the
/// benchmark experiences network quality distilled moments earlier.
///
/// Every fault is keyed off virtual time or record indices, so a
/// faulted run is exactly as reproducible as a clean one. `cell_index`
/// is this run's position in its trial plan (0 when run standalone):
/// `kill_worker(idx, ..)` plan entries target plan cells, not pool
/// workers, so the same plan produces the same kills at any worker
/// count. A kill is noted, stamped with the virtual time of the first
/// slice after which the victim has processed `at_record` records, and
/// the cell runs on: cells are pure functions of their plan entry, so
/// a restart would replay the same run, and the outcome is bitwise
/// identical to an uninterrupted one except for the `worker_kills`
/// tally and its fault event.
#[allow(clippy::too_many_arguments)] // one parameter per pipeline input; a config struct would be pure ceremony
pub fn live_modulated_run(
    scenario: &Scenario,
    trial: u32,
    benchmark: Benchmark,
    dcfg: &DistillConfig,
    cfg: &RunConfig,
    seed: u64,
    plan: &FaultPlan,
    cell_index: usize,
) -> LiveModOutcome {
    let span_ns = (scenario.duration.as_secs_f64() * 1e9) as u64;
    let mut injector = FaultInjector::new(seed, plan, span_ns);
    // Collection side — `collect_trace`'s testbed, plus a flight
    // recorder threaded through every stage. Recording is passive (no
    // scheduling or RNG access), so the benchmark outcome and
    // manifests are bit-identical with or without it.
    let flight = FlightHandle::new(65_536);
    let (mut channel, signal) = collection_channel(scenario, trial);
    channel.set_flight(flight.clone());
    let dev = PseudoDevice::new(injector.oom_ring_cap().unwrap_or(65_536));
    injector.note_oom_ring();
    let scenario_secs = scenario.duration.as_secs_f64() as u64;
    let (mut wl, daemon) = build_wireless(
        seed_for(scenario.name, trial, 2),
        cfg.hw,
        channel,
        |laptop, _server| {
            install_collection(
                laptop,
                &dev,
                Some(signal),
                Some(flight.clone()),
                scenario_secs,
                (scenario.name, trial),
            )
        },
    );

    // Modulation side — the modulator reads the same kernel buffer the
    // feed writes into; no replay file in between.
    let buf = TupleBuffer::new(64);
    let mut feed = TupleFeed::new(buf.clone());
    let mut modulator = Modulator::from_buffer(buf.clone())
        .with_clock(cfg.clock)
        .with_flight(flight.clone());
    if let Some(vb) = cfg.compensation {
        modulator = modulator.with_compensation(vb);
    }
    let (mut eth, inst) = build_ethernet(
        seed_for(scenario.name, trial, 9),
        cfg.hw,
        |laptop, server| {
            laptop.set_shim(Box::new(modulator));
            install(benchmark, laptop, server)
        },
    );
    wl.sim
        .set_frame_hook(Box::new(FlightFrameHook::new(flight.clone(), "wl")));
    eth.sim
        .set_frame_hook(Box::new(FlightFrameHook::new(flight.clone(), "eth")));

    let mut distiller = Some(Distiller::new(dcfg).with_flight(flight.clone()));
    let collect_end = SimTime::from_secs(scenario_secs + 5);
    let deadline = SimTime::ZERO + benchmark.deadline();
    let slice = SimDuration::from_millis(500);

    wl.start();
    eth.start();

    let mut now = SimTime::ZERO;
    let mut first_consumption_secs = None;
    let mut records_processed: u64 = 0;
    let mut finished_stats: Option<DistillStats> = None;
    loop {
        now = (now + slice).min(deadline);
        injector.set_now(now.as_nanos());

        // Advance collection (while it lasts) and stream the fresh
        // records through the distiller into the feed.
        if let Some(d) = distiller.as_mut() {
            let wl_now = now.min(collect_end);
            wl.sim.run_until(wl_now);
            let host: &mut netstack::Host = wl.sim.node_mut(wl.laptop);
            let app = host.app_mut::<CollectionDaemon>(daemon);
            let fresh = if wl_now >= collect_end {
                app.finish(wl_now.as_nanos()).records
            } else {
                std::mem::take(&mut app.trace.records)
            };
            records_processed += fresh.len() as u64;
            // Records detour through the injector's encode→corrupt→
            // decode→quarantine chain (a plan without record faults
            // hands them through), and tuples through the dropping sink.
            let survivors = injector.process_records(fresh);
            let mut sink = ChaosSink::new(&mut feed, &mut injector);
            for rec in &survivors {
                d.push_record(rec, &mut sink);
            }
            if wl_now >= collect_end {
                if let Some(d) = distiller.take() {
                    finished_stats = Some(finish_distiller(d, &mut feed, &mut injector));
                    // Collection is over: an empty buffer from here on
                    // means end-of-trace, not starvation.
                    feed.close();
                }
            }
        }
        // A worker kill lands on the slice whose records cross its mark.
        if injector
            .kill_mark(cell_index)
            .is_some_and(|at| records_processed >= at)
        {
            injector.note_kill(now.as_nanos());
        }
        feed.set_paused(injector.stall_feed_active());
        feed.pump();

        // Advance the modulated benchmark over the same span.
        eth.sim.run_until(now);
        let consumed = feed.fed() - feed.backlog() as u64 - buf.len() as u64;
        if consumed > 0 && first_consumption_secs.is_none() {
            first_consumption_secs = Some(now.as_secs_f64());
        }
        if is_done(&eth, &inst) || now >= deadline {
            break;
        }
    }

    // The benchmark may finish before collection does; flush the
    // distiller so its stats cover everything pushed so far.
    let distill = finished_stats
        .or_else(|| {
            distiller.take().map(|d| {
                let stats = finish_distiller(d, &mut feed, &mut injector);
                // Close the buffer directly (no pump): nothing consumes
                // after the loop, and pumping here would perturb the
                // buffer counters relative to the established baseline.
                buf.close();
                stats
            })
        })
        .unwrap_or_default();
    let tuples_fed = feed.fed();
    let tuples_consumed = tuples_fed - feed.backlog() as u64 - buf.len() as u64;

    // Assemble the run manifest. Everything in it derives from
    // virtual-time simulation state only.
    let mut manifest = RunManifest::new(scenario.name, benchmark.name(), trial);
    let (family, params) = scenario.model_info();
    manifest.set_model(&family, &params);
    let mut m = MetricsRegistry::new();
    m.set_counter("netsim.collect.events", wl.sim.events_processed());
    m.set_counter(
        "netsim.collect.peak_queue_depth",
        wl.sim.peak_queue_depth() as u64,
    );
    m.set_counter("netsim.modulate.events", eth.sim.events_processed());
    m.set_counter(
        "netsim.modulate.peak_queue_depth",
        eth.sim.peak_queue_depth() as u64,
    );
    if let Some(ch) = wl.channel {
        let cs = wl.sim.node::<WirelessChannel>(ch).stats();
        m.set_counter("wavelan.up_frames", cs.up_frames);
        m.set_counter("wavelan.down_frames", cs.down_frames);
        m.set_counter("wavelan.dropped", cs.dropped);
        m.set_counter("wavelan.cross_frames", cs.cross_frames);
        m.set_counter("wavelan.rate_changes", cs.rate_changes);
        m.set_counter("wavelan.handoffs", cs.handoffs);
    }
    m.set_counter("distill.solved", distill.solved as u64);
    m.set_counter("distill.corrected", distill.corrected as u64);
    m.set_counter("distill.triplets", distill.triplets as u64);
    m.set_counter("distill.probes_sent", distill.probes_sent as u64);
    m.set_counter("distill.replies_seen", distill.replies_seen as u64);
    m.set_counter("distill.tuples", distill.tuples as u64);
    m.set_counter("distill.late_records", distill.late_records as u64);
    m.set_counter("distill.groups_retired", distill.groups_retired as u64);
    m.set_gauge("distill.peak_open_groups", distill.peak_open_groups as f64);
    m.set_gauge(
        "distill.peak_window_entries",
        distill.peak_window_entries as f64,
    );
    {
        let modulator: &Modulator = eth.laptop_host().shim();
        let ms = modulator.stats();
        m.set_counter("modulate.offered", ms.offered);
        m.set_counter("modulate.immediate", ms.immediate);
        m.set_counter("modulate.held", ms.held);
        m.set_counter("modulate.dropped", ms.dropped);
        m.set_counter("modulate.unmodulated", ms.unmodulated);
        m.set_gauge("modulate.held_now", modulator.held_count() as f64);
        m.set_counter("modulate.sched.pushes", ms.held);
        m.set_gauge("modulate.sched.peak_held", modulator.peak_held() as f64);
        manifest.fidelity = modulator.fidelity();
    }
    m.set_counter("modulate.buffer_written", buf.total_written());
    m.set_counter("modulate.buffer_popped", buf.total_popped());
    m.set_counter("modulate.buffer_rejected", buf.rejected());
    m.set_gauge("modulate.buffer_capacity", buf.capacity() as f64);
    m.set_gauge(
        "modulate.buffer_peak_occupancy",
        buf.peak_occupancy() as f64,
    );
    m.set_counter("modulate.feed_fed", tuples_fed);
    m.set_gauge("modulate.feed_peak_backlog", feed.peak_backlog() as f64);
    flight.with(|r| {
        m.set_counter("obs.flight.recorded", r.pushed());
        m.set_counter("obs.flight.evicted", r.evicted());
        m.set_counter("obs.flight.packets", r.packets());
    });
    m.set_counter("emu.records_processed", records_processed);
    m.set_gauge(
        "emu.collection_virtual_secs",
        collect_end.min(now).as_secs_f64(),
    );
    // Injected-fault tallies (one counter per fault kind) plus the
    // degradation side-channels; all zero under the empty plan.
    let counters = *injector.counters();
    m.set_counter("fault.injected_total", counters.injected_total());
    for (name, v) in counters.entries() {
        m.set_counter(format!("fault.{name}"), v);
    }
    manifest.metrics = m;

    LiveModOutcome {
        result: extract(&eth, &inst),
        stats: LiveModStats {
            tuples_fed,
            tuples_consumed,
            first_consumption_secs,
            collection_secs: collect_end.min(now).as_secs_f64(),
            peak_backlog: feed.peak_backlog(),
            distill,
        },
        manifest,
        flight,
        faults: injector.into_events(),
        counters,
    }
}

/// Declare the record stream over and flush the distiller through the
/// dropping sink.
fn finish_distiller(
    d: Distiller,
    feed: &mut TupleFeed,
    injector: &mut FaultInjector,
) -> DistillStats {
    injector.finish_records();
    d.finish(&mut ChaosSink::new(feed, injector))
}

/// **Asymmetric modulated run** (the §6 extension): per-direction
/// replay traces drive outbound and inbound traffic independently; no
/// symmetry assumption, no compensation.
pub fn modulated_run_asymmetric(
    up: &tracekit::ReplayTrace,
    down: &tracekit::ReplayTrace,
    trial: u32,
    benchmark: Benchmark,
    cfg: &RunConfig,
) -> RunResult {
    let modulator = Modulator::from_asymmetric(up.clone(), down.clone()).with_clock(cfg.clock);
    let (mut tb, inst) =
        build_ethernet(seed_for(&up.source, trial, 8), cfg.hw, |laptop, server| {
            laptop.set_shim(Box::new(modulator));
            install(benchmark, laptop, server)
        });
    run_to_completion(&mut tb, &inst)
}

/// **Ethernet baseline**: the benchmark on the bare modulation testbed
/// (the tables' final rows).
pub fn ethernet_run(trial: u32, benchmark: Benchmark, cfg: &RunConfig) -> RunResult {
    let (mut tb, inst) =
        build_ethernet(seed_for("ethernet", trial, 6), cfg.hw, |laptop, server| {
            install(benchmark, laptop, server)
        });
    run_to_completion(&mut tb, &inst)
}

/// **Compensation measurement** (§3.3): run the ping workload + tracer
/// over the bare modulation Ethernet, distill, and return the long-term
/// mean bottleneck per-byte cost (ns/byte). Independent of any traced
/// network; needs to be done only once per testbed.
pub fn measure_compensation(cfg: &RunConfig) -> f64 {
    let dev = PseudoDevice::new(65_536);
    let (mut tb, daemon) = build_ethernet(seed_for("comp", 0, 7), cfg.hw, |laptop, _server| {
        install_collection(laptop, &dev, None, None, 60, ("ethernet", 0))
    });
    tb.start();
    tb.sim.run_until(SimTime::from_secs(66));
    let trace = finish_collection(&mut tb.sim, tb.laptop, daemon);
    let report = distill_with_report(&trace, &DistillConfig::default());
    modulate::compensation_from_replay(&report.replay)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collection_produces_probe_records_and_signal_samples() {
        let mut sc = Scenario::porter();
        sc.duration = SimDuration::from_secs(30);
        let trace = collect_trace(&sc, 1, &RunConfig::default());
        assert_eq!(trace.scenario, "porter");
        let echoes = trace
            .packets()
            .filter(|p| matches!(p.proto, tracekit::ProtoInfo::IcmpEcho { .. }))
            .count();
        assert!((28..=92).contains(&echoes), "echo records: {echoes}");
        let dev = trace.device_samples().count();
        assert!(dev > 100, "device samples: {dev}");
        // Signal levels must reflect the scenario (nonzero most of run).
        let nonzero = trace.device_samples().filter(|d| d.signal > 0).count();
        assert!(nonzero > dev / 2);
    }

    #[test]
    fn distilled_parameters_near_channel_ground_truth() {
        // A constant-conditions scenario distills back to its own
        // parameters — the end-to-end version of the solver test.
        let mut sc = Scenario::chatterbox();
        sc.cross = None; // no contention: clean recovery check
        sc.duration = SimDuration::from_secs(60);
        sc.checkpoints = vec![
            wavelan::Checkpoint {
                label: "c",
                signal: (18.0, 18.0),
                latency_ms: (3.0, 3.0),
                bw_kbps: (1500.0, 1500.0),
                loss: (0.0, 0.0),
            };
            2
        ];
        let report = collect_and_distill(&sc, 1, &RunConfig::default());
        assert!(
            report.stats.triplets >= 50,
            "triplets {}",
            report.stats.triplets
        );
        let replay = &report.replay;
        assert!(replay.is_valid());
        // One-way latency ≈ 3 ms (+ MAC overhead ~0.3 ms + queueing).
        let lat_ms = replay.mean_latency().as_millis_f64();
        assert!((2.5..6.5).contains(&lat_ms), "latency {lat_ms} ms");
        // Bottleneck bandwidth ≈ 1.5 Mb/s → Vb ≈ 5333 ns/B (±40%).
        let vb = replay.mean_vb();
        assert!((3200.0..7500.0).contains(&vb), "vb {vb}");
        assert!(replay.mean_loss() < 0.05, "loss {}", replay.mean_loss());
    }

    #[test]
    fn compensation_near_ethernet_per_byte_cost() {
        let vb = measure_compensation(&RunConfig::default());
        // 10 Mb/s Ethernet → 800 ns/B; host CPU pacing adds apparent
        // per-byte cost, so accept a broad band around it.
        assert!((400.0..2500.0).contains(&vb), "vb {vb}");
    }
}
