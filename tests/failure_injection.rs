//! Failure-injection tests: the methodology must degrade gracefully when
//! its own machinery is starved (kernel buffer overrun) and when the
//! network disappears entirely mid-run.

use distill::{distill_with_report, DistillConfig};
use emu::{build_wireless, Hardware, SERVER_IP};
use netsim::{SimDuration, SimRng, SimTime};
use tracekit::{CollectionDaemon, Collector, PseudoDevice, TraceRecord};
use wavelan::{Checkpoint, Scenario};
use workloads::{PingConfig, PingWorkload};

fn steady(secs: u64) -> Scenario {
    let mut sc = Scenario::chatterbox();
    sc.cross = None;
    sc.duration = SimDuration::from_secs(secs);
    sc.checkpoints = vec![
        Checkpoint {
            label: "c",
            signal: (18.0, 18.0),
            latency_ms: (3.0, 3.0),
            bw_kbps: (1400.0, 1400.0),
            loss: (0.0, 0.0),
        };
        2
    ];
    sc
}

/// Collection with a pathologically small kernel buffer and a slow drain
/// daemon: records are lost, the overrun is *accounted*, and distillation
/// still produces a usable replay trace from what survived.
#[test]
fn tiny_kernel_buffer_overruns_are_accounted_and_survivable() {
    let sc = steady(60);
    let mut trial_rng = SimRng::seed_from_u64(3);
    let channel = sc.channel(&mut trial_rng);
    let meter = channel.meter();
    let dev = PseudoDevice::new(12); // absurdly small ring
    let (mut tb, daemon) = build_wireless(9, Hardware::default(), channel, |laptop, _server| {
        let collector = Collector::new(dev.clone())
            .with_signal_source(Box::new(move || meter.lock().quantized()));
        laptop.set_tracer(Box::new(collector));
        let mut cfg = PingConfig::paper(SERVER_IP);
        cfg.duration = SimDuration::from_secs(60);
        laptop.add_app(Box::new(PingWorkload::new(cfg)));
        let mut d = CollectionDaemon::new(dev.clone(), "thinkpad", "starved", 1);
        d.interval = SimDuration::from_secs(2); // drains far too rarely
        d.batch = 8;
        laptop.add_app(Box::new(d))
    });
    tb.start();
    tb.sim.run_until(SimTime::from_secs(66));
    let now_ns = tb.sim.now().as_nanos();
    let trace = {
        let host: &mut netstack::Host = tb.sim.node_mut(tb.laptop);
        host.app_mut::<CollectionDaemon>(daemon).finish(now_ns)
    };

    // The overrun is explicit in the trace, per §3.1.2.
    let lost = trace.lost_records();
    assert!(lost > 50, "expected heavy record loss, got {lost}");
    assert!(trace
        .records
        .iter()
        .any(|r| matches!(r, TraceRecord::Overrun(_))));

    // Distillation still works with the surviving records.
    let report = distill_with_report(&trace, &DistillConfig::default());
    assert!(
        report.replay.is_valid(),
        "distillation failed on an overrun trace"
    );
    // Note: missing *reply* records look like losses to the estimator —
    // an honest artifact of buffer overrun that the paper's explicit
    // accounting lets an experimenter detect and discard.
}

/// The NFS RPC layer must ride out a total server outage: requests
/// retransmit with backoff and complete once the server returns.
#[test]
fn rpc_survives_server_outage() {
    use netsim::{Context, EventKind, Node, PortId, Simulator};
    use netstack::{start_host, Host, HostConfig, NIC_PORT};
    use packet::MacAddr;
    use std::net::Ipv4Addr;
    use workloads::{AndrewBenchmark, AndrewConfig, NfsServer};

    /// A relay that black-holes everything inside a time window.
    struct OutageRelay {
        from: SimTime,
        until: SimTime,
    }
    impl Node for OutageRelay {
        fn on_event(&mut self, ev: EventKind, ctx: &mut Context<'_>) {
            if let EventKind::Deliver { port, frame } = ev {
                let now = ctx.now();
                if now >= self.from && now < self.until {
                    return; // outage: drop silently
                }
                ctx.send(PortId(1 - port.0), frame);
            }
        }
    }

    let ip_c = Ipv4Addr::new(10, 0, 0, 1);
    let ip_s = Ipv4Addr::new(10, 0, 0, 2);
    let mut ch = Host::new(
        HostConfig::new("client", ip_c, MacAddr::local(1)).with_arp(ip_s, MacAddr::local(2)),
    );
    let cfg = AndrewConfig {
        dirs: 4,
        files: 8,
        compute: [0.1, 0.3, 0.1, 0.2, 0.5],
        ..AndrewConfig::default()
    };
    let app = ch.add_app(Box::new(AndrewBenchmark::new(ip_s, cfg)));
    let mut sh = Host::new(
        HostConfig::new("nfs", ip_s, MacAddr::local(2)).with_arp(ip_c, MacAddr::local(1)),
    );
    sh.add_app(Box::new(NfsServer::new()));

    let mut sim = Simulator::new(17);
    let nc = sim.add_node(Box::new(ch));
    let ns = sim.add_node(Box::new(sh));
    let relay = sim.add_node(Box::new(OutageRelay {
        from: SimTime::from_secs(1),
        until: SimTime::from_secs(9),
    }));
    let link = netsim::LinkParams::ethernet_10mbps();
    sim.connect_sym(nc, NIC_PORT, relay, PortId(0), link);
    sim.connect_sym(ns, NIC_PORT, relay, PortId(1), link);
    start_host(&mut sim, ns, SimTime::ZERO);
    start_host(&mut sim, nc, SimTime::from_millis(5));
    sim.run_until(SimTime::from_secs(120));

    let b: &AndrewBenchmark = sim.node::<Host>(nc).app(app);
    assert!(b.finished, "benchmark wedged across the outage");
    let (calls, retrans) = b.rpc_stats();
    assert!(retrans > 0, "outage should force retransmissions");
    assert!(calls > 50);
    // Total time reflects the ~8 s outage plus backoff.
    let total = b.total.expect("finished").as_secs_f64();
    assert!(total > 8.0, "outage not felt: {total}");
    assert!(total < 60.0, "recovery took too long: {total}");
}

/// The committed fault plans under `packs/faults/` (the chaos soak's
/// rotation) all parse, and together they hold a clean control, every
/// fault kind alone, and one plan combining several kinds.
#[test]
fn committed_fault_plans_cover_every_fault_alone_and_combined() {
    use faultkit::{Fault, FaultPlan};
    // Exhaustive on purpose: a new fault kind must get a plan of its own.
    fn kind(f: &Fault) -> usize {
        match f {
            Fault::CorruptChunk { .. } => 0,
            Fault::TruncateTrace { .. } => 1,
            Fault::DropTuples { .. } => 2,
            Fault::StallFeed { .. } => 3,
            Fault::ClockJump { .. } => 4,
            Fault::KillWorker { .. } => 5,
            Fault::OomRing { .. } => 6,
        }
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/packs/faults");
    let mut clean = 0;
    let mut alone = [0; 7];
    let mut combined = 0;
    for entry in std::fs::read_dir(dir).expect("packs/faults exists") {
        // Every file there is a TOML plan: a stray file fails here
        // instead of being skipped.
        let path = entry.unwrap().path();
        assert_eq!(
            path.extension(),
            Some("toml".as_ref()),
            "{}",
            path.display()
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let plan =
            FaultPlan::from_toml(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut kinds: Vec<usize> = plan.faults().iter().map(kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        match kinds[..] {
            [] => clean += 1,
            [k] => alone[k] += 1,
            _ => combined += 1,
        }
    }
    assert!(clean > 0, "no clean control plan");
    assert!(
        alone.iter().all(|&n| n > 0),
        "plans per fault kind: {alone:?}"
    );
    assert!(combined > 0, "no combined plan");
}
