//! Criterion benchmark for the fleet engine: 10 000 mobile clients
//! under one process.
//!
//! The entry prices the whole per-client pipeline — channel-model
//! synthesis, per-client modulation through two-FIFO hold queues,
//! the shared station/core hops, and manifest assembly — at the
//! headline client count. The one shard plays its clients one at a
//! time, each client's whole timeline on an event core of its own, so
//! the entry also guards that order: `BENCH_baseline.json` gives both
//! entries a 2.0 tolerance, which a return to one core interleaving
//! every client (~2.5× slower) fails. The walk is shortened to 10
//! virtual seconds so one iteration stays well under a second of wall
//! time; the client count, not the walk length, is what the entry
//! guards (the engine's cost is linear in events, and events scale
//! with clients × duration).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use emu::{fleet_run, Exec, FleetPlan};
use netsim::SimDuration;
use obs::TelemetryConfig;
use wavelan::Scenario;

fn base_plan(clients: u32) -> FleetPlan {
    FleetPlan::new(Scenario::porter(), clients)
        .with_duration(SimDuration::from_secs(10))
        .with_probe_interval(SimDuration::from_millis(500))
}

fn bench_fleet(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet");
    let clients = 10_000u32;
    g.sample_size(10);
    g.throughput(Throughput::Elements(u64::from(clients)));
    g.bench_function("fleet_10k", |b| {
        let plan = base_plan(clients);
        b.iter(|| {
            let out = fleet_run(&plan, &Exec::serial());
            assert_eq!(out.manifests.len(), clients as usize);
            assert!(out.report.released_packets > 0);
            out.report.released_packets
        });
    });
    // The telemetry-plane twin of `fleet_10k`: identical plan plus
    // virtual-time sampling at the default 1 s interval. The overhead
    // gate in perf CI holds this entry within 5% of the plain run
    // (same-run comparison, so machine noise cancels out).
    g.bench_function("fleet_10k_telemetry", |b| {
        let plan = base_plan(clients).with_telemetry(TelemetryConfig::default());
        b.iter(|| {
            let out = fleet_run(&plan, &Exec::serial());
            let tel = out.report.telemetry.as_ref().expect("telemetry on");
            assert!(!tel.series.is_empty());
            out.report.released_packets
        });
    });
    g.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
