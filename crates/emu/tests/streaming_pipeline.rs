//! End-to-end streaming-pipeline validation on real collected traces:
//! the incremental path (chunked file stream → streaming distiller)
//! must be bitwise identical to the batch pipeline on every scenario,
//! and the live mode must demonstrably modulate while collection is
//! still running.

use distill::{distill_stream, distill_with_report, DistillConfig};
use emu::{collect_trace, live_modulated_run, Benchmark, RunConfig};
use faultkit::FaultPlan;
use netsim::SimDuration;
use tracekit::{ChunkedTraceWriter, QualityTuple, RecordStream, TraceFileStream, VecStream};
use wavelan::Scenario;

fn assert_tuples_bitwise_equal(a: &[QualityTuple], b: &[QualityTuple], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: tuple count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.duration_ns, y.duration_ns, "{what}: duration at {i}");
        assert_eq!(x.latency_ns, y.latency_ns, "{what}: latency at {i}");
        assert_eq!(
            x.vb_ns_per_byte.to_bits(),
            y.vb_ns_per_byte.to_bits(),
            "{what}: vb at {i}"
        );
        assert_eq!(
            x.vr_ns_per_byte.to_bits(),
            y.vr_ns_per_byte.to_bits(),
            "{what}: vr at {i}"
        );
        assert_eq!(x.loss.to_bits(), y.loss.to_bits(), "{what}: loss at {i}");
    }
}

/// All four paper scenarios (shortened): batch distillation vs the
/// streaming path — both in memory and through a chunked trace file —
/// must agree bitwise.
#[test]
fn streaming_distillation_matches_batch_on_all_scenarios() {
    let scenarios = [
        Scenario::porter(),
        Scenario::flagstaff(),
        Scenario::wean(),
        Scenario::chatterbox(),
    ];
    let cfg = RunConfig::default();
    let dcfg = DistillConfig::default();
    for mut sc in scenarios {
        sc.duration = SimDuration::from_secs(40);
        let name = sc.name;
        let trace = collect_trace(&sc, 1, &cfg);
        let batch = distill_with_report(&trace, &dcfg);
        assert!(
            !batch.replay.tuples.is_empty(),
            "{name}: batch produced no tuples"
        );

        // In-memory stream.
        let mut from_vec = Vec::new();
        let mut vs = VecStream::from_trace(trace.clone());
        distill_stream(&mut vs, &dcfg, &mut from_vec).unwrap();
        assert_tuples_bitwise_equal(&batch.replay.tuples, &from_vec, &format!("{name} (vec)"));

        // Through a chunked binary trace file, read back in small chunks.
        let path = std::env::temp_dir().join(format!(
            "emu-streaming-{}-{}.trace",
            std::process::id(),
            name
        ));
        let mut w = ChunkedTraceWriter::create(&path, &trace.host, name, trace.trial).unwrap();
        for r in &trace.records {
            w.push_record(r).unwrap();
        }
        let n = w.finish().unwrap();
        assert_eq!(n as usize, trace.records.len(), "{name}: record count");

        let mut from_file = Vec::new();
        let mut fs = TraceFileStream::open_chunked(&path, 4096).unwrap();
        distill_stream(&mut fs, &dcfg, &mut from_file).unwrap();
        std::fs::remove_file(&path).ok();
        assert_tuples_bitwise_equal(&batch.replay.tuples, &from_file, &format!("{name} (file)"));
    }
}

/// The chunked file stream replays the exact record sequence collected.
#[test]
fn collected_trace_survives_chunked_file_round_trip() {
    let mut sc = Scenario::porter();
    sc.duration = SimDuration::from_secs(30);
    let trace = collect_trace(&sc, 2, &RunConfig::default());

    let path = std::env::temp_dir().join(format!("emu-roundtrip-{}.trace", std::process::id()));
    let mut w =
        ChunkedTraceWriter::create(&path, &trace.host, &trace.scenario, trace.trial).unwrap();
    for r in &trace.records {
        w.push_record(r).unwrap();
    }
    w.finish().unwrap();

    let mut stream = TraceFileStream::open_chunked(&path, 512).unwrap();
    let mut back = Vec::new();
    while let Some(r) = stream.next_record().unwrap() {
        back.push(r);
    }
    std::fs::remove_file(&path).ok();
    assert_eq!(back, trace.records);
}

/// Live mode: with a small reorder horizon the distiller starts emitting
/// tuples a few seconds into collection, and the modulated benchmark
/// consumes them well before collection finishes — the pipeline runs
/// concurrently instead of phase-by-phase. Collection is kept longer
/// than the benchmark (the intended live usage — once the feed dries up,
/// the modulator stretches the final tuple indefinitely).
#[test]
fn live_run_modulates_before_collection_finishes() {
    let mut sc = Scenario::porter();
    sc.duration = SimDuration::from_secs(120);
    let dcfg = DistillConfig {
        reorder_horizon: 5,
        ..DistillConfig::default()
    };
    let out = live_modulated_run(
        &sc,
        1,
        Benchmark::FtpRecv,
        &dcfg,
        &RunConfig::default(),
        0,
        &FaultPlan::new(),
        0,
    );

    assert!(out.stats.tuples_fed > 0, "distiller fed no tuples");
    assert!(out.stats.tuples_consumed > 0, "modulator consumed nothing");
    let first = out
        .stats
        .first_consumption_secs
        .expect("modulator never consumed a tuple");
    assert!(
        first < out.stats.collection_secs,
        "first consumption at {first}s, but collection ran to {}s",
        out.stats.collection_secs
    );
    // The benchmark itself must complete (10 MB fetch under modulation),
    // and do so while collection is still running — full concurrency.
    let elapsed = out.result.elapsed.expect("benchmark hit its deadline");
    assert!(
        elapsed < out.stats.collection_secs,
        "fetch took {elapsed}s, collection only {}s",
        out.stats.collection_secs
    );
    // Incremental distillation stayed O(window): far fewer open groups
    // than the ~30 groups/30 s the trace contains overall.
    assert!(
        out.stats.distill.peak_open_groups <= usize::from(dcfg.reorder_horizon) + 2,
        "peak open groups {}",
        out.stats.distill.peak_open_groups
    );
}
