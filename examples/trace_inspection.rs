//! Trace inspection: collect a trace of the Porter scenario, save it,
//! reload it, distill it, and print a checkpoint-by-checkpoint report — the debugging/analysis workflow the
//! paper's conclusion envisions ("analyses of traces can offer broad
//! design insights").
//!
//! Run with: `cargo run --release --example trace_inspection`

use distill::{distill_with_report, DistillConfig};
use emu::{collect_trace, RunConfig};
use netsim::stats::Series;
use netsim::SimTime;
use tracekit::io::{read_trace, write_replay, write_trace};
use wavelan::Scenario;

fn main() -> std::io::Result<()> {
    let scenario = Scenario::porter();
    println!(
        "collecting one Porter trial ({:.0}s traversal)...",
        scenario.duration.as_secs_f64()
    );
    let trace = collect_trace(&scenario, 1, &RunConfig::default());

    // Save + reload round trip (`tracemod inspect --records N` prints
    // the saved file's records).
    let dir = std::env::temp_dir().join("trace-modulation-example");
    std::fs::create_dir_all(&dir)?;
    let bin_path = dir.join("porter-1.mntr");
    write_trace(&bin_path, &trace)?;
    let reloaded = read_trace(&bin_path)?;
    assert_eq!(reloaded, trace);
    println!(
        "wrote {} ({} bytes)",
        bin_path.display(),
        std::fs::metadata(&bin_path)?.len()
    );

    // Basic trace statistics.
    println!(
        "\ntrace: {} records over {:.0} s ({} packets, {} device samples, {} lost to overrun)",
        trace.records.len(),
        trace.span_ns() as f64 / 1e9,
        trace.packets().count(),
        trace.device_samples().count(),
        trace.lost_records()
    );

    // Distill and save the replay trace.
    let report = distill_with_report(&trace, &DistillConfig::default());
    let replay_path = dir.join("porter-1.mnrp");
    write_replay(&replay_path, &report.replay)?;
    println!(
        "distilled {} tuples → {} ({} triplets: {} solved, {} corrected)",
        report.replay.tuples.len(),
        replay_path.display(),
        report.stats.triplets,
        report.stats.solved,
        report.stats.corrected
    );

    // Per-checkpoint summary (the shape of Figure 2).
    let labels = scenario.labels();
    let mut sig = Series::new();
    for d in trace.device_samples() {
        sig.push(SimTime::from_nanos(d.timestamp_ns), d.signal as f64);
    }
    let mut lat = Series::new();
    let mut t = 0u64;
    for q in &report.replay.tuples {
        lat.push(SimTime::from_nanos(t), q.latency_ns as f64 / 1e6);
        t += q.duration_ns;
    }
    println!(
        "\n{:>4}  {:>16}  {:>18}",
        "ckpt", "signal (min..max)", "latency ms (min..max)"
    );
    let sig_b = sig.normalized_buckets(labels.len());
    let lat_b = lat.normalized_buckets(labels.len());
    for ((label, s), l) in labels.iter().zip(&sig_b).zip(&lat_b) {
        println!(
            "{label:>4}  {:>7.1}..{:<7.1}  {:>8.2}..{:<8.2}",
            s.min(),
            s.max(),
            l.min(),
            l.max()
        );
    }
    Ok(())
}
