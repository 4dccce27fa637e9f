//! Quickstart: the whole trace-modulation methodology in one page.
//!
//! 1. Collect a trace of the Wean scenario (office → elevator →
//!    classroom) with the instrumented laptop running the ping workload.
//! 2. Distill it into a replay trace of ⟨d, F, Vb, Vr, L⟩ tuples.
//! 3. Replay it on an isolated Ethernet while running an unmodified FTP
//!    benchmark — and compare with the same benchmark run "live".
//!
//! Run with: `cargo run --release --example quickstart`

use emu::{collect_and_distill, live_run, modulated_run, Benchmark, RunConfig};
use wavelan::Scenario;

fn main() {
    let cfg = RunConfig::default();
    let scenario = Scenario::wean();

    println!("== 1. live run: FTP fetch over the real (simulated) WaveLAN ==");
    let live = live_run(&scenario, 1, Benchmark::FtpRecv, &cfg);
    println!("   live elapsed: {:.1} s", live.secs());

    println!("== 2. collection + distillation ==");
    let report = collect_and_distill(&scenario, 1, &cfg);
    println!(
        "   {} probe triplets ({} solved exactly, {} corrected) → {} quality tuples",
        report.stats.triplets,
        report.stats.solved,
        report.stats.corrected,
        report.replay.tuples.len()
    );
    println!(
        "   distilled means: latency {:.1} ms, bottleneck {:.0} kb/s, loss {:.1}%",
        report.replay.mean_latency().as_millis_f64(),
        8e6 / report.replay.mean_vb(),
        report.replay.mean_loss() * 100.0
    );

    println!("== 3. modulated run: same benchmark on an isolated Ethernet ==");
    let modulated = modulated_run(&report.replay, 1, Benchmark::FtpRecv, &cfg);
    println!("   modulated elapsed: {:.1} s", modulated.secs());

    let delta = 100.0 * (modulated.secs() - live.secs()) / live.secs();
    println!("\ntrace modulation reproduced the live run within {delta:+.1}%");
}
