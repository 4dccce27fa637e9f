//! Delay compensation (§3.3 "Delay Compensation", Figure 1).
//!
//! Because the unified delay queue sits at an endpoint, inbound traffic
//! additionally pays the modulating (physical) network's own bottleneck
//! cost, making inbound throughput lower than outbound under identical
//! parameters. The fix: measure the modulating network once with the
//! same ping/distill tools, take the long-term average of its bottleneck
//! per-byte cost `Vb`, and subtract that from the replay trace's `Vb`
//! for inbound packets.
//!
//! The measurement is *independent of the network being emulated* — it
//! characterizes only the wired testbed, so it need be done only once.

use tracekit::ReplayTrace;

/// Extract the compensation term (mean `Vb`, ns/byte) from a replay
/// trace measured on the modulating network.
pub fn compensation_from_replay(measured: &ReplayTrace) -> f64 {
    measured.mean_vb()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimDuration;

    #[test]
    fn compensation_is_mean_vb() {
        let r = ReplayTrace::constant(
            "ethernet measurement",
            SimDuration::from_secs(60),
            SimDuration::from_micros(100),
            812.0,
            10.0,
            0.0,
        );
        assert!((compensation_from_replay(&r) - 812.0).abs() < 1e-9);
    }
}
