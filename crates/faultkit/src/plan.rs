//! The fault-plan DSL: a declarative list of faults to inject.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One fault to inject, keyed off virtual time, record indices, or byte
/// offsets (never wall clock) so replay is bitwise-reproducible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// Flip one byte of the encoded record stream at cumulative offset
    /// `at_byte` (XOR with a seed-derived non-zero mask).
    CorruptChunk {
        /// Byte offset into the encoded record stream.
        at_byte: u64,
    },
    /// Drop the final `pct` percent of the collection span: records
    /// with timestamps past the cutoff never reach the decoder.
    TruncateTrace {
        /// Percentage of the trace tail to cut, clamped to `[0, 100]`.
        pct: f64,
    },
    /// Drop distilled tuples whose emission index falls in
    /// `[start, end)` before they reach the modulation feed.
    DropTuples {
        /// First emission index dropped.
        start: u64,
        /// One past the last emission index dropped.
        end: u64,
    },
    /// Suppress `TupleFeed::pump` until virtual time `virtual_ms`,
    /// starving the modulation buffer.
    StallFeed {
        /// Virtual time (ms from run start) the stall lasts until.
        virtual_ms: u64,
    },
    /// From a seed-derived record index onward, shift record timestamps
    /// by `delta_ms` (clamped to ±1 h; saturating arithmetic).
    ClockJump {
        /// Signed timestamp shift in milliseconds.
        delta_ms: i64,
    },
    /// Kill the worker executing plan-cell `idx` once it has processed
    /// `at_record` trace records; the plan runner restarts the cell
    /// from its plan entry.
    KillWorker {
        /// Plan-cell index targeted (stable across worker counts).
        idx: usize,
        /// Record count at which the kill fires.
        at_record: u64,
    },
    /// Shrink the collection pseudo-device ring to `cap` bytes,
    /// forcing overruns under load.
    OomRing {
        /// Ring capacity in bytes (floored to 64).
        cap: usize,
    },
}

impl Fault {
    /// Short stable name used in fault events and counters.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::CorruptChunk { .. } => "corrupt_chunk",
            Fault::TruncateTrace { .. } => "truncate_trace",
            Fault::DropTuples { .. } => "drop_tuples",
            Fault::StallFeed { .. } => "stall_feed",
            Fault::ClockJump { .. } => "clock_jump",
            Fault::KillWorker { .. } => "kill_worker",
            Fault::OomRing { .. } => "oom_ring",
        }
    }
}

/// A declarative fault-injection plan: the `(seed, plan)` pair fully
/// determines every injected fault.
///
/// Built fluently:
///
/// ```
/// use faultkit::FaultPlan;
/// let plan = FaultPlan::new()
///     .corrupt_chunk(4096)
///     .truncate_trace(10.0)
///     .drop_tuples(5..8)
///     .stall_feed(20_000)
///     .clock_jump(-1_500)
///     .kill_worker(0, 1_000)
///     .oom_ring(2_048);
/// assert_eq!(plan.len(), 7);
/// let json = plan.to_json();
/// assert_eq!(FaultPlan::from_json(&json).unwrap(), plan);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The faults, in declaration order.
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan: injects nothing, so the live pipeline under it is
    /// the clean run.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Flip one byte of the encoded record stream at offset `at_byte`.
    pub fn corrupt_chunk(mut self, at_byte: u64) -> Self {
        self.faults.push(Fault::CorruptChunk { at_byte });
        self
    }

    /// Cut the final `pct` percent of the collection span.
    pub fn truncate_trace(mut self, pct: f64) -> Self {
        self.faults.push(Fault::TruncateTrace { pct });
        self
    }

    /// Drop distilled tuples with emission index in `range`.
    pub fn drop_tuples(mut self, range: Range<u64>) -> Self {
        self.faults.push(Fault::DropTuples {
            start: range.start,
            end: range.end,
        });
        self
    }

    /// Starve the modulation feed until virtual time `virtual_ms`.
    pub fn stall_feed(mut self, virtual_ms: u64) -> Self {
        self.faults.push(Fault::StallFeed { virtual_ms });
        self
    }

    /// Shift record timestamps by `delta` milliseconds from a
    /// seed-derived record index onward.
    pub fn clock_jump(mut self, delta: i64) -> Self {
        self.faults.push(Fault::ClockJump { delta_ms: delta });
        self
    }

    /// Kill the worker running plan-cell `idx` after `at_record`
    /// processed records; the runner restarts the cell.
    pub fn kill_worker(mut self, idx: usize, at_record: u64) -> Self {
        self.faults.push(Fault::KillWorker { idx, at_record });
        self
    }

    /// Shrink the collection ring buffer to `cap` bytes.
    pub fn oom_ring(mut self, cap: usize) -> Self {
        self.faults.push(Fault::OomRing { cap });
        self
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults in declaration order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Serialize to the JSON form accepted by `tracemod chaos --plan`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fault plan serializes")
    }

    /// Parse a plan from JSON, rejecting malformed input with a
    /// human-readable message (surfaced as a usage error by the CLI).
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("bad fault plan: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_orders_faults() {
        let plan = FaultPlan::new().oom_ring(128).corrupt_chunk(7);
        assert_eq!(
            plan.faults(),
            &[
                Fault::OomRing { cap: 128 },
                Fault::CorruptChunk { at_byte: 7 }
            ]
        );
    }

    #[test]
    fn json_round_trip_covers_every_variant() {
        let plan = FaultPlan::new()
            .corrupt_chunk(11)
            .truncate_trace(25.0)
            .drop_tuples(2..4)
            .stall_feed(9_000)
            .clock_jump(-250)
            .kill_worker(3, 42)
            .oom_ring(512);
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).expect("round trip");
        assert_eq!(back, plan);
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        assert!(FaultPlan::from_json("{not json").is_err());
        assert!(FaultPlan::from_json("[]").is_err());
        assert!(FaultPlan::from_json(r#"{"faults":[{"Nope":{}}]}"#).is_err());
    }
}
