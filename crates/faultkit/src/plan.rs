//! The fault plan: a declarative list of faults to inject, written as
//! `[[fault]]` tables in the TOML subset of [`obs::toml`].

use obs::toml;

/// One fault to inject, keyed off virtual time, record indices, or byte
/// offsets (never wall clock) so replay is bitwise-reproducible.
#[derive(Debug, Clone, PartialEq)]
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
    /// `at_record` trace records (events, for a fleet shard). The kill
    /// is noted at its virtual time; the cell, a pure function of its
    /// plan entry, runs on as its restart would.
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
    /// Short stable name used in fault events and counters, and as the
    /// `kind` of a `[[fault]]` table.
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
/// A plan file is a list of `[[fault]]` tables, each with its `kind`
/// ([`Fault::name`]) and that kind's fields; an empty file is the
/// clean plan:
///
/// ```
/// use faultkit::{Fault, FaultPlan};
/// let plan = FaultPlan::from_toml(
///     "[[fault]]\nkind = \"corrupt_chunk\"\nat_byte = 4096\n\n\
///      [[fault]]\nkind = \"drop_tuples\"\nstart = 5\nend = 8\n",
/// );
/// let built = FaultPlan::from(vec![
///     Fault::CorruptChunk { at_byte: 4096 },
///     Fault::DropTuples { start: 5, end: 8 },
/// ]);
/// assert_eq!(plan, Ok(built));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The faults, in declaration order.
    faults: Vec<Fault>,
}

impl From<Vec<Fault>> for FaultPlan {
    fn from(faults: Vec<Fault>) -> Self {
        FaultPlan { faults }
    }
}

impl FaultPlan {
    /// An empty plan: injects nothing, so the live pipeline under it is
    /// the clean run.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Read a plan file (`tracemod chaos --plan`, `fleet --fault-plan`).
    /// Every error names its line.
    pub fn from_toml(doc: &str) -> Result<FaultPlan, String> {
        let mut faults = Vec::new();
        toml::read(doc, "fault plan", "fault", |t| {
            if t.index == 0 {
                return Ok(());
            }
            faults.push(match t.need("kind", toml::string)?.as_str() {
                "corrupt_chunk" => Fault::CorruptChunk {
                    at_byte: t.need("at_byte", toml::integer)?,
                },
                "truncate_trace" => Fault::TruncateTrace {
                    pct: t.need("pct", toml::number)?,
                },
                "drop_tuples" => Fault::DropTuples {
                    start: t.need("start", toml::integer)?,
                    end: t.need("end", toml::integer)?,
                },
                "stall_feed" => Fault::StallFeed {
                    virtual_ms: t.need("virtual_ms", toml::integer)?,
                },
                "clock_jump" => Fault::ClockJump {
                    delta_ms: t.need("delta_ms", toml::integer)?,
                },
                "kill_worker" => Fault::KillWorker {
                    idx: t.need("idx", toml::integer)?,
                    at_record: t.need("at_record", toml::integer)?,
                },
                "oom_ring" => Fault::OomRing {
                    cap: t.need("cap", toml::integer)?,
                },
                other => {
                    return Err(format!(
                        "unknown fault kind '{other}' (one of corrupt_chunk, truncate_trace, \
                         drop_tuples, stall_feed, clock_jump, kill_worker, oom_ring)"
                    ))
                }
            });
            Ok(())
        })?;
        Ok(FaultPlan { faults })
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind, once, in the plan-file form.
    const EVERY_KIND: &str = r#"
[[fault]]
kind = "corrupt_chunk"
at_byte = 18446744073709551615

[[fault]]
kind = "truncate_trace"
pct = 25.0

[[fault]]
end = 4     # keys come in any order
kind = "drop_tuples"
start = 2

[[fault]]
kind = "stall_feed"
virtual_ms = 9007199254740993

[[fault]]
kind = "clock_jump"
delta_ms = -250

[[fault]]
kind = "kill_worker"
idx = 3
at_record = 42

[[fault]]
kind = "oom_ring"
cap = 512
"#;

    #[test]
    fn every_kind_reads_in_order_and_exactly() {
        let plan = FaultPlan::from_toml(EVERY_KIND).unwrap();
        assert_eq!(
            plan.faults(),
            &[
                Fault::CorruptChunk { at_byte: u64::MAX },
                Fault::TruncateTrace { pct: 25.0 },
                Fault::DropTuples { start: 2, end: 4 },
                Fault::StallFeed {
                    virtual_ms: 9_007_199_254_740_993
                },
                Fault::ClockJump { delta_ms: -250 },
                Fault::KillWorker {
                    idx: 3,
                    at_record: 42
                },
                Fault::OomRing { cap: 512 },
            ]
        );
        assert_eq!(FaultPlan::from_toml("# nothing\n"), Ok(FaultPlan::new()));
    }

    #[test]
    fn bad_plans_are_refused_with_their_line() {
        let cases = [
            ("at_byte = 1\n", "line 1: unknown top-level key 'at_byte'"),
            (
                "[[fault]]\nat_byte = 1\n",
                "line 1: [[fault]] 1 has no 'kind'",
            ),
            (
                "[[fault]]\nkind = \"nope\"\n",
                "line 2: unknown fault kind 'nope' (one of corrupt_chunk,",
            ),
            (
                "[[fault]]\nkind = \"oom_ring\"\n\n[[fault]]\n",
                "line 1: [[fault]] 1 has no 'cap'",
            ),
            (
                "[[fault]]\nkind = \"drop_tuples\"\nstart = 1\n",
                "line 1: [[fault]] 1 has no 'end'",
            ),
            (
                "[[fault]]\nkind = \"oom_ring\"\ncap = 1\ncap = 2\n",
                "line 4: duplicate key 'cap'",
            ),
            (
                "[[fault]]\nkind = \"oom_ring\"\ncap = 1\nkind = \"oom_ring\"\n",
                "line 4: duplicate key 'kind'",
            ),
            (
                "[[fault]]\nkind = \"oom_ring\"\ncap = 1\nat_byte = 1\n",
                "line 4: unknown [[fault]] key 'at_byte'",
            ),
            (
                "[[fault]]\nkind = \"corrupt_chunk\"\nat_byte = 4096.0\n",
                "line 3: expected an integer for 'at_byte'",
            ),
            (
                "[[fault]]\nkind = \"corrupt_chunk\"\nat_byte = -1\n",
                "line 3: 'at_byte' -1 is out of range",
            ),
            (
                "[[fault]]\nkind = \"clock_jump\"\ndelta_ms = 1e3\n",
                "line 3: expected an integer for 'delta_ms'",
            ),
            (
                "[[fault]]\nkind = \"truncate_trace\"\npct = nan\n",
                "line 3: expected a finite number for 'pct'",
            ),
            (
                "{\"faults\":[]}",
                "line 1: expected a TOML `key = value` line or a [[fault]] table",
            ),
        ];
        for (text, needle) in cases {
            let err = FaultPlan::from_toml(text).expect_err(text);
            assert!(
                err.starts_with(&format!("fault plan {needle}")),
                "{text}: {err}"
            );
        }
    }
}
