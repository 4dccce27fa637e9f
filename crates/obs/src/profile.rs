//! A scoped self-profiler for the fleet hot paths.
//!
//! The telemetry plane answers "what is the fleet doing"; this module
//! answers "where does the emulator's own time go" — span accumulation
//! over the netsim/modulate/distill hot paths with flamegraph-style
//! collapsed-stack output (`stack;frames count` lines, one per unique
//! stack, feedable straight into `flamegraph.pl` or speedscope).
//!
//! Spans nest: [`Profiler::enter`] pushes a frame, [`Profiler::exit`]
//! pops it and attributes the elapsed wall time to the frame's **self
//! time** (elapsed minus the time spent in child frames). Alongside
//! wall time each frame can accumulate *virtual* nanoseconds
//! ([`Profiler::add_virtual`]) so a scope can report how much simulated
//! time it advanced per wall second.
//!
//! Profiling reads the wall clock, so it is opt-in (`fleet --profile`,
//! written as `profile.txt`), carries no determinism promise, and is
//! **excluded** from all deterministic artifacts — the same rule the
//! manifest's `RunnerSection` follows. Per-shard profiles merge by
//! summation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Accumulated totals for one unique stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfEntry {
    /// Times the span was entered.
    pub calls: u64,
    /// Wall-clock self time (ns): elapsed minus child-span time.
    pub wall_ns: u64,
    /// Virtual nanoseconds attributed to the span.
    pub virtual_ns: u64,
}

/// A scoped wall-clock profiler with collapsed-stack output. Owned
/// single-threaded by one shard; merge shard profiles with
/// [`Profiler::merge`].
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    /// Current stack of span names.
    stack: Vec<&'static str>,
    /// Parallel to `stack`: (entry instant, accumulated child ns).
    open: Vec<(Instant, u64)>,
    /// Totals keyed by collapsed stack ("a;b;c").
    entries: BTreeMap<String, ProfEntry>,
}

impl Profiler {
    /// A profiler with no open spans.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Open a span named `name` nested under the current stack.
    pub fn enter(&mut self, name: &'static str) {
        self.stack.push(name);
        self.open.push((Instant::now(), 0));
    }

    /// Close the innermost span, attributing its self time. Panics if
    /// no span is open or `name` does not match the innermost span
    /// (enter/exit must nest).
    pub fn exit(&mut self, name: &'static str) {
        let top = self.stack.last().copied();
        assert_eq!(top, Some(name), "profiler exit out of order");
        let (start, child_ns) = self.open.pop().expect("span open");
        let elapsed = start.elapsed().as_nanos() as u64;
        let key = self.stack.join(";");
        self.stack.pop();
        let e = self.entries.entry(key).or_default();
        e.calls += 1;
        e.wall_ns += elapsed.saturating_sub(child_ns);
        if let Some((_, parent_child)) = self.open.last_mut() {
            *parent_child += elapsed;
        }
    }

    /// Attribute `ns` of simulated time to the innermost open span
    /// (no-op when no span is open).
    pub fn add_virtual(&mut self, ns: u64) {
        if self.stack.is_empty() {
            return;
        }
        let key = self.stack.join(";");
        self.entries.entry(key).or_default().virtual_ns += ns;
    }

    /// Sum another profiler's totals into this one (stack-wise).
    pub fn merge(&mut self, other: &Profiler) {
        assert!(other.stack.is_empty(), "merging a profiler with open spans");
        for (key, o) in &other.entries {
            let e = self.entries.entry(key.clone()).or_default();
            e.calls += o.calls;
            e.wall_ns += o.wall_ns;
            e.virtual_ns += o.virtual_ns;
        }
    }

    /// Totals keyed by collapsed stack, alphabetical.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &ProfEntry)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Flamegraph collapsed-stack format: one `stack count` line per
    /// unique stack, count in microseconds of self time (flamegraph
    /// tooling expects integer sample counts; µs keeps resolution
    /// without overflow).
    pub fn render_collapsed(&self) -> String {
        let mut s = String::new();
        for (key, e) in &self.entries {
            let _ = writeln!(s, "{} {}", key, e.wall_ns / 1_000);
        }
        s
    }

    /// Human-readable table, largest self time first.
    pub fn render_text(&self) -> String {
        let mut rows: Vec<(&String, &ProfEntry)> = self.entries.iter().collect();
        rows.sort_by(|a, b| b.1.wall_ns.cmp(&a.1.wall_ns).then(a.0.cmp(b.0)));
        let total: u64 = rows.iter().map(|(_, e)| e.wall_ns).sum();
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<40} {:>10} {:>12} {:>7} {:>12}",
            "span", "calls", "self ms", "%", "virt s"
        );
        for (key, e) in rows {
            let pct = if total > 0 {
                e.wall_ns as f64 * 100.0 / total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                s,
                "{:<40} {:>10} {:>12.3} {:>6.1}% {:>12.3}",
                key,
                e.calls,
                e.wall_ns as f64 / 1e6,
                pct,
                e.virtual_ns as f64 / 1e9
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_attributes_self_time_to_each_frame() {
        let mut p = Profiler::new();
        p.enter("run");
        p.enter("modulate");
        p.add_virtual(500);
        p.exit("modulate");
        p.exit("run");
        let map: BTreeMap<&str, ProfEntry> = p.entries().map(|(k, v)| (k, *v)).collect();
        assert_eq!(map["run"].calls, 1);
        assert_eq!(map["run;modulate"].calls, 1);
        assert_eq!(map["run;modulate"].virtual_ns, 500);
        // Parent self time excludes the child's elapsed time, so the
        // sum of self times never exceeds total elapsed by design;
        // both are non-negative by construction (u64).
        let collapsed = p.render_collapsed();
        assert!(collapsed.contains("run;modulate "));
        assert_eq!(collapsed.lines().count(), 2);
    }

    #[test]
    fn repeated_spans_accumulate() {
        let mut p = Profiler::new();
        for _ in 0..3 {
            p.enter("probe");
            p.exit("probe");
        }
        let (_, e) = p.entries().next().unwrap();
        assert_eq!(e.calls, 3);
    }

    #[test]
    fn merge_sums_stackwise() {
        let mut a = Profiler::new();
        a.enter("x");
        a.add_virtual(10);
        a.exit("x");
        let mut b = Profiler::new();
        b.enter("x");
        b.add_virtual(32);
        b.exit("x");
        b.enter("y");
        b.exit("y");
        a.merge(&b);
        let map: BTreeMap<&str, ProfEntry> = a.entries().map(|(k, v)| (k, *v)).collect();
        assert_eq!(map["x"].calls, 2);
        assert_eq!(map["x"].virtual_ns, 42);
        assert_eq!(map["y"].calls, 1);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn mismatched_exit_panics() {
        let mut p = Profiler::new();
        p.enter("a");
        p.exit("b");
    }

    #[test]
    fn text_render_sorts_by_self_time() {
        let mut p = Profiler::new();
        p.enter("fast");
        p.exit("fast");
        let txt = p.render_text();
        assert!(txt.contains("span"));
        assert!(txt.contains("fast"));
    }
}
