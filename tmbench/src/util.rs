//! Small measurement helpers shared by the workloads: order statistics,
//! a content digest, peak RSS, and the metric bag the report and the
//! JSON result line are rendered from.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller measures at least
/// one pass.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `0..=1`): the smallest sample with
/// at least `p` of the samples at or below it. For 144 cells, p90 is
/// the 130th value and leaves 14 beyond it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How a seed picks one of a workload's `n` input sets, `0..n`, less
/// those listed in `skip` (sets on which some operation fails): the
/// default seed picks set 0, and the seeds after it step through the
/// others, wrapping around.
pub fn input_set(seed: u64, n: u64, skip: &[u64]) -> u64 {
    let sets: Vec<u64> = (0..n).filter(|i| !skip.contains(i)).collect();
    sets[(seed.wrapping_sub(crate::DEFAULT_SEED) % sets.len() as u64) as usize]
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a over a byte stream: the output-check digest.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in bytes (`VmHWM`), or 0
/// where `/proc` is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Every number a run produced, in insertion order. The JSON result
/// line selects the catalog names from it; the human report prints all.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.0.push(Metric {
                name: name.to_string(),
                value,
                unit,
            }),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

/// Outcome of one output check over a run's passes.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, passed: bool, detail: String) -> Self {
        Check {
            name: name.to_string(),
            passed,
            detail,
        }
    }
}

/// `true` when every element equals the first (vacuously for 0 or 1).
pub fn all_equal<T: PartialEq>(values: &[T]) -> bool {
    values.windows(2).all(|w| w[0] == w[1])
}

/// Entries in the chase kernel's table (32 MiB of `u32`).
const CHASE_SLOTS: usize = 1 << 23;
/// Bytes the chase kernel's table keeps resident for the whole run.
pub const CHASE_TABLE_BYTES: u64 = (CHASE_SLOTS * 4) as u64;

/// The fleets' reference kernel: dependent loads chasing a full-period
/// pseudo-random cycle through a 32 MiB table — a probe of how much of
/// the shared cache and memory bandwidth the machine leaves this
/// process right now. The table is built once and stays resident.
pub struct Chase {
    table: Vec<u32>,
}

impl Chase {
    pub fn new() -> Self {
        // i → (a·i + c) mod 2^23 is a single cycle through every slot
        // (Hull–Dobell: c odd, a ≡ 1 mod 4).
        let mask = CHASE_SLOTS as u32 - 1;
        let table = (0..CHASE_SLOTS as u32)
            .map(|i| i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) & mask)
            .collect();
        Chase { table }
    }

    /// Wall time of 2 M dependent loads, in seconds.
    pub fn time(&self) -> f64 {
        let start = Instant::now();
        let mut i = 0u32;
        for _ in 0..2_000_000 {
            i = self.table[i as usize];
        }
        std::hint::black_box(i);
        secs_since(start)
    }
}

/// The matrix's reference kernel: 600 k random inserts into an ordered
/// map capped at 20 k small heap-allocated values, evicting the least
/// key — allocator and pointer churn over about 2 MB, the kind of work a
/// discrete-event simulation does. Returns its wall time in seconds.
pub fn churn_kernel() -> f64 {
    let start = Instant::now();
    let mut map = std::collections::BTreeMap::new();
    let mut x = 0x1234_5678_9ABC_DEF1u64;
    for k in 0..600_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 1_000_000, vec![k; 4]);
        if map.len() > 20_000 {
            map.pop_first();
        }
    }
    std::hint::black_box(map.len());
    secs_since(start)
}
