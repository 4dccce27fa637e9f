//! Memory of the fleet result path: a fleet run holds one copy of each
//! client's results.
//!
//! What a fleet run returns is mostly its per-client `RunManifest`s, so
//! the live heap once `fleet_run` returns is about one manifest per
//! client, and that manifest's size is pinned too. A merge that copies the shards' manifests instead of moving
//! them holds two of each at its peak, and so does any other step that
//! copies the whole result set; either pushes the peak to about twice
//! what is retained, and fails here. Allocation counts are
//! deterministic (the simulation is, and so is every allocation it
//! makes), so these pins hold on any machine.

use emu::{fleet_run, Exec, FleetPlan};
use netsim::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wavelan::Scenario;

/// Clients in the measured fleet.
const CLIENTS: u32 = 200;
/// Peak live heap during `fleet_run` over the heap still live once it
/// returns. One copy of the results measures 1.02 at one shard and 1.20
/// at four (the first shard's vector grows to hold the rest); two
/// copies, about 2.
const MAX_PEAK_OVER_RETAINED: f64 = 1.25;
/// Heap allocations per client over the whole run (measured 56 at one
/// shard, 57 at four).
const MAX_ALLOCS_PER_CLIENT: u64 = 60;
/// Heap bytes a client's results keep once `fleet_run` returns
/// (measured 1 736: trimmed histogram bins and flat metric tables; dense
/// bins in tree maps kept 4 285).
const MAX_RETAINED_PER_CLIENT: i64 = 2_048;

/// Counts the allocations, and tracks the live and peak live bytes, of
/// the thread that switched counting on. `cargo test` runs tests on
/// parallel threads, so a process-wide count would take in whatever the
/// other tests allocate meanwhile; a serial fleet runs on the calling
/// thread, so everything it allocates and frees is seen here.
struct ThreadCounting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Record `delta` live bytes, and one allocation when `alloc` is set.
fn note(delta: i64, alloc: bool) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when they may no longer be read.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            if alloc {
                ALLOCS.with(|a| a.set(a.get() + 1));
            }
            let live = LIVE.with(|l| {
                l.set(l.get() + delta);
                l.get()
            });
            PEAK.with(|p| p.set(p.get().max(live)));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting only
// touches const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, true);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, true);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64, true);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64), false);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: ThreadCounting = ThreadCounting;

/// Heap use of one serial fleet run, counted from just before
/// `fleet_run` until it returns.
struct Usage {
    allocs: u64,
    /// Largest live heap at any point of the run.
    peak: i64,
    /// Heap still live once `fleet_run` returns: its outcome.
    retained: i64,
}

fn plan(clients: u32, shards: usize) -> FleetPlan {
    FleetPlan::new(Scenario::porter(), clients)
        .with_duration(SimDuration::from_secs(10))
        .with_probe_interval(SimDuration::from_millis(500))
        .with_shards(shards)
}

fn measure(shards: usize) -> Usage {
    // Warm-up: first-use set-up (lazily built tables and the like)
    // stays live and is not part of what a fleet keeps per client.
    drop(fleet_run(&plan(1, 1), &Exec::serial()));
    let plan = plan(CLIENTS, shards);
    ALLOCS.with(|a| a.set(0));
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    COUNTING.with(|on| on.set(true));
    let out = fleet_run(&plan, &Exec::serial());
    COUNTING.with(|on| on.set(false));
    assert_eq!(out.manifests.len(), CLIENTS as usize);
    let usage = Usage {
        allocs: ALLOCS.with(Cell::get),
        peak: PEAK.with(Cell::get),
        retained: LIVE.with(Cell::get),
    };
    drop(out);
    let per_client = |x: i64| x / i64::from(CLIENTS);
    eprintln!(
        "{shards} shard(s): {} allocs/client, peak {} B/client, retained {} B/client",
        usage.allocs / u64::from(CLIENTS),
        per_client(usage.peak),
        per_client(usage.retained),
    );
    usage
}

fn assert_one_copy(shards: usize) {
    let u = measure(shards);
    assert!(u.retained > 0, "a fleet outcome holds its manifests");
    let ratio = u.peak as f64 / u.retained as f64;
    assert!(
        ratio <= MAX_PEAK_OVER_RETAINED,
        "{shards} shard(s): peak {} B is {ratio:.2}× the {} B retained",
        u.peak,
        u.retained
    );
    let per_client = u.allocs / u64::from(CLIENTS);
    assert!(
        per_client <= MAX_ALLOCS_PER_CLIENT,
        "{shards} shard(s): {per_client} allocations per client, budget {MAX_ALLOCS_PER_CLIENT}"
    );
    let retained = u.retained / i64::from(CLIENTS);
    assert!(
        retained <= MAX_RETAINED_PER_CLIENT,
        "{shards} shard(s): {retained} B retained per client, budget {MAX_RETAINED_PER_CLIENT}"
    );
}

#[test]
fn one_shard_fleet_holds_one_copy_of_its_results() {
    assert_one_copy(1);
}

#[test]
fn four_shard_fleet_holds_one_copy_of_its_results() {
    assert_one_copy(4);
}
