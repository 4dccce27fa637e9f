//! A calendar queue (hierarchical timing wheel) for deterministic event
//! scheduling.
//!
//! Its one user is the modulation layer's hold queue
//! (`modulate::Modulator`), which files each delayed packet by its
//! release time and collects everything due at every modulation tick
//! (§3.3). The event core does not use it: its queue is nearly empty
//! and a plain binary heap of `Front` entries serves it better (see
//! [`core`](crate::core)). The queue quantizes time into fixed ticks
//! (the 10 ms modulation tick) and exploits the fact that holds are
//! overwhelmingly scheduled a short distance into the future:
//!
//! * a **front heap** holds only the items of the currently open bucket
//!   (a handful of entries, so its sifts are near-free);
//! * a **wheel** of `slot_count` buckets ([`SLOTS`] by default,
//!   configurable via [`CalendarQueue::with_slots`]) covers the next
//!   `slot_count` ticks with O(1) insertion — a bucket is an unsorted
//!   singly linked list, found by `tick % slot_count`, with a bitmap for
//!   fast next-occupied scans. Every bucket's nodes live in one item
//!   arena per queue, and a slot is just the `u32` index of its list
//!   head; emptied nodes go onto a free list, so a steady-state queue
//!   allocates nothing per bucket and opening a bucket refills the front
//!   heap's existing buffer;
//! * an **overflow stage** absorbs far-future items beyond the wheel
//!   horizon with an O(1) append; when the wheel needs them it sorts the
//!   stage once and moves a whole window's worth into the slots, so each
//!   overflow item pays one sort participation and one slot push no
//!   matter how many buckets it spans (a `BTreeMap` keyed by tick costs
//!   an insert *and* a remove per tiny bucket, which under a saturated
//!   backlog dominates the entire queue).
//!
//! Pop order is *exactly* ascending `(due, seq)` — bit-identical to the
//! binary heap it replaces — because a bucket is opened (sorted or
//! heapified) only once every earlier bucket has fully drained, and two
//! distinct ticks can never share a slot: live ticks span the half-open
//! window `(front_tick, front_tick + SLOTS]`, which maps injectively
//! onto slots. Determinism therefore does not depend on the tick size;
//! the quantum only shifts work between the front heap (coarse ticks)
//! and bucket bookkeeping (fine ticks).
//!
//! The payoff is batch draining: when the caller collects everything due
//! up to `now` — the per-tick shape of the modulation loop — a bucket
//! that is *entirely* due is sorted once and appended wholesale,
//! skipping the heap entirely.

use std::cell::Cell;
use std::collections::BinaryHeap;

/// Default number of wheel slots; live ticks cover
/// `(front_tick, front_tick + slots]`.
///
/// **Horizon math.** The wheel covers a horizon of
/// `slot_count × tick_ns` nanoseconds past the open bucket; anything
/// scheduled further out takes the overflow stage (an O(1) append plus
/// one sort participation per refill, instead of a direct slot file).
/// At the default 4096 slots and the 10 ms modulation tick this is
/// ≈41 s — comfortably past any single-client hold. Memory is what scales
/// with slots: each slot is a 4 B list head plus a bitmap bit, so 4096
/// slots cost ~16 KiB per queue before any items (queued items live in
/// the shared arena and cost the same at any width). Fleet clients
/// still construct narrow wheels (e.g. 64–256 slots via
/// [`CalendarQueue::with_slots`]), trading horizon for footprint: a
/// 10 ms tick × 64 slots covers 640 ms in 256 B, and the rare
/// beyond-horizon hold simply rides the overflow stage with identical
/// pop order.
pub const SLOTS: usize = 4096;

/// Sort keys for calendar-queue items. `(due_ns, seq)` must be unique
/// per queue (the schedulers guarantee this with a monotone sequence
/// counter), which makes pop order total and deterministic.
pub trait WheelItem {
    /// Absolute due time in nanoseconds.
    fn due_ns(&self) -> u64;
    /// Tie-break sequence number (scheduling order).
    fn seq(&self) -> u64;
}

/// Min-heap adapter: reverses `(due, seq)` so `BinaryHeap` pops the
/// earliest item first. The calendar queue's open bucket and the event
/// core's whole queue are heaps of these.
pub(crate) struct Front<T>(pub(crate) T);

impl<T: WheelItem> PartialEq for Front<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl<T: WheelItem> Eq for Front<T> {}
impl<T: WheelItem> PartialOrd for Front<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: WheelItem> Ord for Front<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.0.due_ns(), other.0.seq()).cmp(&(self.0.due_ns(), self.0.seq()))
    }
}

/// End-of-list marker for bucket lists and the free list.
const NIL: u32 = u32::MAX;

/// One arena cell: a bucketed item (`None` while on the free list) and
/// the index of the next node in its bucket or free list.
struct Node<T> {
    item: Option<T>,
    next: u32,
}

/// Counters describing how the queue has been exercised. Tracked in
/// virtual time only, so they are identical across reruns of the same
/// schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Items ever pushed.
    pub pushes: u64,
    /// Pushes that landed beyond the wheel horizon (overflow stage).
    pub overflow_pushes: u64,
    /// Buckets opened into the front heap (partial drains).
    pub buckets_opened: u64,
    /// Buckets drained wholesale (sorted and appended, no heap).
    pub buckets_drained_whole: u64,
    /// High-water mark of queue length.
    pub peak_len: usize,
}

/// A deterministic calendar queue ordered by `(due_ns, seq)`.
pub struct CalendarQueue<T: WheelItem> {
    tick_ns: u64,
    front: BinaryHeap<Front<T>>,
    /// All front items have `tick <= front_tick`; all bucketed items
    /// have `tick > front_tick`.
    front_tick: u64,
    /// Per slot, the arena index of its bucket's first node (`NIL` when
    /// empty). Lists are pushed at the head, so they run newest first.
    heads: Vec<u32>,
    occupied: Vec<u64>,
    /// Item arena backing every bucket list.
    nodes: Vec<Node<T>>,
    /// Head of the free-node list threaded through `nodes`.
    free: u32,
    /// Far-future items, unsorted — O(1) push, merged into `sorted` on
    /// the next refill.
    staging: Vec<T>,
    /// Exact minimum `(due, seq)` across `staging`, tracked on push.
    staging_min: Option<(u64, u64)>,
    /// Far-future items sorted *descending* by `(due, seq)`: the global
    /// overflow minimum sits at the tail, and a refill pops the due
    /// window off the end in ascending order.
    sorted: Vec<T>,
    len: usize,
    /// `Some((due, seq))` is the exact global minimum; `None` with
    /// `len > 0` means "recompute on demand". Interior-mutable so
    /// `next_due_ns(&self)` can memoize.
    min_cache: Cell<Option<(u64, u64)>>,
    stats: WheelStats,
}

impl<T: WheelItem> CalendarQueue<T> {
    /// A queue with the given tick quantum (bucket width) in
    /// nanoseconds and the default [`SLOTS`]-slot wheel. Panics if
    /// `tick_ns` is zero.
    pub fn new(tick_ns: u64) -> Self {
        Self::with_slots(tick_ns, SLOTS)
    }

    /// A queue with an explicit wheel width. `slot_count` trades
    /// footprint for horizon (see the [`SLOTS`] doc for the math) and
    /// must be a positive multiple of 64 (the occupancy-bitmap word
    /// size).
    pub fn with_slots(tick_ns: u64, slot_count: usize) -> Self {
        assert!(tick_ns > 0, "calendar queue tick must be positive");
        assert!(
            slot_count > 0 && slot_count.is_multiple_of(64),
            "slot count must be a positive multiple of 64"
        );
        CalendarQueue {
            tick_ns,
            front: BinaryHeap::new(),
            front_tick: 0,
            heads: vec![NIL; slot_count],
            occupied: vec![0u64; slot_count / 64],
            nodes: Vec::new(),
            free: NIL,
            staging: Vec::new(),
            staging_min: None,
            sorted: Vec::new(),
            len: 0,
            min_cache: Cell::new(None),
            stats: WheelStats::default(),
        }
    }

    /// Number of wheel slots (the live-window width in ticks).
    pub fn slot_count(&self) -> usize {
        self.heads.len()
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Usage counters (virtual-time deterministic).
    pub fn stats(&self) -> WheelStats {
        self.stats
    }

    /// Insert an item. O(1) unless it lands in the currently open
    /// bucket (front-heap push).
    pub fn push(&mut self, item: T) {
        let key = (item.due_ns(), item.seq());
        self.len += 1;
        self.stats.pushes += 1;
        if self.len > self.stats.peak_len {
            self.stats.peak_len = self.len;
        }
        match self.min_cache.get() {
            Some(m) if key < m => self.min_cache.set(Some(key)),
            None if self.len == 1 => self.min_cache.set(Some(key)),
            _ => {}
        }
        let tick = key.0 / self.tick_ns;
        if tick <= self.front_tick {
            self.front.push(Front(item));
        } else if tick - self.front_tick <= self.heads.len() as u64 {
            self.slot_push(tick, item);
        } else {
            if self.staging_min.is_none_or(|m| key < m) {
                self.staging_min = Some(key);
            }
            self.staging.push(item);
            self.stats.overflow_pushes += 1;
        }
    }

    // File an item under a live tick's slot.
    fn slot_push(&mut self, tick: u64, item: T) {
        debug_assert!(tick > self.front_tick && tick - self.front_tick <= self.heads.len() as u64);
        let slot = (tick % self.heads.len() as u64) as usize;
        let node = Node {
            item: Some(item),
            next: self.heads[slot],
        };
        let idx = if self.free == NIL {
            assert!(
                self.nodes.len() < NIL as usize,
                "calendar queue arena exceeds u32 indices"
            );
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        self.heads[slot] = idx;
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
    }

    /// Unlink `slot`'s whole bucket, appending its items to `out` in
    /// push order (the list runs newest first, so the appended range is
    /// reversed in place) and returning its nodes to the free list.
    /// Returns the number of items moved.
    fn take_slot_into<U>(&mut self, slot: usize, out: &mut Vec<U>, wrap: impl Fn(T) -> U) -> usize {
        self.occupied[slot / 64] &= !(1u64 << (slot % 64));
        let mark = out.len();
        let mut idx = std::mem::replace(&mut self.heads[slot], NIL);
        while idx != NIL {
            let node = &mut self.nodes[idx as usize];
            out.push(wrap(node.item.take().expect("bucket nodes hold items")));
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = idx;
            idx = next;
        }
        out[mark..].reverse();
        out.len() - mark
    }

    /// Remove and return the earliest item by `(due, seq)`.
    pub fn pop_next(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        if self.front.is_empty() {
            self.open_next_bucket();
        }
        let item = self.front.pop().expect("open_next_bucket fills front").0;
        self.len -= 1;
        // The front head, when present, is the global minimum: every
        // bucketed item lives in a strictly later tick.
        self.min_cache
            .set(self.front.peek().map(|f| (f.0.due_ns(), f.0.seq())));
        Some(item)
    }

    /// Earliest due time, or `None` when empty. O(1) when the minimum
    /// is cached (always, except right after a drain that emptied the
    /// open bucket); otherwise one bucket scan, memoized.
    pub fn next_due_ns(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if let Some((due, _)) = self.min_cache.get() {
            return Some(due);
        }
        let m = self.compute_min();
        self.min_cache.set(Some(m));
        Some(m.0)
    }

    /// Append every item with `due_ns <= now_ns` to `out`, in ascending
    /// `(due, seq)` order. All *entirely* due buckets are swept in one
    /// pass — slots drained in place, overflow pulled directly, one sort
    /// over the whole appended range — so the per-tick batch collection
    /// of a saturated backlog never pays per-bucket bookkeeping.
    pub fn drain_due_into(&mut self, now_ns: u64, out: &mut Vec<T>) {
        let start_len = out.len();
        // Last tick whose bucket is entirely due at `now`:
        // (tick + 1) * tick_ns - 1 <= now.
        let q = now_ns / self.tick_ns;
        let full_max = if now_ns % self.tick_ns == self.tick_ns - 1 {
            Some(q)
        } else {
            q.checked_sub(1)
        };
        loop {
            while let Some(head) = self.front.peek() {
                if head.0.due_ns() > now_ns {
                    break;
                }
                out.push(self.front.pop().expect("peeked").0);
                self.len -= 1;
            }
            if !self.front.is_empty() || self.len == 0 {
                break;
            }
            if let Some(full_max) = full_max {
                let mark = out.len();
                self.sweep_full(full_max, out);
                if out.len() > mark {
                    // One global sort replaces per-bucket sorts: swept
                    // dues partition into disjoint per-tick ranges, so
                    // the orders coincide — and a bucket split between
                    // its slot and the overflow stage interleaves
                    // correctly without ever being reunited.
                    // Stable run-detecting sort: the swept range is a
                    // few ascending runs (slots in tick order, overflow
                    // stages each in order), merged near-linearly.
                    out[mark..].sort_by_key(|t| (t.due_ns(), t.seq()));
                    continue;
                }
            }
            // Only a partially-due bucket can still hold due items.
            let Some(tick) = self.next_bucket_tick() else {
                break;
            };
            if tick.saturating_mul(self.tick_ns) > now_ns {
                break; // earliest possible due in that bucket is beyond now
            }
            self.open_bucket_at(tick);
        }
        if out.len() != start_len {
            self.min_cache
                .set(self.front.peek().map(|f| (f.0.due_ns(), f.0.seq())));
        }
    }

    /// Move every item in buckets with `tick <= full_max` into `out`,
    /// unsorted: occupied slots in ascending-tick order (nodes back to
    /// the free list), then any overflow items that far. Advances the
    /// window past `full_max`.
    fn sweep_full(&mut self, full_max: u64, out: &mut Vec<T>) {
        while let Some(slot) = self.first_occupied_slot() {
            let tick = self.slot_tick(slot);
            if tick > full_max {
                break;
            }
            self.len -= self.take_slot_into(slot, out, |t| t);
            // Advancing per bucket keeps the next occupancy scan O(1)
            // under dense backlogs (it starts at the very next slot).
            self.front_tick = tick;
            self.stats.buckets_drained_whole += 1;
        }
        if self.overflow_min_tick().is_some_and(|o| o <= full_max) {
            // due < limit  <=>  tick <= full_max.
            let limit = full_max.saturating_add(1).saturating_mul(self.tick_ns);
            if self.staging_min.is_some_and(|(due, _)| due < limit) {
                // Order-preserving extraction: pushes arrive in nearly
                // ascending due order (a saturated link serializes), so
                // keeping that order leaves `out` a concatenation of
                // ascending runs the run-detecting sort merges in near
                // linear time instead of quicksorting a shuffle.
                let before = self.staging.len();
                out.extend(self.staging.extract_if(.., |it| it.due_ns() < limit));
                self.len -= before - self.staging.len();
                self.staging_min = self.staging.iter().map(|it| (it.due_ns(), it.seq())).min();
            }
            while self.sorted.last().is_some_and(|it| it.due_ns() < limit) {
                out.push(self.sorted.pop().expect("peeked"));
                self.len -= 1;
            }
        }
        // Safe unconditionally: every pending tick <= full_max was just
        // drained, and filing only needs `tick > front_tick` for
        // bucketed items (front absorbs anything at or below it).
        self.front_tick = self.front_tick.max(full_max);
    }

    /// Open the earliest bucket into the front heap. Precondition:
    /// front empty, `len > 0`.
    fn open_next_bucket(&mut self) {
        let tick = self.next_bucket_tick().expect("len > 0, front empty");
        self.open_bucket_at(tick);
    }

    /// Open the bucket at `tick` (from a wheel scan after
    /// [`next_bucket_tick`](Self::next_bucket_tick), so its slot holds
    /// exactly that tick's items) into the empty front heap, reusing
    /// the heap's buffer.
    fn open_bucket_at(&mut self, tick: u64) {
        let slot = (tick % self.heads.len() as u64) as usize;
        debug_assert!(self.heads[slot] != NIL && self.slot_tick(slot) == tick);
        let mut buf = std::mem::take(&mut self.front).into_vec();
        debug_assert!(buf.is_empty(), "buckets open only into an empty front");
        self.take_slot_into(slot, &mut buf, Front);
        self.front_tick = tick;
        self.front = BinaryHeap::from(buf);
        self.stats.buckets_opened += 1;
    }

    /// Earliest overflow tick (staging or sorted), O(1).
    fn overflow_min_tick(&self) -> Option<u64> {
        let s = self.staging_min.map(|(due, _)| due / self.tick_ns);
        let t = self.sorted.last().map(|it| it.due_ns() / self.tick_ns);
        match (s, t) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// Earliest tick holding items. Refills the wheel from the overflow
    /// stage first if the overflow minimum would otherwise be missed,
    /// so afterwards the wheel scan alone is authoritative.
    fn next_bucket_tick(&mut self) -> Option<u64> {
        let wheel = self.first_occupied_slot().map(|slot| self.slot_tick(slot));
        match (wheel, self.overflow_min_tick()) {
            // `o == w` still refills: the bucket can be split between
            // its slot and the overflow stage, and both halves must be
            // in the slot before it is taken.
            (Some(w), Some(o)) if o > w => Some(w),
            (Some(w), None) => Some(w),
            (None, None) => None,
            _ => {
                // Overflow holds (part of) the earliest pending tick.
                self.refill_overflow();
                self.first_occupied_slot().map(|slot| self.slot_tick(slot))
            }
        }
    }

    /// Merge the staging items into the sorted stage (one sort) and move
    /// everything due within the live window into the wheel slots. If
    /// the wheel is empty, the window first jumps so the earliest
    /// overflow tick becomes live. Precondition: overflow is non-empty.
    fn refill_overflow(&mut self) {
        if !self.staging.is_empty() {
            self.sorted.append(&mut self.staging);
            self.sorted
                .sort_unstable_by_key(|it| std::cmp::Reverse((it.due_ns(), it.seq())));
            self.staging_min = None;
        }
        let min_tick = match self.sorted.last() {
            Some(it) => it.due_ns() / self.tick_ns,
            None => return,
        };
        if self.first_occupied_slot().is_none()
            && min_tick > self.front_tick.saturating_add(self.heads.len() as u64)
        {
            self.front_tick = min_tick - 1;
        }
        let horizon = self.front_tick.saturating_add(self.heads.len() as u64);
        while let Some(it) = self.sorted.last() {
            let tick = it.due_ns() / self.tick_ns;
            if tick > horizon {
                break;
            }
            let it = self.sorted.pop().expect("peeked");
            self.slot_push(tick, it);
        }
    }

    /// The tick an occupied slot holds: live ticks fill the window
    /// `(front_tick, front_tick + slot_count]` one slot each, so the
    /// slot's offset from the window start names its tick without
    /// touching the bucket.
    fn slot_tick(&self, slot: usize) -> u64 {
        let n = self.heads.len() as u64;
        let start = (self.front_tick + 1) % n;
        let tick = self.front_tick + 1 + (slot as u64 + n - start) % n;
        debug_assert_eq!(
            self.nodes[self.heads[slot] as usize]
                .item
                .as_ref()
                .map(|it| it.due_ns() / self.tick_ns),
            Some(tick)
        );
        tick
    }

    /// First occupied slot in circular order starting just after the
    /// open bucket's slot — which is ascending-tick order, since live
    /// ticks map injectively onto slots.
    fn first_occupied_slot(&self) -> Option<usize> {
        let words = self.occupied.len();
        let start = ((self.front_tick + 1) % self.heads.len() as u64) as usize;
        let w0 = start / 64;
        let b0 = start % 64;
        let head = self.occupied[w0] & (!0u64 << b0);
        if head != 0 {
            return Some(w0 * 64 + head.trailing_zeros() as usize);
        }
        for i in 1..=words {
            let w = (w0 + i) % words;
            let mut word = self.occupied[w];
            if w == w0 {
                word &= !(!0u64 << b0); // wrapped tail of the start word
            }
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Exact global minimum `(due, seq)`. Precondition: `len > 0`.
    ///
    /// Candidates: the front head, the wheel's earliest occupied slot
    /// (scanned — every other slot holds strictly later ticks), and the
    /// two overflow minima. Each structure's own minimum bounds all its
    /// items, so the least of the candidates is the global minimum.
    fn compute_min(&self) -> (u64, u64) {
        if let Some(f) = self.front.peek() {
            return (f.0.due_ns(), f.0.seq());
        }
        let mut best: Option<(u64, u64)> = None;
        let mut consider = |key: (u64, u64)| {
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        };
        if let Some(slot) = self.first_occupied_slot() {
            let mut idx = self.heads[slot];
            while idx != NIL {
                let node = &self.nodes[idx as usize];
                if let Some(it) = &node.item {
                    consider((it.due_ns(), it.seq()));
                }
                idx = node.next;
            }
        }
        if let Some(it) = self.sorted.last() {
            consider((it.due_ns(), it.seq()));
        }
        if let Some(key) = self.staging_min {
            consider(key);
        }
        best.expect("len > 0 with empty front means occupied buckets")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Item {
        due: u64,
        seq: u64,
    }

    impl WheelItem for Item {
        fn due_ns(&self) -> u64 {
            self.due
        }
        fn seq(&self) -> u64 {
            self.seq
        }
    }

    fn random_items(rng: &mut SimRng, n: usize, horizon_ns: u64) -> Vec<Item> {
        (0..n)
            .map(|i| Item {
                due: rng.range_u64(0, horizon_ns),
                seq: i as u64,
            })
            .collect()
    }

    /// Oracle: plain sort by (due, seq) — what a binary heap yields.
    fn sorted(mut items: Vec<Item>) -> Vec<Item> {
        items.sort_unstable_by_key(|it| (it.due, it.seq));
        items
    }

    #[test]
    fn pops_in_due_seq_order() {
        let mut rng = SimRng::seed_from_u64(7);
        let items = random_items(&mut rng, 10_000, 400 * 10_000_000);
        let mut q = CalendarQueue::new(10_000_000);
        for it in &items {
            q.push(*it);
        }
        assert_eq!(q.len(), items.len());
        let mut popped = Vec::new();
        while let Some(it) = q.pop_next() {
            popped.push(it);
        }
        assert_eq!(popped, sorted(items));
        assert!(q.is_empty());
    }

    #[test]
    fn drain_due_matches_pop_loop() {
        let mut rng = SimRng::seed_from_u64(11);
        let items = random_items(&mut rng, 5_000, 100 * 10_000_000);
        let mut q = CalendarQueue::new(10_000_000);
        for it in &items {
            q.push(*it);
        }
        let mut out = Vec::new();
        // Drain in 25 ms strides; every item must come out in order.
        let mut now = 0;
        while !q.is_empty() {
            now += 25_000_000;
            q.drain_due_into(now, &mut out);
            for it in &out {
                assert!(it.due <= now);
            }
        }
        assert_eq!(out, sorted(items));
    }

    #[test]
    fn interleaved_push_and_drain_stay_ordered() {
        let mut rng = SimRng::seed_from_u64(13);
        let mut q = CalendarQueue::new(1_000_000);
        let mut all = Vec::new();
        let mut out = Vec::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..200 {
            for _ in 0..rng.range_u64(0, 20) {
                let it = Item {
                    // Future-only, like the schedulers guarantee.
                    due: now + rng.range_u64(0, 50_000_000),
                    seq,
                };
                seq += 1;
                all.push(it);
                q.push(it);
            }
            now += rng.range_u64(0, 10_000_000);
            q.drain_due_into(now, &mut out);
        }
        q.drain_due_into(u64::MAX, &mut out);
        assert_eq!(out, sorted(all));
    }

    #[test]
    fn far_future_items_take_the_overflow_path() {
        let mut q = CalendarQueue::new(1_000);
        // Horizon is SLOTS ticks = 4096 us at 1 us ticks.
        q.push(Item { due: 500, seq: 0 });
        q.push(Item {
            due: 10_000_000, // far beyond the wheel
            seq: 1,
        });
        q.push(Item {
            due: 9_999_999,
            seq: 2,
        });
        assert_eq!(q.stats().overflow_pushes, 2);
        assert_eq!(q.next_due_ns(), Some(500));
        assert_eq!(q.pop_next().unwrap().seq, 0);
        assert_eq!(q.next_due_ns(), Some(9_999_999));
        assert_eq!(q.pop_next().unwrap().seq, 2);
        assert_eq!(q.pop_next().unwrap().seq, 1);
        assert_eq!(q.pop_next(), None);
        assert_eq!(q.next_due_ns(), None);
    }

    #[test]
    fn same_due_breaks_ties_by_seq() {
        let mut q = CalendarQueue::new(10_000_000);
        for seq in [5u64, 1, 9, 3] {
            q.push(Item { due: 42, seq });
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_next()).map(|i| i.seq).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }

    #[test]
    fn next_due_is_consistent_under_mutation() {
        let mut rng = SimRng::seed_from_u64(17);
        let mut q = CalendarQueue::new(2_000_000);
        let mut mirror: Vec<Item> = Vec::new();
        let mut seq = 0;
        for round in 0..500 {
            if rng.range_u64(0, 3) < 2 || mirror.is_empty() {
                let it = Item {
                    due: rng.range_u64(0, 800_000_000),
                    seq,
                };
                seq += 1;
                q.push(it);
                mirror.push(it);
            } else {
                let popped = q.pop_next().unwrap();
                let min = *mirror
                    .iter()
                    .min_by_key(|it| (it.due, it.seq))
                    .expect("mirror non-empty");
                assert_eq!(popped, min, "round {round}");
                mirror.retain(|it| it != &min);
            }
            assert_eq!(
                q.next_due_ns(),
                mirror.iter().map(|it| it.due).min(),
                "round {round}"
            );
        }
    }

    #[test]
    fn wholesale_drain_counts_in_stats() {
        let mut q = CalendarQueue::new(10_000_000);
        for i in 0..100u64 {
            q.push(Item {
                due: 10_000_000 + i * 1_000_000, // spread over ~10 buckets
                seq: i,
            });
        }
        let mut out = Vec::new();
        q.drain_due_into(u64::MAX, &mut out);
        assert_eq!(out.len(), 100);
        assert!(q.stats().buckets_drained_whole >= 9);
    }

    #[test]
    #[should_panic(expected = "tick must be positive")]
    fn zero_tick_rejected() {
        let _ = CalendarQueue::<Item>::new(0);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn ragged_slot_count_rejected() {
        let _ = CalendarQueue::<Item>::with_slots(1_000, 100);
    }

    #[test]
    fn narrow_wheel_matches_oracle() {
        // A 64-slot wheel pushes most of this spread through the
        // overflow stage; pop order must still be exactly (due, seq).
        let mut rng = SimRng::seed_from_u64(23);
        let items = random_items(&mut rng, 5_000, 2_000 * 10_000_000);
        let mut q = CalendarQueue::with_slots(10_000_000, 64);
        assert_eq!(q.slot_count(), 64);
        for it in &items {
            q.push(*it);
        }
        assert!(q.stats().overflow_pushes > 0, "spread must exceed horizon");
        let mut popped = Vec::new();
        while let Some(it) = q.pop_next() {
            popped.push(it);
        }
        assert_eq!(popped, sorted(items));
    }

    #[test]
    fn narrow_wheel_drain_matches_oracle() {
        let mut rng = SimRng::seed_from_u64(29);
        let items = random_items(&mut rng, 3_000, 1_000 * 1_000_000);
        let mut q = CalendarQueue::with_slots(1_000_000, 64);
        for it in &items {
            q.push(*it);
        }
        let mut out = Vec::new();
        let mut now = 0;
        while !q.is_empty() {
            now += 7_777_777;
            q.drain_due_into(now, &mut out);
        }
        assert_eq!(out, sorted(items));
    }

    #[test]
    fn arena_never_outgrows_peak_len() {
        // Long push/drain churn: freed nodes must be reused, so the arena
        // only grows when every node is holding a bucketed item.
        let mut rng = SimRng::seed_from_u64(37);
        let mut q = CalendarQueue::with_slots(1_000_000, 64);
        let mut out = Vec::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..20_000 {
            for _ in 0..rng.range_u64(0, 6) {
                q.push(Item {
                    due: now + rng.range_u64(0, 100_000_000),
                    seq,
                });
                seq += 1;
            }
            now += rng.range_u64(0, 3_000_000);
            q.drain_due_into(now, &mut out);
            assert!(q.nodes.len() <= q.stats().peak_len);
        }
        assert!(q.stats().pushes > 10 * q.nodes.len() as u64);
    }

    #[test]
    fn dropping_a_loaded_queue_drops_each_item_once() {
        use std::rc::Rc;

        struct Counted {
            due: u64,
            seq: u64,
            drops: Rc<Cell<u32>>,
        }
        impl WheelItem for Counted {
            fn due_ns(&self) -> u64 {
                self.due
            }
            fn seq(&self) -> u64 {
                self.seq
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                self.drops.set(self.drops.get() + 1);
            }
        }

        let drops = Rc::new(Cell::new(0));
        let mut q = CalendarQueue::with_slots(1_000, 64);
        let mut seq = 0;
        let mut push = |q: &mut CalendarQueue<Counted>, due| {
            q.push(Counted {
                due,
                seq,
                drops: Rc::clone(&drops),
            });
            seq += 1;
        };
        for due in [0, 1_500, 40_000, 900_000, 2_000_000] {
            push(&mut q, due);
        }
        let mut out = Vec::new();
        q.drain_due_into(40_999, &mut out);
        assert_eq!(out.len(), 3);
        drop(out);
        // Refills from the overflow stage, leaving 2 ms in `sorted`.
        drop(q.pop_next());
        assert_eq!(drops.get(), 4);
        // One item each in the open bucket, a slot and the staging area.
        for due in [900_500, 950_000, 5_000_000] {
            push(&mut q, due);
        }
        assert!(!q.front.is_empty() && !q.sorted.is_empty() && !q.staging.is_empty());
        assert!(q.nodes.iter().any(|n| n.item.is_some()));
        assert_eq!(q.len(), 4);
        drop(q);
        assert_eq!(drops.get(), 8);
    }

    #[test]
    fn fleet_shaped_schedule_keeps_its_stats() {
        // A fleet client's hold queue: 64 slots at the 10 ms tick, a few
        // holds per step reaching past the 640 ms horizon, drained by
        // both pop loops and batch collects. The expected counters were
        // taken from the per-slot `Vec` implementation this arena
        // replaced; bucket storage must not move any of them.
        const TICK: u64 = 10_000_000;
        let mut rng = SimRng::seed_from_u64(41);
        let mut q = CalendarQueue::with_slots(TICK, 64);
        let mut all = Vec::new();
        let mut out = Vec::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for step in 0..5_000u64 {
            now += rng.range_u64(1_000_000, 40_000_000);
            for _ in 0..rng.range_u64(0, 4) {
                let hold = rng.range_u64(0, 900_000_000);
                let due = if seq.is_multiple_of(2) {
                    (now + hold).div_ceil(TICK) * TICK
                } else {
                    now + hold
                };
                let it = Item { due, seq };
                q.push(it);
                all.push(it);
                seq += 1;
            }
            if step % 4 == 0 {
                while q.next_due_ns().is_some_and(|d| d <= now) {
                    out.push(q.pop_next().expect("due item"));
                }
            } else {
                q.drain_due_into(now, &mut out);
            }
        }
        q.drain_due_into(u64::MAX, &mut out);
        assert_eq!(out, sorted(all));
        assert_eq!(
            q.stats(),
            WheelStats {
                pushes: 7551,
                overflow_pushes: 2439,
                buckets_opened: 2915,
                buckets_drained_whole: 2373,
                peak_len: 66,
            }
        );
    }
}
