//! The fleet front end of the event core: flat client-tagged events,
//! a packet arena and shared base stations for N independent mobile
//! clients.
//!
//! The single-client [`Simulator`](crate::engine::Simulator) dispatches
//! through boxed [`Node`](crate::node::Node) trait objects — the right
//! shape for a handful of richly-typed nodes, but at fleet scale
//! (10k clients × a Porter walk each) the per-event indirection and the
//! per-node allocations dominate. A fleet therefore runs on the same
//! [`EventCore`] with a flatter event type:
//!
//! * a [`FleetEvent`] is a flat `(due_ns, seq, client, kind)` record,
//!   so scheduling is one slot push with no allocation, and
//!   [`FleetSim`] is simply the core over it. A core may carry any
//!   number of clients' events; the fleet runner gives each client its
//!   own and runs them one after another (`emu::fleet`), so the hot
//!   state is one client's;
//! * dispatch is a caller-supplied `FnMut` over the event — clients are
//!   plain indices into the caller's own state arrays (struct-of-arrays
//!   at the call site), not trait objects;
//! * packet bookkeeping lives in a [`PacketStore`]: parallel columns
//!   plus a free list, so a fleet's in-flight packets occupy a few
//!   contiguous arrays with O(1) alloc/release and an exact live/peak
//!   account (bounded memory is a headline requirement, so the store
//!   *is* the arena — rows are recycled, never leaked);
//! * shared infrastructure (base stations, the wired core) is a
//!   [`StationTable`] of *static* per-station load factors computed
//!   from the full fleet layout. Service time inflates with station
//!   population, but deliberately not with instantaneous queue state:
//!   runtime cross-client coupling would make per-client results
//!   depend on which clients run together, and shard-invariance
//!   (byte-identical output at 1/2/8 shards) is the property the fleet
//!   runner is built on. Station counters are commutative sums, so
//!   per-shard tables merge exactly.
//!
//! Determinism: pop order is exact `(due_ns, seq)`. Two clients'
//! events at the same instant dispatch in schedule order, which can
//! differ between layouts — safe precisely because handlers may only
//! touch their own client's state and commutative aggregates, which is
//! also what lets a runner give each client a core of its own.
//! Telemetry samples follow the core's boundary rule
//! ([`EventCore::run`]), which makes them layout-invariant too.

use crate::core::{EventCore, WheelItem};

/// One scheduled fleet event: when, for whom, and what.
#[derive(Debug, Clone, Copy)]
pub struct FleetEvent<K> {
    /// Absolute due time in nanoseconds.
    pub due_ns: u64,
    /// Queue-wide tie-break (schedule order).
    pub seq: u64,
    /// Owning client index.
    pub client: u32,
    /// Caller-defined payload.
    pub kind: K,
}

impl<K> WheelItem for FleetEvent<K> {
    fn due_ns(&self) -> u64 {
        self.due_ns
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// A deterministic multi-client event core: the [`EventCore`] over
/// [`FleetEvent`]s.
///
/// ```
/// use netsim::fleet::FleetSim;
///
/// let mut sim: FleetSim<u32> = FleetSim::new();
/// sim.schedule(1_000, 0, 7);
/// sim.schedule(500, 1, 9);
/// let mut seen = Vec::new();
/// sim.run_until(10_000, &mut |ev, sim| {
///     seen.push((ev.client, ev.kind));
///     if ev.kind == 9 {
///         sim.schedule(sim.now_ns() + 100, ev.client, 10);
///     }
/// });
/// assert_eq!(seen, vec![(1, 9), (1, 10), (0, 7)]);
/// assert_eq!(sim.now_ns(), 10_000);
/// ```
pub type FleetSim<K> = EventCore<FleetEvent<K>>;

impl<K> FleetSim<K> {
    /// Schedule `kind` for `client` at absolute time `due_ns`. Panics
    /// on scheduling into the past.
    pub fn schedule(&mut self, due_ns: u64, client: u32, kind: K) {
        self.push(|seq| FleetEvent {
            due_ns,
            seq,
            client,
            kind,
        });
    }
}

/// Struct-of-arrays storage for a fleet's in-flight packets.
///
/// Rows are addressed by a `u32` id and recycled through a free list:
/// the arrays only ever grow to the *peak concurrent* packet count, not
/// the total sent — the arena that keeps a 10k-client run's packet
/// memory bounded. Hot per-packet fields live in parallel columns so a
/// scan touches only the column it needs.
#[derive(Debug, Default)]
pub struct PacketStore {
    client: Vec<u32>,
    size: Vec<u32>,
    sent_ns: Vec<u64>,
    free: Vec<u32>,
    live: usize,
    peak_live: usize,
}

impl PacketStore {
    /// An empty store.
    pub fn new() -> Self {
        PacketStore::default()
    }

    /// Allocate a row for a packet, reusing a released one if
    /// available. Returns the packet id.
    pub fn alloc(&mut self, client: u32, size: u32, sent_ns: u64) -> u32 {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        if let Some(id) = self.free.pop() {
            let i = id as usize;
            self.client[i] = client;
            self.size[i] = size;
            self.sent_ns[i] = sent_ns;
            id
        } else {
            let id = self.client.len() as u32;
            self.client.push(client);
            self.size.push(size);
            self.sent_ns.push(sent_ns);
            id
        }
    }

    /// Release a row back to the free list. The caller must not use
    /// the id afterwards (debug builds poison the row).
    pub fn release(&mut self, id: u32) {
        debug_assert!((id as usize) < self.client.len());
        self.live -= 1;
        if cfg!(debug_assertions) {
            self.client[id as usize] = u32::MAX;
        }
        self.free.push(id);
    }

    /// Release every live row at once: the caller is done with all the
    /// packets in flight (a fleet shard, when a client's timeline ends).
    pub fn release_all(&mut self) {
        self.free.clear();
        self.free.extend((0..self.client.len() as u32).rev());
        self.live = 0;
    }

    /// Owning client of a live packet.
    pub fn client(&self, id: u32) -> u32 {
        self.client[id as usize]
    }

    /// Wire size of a live packet in bytes.
    pub fn size(&self, id: u32) -> u32 {
        self.size[id as usize]
    }

    /// Send timestamp of a live packet.
    pub fn sent_ns(&self, id: u32) -> u64 {
        self.sent_ns[id as usize]
    }

    /// Packets currently in flight.
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of concurrent in-flight packets — the bound on
    /// the arena's row count.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Rows ever grown (allocated array length).
    pub fn rows(&self) -> usize {
        self.client.len()
    }
}

/// Shared base stations and the wired core, as static per-station load
/// factors plus commutative traffic counters.
///
/// The load factor models contention on the shared medium: a station
/// serving `p` clients inflates per-byte service time by
/// `1 + alpha·(p − 1)`. It is computed once from the *full* fleet
/// layout — never from runtime queue state — so a client's delays are
/// identical no matter which shard simulates it, and per-shard counter
/// tables merge by addition into exactly the serial table.
#[derive(Debug, Clone)]
pub struct StationTable {
    load: Vec<f64>,
    frames: Vec<u64>,
    bytes: Vec<u64>,
}

impl StationTable {
    /// Build the table for a fleet of `clients` assigned round-robin
    /// (`station_of(c) = c % stations`), with service inflation
    /// `alpha` per additional client on a station.
    pub fn for_fleet(clients: u32, stations: u32, alpha: f64) -> Self {
        assert!(stations > 0, "at least one station");
        let stations = stations as usize;
        let mut population = vec![0u64; stations];
        // Round-robin population without the O(clients) loop.
        let base = clients as u64 / stations as u64;
        let rem = (clients as u64 % stations as u64) as usize;
        for (s, p) in population.iter_mut().enumerate() {
            *p = base + u64::from(s < rem);
        }
        let load = population
            .iter()
            .map(|&p| 1.0 + alpha * (p.saturating_sub(1)) as f64)
            .collect();
        StationTable {
            load,
            frames: vec![0; stations],
            bytes: vec![0; stations],
        }
    }

    /// Number of stations.
    pub fn stations(&self) -> usize {
        self.load.len()
    }

    /// Station serving `client` (round-robin assignment).
    pub fn station_of(&self, client: u32) -> u32 {
        client % self.load.len() as u32
    }

    /// Load factor of a station (≥ 1).
    pub fn load(&self, station: u32) -> f64 {
        self.load[station as usize]
    }

    /// Service time for `size` bytes through `station` at a base
    /// per-byte cost, inflated by the station's load factor.
    pub fn service_ns(&self, station: u32, size: u32, base_ns_per_byte: f64) -> u64 {
        (size as f64 * base_ns_per_byte * self.load[station as usize]) as u64
    }

    /// Account one frame forwarded through `station`.
    pub fn record(&mut self, station: u32, size: u32) {
        self.frames[station as usize] += 1;
        self.bytes[station as usize] += size as u64;
    }

    /// Frames forwarded through a station.
    pub fn frames(&self, station: u32) -> u64 {
        self.frames[station as usize]
    }

    /// Bytes forwarded through a station.
    pub fn bytes(&self, station: u32) -> u64 {
        self.bytes[station as usize]
    }

    /// Add another shard's counters into this table (loads must match:
    /// both tables were built from the same full-fleet layout).
    pub fn merge(&mut self, other: &StationTable) {
        assert_eq!(self.load.len(), other.load.len(), "station count mismatch");
        for (a, b) in self.frames.iter_mut().zip(&other.frames) {
            *a += b;
        }
        for (a, b) in self.bytes.iter_mut().zip(&other.bytes) {
            *a += b;
        }
    }

    /// Total frames across all stations.
    pub fn total_frames(&self) -> u64 {
        self.frames.iter().sum()
    }

    /// Total bytes across all stations.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_store_recycles_rows() {
        let mut s = PacketStore::new();
        let a = s.alloc(1, 106, 10);
        let b = s.alloc(2, 542, 20);
        assert_eq!((s.client(a), s.size(b)), (1, 542));
        assert_eq!(s.live(), 2);
        s.release(a);
        let c = s.alloc(3, 106, 30);
        assert_eq!(c, a, "released row is reused");
        assert_eq!(s.rows(), 2, "arena bounded by peak live");
        assert_eq!(s.peak_live(), 2);
        assert_eq!(s.sent_ns(c), 30);
    }

    #[test]
    fn release_all_frees_every_row_for_reuse() {
        let mut s = PacketStore::new();
        let ids: Vec<u32> = (0..3).map(|i| s.alloc(0, 106, i)).collect();
        s.release(ids[1]);
        s.release_all();
        assert_eq!(s.live(), 0);
        for i in 0..3 {
            s.alloc(1, 542, i);
        }
        assert_eq!(s.rows(), 3, "released rows are reused, none grown");
        assert_eq!(s.peak_live(), 3);
    }

    #[test]
    fn station_loads_come_from_the_full_fleet_layout() {
        let t = StationTable::for_fleet(10, 4, 0.1);
        // 10 clients round-robin over 4 stations: populations 3,3,2,2.
        assert_eq!(t.load(0), 1.0 + 0.1 * 2.0);
        assert_eq!(t.load(2), 1.0 + 0.1 * 1.0);
        assert_eq!(t.station_of(6), 2);
        // Load factor inflates service time.
        assert_eq!(t.service_ns(2, 1000, 80.0), (1000.0 * 80.0 * 1.1) as u64);
    }

    #[test]
    fn station_tables_merge_by_addition() {
        let mut a = StationTable::for_fleet(8, 2, 0.05);
        let mut b = StationTable::for_fleet(8, 2, 0.05);
        a.record(0, 100);
        b.record(0, 50);
        b.record(1, 25);
        a.merge(&b);
        assert_eq!(a.frames(0), 2);
        assert_eq!(a.bytes(0), 150);
        assert_eq!(a.bytes(1), 25);
        assert_eq!(a.total_bytes(), 175);
        assert_eq!(a.total_frames(), 3);
    }
}
