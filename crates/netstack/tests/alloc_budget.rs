//! Allocation budget of the TCP/IP send and receive path: a fixed 1 MB
//! FTP transfer each way between two hosts on a 10 Mb/s Ethernet, with
//! heap allocations counted per delivered data segment.
//!
//! The counts are deterministic (the simulation is, and so is every
//! allocation it makes), so unlike a timing they hold on any machine. A
//! change that puts a fresh buffer back on the per-segment path moves
//! them by whole allocations per segment and fails here.

use netsim::{FrameHook, LinkParams, NodeId, SimTime, Simulator};
use netstack::{start_host, Host, HostConfig, NIC_PORT};
use packet::{EtherHeader, Ipv4Header, MacAddr, TcpHeader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use workloads::{FtpClient, FtpDirection, FtpServer};

/// Counts the allocations made by the thread that switched counting on.
/// `cargo test` runs tests on parallel threads, so a process-wide count
/// would take in whatever the other tests allocate meanwhile.
struct ThreadCounting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when they may no longer be read.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|a| a.set(a.get() + 1));
            BYTES.with(|b| b.set(b.get() + bytes as u64));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting only
// touches const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: ThreadCounting = ThreadCounting;

/// Allocations and allocated bytes made by `f` on this thread.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    ALLOCS.with(|a| a.set(0));
    BYTES.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

const IP_C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_S: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const SIZE: usize = 1 << 20;

/// Counts the frames that carry TCP payload as the link accepts them.
struct DataSegments(Arc<AtomicU64>);

impl FrameHook for DataSegments {
    fn on_transit(&mut self, _: NodeId, _: NodeId, bytes: &[u8], _: SimTime, _: SimTime) {
        let (_, l3) = EtherHeader::parse(bytes).expect("hosts send Ethernet");
        let (ih, l4) = Ipv4Header::parse(l3).expect("hosts send IPv4");
        let (_, payload) = TcpHeader::parse(l4, ih.src, ih.dst).expect("FTP runs over TCP");
        if !payload.is_empty() {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Allocations, allocated bytes and delivered data segments of one
/// `direction` transfer of `SIZE` bytes.
fn transfer(direction: FtpDirection) -> (u64, u64, u64) {
    let mut ch =
        Host::new(HostConfig::new("c", IP_C, MacAddr::local(1)).with_arp(IP_S, MacAddr::local(2)));
    let app = ch.add_app(Box::new(FtpClient::new(IP_S, direction, SIZE)));
    let mut sh =
        Host::new(HostConfig::new("s", IP_S, MacAddr::local(2)).with_arp(IP_C, MacAddr::local(1)));
    sh.add_app(Box::new(FtpServer::new()));
    let mut sim = Simulator::new(7);
    let segments = Arc::new(AtomicU64::new(0));
    sim.set_frame_hook(Box::new(DataSegments(Arc::clone(&segments))));
    let nc = sim.add_node(Box::new(ch));
    let ns = sim.add_node(Box::new(sh));
    sim.connect_sym(nc, NIC_PORT, ns, NIC_PORT, LinkParams::ethernet_10mbps());
    start_host(&mut sim, ns, SimTime::ZERO);
    start_host(&mut sim, nc, SimTime::from_millis(1));
    let (allocs, bytes) = counted(|| {
        sim.run_until(SimTime::from_secs(60));
    });
    let client = sim.node::<Host>(nc).app::<FtpClient>(app);
    assert!(
        client.elapsed().is_some(),
        "{direction:?} transfer finished"
    );
    (allocs, bytes, segments.load(Ordering::Relaxed))
}

/// Per-segment ceilings: the counts measured, rounded up, with each frame
/// built once in one buffer, the engine's and host's output buffers
/// reused, the pumps sending from one shared fill, and the receiver's
/// bytes read by the application where they wait in the connection's
/// receive buffer (1 181 and 1 141 allocations, 1 257 779 and 1 255 513
/// bytes, over 751 and 726 segments, the fill's one 8 KiB buffer
/// included). Per segment that is its frame (1.5 kB) and half of a
/// delayed ACK's frame. With a fresh copy of the payload per segment
/// for the application, the same transfers took 2.57 allocations and
/// 3 069 / 3 172 bytes per segment; before the reused buffers, 11.98
/// allocations and 11.9 / 12.2 kB.
const SEND_ALLOCS: f64 = 1.58;
const SEND_BYTES: f64 = 1675.0;
const RECV_ALLOCS: f64 = 1.58;
const RECV_BYTES: f64 = 1730.0;

fn check(direction: FtpDirection, max_allocs: f64, max_bytes: f64) {
    let (allocs, bytes, segments) = transfer(direction);
    assert!(segments >= (SIZE / 1460) as u64, "{segments} data segments");
    let per_alloc = allocs as f64 / segments as f64;
    let per_bytes = bytes as f64 / segments as f64;
    eprintln!(
        "{direction:?}: {allocs} allocations, {bytes} bytes over {segments} data segments \
         = {per_alloc:.3} allocations and {per_bytes:.1} bytes per segment"
    );
    assert!(
        per_alloc <= max_allocs,
        "{direction:?}: {per_alloc:.3} allocations per data segment, budget {max_allocs}"
    );
    assert!(
        per_bytes <= max_bytes,
        "{direction:?}: {per_bytes:.1} bytes allocated per data segment, budget {max_bytes}"
    );
}

#[test]
fn ftp_send_allocation_budget() {
    check(FtpDirection::Send, SEND_ALLOCS, SEND_BYTES);
}

#[test]
fn ftp_recv_allocation_budget() {
    check(FtpDirection::Recv, RECV_ALLOCS, RECV_BYTES);
}
