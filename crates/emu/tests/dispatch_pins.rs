//! Pins the single-client event core's dispatch order. A passive
//! [`FrameHook`] folds every link transit and tail-drop into an FNV-1a
//! digest; together with the engine's event count and peak queue depth
//! it fixes the exact `(due, seq)` order in which three fixed runs fire:
//!
//! * a 1 MB FTP fetch between two hosts on a 10 Mb/s Ethernet;
//! * live Web runs (trial 1) over the WaveLAN channel: Wean, with
//!   channel losses, and Chatterbox, with cross traffic as well.
//!
//! Any change to how the core queues events must leave all three
//! numbers untouched.
//!
//! Each run also pins its transits as an order-insensitive multiset:
//! the sorted `(arrival, sent, from, to, FNV(bytes))` of every transit
//! and tail-drop (a drop's arrival reads `u64::MAX`). A change that
//! moves when an event is queued, but not what crosses a link or when,
//! leaves the multiset as it is while the order digest moves. An
//! Ethernet Web run pins the multiset of the modulation testbed.
//!
//! The Wean run also pins the laptop's TCP-timer fires, and a stepped
//! replay of it checks that no host fires its TCP timer twice at one
//! instant: a host queues at most one TCP-timer event per instant.

use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

use emu::workload::is_done;
use emu::{
    build_ethernet, build_wireless, ethernet_run, install, live_run, run_to_completion, Benchmark,
    Hardware, Installed, RunConfig, Testbed,
};
use netsim::{EventCounts, FrameHook, LinkParams, NodeId, SimRng, SimTime, Simulator};
use netstack::{start_host, Host, HostConfig, NIC_PORT};
use packet::MacAddr;
use wavelan::{ChannelStats, Scenario, WirelessChannel};
use workloads::{FtpClient, FtpDirection, FtpServer};

/// One transit or tail-drop: `(arrival, sent, from, to, FNV(bytes))`.
type Transit = (u64, u64, u64, u64, u64);

/// What the hook has seen: the order-sensitive digest, the transit and
/// drop counts, and every transit as a multiset entry.
struct Seen {
    order: u64,
    transits: u64,
    drops: u64,
    multiset: Vec<Transit>,
}

/// FNV-1a over every hooked frame, shared with the test body.
#[derive(Clone)]
struct Digest(Arc<Mutex<Seen>>);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: impl IntoIterator<Item = u8>) {
    for b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

impl Digest {
    fn new() -> Self {
        Digest(Arc::new(Mutex::new(Seen {
            order: FNV_OFFSET,
            transits: 0,
            drops: 0,
            multiset: Vec::new(),
        })))
    }

    fn fold(&self, tag: u8, words: [u64; 4], bytes: &[u8]) {
        let mut g = self.0.lock().unwrap();
        let h = &mut g.order;
        fnv(h, [tag]);
        for w in words {
            fnv(h, w.to_le_bytes());
        }
        fnv(h, (bytes.len() as u64).to_le_bytes());
        fnv(h, bytes.iter().copied());
        let mut body = FNV_OFFSET;
        fnv(&mut body, bytes.iter().copied());
        let arrival = if tag == b't' { words[3] } else { u64::MAX };
        g.multiset
            .push((arrival, words[2], words[0], words[1], body));
        if tag == b't' {
            g.transits += 1;
        } else {
            g.drops += 1;
        }
    }

    /// `(digest, transits, drops)`.
    fn read(&self) -> (u64, u64, u64) {
        let g = self.0.lock().unwrap();
        (g.order, g.transits, g.drops)
    }

    /// FNV-1a over the sorted multiset, and its size.
    fn multiset(&self) -> (u64, usize) {
        let mut set = self.0.lock().unwrap().multiset.clone();
        set.sort_unstable();
        let mut h = FNV_OFFSET;
        for (a, s, f, t, b) in &set {
            for w in [a, s, f, t, b] {
                fnv(&mut h, w.to_le_bytes());
            }
        }
        (h, set.len())
    }
}

impl FrameHook for Digest {
    fn on_transit(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: &[u8],
        sent: SimTime,
        arrival: SimTime,
    ) {
        let words = [
            from.0 as u64,
            to.0 as u64,
            sent.as_nanos(),
            arrival.as_nanos(),
        ];
        self.fold(b't', words, bytes);
    }

    fn on_link_drop(&mut self, from: NodeId, to: NodeId, bytes: &[u8], now: SimTime) {
        self.fold(b'd', [from.0 as u64, to.0 as u64, now.as_nanos(), 0], bytes);
    }
}

/// The transit multisets' digests (`Digest::multiset`).
const MULTISET_FTP: u64 = 0x426beae8588cfe61;
const MULTISET_WEAN: u64 = 0x861a2960514bb5df;
const MULTISET_CHATTERBOX: u64 = 0x6e3a89d888ab3598;
const MULTISET_ETHERNET_WEB: u64 = 0x296aaee0fbe9c53c;

#[test]
fn ftp_fetch_dispatches_in_the_pinned_order() {
    let ip_c = Ipv4Addr::new(10, 0, 0, 1);
    let ip_s = Ipv4Addr::new(10, 0, 0, 2);
    let mut client = Host::new(
        HostConfig::new("client", ip_c, MacAddr::local(1)).with_arp(ip_s, MacAddr::local(2)),
    );
    let app = client.add_app(Box::new(FtpClient::new(
        ip_s,
        FtpDirection::Recv,
        1_000_000,
    )));
    let mut server = Host::new(
        HostConfig::new("server", ip_s, MacAddr::local(2)).with_arp(ip_c, MacAddr::local(1)),
    );
    server.add_app(Box::new(FtpServer::new()));

    let mut sim = Simulator::new(11);
    let digest = Digest::new();
    sim.set_frame_hook(Box::new(digest.clone()));
    let nc = sim.add_node(Box::new(client));
    let ns = sim.add_node(Box::new(server));
    sim.connect_sym(nc, NIC_PORT, ns, NIC_PORT, LinkParams::ethernet_10mbps());
    start_host(&mut sim, ns, SimTime::ZERO);
    start_host(&mut sim, nc, SimTime::from_millis(10));
    sim.run_until(SimTime::from_secs(120));

    assert!(sim.node::<Host>(nc).app::<FtpClient>(app).is_done());
    assert_eq!(sim.events_processed(), 1057);
    assert_eq!(sim.peak_queue_depth(), 39);
    assert_eq!(digest.read(), (0x1a9f6f6a7acbcf36, 1044, 0));
    assert_eq!(digest.multiset(), (MULTISET_FTP, 1044));
}

/// The testbed of a live Web run (trial 1) on `scenario`, seeded as
/// `live_run` seeds it, not yet started.
fn web_testbed(scenario: &Scenario) -> (Testbed, Installed) {
    let seed = |purpose: u64| {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ purpose;
        for b in scenario.name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^ 1 << 32
    };
    let channel = scenario.channel(&mut SimRng::seed_from_u64(seed(3)));
    build_wireless(seed(4), Hardware::default(), channel, |l, s| {
        install(Benchmark::Web, l, s)
    })
}

/// A live Web run (trial 1) on `scenario` with the digest hook installed:
/// `(hook, events, peak depth, channel stats, laptop TCP-timer fires)`.
fn hooked_web_run(scenario: &Scenario) -> (Digest, u64, usize, ChannelStats, u64) {
    let (mut tb, inst) = web_testbed(scenario);
    let digest = Digest::new();
    tb.sim.set_frame_hook(Box::new(digest.clone()));
    let result = run_to_completion(&mut tb, &inst);

    // The hooked run is `live_run`'s run: the hook is passive.
    let live = live_run(scenario, 1, Benchmark::Web, &RunConfig::default());
    assert!(result.elapsed.is_some(), "the Web run completes");
    assert_eq!(
        result.elapsed.map(f64::to_bits),
        live.elapsed.map(f64::to_bits)
    );
    let stats = tb
        .sim
        .node::<WirelessChannel>(tb.channel.expect("wireless testbed"))
        .stats();
    (
        digest,
        tb.sim.events_processed(),
        tb.sim.peak_queue_depth(),
        stats,
        tb.laptop_host().core().stats().tcp_timer_fires,
    )
}

#[test]
fn wean_web_run_dispatches_in_the_pinned_order() {
    let (digest, events, peak, cs, tcp_timer_fires) = hooked_web_run(&Scenario::wean());
    assert!(cs.dropped > 0, "channel losses: {cs:?}");
    assert_eq!(events, 14317);
    assert_eq!(tcp_timer_fires, 389);
    assert_eq!(peak, 125);
    assert_eq!(digest.read(), (0x918d077bf6b9228d, 7356, 0));
    assert_eq!(digest.multiset(), (MULTISET_WEAN, 7356));
}

#[test]
fn chatterbox_web_run_dispatches_in_the_pinned_order() {
    // Wean has no cross traffic; Chatterbox is the scenario that does.
    let (digest, events, peak, cs, _) = hooked_web_run(&Scenario::chatterbox());
    assert!(cs.cross_frames > 0 && cs.dropped > 0, "{cs:?}");
    assert_eq!(events, 14640);
    assert_eq!(peak, 148);
    assert_eq!(digest.read(), (0x47be1f7cb0f756b5, 7339, 0));
    assert_eq!(digest.multiset(), (MULTISET_CHATTERBOX, 7339));
}

#[test]
fn ethernet_web_run_transits_the_pinned_multiset() {
    // `ethernet_run`'s trial-1 seed: FNV-1a of "ethernet" over purpose 6.
    let mut seed = FNV_OFFSET ^ 6;
    fnv(&mut seed, "ethernet".bytes());
    let (mut tb, inst) = build_ethernet(seed ^ 1 << 32, Hardware::default(), |l, s| {
        install(Benchmark::Web, l, s)
    });
    let digest = Digest::new();
    tb.sim.set_frame_hook(Box::new(digest.clone()));
    let result = run_to_completion(&mut tb, &inst);
    let plain = ethernet_run(1, Benchmark::Web, &RunConfig::default());
    assert!(result.elapsed.is_some(), "the Web run completes");
    assert_eq!(
        result.elapsed.map(f64::to_bits),
        plain.elapsed.map(f64::to_bits)
    );
    assert_eq!(digest.multiset(), (MULTISET_ETHERNET_WEB, 3656));
}

/// Work counts, not wall time: the live Wean Web run (trial 1), run on
/// until its queue drains, spends one event per hop. Every `Deliver`
/// is a link transit; every `Held` is a receive-CPU hold, one per frame
/// a host took off the wire. So the channel holds no frame between its
/// hops, and neither untapped host holds a frame it transmits.
#[test]
fn wean_web_run_spends_one_event_per_hop() {
    let (mut tb, inst) = web_testbed(&Scenario::wean());
    let digest = Digest::new();
    tb.sim.set_frame_hook(Box::new(digest.clone()));
    assert!(run_to_completion(&mut tb, &inst).elapsed.is_some());
    tb.sim.run(u64::MAX);
    let counts = tb.sim.events_by_kind();
    let stats = [tb.laptop, tb.server].map(|h| tb.sim.node::<Host>(h).core().stats());
    let cs = tb
        .sim
        .node::<WirelessChannel>(tb.channel.expect("wireless testbed"))
        .stats();

    assert!(stats.iter().all(|s| s.tx_holds == 0), "{stats:?}");
    let (_, transits, drops) = digest.read();
    assert_eq!((counts.deliver, drops), (transits, 0), "one event per hop");
    let frames_in: u64 = stats.iter().map(|s| s.frames_in).sum();
    assert_eq!(
        counts.held, frames_in,
        "every held frame waits for a receive CPU"
    );
    // A relayed frame transits twice: onto the channel and off it.
    assert_eq!(transits, 2 * (cs.up_frames + cs.down_frames) + cs.dropped);
    assert_eq!(
        counts,
        EventCounts {
            deliver: 7356,
            timer: 4167,
            held: 3665,
        }
    );
}

#[test]
fn wean_web_run_fires_each_tcp_timer_once_per_host_instant() {
    let (mut tb, inst) = web_testbed(&Scenario::wean());
    tb.start();
    let hosts = [tb.laptop, tb.server];
    // Per host: TCP-timer fires so far and the instant of the last one.
    let mut seen = [(0u64, None); 2];
    while !is_done(&tb, &inst) {
        assert_eq!(tb.sim.run(1), 1, "the Web run completes");
        let now = tb.sim.now();
        for (&host, (fires, last)) in hosts.iter().zip(&mut seen) {
            let n = tb.sim.node::<Host>(host).core().stats().tcp_timer_fires;
            if n > *fires {
                assert_ne!(*last, Some(now), "{host:?}: two TCP-timer fires at {now:?}");
                (*fires, *last) = (n, Some(now));
            }
        }
    }
    assert!(seen.iter().all(|&(fires, _)| fires > 0), "{seen:?}");
}
