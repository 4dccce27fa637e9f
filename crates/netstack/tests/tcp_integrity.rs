//! Property-based integrity tests for the TCP implementation: under
//! arbitrary packet loss, duplication, and delay patterns, every byte the
//! sender's application queued must be delivered to the receiver's
//! application exactly once, in order.

use netsim::{Context, EventKind, LinkParams, Node, SimDuration, SimTime, Simulator};
use netstack::{start_host, App, AppEvent, Host, HostApi, HostConfig, TcpHandle, NIC_PORT};
use packet::MacAddr;
use proptest::prelude::*;
use std::net::Ipv4Addr;

const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// A relay node that drops/duplicates frames according to a scripted
/// pattern (deterministic for shrinking).
struct Gremlin {
    pattern: Vec<u8>, // 0 = pass, 1 = drop, 2 = duplicate
    idx: usize,
    delay: SimDuration,
    /// FNV-1a over the length and bytes of every frame forwarded, in order.
    digest: u64,
}

impl Gremlin {
    fn forward(&mut self, out: netsim::PortId, frame: netsim::Frame, ctx: &mut Context<'_>) {
        let len = (frame.data.len() as u32).to_le_bytes();
        for &b in len.iter().chain(&frame.data) {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        ctx.send(out, frame);
    }
}

impl Node for Gremlin {
    fn on_event(&mut self, event: EventKind, ctx: &mut Context<'_>) {
        if let EventKind::Deliver { port, frame } = event {
            let action = self.pattern[self.idx % self.pattern.len()];
            self.idx += 1;
            let out = netsim::PortId(1 - port.0);
            match action {
                1 => {} // dropped
                2 => {
                    self.forward(out, frame.clone(), ctx);
                    self.forward(out, frame, ctx);
                }
                _ => self.forward(out, frame, ctx),
            }
            let _ = self.delay;
        }
    }
}

/// Sends a deterministic byte pattern, then closes.
struct PatternSender {
    dst: (Ipv4Addr, u16),
    total: usize,
    sent: usize,
    conn: Option<TcpHandle>,
}

fn pattern_byte(i: usize) -> u8 {
    (i as u32).wrapping_mul(2654435761).to_le_bytes()[0]
}

impl PatternSender {
    fn pump(&mut self, api: &mut HostApi<'_, '_>) {
        let Some(conn) = self.conn else { return };
        while self.sent < self.total {
            let chunk: Vec<u8> = (self.sent..(self.sent + 1024).min(self.total))
                .map(pattern_byte)
                .collect();
            let n = api.tcp_send(conn, &chunk);
            self.sent += n;
            if n < chunk.len() {
                return;
            }
        }
        api.tcp_close(conn);
    }
}

impl App for PatternSender {
    fn on_event(&mut self, event: AppEvent, api: &mut HostApi<'_, '_>) {
        match event {
            AppEvent::Start => self.conn = Some(api.tcp_connect(self.dst)),
            AppEvent::TcpConnected { .. } | AppEvent::TcpSendSpace { .. } => self.pump(api),
            _ => {}
        }
    }
}

/// Verifies the byte pattern as it arrives.
struct PatternSink {
    port: u16,
    received: usize,
    corrupt: bool,
    complete: bool,
}

impl App for PatternSink {
    fn on_event(&mut self, event: AppEvent, api: &mut HostApi<'_, '_>) {
        match event {
            AppEvent::Start => api.tcp_listen(self.port),
            AppEvent::TcpData { data, .. } => {
                for b in data {
                    if b != pattern_byte(self.received) {
                        self.corrupt = true;
                    }
                    self.received += 1;
                }
            }
            AppEvent::TcpPeerClosed { conn } => {
                self.complete = true;
                api.tcp_close(conn);
            }
            _ => {}
        }
    }
}

/// A sender and a sink joined through a `Gremlin`, started but not run.
struct Rig {
    sim: Simulator,
    na: netsim::NodeId,
    nb: netsim::NodeId,
    g: netsim::NodeId,
    sender: netstack::AppId,
    sink: netstack::AppId,
}

fn rig(total: usize, pattern: Vec<u8>) -> Rig {
    let mut host_a =
        Host::new(HostConfig::new("a", IP_A, MacAddr::local(1)).with_arp(IP_B, MacAddr::local(2)));
    let sender = host_a.add_app(Box::new(PatternSender {
        dst: (IP_B, 7777),
        total,
        sent: 0,
        conn: None,
    }));
    let mut host_b =
        Host::new(HostConfig::new("b", IP_B, MacAddr::local(2)).with_arp(IP_A, MacAddr::local(1)));
    let sink = host_b.add_app(Box::new(PatternSink {
        port: 7777,
        received: 0,
        corrupt: false,
        complete: false,
    }));

    let mut sim = Simulator::new(1);
    let na = sim.add_node(Box::new(host_a));
    let nb = sim.add_node(Box::new(host_b));
    let g = sim.add_node(Box::new(Gremlin {
        pattern,
        idx: 0,
        delay: SimDuration::ZERO,
        digest: 0xcbf2_9ce4_8422_2325,
    }));
    let link = LinkParams::new(10_000_000, SimDuration::from_micros(100), 64);
    sim.connect_sym(na, NIC_PORT, g, netsim::PortId(0), link);
    sim.connect_sym(nb, NIC_PORT, g, netsim::PortId(1), link);
    start_host(&mut sim, nb, SimTime::ZERO);
    start_host(&mut sim, na, SimTime::from_millis(1));
    Rig {
        sim,
        na,
        nb,
        g,
        sender,
        sink,
    }
}

fn run_transfer(total: usize, pattern: Vec<u8>) -> (usize, bool, bool) {
    let mut r = rig(total, pattern);
    r.sim.run_until(SimTime::from_secs(1800));
    let s: &PatternSink = r.sim.node::<Host>(r.nb).app(r.sink);
    (s.received, s.corrupt, s.complete)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any loss/duplication pattern with at least some passes must
    /// deliver every byte exactly once, in order.
    #[test]
    fn data_integrity_under_adversarial_wire(
        total in 1usize..300_000,
        // Action pattern: weight passes heavily enough that progress is
        // possible, but include plenty of drops and duplicates.
        pattern in proptest::collection::vec(
            prop_oneof![4 => Just(0u8), 1 => Just(1u8), 1 => Just(2u8)],
            4..48
        ),
    ) {
        // Guarantee the pattern is survivable (not all drops).
        prop_assume!(pattern.iter().any(|&a| a != 1));
        let (received, corrupt, complete) = run_transfer(total, pattern);
        prop_assert!(!corrupt, "byte stream corrupted");
        prop_assert!(complete, "transfer did not complete (received {received}/{total})");
        prop_assert_eq!(received, total);
    }
}

#[test]
fn clean_wire_fast_path() {
    let (received, corrupt, complete) = run_transfer(100_000, vec![0]);
    assert!(!corrupt && complete);
    assert_eq!(received, 100_000);
}

#[test]
fn heavy_loss_still_delivers() {
    // Every third frame dropped: brutal, but TCP must still finish.
    let (received, corrupt, complete) = run_transfer(30_000, vec![0, 0, 1]);
    assert!(!corrupt, "corrupted under heavy loss");
    assert!(complete, "did not complete under heavy loss");
    assert_eq!(received, 30_000);
}

#[test]
fn duplication_storm_is_harmless() {
    let (received, corrupt, complete) = run_transfer(30_000, vec![2]);
    assert!(!corrupt && complete);
    assert_eq!(received, 30_000);
}

/// Pins every byte on the wire for one lossy patterned transfer. The
/// payload is `pattern_byte`, so a segment copied from the wrong offset of
/// the send buffer changes the digest even when it is a retransmission
/// the sink discards as a duplicate without checking. The pattern (drops and duplicates in both
/// directions) makes the sender fast-retransmit and take an RTO, and the
/// 300 KB transfer fills and wraps the 64 KiB send buffer many times.
#[test]
fn lossy_transfer_wire_bytes_are_pinned() {
    const TOTAL: usize = 300_000;
    let mut pattern = vec![0; 63];
    pattern[25] = 1;
    pattern[33] = 2;
    pattern[57..60].fill(1);
    let mut r = rig(TOTAL, pattern);
    // Step the run so the sender's counters can be read before its
    // connection is reaped; the counters only ever grow.
    let (mut fast_retransmits, mut timeouts) = (0, 0);
    let mut t = SimTime::ZERO;
    while t < SimTime::from_secs(1800) {
        t += SimDuration::from_millis(50);
        r.sim.run_until(t);
        let host = r.sim.node::<Host>(r.na);
        let handle = host.app::<PatternSender>(r.sender).conn;
        if let Some(c) = handle.and_then(|h| host.core().tcp().conn(h)) {
            (fast_retransmits, timeouts) = (c.fast_retransmits, c.timeouts);
        }
    }
    let s: &PatternSink = r.sim.node::<Host>(r.nb).app(r.sink);
    assert!(!s.corrupt && s.complete);
    assert_eq!(s.received, TOTAL);
    assert!(
        fast_retransmits > 0,
        "pattern must trigger a fast retransmit"
    );
    assert!(timeouts > 0, "pattern must trigger an RTO");
    let g: &Gremlin = r.sim.node(r.g);
    assert_eq!(
        (g.idx, fast_retransmits, timeouts, g.digest),
        (440, 10, 9, 5985692972096269862),
        "wire bytes changed"
    );
}
