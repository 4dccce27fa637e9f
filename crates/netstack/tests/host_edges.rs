//! Host-level edge cases: shim drop accounting, address filtering,
//! automatic ICMP echo response, and UDP to unbound ports.

use netsim::{LinkParams, SimRng, SimTime, Simulator};
use netstack::{
    start_host, App, AppEvent, Direction, Host, HostApi, HostConfig, LinkShim, ShimRelease,
    ShimVerdict, NIC_PORT,
};
use packet::{EtherHeader, EtherType, IcmpMessage, IpProtocol, Ipv4Header, MacAddr, UdpHeader};
use std::net::Ipv4Addr;

const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Shim that drops everything.
struct BlackHole;
impl LinkShim for BlackHole {
    fn offer(&mut self, _d: Direction, _b: Vec<u8>, _n: SimTime, _r: &mut SimRng) -> ShimVerdict {
        ShimVerdict::Drop
    }
    fn next_wakeup(&self) -> Option<SimTime> {
        None
    }
    fn collect_due_into(&mut self, _n: SimTime, _r: &mut SimRng, _o: &mut Vec<ShimRelease>) {}
}

/// App that sends one ping at start and counts replies.
struct OnePing {
    dst: Ipv4Addr,
    replies: u32,
}
impl App for OnePing {
    fn on_event(&mut self, event: AppEvent, api: &mut HostApi<'_, '_>) {
        match event {
            AppEvent::Start => {
                api.icmp_listen();
                api.send_ping(self.dst, 1, 1, 64);
            }
            AppEvent::IcmpEchoReply { .. } => self.replies += 1,
            _ => {}
        }
    }
}

fn pair(with_shim: bool) -> (Simulator, netsim::NodeId, netsim::NodeId, netstack::AppId) {
    let mut a =
        Host::new(HostConfig::new("a", IP_A, MacAddr::local(1)).with_arp(IP_B, MacAddr::local(2)));
    if with_shim {
        a.set_shim(Box::new(BlackHole));
    }
    let app = a.add_app(Box::new(OnePing {
        dst: IP_B,
        replies: 0,
    }));
    let b =
        Host::new(HostConfig::new("b", IP_B, MacAddr::local(2)).with_arp(IP_A, MacAddr::local(1)));
    let mut sim = Simulator::new(1);
    let na = sim.add_node(Box::new(a));
    let nb = sim.add_node(Box::new(b));
    sim.connect_sym(na, NIC_PORT, nb, NIC_PORT, LinkParams::ethernet_10mbps());
    start_host(&mut sim, na, SimTime::ZERO);
    start_host(&mut sim, nb, SimTime::ZERO);
    (sim, na, nb, app)
}

#[test]
fn blackhole_shim_counts_outbound_drops() {
    let (mut sim, na, nb, app) = pair(true);
    sim.run_until(SimTime::from_secs(2));
    let a: &Host = sim.node(na);
    assert_eq!(a.app::<OnePing>(app).replies, 0);
    assert_eq!(a.core().stats().shim_dropped_out, 1);
    assert_eq!(a.core().stats().frames_out, 0, "drop must precede the wire");
    let b: &Host = sim.node(nb);
    assert_eq!(b.core().stats().frames_in, 0);
}

#[test]
fn icmp_echo_is_answered_automatically() {
    // Host b has no applications at all; its stack answers pings.
    let (mut sim, na, _nb, app) = pair(false);
    sim.run_until(SimTime::from_secs(2));
    let a: &Host = sim.node(na);
    assert_eq!(a.app::<OnePing>(app).replies, 1);
}

/// Two hosts with no applications at all (no background ping traffic).
fn quiet_pair() -> (Simulator, netsim::NodeId, netsim::NodeId) {
    let a =
        Host::new(HostConfig::new("a", IP_A, MacAddr::local(1)).with_arp(IP_B, MacAddr::local(2)));
    let b =
        Host::new(HostConfig::new("b", IP_B, MacAddr::local(2)).with_arp(IP_A, MacAddr::local(1)));
    let mut sim = Simulator::new(1);
    let na = sim.add_node(Box::new(a));
    let nb = sim.add_node(Box::new(b));
    sim.connect_sym(na, NIC_PORT, nb, NIC_PORT, LinkParams::ethernet_10mbps());
    start_host(&mut sim, na, SimTime::ZERO);
    start_host(&mut sim, nb, SimTime::ZERO);
    (sim, na, nb)
}

fn craft_udp(src: Ipv4Addr, dst: Ipv4Addr, dst_mac: MacAddr, dst_port: u16) -> Vec<u8> {
    let udp = UdpHeader {
        src_port: 9999,
        dst_port,
    }
    .emit(b"hello", src, dst);
    let ip = Ipv4Header {
        src,
        dst,
        protocol: IpProtocol::Udp,
        ttl: 64,
        ident: 7,
        total_len: 0,
        more_fragments: false,
        frag_offset: 0,
    }
    .emit(&udp);
    EtherHeader {
        dst: dst_mac,
        src: MacAddr::local(9),
        ethertype: EtherType::Ipv4,
    }
    .emit(&ip)
}

#[test]
fn frames_for_other_macs_and_ips_are_ignored() {
    let (mut sim, _na, nb) = quiet_pair();
    // Frame whose MAC matches host b but whose IP does not: parsed then
    // dropped at the IP layer, with no response traffic.
    let wrong_ip = craft_udp(IP_A, Ipv4Addr::new(10, 0, 0, 99), MacAddr::local(2), 53);
    // Frame for a different MAC entirely: ignored at the device layer.
    let wrong_mac = craft_udp(IP_A, IP_B, MacAddr::local(77), 53);
    for (i, frame) in [wrong_ip, wrong_mac].into_iter().enumerate() {
        sim.schedule_event(
            SimTime::from_millis(100 + i as u64),
            nb,
            netsim::EventKind::Deliver {
                port: NIC_PORT,
                frame: netsim::Frame::new(frame, SimTime::ZERO),
            },
        );
    }
    sim.run_until(SimTime::from_secs(1));
    let b: &Host = sim.node(nb);
    assert_eq!(b.core().stats().frames_in, 2);
    assert_eq!(b.core().stats().frames_out, 0, "must not respond");
    assert_eq!(b.core().stats().parse_errors, 0);
}

#[test]
fn udp_to_unbound_port_is_silently_dropped() {
    let (mut sim, _na, nb) = quiet_pair();
    let frame = craft_udp(IP_A, IP_B, MacAddr::local(2), 4242);
    sim.schedule_event(
        SimTime::from_millis(100),
        nb,
        netsim::EventKind::Deliver {
            port: NIC_PORT,
            frame: netsim::Frame::new(frame, SimTime::ZERO),
        },
    );
    sim.run_until(SimTime::from_secs(1));
    let b: &Host = sim.node(nb);
    assert_eq!(b.core().stats().frames_in, 1);
    assert_eq!(b.core().stats().frames_out, 0);
}

#[test]
fn corrupt_frames_count_as_parse_errors() {
    let (mut sim, _na, nb) = quiet_pair();
    let mut frame = craft_udp(IP_A, IP_B, MacAddr::local(2), 53);
    // Flip a bit inside the IP header so its checksum fails.
    frame[20] ^= 0xff;
    sim.schedule_event(
        SimTime::from_millis(100),
        nb,
        netsim::EventKind::Deliver {
            port: NIC_PORT,
            frame: netsim::Frame::new(frame, SimTime::ZERO),
        },
    );
    sim.run_until(SimTime::from_secs(1));
    let b: &Host = sim.node(nb);
    assert_eq!(b.core().stats().parse_errors, 1);
}

#[test]
fn broadcast_mac_frames_are_accepted() {
    let (mut sim, _na, nb) = quiet_pair();
    // Ping request delivered with broadcast destination MAC: host b must
    // still answer (our single-segment topologies rely on this for
    // unresolved ARP).
    let icmp = IcmpMessage::Echo {
        ident: 5,
        seq: 9,
        payload: vec![0u8; 16],
    }
    .emit();
    let ip = Ipv4Header {
        src: IP_A,
        dst: IP_B,
        protocol: IpProtocol::Icmp,
        ttl: 64,
        ident: 3,
        total_len: 0,
        more_fragments: false,
        frag_offset: 0,
    }
    .emit(&icmp);
    let frame = EtherHeader {
        dst: MacAddr::BROADCAST,
        src: MacAddr::local(1),
        ethertype: EtherType::Ipv4,
    }
    .emit(&ip);
    sim.schedule_event(
        SimTime::from_millis(100),
        nb,
        netsim::EventKind::Deliver {
            port: NIC_PORT,
            frame: netsim::Frame::new(frame, SimTime::ZERO),
        },
    );
    sim.run_until(SimTime::from_secs(1));
    let b: &Host = sim.node(nb);
    assert_eq!(b.core().stats().frames_out, 1, "echo reply expected");
}
