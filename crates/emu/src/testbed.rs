//! Testbed construction: the two physical setups of §5.1.
//!
//! * **Live / collection testbed** — the ThinkPad laptop reaches the
//!   server through the WaveLAN wireless channel (scenario-driven),
//!   whose wired side joins a 10 Mb/s campus Ethernet segment.
//! * **Modulation testbed** — the same two machines on an isolated
//!   10 Mb/s Ethernet, with the modulation layer on the laptop.
//!
//! Host CPU costs model the paper's hardware: an IBM ThinkPad 701c
//! (75 MHz 486) and an Intel Pentium 90 server — the reason the paper's
//! Ethernet FTP baseline runs at ~4 Mb/s rather than wire speed.

use netsim::{LinkParams, NodeId, SimDuration, SimTime, Simulator};
use netstack::{start_host, Host, HostConfig, NIC_PORT};
use packet::MacAddr;
use std::net::Ipv4Addr;
use wavelan::WirelessChannel;

/// The laptop's address.
pub const LAPTOP_IP: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 1);
/// The server's address.
pub const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 2);

/// Hardware parameters of the two machines.
#[derive(Debug, Clone, Copy)]
pub struct Hardware {
    /// Laptop per-frame CPU cost (75 MHz 486 ThinkPad).
    pub laptop_cpu: SimDuration,
    /// Server per-frame CPU cost (Pentium 90).
    pub server_cpu: SimDuration,
}

impl Default for Hardware {
    fn default() -> Self {
        Hardware {
            laptop_cpu: SimDuration::from_micros(2650),
            server_cpu: SimDuration::from_micros(350),
        }
    }
}

/// A constructed testbed.
pub struct Testbed {
    /// The simulator (seeded per trial).
    pub sim: Simulator,
    /// The mobile/modulated host node.
    pub laptop: NodeId,
    /// The server node.
    pub server: NodeId,
    /// The wireless channel node, when present.
    pub channel: Option<NodeId>,
}

impl Testbed {
    /// Start both hosts' applications (server first, laptop 10 ms later
    /// so listeners are up).
    pub fn start(&mut self) {
        start_host(&mut self.sim, self.server, SimTime::ZERO);
        start_host(&mut self.sim, self.laptop, SimTime::from_millis(10));
    }

    /// Borrow the laptop host.
    pub fn laptop_host(&self) -> &Host {
        self.sim.node(self.laptop)
    }
}

fn host_configs(hw: Hardware) -> (HostConfig, HostConfig) {
    let laptop = HostConfig::new("thinkpad", LAPTOP_IP, MacAddr::local(1))
        .with_cpu(hw.laptop_cpu)
        .with_arp(SERVER_IP, MacAddr::local(2));
    let server = HostConfig::new("server", SERVER_IP, MacAddr::local(2))
        .with_cpu(hw.server_cpu)
        .with_arp(LAPTOP_IP, MacAddr::local(1));
    (laptop, server)
}

/// Build the live/collection testbed around a prepared wireless channel.
/// `setup` installs applications (and optionally a tracer) on the laptop
/// and server hosts before they join the simulation.
pub fn build_wireless<T>(
    seed: u64,
    hw: Hardware,
    channel: WirelessChannel,
    setup: impl FnOnce(&mut Host, &mut Host) -> T,
) -> (Testbed, T) {
    let (lc, sc) = host_configs(hw);
    let mut laptop = Host::new(lc);
    let mut server = Host::new(sc);
    let out = setup(&mut laptop, &mut server);
    let mut sim = Simulator::new(seed);
    let nl = sim.add_node(Box::new(laptop));
    let ns = sim.add_node(Box::new(server));
    // Laptop attaches to the channel's mobile port via an instant link
    // (the channel owns all wireless delay); the channel's wired side
    // reaches the server over the campus 10 Mb/s Ethernet.
    let ch = channel.install_with_wired(
        &mut sim,
        (nl, NIC_PORT),
        (ns, NIC_PORT),
        LinkParams::ethernet_10mbps(),
    );
    (
        Testbed {
            sim,
            laptop: nl,
            server: ns,
            channel: Some(ch),
        },
        out,
    )
}

/// Build the isolated-Ethernet modulation testbed.
pub fn build_ethernet<T>(
    seed: u64,
    hw: Hardware,
    setup: impl FnOnce(&mut Host, &mut Host) -> T,
) -> (Testbed, T) {
    let (lc, sc) = host_configs(hw);
    let mut laptop = Host::new(lc);
    let mut server = Host::new(sc);
    let out = setup(&mut laptop, &mut server);
    let mut sim = Simulator::new(seed);
    let nl = sim.add_node(Box::new(laptop));
    let ns = sim.add_node(Box::new(server));
    sim.connect_sym(nl, NIC_PORT, ns, NIC_PORT, LinkParams::ethernet_10mbps());
    (
        Testbed {
            sim,
            laptop: nl,
            server: ns,
            channel: None,
        },
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimRng;
    use wavelan::Scenario;

    #[test]
    fn ethernet_testbed_carries_traffic() {
        use workloads::{FtpClient, FtpDirection, FtpServer};
        let (mut tb, app) = build_ethernet(1, Hardware::default(), |laptop, server| {
            server.add_app(Box::new(FtpServer::new()));
            laptop.add_app(Box::new(FtpClient::new(
                SERVER_IP,
                FtpDirection::Send,
                500_000,
            )))
        });
        tb.start();
        tb.sim.run_until(SimTime::from_secs(30));
        let c: &workloads::FtpClient = tb.laptop_host().app(app);
        assert!(c.is_done());
        // 500 KB at the CPU-limited ~4.4 Mb/s ≈ 0.9–1.5 s.
        let secs = c.elapsed().unwrap().as_secs_f64();
        assert!((0.8..3.0).contains(&secs), "{secs}");
    }

    #[test]
    fn wireless_testbed_is_slower_than_ethernet() {
        use workloads::{FtpClient, FtpDirection, FtpServer};
        let mut trial_rng = SimRng::seed_from_u64(7);
        let channel = Scenario::porter().channel(&mut trial_rng);
        let (mut tb, app) = build_wireless(1, Hardware::default(), channel, |laptop, server| {
            server.add_app(Box::new(FtpServer::new()));
            laptop.add_app(Box::new(FtpClient::new(
                SERVER_IP,
                FtpDirection::Send,
                500_000,
            )))
        });
        tb.start();
        tb.sim.run_until(SimTime::from_secs(120));
        let c: &workloads::FtpClient = tb.laptop_host().app(app);
        assert!(c.is_done());
        let secs = c.elapsed().unwrap().as_secs_f64();
        // 500 KB over ~1.5 Mb/s WaveLAN ≥ 2.6 s, plus losses.
        assert!(secs > 2.4, "{secs}");
    }

    #[test]
    fn hardware_baseline_ftp_rate_matches_paper_scale() {
        use workloads::{FtpClient, FtpDirection, FtpServer};
        // The paper's Ethernet row: 10 MB send ≈ 20.5 s, recv ≈ 18.8 s.
        for dir in [FtpDirection::Send, FtpDirection::Recv] {
            let (mut tb, app) = build_ethernet(2, Hardware::default(), |laptop, server| {
                server.add_app(Box::new(FtpServer::new()));
                laptop.add_app(Box::new(FtpClient::new(SERVER_IP, dir, 10_000_000)))
            });
            tb.start();
            tb.sim.run_until(SimTime::from_secs(120));
            let c: &workloads::FtpClient = tb.laptop_host().app(app);
            assert!(c.is_done(), "{dir:?}");
            let secs = c.elapsed().unwrap().as_secs_f64();
            assert!((15.0..26.0).contains(&secs), "{dir:?}: {secs}");
        }
    }
}
