//! Host and TCP tuning parameters.

use netsim::SimDuration;
use packet::MacAddr;
use std::net::Ipv4Addr;

/// Parameters of the TCP implementation (1997-era BSD Reno defaults).
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment size announced and used.
    pub mss: usize,
    /// Send buffer size in bytes (unsent + unacknowledged).
    pub send_buf: usize,
    /// Receive window advertised (bytes, ≤ 65535 without window scaling).
    pub recv_wnd: usize,
    /// Lower bound on the retransmission timeout.
    pub min_rto: SimDuration,
    /// Upper bound on the retransmission timeout.
    pub max_rto: SimDuration,
    /// Delayed-ACK timeout.
    pub delack: SimDuration,
    /// Initial congestion window in segments.
    pub init_cwnd_segs: usize,
    /// Initial RTO before any RTT sample exists.
    pub initial_rto: SimDuration,
    /// How long a connection waits in TIME-WAIT (shortened from 2MSL for
    /// simulation turnaround; benchmarks never reuse 4-tuples).
    pub time_wait: SimDuration,
    /// SYN retransmission limit before giving up.
    pub max_syn_retries: u32,
    /// Data retransmission limit before aborting.
    pub max_retries: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            send_buf: 64 * 1024,
            recv_wnd: 48 * 1024,
            min_rto: SimDuration::from_millis(500),
            max_rto: SimDuration::from_secs(64),
            delack: SimDuration::from_millis(200),
            init_cwnd_segs: 2,
            initial_rto: SimDuration::from_secs(3),
            time_wait: SimDuration::from_secs(5),
            max_syn_retries: 8,
            max_retries: 16,
        }
    }
}

/// Static configuration of a simulated host.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Host's IPv4 address.
    pub ip: Ipv4Addr,
    /// Host's MAC address.
    pub mac: MacAddr,
    /// Static ARP table: next-hop MAC per destination IP, one entry per
    /// IP (hosts here have one or two, so a lookup is a short scan).
    /// Destinations not listed are sent to the broadcast MAC (our
    /// single-segment topologies deliver those fine).
    pub arp: Vec<(Ipv4Addr, MacAddr)>,
    /// Per-frame host processing cost (driver + protocol + copy overhead).
    /// Models the paper's 75 MHz 486 laptop, which kept a 10 Mb/s Ethernet
    /// from ever running at wire speed. Applied as output pacing.
    pub cpu_per_frame: SimDuration,
    /// Maximum IP datagram size on the link (Ethernet: 1500). Larger
    /// datagrams are fragmented on output and reassembled on input.
    pub mtu: usize,
    /// TCP parameters.
    pub tcp: TcpConfig,
    /// Diagnostic name.
    pub name: String,
}

impl HostConfig {
    /// A host with the given address and no CPU cost.
    pub fn new(name: &str, ip: Ipv4Addr, mac: MacAddr) -> Self {
        HostConfig {
            ip,
            mac,
            arp: Vec::new(),
            cpu_per_frame: SimDuration::ZERO,
            mtu: 1500,
            tcp: TcpConfig::default(),
            name: name.to_string(),
        }
    }

    /// Set the per-frame CPU cost.
    pub fn with_cpu(mut self, cost: SimDuration) -> Self {
        self.cpu_per_frame = cost;
        self
    }

    /// Add a static ARP entry, replacing any earlier one for `ip`.
    pub fn with_arp(mut self, ip: Ipv4Addr, mac: MacAddr) -> Self {
        match self.arp.iter_mut().find(|(known, _)| *known == ip) {
            Some(entry) => entry.1 = mac,
            None => self.arp.push((ip, mac)),
        }
        self
    }

    /// The static ARP entry for `ip`, if any.
    pub fn arp_lookup(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.arp
            .iter()
            .find(|(known, _)| *known == ip)
            .map(|&(_, mac)| mac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let cfg = HostConfig::new("h", Ipv4Addr::new(10, 0, 0, 1), MacAddr::local(1))
            .with_cpu(SimDuration::from_millis(1))
            .with_arp(Ipv4Addr::new(10, 0, 0, 2), MacAddr::local(2));
        assert_eq!(cfg.cpu_per_frame, SimDuration::from_millis(1));
        assert_eq!(
            cfg.arp_lookup(Ipv4Addr::new(10, 0, 0, 2)),
            Some(MacAddr::local(2))
        );
        assert_eq!(cfg.tcp.mss, 1460);
    }

    #[test]
    fn default_tcp_sane() {
        let t = TcpConfig::default();
        assert!(t.recv_wnd <= 65535);
        assert!(t.min_rto < t.max_rto);
        assert!(t.init_cwnd_segs >= 1);
    }
}
