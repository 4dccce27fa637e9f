//! # packet — byte-level wire formats
//!
//! Real serialization for Ethernet II, IPv4, ICMP echo, UDP, and TCP,
//! with RFC 1071 checksums. The simulated stack (`netstack`) carries
//! frames as raw bytes and parses at every layer boundary — exactly where
//! the paper's tracing hooks (device layer) and modulation layer (between
//! IP and Ethernet) sit, so those components operate on genuine packets.
//!
//! ```
//! use packet::{EtherHeader, EtherType, MacAddr, Ipv4Header, IpProtocol, IcmpMessage};
//! use std::net::Ipv4Addr;
//!
//! let icmp = IcmpMessage::Echo { ident: 1, seq: 1, payload: vec![0; 56] }.emit();
//! let ip = Ipv4Header {
//!     src: Ipv4Addr::new(10, 0, 0, 1),
//!     dst: Ipv4Addr::new(10, 0, 0, 2),
//!     protocol: IpProtocol::Icmp,
//!     ttl: 64,
//!     ident: 1,
//!     total_len: 0,
//!     more_fragments: false,
//!     frag_offset: 0,
//! }.emit(&icmp);
//! let frame = EtherHeader {
//!     dst: MacAddr::local(2),
//!     src: MacAddr::local(1),
//!     ethertype: EtherType::Ipv4,
//! }.emit(&ip);
//!
//! let (eh, ip_bytes) = EtherHeader::parse(&frame).unwrap();
//! assert_eq!(eh.ethertype, EtherType::Ipv4);
//! let (ih, icmp_bytes) = Ipv4Header::parse(ip_bytes).unwrap();
//! assert_eq!(ih.protocol, IpProtocol::Icmp);
//! assert!(matches!(IcmpMessage::parse(icmp_bytes).unwrap(),
//!                  IcmpMessage::Echo { seq: 1, .. }));
//! ```

#![warn(missing_docs)]

pub mod checksum;
mod error;
mod ether;
mod icmp;
mod ipv4;
mod tcp;
mod udp;

pub use error::{ParseError, Result};
pub use ether::{EtherHeader, EtherType, MacAddr, ETHER_HEADER_LEN};
pub use icmp::{IcmpMessage, ICMP_ECHO_HEADER_LEN};
pub use ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
pub use tcp::{TcpFlags, TcpHeader, TCP_HEADER_LEN};
pub use udp::{UdpHeader, UDP_HEADER_LEN};

/// Bytes a frame built in place reserves in front of its transport
/// header: room for [`EtherHeader::write`] and [`Ipv4Header::write`].
pub const LINK_IP_HEADROOM: usize = ETHER_HEADER_LEN + IPV4_HEADER_LEN;

/// A buffer of `headroom` zero bytes followed by a copy of `payload`,
/// allocated once at its final size; a header `write` then fills the
/// front.
pub fn with_headroom(headroom: usize, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(headroom + payload.len());
    out.resize(headroom, 0);
    out.extend_from_slice(payload);
    out
}

/// Convenience: on-wire size of a UDP datagram frame.
pub fn udp_frame_len(payload: usize) -> usize {
    ETHER_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + payload
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_len_helpers() {
        assert_eq!(udp_frame_len(100), 142);
    }
}
