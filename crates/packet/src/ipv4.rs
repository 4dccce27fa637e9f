//! IPv4 header codec (no options on emit; options skipped on parse).

use crate::checksum::checksum;
use crate::error::{ParseError, Result};
use std::net::Ipv4Addr;

/// IP protocol numbers we speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(p: IpProtocol) -> u8 {
        match p {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }
}

/// Minimum (and emitted) IPv4 header length.
pub const IPV4_HEADER_LEN: usize = 20;

/// An IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Carried protocol.
    pub protocol: IpProtocol,
    /// Time to live.
    pub ttl: u8,
    /// Identification field (used by tracing and reassembly to correlate
    /// packets/fragments).
    pub ident: u16,
    /// Total length (header + payload) as carried on the wire.
    pub total_len: u16,
    /// More-fragments flag.
    pub more_fragments: bool,
    /// Fragment offset in 8-byte units.
    pub frag_offset: u16,
}

impl Ipv4Header {
    /// Is this datagram a fragment (either not the last, or offset > 0)?
    pub fn is_fragment(&self) -> bool {
        self.more_fragments || self.frag_offset != 0
    }
}

impl Ipv4Header {
    /// Parse a header, verifying version, length, and checksum; returns the
    /// header and the payload slice (trimmed to `total_len`).
    pub fn parse(data: &[u8]) -> Result<(Ipv4Header, &[u8])> {
        if data.len() < IPV4_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: IPV4_HEADER_LEN,
                got: data.len(),
            });
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(ParseError::BadVersion(version));
        }
        let ihl = (data[0] & 0x0f) as usize * 4;
        if !(IPV4_HEADER_LEN..=60).contains(&ihl) || data.len() < ihl {
            return Err(ParseError::BadHeaderLen(data[0] & 0x0f));
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]) as usize;
        if total_len < ihl || total_len > data.len() {
            return Err(ParseError::BadLength {
                declared: total_len,
                available: data.len(),
            });
        }
        let computed = checksum(&data[..ihl]);
        if computed != 0 {
            return Err(ParseError::BadChecksum {
                expected: u16::from_be_bytes([data[10], data[11]]),
                computed,
            });
        }
        let flags_frag = u16::from_be_bytes([data[6], data[7]]);
        let header = Ipv4Header {
            src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
            dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
            protocol: data[9].into(),
            ttl: data[8],
            ident: u16::from_be_bytes([data[4], data[5]]),
            total_len: total_len as u16,
            more_fragments: flags_frag & 0x2000 != 0,
            frag_offset: flags_frag & 0x1FFF,
        };
        Ok((header, &data[ihl..total_len]))
    }

    /// Write a 20-byte header into the front of `datagram`, whose whole
    /// length (header plus the payload already in place after it) is the
    /// total length; computes the header checksum. Panics if `datagram`
    /// is shorter than the header or longer than 65 535 bytes.
    pub fn write(&self, datagram: &mut [u8]) {
        let total = datagram.len();
        assert!(total <= u16::MAX as usize, "IPv4 datagram too large");
        let h = &mut datagram[..IPV4_HEADER_LEN];
        h[0] = 0x45; // version 4, IHL 5
        h[1] = 0; // DSCP/ECN
        h[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        h[4..6].copy_from_slice(&self.ident.to_be_bytes());
        // Flags+fragment-offset: MF when more fragments follow; DF is
        // left clear so the stack may fragment large datagrams.
        let flags_frag =
            (if self.more_fragments { 0x2000u16 } else { 0 }) | (self.frag_offset & 0x1FFF);
        h[6..8].copy_from_slice(&flags_frag.to_be_bytes());
        h[8] = self.ttl;
        h[9] = self.protocol.into();
        h[10..12].copy_from_slice(&[0, 0]); // checksum placeholder
        h[12..16].copy_from_slice(&self.src.octets());
        h[16..20].copy_from_slice(&self.dst.octets());
        let c = checksum(h);
        h[10..12].copy_from_slice(&c.to_be_bytes());
    }

    /// Serialize a 20-byte header followed by `payload`, computing the
    /// header checksum and total length.
    pub fn emit(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = crate::with_headroom(IPV4_HEADER_LEN, payload);
        self.write(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Ipv4Header {
        Ipv4Header {
            src: Ipv4Addr::new(192, 168, 1, 10),
            dst: Ipv4Addr::new(10, 0, 0, 1),
            protocol: IpProtocol::Udp,
            ttl: 64,
            ident: 0xbeef,
            total_len: 0,
            more_fragments: false,
            frag_offset: 0,
        }
    }

    #[test]
    fn fragment_fields_round_trip() {
        let mut h = header();
        h.more_fragments = true;
        h.frag_offset = 185; // ×8 = 1480 bytes
        let wire = h.emit(b"frag payload");
        let (parsed, _) = Ipv4Header::parse(&wire).unwrap();
        assert!(parsed.more_fragments);
        assert_eq!(parsed.frag_offset, 185);
        assert!(parsed.is_fragment());
        // Last fragment: MF clear but offset nonzero is still a fragment.
        h.more_fragments = false;
        let wire = h.emit(b"tail");
        let (parsed, _) = Ipv4Header::parse(&wire).unwrap();
        assert!(!parsed.more_fragments);
        assert!(parsed.is_fragment());
        assert!(!header().is_fragment());
    }

    #[test]
    fn round_trip() {
        let wire = header().emit(b"payload!");
        let (h, payload) = Ipv4Header::parse(&wire).unwrap();
        assert_eq!(h.src, Ipv4Addr::new(192, 168, 1, 10));
        assert_eq!(h.dst, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(h.protocol, IpProtocol::Udp);
        assert_eq!(h.ttl, 64);
        assert_eq!(h.ident, 0xbeef);
        assert_eq!(h.total_len as usize, 20 + 8);
        assert_eq!(payload, b"payload!");
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let mut wire = header().emit(b"x");
        wire[8] ^= 0xff; // flip TTL
        assert!(matches!(
            Ipv4Header::parse(&wire),
            Err(ParseError::BadChecksum { .. })
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut wire = header().emit(b"");
        wire[0] = 0x65;
        assert_eq!(Ipv4Header::parse(&wire), Err(ParseError::BadVersion(6)));
    }

    #[test]
    fn padding_after_total_len_is_trimmed() {
        // Ethernet can pad short frames; payload must trim to total_len.
        let mut wire = header().emit(b"ab");
        wire.extend_from_slice(&[0u8; 10]);
        let (_, payload) = Ipv4Header::parse(&wire).unwrap();
        assert_eq!(payload, b"ab");
    }

    #[test]
    fn declared_longer_than_buffer_rejected() {
        let wire = header().emit(b"abcd");
        assert!(matches!(
            Ipv4Header::parse(&wire[..22]),
            Err(ParseError::BadLength { .. })
        ));
    }

    #[test]
    fn protocol_mapping() {
        for (n, p) in [
            (1u8, IpProtocol::Icmp),
            (6, IpProtocol::Tcp),
            (17, IpProtocol::Udp),
            (89, IpProtocol::Other(89)),
        ] {
            assert_eq!(IpProtocol::from(n), p);
            assert_eq!(u8::from(p), n);
        }
    }
}
