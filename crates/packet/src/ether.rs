//! Ethernet II framing.

use crate::error::{ParseError, Result};
use std::fmt;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address (unset).
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Locally-administered address derived from a small integer; used to
    /// hand out distinct MACs to simulated hosts.
    pub fn local(n: u32) -> MacAddr {
        let b = n.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// True for the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == MacAddr::BROADCAST
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// EtherType values we speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(t: EtherType) -> u16 {
        match t {
            EtherType::Ipv4 => 0x0800,
            EtherType::Other(v) => v,
        }
    }
}

/// An Ethernet II header (no FCS; the simulator models corruption as loss,
/// exactly as the paper's model assumes "corrupt packets are coerced to
/// lost ones").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EtherHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload type.
    pub ethertype: EtherType,
}

/// Length of the Ethernet II header in bytes.
pub const ETHER_HEADER_LEN: usize = 14;

impl EtherHeader {
    /// Parse a header, returning it and the payload slice.
    pub fn parse(data: &[u8]) -> Result<(EtherHeader, &[u8])> {
        if data.len() < ETHER_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: ETHER_HEADER_LEN,
                got: data.len(),
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&data[0..6]);
        src.copy_from_slice(&data[6..12]);
        let ethertype = u16::from_be_bytes([data[12], data[13]]).into();
        Ok((
            EtherHeader {
                dst: MacAddr(dst),
                src: MacAddr(src),
                ethertype,
            },
            &data[ETHER_HEADER_LEN..],
        ))
    }

    /// Write the header into the first [`ETHER_HEADER_LEN`] bytes of
    /// `frame`; the payload after them is left as it is. Panics if
    /// `frame` is shorter than the header.
    pub fn write(&self, frame: &mut [u8]) {
        let h = &mut frame[..ETHER_HEADER_LEN];
        h[0..6].copy_from_slice(&self.dst.0);
        h[6..12].copy_from_slice(&self.src.0);
        h[12..14].copy_from_slice(&u16::from(self.ethertype).to_be_bytes());
    }

    /// Serialize the header followed by `payload`.
    pub fn emit(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = crate::with_headroom(ETHER_HEADER_LEN, payload);
        self.write(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let h = EtherHeader {
            dst: MacAddr::local(7),
            src: MacAddr::local(9),
            ethertype: EtherType::Ipv4,
        };
        let wire = h.emit(b"hello");
        let (parsed, payload) = EtherHeader::parse(&wire).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            EtherHeader::parse(&[0u8; 13]),
            Err(ParseError::Truncated {
                needed: 14,
                got: 13
            })
        );
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(EtherType::from(0x0800), EtherType::Ipv4);
        assert_eq!(u16::from(EtherType::Other(0x86dd)), 0x86dd);
    }

    #[test]
    fn mac_display_and_helpers() {
        assert_eq!(format!("{}", MacAddr::local(1)), "02:00:00:00:00:01");
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!MacAddr::local(1).is_broadcast());
        assert_ne!(MacAddr::local(1), MacAddr::local(2));
    }
}
