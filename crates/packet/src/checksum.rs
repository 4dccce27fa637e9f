//! The Internet checksum (RFC 1071) used by IPv4, ICMP, UDP, and TCP.

use std::net::Ipv4Addr;

/// Incremental ones-complement sum accumulator.
///
/// Bytes are summed as native little-endian 64-bit words, each folded
/// into a 64-bit total as its two 32-bit halves; the total folds to 16
/// bits in [`finish`](Checksum::finish). Since 2¹⁶ ≡ 1 (mod 2¹⁶ − 1),
/// a 32-bit half adds the same ones-complement value as its two 16-bit
/// words. Read little-endian, every 16-bit word is byte-swapped, and
/// by RFC 1071 §2(B) the ones-complement sum of swapped words is the
/// swapped sum: `finish` swaps once, and values given to
/// [`add_u16`](Checksum::add_u16) are swapped on the way in. No word
/// is swapped in the loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    sum: u64,
}

impl Checksum {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Checksum { sum: 0 }
    }

    /// Fold a byte slice into the sum. Odd-length slices are padded with a
    /// trailing zero byte, per RFC 1071. Slices must be fed on the same
    /// 16-bit alignment they occupy in the packet (all our callers feed
    /// even-length prefixes, so this holds).
    pub fn add_bytes(&mut self, data: &[u8]) {
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            self.add_word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // A tail of up to 7 bytes, zero-padded: its 16-bit words
            // (and the odd byte's zero pad) are the ones RFC 1071 adds.
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(tail));
        }
    }

    /// Add a little-endian word as its two 32-bit halves (less than
    /// 2³³ per word, so the total cannot overflow for any slice that
    /// fits in memory).
    #[inline(always)]
    fn add_word(&mut self, w: u64) {
        self.sum += (w & 0xffff_ffff) + (w >> 32);
    }

    /// Fold a single big-endian 16-bit word into the sum.
    pub fn add_u16(&mut self, v: u16) {
        self.sum += u64::from(v.swap_bytes());
    }

    /// Fold the TCP/UDP pseudo-header: src, dst, zero+protocol, length.
    pub fn add_pseudo_header(&mut self, src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, len: u16) {
        self.add_bytes(&src.octets());
        self.add_bytes(&dst.octets());
        self.add_u16(u16::from(protocol));
        self.add_u16(len);
    }

    /// Finish: fold carries, swap back to network order and complement.
    pub fn finish(self) -> u16 {
        let mut s = self.sum;
        while s >> 16 != 0 {
            s = (s & 0xffff) + (s >> 16);
        }
        !(s as u16).swap_bytes()
    }
}

/// One-shot checksum of a byte slice.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let mut c = Checksum::new();
        c.add_bytes(&data);
        assert_eq!(c.finish(), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), checksum(&[0xab, 0x00]));
    }

    #[test]
    fn verify_round_trip() {
        let mut pkt = vec![
            0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0,
        ];
        pkt.extend_from_slice(&[10, 0, 0, 1, 10, 0, 0, 2]);
        let c = checksum(&pkt);
        pkt[10..12].copy_from_slice(&c.to_be_bytes());
        assert_eq!(checksum(&pkt), 0);
        pkt[4] ^= 0xff;
        assert_ne!(checksum(&pkt), 0);
    }

    #[test]
    fn pseudo_header_contributes() {
        let mut a = Checksum::new();
        a.add_pseudo_header(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            17,
            8,
        );
        let mut b = Checksum::new();
        b.add_pseudo_header(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 3),
            17,
            8,
        );
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn all_zeros_checksums_to_ffff() {
        assert_eq!(checksum(&[0u8; 20]), 0xffff);
    }
}
