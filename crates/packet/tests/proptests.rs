//! Property-based round-trip tests for every codec: arbitrary field values
//! must survive emit → parse unchanged, any single-bit corruption of a
//! checksummed region must be detected, a frame whose headers are
//! written in place must equal the nested emits byte for byte, and the
//! word-wide checksum must equal the 16-bit RFC 1071 sum.

use packet::checksum::{checksum, Checksum};
use packet::*;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_ipv4() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(fin, syn, rst, psh, ack)| TcpFlags {
            fin,
            syn,
            rst,
            psh,
            ack,
        })
}

/// RFC 1071 one big-endian 16-bit word at a time, each part zero-padded
/// to an even length: the reference the word-wide, little-endian
/// [`Checksum`] is checked against.
fn checksum_16bit(parts: &[&[u8]], pseudo: Option<(Ipv4Addr, Ipv4Addr, u8, u16)>) -> u16 {
    let mut sum = 0u32;
    let mut add = |data: &[u8]| {
        for c in data.chunks(2) {
            sum += u32::from(u16::from_be_bytes([c[0], c.get(1).copied().unwrap_or(0)]));
        }
    };
    if let Some((src, dst, protocol, len)) = pseudo {
        add(&src.octets());
        add(&dst.octets());
        add(&[0, protocol]);
        add(&len.to_be_bytes());
    }
    parts.iter().for_each(|p| add(p));
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// One step of a checksum built by hand: a slice or a 16-bit word.
#[derive(Debug, Clone)]
enum Piece {
    Bytes(Vec<u8>),
    Word(u16),
}

fn arb_piece() -> impl Strategy<Value = Piece> {
    prop_oneof![
        // Even lengths, as every caller but the last feeds the sum.
        proptest::collection::vec(any::<u8>(), 0..200).prop_map(|mut v| {
            v.truncate(v.len() & !1);
            Piece::Bytes(v)
        }),
        Just(Piece::Bytes(vec![0xff; 40])),
        any::<u16>().prop_map(Piece::Word),
        Just(Piece::Word(0xffff)),
    ]
}

#[test]
fn word_wide_checksum_matches_the_16bit_sum_on_uniform_bytes() {
    // Every length 0-1 600 (odd tails included) of all-0xff, all-zero
    // and one repeated odd byte: the folds' carry and 0/0xffff corners.
    for len in 0..=1600 {
        for fill in [0xffu8, 0x00, 0x5b] {
            let data = vec![fill; len];
            assert_eq!(
                checksum(&data),
                checksum_16bit(&[&data], None),
                "{len} bytes of {fill:#x}"
            );
        }
    }
}

proptest! {
    #[test]
    fn word_wide_checksum_matches_the_16bit_sum(
        data in proptest::collection::vec(any::<u8>(), 0..1601),
        cuts in proptest::collection::vec(any::<u16>(), 0..4),
        pseudo in proptest::option::of((arb_ipv4(), arb_ipv4(), any::<u8>(), any::<u16>())),
    ) {
        // Split at even offsets, as every caller feeds the sum.
        let mut at: Vec<usize> = cuts
            .iter()
            .map(|&c| c as usize % (data.len() / 2 + 1) * 2)
            .collect();
        at.sort_unstable();
        let mut parts = Vec::new();
        let mut start = 0;
        for end in at.into_iter().chain([data.len()]) {
            parts.push(&data[start..end]);
            start = end;
        }
        let mut c = Checksum::new();
        if let Some((src, dst, protocol, len)) = pseudo {
            c.add_pseudo_header(src, dst, protocol, len);
        }
        for p in &parts {
            c.add_bytes(p);
        }
        prop_assert_eq!(c.finish(), checksum_16bit(&parts, pseudo));
    }

    #[test]
    fn word_wide_checksum_matches_the_16bit_sum_on_mixed_steps(
        steps in proptest::collection::vec(arb_piece(), 0..12),
        tail in proptest::collection::vec(any::<u8>(), 0..9),
    ) {
        // `add_bytes` and `add_u16` interleaved like a pseudo-header and
        // its segment, ending on any (possibly odd) tail.
        let mut c = Checksum::new();
        let mut bytes: Vec<Vec<u8>> = Vec::new();
        for step in &steps {
            match step {
                Piece::Bytes(b) => {
                    c.add_bytes(b);
                    bytes.push(b.clone());
                }
                Piece::Word(w) => {
                    c.add_u16(*w);
                    bytes.push(w.to_be_bytes().to_vec());
                }
            }
        }
        c.add_bytes(&tail);
        bytes.push(tail);
        let parts: Vec<&[u8]> = bytes.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(c.finish(), checksum_16bit(&parts, None));
    }

    #[test]
    fn ether_round_trip(
        dst in any::<[u8; 6]>(),
        src in any::<[u8; 6]>(),
        ethertype in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let h = EtherHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: ethertype.into(),
        };
        let wire = h.emit(&payload);
        let (parsed, body) = EtherHeader::parse(&wire).unwrap();
        prop_assert_eq!(parsed, h);
        prop_assert_eq!(body, &payload[..]);
    }

    #[test]
    fn ipv4_round_trip(
        src in arb_ipv4(),
        dst in arb_ipv4(),
        proto in any::<u8>(),
        ttl in any::<u8>(),
        ident in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        let h = Ipv4Header {
            src, dst,
            protocol: proto.into(),
            ttl, ident,
            total_len: 0,
            more_fragments: false,
            frag_offset: 0,
        };
        let wire = h.emit(&payload);
        let (parsed, body) = Ipv4Header::parse(&wire).unwrap();
        prop_assert_eq!(parsed.src, src);
        prop_assert_eq!(parsed.dst, dst);
        prop_assert_eq!(u8::from(parsed.protocol), proto);
        prop_assert_eq!(parsed.ttl, ttl);
        prop_assert_eq!(parsed.ident, ident);
        prop_assert_eq!(body, &payload[..]);
    }

    #[test]
    fn ipv4_bit_corruption_detected(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        bit in 0usize..(20 * 8),
    ) {
        let h = Ipv4Header {
            src: Ipv4Addr::new(10, 1, 2, 3),
            dst: Ipv4Addr::new(10, 3, 2, 1),
            protocol: IpProtocol::Udp,
            ttl: 64,
            ident: 7,
            total_len: 0,
            more_fragments: false,
            frag_offset: 0,
        };
        let mut wire = h.emit(&payload);
        wire[bit / 8] ^= 1 << (bit % 8);
        // Any single-bit flip in the header must fail parsing (checksum,
        // version, length, or header-len check).
        prop_assert!(Ipv4Header::parse(&wire).is_err());
    }

    #[test]
    fn icmp_round_trip(
        ident in any::<u16>(),
        seq in any::<u16>(),
        is_reply in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let m = if is_reply {
            IcmpMessage::EchoReply { ident, seq, payload }
        } else {
            IcmpMessage::Echo { ident, seq, payload }
        };
        let wire = m.emit();
        prop_assert_eq!(IcmpMessage::parse(&wire).unwrap(), m);
    }

    #[test]
    fn udp_round_trip(
        src in arb_ipv4(),
        dst in arb_ipv4(),
        sp in any::<u16>(),
        dp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        let h = UdpHeader { src_port: sp, dst_port: dp };
        let wire = h.emit(&payload, src, dst);
        let (parsed, body) = UdpHeader::parse(&wire, src, dst).unwrap();
        prop_assert_eq!(parsed, h);
        prop_assert_eq!(body, &payload[..]);
    }

    #[test]
    fn udp_corruption_detected(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        idx in any::<proptest::sample::Index>(),
        mask in 1u8..=255,
    ) {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let h = UdpHeader { src_port: 40000, dst_port: 2049 };
        let mut wire = h.emit(&payload, src, dst);
        let i = idx.index(wire.len());
        // Skip flips that only touch the length field's high bits in ways
        // that still parse — we corrupt anywhere and expect *an* error of
        // some kind (checksum or length), unless the flip lands on the
        // checksum making it zero (the "no checksum" sentinel), which a
        // 1-bit flip of a valid nonzero checksum cannot produce both bytes
        // of. Flipping byte 6 or 7 alone cannot zero both.
        wire[i] ^= mask;
        if wire[6] == 0 && wire[7] == 0 {
            // Checksum field became the "absent" sentinel; parsing may
            // succeed. Skip this rare case.
            return Ok(());
        }
        prop_assert!(UdpHeader::parse(&wire, src, dst).is_err());
    }

    #[test]
    fn tcp_round_trip(
        src in arb_ipv4(),
        dst in arb_ipv4(),
        sp in any::<u16>(),
        dp in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in arb_flags(),
        window in any::<u16>(),
        mss in proptest::option::of(any::<u16>()),
        payload in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        let h = TcpHeader { src_port: sp, dst_port: dp, seq, ack, flags, window, mss };
        let wire = h.emit(&payload, src, dst);
        prop_assert_eq!(wire.len(), h.wire_len() + payload.len());
        let (parsed, body) = TcpHeader::parse(&wire, src, dst).unwrap();
        prop_assert_eq!(parsed, h);
        prop_assert_eq!(body, &payload[..]);
    }

    #[test]
    fn tcp_corruption_detected(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        idx in any::<proptest::sample::Index>(),
        mask in 1u8..=255,
    ) {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let h = TcpHeader {
            src_port: 20, dst_port: 1234,
            seq: 1, ack: 2,
            flags: TcpFlags::ACK, window: 4096, mss: None,
        };
        let mut wire = h.emit(&payload, src, dst);
        let i = idx.index(wire.len());
        wire[i] ^= mask;
        prop_assert!(TcpHeader::parse(&wire, src, dst).is_err());
    }

    #[test]
    fn in_place_writes_match_nested_emits(
        src in arb_ipv4(),
        dst in arb_ipv4(),
        sp in any::<u16>(),
        dp in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in arb_flags(),
        window in any::<u16>(),
        mss in proptest::option::of(any::<u16>()),
        ident in any::<u16>(),
        ttl in any::<u8>(),
        mac_dst in any::<[u8; 6]>(),
        mac_src in any::<[u8; 6]>(),
        full in proptest::collection::vec(any::<u8>(), 1460..1461),
        empty in any::<bool>(),
        stale in any::<u8>(),
    ) {
        let payload = if empty { &[][..] } else { &full[..] };
        let tcp = TcpHeader { src_port: sp, dst_port: dp, seq, ack, flags, window, mss };
        let ip = Ipv4Header {
            src, dst,
            protocol: IpProtocol::Tcp,
            ttl,
            ident,
            total_len: 0,
            more_fragments: false,
            frag_offset: 0,
        };
        let ether = EtherHeader {
            dst: MacAddr(mac_dst),
            src: MacAddr(mac_src),
            ethertype: EtherType::Ipv4,
        };
        let nested = ether.emit(&ip.emit(&tcp.emit(payload, src, dst)));

        // The stack's layout: headroom for all three headers, then the
        // payload. Stale bytes in the headroom must not reach the wire.
        let headroom = LINK_IP_HEADROOM + tcp.wire_len();
        let mut frame = with_headroom(headroom, payload);
        frame[..headroom].fill(stale);
        tcp.write(&mut frame[LINK_IP_HEADROOM..], src, dst);
        ip.write(&mut frame[ETHER_HEADER_LEN..]);
        ether.write(&mut frame);
        prop_assert_eq!(frame, nested);
    }

    #[test]
    fn full_stack_round_trip(
        sp in any::<u16>(),
        dp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let src = Ipv4Addr::new(192, 168, 0, 1);
        let dst = Ipv4Addr::new(192, 168, 0, 2);
        let udp = UdpHeader { src_port: sp, dst_port: dp }.emit(&payload, src, dst);
        let ip = Ipv4Header {
            src, dst,
            protocol: IpProtocol::Udp,
            ttl: 64,
            ident: 99,
            total_len: 0,
            more_fragments: false,
            frag_offset: 0,
        }.emit(&udp);
        let frame = EtherHeader {
            dst: MacAddr::local(2),
            src: MacAddr::local(1),
            ethertype: EtherType::Ipv4,
        }.emit(&ip);
        prop_assert_eq!(frame.len(), udp_frame_len(payload.len()));

        let (eh, l3) = EtherHeader::parse(&frame).unwrap();
        prop_assert_eq!(eh.ethertype, EtherType::Ipv4);
        let (ih, l4) = Ipv4Header::parse(l3).unwrap();
        prop_assert_eq!(ih.protocol, IpProtocol::Udp);
        let (uh, body) = UdpHeader::parse(l4, ih.src, ih.dst).unwrap();
        prop_assert_eq!(uh.src_port, sp);
        prop_assert_eq!(uh.dst_port, dp);
        prop_assert_eq!(body, &payload[..]);
    }
}
