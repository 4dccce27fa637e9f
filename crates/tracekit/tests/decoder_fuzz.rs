//! Differential decoder fuzz: hostile inputs (truncation, bit flips,
//! raw garbage) against the incremental [`ChunkDecoder`] in strict and
//! quarantining mode, with the batch [`decode_trace`] as the reference.
//!
//! The contract under attack:
//!
//! * the strict paths ([`decode_trace`], [`ChunkDecoder`]) report
//!   [`FormatError`] — they never panic, whatever the bytes;
//! * a truncated stream decodes a clean *prefix* of the original
//!   records before `finish()` reports [`FormatError::Truncated`];
//! * the quarantining decoder, given an intact header, never errors at
//!   all on body corruption — it skips, counts, and keeps decoding, and
//!   what it decodes and counts does not depend on how the bytes were
//!   chunked;
//! * on well-formed input, quarantine mode is byte-for-byte identical
//!   to strict mode and to [`decode_trace`], with zero quarantines.

use proptest::collection;
use proptest::prelude::*;
use tracekit::format::{decode_trace, encode_trace, encode_trace_header, FormatError};
use tracekit::ChunkDecoder;
use tracekit::{DeviceRecord, Dir, OverrunRecord, PacketRecord, ProtoInfo, Trace, TraceRecord};

fn arb_proto() -> impl Strategy<Value = ProtoInfo> {
    prop_oneof![
        (any::<u16>(), any::<u16>(), any::<u32>(), any::<u64>()).prop_map(
            |(ident, seq, payload_len, gen_ts_ns)| ProtoInfo::IcmpEcho {
                ident,
                seq,
                payload_len,
                gen_ts_ns,
            }
        ),
        (any::<u16>(), any::<u16>(), any::<u32>()).prop_map(|(src_port, dst_port, payload_len)| {
            ProtoInfo::Udp {
                src_port,
                dst_port,
                payload_len,
            }
        }),
        any::<u8>().prop_map(|protocol| ProtoInfo::Other { protocol }),
    ]
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    prop_oneof![
        (any::<u64>(), any::<bool>(), any::<u32>(), arb_proto()).prop_map(
            |(timestamp_ns, out, wire_len, proto)| {
                TraceRecord::Packet(PacketRecord {
                    timestamp_ns,
                    dir: if out { Dir::Out } else { Dir::In },
                    wire_len,
                    proto,
                })
            }
        ),
        (any::<u64>(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
            |(timestamp_ns, signal, quality, silence)| {
                TraceRecord::Device(DeviceRecord {
                    timestamp_ns,
                    signal,
                    quality,
                    silence,
                })
            }
        ),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(timestamp_ns, lost_packets, lost_device)| {
                TraceRecord::Overrun(OverrunRecord {
                    timestamp_ns,
                    lost_packets,
                    lost_device,
                })
            }
        ),
    ]
}

fn encoded(records: Vec<TraceRecord>, trial: u32) -> (Vec<u8>, Vec<TraceRecord>) {
    let mut trace = Trace::new("h", "fuzz", trial);
    trace.records = records;
    let bytes = encode_trace(&trace);
    (bytes, trace.records)
}

/// Decode one chunk, returning the records it completed and the error,
/// if any.
fn drain(dec: &mut ChunkDecoder, piece: &[u8]) -> (Vec<TraceRecord>, Option<FormatError>) {
    let mut out = Vec::new();
    let err = dec.decode_chunk(piece, &mut out).err();
    (out, err)
}

/// Flip `flips` bytes of the record body (the header stays intact).
fn corrupt_body(bytes: &mut [u8], trial: u32, flips: &[(usize, u8)]) -> bool {
    let header_len = encode_trace_header("h", "fuzz", trial, 0).len();
    if bytes.len() <= header_len {
        return false;
    }
    let body = bytes.len() - header_len;
    for &(pos_seed, mask) in flips {
        bytes[header_len + pos_seed % body] ^= mask;
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any strict prefix of a trace decodes a clean prefix of its
    /// records, then fails `finish()` with `Truncated` — never a panic,
    /// never a garbled record.
    #[test]
    fn truncated_traces_yield_a_clean_prefix_then_a_truncation_error(
        records in collection::vec(arb_record(), 1..80),
        trial in any::<u32>(),
        cut_seed in any::<usize>(),
        feed in 1usize..64,
    ) {
        let (bytes, originals) = encoded(records, trial);
        let cut = cut_seed % bytes.len(); // strictly shorter than the file
        let short = &bytes[..cut];

        // One-shot strict decode: must error (no panic), since at least
        // one declared byte is missing.
        prop_assert!(decode_trace(short).is_err());

        // Incremental strict decode: whatever came out is a prefix of
        // the original records, and finish() reports the truncation.
        let mut dec = ChunkDecoder::new();
        let mut got = Vec::new();
        for piece in short.chunks(feed) {
            let (mut part, err) = drain(&mut dec, piece);
            got.append(&mut part);
            prop_assert!(err.is_none(), "well-formed prefix must not error mid-stream");
        }
        prop_assert!(got.len() <= originals.len());
        prop_assert_eq!(&got[..], &originals[..got.len()]);
        prop_assert_eq!(dec.finish(), Err(FormatError::Truncated));
    }

    /// A single flipped byte anywhere in the file: the strict decoder
    /// returns `Ok` or a `FormatError` — it never panics.
    #[test]
    fn bit_flipped_traces_never_panic_the_strict_decoder(
        records in collection::vec(arb_record(), 1..60),
        trial in any::<u32>(),
        pos_seed in any::<usize>(),
        mask in 1u8..=255,
        feed in 1usize..64,
    ) {
        let (mut bytes, _) = encoded(records, trial);
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= mask;

        // Outcome is unspecified (the flip may even be semantically
        // harmless); absence of panic is the property.
        let _ = decode_trace(&bytes);

        let mut dec = ChunkDecoder::new();
        for piece in bytes.chunks(feed) {
            if drain(&mut dec, piece).1.is_some() {
                break; // strict mode stops at the first error
            }
        }
        let _ = dec.finish();
    }

    /// Body corruption under quarantine: with the header intact, the
    /// decoder never errors — malformed runs are skipped and counted,
    /// and the record ledger still balances against the declared count.
    #[test]
    fn quarantining_decoder_survives_body_corruption(
        records in collection::vec(arb_record(), 1..60),
        trial in any::<u32>(),
        flips in collection::vec((any::<usize>(), 1u8..=255), 1..4),
        feed in 1usize..64,
    ) {
        let (mut bytes, _) = encoded(records, trial);
        prop_assume!(corrupt_body(&mut bytes, trial, &flips));

        let mut dec = ChunkDecoder::new().quarantining();
        let mut got = 0u64;
        for piece in bytes.chunks(feed) {
            let (part, err) = drain(&mut dec, piece);
            prop_assert!(err.is_none(), "quarantine mode must absorb body corruption: {err:?}");
            got += part.len() as u64;
        }
        let declared = u64::from(dec.header().expect("intact header").count);
        prop_assert!(got + dec.quarantined_records() <= declared);
        // End state: either everything is accounted for, or inflated
        // length fields left the stream waiting on bytes that never
        // come — which finish() reports as truncation, not a panic.
        match dec.finish() {
            Ok(()) => prop_assert_eq!(got + dec.quarantined_records(), declared),
            Err(e) => prop_assert_eq!(e, FormatError::Truncated),
        }
    }

    /// Resync across chunk boundaries: under body corruption, decoding
    /// in `feed`-sized chunks yields exactly the records, quarantine
    /// counts, held bytes and end state of decoding in one chunk.
    #[test]
    fn quarantine_outcome_does_not_depend_on_chunking(
        records in collection::vec(arb_record(), 1..60),
        trial in any::<u32>(),
        flips in collection::vec((any::<usize>(), 1u8..=255), 1..6),
        feed in 1usize..64,
    ) {
        let (mut bytes, _) = encoded(records, trial);
        prop_assume!(corrupt_body(&mut bytes, trial, &flips));

        let mut whole = ChunkDecoder::new().quarantining();
        let (a, err) = drain(&mut whole, &bytes);
        prop_assert!(err.is_none());
        let mut chunked = ChunkDecoder::new().quarantining();
        let mut b = Vec::new();
        for piece in bytes.chunks(feed) {
            let (part, err) = drain(&mut chunked, piece);
            prop_assert!(err.is_none());
            b.extend(part);
        }
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(whole.quarantined_records(), chunked.quarantined_records());
        prop_assert_eq!(whole.quarantined_bytes(), chunked.quarantined_bytes());
        prop_assert_eq!(whole.buffered(), chunked.buffered());
        prop_assert_eq!(whole.finish(), chunked.finish());
    }

    /// Differential: on well-formed input, quarantine mode decodes
    /// exactly what strict mode and [`decode_trace`] decode, with zero
    /// quarantines.
    #[test]
    fn quarantine_mode_is_identity_on_clean_traces(
        records in collection::vec(arb_record(), 0..60),
        trial in any::<u32>(),
        feed in 1usize..64,
    ) {
        let (bytes, originals) = encoded(records, trial);

        let mut strict = ChunkDecoder::new();
        let mut lenient = ChunkDecoder::new().quarantining();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for piece in bytes.chunks(feed) {
            let (part, err) = drain(&mut strict, piece);
            prop_assert!(err.is_none());
            a.extend(part);
            let (part, err) = drain(&mut lenient, piece);
            prop_assert!(err.is_none());
            b.extend(part);
        }
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &decode_trace(&bytes).unwrap().records);
        prop_assert_eq!(&a[..], &originals[..]);
        prop_assert_eq!(lenient.quarantined_records(), 0);
        prop_assert_eq!(lenient.quarantined_bytes(), 0);
        prop_assert!(strict.finish().is_ok());
        prop_assert!(lenient.finish().is_ok());
    }

    /// Raw garbage: both decoders reject or stall on arbitrary bytes
    /// without panicking or spinning.
    #[test]
    fn arbitrary_garbage_never_panics(
        bytes in collection::vec(any::<u8>(), 0..300),
        feed in 1usize..64,
    ) {
        let _ = decode_trace(&bytes);

        let mut dec = ChunkDecoder::new().quarantining();
        for piece in bytes.chunks(feed) {
            if drain(&mut dec, piece).1.is_some() {
                break; // header-level corruption is a hard error
            }
        }
        let _ = dec.finish();
    }
}
