//! Property tests for the chunked binary trace I/O: arbitrary records
//! (including overrun markers) written through [`ChunkedTraceWriter`]
//! must stream back identically through [`TraceFileStream`] at any
//! chunk size, and the file bytes must match the one-shot encoder.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use tracekit::format::{decode_trace, encode_trace, ChunkDecoder};
use tracekit::{
    ChunkedTraceWriter, DeviceRecord, Dir, OverrunRecord, PacketRecord, ProtoInfo, RecordStream,
    Trace, TraceFileStream, TraceRecord,
};

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
        (any::<u16>(), any::<u16>(), any::<u32>(), any::<u64>()).prop_map(
            |(ident, seq, payload_len, rtt_ns)| ProtoInfo::IcmpEchoReply {
                ident,
                seq,
                payload_len,
                rtt_ns,
            }
        ),
        (any::<u16>(), any::<u16>(), any::<u32>()).prop_map(|(src_port, dst_port, payload_len)| {
            ProtoInfo::Udp {
                src_port,
                dst_port,
                payload_len,
            }
        }),
        (
            any::<u16>(),
            any::<u16>(),
            any::<u32>(),
            any::<u32>(),
            any::<u8>(),
            any::<u32>()
        )
            .prop_map(|(src_port, dst_port, seq, ack, flags, payload_len)| {
                ProtoInfo::Tcp {
                    src_port,
                    dst_port,
                    seq,
                    ack,
                    flags,
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

/// A unique temp path per proptest case (cases run in one process).
fn temp_path() -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "tracekit-chunked-io-{}-{}.trace",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunked_write_then_stream_round_trips(
        records in proptest::collection::vec(arb_record(), 0..120),
        trial in any::<u32>(),
        chunk in 1usize..512,
    ) {
        let path = temp_path();
        let mut w = ChunkedTraceWriter::create(&path, "host", "prop", trial).unwrap();
        for r in &records {
            w.push_record(r).unwrap();
        }
        let written = w.finish().unwrap();
        prop_assert_eq!(written as usize, records.len());

        let mut stream = TraceFileStream::open_chunked(&path, chunk).unwrap();
        {
            let h = stream.header().unwrap();
            prop_assert_eq!(h.host.as_str(), "host");
            prop_assert_eq!(h.scenario.as_str(), "prop");
            prop_assert_eq!(h.trial, trial);
            prop_assert_eq!(h.count as usize, records.len());
        }
        let mut back = Vec::new();
        while let Some(r) = stream.next_record().unwrap() {
            back.push(r);
        }
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back, records);
    }

    #[test]
    fn chunked_writer_bytes_match_one_shot_encoder(
        records in proptest::collection::vec(arb_record(), 0..80),
        trial in any::<u32>(),
    ) {
        let mut trace = Trace::new("host", "prop", trial);
        trace.records = records;

        let path = temp_path();
        let mut w = ChunkedTraceWriter::create(&path, "host", "prop", trial).unwrap();
        for r in &trace.records {
            w.push_record(r).unwrap();
        }
        w.finish().unwrap();
        let streamed_bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(streamed_bytes, encode_trace(&trace));
    }

    #[test]
    fn decoder_round_trips_at_any_feed_granularity(
        records in proptest::collection::vec(arb_record(), 0..60),
        trial in any::<u32>(),
        feed in 1usize..64,
    ) {
        let mut trace = Trace::new("h", "s", trial);
        trace.records = records;
        let bytes = encode_trace(&trace);

        let mut dec = ChunkDecoder::new();
        let mut back = Vec::new();
        for piece in bytes.chunks(feed) {
            dec.decode_chunk(piece, &mut back).unwrap();
        }
        dec.finish().unwrap();
        prop_assert_eq!(&back, &decode_trace(&bytes).unwrap().records);
        prop_assert_eq!(back, trace.records);
    }
}
