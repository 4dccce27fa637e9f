//! Property tests for the on-disk formats across crate boundaries:
//! arbitrary traces and replay traces must survive binary
//! encode/decode byte-for-byte, and file I/O must round trip. A replay
//! trace's tuples must govern the modulator in order, for exactly their
//! durations, with the final tuple held past the end.

use modulate::{Modulator, TickClock};
use netsim::{SimDuration, SimRng, SimTime};
use netstack::{Direction, LinkShim};
use proptest::prelude::*;
use tracekit::format::{decode_replay, decode_trace, encode_replay, encode_trace};
use tracekit::{
    DeviceRecord, Dir, OverrunRecord, PacketRecord, ProtoInfo, QualityTuple, ReplayTrace, Trace,
    TraceRecord,
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

fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        "[a-z0-9]{1,16}",
        "[a-z0-9]{1,16}",
        any::<u32>(),
        proptest::collection::vec(arb_record(), 0..64),
    )
        .prop_map(|(host, scenario, trial, records)| Trace {
            host,
            scenario,
            trial,
            records,
        })
}

fn arb_tuple() -> impl Strategy<Value = QualityTuple> {
    (
        1u64..u64::MAX / 2,
        any::<u64>(),
        0.0f64..1e9,
        0.0f64..1e9,
        0.0f64..=1.0,
    )
        .prop_map(
            |(duration_ns, latency_ns, vb_ns_per_byte, vr_ns_per_byte, loss)| QualityTuple {
                duration_ns,
                latency_ns,
                vb_ns_per_byte,
                vr_ns_per_byte,
                loss,
            },
        )
}

proptest! {
    #[test]
    fn trace_binary_round_trip(trace in arb_trace()) {
        let bytes = encode_trace(&trace);
        prop_assert_eq!(decode_trace(&bytes).unwrap(), trace);
    }

    #[test]
    fn replay_binary_round_trip(
        source in "[ -~]{0,32}",
        tuples in proptest::collection::vec(arb_tuple(), 0..64),
    ) {
        let replay = ReplayTrace { source, tuples };
        let bytes = encode_replay(&replay);
        prop_assert_eq!(decode_replay(&bytes).unwrap(), replay);
    }

    #[test]
    fn truncated_trace_never_panics(trace in arb_trace(), cut in any::<proptest::sample::Index>()) {
        let bytes = encode_trace(&trace);
        let n = cut.index(bytes.len().max(1));
        // Must error or produce some trace — never panic.
        let _ = decode_trace(&bytes[..n]);
    }

    /// The modulator plays tuple `i` from the sum of the durations
    /// before it up to (not including) the sum through it, and holds
    /// the final tuple for good once the trace runs out. Tuple `i`
    /// carries a latency of `i + 1` ms so each probe's release instant
    /// names the tuple that governed it.
    #[test]
    fn replay_lookup_total_duration_invariants(
        durations in proptest::collection::vec(1u64..1_000_000_000_000, 1..32),
    ) {
        let tuples: Vec<QualityTuple> = durations
            .iter()
            .enumerate()
            .map(|(i, &d)| QualityTuple {
                duration_ns: d,
                latency_ns: (i as u64 + 1) * 1_000_000,
                vb_ns_per_byte: 0.0,
                vr_ns_per_byte: 0.0,
                loss: 0.0,
            })
            .collect();
        let replay = ReplayTrace { source: "p".into(), tuples };
        let total: u64 = durations.iter().sum();
        prop_assert_eq!(replay.total_duration().as_nanos(), total);

        // Each tuple's first and last nanosecond; then, through a second
        // modulator, only the last ones, so each tuple is taken late and
        // must still end where the durations say.
        let mut edges = Vec::new();
        let mut lasts = Vec::new();
        let mut from = 0;
        for (i, &d) in durations.iter().enumerate() {
            edges.push((from, i + 1));
            edges.push((from + d - 1, i + 1));
            lasts.push((from + d - 1, i + 1));
            from += d;
        }
        for mut probes in [edges, lasts] {
            // Past the end: the final tuple stays in effect.
            probes.push((total, durations.len()));
            probes.push((u64::MAX / 2, durations.len()));
            let mut m = Modulator::from_replay(replay.clone()).with_clock(TickClock::ideal());
            let mut rng = SimRng::seed_from_u64(1);
            let mut out = Vec::new();
            m.begin(SimTime::ZERO);
            for (at, tuple) in probes {
                let now = SimTime::from_nanos(at);
                m.offer(Direction::Outbound, vec![0; 100], now, &mut rng);
                prop_assert_eq!(
                    m.next_wakeup(),
                    Some(now + SimDuration::from_millis(tuple as u64)),
                    "probe at {} ns", at
                );
                m.collect_due_into(SimTime::MAX, &mut rng, &mut out);
            }
        }
    }
}

#[test]
fn file_io_round_trip() {
    let dir = std::env::temp_dir().join(format!("tm-int-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = Trace::new("host", "porter", 3);
    let p = dir.join("t.mntr");
    tracekit::io::write_trace(&p, &trace).unwrap();
    assert_eq!(tracekit::io::read_trace(&p).unwrap(), trace);

    let replay = ReplayTrace::constant(
        "r",
        netsim::SimDuration::from_secs(5),
        netsim::SimDuration::from_millis(2),
        4000.0,
        800.0,
        0.1,
    );
    let p = dir.join("r.mnrp");
    tracekit::io::write_replay(&p, &replay).unwrap();
    assert_eq!(tracekit::io::read_replay(&p).unwrap(), replay);
}
