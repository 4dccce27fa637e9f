//! Criterion benchmarks for the paper's own machinery: distillation
//! throughput (it must be cheap — one of the model's three constraints,
//! §3.2.1), modulation-layer per-packet cost, and the kernel ring
//! buffer.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use distill::{distill_stream, distill_with_report, DistillConfig, Distiller};
use modulate::{Modulator, TickClock};
use netsim::{SimRng, SimTime};
use netstack::{Direction, LinkShim, ShimRelease};
use tracekit::format::{encode_trace, ChunkDecoder};
use tracekit::{
    Dir, PacketRecord, ProtoInfo, QualityTuple, ReplayTrace, RingBuffer, Trace, TraceRecord,
    VecStream,
};

/// Synthesize a trace of `secs` perfect ping triplets.
fn synth_trace(secs: u64) -> Trace {
    let mut t = Trace::new("h", "synth", 1);
    let (s1, s2) = (106u32, 542u32);
    let (f, vb, vr) = (2e-3, 4e-6, 0.8e-6);
    let v: f64 = vb + vr;
    for g in 0..secs {
        let base_ns = g * 1_000_000_000;
        for k in 0..3u16 {
            let seq = (g as u16).wrapping_mul(3).wrapping_add(k);
            let wire = if k == 0 { s1 } else { s2 };
            let send_ns = base_ns + k as u64;
            t.records.push(TraceRecord::Packet(PacketRecord {
                timestamp_ns: send_ns,
                dir: Dir::Out,
                wire_len: wire,
                proto: ProtoInfo::IcmpEcho {
                    ident: 1,
                    seq,
                    payload_len: wire - 42,
                    gen_ts_ns: send_ns,
                },
            }));
            let s = wire as f64;
            let rtt = match k {
                0 | 1 => 2.0 * (f + s * v),
                _ => 2.0 * (f + s * v) + s * vb,
            };
            let rtt_ns = (rtt * 1e9) as u64;
            t.records.push(TraceRecord::Packet(PacketRecord {
                timestamp_ns: send_ns + rtt_ns,
                dir: Dir::In,
                wire_len: wire,
                proto: ProtoInfo::IcmpEchoReply {
                    ident: 1,
                    seq,
                    payload_len: wire - 42,
                    rtt_ns,
                },
            }));
        }
    }
    t.records.sort_by_key(|r| r.timestamp_ns());
    t
}

fn bench_distillation(c: &mut Criterion) {
    let trace = synth_trace(600); // 10 minutes of probes
    let mut g = c.benchmark_group("distill");
    g.throughput(Throughput::Elements(trace.records.len() as u64));
    g.bench_function("distill_10min_trace", |b| {
        b.iter(|| {
            let replay =
                distill_with_report(std::hint::black_box(&trace), &DistillConfig::default()).replay;
            assert!(replay.is_valid());
        });
    });
    g.finish();
}

fn bench_streaming_distillation(c: &mut Criterion) {
    // The incremental operator over the same 10-minute trace: identical
    // output to the batch path, but O(window) live state — this is the
    // configuration live mode runs in.
    let trace = synth_trace(600);
    let mut g = c.benchmark_group("distill");
    g.throughput(Throughput::Elements(trace.records.len() as u64));
    g.bench_function("distill_stream_10min_trace", |b| {
        b.iter(|| {
            let mut sink: Vec<QualityTuple> = Vec::new();
            let mut stream = VecStream::new(std::hint::black_box(trace.records.clone()));
            let stats = distill_stream(&mut stream, &DistillConfig::default(), &mut sink).unwrap();
            assert!(sink.len() > 500);
            assert!(stats.peak_window_entries < 64, "state not O(window)");
        });
    });
    g.bench_function("distiller_push_10min_trace", |b| {
        // Push-side only (no stream indirection): the per-record cost a
        // collection daemon would pay feeding records as they arrive.
        b.iter(|| {
            let mut sink: Vec<QualityTuple> = Vec::new();
            let mut d = Distiller::new(&DistillConfig::default());
            for rec in std::hint::black_box(&trace.records) {
                d.push_record(rec, &mut sink);
            }
            let stats = d.finish(&mut sink);
            assert!(stats.tuples > 500);
        });
    });
    g.finish();
}

fn bench_chunked_decode(c: &mut Criterion) {
    // Incremental binary decode in 64 KiB chunks vs the trace size:
    // the quarantine path (the fault injector's mode) against the
    // strict production path, both on the one `ChunkDecoder`.
    let trace = synth_trace(600);
    let bytes = encode_trace(&trace);
    let mut g = c.benchmark_group("tracekit");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("chunked_decode_10min_trace", |b| {
        let mut batch: Vec<TraceRecord> = Vec::new();
        b.iter(|| {
            let mut dec = ChunkDecoder::new().quarantining();
            let mut n = 0usize;
            for chunk in std::hint::black_box(&bytes).chunks(64 * 1024) {
                dec.decode_chunk(chunk, &mut batch).unwrap();
                n += batch.len();
                batch.clear();
            }
            dec.finish().unwrap();
            assert_eq!(n, trace.records.len());
        });
    });
    g.bench_function("zero_copy_decode_10min_trace", |b| {
        let mut batch: Vec<TraceRecord> = Vec::new();
        b.iter(|| {
            let mut dec = ChunkDecoder::new();
            let mut n = 0usize;
            for chunk in std::hint::black_box(&bytes).chunks(64 * 1024) {
                dec.decode_chunk(chunk, &mut batch).unwrap();
                n += batch.len();
                batch.clear();
            }
            dec.finish().unwrap();
            assert_eq!(n, trace.records.len());
        });
    });
    g.finish();
}

fn bench_modulation_layer(c: &mut Criterion) {
    let replay = ReplayTrace::constant(
        "bench",
        netsim::SimDuration::from_secs(3600),
        netsim::SimDuration::from_millis(2),
        4000.0,
        800.0,
        0.01,
    );
    let mut g = c.benchmark_group("modulate");
    let n = 10_000u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("offer_collect_10k_packets", |b| {
        // The shim-timer shape the host actually produces: frames that
        // arrive within one 10 ms modulation tick are offered as one
        // batch and the due queue is drained once per tick into a
        // reused buffer, not once per packet. Frame buffers cycle
        // through a pool the way NetBSD mbufs do — released frames are
        // offered again — so the number prices the modulation layer,
        // not the allocator (which otherwise dominates at ~300 ns per
        // 1514-byte frame with this much held backlog).
        let per_tick = 100u64;
        let mut out: Vec<ShimRelease> = Vec::new();
        let mut pool: Vec<Vec<u8>> = Vec::new();
        b.iter(|| {
            let mut m = Modulator::from_replay(replay.clone()).with_clock(TickClock::netbsd());
            let mut rng = SimRng::seed_from_u64(1);
            m.begin(SimTime::ZERO);
            let mut released = 0u64;
            let recycle = |out: &mut Vec<ShimRelease>, pool: &mut Vec<Vec<u8>>| {
                let k = out.len() as u64;
                pool.extend(out.drain(..).map(|rel| rel.bytes));
                k
            };
            for tick in 0..n / per_tick {
                let now = SimTime::from_millis(tick * 10);
                m.offer_batch(
                    Direction::Outbound,
                    (0..per_tick).map(|_| pool.pop().unwrap_or_else(|| vec![0u8; 1514])),
                    now,
                    &mut rng,
                    &mut out,
                );
                released += recycle(&mut out, &mut pool);
                m.collect_due_into(now, &mut rng, &mut out);
                released += recycle(&mut out, &mut pool);
            }
            m.collect_due_into(SimTime::from_secs(4000), &mut rng, &mut out);
            released += recycle(&mut out, &mut pool);
            assert!(released > 0);
        });
    });
    g.finish();
}

fn bench_ring_buffer(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracekit");
    let n = 100_000u64;
    let rec = |i: u64| {
        TraceRecord::Packet(PacketRecord {
            timestamp_ns: i,
            dir: Dir::Out,
            wire_len: 100,
            proto: ProtoInfo::Other { protocol: 1 },
        })
    };
    g.throughput(Throughput::Elements(n));
    g.bench_function("ringbuf_push_100k", |b| {
        // Pure push cost: rounds of capacity-many stores, cleared
        // between rounds so every push takes the store path (a full
        // ring rejects in O(1), which would make the number a lie).
        b.iter(|| {
            let mut rb = RingBuffer::new(4096);
            for round in 0..n / 4096 {
                for i in 0..4096 {
                    rb.push(rec(round * 4096 + i));
                }
                rb.clear();
            }
            assert_eq!(rb.total_pushed(), (n / 4096) * 4096);
        });
    });
    g.bench_function("ringbuf_drain_100k", |b| {
        // Refill + wholesale drain in capacity-sized rounds. The push
        // half above prices the refill, so the delta between the two
        // entries is the drain cost proper.
        b.iter(|| {
            let mut rb = RingBuffer::new(4096);
            let mut out = 0usize;
            for round in 0..n / 4096 {
                for i in 0..4096 {
                    rb.push(rec(round * 4096 + i));
                }
                out += rb.drain(usize::MAX, round).len();
            }
            assert!(out > 0);
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_distillation,
    bench_streaming_distillation,
    bench_chunked_decode,
    bench_modulation_layer,
    bench_ring_buffer
);
criterion_main!(benches);
