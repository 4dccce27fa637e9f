//! Compact self-descriptive binary encoding for traces and replay traces,
//! the one encoding of both file kinds (`tracemod inspect --records N`
//! prints a trace for humans).
//!
//! Two decoding styles share one record codec:
//!
//! * [`decode_trace`] — batch: the whole file is in memory;
//! * [`ChunkDecoder`] — incremental: bytes arrive in arbitrary chunks
//!   and records are decoded in place as soon as they are complete,
//!   holding only an item that straddles a chunk boundary. This is what
//!   the streaming file reader ([`crate::io::TraceFileStream`]) and the
//!   fault injector's quarantine path build on.

use crate::record::{
    DeviceRecord, Dir, OverrunRecord, PacketRecord, ProtoInfo, Trace, TraceRecord,
};
use crate::replay::{QualityTuple, ReplayTrace};
use std::fmt;

/// Magic for collected traces ("Mobile Network TRace").
pub const TRACE_MAGIC: [u8; 4] = *b"MNTR";
/// Magic for replay traces.
pub const REPLAY_MAGIC: [u8; 4] = *b"MNRP";
/// Current format version.
pub const VERSION: u16 = 1;

/// Errors decoding a binary trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported version.
    BadVersion(u16),
    /// Ran out of bytes mid-record.
    Truncated,
    /// Unknown record/protocol tag.
    BadTag(u8),
    /// A string field was not UTF-8.
    BadString,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "bad magic"),
            FormatError::BadVersion(v) => write!(f, "unsupported version {v}"),
            FormatError::Truncated => write!(f, "truncated file"),
            FormatError::BadTag(t) => write!(f, "unknown tag {t}"),
            FormatError::BadString => write!(f, "invalid UTF-8 string"),
        }
    }
}

impl std::error::Error for FormatError {}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        if self.pos + n > self.data.len() {
            return Err(FormatError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, FormatError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, FormatError> {
        let b = <[u8; 2]>::try_from(self.take(2)?).map_err(|_| FormatError::Truncated)?;
        Ok(u16::from_le_bytes(b))
    }
    fn u32(&mut self) -> Result<u32, FormatError> {
        let b = <[u8; 4]>::try_from(self.take(4)?).map_err(|_| FormatError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> Result<u64, FormatError> {
        let b = <[u8; 8]>::try_from(self.take(8)?).map_err(|_| FormatError::Truncated)?;
        Ok(u64::from_le_bytes(b))
    }
    fn f64(&mut self) -> Result<f64, FormatError> {
        let b = <[u8; 8]>::try_from(self.take(8)?).map_err(|_| FormatError::Truncated)?;
        Ok(f64::from_le_bytes(b))
    }
    fn str(&mut self) -> Result<String, FormatError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FormatError::BadString)
    }
    fn done(&self) -> bool {
        self.pos >= self.data.len()
    }
}

/// Trace file header: provenance plus the declared record count.
///
/// On the wire: magic, version, `host`, `scenario`, `trial`, then the
/// record count as the final four (little-endian) bytes — the chunked
/// writer exploits that placement to patch the count in after the fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Hostname of the traced machine.
    pub host: String,
    /// Scenario label ("porter", "wean", ...).
    pub scenario: String,
    /// Trial number within the scenario.
    pub trial: u32,
    /// Number of records that follow the header.
    pub count: u32,
}

/// Encode a trace file header. The record count occupies the final four
/// bytes of the returned buffer.
pub fn encode_trace_header(host: &str, scenario: &str, trial: u32, count: u32) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(&TRACE_MAGIC);
    w.u16(VERSION);
    w.str(host);
    w.str(scenario);
    w.u32(trial);
    w.u32(count);
    w.buf
}

fn read_trace_header(r: &mut Reader<'_>) -> Result<TraceHeader, FormatError> {
    if r.take(4)? != TRACE_MAGIC {
        return Err(FormatError::BadMagic);
    }
    let v = r.u16()?;
    if v != VERSION {
        return Err(FormatError::BadVersion(v));
    }
    Ok(TraceHeader {
        host: r.str()?,
        scenario: r.str()?,
        trial: r.u32()?,
        count: r.u32()?,
    })
}

fn write_record(w: &mut Writer, r: &TraceRecord) {
    match r {
        TraceRecord::Packet(p) => {
            w.u8(1);
            w.u64(p.timestamp_ns);
            w.u8(match p.dir {
                Dir::Out => 0,
                Dir::In => 1,
            });
            w.u32(p.wire_len);
            match &p.proto {
                ProtoInfo::IcmpEcho {
                    ident,
                    seq,
                    payload_len,
                    gen_ts_ns,
                } => {
                    w.u8(1);
                    w.u16(*ident);
                    w.u16(*seq);
                    w.u32(*payload_len);
                    w.u64(*gen_ts_ns);
                }
                ProtoInfo::IcmpEchoReply {
                    ident,
                    seq,
                    payload_len,
                    rtt_ns,
                } => {
                    w.u8(2);
                    w.u16(*ident);
                    w.u16(*seq);
                    w.u32(*payload_len);
                    w.u64(*rtt_ns);
                }
                ProtoInfo::Udp {
                    src_port,
                    dst_port,
                    payload_len,
                } => {
                    w.u8(3);
                    w.u16(*src_port);
                    w.u16(*dst_port);
                    w.u32(*payload_len);
                }
                ProtoInfo::Tcp {
                    src_port,
                    dst_port,
                    seq,
                    ack,
                    flags,
                    payload_len,
                } => {
                    w.u8(4);
                    w.u16(*src_port);
                    w.u16(*dst_port);
                    w.u32(*seq);
                    w.u32(*ack);
                    w.u8(*flags);
                    w.u32(*payload_len);
                }
                ProtoInfo::Other { protocol } => {
                    w.u8(5);
                    w.u8(*protocol);
                }
            }
        }
        TraceRecord::Device(d) => {
            w.u8(2);
            w.u64(d.timestamp_ns);
            w.u32(d.signal);
            w.u32(d.quality);
            w.u32(d.silence);
        }
        TraceRecord::Overrun(o) => {
            w.u8(3);
            w.u64(o.timestamp_ns);
            w.u64(o.lost_packets);
            w.u64(o.lost_device);
        }
    }
}

/// The length of [`encode_record`]'s output, without encoding: every
/// record kind has a fixed layout.
pub fn encoded_record_len(r: &TraceRecord) -> usize {
    match r {
        TraceRecord::Packet(p) => {
            // Tag, timestamp, direction, wire length, then the protocol
            // tag and its fields.
            14 + match p.proto {
                ProtoInfo::IcmpEcho { .. } | ProtoInfo::IcmpEchoReply { .. } => 17,
                ProtoInfo::Udp { .. } => 9,
                ProtoInfo::Tcp { .. } => 18,
                ProtoInfo::Other { .. } => 2,
            }
        }
        TraceRecord::Device(_) => 21,
        TraceRecord::Overrun(_) => 25,
    }
}

/// Encode a single record exactly as it would appear inside a trace file.
pub fn encode_record(r: &TraceRecord) -> Vec<u8> {
    let mut w = Writer::new();
    write_record(&mut w, r);
    w.buf
}

fn read_record(r: &mut Reader<'_>) -> Result<TraceRecord, FormatError> {
    let tag = r.u8()?;
    let rec = match tag {
        1 => {
            let timestamp_ns = r.u64()?;
            let dir = match r.u8()? {
                0 => Dir::Out,
                1 => Dir::In,
                d => return Err(FormatError::BadTag(d)),
            };
            let wire_len = r.u32()?;
            let ptag = r.u8()?;
            let proto = match ptag {
                1 => ProtoInfo::IcmpEcho {
                    ident: r.u16()?,
                    seq: r.u16()?,
                    payload_len: r.u32()?,
                    gen_ts_ns: r.u64()?,
                },
                2 => ProtoInfo::IcmpEchoReply {
                    ident: r.u16()?,
                    seq: r.u16()?,
                    payload_len: r.u32()?,
                    rtt_ns: r.u64()?,
                },
                3 => ProtoInfo::Udp {
                    src_port: r.u16()?,
                    dst_port: r.u16()?,
                    payload_len: r.u32()?,
                },
                4 => ProtoInfo::Tcp {
                    src_port: r.u16()?,
                    dst_port: r.u16()?,
                    seq: r.u32()?,
                    ack: r.u32()?,
                    flags: r.u8()?,
                    payload_len: r.u32()?,
                },
                5 => ProtoInfo::Other { protocol: r.u8()? },
                t => return Err(FormatError::BadTag(t)),
            };
            TraceRecord::Packet(PacketRecord {
                timestamp_ns,
                dir,
                wire_len,
                proto,
            })
        }
        2 => TraceRecord::Device(DeviceRecord {
            timestamp_ns: r.u64()?,
            signal: r.u32()?,
            quality: r.u32()?,
            silence: r.u32()?,
        }),
        3 => TraceRecord::Overrun(OverrunRecord {
            timestamp_ns: r.u64()?,
            lost_packets: r.u64()?,
            lost_device: r.u64()?,
        }),
        t => return Err(FormatError::BadTag(t)),
    };
    Ok(rec)
}

/// Encode a collected trace to bytes.
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    let mut w = Writer {
        buf: encode_trace_header(
            &trace.host,
            &trace.scenario,
            trace.trial,
            trace.records.len() as u32,
        ),
    };
    for r in &trace.records {
        write_record(&mut w, r);
    }
    w.buf
}

/// Decode a collected trace.
pub fn decode_trace(data: &[u8]) -> Result<Trace, FormatError> {
    let mut r = Reader::new(data);
    let header = read_trace_header(&mut r)?;
    let count = header.count as usize;
    let mut records = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        records.push(read_record(&mut r)?);
    }
    Ok(Trace {
        host: header.host,
        scenario: header.scenario,
        trial: header.trial,
        records,
    })
}

/// How far the carry buffer is topped up per attempt while completing
/// an item that straddles a chunk boundary. Records are at most ~41
/// wire bytes, so one step almost always completes a record; headers
/// (variable-length strings) may take a few.
const CARRY_STEP: usize = 64;

/// One step of chunk decoding: a parsed item (header or quarantined byte
/// → `None`, record → `Some`) plus the bytes it consumed, or a request
/// for more input.
enum Parsed {
    Item(Option<TraceRecord>, usize),
    NeedMore,
}

/// Zero-copy incremental decoder for the binary trace format.
///
/// Feed it bytes in whatever chunk sizes arrive — a 64 KiB file read, a
/// network segment, one byte at a time. It parses records *directly
/// from the caller's chunk slice*; only the bytes of an item that
/// straddles a chunk boundary are copied into a small carry buffer
/// (bounded by one record — or the header — plus a small top-up step).
/// Memory stays bounded whatever the trace length, and the distillation
/// ingest path pays no per-chunk memcpy.
///
/// Decoded records are appended to a caller-owned `Vec`, so a streaming
/// reader can reuse one allocation across the whole file. An incomplete
/// item is held until its remaining bytes arrive; a truncation error is
/// only reported by [`finish`](ChunkDecoder::finish), when the caller
/// knows no more bytes are coming.
///
/// # Quarantine mode
///
/// With [`quarantining`](ChunkDecoder::quarantining) enabled, a
/// malformed record body (an unknown tag byte) no longer errors the
/// whole stream. The decoder instead skips forward one byte at a time
/// until a record decodes again, counting each contiguous skip run as
/// one quarantined record (charged against the declared count) and
/// every skipped byte in
/// [`quarantined_bytes`](ChunkDecoder::quarantined_bytes). A skip run
/// may span chunk boundaries: the carry buffer holds the bytes still
/// being tried. Header corruption ([`FormatError::BadMagic`] /
/// [`FormatError::BadVersion`]) is still a hard error: without a
/// trusted header nothing downstream is meaningful.
#[derive(Debug, Default)]
pub struct ChunkDecoder {
    header: Option<TraceHeader>,
    remaining: u32,
    carry: Vec<u8>,
    quarantine: bool,
    skipping: bool,
    quarantined_records: u64,
    quarantined_bytes: u64,
}

impl ChunkDecoder {
    /// A decoder with no bytes seen yet.
    pub fn new() -> Self {
        ChunkDecoder::default()
    }

    /// Enable quarantine mode: malformed record bodies are skipped and
    /// counted instead of erroring the stream.
    pub fn quarantining(mut self) -> Self {
        self.quarantine = true;
        self
    }

    /// Contiguous runs of malformed record bytes skipped so far (each
    /// run counts as one lost record).
    pub fn quarantined_records(&self) -> u64 {
        self.quarantined_records
    }

    /// Total bytes skipped while resynchronizing after malformed
    /// records.
    pub fn quarantined_bytes(&self) -> u64 {
        self.quarantined_bytes
    }

    /// The file header, once enough bytes have been decoded.
    pub fn header(&self) -> Option<&TraceHeader> {
        self.header.as_ref()
    }

    /// Bytes held over from the last chunk (an incomplete item).
    pub fn buffered(&self) -> usize {
        self.carry.len()
    }

    /// Have all records declared by the header been decoded?
    pub fn is_complete(&self) -> bool {
        self.header.is_some() && self.remaining == 0
    }

    /// Declare end-of-input: errors with [`FormatError::Truncated`] if
    /// the header or any declared record is still missing.
    pub fn finish(&self) -> Result<(), FormatError> {
        if self.is_complete() {
            Ok(())
        } else {
            Err(FormatError::Truncated)
        }
    }

    /// Decode every complete record in `chunk` (plus whatever the carry
    /// buffer was holding), appending to `out`. The trailing incomplete
    /// item, if any, is carried into the next call.
    pub fn decode_chunk(
        &mut self,
        chunk: &[u8],
        out: &mut Vec<TraceRecord>,
    ) -> Result<(), FormatError> {
        let mut rest = chunk;
        if !self.carry.is_empty() {
            // Finish the straddling item: top the carry up in small
            // steps until it parses, then drain any complete items the
            // top-ups brought along.
            let mut carry = std::mem::take(&mut self.carry);
            loop {
                if self.is_complete() {
                    carry.clear();
                    break;
                }
                match self.parse_step(&carry)? {
                    Parsed::Item(rec, used) => {
                        if let Some(r) = rec {
                            out.push(r);
                        }
                        carry.drain(..used);
                        if carry.is_empty() {
                            break;
                        }
                    }
                    Parsed::NeedMore => {
                        if rest.is_empty() {
                            break;
                        }
                        let take = rest.len().min(CARRY_STEP);
                        carry.extend_from_slice(&rest[..take]);
                        rest = &rest[take..];
                    }
                }
            }
            self.carry = carry;
            if !self.carry.is_empty() {
                debug_assert!(rest.is_empty(), "carry persists only when input ran out");
                return Ok(());
            }
        }
        // Fast path: parse in place from the borrowed chunk.
        let mut pos = 0;
        while !self.is_complete() {
            match self.parse_step(&rest[pos..])? {
                Parsed::Item(rec, used) => {
                    if let Some(r) = rec {
                        out.push(r);
                    }
                    pos += used;
                }
                Parsed::NeedMore => {
                    self.carry.extend_from_slice(&rest[pos..]);
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Try to parse one item (header first, then records) from the
    /// front of `buf`. A quarantined byte is an item with no record.
    fn parse_step(&mut self, buf: &[u8]) -> Result<Parsed, FormatError> {
        let mut r = Reader::new(buf);
        if self.header.is_none() {
            return match read_trace_header(&mut r) {
                Ok(h) => {
                    self.remaining = h.count;
                    self.header = Some(h);
                    Ok(Parsed::Item(None, r.pos))
                }
                Err(FormatError::Truncated) => Ok(Parsed::NeedMore),
                Err(e) => Err(e),
            };
        }
        debug_assert!(self.remaining > 0, "callers check is_complete first");
        match read_record(&mut r) {
            Ok(rec) => {
                self.remaining -= 1;
                self.skipping = false;
                Ok(Parsed::Item(Some(rec), r.pos))
            }
            Err(FormatError::Truncated) => Ok(Parsed::NeedMore),
            Err(e) if !self.quarantine => Err(e),
            Err(_) => {
                // Start of a new malformed run: charge one record
                // against the declared count so the stream can still
                // complete. Then skip one byte and try again.
                if !self.skipping {
                    self.skipping = true;
                    self.quarantined_records += 1;
                    self.remaining -= 1;
                }
                self.quarantined_bytes += 1;
                Ok(Parsed::Item(None, 1))
            }
        }
    }
}

/// Encode a replay trace (the list S of quality tuples) to bytes.
pub fn encode_replay(replay: &ReplayTrace) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(&REPLAY_MAGIC);
    w.u16(VERSION);
    w.str(&replay.source);
    w.u32(replay.tuples.len() as u32);
    for t in &replay.tuples {
        w.u64(t.duration_ns);
        w.u64(t.latency_ns);
        w.f64(t.vb_ns_per_byte);
        w.f64(t.vr_ns_per_byte);
        w.f64(t.loss);
    }
    w.buf
}

/// Decode a replay trace.
pub fn decode_replay(data: &[u8]) -> Result<ReplayTrace, FormatError> {
    let mut r = Reader::new(data);
    if r.take(4)? != REPLAY_MAGIC {
        return Err(FormatError::BadMagic);
    }
    let v = r.u16()?;
    if v != VERSION {
        return Err(FormatError::BadVersion(v));
    }
    let source = r.str()?;
    let count = r.u32()? as usize;
    let mut tuples = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        tuples.push(QualityTuple {
            duration_ns: r.u64()?,
            latency_ns: r.u64()?,
            vb_ns_per_byte: r.f64()?,
            vr_ns_per_byte: r.f64()?,
            loss: r.f64()?,
        });
    }
    if !r.done() {
        // Trailing garbage is tolerated (future extension area), matching
        // the "flexible and extensible" goal of the trace format.
    }
    Ok(ReplayTrace { source, tuples })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("thinkpad", "wean", 2);
        t.records.push(TraceRecord::Packet(PacketRecord {
            timestamp_ns: 1,
            dir: Dir::Out,
            wire_len: 98,
            proto: ProtoInfo::IcmpEcho {
                ident: 9,
                seq: 4,
                payload_len: 56,
                gen_ts_ns: 1,
            },
        }));
        t.records.push(TraceRecord::Packet(PacketRecord {
            timestamp_ns: 5,
            dir: Dir::In,
            wire_len: 98,
            proto: ProtoInfo::IcmpEchoReply {
                ident: 9,
                seq: 4,
                payload_len: 56,
                rtt_ns: 4,
            },
        }));
        t.records.push(TraceRecord::Packet(PacketRecord {
            timestamp_ns: 9,
            dir: Dir::Out,
            wire_len: 600,
            proto: ProtoInfo::Tcp {
                src_port: 40001,
                dst_port: 21,
                seq: 1234,
                ack: 99,
                flags: 0x18,
                payload_len: 512,
            },
        }));
        t.records.push(TraceRecord::Packet(PacketRecord {
            timestamp_ns: 11,
            dir: Dir::In,
            wire_len: 142,
            proto: ProtoInfo::Udp {
                src_port: 2049,
                dst_port: 50001,
                payload_len: 100,
            },
        }));
        t.records.push(TraceRecord::Packet(PacketRecord {
            timestamp_ns: 12,
            dir: Dir::In,
            wire_len: 60,
            proto: ProtoInfo::Other { protocol: 89 },
        }));
        t.records.push(TraceRecord::Device(DeviceRecord {
            timestamp_ns: 15,
            signal: 18,
            quality: 10,
            silence: 2,
        }));
        t.records.push(TraceRecord::Overrun(OverrunRecord {
            timestamp_ns: 20,
            lost_packets: 3,
            lost_device: 0,
        }));
        t
    }

    #[test]
    fn encoded_record_len_is_the_encoding_length() {
        for r in &sample().records {
            assert_eq!(encoded_record_len(r), encode_record(r).len(), "{r:?}");
        }
    }

    #[test]
    fn trace_binary_round_trip() {
        let t = sample();
        let bytes = encode_trace(&t);
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn trace_bad_magic() {
        let mut bytes = encode_trace(&sample());
        bytes[0] = b'X';
        assert_eq!(decode_trace(&bytes), Err(FormatError::BadMagic));
    }

    #[test]
    fn trace_truncation_detected() {
        let bytes = encode_trace(&sample());
        for cut in [5, 10, bytes.len() - 1] {
            assert!(decode_trace(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trace_bad_version() {
        let mut bytes = encode_trace(&sample());
        bytes[4] = 0xff;
        assert!(matches!(
            decode_trace(&bytes),
            Err(FormatError::BadVersion(_))
        ));
    }

    #[test]
    fn header_plus_records_equals_encode_trace() {
        let t = sample();
        let mut bytes = encode_trace_header(&t.host, &t.scenario, t.trial, t.records.len() as u32);
        for r in &t.records {
            bytes.extend_from_slice(&encode_record(r));
        }
        assert_eq!(bytes, encode_trace(&t));
    }

    /// Decode `bytes` in `chunk`-sized pieces, returning the records and
    /// the decoder.
    fn decode_in_chunks(
        mut dec: ChunkDecoder,
        bytes: &[u8],
        chunk: usize,
    ) -> (Vec<TraceRecord>, ChunkDecoder) {
        let mut records = Vec::new();
        for piece in bytes.chunks(chunk) {
            dec.decode_chunk(piece, &mut records).unwrap();
        }
        (records, dec)
    }

    /// A device record whose every wire byte is 4, an invalid tag: once
    /// its own tag is damaged, quarantine skips all of it in one run.
    fn all_fours() -> TraceRecord {
        TraceRecord::Device(DeviceRecord {
            timestamp_ns: 0x0404_0404_0404_0404,
            signal: 0x0404_0404,
            quality: 0x0404_0404,
            silence: 0x0404_0404,
        })
    }

    #[test]
    fn incremental_decoder_single_byte_chunks() {
        let t = sample();
        let bytes = encode_trace(&t);
        let reference = decode_trace(&bytes).unwrap();
        for dec in [ChunkDecoder::new(), ChunkDecoder::new().quarantining()] {
            let (records, dec) = decode_in_chunks(dec, &bytes, 1);
            dec.finish().unwrap();
            assert_eq!(records, reference.records);
            let h = dec.header().unwrap();
            assert_eq!((h.host.as_str(), h.scenario.as_str()), ("thinkpad", "wean"));
            assert_eq!(h.count as usize, t.records.len());
            assert_eq!(dec.quarantined_records(), 0);
        }
    }

    #[test]
    fn incremental_decoder_bounded_buffer() {
        // Quarantine mode over a long, periodically damaged trace: the
        // carry never grows past one straddling item plus a top-up step.
        let mut t = Trace::new("h", "s", 1);
        for i in 0..10_000u64 {
            t.records.push(if i % 100 == 50 {
                all_fours()
            } else {
                TraceRecord::Device(DeviceRecord {
                    timestamp_ns: i,
                    signal: 1,
                    quality: 2,
                    silence: 3,
                })
            });
        }
        let mut bytes = encode_trace(&t);
        let header_len = bytes.len() - t.records.len() * 21;
        for i in (50..10_000).step_by(100) {
            bytes[header_len + i * 21] = 4;
        }
        let mut dec = ChunkDecoder::new().quarantining();
        let mut n = 0;
        let mut peak = 0;
        let mut records = Vec::new();
        for chunk in bytes.chunks(256) {
            dec.decode_chunk(chunk, &mut records).unwrap();
            n += records.len();
            records.clear();
            peak = peak.max(dec.buffered());
        }
        dec.finish().unwrap();
        assert_eq!(n, 9_900);
        assert_eq!(dec.quarantined_records(), 100);
        assert_eq!(dec.quarantined_bytes(), 100 * 21);
        assert!(peak < 64 + CARRY_STEP, "peak carry {peak}");
    }

    #[test]
    fn incremental_decoder_truncation_only_at_finish() {
        let bytes = encode_trace(&sample());
        let cut = bytes.len() - 3;
        let mut dec = ChunkDecoder::new().quarantining();
        let mut records = Vec::new();
        dec.decode_chunk(&bytes[..cut], &mut records).unwrap();
        assert!(!dec.is_complete());
        assert_eq!(dec.finish(), Err(FormatError::Truncated));
        // Feeding the missing tail completes the stream; a short tail
        // is held, not quarantined.
        dec.decode_chunk(&bytes[cut..], &mut records).unwrap();
        dec.finish().unwrap();
        assert_eq!(records, decode_trace(&bytes).unwrap().records);
        assert_eq!(dec.quarantined_bytes(), 0);
    }

    #[test]
    fn incremental_decoder_bad_magic() {
        // Header damage stays a hard error even in quarantine mode.
        let mut dec = ChunkDecoder::new().quarantining();
        assert_eq!(
            dec.decode_chunk(b"XXXX not a trace", &mut Vec::new()),
            Err(FormatError::BadMagic)
        );
    }

    #[test]
    fn quarantine_resyncs_across_chunk_boundaries() {
        let mut t = sample();
        t.records.insert(3, all_fours());
        let mut bytes = encode_trace(&t);
        let damaged = encode_trace(&Trace {
            records: t.records[..3].to_vec(),
            ..t.clone()
        })
        .len();
        bytes[damaged] = 4;
        let mut expected = t.records.clone();
        expected.remove(3);
        // Every chunk size splits the 21-byte skip run differently.
        for chunk in 1..=bytes.len() {
            let (records, dec) =
                decode_in_chunks(ChunkDecoder::new().quarantining(), &bytes, chunk);
            dec.finish().unwrap();
            assert_eq!(records, expected, "chunk size {chunk}");
            assert_eq!(dec.quarantined_records(), 1, "chunk size {chunk}");
            assert_eq!(dec.quarantined_bytes(), 21, "chunk size {chunk}");
        }
        // Strict mode stops at the damaged tag.
        let mut strict = ChunkDecoder::new();
        assert_eq!(
            strict.decode_chunk(&bytes, &mut Vec::new()),
            Err(FormatError::BadTag(4))
        );
    }

    #[test]
    fn chunk_decoder_matches_decode_trace_at_every_chunk_size() {
        let t = sample();
        let bytes = encode_trace(&t);
        let reference = decode_trace(&bytes).unwrap();
        for chunk_size in [1usize, 2, 3, 7, 16, 64, 1024, bytes.len()] {
            let (records, dec) = decode_in_chunks(ChunkDecoder::new(), &bytes, chunk_size);
            dec.finish().unwrap();
            assert_eq!(records, reference.records, "chunk size {chunk_size}");
            let h = dec.header().unwrap();
            assert_eq!((h.host.as_str(), h.scenario.as_str()), ("thinkpad", "wean"));
        }
    }

    #[test]
    fn chunk_decoder_carry_stays_bounded() {
        let mut t = Trace::new("h", "s", 1);
        for i in 0..10_000u64 {
            t.records.push(TraceRecord::Device(DeviceRecord {
                timestamp_ns: i,
                signal: 1,
                quality: 2,
                silence: 3,
            }));
        }
        let bytes = encode_trace(&t);
        let mut dec = ChunkDecoder::new();
        let mut records = Vec::new();
        let mut peak = 0;
        for chunk in bytes.chunks(256) {
            dec.decode_chunk(chunk, &mut records).unwrap();
            peak = peak.max(dec.buffered());
        }
        dec.finish().unwrap();
        assert_eq!(records.len(), 10_000);
        // Only the straddling item is ever copied.
        assert!(peak < 64 + CARRY_STEP, "peak carry {peak}");
    }

    #[test]
    fn chunk_decoder_truncation_and_bad_magic() {
        let bytes = encode_trace(&sample());
        let mut dec = ChunkDecoder::new();
        let mut records = Vec::new();
        let cut = bytes.len() - 3;
        dec.decode_chunk(&bytes[..cut], &mut records).unwrap();
        assert!(!dec.is_complete());
        assert_eq!(dec.finish(), Err(FormatError::Truncated));
        dec.decode_chunk(&bytes[cut..], &mut records).unwrap();
        dec.finish().unwrap();
        assert_eq!(records, sample().records);

        let mut bad = ChunkDecoder::new();
        assert_eq!(
            bad.decode_chunk(b"XXXX not a trace", &mut Vec::new()),
            Err(FormatError::BadMagic)
        );
    }

    #[test]
    fn replay_binary_round_trip() {
        let r = ReplayTrace {
            source: "porter trial 3".into(),
            tuples: vec![
                QualityTuple {
                    duration_ns: 5_000_000_000,
                    latency_ns: 2_500_000,
                    vb_ns_per_byte: 4000.0,
                    vr_ns_per_byte: 800.0,
                    loss: 0.03,
                },
                QualityTuple {
                    duration_ns: 5_000_000_000,
                    latency_ns: 8_000_000,
                    vb_ns_per_byte: 5200.0,
                    vr_ns_per_byte: 790.0,
                    loss: 0.11,
                },
            ],
        };
        let bytes = encode_replay(&r);
        assert_eq!(decode_replay(&bytes).unwrap(), r);
    }

    #[test]
    fn replay_magic_distinct_from_trace() {
        let r = ReplayTrace {
            source: "x".into(),
            tuples: vec![],
        };
        let bytes = encode_replay(&r);
        assert_eq!(decode_trace(&bytes), Err(FormatError::BadMagic));
    }
}
