//! File I/O for traces (`.mntr`) and replay traces (`.mnrp`), in the
//! binary encoding of [`crate::format`] whatever the file's extension.
//!
//! Trace I/O streams end to end: [`write_trace`] appends records
//! through a [`ChunkedTraceWriter`] and [`read_trace`] pulls them back
//! through a [`TraceFileStream`], so neither needs the encoded file in
//! memory. The chunked forms are public so callers can write records as
//! they are collected and replay traces far longer than memory.

use crate::format::{
    decode_replay, encode_record, encode_replay, encode_trace_header, ChunkDecoder, TraceHeader,
};
use crate::record::{Trace, TraceRecord};
use crate::replay::ReplayTrace;
use crate::stream::{RecordStream, StreamError};
use std::collections::VecDeque;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

fn invalid<E: std::error::Error + Send + Sync + 'static>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Incremental writer for the binary trace format: the header goes out
/// first with a zero record count, records are appended as they arrive,
/// and [`finish`](ChunkedTraceWriter::finish) seeks back to patch the
/// true count in. The resulting file is byte-identical to
/// [`write_trace`] on the equivalent batch [`Trace`].
#[derive(Debug)]
pub struct ChunkedTraceWriter {
    out: io::BufWriter<fs::File>,
    count_offset: u64,
    count: u32,
}

impl ChunkedTraceWriter {
    /// Start a binary trace file at `path` with the given provenance.
    pub fn create(path: &Path, host: &str, scenario: &str, trial: u32) -> io::Result<Self> {
        let header = encode_trace_header(host, scenario, trial, 0);
        let count_offset = (header.len() - 4) as u64;
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        out.write_all(&header)?;
        Ok(ChunkedTraceWriter {
            out,
            count_offset,
            count: 0,
        })
    }

    /// Append one record.
    pub fn push_record(&mut self, rec: &TraceRecord) -> io::Result<()> {
        if self.count == u32::MAX {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "trace record count overflow",
            ));
        }
        self.out.write_all(&encode_record(rec))?;
        self.count += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Patch the record count into the header and flush. Returns the
    /// final record count.
    pub fn finish(mut self) -> io::Result<u32> {
        self.out.seek(SeekFrom::Start(self.count_offset))?;
        self.out.write_all(&self.count.to_le_bytes())?;
        self.out.flush()?;
        Ok(self.count)
    }
}

/// Streaming reader for binary trace files: a [`RecordStream`] that
/// reads the file in fixed-size chunks through a zero-copy
/// [`ChunkDecoder`], so memory stays bounded by the chunk size
/// regardless of trace length and only record bytes straddling a chunk
/// boundary are ever copied.
#[derive(Debug)]
pub struct TraceFileStream {
    file: fs::File,
    decoder: ChunkDecoder,
    chunk: Vec<u8>,
    ready: VecDeque<TraceRecord>,
    batch: Vec<TraceRecord>,
    eof: bool,
}

impl TraceFileStream {
    /// Default read chunk: 64 KiB.
    pub const DEFAULT_CHUNK: usize = 64 * 1024;

    /// Open a binary trace file with the default chunk size.
    pub fn open(path: &Path) -> io::Result<Self> {
        TraceFileStream::open_chunked(path, TraceFileStream::DEFAULT_CHUNK)
    }

    /// Open a binary trace file reading `chunk` bytes at a time.
    pub fn open_chunked(path: &Path, chunk: usize) -> io::Result<Self> {
        Ok(TraceFileStream {
            file: fs::File::open(path)?,
            decoder: ChunkDecoder::new(),
            chunk: vec![0; chunk.max(1)],
            ready: VecDeque::new(),
            batch: Vec::new(),
            eof: false,
        })
    }

    // Read and decode one more chunk; false at end of file.
    fn fill(&mut self) -> Result<bool, StreamError> {
        if self.eof {
            return Ok(false);
        }
        let n = self.file.read(&mut self.chunk)?;
        if n == 0 {
            self.eof = true;
            return Ok(false);
        }
        let mut batch = std::mem::take(&mut self.batch);
        let res = self.decoder.decode_chunk(&self.chunk[..n], &mut batch);
        self.ready.extend(batch.drain(..));
        self.batch = batch;
        res?;
        Ok(true)
    }

    /// The trace header (reads just enough of the file to decode it).
    pub fn header(&mut self) -> Result<&TraceHeader, StreamError> {
        while self.decoder.header().is_none() {
            if !self.fill()? {
                return Err(crate::format::FormatError::Truncated.into());
            }
        }
        Ok(self.decoder.header().expect("header decoded"))
    }

    /// Bytes currently buffered but not yet decoded (diagnostics; stays
    /// bounded by one straddling item).
    pub fn buffered(&self) -> usize {
        self.decoder.buffered()
    }
}

impl RecordStream for TraceFileStream {
    fn next_record(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        loop {
            if let Some(rec) = self.ready.pop_front() {
                return Ok(Some(rec));
            }
            if self.decoder.is_complete() {
                return Ok(None);
            }
            if !self.fill()? {
                // No more bytes: any missing record is a real truncation.
                self.decoder.finish()?;
                return Ok(None);
            }
        }
    }
}

/// Write a collected trace to `path`, streaming its records through a
/// [`ChunkedTraceWriter`].
pub fn write_trace(path: &Path, trace: &Trace) -> io::Result<()> {
    let mut w = ChunkedTraceWriter::create(path, &trace.host, &trace.scenario, trace.trial)?;
    for r in &trace.records {
        w.push_record(r)?;
    }
    w.finish()?;
    Ok(())
}

/// Read a collected trace from `path`, streaming its records through a
/// [`TraceFileStream`].
pub fn read_trace(path: &Path) -> io::Result<Trace> {
    let mut stream = TraceFileStream::open(path)?;
    let header = stream.header().map_err(io::Error::from)?.clone();
    let mut records = Vec::with_capacity((header.count as usize).min(1 << 20));
    while let Some(rec) = stream.next_record().map_err(io::Error::from)? {
        records.push(rec);
    }
    Ok(Trace {
        host: header.host,
        scenario: header.scenario,
        trial: header.trial,
        records,
    })
}

/// Write a replay trace to `path`.
pub fn write_replay(path: &Path, replay: &ReplayTrace) -> io::Result<()> {
    fs::write(path, encode_replay(replay))
}

/// Read a replay trace from `path`.
pub fn read_replay(path: &Path) -> io::Result<ReplayTrace> {
    decode_replay(&fs::read(path)?).map_err(invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::encode_trace;
    use crate::record::{Dir, OverrunRecord, PacketRecord, ProtoInfo, TraceRecord};
    use crate::replay::QualityTuple;

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tracekit-io-{}", std::process::id()));
        fs::create_dir_all(&d).expect("create temp dir");
        d
    }

    fn sample_trace() -> Trace {
        let mut t = Trace::new("h", "porter", 1);
        t.records.push(TraceRecord::Packet(PacketRecord {
            timestamp_ns: 7,
            dir: Dir::In,
            wire_len: 98,
            proto: ProtoInfo::Other { protocol: 1 },
        }));
        t
    }

    fn sample_replay() -> ReplayTrace {
        ReplayTrace {
            source: "test".into(),
            tuples: vec![QualityTuple {
                duration_ns: 5_000_000_000,
                latency_ns: 2_000_000,
                vb_ns_per_byte: 4000.0,
                vr_ns_per_byte: 800.0,
                loss: 0.05,
            }],
        }
    }

    fn bigger_trace() -> Trace {
        let mut t = Trace::new("thinkpad", "flagstaff", 3);
        for i in 0..500u64 {
            t.records.push(TraceRecord::Packet(PacketRecord {
                timestamp_ns: i * 1000,
                dir: if i % 2 == 0 { Dir::Out } else { Dir::In },
                wire_len: 98,
                proto: ProtoInfo::IcmpEcho {
                    ident: 7,
                    seq: i as u16,
                    payload_len: 56,
                    gen_ts_ns: i * 1000,
                },
            }));
        }
        t.records.push(TraceRecord::Overrun(OverrunRecord {
            timestamp_ns: 600_000,
            lost_packets: 12,
            lost_device: 1,
        }));
        t
    }

    #[test]
    fn trace_binary_round_trip() {
        let p = tmpdir().join("t.mntr");
        write_trace(&p, &sample_trace()).expect("write trace");
        assert_eq!(read_trace(&p).expect("read trace"), sample_trace());
    }

    #[test]
    fn replay_binary_round_trip() {
        let p = tmpdir().join("r.mnrp");
        write_replay(&p, &sample_replay()).expect("write replay");
        assert_eq!(read_replay(&p).expect("read replay"), sample_replay());
    }

    #[test]
    fn corrupt_file_is_invalid_data() {
        let dir = tmpdir();
        let p = dir.join("junk.mntr");
        fs::write(&p, b"not a trace").expect("write junk file");
        let err = read_trace(&p).expect_err("corrupt trace must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn missing_file_is_not_found() {
        let p = tmpdir().join("nonexistent.mnrp");
        let err = read_replay(&p).expect_err("missing file must fail");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn chunked_writer_matches_batch_encoding_bytewise() {
        let dir = tmpdir();
        let t = bigger_trace();
        let p = dir.join("chunked.mntr");
        let mut w = ChunkedTraceWriter::create(&p, &t.host, &t.scenario, t.trial)
            .expect("create chunked writer");
        for r in &t.records {
            w.push_record(r).expect("push record");
        }
        assert_eq!(w.finish().expect("finish writer") as usize, t.records.len());
        assert_eq!(fs::read(&p).expect("read file bytes"), encode_trace(&t));
    }

    #[test]
    fn file_stream_round_trip_small_chunks() {
        let dir = tmpdir();
        let t = bigger_trace();
        let p = dir.join("stream.mntr");
        write_trace(&p, &t).expect("write trace");
        for chunk in [1, 7, 64, 4096] {
            let mut s = TraceFileStream::open_chunked(&p, chunk).expect("open stream");
            let h = s.header().expect("stream header").clone();
            assert_eq!(h.scenario, "flagstaff");
            let mut records = Vec::new();
            while let Some(r) = s.next_record().expect("next record") {
                records.push(r);
            }
            assert_eq!(records, t.records, "chunk size {chunk}");
        }
    }

    #[test]
    fn file_stream_memory_stays_bounded() {
        let dir = tmpdir();
        let t = bigger_trace();
        let p = dir.join("bounded.mntr");
        write_trace(&p, &t).expect("write trace");
        let mut s = TraceFileStream::open_chunked(&p, 128).expect("open stream");
        let mut peak = 0;
        while s.next_record().expect("next record").is_some() {
            peak = peak.max(s.buffered());
        }
        assert!(peak <= 128 + 64, "peak buffered {peak}");
    }

    #[test]
    fn truncated_file_streams_then_errors() {
        let dir = tmpdir();
        let t = bigger_trace();
        let bytes = encode_trace(&t);
        let p = dir.join("cut.mntr");
        fs::write(&p, &bytes[..bytes.len() / 2]).expect("write truncated file");
        let mut s = TraceFileStream::open(&p).expect("open stream");
        let mut n = 0;
        let err = loop {
            match s.next_record() {
                Ok(Some(_)) => n += 1,
                Ok(None) => panic!("truncation must surface as an error"),
                Err(e) => break e,
            }
        };
        assert!(n > 0, "some records decode before the cut");
        assert!(matches!(
            err,
            StreamError::Format(crate::format::FormatError::Truncated)
        ));
    }
}
