//! Pull-based streaming abstractions for the trace pipeline.
//!
//! The paper's dataflow is inherently streaming: the collection daemon
//! drains a fixed ring buffer (§3.1.2) while the distiller is "a simple
//! one-pass filter" (§3.2) feeding the modulation layer. These traits
//! make that shape explicit:
//!
//! * [`RecordStream`] — a pull source of [`TraceRecord`]s: an in-memory
//!   trace ([`VecStream`]) or a chunked binary file
//!   ([`crate::io::TraceFileStream`]);
//! * [`TupleSink`] — a push sink for distilled ⟨d, F, Vb, Vr, L⟩
//!   [`QualityTuple`]s: a plain `Vec`, a [`ReplayTrace`], or the
//!   modulation layer's live tuple feed.
//!
//! The batch API (`Trace` in, `ReplayTrace` out) survives as a thin
//! adapter over these, so figures and ablations stay byte-identical.

use crate::format::FormatError;
use crate::record::{Trace, TraceRecord};
use crate::replay::{QualityTuple, ReplayTrace};
use std::fmt;

/// Errors produced while pulling records from a stream: a malformed
/// encoding, or the I/O layer underneath it failing.
#[derive(Debug)]
pub enum StreamError {
    /// The byte stream did not decode as a valid trace.
    Format(FormatError),
    /// Reading the underlying source failed.
    Io(std::io::Error),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Format(e) => write!(f, "format error: {e}"),
            StreamError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Format(e) => Some(e),
            StreamError::Io(e) => Some(e),
        }
    }
}

impl From<FormatError> for StreamError {
    fn from(e: FormatError) -> Self {
        StreamError::Format(e)
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<StreamError> for std::io::Error {
    fn from(e: StreamError) -> Self {
        match e {
            StreamError::Io(e) => e,
            StreamError::Format(e) => std::io::Error::new(std::io::ErrorKind::InvalidData, e),
        }
    }
}

/// A pull source of trace records.
///
/// `Ok(None)` means the source has (currently) nothing more to give.
/// For finite sources (files, in-memory traces) that is end-of-stream;
/// for a live source it only means "nothing buffered right now" and the
/// caller decides when collection is over.
pub trait RecordStream {
    /// Pull the next record.
    fn next_record(&mut self) -> Result<Option<TraceRecord>, StreamError>;
}

/// A push sink for distilled quality tuples.
///
/// Implemented by `Vec<QualityTuple>` (collect), [`ReplayTrace`]
/// (batch result), and the modulation layer's live feed — so the
/// incremental distiller can emit tuples without caring whether they
/// are being materialized or consumed concurrently.
pub trait TupleSink {
    /// Accept one distilled tuple.
    fn push_tuple(&mut self, tuple: QualityTuple);
}

impl TupleSink for Vec<QualityTuple> {
    fn push_tuple(&mut self, tuple: QualityTuple) {
        self.push(tuple);
    }
}

impl TupleSink for ReplayTrace {
    fn push_tuple(&mut self, tuple: QualityTuple) {
        self.tuples.push(tuple);
    }
}

impl<S: TupleSink + ?Sized> TupleSink for &mut S {
    fn push_tuple(&mut self, tuple: QualityTuple) {
        (**self).push_tuple(tuple);
    }
}

/// A finite stream over an owned record sequence — the adapter that
/// lets batch `Trace`s flow through the streaming pipeline.
#[derive(Debug)]
pub struct VecStream {
    records: std::vec::IntoIter<TraceRecord>,
}

impl VecStream {
    /// Stream over a record vector.
    pub fn new(records: Vec<TraceRecord>) -> Self {
        VecStream {
            records: records.into_iter(),
        }
    }

    /// Stream over a collected trace's records.
    pub fn from_trace(trace: Trace) -> Self {
        VecStream::new(trace.records)
    }
}

impl RecordStream for VecStream {
    fn next_record(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        Ok(self.records.next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Dir, PacketRecord, ProtoInfo};

    fn pkt(ts: u64) -> TraceRecord {
        TraceRecord::Packet(PacketRecord {
            timestamp_ns: ts,
            dir: Dir::In,
            wire_len: 60,
            proto: ProtoInfo::Other { protocol: 6 },
        })
    }

    #[test]
    fn vec_stream_yields_in_order() {
        let mut s = VecStream::new(vec![pkt(1), pkt(2), pkt(3)]);
        let mut ts = Vec::new();
        while let Some(r) = s.next_record().expect("stream ok") {
            ts.push(r.timestamp_ns());
        }
        assert_eq!(ts, vec![1, 2, 3]);
        assert!(s.next_record().expect("stream ok").is_none());
    }

    #[test]
    fn tuple_sink_impls_collect() {
        let q = QualityTuple {
            duration_ns: 1,
            latency_ns: 2,
            vb_ns_per_byte: 3.0,
            vr_ns_per_byte: 4.0,
            loss: 0.5,
        };
        let mut v: Vec<QualityTuple> = Vec::new();
        v.push_tuple(q);
        assert_eq!(v.len(), 1);
        let mut r = ReplayTrace::new("sink");
        r.push_tuple(q);
        assert_eq!(r.tuples.len(), 1);
    }
}
