//! # tracekit — trace collection substrate
//!
//! Everything the paper's *collection phase* needs (§3.1), rebuilt
//! against the simulated stack:
//!
//! * a self-descriptive trace [record format](record) in the spirit of
//!   RFC 2041: packet records with protocol-specific fields, device
//!   (signal) records, and explicit overrun accounting;
//! * a fixed-size in-kernel [`RingBuffer`] behind a [`PseudoDevice`]
//!   (open = enable tracing, close = disable, read = extract);
//! * the [`Collector`], a device tap that parses every frame crossing
//!   the device boundary and samples signal status;
//! * the user-level [`CollectionDaemon`] that drains the pseudo-device
//!   to "disk";
//! * pull-based [streaming](stream) abstractions — [`RecordStream`]
//!   sources (in-memory, chunked file) and [`TupleSink`]
//!   consumers — that let distillation and modulation run with
//!   O(window) memory while collection is still in progress;
//! * the [`ReplayTrace`] type — the distilled ⟨d, F, Vb, Vr, L⟩ quality
//!   tuples that the modulation layer plays back — with binary
//!   [I/O](io), batch or chunked.

#![warn(missing_docs)]

mod collector;
mod daemon;
pub mod format;
pub mod io;
mod pseudodev;
pub mod record;
mod replay;
mod ringbuf;
pub mod stream;

pub use collector::{Collector, SignalSource};
pub use daemon::CollectionDaemon;
pub use format::{ChunkDecoder, FormatError, TraceHeader};
pub use io::{ChunkedTraceWriter, TraceFileStream};
pub use pseudodev::PseudoDevice;
pub use record::{DeviceRecord, Dir, OverrunRecord, PacketRecord, ProtoInfo, Trace, TraceRecord};
pub use replay::{QualityTuple, ReplayTrace};
pub use ringbuf::RingBuffer;
pub use stream::{RecordStream, StreamError, TupleSink, VecStream};
