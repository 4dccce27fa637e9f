//! # modulate — the trace modulation layer (§3.3)
//!
//! Reproduces the paper's kernel modulation machinery:
//!
//! * [`Modulator`] — a [`netstack::LinkShim`] between IP and the device
//!   that subjects all inbound and outbound traffic to the replay
//!   trace's ⟨d, F, Vb, Vr, L⟩ tuples through a single unified delay
//!   queue (drop-after-bottleneck, per the model);
//! * [`TickClock`] — the 10 ms scheduling-granularity quantizer
//!   (round to nearest tick; sub-half-tick delays sent immediately);
//!   It plays tuples through one cursor whatever feeds it: a whole
//!   replay trace, one trace per direction, or the kernel buffer. When
//!   the feed runs dry the cursor holds the final tuple (end of trace),
//!   backs off on the stale one (an open buffer starved), or passes
//!   packets through (no tuple yet);
//! * [`TupleBuffer`] — the fixed-size kernel buffer the paper's
//!   user-level daemon fills;
//! * [`TupleFeed`] — its live-mode writer: a [`tracekit::TupleSink`]
//!   that forwards tuples straight from the incremental distiller into
//!   the kernel buffer, so modulation can begin while collection is
//!   still running;
//! * [`compensation`] — the inbound delay-compensation term measured
//!   once on the modulating network (Figure 1).

#![warn(missing_docs)]

pub mod clock;
pub mod compensation;
pub mod daemon;
pub mod layer;

pub use clock::{Quantized, TickClock};
pub use compensation::compensation_from_replay;
pub use daemon::{TupleBuffer, TupleFeed};
pub use layer::{ModStats, Modulator};
