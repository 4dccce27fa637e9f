//! The fixed-size in-kernel tuple buffer of §3.3 and its live-mode
//! feeder. The paper's user-level daemon writes replay-trace tuples into
//! the buffer and waits while it is full; here the incremental distiller
//! writes into it through a [`TupleFeed`], and a whole trace can be
//! written up front.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use tracekit::{QualityTuple, TupleSink};

/// Occupancy bookkeeping shared with the queue itself, so every
/// write/pop updates it under the same lock.
#[derive(Debug, Default)]
struct BufState {
    q: VecDeque<QualityTuple>,
    peak: usize,
    total_in: u64,
    total_out: u64,
    rejected: u64,
    closed: bool,
}

/// The bounded in-kernel tuple buffer shared between a writer (a
/// [`TupleFeed`], or a caller writing a whole trace) and the modulation
/// layer (reader).
///
/// Besides the queue itself the buffer keeps occupancy accounting —
/// peak occupancy, total tuples written/popped, and writes rejected for
/// lack of room — maintaining the invariant
/// `total_written − total_popped == len ≤ capacity`.
#[derive(Debug, Clone)]
pub struct TupleBuffer {
    inner: Arc<Mutex<BufState>>,
    capacity: usize,
}

impl TupleBuffer {
    /// Buffer holding at most `capacity` tuples.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tuple buffer needs capacity");
        TupleBuffer {
            inner: Arc::new(Mutex::new(BufState::default())),
            capacity,
        }
    }

    /// Write as many of `tuples` as fit; returns how many were taken.
    pub fn write(&self, tuples: &[QualityTuple]) -> usize {
        let mut st = self.inner.lock();
        let room = self.capacity.saturating_sub(st.q.len());
        let n = room.min(tuples.len());
        st.q.extend(tuples[..n].iter().copied());
        st.total_in += n as u64;
        st.rejected += (tuples.len() - n) as u64;
        let depth = st.q.len();
        st.peak = st.peak.max(depth);
        n
    }

    /// Reader side: take the next tuple.
    pub fn pop(&self) -> Option<QualityTuple> {
        let mut st = self.inner.lock();
        let t = st.q.pop_front();
        if t.is_some() {
            st.total_out += 1;
        }
        t
    }

    /// Tuples currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().q.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().q.is_empty()
    }

    /// Maximum tuples the buffer can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// High-water mark of buffered tuples.
    pub fn peak_occupancy(&self) -> usize {
        self.inner.lock().peak
    }

    /// Total tuples accepted by [`write`](TupleBuffer::write).
    pub fn total_written(&self) -> u64 {
        self.inner.lock().total_in
    }

    /// Total tuples handed out by [`pop`](TupleBuffer::pop).
    pub fn total_popped(&self) -> u64 {
        self.inner.lock().total_out
    }

    /// Tuples offered to [`write`](TupleBuffer::write) that did not fit.
    pub fn rejected(&self) -> u64 {
        self.inner.lock().rejected
    }

    /// Writer side: declare that no more tuples will ever be written.
    ///
    /// Once closed, an empty buffer means *end of trace*; while open,
    /// an empty buffer only means *starved right now* — the reader
    /// (the modulation layer) treats the two very differently (final
    /// hold vs. backoff-and-retry with a `degraded` mark).
    pub fn close(&self) {
        self.inner.lock().closed = true;
    }

    /// True once the writer has declared end-of-trace.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }
}

/// Live-mode feeder: a [`TupleSink`] that accepts tuples straight from
/// the incremental distiller and forwards them into the bounded
/// [`TupleBuffer`], buffering overflow in user space when the kernel
/// buffer is full (the "daemon blocks" backpressure of §3.3, without a
/// replay file in between). Call [`pump`](TupleFeed::pump) periodically
/// — e.g. once per lockstep slice — to move backlog into freed space.
#[derive(Debug)]
pub struct TupleFeed {
    buf: TupleBuffer,
    overflow: VecDeque<QualityTuple>,
    fed: u64,
    peak_backlog: usize,
    closing: bool,
    paused: bool,
}

impl TupleFeed {
    /// A feed writing into `buf`.
    pub fn new(buf: TupleBuffer) -> Self {
        TupleFeed {
            buf,
            overflow: VecDeque::new(),
            fed: 0,
            peak_backlog: 0,
            closing: false,
            paused: false,
        }
    }

    /// Move as much backlog as fits into the kernel buffer. Returns the
    /// number of tuples moved.
    ///
    /// A paused feed ([`set_paused`](TupleFeed::set_paused)) moves
    /// nothing: the backlog accumulates in user space and the kernel
    /// buffer drains, which is exactly the starvation a stalled feeder
    /// process produces.
    pub fn pump(&mut self) -> usize {
        if self.paused {
            return 0;
        }
        let mut moved = 0;
        while let Some(t) = self.overflow.front().copied() {
            if self.buf.write(std::slice::from_ref(&t)) == 0 {
                break;
            }
            self.overflow.pop_front();
            moved += 1;
        }
        // End-of-trace propagates only once the backlog has drained:
        // the buffer must not look closed while tuples are still on
        // their way in.
        if self.closing && self.overflow.is_empty() {
            self.buf.close();
        }
        moved
    }

    /// Declare that the distiller has emitted its last tuple. The
    /// underlying buffer is closed as soon as the remaining backlog
    /// has been pumped in.
    pub fn close(&mut self) {
        self.closing = true;
        self.pump();
    }

    /// Pause or resume the feed. While paused, tuples still arrive in
    /// the user-space backlog but none reach the kernel buffer — the
    /// fault-injection hook for a stalled feeder. Resuming pumps
    /// immediately.
    pub fn set_paused(&mut self, on: bool) {
        self.paused = on;
        if !on {
            self.pump();
        }
    }

    /// Total tuples accepted from the distiller so far.
    pub fn fed(&self) -> u64 {
        self.fed
    }

    /// Tuples waiting in user space for kernel-buffer room.
    pub fn backlog(&self) -> usize {
        self.overflow.len()
    }

    /// High-water mark of the user-space backlog.
    pub fn peak_backlog(&self) -> usize {
        self.peak_backlog
    }

    /// The shared kernel buffer this feed writes into.
    pub fn buffer(&self) -> &TupleBuffer {
        &self.buf
    }
}

impl TupleSink for TupleFeed {
    fn push_tuple(&mut self, tuple: QualityTuple) {
        self.fed += 1;
        self.overflow.push_back(tuple);
        self.pump();
        self.peak_backlog = self.peak_backlog.max(self.overflow.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(d_ms: u64) -> QualityTuple {
        QualityTuple {
            duration_ns: d_ms * 1_000_000,
            latency_ns: 1_000_000,
            vb_ns_per_byte: 4000.0,
            vr_ns_per_byte: 0.0,
            loss: 0.0,
        }
    }

    #[test]
    fn bounded_writes() {
        let buf = TupleBuffer::new(3);
        let ts = vec![tuple(1); 5];
        assert_eq!(buf.write(&ts), 3);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.write(&ts), 0);
        assert!(buf.pop().is_some(), "full buffer must yield a tuple");
        assert_eq!(buf.write(&ts), 1);
    }

    #[test]
    fn feed_spills_to_overflow_and_pumps() {
        let buf = TupleBuffer::new(2);
        let mut feed = TupleFeed::new(buf.clone());
        for _ in 0..5 {
            feed.push_tuple(tuple(1));
        }
        assert_eq!(feed.fed(), 5);
        assert_eq!(buf.len(), 2);
        assert_eq!(feed.backlog(), 3);
        // The modulator consumes; pumping moves backlog in.
        buf.pop();
        buf.pop();
        assert_eq!(feed.pump(), 2);
        assert_eq!(feed.backlog(), 1);
        assert_eq!(feed.peak_backlog(), 3);
    }

    #[test]
    fn paused_feed_starves_the_buffer() {
        let buf = TupleBuffer::new(4);
        let mut feed = TupleFeed::new(buf.clone());
        feed.set_paused(true);
        for _ in 0..3 {
            feed.push_tuple(tuple(1));
        }
        assert!(buf.is_empty(), "paused feed must not reach the buffer");
        assert_eq!(feed.backlog(), 3);
        // Closing while paused must not mark the buffer ended: tuples
        // are still pending in user space.
        feed.close();
        assert!(!buf.is_closed());
        feed.set_paused(false);
        assert_eq!(buf.len(), 3);
        assert!(buf.is_closed(), "backlog drained after resume => EOF");
    }
}
