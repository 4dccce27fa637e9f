//! The tracing pseudo-device (§3.1.2): opening it enables tracing,
//! closing it disables tracing, reading extracts buffered records. The
//! kernel side (the collector hook) and the user side (the daemon) share
//! it through a handle.

use crate::record::TraceRecord;
use crate::ringbuf::RingBuffer;
use parking_lot::Mutex;
use std::sync::Arc;

#[derive(Debug)]
struct DevState {
    ring: RingBuffer,
    open: bool,
}

/// A shared handle to the tracing pseudo-device.
#[derive(Debug, Clone)]
pub struct PseudoDevice {
    state: Arc<Mutex<DevState>>,
}

impl PseudoDevice {
    /// Create a device backed by a ring of `capacity` records.
    pub fn new(capacity: usize) -> Self {
        PseudoDevice {
            state: Arc::new(Mutex::new(DevState {
                ring: RingBuffer::new(capacity),
                open: false,
            })),
        }
    }

    /// Open the device: tracing becomes enabled.
    pub fn open(&self) {
        self.state.lock().open = true;
    }

    /// Close the device: tracing disabled, buffer discarded.
    pub fn close(&self) {
        let mut s = self.state.lock();
        s.open = false;
        s.ring.clear();
    }

    /// Kernel side: offer a record (no-op while closed). Returns whether
    /// it was buffered.
    pub fn offer(&self, rec: TraceRecord) -> bool {
        let mut s = self.state.lock();
        if !s.open {
            return false;
        }
        s.ring.push(rec)
    }

    /// User side: read up to `max` records (an overrun marker may be
    /// prepended, see [`RingBuffer::drain`]).
    pub fn read(&self, max: usize, now_ns: u64) -> Vec<TraceRecord> {
        self.state.lock().ring.drain(max, now_ns)
    }

    /// Records currently buffered (diagnostics).
    pub fn buffered(&self) -> usize {
        self.state.lock().ring.len()
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
    fn closed_device_ignores_records() {
        let dev = PseudoDevice::new(8);
        assert!(!dev.offer(pkt(1)));
        assert_eq!(dev.buffered(), 0);
        dev.open();
        assert!(dev.offer(pkt(2)));
        assert_eq!(dev.buffered(), 1);
    }

    #[test]
    fn close_discards_buffer() {
        let dev = PseudoDevice::new(8);
        dev.open();
        dev.offer(pkt(1));
        dev.close();
        assert!(!dev.state.lock().open);
        assert_eq!(dev.buffered(), 0);
        assert!(dev.read(10, 0).is_empty());
    }

    #[test]
    fn shared_handles_see_same_state() {
        let dev = PseudoDevice::new(8);
        let clone = dev.clone();
        dev.open();
        assert!(clone.state.lock().open);
        clone.offer(pkt(1));
        assert_eq!(dev.read(10, 0).len(), 1);
    }
}
