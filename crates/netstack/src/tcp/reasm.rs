//! Out-of-order segment reassembly for the TCP receive path.

use std::collections::BTreeMap;

/// Compare sequence numbers with wraparound (RFC 793 arithmetic).
pub fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// `a <= b` in sequence space.
pub fn seq_le(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) <= 0
}

/// Buffer of segments received above `rcv_nxt`, keyed by sequence number.
///
/// Capacity is bounded in bytes; segments that would exceed it are
/// discarded (the sender will retransmit).
#[derive(Debug, Default)]
pub struct Reassembly {
    segs: BTreeMap<u32, Vec<u8>>,
    buffered: usize,
    capacity: usize,
}

impl Reassembly {
    /// Buffer with the given byte capacity.
    pub fn new(capacity: usize) -> Self {
        Reassembly {
            segs: BTreeMap::new(),
            buffered: 0,
            capacity,
        }
    }

    /// Bytes currently buffered out of order.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Store an out-of-order segment starting at `seq`. Overlapping or
    /// duplicate segments are handled by keeping the first arrival for any
    /// given start (retransmissions carry identical data). Returns whether
    /// the segment was kept.
    pub fn insert(&mut self, seq: u32, data: Vec<u8>) -> bool {
        if data.is_empty() || self.segs.contains_key(&seq) {
            return false;
        }
        if self.buffered + data.len() > self.capacity {
            return false;
        }
        self.buffered += data.len();
        self.segs.insert(seq, data);
        true
    }

    /// Pop every segment now contiguous with `rcv_nxt`, appending the
    /// in-order bytes to `out` and returning the new `rcv_nxt`. Segments
    /// that start below `rcv_nxt` have their overlap trimmed; stale ones
    /// are dropped.
    pub fn drain(&mut self, mut rcv_nxt: u32, out: &mut Vec<u8>) -> u32 {
        loop {
            // Find any segment that starts at or below rcv_nxt and still
            // has useful bytes. BTreeMap is keyed by raw u32, which does
            // not follow wrapping order, so scan for a usable segment.
            let key = self
                .segs
                .iter()
                .find(|(&s, d)| {
                    seq_le(s, rcv_nxt) && seq_lt(rcv_nxt, s.wrapping_add(d.len() as u32))
                })
                .map(|(&s, _)| s);
            let Some(start) = key else { break };
            let data = self.segs.remove(&start).unwrap();
            self.buffered -= data.len();
            let skip = rcv_nxt.wrapping_sub(start) as usize;
            out.extend_from_slice(&data[skip..]);
            rcv_nxt = rcv_nxt.wrapping_add((data.len() - skip) as u32);
            // Remove any segments made entirely stale by this advance.
            let stale: Vec<u32> = self
                .segs
                .iter()
                .filter(|(&s, d)| seq_le(s.wrapping_add(d.len() as u32), rcv_nxt))
                .map(|(&s, _)| s)
                .collect();
            for s in stale {
                let d = self.segs.remove(&s).unwrap();
                self.buffered -= d.len();
            }
        }
        rcv_nxt
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `drain(&mut r, rcv_nxt)` into a fresh buffer: `(bytes, new rcv_nxt)`.
    fn drain(r: &mut Reassembly, rcv_nxt: u32) -> (Vec<u8>, u32) {
        let mut out = Vec::new();
        let nxt = r.drain(rcv_nxt, &mut out);
        (out, nxt)
    }

    #[test]
    fn seq_comparisons_wrap() {
        assert!(seq_lt(0xffff_fff0, 0x10));
        assert!(!seq_lt(0x10, 0xffff_fff0));
        assert!(seq_le(5, 5));
        assert!(seq_lt(5, 6));
    }

    #[test]
    fn in_order_drain_after_gap_fill() {
        let mut r = Reassembly::new(4096);
        r.insert(100, vec![2u8; 10]); // gap at 90..100
        let (out, nxt) = drain(&mut r, 90);
        assert!(out.is_empty());
        assert_eq!(nxt, 90);
        // Fill arrives (delivered directly by caller); drain from 100.
        let (out, nxt) = drain(&mut r, 100);
        assert_eq!(out, vec![2u8; 10]);
        assert_eq!(nxt, 110);
        assert!(r.is_empty());
    }

    #[test]
    fn multiple_contiguous_segments_drain_together() {
        let mut r = Reassembly::new(4096);
        r.insert(110, vec![2u8; 10]);
        r.insert(100, vec![1u8; 10]);
        r.insert(130, vec![4u8; 5]); // still a gap at 120..130
        let (out, nxt) = drain(&mut r, 100);
        assert_eq!(out.len(), 20);
        assert_eq!(nxt, 120);
        assert_eq!(r.buffered(), 5);
    }

    #[test]
    fn overlap_trimmed() {
        let mut r = Reassembly::new(4096);
        // Segment covering 95..115 when rcv_nxt is 100: skip 5.
        r.insert(95, (0..20).collect());
        let (out, nxt) = drain(&mut r, 100);
        assert_eq!(out, (5..20).collect::<Vec<u8>>());
        assert_eq!(nxt, 115);
    }

    #[test]
    fn stale_segments_discarded() {
        let mut r = Reassembly::new(4096);
        r.insert(100, vec![1u8; 20]);
        r.insert(105, vec![9u8; 5]); // entirely inside the first
        let (out, nxt) = drain(&mut r, 100);
        assert_eq!(out.len(), 20);
        assert_eq!(nxt, 120);
        assert!(r.is_empty());
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn capacity_enforced() {
        let mut r = Reassembly::new(15);
        assert!(r.insert(100, vec![0u8; 10]));
        assert!(!r.insert(200, vec![0u8; 10]));
        assert!(r.insert(200, vec![0u8; 5]));
        assert_eq!(r.buffered(), 15);
    }

    #[test]
    fn duplicate_starts_ignored() {
        let mut r = Reassembly::new(100);
        assert!(r.insert(100, vec![1u8; 10]));
        assert!(!r.insert(100, vec![2u8; 10]));
        let (out, _) = drain(&mut r, 100);
        assert_eq!(out, vec![1u8; 10]);
    }

    #[test]
    fn wraparound_drain() {
        let mut r = Reassembly::new(4096);
        let start = u32::MAX - 4; // 5 bytes before wrap
        r.insert(start, vec![7u8; 10]);
        let (out, nxt) = drain(&mut r, start);
        assert_eq!(out.len(), 10);
        assert_eq!(nxt, 5);
    }

    #[test]
    fn empty_insert_rejected() {
        let mut r = Reassembly::new(10);
        assert!(!r.insert(1, vec![]));
    }
}
