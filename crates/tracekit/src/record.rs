//! Trace records — what the collection hooks log (§3.1.1).
//!
//! The format follows the spirit of RFC 2041 ("Mobile Network Tracing"):
//! self-descriptive files carrying both packet records (with
//! protocol-specific fields) and device records (signal characteristics),
//! plus explicit accounting of records lost to kernel-buffer overrun.

/// Direction of a traced packet relative to the traced host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Transmitted by the traced host.
    Out,
    /// Received by the traced host.
    In,
}

/// Protocol-specific fields extracted from a traced packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoInfo {
    /// ICMP echo request: the known workload's probes.
    IcmpEcho {
        /// The `id` field (the pinger's process id).
        ident: u16,
        /// Sequence number.
        seq: u16,
        /// Echo payload length — the probe "size" in the model.
        payload_len: u32,
        /// Generation timestamp carried in the payload (ns).
        gen_ts_ns: u64,
    },
    /// ICMP echo reply.
    IcmpEchoReply {
        /// The `id` field copied from the request.
        ident: u16,
        /// Sequence number.
        seq: u16,
        /// Echo payload length.
        payload_len: u32,
        /// Round-trip time computed at capture from the payload
        /// timestamp (single-host clock: no synchronization needed).
        rtt_ns: u64,
    },
    /// UDP datagram.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Payload length.
        payload_len: u32,
    },
    /// TCP segment.
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Sequence number.
        seq: u32,
        /// Acknowledgment number.
        ack: u32,
        /// Flag byte (FIN|SYN|RST|PSH|ACK bits).
        flags: u8,
        /// Payload length.
        payload_len: u32,
    },
    /// Any other protocol.
    Other {
        /// IP protocol number.
        protocol: u8,
    },
}

/// One traced packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketRecord {
    /// Capture timestamp (ns of simulation time).
    pub timestamp_ns: u64,
    /// Direction.
    pub dir: Dir,
    /// Bytes on the wire (full frame).
    pub wire_len: u32,
    /// Protocol fields.
    pub proto: ProtoInfo,
}

impl PacketRecord {
    /// Stable content key for the flight recorder: the parsed-record
    /// counterpart of [`obs::flight::frame_key`]. Every stage holding
    /// this record computes the same key independently; the collector
    /// ties it to the raw frame's key via `FlightRecorder::alias`.
    pub fn flight_key(&self) -> u64 {
        let (tag, a, b, c, d) = match &self.proto {
            ProtoInfo::IcmpEcho {
                ident,
                seq,
                payload_len,
                gen_ts_ns,
            } => (
                1,
                *ident as u64,
                *seq as u64,
                *payload_len as u64,
                *gen_ts_ns,
            ),
            ProtoInfo::IcmpEchoReply {
                ident,
                seq,
                payload_len,
                rtt_ns,
            } => (2, *ident as u64, *seq as u64, *payload_len as u64, *rtt_ns),
            ProtoInfo::Udp {
                src_port,
                dst_port,
                payload_len,
            } => (
                3,
                *src_port as u64,
                *dst_port as u64,
                *payload_len as u64,
                0,
            ),
            ProtoInfo::Tcp {
                src_port,
                dst_port,
                seq,
                ack,
                ..
            } => (
                4,
                *src_port as u64,
                *dst_port as u64,
                *seq as u64,
                *ack as u64,
            ),
            ProtoInfo::Other { protocol } => (5, *protocol as u64, 0, 0, 0),
        };
        obs::flight::mix_key(&[
            self.timestamp_ns,
            matches!(self.dir, Dir::In) as u64,
            self.wire_len as u64,
            tag,
            a,
            b,
            c,
            d,
        ])
    }
}

/// Periodic device-status sample (WaveLAN signal characteristics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceRecord {
    /// Sample timestamp (ns).
    pub timestamp_ns: u64,
    /// Signal level (device units).
    pub signal: u32,
    /// Signal quality (device units).
    pub quality: u32,
    /// Silence level (device units).
    pub silence: u32,
}

/// Marker emitted when the kernel buffer overran: how much was lost, by
/// record type (§3.1.2 "we are careful to keep track of the number and
/// type of lost records").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverrunRecord {
    /// When the overrun was noticed (at drain time, ns).
    pub timestamp_ns: u64,
    /// Packet records lost.
    pub lost_packets: u64,
    /// Device records lost.
    pub lost_device: u64,
}

/// Any record in a collected trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// A traced packet.
    Packet(PacketRecord),
    /// A device-status sample.
    Device(DeviceRecord),
    /// An overrun marker.
    Overrun(OverrunRecord),
}

impl TraceRecord {
    /// Capture timestamp of any record kind.
    pub fn timestamp_ns(&self) -> u64 {
        match self {
            TraceRecord::Packet(p) => p.timestamp_ns,
            TraceRecord::Device(d) => d.timestamp_ns,
            TraceRecord::Overrun(o) => o.timestamp_ns,
        }
    }
}

/// A complete collected trace: self-descriptive header plus records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Name of the traced host.
    pub host: String,
    /// Scenario name this trace was collected on.
    pub scenario: String,
    /// Trial number.
    pub trial: u32,
    /// The records, in capture order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// An empty trace with the given provenance.
    pub fn new(host: &str, scenario: &str, trial: u32) -> Self {
        Trace {
            host: host.to_string(),
            scenario: scenario.to_string(),
            trial,
            records: Vec::new(),
        }
    }

    /// Iterate over packet records only.
    pub fn packets(&self) -> impl Iterator<Item = &PacketRecord> {
        self.records.iter().filter_map(|r| match r {
            TraceRecord::Packet(p) => Some(p),
            _ => None,
        })
    }

    /// Iterate over device records only.
    pub fn device_samples(&self) -> impl Iterator<Item = &DeviceRecord> {
        self.records.iter().filter_map(|r| match r {
            TraceRecord::Device(d) => Some(d),
            _ => None,
        })
    }

    /// Total records lost to buffer overruns.
    pub fn lost_records(&self) -> u64 {
        self.records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Overrun(o) => Some(o.lost_packets + o.lost_device),
                _ => None,
            })
            .sum()
    }

    /// Duration spanned by the records.
    pub fn span_ns(&self) -> u64 {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => b.timestamp_ns().saturating_sub(a.timestamp_ns()),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new("thinkpad", "porter", 1);
        t.records.push(TraceRecord::Packet(PacketRecord {
            timestamp_ns: 100,
            dir: Dir::Out,
            wire_len: 98,
            proto: ProtoInfo::IcmpEcho {
                ident: 7,
                seq: 1,
                payload_len: 56,
                gen_ts_ns: 100,
            },
        }));
        t.records.push(TraceRecord::Device(DeviceRecord {
            timestamp_ns: 200,
            signal: 18,
            quality: 10,
            silence: 2,
        }));
        t.records.push(TraceRecord::Overrun(OverrunRecord {
            timestamp_ns: 300,
            lost_packets: 5,
            lost_device: 1,
        }));
        t
    }

    #[test]
    fn accessors() {
        let t = sample_trace();
        assert_eq!(t.packets().count(), 1);
        assert_eq!(t.device_samples().count(), 1);
        assert_eq!(t.lost_records(), 6);
        assert_eq!(t.span_ns(), 200);
    }

    #[test]
    fn timestamps() {
        let t = sample_trace();
        let ts: Vec<u64> = t.records.iter().map(TraceRecord::timestamp_ns).collect();
        assert_eq!(ts, vec![100, 200, 300]);
    }

    #[test]
    fn empty_trace_span_zero() {
        let t = Trace::new("h", "s", 0);
        assert_eq!(t.span_ns(), 0);
        assert_eq!(t.lost_records(), 0);
    }
}
