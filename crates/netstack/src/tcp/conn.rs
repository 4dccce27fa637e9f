//! A single TCP connection: BSD-Reno congestion control, Jacobson RTO,
//! delayed ACKs, fast retransmit/recovery, and the full open/close state
//! machine. This is the transport whose end-to-end dynamics the paper's
//! FTP and Web benchmarks exercise.

use super::reasm::{seq_le, seq_lt, Reassembly};
use super::rtt::RttEstimator;
use crate::config::TcpConfig;
use netsim::{SimDuration, SimTime};
use packet::{TcpFlags, TcpHeader, LINK_IP_HEADROOM, TCP_HEADER_LEN};
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::ops::Range;

/// Headroom of a data segment's frame: Ethernet, IPv4 and an option-less
/// TCP header, in front of the payload.
const FRAME_HEADROOM: usize = LINK_IP_HEADROOM + TCP_HEADER_LEN;

/// Connection states (RFC 793).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// SYN sent, awaiting SYN-ACK.
    SynSent,
    /// SYN received, SYN-ACK sent.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, not yet acked.
    FinWait1,
    /// Our FIN acked; awaiting peer's FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Passive close: our FIN sent after CloseWait.
    LastAck,
    /// Simultaneous close.
    Closing,
    /// Both FINs exchanged; draining stray segments.
    TimeWait,
    /// Fully closed; ready to be reaped.
    Closed,
}

/// Events a connection raises toward the owning application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnEvent {
    /// Three-way handshake completed.
    Connected,
    /// This many in-order bytes arrived, at the back of the
    /// connection's receive buffer.
    Data(usize),
    /// Send buffer has space again after being full.
    SendSpace,
    /// Peer sent FIN and all its data has been delivered.
    PeerClosed,
    /// Connection fully closed (after our close completed or TIME-WAIT
    /// expired).
    Closed,
    /// Connection aborted: peer RST, or retransmission limit exceeded.
    Reset(&'static str),
}

/// One segment to transmit: its header (ports already filled in) and the
/// frame it goes out in. The frame starts with zeroed room for the
/// Ethernet, IPv4 and TCP headers, `LINK_IP_HEADROOM +
/// header.wire_len()` bytes, followed by the payload; the engine writes
/// the TCP header there and the IP layer the rest.
#[derive(Debug)]
pub struct Segment {
    /// The TCP header to write.
    pub header: TcpHeader,
    frame: Vec<u8>,
}

impl Segment {
    /// A segment without payload (SYN, ACK, FIN, RST).
    pub(super) fn control(header: TcpHeader) -> Segment {
        Segment {
            header,
            frame: vec![0; LINK_IP_HEADROOM + header.wire_len()],
        }
    }

    /// A data segment carrying `range` of `buf`, copied once, straight
    /// into the frame.
    fn data(header: TcpHeader, buf: &VecDeque<u8>, range: Range<usize>) -> Segment {
        debug_assert!(header.mss.is_none(), "data segments carry no options");
        let mut frame = Vec::with_capacity(FRAME_HEADROOM + range.len());
        frame.resize(FRAME_HEADROOM, 0);
        // The ring's two halves: `range` may start in the first, end in
        // the second, or lie within one.
        let (a, b) = buf.as_slices();
        let split = a.len();
        frame.extend_from_slice(&a[range.start.min(split)..range.end.min(split)]);
        frame.extend_from_slice(
            &b[range.start.saturating_sub(split)..range.end.saturating_sub(split)],
        );
        Segment { header, frame }
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.frame[LINK_IP_HEADROOM + self.header.wire_len()..]
    }

    /// Write the TCP header and checksum into the frame, in place, and
    /// hand the frame on to the IP layer.
    pub(super) fn into_frame(mut self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        self.header
            .write(&mut self.frame[LINK_IP_HEADROOM..], src, dst);
        self.frame
    }
}

/// Segments and events produced while processing an input.
#[derive(Debug, Default)]
pub struct Out {
    /// Segments to transmit.
    pub segs: Vec<Segment>,
    /// Events for the owning application.
    pub events: Vec<ConnEvent>,
}

impl Out {
    fn seg(&mut self, h: TcpHeader) {
        self.segs.push(Segment::control(h));
    }
    fn ev(&mut self, e: ConnEvent) {
        self.events.push(e);
    }
}

/// One TCP connection.
#[derive(Debug)]
pub struct TcpConn {
    cfg: TcpConfig,
    state: TcpState,
    local_port: u16,
    /// Peer address, used by the engine to build the IP header.
    pub remote: (Ipv4Addr, u16),

    // --- send state ---
    snd_una: u32,
    snd_nxt: u32,
    snd_wnd: u32,
    cwnd: usize,
    ssthresh: usize,
    mss: usize,
    /// Bytes accepted from the app and not yet acknowledged; the front
    /// byte is sequence `snd_una`. Its first `sent` bytes are in flight
    /// (retransmission never rewinds `snd_nxt`, so they are always that
    /// prefix) and the rest are not yet transmitted.
    snd_buf: VecDeque<u8>,
    /// Bytes at the front of `snd_buf` already transmitted.
    sent: usize,
    fin_queued: bool,
    fin_sent: bool,
    dup_acks: u32,
    in_fast_recovery: bool,
    rtt: RttEstimator,
    /// (sequence that must be acked, send time) for the one timed segment.
    rtt_sample: Option<(u32, SimTime)>,
    retries: u32,
    app_blocked: bool,

    // --- receive state ---
    rcv_nxt: u32,
    /// In-order bytes received and not yet read by the application,
    /// the receive-side mirror of `snd_buf`: each `ConnEvent::Data(n)`
    /// adds `n` bytes at the back, and the host drops them from the
    /// front once the application has read them. They do not count
    /// against the advertised window, as the application reads them
    /// within the host event they arrive in.
    pub(super) rcv_buf: Vec<u8>,
    reasm: Reassembly,
    fin_rcvd_seq: Option<u32>,
    peer_closed_reported: bool,
    segs_since_ack: u32,

    // --- timers (absolute deadlines) ---
    rtx_deadline: Option<SimTime>,
    delack_deadline: Option<SimTime>,
    timewait_deadline: Option<SimTime>,

    // --- counters for diagnostics and tests ---
    /// Total payload bytes retransmitted.
    pub retransmitted_bytes: u64,
    /// Number of fast retransmits triggered.
    pub fast_retransmits: u64,
    /// Number of RTO firings.
    pub timeouts: u64,
}

impl TcpConn {
    fn new(cfg: TcpConfig, local_port: u16, remote: (Ipv4Addr, u16), iss: u32) -> Self {
        let mss = cfg.mss;
        let recv_wnd = cfg.recv_wnd;
        TcpConn {
            rtt: RttEstimator::new(&cfg),
            cfg,
            state: TcpState::Closed,
            local_port,
            remote,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: 0,
            cwnd: mss,
            ssthresh: usize::MAX / 2,
            mss,
            snd_buf: VecDeque::new(),
            sent: 0,
            fin_queued: false,
            fin_sent: false,
            dup_acks: 0,
            in_fast_recovery: false,
            rtt_sample: None,
            retries: 0,
            app_blocked: false,
            rcv_nxt: 0,
            rcv_buf: Vec::new(),
            reasm: Reassembly::new(recv_wnd),
            fin_rcvd_seq: None,
            peer_closed_reported: false,
            segs_since_ack: 0,
            rtx_deadline: None,
            delack_deadline: None,
            timewait_deadline: None,
            retransmitted_bytes: 0,
            fast_retransmits: 0,
            timeouts: 0,
        }
    }

    /// Active open: create the connection and emit the SYN.
    pub fn connect(
        cfg: TcpConfig,
        local_port: u16,
        remote: (Ipv4Addr, u16),
        iss: u32,
        now: SimTime,
        out: &mut Out,
    ) -> TcpConn {
        let mut c = TcpConn::new(cfg, local_port, remote, iss);
        c.state = TcpState::SynSent;
        c.cwnd = c.cfg.init_cwnd_segs * c.mss;
        let mut h = c.header(TcpFlags::SYN);
        h.mss = Some(c.cfg.mss as u16);
        out.seg(h);
        c.snd_nxt = iss.wrapping_add(1);
        c.arm_rtx(now);
        c
    }

    /// Passive open: a listener got a SYN; create the connection and emit
    /// the SYN-ACK.
    pub fn accept(
        cfg: TcpConfig,
        local_port: u16,
        remote: (Ipv4Addr, u16),
        iss: u32,
        syn: &TcpHeader,
        now: SimTime,
        out: &mut Out,
    ) -> TcpConn {
        let mut c = TcpConn::new(cfg, local_port, remote, iss);
        c.state = TcpState::SynRcvd;
        c.rcv_nxt = syn.seq.wrapping_add(1);
        c.negotiate_mss(syn.mss);
        c.snd_wnd = syn.window as u32;
        c.cwnd = c.cfg.init_cwnd_segs * c.mss;
        let mut h = c.header(TcpFlags {
            syn: true,
            ack: true,
            ..Default::default()
        });
        h.mss = Some(c.cfg.mss as u16);
        out.seg(h);
        c.snd_nxt = iss.wrapping_add(1);
        c.arm_rtx(now);
        c
    }

    fn negotiate_mss(&mut self, peer: Option<u16>) {
        let peer = peer.map(|m| m as usize).unwrap_or(536);
        self.mss = self.cfg.mss.min(peer).max(64);
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// True when the connection can be reaped.
    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// Current congestion window in bytes (for tests/diagnostics).
    pub fn cwnd(&self) -> usize {
        self.cwnd
    }

    /// Smoothed RTT estimate.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rtt.srtt()
    }

    /// Local port this connection is bound to.
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// In-order bytes received and not yet read by the application.
    pub(crate) fn unread(&self) -> &[u8] {
        &self.rcv_buf
    }

    fn flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    fn advertised_window(&self) -> u16 {
        let free = self.cfg.recv_wnd.saturating_sub(self.reasm.buffered());
        free.min(65535) as u16
    }

    fn header(&self, flags: TcpFlags) -> TcpHeader {
        TcpHeader {
            src_port: self.local_port,
            dst_port: self.remote.1,
            seq: self.snd_nxt,
            ack: self.rcv_nxt,
            flags,
            window: self.advertised_window(),
            mss: None,
        }
    }

    fn send_pure_ack(&mut self, out: &mut Out) {
        let mut h = self.header(TcpFlags::ACK);
        h.seq = self.snd_nxt;
        out.seg(h);
        self.segs_since_ack = 0;
        self.delack_deadline = None;
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// Queue data for transmission; returns how many bytes were accepted
    /// (bounded by the send buffer). When less than `data.len()`, a
    /// `SendSpace` event will fire once room opens up.
    pub fn send(&mut self, data: &[u8], now: SimTime, out: &mut Out) -> usize {
        if !matches!(
            self.state,
            TcpState::SynSent | TcpState::SynRcvd | TcpState::Established | TcpState::CloseWait
        ) || self.fin_queued
        {
            return 0;
        }
        let n = self.send_space().min(data.len());
        self.snd_buf.extend(&data[..n]);
        if n < data.len() {
            self.app_blocked = true;
        }
        self.try_output(now, out);
        n
    }

    /// Bytes of free space in the send buffer.
    pub fn send_space(&self) -> usize {
        self.cfg.send_buf.saturating_sub(self.snd_buf.len())
    }

    /// Graceful close: send remaining data, then FIN.
    pub fn close(&mut self, now: SimTime, out: &mut Out) {
        match self.state {
            TcpState::SynSent => {
                self.state = TcpState::Closed;
                self.clear_timers();
                out.ev(ConnEvent::Closed);
            }
            TcpState::SynRcvd | TcpState::Established | TcpState::CloseWait => {
                self.fin_queued = true;
                self.try_output(now, out);
            }
            _ => {}
        }
    }

    /// Abort: send RST and drop to Closed without events (app initiated).
    pub fn abort(&mut self, out: &mut Out) {
        if !matches!(self.state, TcpState::Closed | TcpState::TimeWait) {
            let mut h = self.header(TcpFlags {
                rst: true,
                ack: true,
                ..Default::default()
            });
            h.seq = self.snd_nxt;
            out.seg(h);
        }
        self.state = TcpState::Closed;
        self.clear_timers();
    }

    fn clear_timers(&mut self) {
        self.rtx_deadline = None;
        self.delack_deadline = None;
        self.timewait_deadline = None;
    }

    // ------------------------------------------------------------------
    // Segment input
    // ------------------------------------------------------------------

    /// Process an incoming segment addressed to this connection.
    pub fn on_segment(&mut self, h: &TcpHeader, payload: &[u8], now: SimTime, out: &mut Out) {
        if self.state == TcpState::Closed {
            return;
        }
        if h.flags.rst {
            let had_handshake = matches!(self.state, TcpState::SynSent | TcpState::SynRcvd);
            self.state = TcpState::Closed;
            self.clear_timers();
            out.ev(ConnEvent::Reset(if had_handshake {
                "connection refused"
            } else {
                "connection reset by peer"
            }));
            return;
        }

        match self.state {
            TcpState::SynSent => {
                if h.flags.syn && h.flags.ack && h.ack == self.snd_nxt {
                    self.snd_una = h.ack;
                    self.rcv_nxt = h.seq.wrapping_add(1);
                    self.negotiate_mss(h.mss);
                    self.snd_wnd = h.window as u32;
                    self.cwnd = self.cfg.init_cwnd_segs * self.mss;
                    self.rtx_deadline = None;
                    self.retries = 0;
                    self.state = TcpState::Established;
                    self.send_pure_ack(out);
                    out.ev(ConnEvent::Connected);
                    self.try_output(now, out);
                }
                return;
            }
            TcpState::SynRcvd => {
                if h.flags.ack && h.ack == self.snd_nxt {
                    self.snd_una = h.ack;
                    self.snd_wnd = h.window as u32;
                    self.rtx_deadline = None;
                    self.retries = 0;
                    self.state = TcpState::Established;
                    out.ev(ConnEvent::Connected);
                    // Fall through: the ACK may carry data.
                } else if h.flags.syn {
                    // Retransmitted SYN: re-send SYN-ACK.
                    let mut sa = self.header(TcpFlags {
                        syn: true,
                        ack: true,
                        ..Default::default()
                    });
                    sa.seq = self.snd_una;
                    sa.mss = Some(self.cfg.mss as u16);
                    out.seg(sa);
                    return;
                } else {
                    return;
                }
            }
            TcpState::TimeWait => {
                // Peer retransmitted its FIN; re-ack it.
                if h.flags.fin {
                    self.send_pure_ack(out);
                }
                return;
            }
            _ => {}
        }

        if h.flags.ack {
            self.process_ack(h, payload.len(), now, out);
        }
        if self.state == TcpState::Closed {
            return;
        }

        let mut data_advanced = false;
        if !payload.is_empty() {
            data_advanced = self.process_data(h.seq, payload, out);
        }
        if h.flags.fin {
            let fin_seq = h.seq.wrapping_add(payload.len() as u32);
            self.fin_rcvd_seq = Some(fin_seq);
        }
        self.maybe_consume_fin(now, out);

        // ACK generation policy.
        if data_advanced {
            self.segs_since_ack += 1;
            if self.segs_since_ack >= 2 {
                self.send_pure_ack(out);
            } else if self.delack_deadline.is_none() {
                self.delack_deadline = Some(now + self.cfg.delack);
            }
        } else if !payload.is_empty() {
            // Out-of-order or duplicate data: immediate (dup) ACK.
            self.send_pure_ack(out);
        }
    }

    fn process_ack(&mut self, h: &TcpHeader, payload_len: usize, now: SimTime, out: &mut Out) {
        let ack = h.ack;
        if seq_lt(self.snd_una, ack) && seq_le(ack, self.snd_nxt) {
            // New data acknowledged.
            let mut acked = ack.wrapping_sub(self.snd_una) as usize;
            // FIN consumes one sequence number beyond the data.
            if self.fin_sent && ack == self.snd_nxt && acked > self.sent {
                acked -= 1;
                self.on_fin_acked(now, out);
            }
            let take = acked.min(self.sent);
            self.snd_buf.drain(..take);
            self.sent -= take;
            self.snd_una = ack;
            self.snd_wnd = h.window as u32;
            self.retries = 0;

            // RTT sampling (Karn's: sample invalidated on retransmit).
            if let Some((seq, sent)) = self.rtt_sample {
                if seq_le(seq, ack) {
                    self.rtt.sample(now.since(sent));
                    self.rtt_sample = None;
                }
            }
            self.rtt.reset_backoff();

            if self.in_fast_recovery {
                // Reno: leave recovery on the first new ACK.
                self.in_fast_recovery = false;
                self.cwnd = self.ssthresh.max(2 * self.mss);
            } else if self.cwnd < self.ssthresh {
                self.cwnd += take.min(self.mss); // slow start
            } else {
                self.cwnd += (self.mss * self.mss / self.cwnd.max(1)).max(1);
            }
            self.dup_acks = 0;

            if self.flight() == 0 {
                self.rtx_deadline = None;
            } else {
                self.arm_rtx(now);
            }

            if self.app_blocked && self.send_space() > 0 {
                self.app_blocked = false;
                out.ev(ConnEvent::SendSpace);
            }
        } else if ack == self.snd_una
            && payload_len == 0
            && !h.flags.syn
            && !h.flags.fin
            && self.flight() > 0
        {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 {
                // Fast retransmit + fast recovery (Reno).
                let flight = self.flight() as usize;
                self.ssthresh = (flight / 2).max(2 * self.mss);
                self.retransmit_front(now, out);
                self.cwnd = self.ssthresh + 3 * self.mss;
                self.in_fast_recovery = true;
                self.fast_retransmits += 1;
            } else if self.dup_acks > 3 && self.in_fast_recovery {
                self.cwnd += self.mss; // window inflation
            }
        } else {
            // Old ACK or window update.
            self.snd_wnd = h.window as u32;
        }

        self.try_output(now, out);
    }

    fn on_fin_acked(&mut self, now: SimTime, out: &mut Out) {
        match self.state {
            TcpState::FinWait1 => self.state = TcpState::FinWait2,
            TcpState::Closing => self.enter_timewait(now),
            TcpState::LastAck => {
                self.state = TcpState::Closed;
                self.clear_timers();
                out.ev(ConnEvent::Closed);
            }
            _ => {}
        }
    }

    fn enter_timewait(&mut self, now: SimTime) {
        self.state = TcpState::TimeWait;
        self.rtx_deadline = None;
        self.delack_deadline = None;
        self.timewait_deadline = Some(now + self.cfg.time_wait);
    }

    /// Returns true if `rcv_nxt` advanced (in-order data was delivered).
    fn process_data(&mut self, seq: u32, payload: &[u8], out: &mut Out) -> bool {
        if !matches!(
            self.state,
            TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
        ) {
            return false;
        }
        let end = seq.wrapping_add(payload.len() as u32);
        if seq_le(end, self.rcv_nxt) {
            return false; // entirely old
        }
        if seq_le(seq, self.rcv_nxt) {
            // In-order (possibly with old prefix to trim).
            let skip = self.rcv_nxt.wrapping_sub(seq) as usize;
            let unread = self.rcv_buf.len();
            self.rcv_buf.extend_from_slice(&payload[skip..]);
            // Pull anything now contiguous out of reassembly.
            self.rcv_nxt = self.reasm.drain(end, &mut self.rcv_buf);
            out.ev(ConnEvent::Data(self.rcv_buf.len() - unread));
            true
        } else {
            // Gap: hold for reassembly.
            self.reasm.insert(seq, payload.to_vec());
            false
        }
    }

    fn maybe_consume_fin(&mut self, now: SimTime, out: &mut Out) {
        let Some(fin_seq) = self.fin_rcvd_seq else {
            return;
        };
        if self.peer_closed_reported || self.rcv_nxt != fin_seq {
            return; // data before the FIN still missing
        }
        self.rcv_nxt = fin_seq.wrapping_add(1);
        self.peer_closed_reported = true;
        out.ev(ConnEvent::PeerClosed);
        match self.state {
            TcpState::Established => self.state = TcpState::CloseWait,
            TcpState::FinWait1 => self.state = TcpState::Closing,
            TcpState::FinWait2 => {
                self.enter_timewait(now);
            }
            _ => {}
        }
        self.send_pure_ack(out);
    }

    // ------------------------------------------------------------------
    // Output engine
    // ------------------------------------------------------------------

    /// Bytes in `snd_buf` not yet transmitted.
    fn unsent(&self) -> usize {
        self.snd_buf.len() - self.sent
    }

    fn usable_window(&self) -> usize {
        let wnd = (self.cwnd).min(self.snd_wnd as usize);
        wnd.saturating_sub(self.flight() as usize)
    }

    fn try_output(&mut self, now: SimTime, out: &mut Out) {
        if !matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait1 | TcpState::Closing
        ) {
            // FIN may still need to move us out of Established-adjacent
            // states, handled below; data only flows in the above states.
            if !matches!(self.state, TcpState::Established | TcpState::CloseWait) {
                return;
            }
        }
        // Zero-window probe: one byte past the window keeps things alive.
        if self.snd_wnd == 0
            && self.flight() == 0
            && self.unsent() > 0
            && matches!(self.state, TcpState::Established | TcpState::CloseWait)
        {
            self.emit_data_segment(1, now, out);
            return;
        }
        loop {
            let room = self.usable_window();
            let n = room.min(self.mss).min(self.unsent());
            if n == 0 {
                break;
            }
            // Nagle-lite: send sub-MSS only if nothing is in flight.
            if n < self.mss && self.flight() > 0 && self.unsent() < self.mss && !self.fin_queued {
                break;
            }
            self.emit_data_segment(n, now, out);
        }
        // Emit FIN once all data is out.
        if self.fin_queued
            && !self.fin_sent
            && self.unsent() == 0
            && matches!(self.state, TcpState::Established | TcpState::CloseWait)
        {
            let mut h = self.header(TcpFlags {
                fin: true,
                ack: true,
                ..Default::default()
            });
            h.seq = self.snd_nxt;
            out.seg(h);
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.fin_sent = true;
            self.state = match self.state {
                TcpState::Established => TcpState::FinWait1,
                TcpState::CloseWait => TcpState::LastAck,
                s => s,
            };
            self.arm_rtx(now);
            self.delack_deadline = None;
        }
    }

    fn emit_data_segment(&mut self, n: usize, now: SimTime, out: &mut Out) {
        let start = self.sent;
        self.sent += n;
        let mut h = self.header(TcpFlags {
            ack: true,
            psh: self.unsent() == 0,
            ..Default::default()
        });
        h.seq = self.snd_nxt;
        if self.rtt_sample.is_none() {
            self.rtt_sample = Some((self.snd_nxt.wrapping_add(n as u32), now));
        }
        self.snd_nxt = self.snd_nxt.wrapping_add(n as u32);
        out.segs
            .push(Segment::data(h, &self.snd_buf, start..start + n));
        if self.rtx_deadline.is_none() {
            self.arm_rtx(now);
        }
        self.segs_since_ack = 0;
        self.delack_deadline = None; // data segments carry the ACK
    }

    fn retransmit_front(&mut self, now: SimTime, out: &mut Out) {
        if self.sent == 0 {
            // Handshake or FIN retransmission.
            match self.state {
                TcpState::SynSent => {
                    let mut h = self.header(TcpFlags::SYN);
                    h.seq = self.snd_una;
                    h.mss = Some(self.cfg.mss as u16);
                    out.seg(h);
                }
                TcpState::SynRcvd => {
                    let mut h = self.header(TcpFlags {
                        syn: true,
                        ack: true,
                        ..Default::default()
                    });
                    h.seq = self.snd_una;
                    h.mss = Some(self.cfg.mss as u16);
                    out.seg(h);
                }
                _ if self.fin_sent => {
                    let mut h = self.header(TcpFlags {
                        fin: true,
                        ack: true,
                        ..Default::default()
                    });
                    h.seq = self.snd_nxt.wrapping_sub(1);
                    out.seg(h);
                }
                _ => {}
            }
        } else {
            let n = self.sent.min(self.mss);
            let mut h = self.header(TcpFlags {
                ack: true,
                ..Default::default()
            });
            h.seq = self.snd_una;
            self.retransmitted_bytes += n as u64;
            out.segs.push(Segment::data(h, &self.snd_buf, 0..n));
        }
        // Karn: never sample a retransmitted sequence range.
        self.rtt_sample = None;
        self.arm_rtx(now);
    }

    fn arm_rtx(&mut self, now: SimTime) {
        self.rtx_deadline = Some(now + self.rtt.rto());
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        [
            self.rtx_deadline,
            self.delack_deadline,
            self.timewait_deadline,
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Service any deadlines due at `now`.
    pub fn on_timer(&mut self, now: SimTime, out: &mut Out) {
        if matches!(self.timewait_deadline, Some(t) if t <= now) {
            self.timewait_deadline = None;
            self.state = TcpState::Closed;
            self.clear_timers();
            out.ev(ConnEvent::Closed);
            return;
        }
        if matches!(self.delack_deadline, Some(t) if t <= now) {
            self.delack_deadline = None;
            self.send_pure_ack(out);
        }
        if matches!(self.rtx_deadline, Some(t) if t <= now) {
            self.rtx_deadline = None;
            self.timeouts += 1;
            self.retries += 1;
            let limit = match self.state {
                TcpState::SynSent | TcpState::SynRcvd => self.cfg.max_syn_retries,
                _ => self.cfg.max_retries,
            };
            if self.retries > limit {
                self.state = TcpState::Closed;
                self.clear_timers();
                out.ev(ConnEvent::Reset("retransmission limit exceeded"));
                return;
            }
            // RTO: collapse the window and back off.
            if matches!(
                self.state,
                TcpState::Established
                    | TcpState::CloseWait
                    | TcpState::FinWait1
                    | TcpState::Closing
                    | TcpState::LastAck
            ) {
                let flight = self.flight() as usize;
                if flight > 0 {
                    self.ssthresh = (flight / 2).max(2 * self.mss);
                    self.cwnd = self.mss;
                }
            }
            self.in_fast_recovery = false;
            self.dup_acks = 0;
            self.rtt.on_timeout();
            self.retransmit_front(now, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LP: u16 = 1000;
    const RP: u16 = 2000;

    fn rip() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 2)
    }

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Build a client/server pair with the handshake completed by feeding
    /// each side's segments to the other.
    fn established_pair() -> (TcpConn, TcpConn) {
        let mut out_c = Out::default();
        let mut client = TcpConn::connect(cfg(), LP, (rip(), RP), 1000, t(0), &mut out_c);
        let syn = out_c.segs.pop().unwrap().header;
        assert!(syn.flags.syn && !syn.flags.ack);

        let mut out_s = Out::default();
        let mut server = TcpConn::accept(cfg(), RP, (rip(), LP), 5000, &syn, t(1), &mut out_s);
        let synack = out_s.segs.pop().unwrap().header;
        assert!(synack.flags.syn && synack.flags.ack);

        let mut out_c = Out::default();
        client.on_segment(&synack, &[], t(2), &mut out_c);
        assert!(out_c.events.contains(&ConnEvent::Connected));
        let ack = out_c.segs.pop().unwrap().header;

        let mut out_s = Out::default();
        server.on_segment(&ack, &[], t(3), &mut out_s);
        assert!(out_s.events.contains(&ConnEvent::Connected));
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(server.state(), TcpState::Established);
        (client, server)
    }

    #[test]
    fn data_segments_copy_any_range_of_a_wrapped_ring() {
        let mut buf = VecDeque::with_capacity(8);
        buf.extend(0..8u8);
        buf.drain(..5);
        buf.extend(8..13u8);
        assert!(!buf.as_slices().1.is_empty(), "the ring wraps");
        for start in 0..=buf.len() {
            for end in start..=buf.len() {
                let seg = Segment::data(ack_header(), &buf, start..end);
                let want: Vec<u8> = buf.range(start..end).copied().collect();
                assert_eq!(seg.payload(), want, "{start}..{end}");
            }
        }
    }

    fn ack_header() -> TcpHeader {
        TcpHeader {
            src_port: LP,
            dst_port: RP,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 0,
            mss: None,
        }
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let _ = established_pair();
    }

    #[test]
    fn data_transfer_and_ack() {
        let (mut c, mut s) = established_pair();
        let mut out = Out::default();
        let n = c.send(b"hello world", t(10), &mut out);
        assert_eq!(n, 11);
        assert_eq!(out.segs.len(), 1);
        let seg = &out.segs[0];
        assert_eq!(seg.payload(), b"hello world");

        let mut sout = Out::default();
        s.on_segment(&seg.header, seg.payload(), t(11), &mut sout);
        assert!(sout.events.contains(&ConnEvent::Data(11)));
        assert_eq!(s.unread(), b"hello world");
        // Single segment: delayed ACK armed, not sent yet.
        assert!(sout.segs.is_empty());
        assert!(s.next_deadline().is_some());

        // Fire the delayed-ACK timer.
        let mut sout = Out::default();
        s.on_timer(t(300), &mut sout);
        assert_eq!(sout.segs.len(), 1);
        let ack = &sout.segs[0].header;
        assert!(ack.flags.ack);

        let mut cout = Out::default();
        c.on_segment(ack, &[], t(301), &mut cout);
        assert_eq!(c.flight(), 0);
        assert!(c.next_deadline().is_none()); // rtx cancelled
    }

    #[test]
    fn second_segment_triggers_immediate_ack() {
        let (mut c, mut s) = established_pair();
        let mut out = Out::default();
        c.send(&vec![0u8; 2920], t(10), &mut out); // exactly 2 MSS segments
        assert_eq!(out.segs.len(), 2);
        let mut sout = Out::default();
        for seg in &out.segs {
            s.on_segment(&seg.header, seg.payload(), t(11), &mut sout);
        }
        // Every-other-segment ACK policy.
        assert_eq!(sout.segs.len(), 1);
    }

    #[test]
    fn out_of_order_generates_dup_acks_and_fast_retransmit() {
        let (mut c, mut s) = established_pair();
        // Open the congestion window so several segments go out at once.
        c.cwnd = 100 * 1460;
        let mut out = Out::default();
        c.send(&vec![7u8; 1460 * 5], t(10), &mut out);
        assert_eq!(out.segs.len(), 5);

        // Drop the first segment; deliver 2..5.
        let mut sout = Out::default();
        for seg in &out.segs[1..] {
            s.on_segment(&seg.header, seg.payload(), t(11), &mut sout);
        }
        // Each out-of-order segment forces an immediate dup ACK.
        assert_eq!(sout.segs.len(), 4);
        for seg in &sout.segs {
            assert_eq!(seg.header.ack, out.segs[0].header.seq);
        }

        // Feed dup ACKs back: the third triggers fast retransmit.
        let mut cout = Out::default();
        for seg in &sout.segs {
            c.on_segment(&seg.header, &[], t(12), &mut cout);
        }
        assert_eq!(c.fast_retransmits, 1);
        let rtx: Vec<_> = cout
            .segs
            .iter()
            .filter(|seg| !seg.payload().is_empty() && seg.header.seq == out.segs[0].header.seq)
            .collect();
        assert_eq!(rtx.len(), 1);

        // Deliver the retransmission: receiver drains reassembly fully.
        let mut sout2 = Out::default();
        s.on_segment(&rtx[0].header, rtx[0].payload(), t(13), &mut sout2);
        let delivered: usize = sout2
            .events
            .iter()
            .filter_map(|e| match e {
                ConnEvent::Data(n) => Some(*n),
                _ => None,
            })
            .sum();
        assert_eq!(delivered, 1460 * 5);
        assert_eq!(s.unread(), &[7u8; 1460 * 5][..]);
    }

    #[test]
    fn rto_collapses_cwnd_and_retransmits() {
        let (mut c, _s) = established_pair();
        let mut out = Out::default();
        c.send(&vec![1u8; 1460], t(10), &mut out);
        let cwnd_before = c.cwnd();
        let deadline = c.next_deadline().unwrap();
        let mut out2 = Out::default();
        c.on_timer(deadline, &mut out2);
        assert_eq!(c.timeouts, 1);
        assert_eq!(c.cwnd(), 1460);
        assert!(c.cwnd() <= cwnd_before);
        assert_eq!(out2.segs.len(), 1);
        assert_eq!(out2.segs[0].header.seq, out.segs[0].header.seq);
        assert_eq!(c.retransmitted_bytes, 1460);
        // Deadline re-armed with backoff.
        assert!(c.next_deadline().unwrap() > deadline);
    }

    #[test]
    fn retry_limit_aborts() {
        let (mut c, _s) = established_pair();
        let mut out = Out::default();
        c.send(&[1u8; 100], t(10), &mut out);
        let mut events = Vec::new();
        for _ in 0..40 {
            let Some(d) = c.next_deadline() else { break };
            let mut o = Out::default();
            c.on_timer(d, &mut o);
            events.extend(o.events);
        }
        assert!(events
            .iter()
            .any(|e| matches!(e, ConnEvent::Reset("retransmission limit exceeded"))));
        assert!(c.is_closed());
    }

    #[test]
    fn graceful_close_active_side() {
        let (mut c, mut s) = established_pair();
        let mut cout = Out::default();
        c.close(t(10), &mut cout);
        assert_eq!(c.state(), TcpState::FinWait1);
        let fin = cout.segs.pop().unwrap().header;
        assert!(fin.flags.fin);

        let mut sout = Out::default();
        s.on_segment(&fin, &[], t(11), &mut sout);
        assert_eq!(s.state(), TcpState::CloseWait);
        assert!(sout.events.contains(&ConnEvent::PeerClosed));
        let ack = sout.segs.pop().unwrap().header;

        let mut cout = Out::default();
        c.on_segment(&ack, &[], t(12), &mut cout);
        assert_eq!(c.state(), TcpState::FinWait2);

        // Server closes its side.
        let mut sout = Out::default();
        s.close(t(13), &mut sout);
        assert_eq!(s.state(), TcpState::LastAck);
        let fin2 = sout.segs.pop().unwrap().header;
        let mut cout = Out::default();
        c.on_segment(&fin2, &[], t(14), &mut cout);
        assert_eq!(c.state(), TcpState::TimeWait);
        assert!(cout.events.contains(&ConnEvent::PeerClosed));
        let ack2 = cout.segs.pop().unwrap().header;

        let mut sout = Out::default();
        s.on_segment(&ack2, &[], t(15), &mut sout);
        assert!(s.is_closed());
        assert!(sout.events.contains(&ConnEvent::Closed));

        // Client's TIME-WAIT expires.
        let tw = c.next_deadline().unwrap();
        let mut cout = Out::default();
        c.on_timer(tw, &mut cout);
        assert!(c.is_closed());
        assert!(cout.events.contains(&ConnEvent::Closed));
    }

    #[test]
    fn fin_waits_for_missing_data() {
        let (mut c, mut s) = established_pair();
        c.cwnd = 100 * 1460;
        let mut out = Out::default();
        c.send(&vec![3u8; 2000], t(10), &mut out);
        let mut cout = Out::default();
        c.close(t(10), &mut cout);
        // Segments: data(1460), data(540), fin.
        let all: Vec<_> = out.segs.into_iter().chain(cout.segs).collect();
        assert_eq!(all.len(), 3);
        assert!(all[2].header.flags.fin);

        // Deliver FIN and second segment only.
        let mut sout = Out::default();
        s.on_segment(&all[2].header, all[2].payload(), t(11), &mut sout);
        s.on_segment(&all[1].header, all[1].payload(), t(11), &mut sout);
        // FIN must not be consumed: first 1460 bytes missing.
        assert_eq!(s.state(), TcpState::Established);
        assert!(!sout.events.contains(&ConnEvent::PeerClosed));

        // Now the missing first segment arrives.
        let mut sout = Out::default();
        s.on_segment(&all[0].header, all[0].payload(), t(12), &mut sout);
        assert_eq!(s.state(), TcpState::CloseWait);
        let total: usize = sout
            .events
            .iter()
            .filter_map(|e| match e {
                ConnEvent::Data(n) => Some(*n),
                _ => None,
            })
            .sum();
        assert_eq!(total, 2000);
        assert!(sout.events.contains(&ConnEvent::PeerClosed));
    }

    #[test]
    fn send_buffer_backpressure_and_sendspace() {
        let (mut c, mut s) = established_pair();
        let big = vec![0u8; 200 * 1024];
        let mut out = Out::default();
        let n = c.send(&big, t(10), &mut out);
        assert!(n < big.len());
        assert!(n <= 64 * 1024);

        // ACK everything in flight; app should get SendSpace.
        let mut acked_events = Vec::new();
        let mut now = t(11);
        for _ in 0..100 {
            let mut sout = Out::default();
            let segs = std::mem::take(&mut out.segs);
            if segs.is_empty() {
                break;
            }
            for seg in &segs {
                s.on_segment(&seg.header, seg.payload(), now, &mut sout);
            }
            // Flush server's delayed ack if armed.
            let mut fl = Out::default();
            s.on_timer(now + SimDuration::from_millis(250), &mut fl);
            for seg in sout.segs.iter().chain(fl.segs.iter()) {
                c.on_segment(
                    &seg.header,
                    seg.payload(),
                    now + SimDuration::from_millis(260),
                    &mut out,
                );
            }
            acked_events.append(&mut out.events);
            now += SimDuration::from_millis(500);
        }
        assert!(acked_events.contains(&ConnEvent::SendSpace));
    }

    #[test]
    fn peer_rst_resets() {
        let (mut c, _s) = established_pair();
        let rst = TcpHeader {
            src_port: RP,
            dst_port: LP,
            seq: 0,
            ack: 0,
            flags: TcpFlags {
                rst: true,
                ..Default::default()
            },
            window: 0,
            mss: None,
        };
        let mut out = Out::default();
        c.on_segment(&rst, &[], t(10), &mut out);
        assert!(c.is_closed());
        assert!(out
            .events
            .contains(&ConnEvent::Reset("connection reset by peer")));
    }

    #[test]
    fn slow_start_grows_cwnd() {
        let (mut c, mut s) = established_pair();
        let initial = c.cwnd();
        let mut out = Out::default();
        c.send(&vec![0u8; 1460 * 2], t(10), &mut out);
        let mut sout = Out::default();
        for seg in &out.segs {
            s.on_segment(&seg.header, seg.payload(), t(11), &mut sout);
        }
        let mut cout = Out::default();
        for seg in &sout.segs {
            c.on_segment(&seg.header, seg.payload(), t(12), &mut cout);
        }
        assert!(c.cwnd() > initial, "{} vs {initial}", c.cwnd());
    }

    #[test]
    fn zero_window_probe() {
        let (mut c, _s) = established_pair();
        // Peer advertises zero window.
        let zw = TcpHeader {
            src_port: RP,
            dst_port: LP,
            seq: c.rcv_nxt,
            ack: c.snd_nxt,
            flags: TcpFlags::ACK,
            window: 0,
            mss: None,
        };
        let mut out = Out::default();
        c.on_segment(&zw, &[], t(10), &mut out);
        let mut out = Out::default();
        let n = c.send(b"stuck data", t(11), &mut out);
        assert_eq!(n, 10);
        // A 1-byte probe goes out despite the zero window.
        assert_eq!(out.segs.len(), 1);
        assert_eq!(out.segs[0].payload().len(), 1);
    }

    #[test]
    fn syn_retransmission() {
        let mut out = Out::default();
        let mut c = TcpConn::connect(cfg(), LP, (rip(), RP), 1, t(0), &mut out);
        let d1 = c.next_deadline().unwrap();
        let mut o = Out::default();
        c.on_timer(d1, &mut o);
        assert_eq!(o.segs.len(), 1);
        assert!(o.segs[0].header.flags.syn);
        assert_eq!(o.segs[0].header.seq, 1);
    }

    #[test]
    fn mss_negotiated_to_min() {
        let mut out = Out::default();
        let mut c = TcpConn::connect(cfg(), LP, (rip(), RP), 1, t(0), &mut out);
        let synack = TcpHeader {
            src_port: RP,
            dst_port: LP,
            seq: 100,
            ack: 2,
            flags: TcpFlags {
                syn: true,
                ack: true,
                ..Default::default()
            },
            window: 30000,
            mss: Some(512),
        };
        let mut o = Out::default();
        c.on_segment(&synack, &[], t(1), &mut o);
        assert_eq!(c.mss, 512);
        // Large send is chunked at the negotiated MSS.
        let mut o = Out::default();
        c.send(&vec![0u8; 2000], t(2), &mut o);
        assert!(o.segs.iter().all(|seg| seg.payload().len() <= 512));
    }
}
