//! TCP: connection state machines plus the per-host engine that demuxes
//! segments, allocates ports, and writes each segment's header into the
//! frame it leaves in.

mod conn;
mod reasm;
mod rtt;

pub use conn::{ConnEvent, Out, Segment, TcpConn, TcpState};
pub use reasm::{seq_le, seq_lt, Reassembly};
pub use rtt::RttEstimator;

use crate::config::TcpConfig;
use netsim::{SimRng, SimTime};
use packet::{TcpFlags, TcpHeader};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Handle identifying a connection to the application layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TcpHandle(pub u32);

/// Output of one engine operation: wire segments (destination IP + frame)
/// and application events tagged with their connection.
#[derive(Debug, Default)]
pub struct EngineOut {
    /// `(dst_ip, frame)` ready for the IP layer: the frame's first
    /// [`packet::LINK_IP_HEADROOM`] bytes are left for the Ethernet and IPv4
    /// headers, and the finished TCP segment follows them.
    pub segments: Vec<(Ipv4Addr, Vec<u8>)>,
    /// `(conn, event)` for the application layer.
    pub events: Vec<(TcpHandle, ConnEvent)>,
    /// Connections freshly created by an incoming SYN on a listening
    /// port; the host routes these to the listener's owner.
    pub accepted: Vec<(u16, TcpHandle)>,
}

/// A connection's demux key: `(local port, remote IP, remote port)`.
type Tuple = (u16, Ipv4Addr, u16);

/// The per-host TCP engine.
///
/// `tuples` and `deadlines` are compact columns beside `conns`, one entry
/// per slot: the live connection's demux key and its next deadline
/// (`None` for a free slot). Every operation on a connection ends in
/// `merge`, which refreshes the deadline or frees the slot, so the
/// per-segment demux and the per-event deadline scan never touch the
/// connections themselves. A connection that closes with received
/// bytes the application has not read yet keeps its slot, out of the
/// demux, until `read_done` drops the last of them.
pub struct TcpEngine {
    cfg: TcpConfig,
    local_ip: Ipv4Addr,
    conns: Vec<Option<TcpConn>>,
    tuples: Vec<Option<Tuple>>,
    deadlines: Vec<Option<SimTime>>,
    listeners: HashMap<u16, ()>,
    next_ephemeral: u16,
    /// Reused per-operation connection output, drained by `merge`.
    scratch: Out,
}

impl TcpEngine {
    /// Engine for a host with address `local_ip`.
    pub fn new(local_ip: Ipv4Addr, cfg: TcpConfig) -> Self {
        TcpEngine {
            cfg,
            local_ip,
            conns: Vec::new(),
            tuples: Vec::new(),
            deadlines: Vec::new(),
            listeners: HashMap::new(),
            next_ephemeral: 40_000,
            scratch: Out::default(),
        }
    }

    /// Put `conn` in the first free slot. Its deadline is filled in by
    /// the `merge` that follows every allocation.
    fn alloc_slot(&mut self, conn: TcpConn, tuple: Tuple) -> TcpHandle {
        let idx = self
            .conns
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| {
                self.conns.push(None);
                self.tuples.push(None);
                self.deadlines.push(None);
                self.conns.len() - 1
            });
        self.conns[idx] = Some(conn);
        self.tuples[idx] = Some(tuple);
        TcpHandle(idx as u32)
    }

    fn alloc_port(&mut self) -> u16 {
        // Linear scan from the ephemeral base; fine at simulation scale.
        for _ in 0..25_000 {
            let p = self.next_ephemeral;
            self.next_ephemeral = if self.next_ephemeral >= 65_000 {
                40_000
            } else {
                self.next_ephemeral + 1
            };
            if !self.listeners.contains_key(&p) && !self.tuples.iter().flatten().any(|t| t.0 == p) {
                return p;
            }
        }
        panic!("ephemeral port space exhausted");
    }

    /// Start listening on `port`.
    pub fn listen(&mut self, port: u16) {
        self.listeners.insert(port, ());
    }

    /// Active open to `remote`. Returns the handle; the SYN lands in
    /// `out`.
    pub fn connect(
        &mut self,
        remote: (Ipv4Addr, u16),
        now: SimTime,
        rng: &mut SimRng,
        out: &mut EngineOut,
    ) -> TcpHandle {
        let port = self.alloc_port();
        let iss = rng.u64() as u32;
        let mut cout = std::mem::take(&mut self.scratch);
        let conn = TcpConn::connect(self.cfg.clone(), port, remote, iss, now, &mut cout);
        let handle = self.alloc_slot(conn, (port, remote.0, remote.1));
        self.merge(handle, cout, out);
        handle
    }

    /// Move `cout` into `out`, framing its segments, keep its emptied
    /// buffers for the next operation, and refresh the slot's deadline
    /// (or free the slot once the connection is closed).
    fn merge(&mut self, handle: TcpHandle, mut cout: Out, out: &mut EngineOut) {
        let idx = handle.0 as usize;
        let (local_port, remote_ip, _) = self.tuples[idx].expect("merged for live conn");
        for seg in cout.segs.drain(..) {
            debug_assert_eq!(seg.header.src_port, local_port);
            out.segments
                .push((remote_ip, seg.into_frame(self.local_ip, remote_ip)));
        }
        out.events
            .extend(cout.events.drain(..).map(|e| (handle, e)));
        self.scratch = cout;
        let conn = self.conns[idx].as_ref().expect("merged for live conn");
        if conn.is_closed() {
            // Reap fully closed connections once their events are out,
            // and once the application has read their bytes.
            self.tuples[idx] = None;
            self.deadlines[idx] = None;
            if conn.unread().is_empty() {
                self.conns[idx] = None;
            }
        } else {
            self.deadlines[idx] = conn.next_deadline();
        }
    }

    /// The live connection behind `handle`: `None` once it is reaped or
    /// closed (a stale handle).
    fn live(&self, handle: TcpHandle) -> Option<&TcpConn> {
        let idx = handle.0 as usize;
        self.tuples.get(idx)?.as_ref()?;
        self.conns[idx].as_ref()
    }

    fn with_conn(
        &mut self,
        handle: TcpHandle,
        out: &mut EngineOut,
        f: impl FnOnce(&mut TcpConn, &mut Out),
    ) {
        let idx = handle.0 as usize;
        if self.live(handle).is_none() {
            return; // stale handle: connection already reaped
        }
        let conn = self.conns[idx].as_mut().expect("a live slot holds a conn");
        let mut cout = std::mem::take(&mut self.scratch);
        f(conn, &mut cout);
        self.merge(handle, cout, out);
    }

    /// Queue application data; returns bytes accepted.
    pub fn send(
        &mut self,
        handle: TcpHandle,
        data: &[u8],
        now: SimTime,
        out: &mut EngineOut,
    ) -> usize {
        let mut n = 0;
        self.with_conn(handle, out, |c, cout| {
            n = c.send(data, now, cout);
        });
        n
    }

    /// Free space in the connection's send buffer (0 for stale handles).
    pub fn send_space(&self, handle: TcpHandle) -> usize {
        self.live(handle).map_or(0, TcpConn::send_space)
    }

    /// State of a connection, if it still exists.
    pub fn state(&self, handle: TcpHandle) -> Option<TcpState> {
        self.live(handle).map(TcpConn::state)
    }

    /// Borrow a live connection (diagnostics/tests).
    pub fn conn(&self, handle: TcpHandle) -> Option<&TcpConn> {
        self.live(handle)
    }

    /// Lend out the connection's receive buffer, whose front bytes a
    /// `ConnEvent::Data` announced, so the host can hand them to an
    /// application that holds the engine too. Empty for a reaped handle.
    /// Give it back with [`read_done`](Self::read_done).
    pub(crate) fn take_unread(&mut self, handle: TcpHandle) -> Vec<u8> {
        self.conns
            .get_mut(handle.0 as usize)
            .and_then(Option::as_mut)
            .map(|c| std::mem::take(&mut c.rcv_buf))
            .unwrap_or_default()
    }

    /// Give back the buffer [`take_unread`](Self::take_unread) lent,
    /// with its first `read` bytes read. A closed connection is reaped
    /// once none are left.
    pub(crate) fn read_done(&mut self, handle: TcpHandle, mut buf: Vec<u8>, read: usize) {
        buf.drain(..read);
        let idx = handle.0 as usize;
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        debug_assert!(
            conn.rcv_buf.is_empty(),
            "no bytes arrive while an app reads"
        );
        conn.rcv_buf = buf;
        if self.tuples[idx].is_none() && conn.rcv_buf.is_empty() {
            self.conns[idx] = None;
        }
    }

    /// Graceful close.
    pub fn close(&mut self, handle: TcpHandle, now: SimTime, out: &mut EngineOut) {
        self.with_conn(handle, out, |c, cout| c.close(now, cout));
    }

    /// Abortive close (RST).
    pub fn abort(&mut self, handle: TcpHandle, out: &mut EngineOut) {
        self.with_conn(handle, out, |c, cout| c.abort(cout));
    }

    /// Process an incoming TCP segment (raw bytes, already validated by
    /// the IP layer checksum-wise at parse time).
    pub fn on_segment(
        &mut self,
        src_ip: Ipv4Addr,
        bytes: &[u8],
        now: SimTime,
        rng: &mut SimRng,
        out: &mut EngineOut,
    ) {
        let Ok((h, payload)) = TcpHeader::parse(bytes, src_ip, self.local_ip) else {
            return; // corrupt segment: the model coerces it to a loss
        };
        let tuple = (h.dst_port, src_ip, h.src_port);
        if let Some(idx) = self.tuples.iter().position(|&t| t == Some(tuple)) {
            let handle = TcpHandle(idx as u32);
            let mut cout = std::mem::take(&mut self.scratch);
            self.conns[idx]
                .as_mut()
                .expect("tuple table points at live conn")
                .on_segment(&h, payload, now, &mut cout);
            self.merge(handle, cout, out);
            return;
        }
        if h.flags.syn && !h.flags.ack && self.listeners.contains_key(&h.dst_port) {
            let iss = rng.u64() as u32;
            let mut cout = std::mem::take(&mut self.scratch);
            let conn = TcpConn::accept(
                self.cfg.clone(),
                h.dst_port,
                (src_ip, h.src_port),
                iss,
                &h,
                now,
                &mut cout,
            );
            let handle = self.alloc_slot(conn, tuple);
            out.accepted.push((h.dst_port, handle));
            self.merge(handle, cout, out);
            return;
        }
        // No connection and not a valid listen: RST (unless it was a RST).
        if !h.flags.rst {
            let rst = TcpHeader {
                src_port: h.dst_port,
                dst_port: h.src_port,
                seq: if h.flags.ack { h.ack } else { 0 },
                ack: h
                    .seq
                    .wrapping_add(payload.len() as u32 + h.flags.syn as u32),
                flags: TcpFlags {
                    rst: true,
                    ack: true,
                    ..Default::default()
                },
                window: 0,
                mss: None,
            };
            let frame = Segment::control(rst).into_frame(self.local_ip, src_ip);
            out.segments.push((src_ip, frame));
        }
    }

    /// Earliest deadline across all connections.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.deadlines.iter().flatten().min().copied()
    }

    /// Service every connection whose deadline is due, in slot order.
    pub fn on_timer(&mut self, now: SimTime, out: &mut EngineOut) {
        for idx in 0..self.deadlines.len() {
            if self.deadlines[idx].is_none_or(|d| d > now) {
                continue;
            }
            let mut cout = std::mem::take(&mut self.scratch);
            self.conns[idx]
                .as_mut()
                .expect("a deadline belongs to a live conn")
                .on_timer(now, &mut cout);
            self.merge(TcpHandle(idx as u32), cout, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use packet::LINK_IP_HEADROOM;

    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    type SegQueue = Vec<(bool, Vec<(Ipv4Addr, Vec<u8>)>)>;

    /// Shuttle segments between two engines until quiescent.
    fn pump(
        client: &mut TcpEngine,
        server: &mut TcpEngine,
        now: SimTime,
        events: &mut Vec<(bool, TcpHandle, ConnEvent)>,
        accepted: &mut Vec<TcpHandle>,
        initial: EngineOut,
        from_client: bool,
    ) {
        let mut queue: SegQueue = vec![(from_client, initial.segments)];
        for (h, e) in initial.events {
            events.push((from_client, h, e));
        }
        for (_, h) in initial.accepted {
            accepted.push(h);
        }
        let mut rng = SimRng::seed_from_u64(9);
        let mut steps = 0;
        while let Some((from_c, segs)) = queue.pop() {
            steps += 1;
            assert!(steps < 10_000, "pump did not quiesce");
            for (_dst, bytes) in segs {
                let mut out = EngineOut::default();
                if from_c {
                    server.on_segment(
                        CLIENT_IP,
                        &bytes[LINK_IP_HEADROOM..],
                        now,
                        &mut rng,
                        &mut out,
                    );
                    for (h, e) in out.events {
                        events.push((false, h, e));
                    }
                    for (_, h) in out.accepted {
                        accepted.push(h);
                    }
                    if !out.segments.is_empty() {
                        queue.push((false, out.segments));
                    }
                } else {
                    client.on_segment(
                        SERVER_IP,
                        &bytes[LINK_IP_HEADROOM..],
                        now,
                        &mut rng,
                        &mut out,
                    );
                    for (h, e) in out.events {
                        events.push((true, h, e));
                    }
                    if !out.segments.is_empty() {
                        queue.push((true, out.segments));
                    }
                }
            }
        }
    }

    #[test]
    fn end_to_end_connect_and_transfer() {
        let mut client = TcpEngine::new(CLIENT_IP, TcpConfig::default());
        let mut server = TcpEngine::new(SERVER_IP, TcpConfig::default());
        server.listen(80);

        let mut rng = SimRng::seed_from_u64(1);
        let mut out = EngineOut::default();
        let ch = client.connect((SERVER_IP, 80), t(0), &mut rng, &mut out);

        let mut events = Vec::new();
        let mut accepted = Vec::new();
        pump(
            &mut client,
            &mut server,
            t(1),
            &mut events,
            &mut accepted,
            out,
            true,
        );

        assert_eq!(accepted.len(), 1);
        let sh = accepted[0];
        assert!(events.contains(&(true, ch, ConnEvent::Connected)));
        assert!(events.contains(&(false, sh, ConnEvent::Connected)));

        // Client sends; server receives.
        let mut out = EngineOut::default();
        let n = client.send(ch, b"GET / HTTP/1.0\r\n\r\n", t(2), &mut out);
        assert_eq!(n, 18);
        let mut events = Vec::new();
        pump(
            &mut client,
            &mut server,
            t(3),
            &mut events,
            &mut accepted,
            out,
            true,
        );
        let got: usize = events
            .iter()
            .filter_map(|(_, h, e)| match e {
                ConnEvent::Data(n) if *h == sh => Some(n),
                _ => None,
            })
            .sum();
        assert_eq!(got, 18);
        assert_eq!(server.conn(sh).unwrap().unread(), b"GET / HTTP/1.0\r\n\r\n");
    }

    #[test]
    fn a_reset_connection_keeps_its_unread_bytes_until_they_are_read() {
        let mut client = TcpEngine::new(CLIENT_IP, TcpConfig::default());
        let mut server = TcpEngine::new(SERVER_IP, TcpConfig::default());
        server.listen(80);
        let mut rng = SimRng::seed_from_u64(1);
        let (mut events, mut accepted) = (Vec::new(), Vec::new());
        let mut out = EngineOut::default();
        let ch = client.connect((SERVER_IP, 80), t(0), &mut rng, &mut out);
        pump(
            &mut client,
            &mut server,
            t(1),
            &mut events,
            &mut accepted,
            out,
            true,
        );
        let sh = accepted[0];

        // Data and then a reset reach the server before its application
        // reads: the handle goes stale, the bytes stay.
        let mut out = EngineOut::default();
        assert_eq!(client.send(ch, b"abc", t(2), &mut out), 3);
        client.abort(ch, &mut out);
        pump(
            &mut client,
            &mut server,
            t(3),
            &mut events,
            &mut accepted,
            out,
            true,
        );
        assert!(events.contains(&(false, sh, ConnEvent::Data(3))));
        assert!(events.contains(&(false, sh, ConnEvent::Reset("connection reset by peer"))));
        assert_eq!(server.state(sh), None);

        // A new connection does not take the unread one's slot.
        let mut out = EngineOut::default();
        client.connect((SERVER_IP, 80), t(4), &mut rng, &mut out);
        pump(
            &mut client,
            &mut server,
            t(5),
            &mut events,
            &mut accepted,
            out,
            true,
        );
        assert_eq!(accepted.len(), 2);
        assert_ne!(accepted[1], sh);

        let unread = server.take_unread(sh);
        assert_eq!(unread, b"abc");
        server.read_done(sh, unread, 3);
        assert!(server.conns[sh.0 as usize].is_none(), "reaped once read");
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let mut client = TcpEngine::new(CLIENT_IP, TcpConfig::default());
        let mut server = TcpEngine::new(SERVER_IP, TcpConfig::default());
        // No listener on 81.
        let mut rng = SimRng::seed_from_u64(2);
        let mut out = EngineOut::default();
        let ch = client.connect((SERVER_IP, 81), t(0), &mut rng, &mut out);

        let mut events = Vec::new();
        let mut accepted = Vec::new();
        pump(
            &mut client,
            &mut server,
            t(1),
            &mut events,
            &mut accepted,
            out,
            true,
        );
        assert!(events.contains(&(true, ch, ConnEvent::Reset("connection refused"))));
        assert_eq!(client.conns.iter().flatten().count(), 0);
    }

    #[test]
    fn full_close_reaps_both_sides() {
        let mut client = TcpEngine::new(CLIENT_IP, TcpConfig::default());
        let mut server = TcpEngine::new(SERVER_IP, TcpConfig::default());
        server.listen(80);
        let mut rng = SimRng::seed_from_u64(3);
        let mut out = EngineOut::default();
        let ch = client.connect((SERVER_IP, 80), t(0), &mut rng, &mut out);
        let mut events = Vec::new();
        let mut accepted = Vec::new();
        pump(
            &mut client,
            &mut server,
            t(1),
            &mut events,
            &mut accepted,
            out,
            true,
        );
        let sh = accepted[0];

        // Close both directions.
        let mut out = EngineOut::default();
        client.close(ch, t(2), &mut out);
        let mut events = Vec::new();
        pump(
            &mut client,
            &mut server,
            t(3),
            &mut events,
            &mut accepted,
            out,
            true,
        );
        let mut out = EngineOut::default();
        server.close(sh, t(4), &mut out);
        let mut events2 = Vec::new();
        pump(
            &mut client,
            &mut server,
            t(5),
            &mut events2,
            &mut accepted,
            out,
            false,
        );

        assert_eq!(server.conns.iter().flatten().count(), 0);
        // Client is in TIME-WAIT; fire its timer.
        assert_eq!(client.state(ch), Some(TcpState::TimeWait));
        let dl = client.next_deadline().unwrap();
        let mut out = EngineOut::default();
        client.on_timer(dl, &mut out);
        assert!(out.events.contains(&(ch, ConnEvent::Closed)));
        assert_eq!(client.conns.iter().flatten().count(), 0);
    }

    #[test]
    fn distinct_ephemeral_ports() {
        let mut client = TcpEngine::new(CLIENT_IP, TcpConfig::default());
        let mut rng = SimRng::seed_from_u64(4);
        let mut out = EngineOut::default();
        let h1 = client.connect((SERVER_IP, 80), t(0), &mut rng, &mut out);
        let h2 = client.connect((SERVER_IP, 80), t(0), &mut rng, &mut out);
        let p1 = client.conn(h1).unwrap().local_port();
        let p2 = client.conn(h2).unwrap().local_port();
        assert_ne!(p1, p2);
    }

    #[test]
    fn stale_handle_operations_are_noops() {
        let mut client = TcpEngine::new(CLIENT_IP, TcpConfig::default());
        let mut out = EngineOut::default();
        let stale = TcpHandle(17);
        assert_eq!(client.send(stale, b"x", t(0), &mut out), 0);
        client.close(stale, t(0), &mut out);
        client.abort(stale, &mut out);
        assert!(out.segments.is_empty());
        assert_eq!(client.send_space(stale), 0);
        assert_eq!(client.state(stale), None);
    }

    #[test]
    fn corrupt_segment_ignored() {
        let mut server = TcpEngine::new(SERVER_IP, TcpConfig::default());
        server.listen(80);
        let mut rng = SimRng::seed_from_u64(5);
        let mut out = EngineOut::default();
        server.on_segment(
            CLIENT_IP,
            &[0xde, 0xad, 0xbe, 0xef],
            t(0),
            &mut rng,
            &mut out,
        );
        assert!(out.segments.is_empty());
        assert!(out.accepted.is_empty());
    }
}
