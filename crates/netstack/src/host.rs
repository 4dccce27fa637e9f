//! The simulated host: a netsim [`Node`] containing the protocol stack
//! (device layer → optional shim → IP → ICMP/UDP/TCP → sockets → apps),
//! with the paper's two kernel hook points (device tap, link shim) and a
//! per-frame CPU pacing model.

use crate::app::{App, AppEvent, AppId, TcpBytes};
use crate::config::HostConfig;
use crate::hooks::{DeviceTap, Direction, LinkShim, ShimRelease, ShimVerdict};
use crate::tcp::{ConnEvent, EngineOut, TcpEngine, TcpHandle};
use netsim::{Context, EventKind, Frame, Node, PortId, SimDuration, SimRng, SimTime};
use packet::{
    with_headroom, EtherHeader, EtherType, IcmpMessage, IpProtocol, Ipv4Header, MacAddr, UdpHeader,
    ETHER_HEADER_LEN, LINK_IP_HEADROOM,
};
use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

/// Event-token subsystem tags (top 8 bits): timers use the first
/// five, frames held for the host CPU the last two.
const SUB_TCP: u64 = 1 << 56;
const SUB_APP: u64 = 2 << 56;
const SUB_SHIM: u64 = 3 << 56;
const SUB_TAP: u64 = 4 << 56;
const SUB_START: u64 = 5 << 56;
const SUB_TX: u64 = 6 << 56;
const SUB_RX: u64 = 7 << 56;

/// Token that kicks a host's applications off. Schedule it once:
/// `sim.schedule_event(t0, host, EventKind::Timer { token: START_TOKEN })`.
pub const START_TOKEN: u64 = SUB_START;

/// The NIC port every host uses.
pub const NIC_PORT: PortId = PortId(0);

/// Counters exposed for experiments and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostStats {
    /// Frames received from the wire.
    pub frames_in: u64,
    /// Frames put on the wire.
    pub frames_out: u64,
    /// Bytes received.
    pub bytes_in: u64,
    /// Bytes sent.
    pub bytes_out: u64,
    /// Inbound frames dropped by the shim.
    pub shim_dropped_in: u64,
    /// Outbound frames dropped by the shim.
    pub shim_dropped_out: u64,
    /// Frames that failed to parse at some layer (coerced to losses).
    pub parse_errors: u64,
    /// TCP-timer events dispatched to this host.
    pub tcp_timer_fires: u64,
    /// Outbound frames held in the engine queue until the CPU is done
    /// with them. Only a host with a device tap holds them; any other
    /// host sends each frame for the instant the CPU is done.
    pub tx_holds: u64,
}

/// An application event waiting for `drain_pending`. TCP data waits as
/// a byte count; the bytes wait in the connection's receive buffer.
enum Pending {
    Event(AppEvent<'static>),
    TcpData(TcpHandle, usize),
}

/// A partially reassembled fragmented datagram.
struct FragBuf {
    first_seen: SimTime,
    pieces: Vec<(usize, Vec<u8>)>,
    total: Option<usize>,
}

/// The protocol-stack state of a host, below the application layer.
pub struct HostCore {
    cfg: HostConfig,
    tcp: TcpEngine,
    udp_bound: HashMap<u16, AppId>,
    udp_next_ephemeral: u16,
    /// Owning application per TCP handle, indexed by the handle.
    tcp_owner: Vec<Option<AppId>>,
    listener_owner: HashMap<u16, AppId>,
    icmp_app: Option<AppId>,
    tracer: Option<Box<dyn DeviceTap>>,
    shim: Option<Box<dyn LinkShim>>,
    pending: VecDeque<(AppId, Pending)>,
    ip_ident: u16,
    tx_last_done: SimTime,
    rx_last_done: SimTime,
    frags: HashMap<(Ipv4Addr, u16, u8), FragBuf>,
    /// Instants at which a TCP-timer event is queued, one event each,
    /// latest first: each push is earlier than every queued instant, so
    /// the last entry is always the next to fire.
    tcp_timers_queued: Vec<SimTime>,
    shim_timer_armed: Option<SimTime>,
    /// Reused release buffer for shim-timer service (one allocation for
    /// the life of the host instead of one per timer fire).
    shim_scratch: Vec<ShimRelease>,
    /// Reused TCP engine output, drained by every `tcp_flush`.
    tcp_scratch: EngineOut,
    /// Device status poll cadence while a tracer is attached.
    pub poll_interval: SimDuration,
    stats: HostStats,
}

impl HostCore {
    fn new(cfg: HostConfig) -> Self {
        HostCore {
            tcp: TcpEngine::new(cfg.ip, cfg.tcp.clone()),
            cfg,
            udp_bound: HashMap::new(),
            udp_next_ephemeral: 50_000,
            tcp_owner: Vec::new(),
            listener_owner: HashMap::new(),
            icmp_app: None,
            tracer: None,
            shim: None,
            pending: VecDeque::new(),
            ip_ident: 1,
            tx_last_done: SimTime::ZERO,
            rx_last_done: SimTime::ZERO,
            frags: HashMap::new(),
            tcp_timers_queued: Vec::new(),
            shim_timer_armed: None,
            shim_scratch: Vec::new(),
            tcp_scratch: EngineOut::default(),
            poll_interval: SimDuration::from_millis(100),
            stats: HostStats::default(),
        }
    }

    // ---------------- outbound path ----------------

    /// Send the transport bytes that follow `frame`'s first
    /// [`LINK_IP_HEADROOM`] bytes. A datagram that fits the MTU gets its
    /// IPv4 and Ethernet headers written into that headroom and leaves in
    /// `frame` itself; a larger one is cut into fragments, each built in
    /// a buffer of its own.
    fn ip_output(
        &mut self,
        proto: IpProtocol,
        dst: Ipv4Addr,
        mut frame: Vec<u8>,
        ctx: &mut Context<'_>,
    ) {
        let ident = self.ip_ident;
        self.ip_ident = self.ip_ident.wrapping_add(1);
        let dst_mac = self.cfg.arp_lookup(dst).unwrap_or(MacAddr::BROADCAST);
        let ether = EtherHeader {
            dst: dst_mac,
            src: self.cfg.mac,
            ethertype: EtherType::Ipv4,
        };
        let mut header = Ipv4Header {
            src: self.cfg.ip,
            dst,
            protocol: proto,
            ttl: 64,
            ident,
            total_len: 0,
            more_fragments: false,
            frag_offset: 0,
        };
        let max_payload = self.cfg.mtu.saturating_sub(packet::IPV4_HEADER_LEN);
        let l4_len = frame.len() - LINK_IP_HEADROOM;
        if l4_len <= max_payload {
            header.write(&mut frame[ETHER_HEADER_LEN..]);
            ether.write(&mut frame);
            self.out_through_shim(frame, ctx);
            return;
        }
        // Fragment: every piece except the last carries a multiple of 8
        // bytes (the fragment-offset unit).
        let payload = &frame[LINK_IP_HEADROOM..];
        let piece = max_payload & !7;
        let mut off = 0usize;
        while off < payload.len() {
            let end = (off + piece).min(payload.len());
            header.more_fragments = end < payload.len();
            header.frag_offset = (off / 8) as u16;
            let mut fragment = with_headroom(LINK_IP_HEADROOM, &payload[off..end]);
            header.write(&mut fragment[ETHER_HEADER_LEN..]);
            ether.write(&mut fragment);
            self.out_through_shim(fragment, ctx);
            off = end;
        }
    }

    fn out_through_shim(&mut self, frame: Vec<u8>, ctx: &mut Context<'_>) {
        if let Some(shim) = self.shim.as_mut() {
            match shim.offer(Direction::Outbound, frame, ctx.now(), ctx.rng()) {
                ShimVerdict::Pass(bytes) => self.device_tx(bytes, ctx),
                ShimVerdict::Drop => self.stats.shim_dropped_out += 1,
                ShimVerdict::Hold => {}
            }
            return;
        }
        self.device_tx(frame, ctx);
    }

    /// Outbound host-CPU pacing: each frame leaves when the CPU is done
    /// with it. A host without a device tap sends it for that instant
    /// straight away. A tapped host holds it in the engine queue until
    /// then, so the tap records outbound and inbound frames in wire order.
    fn device_tx(&mut self, frame: Vec<u8>, ctx: &mut Context<'_>) {
        let now = ctx.now();
        if self.cfg.cpu_per_frame.is_zero() {
            self.wire_send(frame, now, ctx);
            return;
        }
        let done = self.tx_last_done.max(now) + self.cfg.cpu_per_frame;
        self.tx_last_done = done;
        if self.tracer.is_some() {
            self.stats.tx_holds += 1;
            ctx.hold(done, SUB_TX, Frame::new(frame, now));
        } else {
            self.wire_send(frame, done, ctx);
        }
    }

    /// Put `frame` on the wire at `at`; a tapped host only ever sends
    /// at `now`.
    fn wire_send(&mut self, frame: Vec<u8>, at: SimTime, ctx: &mut Context<'_>) {
        if let Some(t) = self.tracer.as_mut() {
            t.on_frame(Direction::Outbound, &frame, at);
        }
        self.stats.frames_out += 1;
        self.stats.bytes_out += frame.len() as u64;
        ctx.send_at(at, NIC_PORT, Frame::new(frame, at));
    }

    // ---------------- inbound path ----------------

    /// Take `frame` off the wire. Returns `false` when the frame only
    /// moved: it waits out the receive CPU in the engine queue, and no
    /// application, TCP or shim state changed.
    fn wire_input(&mut self, frame: Vec<u8>, ctx: &mut Context<'_>) -> bool {
        self.stats.frames_in += 1;
        self.stats.bytes_in += frame.len() as u64;
        if let Some(t) = self.tracer.as_mut() {
            t.on_frame(Direction::Inbound, &frame, ctx.now());
        }
        // Inbound host-CPU pacing (interrupt + protocol processing): the
        // receive path of a slow host is just as CPU-bound as transmit.
        if !self.cfg.cpu_per_frame.is_zero() {
            let done = self.rx_last_done.max(ctx.now()) + self.cfg.cpu_per_frame;
            self.rx_last_done = done;
            ctx.hold(done, SUB_RX, Frame::new(frame, ctx.now()));
            return false;
        }
        self.rx_deliver(frame, ctx);
        true
    }

    fn rx_deliver(&mut self, frame: Vec<u8>, ctx: &mut Context<'_>) {
        if let Some(shim) = self.shim.as_mut() {
            match shim.offer(Direction::Inbound, frame, ctx.now(), ctx.rng()) {
                ShimVerdict::Pass(bytes) => self.ip_input(&bytes, ctx),
                ShimVerdict::Drop => self.stats.shim_dropped_in += 1,
                ShimVerdict::Hold => {}
            }
            return;
        }
        self.ip_input(&frame, ctx);
    }

    fn ip_input(&mut self, frame: &[u8], ctx: &mut Context<'_>) {
        let Ok((eh, ip_bytes)) = EtherHeader::parse(frame) else {
            self.stats.parse_errors += 1;
            return;
        };
        if eh.dst != self.cfg.mac && !eh.dst.is_broadcast() {
            return; // not for us
        }
        if eh.ethertype != EtherType::Ipv4 {
            return;
        }
        let Ok((ih, l4)) = Ipv4Header::parse(ip_bytes) else {
            self.stats.parse_errors += 1;
            return;
        };
        if ih.dst != self.cfg.ip {
            return;
        }
        if ih.is_fragment() {
            let Some(whole) = self.reassemble(&ih, l4, ctx.now()) else {
                return; // waiting for more fragments (or dropped)
            };
            self.l4_input(ih.protocol, ih.src, &whole, ctx);
            return;
        }
        self.l4_input(ih.protocol, ih.src, l4, ctx);
    }

    /// Reassemble one fragment; returns the complete transport payload
    /// when this fragment finishes the datagram.
    fn reassemble(&mut self, ih: &Ipv4Header, data: &[u8], now: SimTime) -> Option<Vec<u8>> {
        const REASSEMBLY_TTL: SimDuration = SimDuration::from_secs(30);
        const MAX_DATAGRAMS: usize = 64;
        // Lazy expiry of stale partial datagrams.
        self.frags
            .retain(|_, v| now.since(v.first_seen) < REASSEMBLY_TTL);
        let key = (ih.src, ih.ident, u8::from(ih.protocol));
        if !self.frags.contains_key(&key) && self.frags.len() >= MAX_DATAGRAMS {
            self.stats.parse_errors += 1; // reassembly overflow counts as loss
            return None;
        }
        let entry = self.frags.entry(key).or_insert_with(|| FragBuf {
            first_seen: now,
            pieces: Vec::new(),
            total: None,
        });
        let off = ih.frag_offset as usize * 8;
        entry.pieces.push((off, data.to_vec()));
        if !ih.more_fragments {
            entry.total = Some(off + data.len());
        }
        let total = entry.total?;
        // Check contiguity 0..total. The sort is stable, so pieces at one
        // offset stay in arrival order and the later one wins below.
        entry.pieces.sort_by_key(|&(o, _)| o);
        let mut have = 0usize;
        for (o, d) in &entry.pieces {
            if *o > have {
                return None; // gap
            }
            have = have.max(o + d.len());
        }
        if have < total {
            return None;
        }
        // Complete: drop the entry and assemble its pieces.
        let pieces = self
            .frags
            .remove(&key)
            .expect("entry looked up above")
            .pieces;
        let mut out = vec![0u8; total];
        for (o, d) in pieces {
            let end = (o + d.len()).min(total);
            out[o..end].copy_from_slice(&d[..end - o]);
        }
        Some(out)
    }

    fn l4_input(&mut self, protocol: IpProtocol, src: Ipv4Addr, l4: &[u8], ctx: &mut Context<'_>) {
        match protocol {
            IpProtocol::Icmp => self.icmp_input(src, l4, ctx),
            IpProtocol::Udp => self.udp_input(src, l4, ctx),
            IpProtocol::Tcp => {
                let mut out = std::mem::take(&mut self.tcp_scratch);
                let now = ctx.now();
                self.tcp.on_segment(src, l4, now, ctx.rng(), &mut out);
                self.tcp_flush(out, ctx);
            }
            IpProtocol::Other(_) => {}
        }
    }

    fn icmp_input(&mut self, src: Ipv4Addr, l4: &[u8], ctx: &mut Context<'_>) {
        let Ok(msg) = IcmpMessage::parse(l4) else {
            self.stats.parse_errors += 1;
            return;
        };
        match msg {
            IcmpMessage::Echo { .. } => {
                let reply = msg.reply().expect("echo always has a reply");
                let frame = with_headroom(LINK_IP_HEADROOM, &reply.emit());
                self.ip_output(IpProtocol::Icmp, src, frame, ctx);
            }
            IcmpMessage::EchoReply {
                ident,
                seq,
                payload,
            } => {
                if let Some(app) = self.icmp_app {
                    self.pending.push_back((
                        app,
                        Pending::Event(AppEvent::IcmpEchoReply {
                            from: src,
                            ident,
                            seq,
                            payload,
                        }),
                    ));
                }
            }
            IcmpMessage::Other { .. } => {}
        }
    }

    fn udp_input(&mut self, src: Ipv4Addr, l4: &[u8], _ctx: &mut Context<'_>) {
        let Ok((uh, payload)) = UdpHeader::parse(l4, src, self.cfg.ip) else {
            self.stats.parse_errors += 1;
            return;
        };
        if let Some(&app) = self.udp_bound.get(&uh.dst_port) {
            self.pending.push_back((
                app,
                Pending::Event(AppEvent::UdpDatagram {
                    port: uh.dst_port,
                    from: (src, uh.src_port),
                    data: payload.to_vec(),
                }),
            ));
        }
        // No listener: a real stack would send ICMP port-unreachable; our
        // workloads never do this, so we silently drop.
    }

    /// Hand one engine operation's output on (accepts and events to the
    /// apps, frames to IP), then keep its emptied buffers for the next.
    fn tcp_flush(&mut self, mut out: EngineOut, ctx: &mut Context<'_>) {
        for (port, handle) in out.accepted.drain(..) {
            if let Some(&owner) = self.listener_owner.get(&port) {
                self.set_tcp_owner(handle, Some(owner));
                self.pending.push_back((
                    owner,
                    Pending::Event(AppEvent::TcpAccepted { port, conn: handle }),
                ));
            }
        }
        for (handle, ev) in out.events.drain(..) {
            let Some(owner) = self.tcp_owner.get(handle.0 as usize).copied().flatten() else {
                if let ConnEvent::Data(n) = ev {
                    // Nobody reads an ownerless connection: drop its
                    // bytes (they are all of its buffer) unread.
                    let unread = self.tcp.take_unread(handle);
                    self.tcp.read_done(handle, unread, n);
                }
                continue;
            };
            let app_ev = match ev {
                ConnEvent::Connected => AppEvent::TcpConnected { conn: handle },
                ConnEvent::Data(n) => {
                    self.pending.push_back((owner, Pending::TcpData(handle, n)));
                    continue;
                }
                ConnEvent::SendSpace => AppEvent::TcpSendSpace { conn: handle },
                ConnEvent::PeerClosed => AppEvent::TcpPeerClosed { conn: handle },
                ConnEvent::Closed => {
                    self.set_tcp_owner(handle, None);
                    AppEvent::TcpClosed { conn: handle }
                }
                ConnEvent::Reset(reason) => {
                    self.set_tcp_owner(handle, None);
                    AppEvent::TcpReset {
                        conn: handle,
                        reason,
                    }
                }
            };
            self.pending.push_back((owner, Pending::Event(app_ev)));
        }
        for (dst, frame) in out.segments.drain(..) {
            self.ip_output(IpProtocol::Tcp, dst, frame, ctx);
        }
        self.tcp_scratch = out;
    }

    fn set_tcp_owner(&mut self, handle: TcpHandle, owner: Option<AppId>) {
        let idx = handle.0 as usize;
        if idx >= self.tcp_owner.len() {
            self.tcp_owner.resize(idx + 1, None);
        }
        self.tcp_owner[idx] = owner;
    }

    // ---------------- timers ----------------

    fn tcp_timer(&mut self, ctx: &mut Context<'_>) {
        self.stats.tcp_timer_fires += 1;
        let fired = self.tcp_timers_queued.pop();
        debug_assert_eq!(fired, Some(ctx.now()), "the earliest queued instant fires");
        let mut out = std::mem::take(&mut self.tcp_scratch);
        self.tcp.on_timer(ctx.now(), &mut out);
        self.tcp_flush(out, ctx);
    }

    fn shim_timer(&mut self, ctx: &mut Context<'_>) {
        self.shim_timer_armed = None;
        if self.shim.is_none() {
            return;
        }
        let mut due = std::mem::take(&mut self.shim_scratch);
        due.clear();
        self.shim
            .as_mut()
            .expect("checked above")
            .collect_due_into(ctx.now(), ctx.rng(), &mut due);
        for rel in due.drain(..) {
            match rel.dir {
                Direction::Outbound => self.device_tx(rel.bytes, ctx),
                Direction::Inbound => self.ip_input(&rel.bytes, ctx),
            }
        }
        self.shim_scratch = due;
    }

    fn tap_poll(&mut self, ctx: &mut Context<'_>) {
        if let Some(t) = self.tracer.as_mut() {
            t.on_poll(ctx.now());
            let iv = self.poll_interval;
            ctx.schedule_in(iv, SUB_TAP);
        }
    }

    /// Re-arm the TCP and shim timers after any state change.
    ///
    /// A TCP-timer event is pushed only when the engine's next deadline is
    /// earlier than every one already queued. A deadline at or after the
    /// earliest queued instant waits: that event's own `rearm` schedules
    /// it. So at most one TCP-timer event is queued per instant, and the
    /// engine's next deadline never passes without a host event.
    fn rearm(&mut self, ctx: &mut Context<'_>) {
        if let Some(d) = self.tcp.next_deadline() {
            let at = d.max(ctx.now());
            if self.tcp_timers_queued.last().is_none_or(|&next| at < next) {
                ctx.schedule_at(at, SUB_TCP);
                self.tcp_timers_queued.push(at);
            }
        }
        if let Some(shim) = self.shim.as_ref() {
            if let Some(w) = shim.next_wakeup() {
                let need = match self.shim_timer_armed {
                    None => true,
                    Some(armed) => w < armed,
                };
                if need {
                    ctx.schedule_at(w, SUB_SHIM);
                    self.shim_timer_armed = Some(w);
                }
            }
        }
    }

    // ---------------- accessors ----------------

    /// Host counters.
    pub fn stats(&self) -> HostStats {
        self.stats
    }

    /// Host configuration.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// The TCP engine (tests and diagnostics).
    pub fn tcp(&self) -> &TcpEngine {
        &self.tcp
    }
}

/// A complete simulated host node: stack plus applications.
pub struct Host {
    core: HostCore,
    apps: Vec<Option<Box<dyn App>>>,
}

impl Host {
    /// Create a host from its configuration.
    pub fn new(cfg: HostConfig) -> Self {
        Host {
            core: HostCore::new(cfg),
            apps: Vec::new(),
        }
    }

    /// Register an application; returns its id.
    pub fn add_app(&mut self, app: Box<dyn App>) -> AppId {
        self.apps.push(Some(app));
        AppId(self.apps.len() - 1)
    }

    /// Attach a device tap (trace collection hook).
    pub fn set_tracer(&mut self, tap: Box<dyn DeviceTap>) {
        self.core.tracer = Some(tap);
    }

    /// Attach a link shim (modulation layer hook).
    pub fn set_shim(&mut self, shim: Box<dyn LinkShim>) {
        self.core.shim = Some(shim);
    }

    /// Borrow the stack core.
    pub fn core(&self) -> &HostCore {
        &self.core
    }

    /// Downcast-borrow an application.
    pub fn app<T: App>(&self, id: AppId) -> &T {
        let app = self.apps[id.0].as_deref().expect("app not in dispatch");
        (app as &dyn std::any::Any)
            .downcast_ref::<T>()
            .expect("app type mismatch")
    }

    /// Downcast-borrow an application mutably.
    pub fn app_mut<T: App>(&mut self, id: AppId) -> &mut T {
        let app = self.apps[id.0].as_deref_mut().expect("app not in dispatch");
        (app as &mut dyn std::any::Any)
            .downcast_mut::<T>()
            .expect("app type mismatch")
    }

    /// Downcast-borrow the tracer.
    pub fn tracer<T: DeviceTap>(&self) -> &T {
        let t = self.core.tracer.as_deref().expect("no tracer attached");
        (t as &dyn std::any::Any)
            .downcast_ref::<T>()
            .expect("tracer type mismatch")
    }

    /// Downcast-borrow the shim.
    pub fn shim<T: LinkShim>(&self) -> &T {
        let s = self.core.shim.as_deref().expect("no shim attached");
        (s as &dyn std::any::Any)
            .downcast_ref::<T>()
            .expect("shim type mismatch")
    }

    fn drain_pending(&mut self, ctx: &mut Context<'_>) {
        let mut guard = 0u32;
        while let Some((app_id, ev)) = self.core.pending.pop_front() {
            guard += 1;
            assert!(guard < 1_000_000, "application event storm");
            let mut app = self.apps.get_mut(app_id.0).and_then(Option::take);
            let mut api = HostApi {
                core: &mut self.core,
                ctx,
                app: app_id,
            };
            match ev {
                Pending::Event(ev) => {
                    if let Some(app) = app.as_mut() {
                        app.on_event(ev, &mut api);
                    }
                }
                Pending::TcpData(conn, len) => {
                    // The app reads the bytes where they wait, and they
                    // are dropped once it returns.
                    let unread = api.core.tcp.take_unread(conn);
                    if let Some(app) = app.as_mut() {
                        let data = TcpBytes(&unread[..len]);
                        app.on_event(AppEvent::TcpData { conn, data }, &mut api);
                    }
                    api.core.tcp.read_done(conn, unread, len);
                }
            }
            if let Some(app) = app {
                self.apps[app_id.0] = Some(app);
            }
        }
    }
}

impl Node for Host {
    fn on_event(&mut self, event: EventKind, ctx: &mut Context<'_>) {
        let changed = match event {
            EventKind::Deliver { frame, .. } => self.core.wire_input(frame.data, ctx),
            EventKind::Timer { token } => {
                match token & (0xff << 56) {
                    SUB_TCP => self.core.tcp_timer(ctx),
                    SUB_APP => {
                        let app = AppId(((token >> 32) & 0xff_ffff) as usize);
                        let t32 = (token & 0xffff_ffff) as u32;
                        let timer = Pending::Event(AppEvent::Timer { token: t32 });
                        self.core.pending.push_back((app, timer));
                    }
                    SUB_SHIM => self.core.shim_timer(ctx),
                    SUB_TAP => self.core.tap_poll(ctx),
                    SUB_START => {
                        for i in 0..self.apps.len() {
                            let start = Pending::Event(AppEvent::Start);
                            self.core.pending.push_back((AppId(i), start));
                        }
                        if self.core.tracer.is_some() {
                            self.core.tap_poll(ctx);
                        }
                    }
                    _ => {}
                }
                true
            }
            EventKind::Held { token, frame } => match token {
                SUB_TX => {
                    let now = ctx.now();
                    self.core.wire_send(frame.data, now, ctx);
                    false
                }
                SUB_RX => {
                    self.core.rx_deliver(frame.data, ctx);
                    true
                }
                _ => false,
            },
        };
        // An event that only moved a frame left no app event pending and
        // no TCP or shim deadline to re-arm.
        if !changed {
            debug_assert!(
                self.core.pending.is_empty(),
                "a frame move raised app events"
            );
            return;
        }
        self.drain_pending(ctx);
        self.core.rearm(ctx);
    }

    fn name(&self) -> &str {
        &self.core.cfg.name
    }
}

/// The capability handle applications use to act on their host.
pub struct HostApi<'a, 'b> {
    core: &'a mut HostCore,
    ctx: &'a mut Context<'b>,
    app: AppId,
}

impl HostApi<'_, '_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// This host's IP address.
    pub fn ip(&self) -> Ipv4Addr {
        self.core.cfg.ip
    }

    /// Deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.ctx.rng()
    }

    /// The id of the calling application.
    pub fn app_id(&self) -> AppId {
        self.app
    }

    /// Set an application timer; fires as `AppEvent::Timer { token }`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u32) {
        let app_bits = (self.app.0 as u64 & 0xff_ffff) << 32;
        self.ctx
            .schedule_in(delay, SUB_APP | app_bits | token as u64);
    }

    // ---- UDP ----

    /// Bind a UDP port to this application. Returns false if taken.
    pub fn udp_bind(&mut self, port: u16) -> bool {
        if self.core.udp_bound.contains_key(&port) {
            return false;
        }
        self.core.udp_bound.insert(port, self.app);
        true
    }

    /// Bind an unused ephemeral UDP port and return it.
    pub fn udp_bind_ephemeral(&mut self) -> u16 {
        for _ in 0..15_000 {
            let p = self.core.udp_next_ephemeral;
            self.core.udp_next_ephemeral = if p >= 64_000 { 50_000 } else { p + 1 };
            if !self.core.udp_bound.contains_key(&p) {
                self.core.udp_bound.insert(p, self.app);
                return p;
            }
        }
        panic!("UDP ephemeral port space exhausted");
    }

    /// Send a UDP datagram from `src_port` (which should be bound).
    pub fn udp_send(&mut self, src_port: u16, dst: (Ipv4Addr, u16), payload: &[u8]) {
        let bytes = UdpHeader {
            src_port,
            dst_port: dst.1,
        }
        .emit(payload, self.core.cfg.ip, dst.0);
        self.core.ip_output(
            IpProtocol::Udp,
            dst.0,
            with_headroom(LINK_IP_HEADROOM, &bytes),
            self.ctx,
        );
    }

    // ---- TCP ----

    /// Listen for connections on `port`; accepted connections are owned by
    /// this application.
    pub fn tcp_listen(&mut self, port: u16) {
        self.core.tcp.listen(port);
        self.core.listener_owner.insert(port, self.app);
    }

    /// Open a connection; completion arrives as `TcpConnected`.
    pub fn tcp_connect(&mut self, dst: (Ipv4Addr, u16)) -> TcpHandle {
        let mut out = std::mem::take(&mut self.core.tcp_scratch);
        let now = self.ctx.now();
        let handle = self.core.tcp.connect(dst, now, self.ctx.rng(), &mut out);
        self.core.set_tcp_owner(handle, Some(self.app));
        self.core.tcp_flush(out, self.ctx);
        handle
    }

    /// Queue data on a connection; returns bytes accepted.
    pub fn tcp_send(&mut self, conn: TcpHandle, data: &[u8]) -> usize {
        let mut out = std::mem::take(&mut self.core.tcp_scratch);
        let n = self.core.tcp.send(conn, data, self.ctx.now(), &mut out);
        self.core.tcp_flush(out, self.ctx);
        n
    }

    /// Graceful close.
    pub fn tcp_close(&mut self, conn: TcpHandle) {
        let mut out = std::mem::take(&mut self.core.tcp_scratch);
        self.core.tcp.close(conn, self.ctx.now(), &mut out);
        self.core.tcp_flush(out, self.ctx);
    }

    /// Abortive close.
    pub fn tcp_abort(&mut self, conn: TcpHandle) {
        let mut out = std::mem::take(&mut self.core.tcp_scratch);
        self.core.tcp.abort(conn, &mut out);
        self.core.tcp_flush(out, self.ctx);
    }

    // ---- ICMP ----

    /// Route future echo replies to this application.
    pub fn icmp_listen(&mut self) {
        self.core.icmp_app = Some(self.app);
    }

    /// Send an ICMP echo request whose payload starts with the current
    /// time (nanoseconds, big-endian) padded with zeros to `size` bytes —
    /// the paper's ping workload format. `size` is clamped to ≥ 8.
    pub fn send_ping(&mut self, dst: Ipv4Addr, ident: u16, seq: u16, size: usize) {
        let size = size.max(8);
        let mut payload = vec![0u8; size];
        payload[..8].copy_from_slice(&self.ctx.now().as_nanos().to_be_bytes());
        let msg = IcmpMessage::Echo {
            ident,
            seq,
            payload,
        };
        self.core.ip_output(
            IpProtocol::Icmp,
            dst,
            with_headroom(LINK_IP_HEADROOM, &msg.emit()),
            self.ctx,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkParams, Simulator};

    /// Ping app: sends `count` echoes one second apart, records RTTs.
    struct Pinger {
        dst: Ipv4Addr,
        count: u16,
        sent: u16,
        rtts: Vec<(u16, SimDuration)>,
    }

    impl App for Pinger {
        fn on_event(&mut self, event: AppEvent, api: &mut HostApi<'_, '_>) {
            match event {
                AppEvent::Start => {
                    api.icmp_listen();
                    api.set_timer(SimDuration::ZERO, 0);
                }
                AppEvent::Timer { .. } if self.sent < self.count => {
                    api.send_ping(self.dst, 77, self.sent, 64);
                    self.sent += 1;
                    api.set_timer(SimDuration::from_secs(1), 0);
                }
                AppEvent::IcmpEchoReply { seq, payload, .. } => {
                    let mut ts = [0u8; 8];
                    ts.copy_from_slice(&payload[..8]);
                    let sent = SimTime::from_nanos(u64::from_be_bytes(ts));
                    self.rtts.push((seq, api.now().since(sent)));
                }
                _ => {}
            }
        }
    }

    /// Bulk TCP sender: connects at start, pushes `total` bytes, closes.
    struct BulkSender {
        dst: (Ipv4Addr, u16),
        total: usize,
        sent: usize,
        conn: Option<TcpHandle>,
        finished_at: Option<SimTime>,
    }

    impl BulkSender {
        fn pump(&mut self, api: &mut HostApi<'_, '_>) {
            let Some(conn) = self.conn else { return };
            while self.sent < self.total {
                let chunk = (self.total - self.sent).min(8192);
                let n = api.tcp_send(conn, &vec![0xAB; chunk]);
                self.sent += n;
                if n < chunk {
                    break; // wait for SendSpace
                }
            }
            if self.sent >= self.total {
                api.tcp_close(conn);
            }
        }
    }

    impl App for BulkSender {
        fn on_event(&mut self, event: AppEvent, api: &mut HostApi<'_, '_>) {
            match event {
                AppEvent::Start => {
                    self.conn = Some(api.tcp_connect(self.dst));
                }
                AppEvent::TcpConnected { .. } | AppEvent::TcpSendSpace { .. } => self.pump(api),
                AppEvent::TcpClosed { .. } => self.finished_at = Some(api.now()),
                _ => {}
            }
        }
    }

    /// Sink server: listens, counts bytes, closes when peer closes.
    struct Sink {
        port: u16,
        received: usize,
        peer_closed_at: Option<SimTime>,
    }

    impl App for Sink {
        fn on_event(&mut self, event: AppEvent, api: &mut HostApi<'_, '_>) {
            match event {
                AppEvent::Start => api.tcp_listen(self.port),
                AppEvent::TcpData { data, .. } => self.received += data.len(),
                AppEvent::TcpPeerClosed { conn } => {
                    self.peer_closed_at = Some(api.now());
                    api.tcp_close(conn);
                }
                _ => {}
            }
        }
    }

    fn two_hosts(
        cpu_a: SimDuration,
        cpu_b: SimDuration,
    ) -> (Simulator, netsim::NodeId, netsim::NodeId) {
        let ip_a = Ipv4Addr::new(10, 0, 0, 1);
        let ip_b = Ipv4Addr::new(10, 0, 0, 2);
        let a = Host::new(
            HostConfig::new("a", ip_a, MacAddr::local(1))
                .with_cpu(cpu_a)
                .with_arp(ip_b, MacAddr::local(2)),
        );
        let b = Host::new(
            HostConfig::new("b", ip_b, MacAddr::local(2))
                .with_cpu(cpu_b)
                .with_arp(ip_a, MacAddr::local(1)),
        );
        let mut sim = Simulator::new(7);
        let na = sim.add_node(Box::new(a));
        let nb = sim.add_node(Box::new(b));
        sim.connect_sym(na, NIC_PORT, nb, NIC_PORT, LinkParams::ethernet_10mbps());
        (sim, na, nb)
    }

    fn start(sim: &mut Simulator, node: netsim::NodeId) {
        sim.schedule_event(SimTime::ZERO, node, EventKind::Timer { token: START_TOKEN });
    }

    #[test]
    fn ping_round_trip_times() {
        let (mut sim, na, nb) = two_hosts(SimDuration::ZERO, SimDuration::ZERO);
        let app = {
            let host: &mut Host = sim.node_mut(na);
            host.add_app(Box::new(Pinger {
                dst: Ipv4Addr::new(10, 0, 0, 2),
                count: 5,
                sent: 0,
                rtts: Vec::new(),
            }))
        };
        start(&mut sim, na);
        start(&mut sim, nb);
        sim.run(100_000);
        let host: &Host = sim.node(na);
        let pinger: &Pinger = host.app(app);
        assert_eq!(pinger.rtts.len(), 5);
        // 98-byte echo frame at 10 Mb/s ≈ 78.4 us each way + 2×50 us
        // propagation ≈ 257 us RTT.
        for (_, rtt) in &pinger.rtts {
            let us = rtt.as_secs_f64() * 1e6;
            assert!((200.0..400.0).contains(&us), "rtt {us} us");
        }
    }

    #[test]
    fn tcp_bulk_transfer_completes_at_plausible_rate() {
        let (mut sim, na, nb) = two_hosts(SimDuration::ZERO, SimDuration::ZERO);
        let total = 1_000_000usize;
        let (sender_app, sink_app);
        {
            let host: &mut Host = sim.node_mut(na);
            sender_app = host.add_app(Box::new(BulkSender {
                dst: (Ipv4Addr::new(10, 0, 0, 2), 5001),
                total,
                sent: 0,
                conn: None,
                finished_at: None,
            }));
        }
        {
            let host: &mut Host = sim.node_mut(nb);
            sink_app = host.add_app(Box::new(Sink {
                port: 5001,
                received: 0,
                peer_closed_at: None,
            }));
        }
        start(&mut sim, nb);
        start(&mut sim, na);
        sim.run(10_000_000);
        let done = sim
            .node::<Host>(nb)
            .app::<Sink>(sink_app)
            .peer_closed_at
            .expect("transfer completed");
        assert_eq!(sim.node::<Host>(nb).app::<Sink>(sink_app).received, total);
        // 1 MB over 10 Mb/s with headers: ideal ≈ 0.84 s. Allow slack for
        // slow-start and delayed ACKs but require within 2.5x of wire rate.
        let secs = done.as_secs_f64();
        assert!(secs > 0.8, "impossibly fast: {secs}");
        assert!(secs < 2.1, "too slow: {secs}");
        let sender = sim.node::<Host>(na).app::<BulkSender>(sender_app);
        assert!(sender.finished_at.is_some());
    }

    #[test]
    fn cpu_pacing_limits_throughput() {
        // 2 ms per frame ≈ 500 frames/s ≈ 730 KB/s of MSS data: 1 MB is
        // ~685 data frames ≈ 1.37 s minimum even though the wire is fast.
        let (mut sim, na, nb) = two_hosts(SimDuration::from_millis(2), SimDuration::ZERO);
        let total = 1_000_000usize;
        {
            let host: &mut Host = sim.node_mut(na);
            host.add_app(Box::new(BulkSender {
                dst: (Ipv4Addr::new(10, 0, 0, 2), 5001),
                total,
                sent: 0,
                conn: None,
                finished_at: None,
            }));
        }
        let sink_app = {
            let host: &mut Host = sim.node_mut(nb);
            host.add_app(Box::new(Sink {
                port: 5001,
                received: 0,
                peer_closed_at: None,
            }))
        };
        start(&mut sim, nb);
        start(&mut sim, na);
        sim.run(50_000_000);
        let sink = sim.node::<Host>(nb).app::<Sink>(sink_app);
        assert_eq!(sink.received, total);
        let secs = sink.peer_closed_at.unwrap().as_secs_f64();
        assert!(secs > 1.3, "CPU pacing not applied: {secs}");
    }

    #[test]
    fn udp_echo_between_hosts() {
        struct UdpEcho {
            port: u16,
        }
        impl App for UdpEcho {
            fn on_event(&mut self, event: AppEvent, api: &mut HostApi<'_, '_>) {
                match event {
                    AppEvent::Start => {
                        api.udp_bind(self.port);
                    }
                    AppEvent::UdpDatagram { from, data, .. } => {
                        api.udp_send(self.port, from, &data);
                    }
                    _ => {}
                }
            }
        }
        struct UdpClient {
            dst: (Ipv4Addr, u16),
            port: u16,
            got: Vec<Vec<u8>>,
        }
        impl App for UdpClient {
            fn on_event(&mut self, event: AppEvent, api: &mut HostApi<'_, '_>) {
                match event {
                    AppEvent::Start => {
                        self.port = api.udp_bind_ephemeral();
                        api.udp_send(self.port, self.dst, b"marco");
                    }
                    AppEvent::UdpDatagram { data, .. } => self.got.push(data),
                    _ => {}
                }
            }
        }
        let (mut sim, na, nb) = two_hosts(SimDuration::ZERO, SimDuration::ZERO);
        let client_app = {
            let host: &mut Host = sim.node_mut(na);
            host.add_app(Box::new(UdpClient {
                dst: (Ipv4Addr::new(10, 0, 0, 2), 7),
                port: 0,
                got: Vec::new(),
            }))
        };
        {
            let host: &mut Host = sim.node_mut(nb);
            host.add_app(Box::new(UdpEcho { port: 7 }));
        }
        start(&mut sim, nb);
        start(&mut sim, na);
        sim.run(10_000);
        let client = sim.node::<Host>(na).app::<UdpClient>(client_app);
        assert_eq!(client.got, vec![b"marco".to_vec()]);
    }

    /// A tap that counts frames per direction and device polls.
    #[derive(Default)]
    struct CountingTap {
        outbound: u64,
        inbound: u64,
        polls: u64,
    }

    impl DeviceTap for CountingTap {
        fn on_frame(&mut self, dir: Direction, _bytes: &[u8], _now: SimTime) {
            match dir {
                Direction::Outbound => self.outbound += 1,
                Direction::Inbound => self.inbound += 1,
            }
        }

        fn on_poll(&mut self, _now: SimTime) {
            self.polls += 1;
        }
    }

    #[test]
    fn counting_tap_sees_all_frames() {
        let (mut sim, na, nb) = two_hosts(SimDuration::ZERO, SimDuration::ZERO);
        {
            let host: &mut Host = sim.node_mut(na);
            host.set_tracer(Box::new(CountingTap::default()));
            host.add_app(Box::new(Pinger {
                dst: Ipv4Addr::new(10, 0, 0, 2),
                count: 3,
                sent: 0,
                rtts: Vec::new(),
            }));
        }
        start(&mut sim, na);
        start(&mut sim, nb);
        sim.run(100_000);
        let host: &Host = sim.node(na);
        let tap: &CountingTap = host.tracer();
        assert_eq!(tap.outbound, 3);
        assert_eq!(tap.inbound, 3);
        assert!(tap.polls > 0);
        assert_eq!(host.core().stats().frames_out, 3);
        assert_eq!(host.core().stats().frames_in, 3);
    }
}
