//! The World-Wide-Web benchmark (§4.2): reference traces of five users
//! performing search tasks, replayed as fast as possible against a
//! private web server holding every referenced object (all URLs
//! rewritten to it, as in the paper's setup with a modified Mosaic).
//!
//! Protocol (HTTP/1.0-shaped): one TCP connection per request; client
//! sends `GET <id>\n`; server replies `LEN <n>\n` followed by `n` bytes
//! and closes. The client caches objects it has seen (Mosaic's cache)
//! and charges a per-object browser processing cost.

use crate::{read_line, Fill, CHUNK};
use netsim::{SimDuration, SimRng, SimTime};
use netstack::{App, AppEvent, HostApi, TcpHandle};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// The private web server's port.
pub const WEB_PORT: u16 = 8080;

/// Response body filler.
static FILL: Fill = Fill::new(0x77);

/// Deterministic size of object `id`: a long-tailed 1996-era mix of
/// small HTML pages and larger inline images.
pub fn object_size(id: u32, seed: u64) -> usize {
    let mut rng = SimRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Log-uniform between 500 B and 12 KB, squared bias toward small,
    // with a 12% chance of a large image (15–60 KB).
    if rng.chance(0.12) {
        rng.range_u64(15_000, 60_000) as usize
    } else {
        let u = rng.f64();
        (500.0 * (24.0f64).powf(u * u) * 1.0) as usize
    }
}

/// Generate the reference trace: `users` consecutive user sessions of
/// `per_user` references each, with intra-session revisits (cache hits).
pub fn search_task_trace(users: usize, per_user: usize, seed: u64) -> Vec<u32> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut trace = Vec::with_capacity(users * per_user);
    for u in 0..users {
        let base = (u as u32) * 10_000;
        let mut visited: Vec<u32> = Vec::new();
        for _ in 0..per_user {
            // 15% revisit probability once something has been visited.
            if !visited.is_empty() && rng.chance(0.15) {
                let idx = rng.range_u64(0, visited.len() as u64) as usize;
                trace.push(visited[idx]);
            } else {
                let id = base + rng.range_u64(0, 5_000) as u32;
                visited.push(id);
                trace.push(id);
            }
        }
    }
    trace
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

enum WebSrvConn {
    AwaitRequest { line: Vec<u8> },
    Think { id: u32 },
    Sending { remaining: usize },
}

/// The private web server.
pub struct WebServer {
    /// Listening port.
    pub port: u16,
    /// Per-request server-side processing time before the response.
    pub processing: SimDuration,
    /// Seed for the object-size function (must match the client's
    /// expectations only via the LEN header, so any seed works).
    pub size_seed: u64,
    conns: HashMap<TcpHandle, WebSrvConn>,
    timer_conn: HashMap<u32, TcpHandle>,
    next_timer: u32,
    /// Requests served.
    pub served: u32,
}

impl WebServer {
    /// Server with paper-calibrated processing cost.
    pub fn new(size_seed: u64) -> Self {
        WebServer {
            port: WEB_PORT,
            processing: SimDuration::from_millis(50),
            size_seed,
            conns: HashMap::new(),
            timer_conn: HashMap::new(),
            next_timer: 1,
            served: 0,
        }
    }

    fn pump(&mut self, conn: TcpHandle, api: &mut HostApi<'_, '_>) {
        let Some(WebSrvConn::Sending { remaining }) = self.conns.get_mut(&conn) else {
            return;
        };
        while *remaining > 0 {
            let n = (*remaining).min(CHUNK);
            let sent = api.tcp_send(conn, FILL.chunk(n));
            *remaining -= sent;
            if sent < n {
                return;
            }
        }
        api.tcp_close(conn); // HTTP/1.0: close after response
        self.served += 1;
        self.conns.remove(&conn);
    }

    fn respond(&mut self, conn: TcpHandle, id: u32, api: &mut HostApi<'_, '_>) {
        let size = object_size(id, self.size_seed);
        api.tcp_send(conn, format!("LEN {size}\n").as_bytes());
        self.conns
            .insert(conn, WebSrvConn::Sending { remaining: size });
        self.pump(conn, api);
    }
}

impl App for WebServer {
    fn on_event(&mut self, event: AppEvent, api: &mut HostApi<'_, '_>) {
        match event {
            AppEvent::Start => api.tcp_listen(self.port),
            AppEvent::TcpAccepted { conn, .. } => {
                self.conns
                    .insert(conn, WebSrvConn::AwaitRequest { line: Vec::new() });
            }
            AppEvent::TcpData { conn, data } => {
                let Some(WebSrvConn::AwaitRequest { line }) = self.conns.get_mut(&conn) else {
                    return;
                };
                if read_line(line, &data).is_none() {
                    return;
                }
                let req = String::from_utf8_lossy(line).to_string();
                let id: u32 = req
                    .strip_prefix("GET ")
                    .and_then(|s| s.trim().parse().ok())
                    .unwrap_or(0);
                self.conns.insert(conn, WebSrvConn::Think { id });
                let token = self.next_timer;
                self.next_timer = self.next_timer.wrapping_add(1);
                self.timer_conn.insert(token, conn);
                let p = self.processing;
                api.set_timer(p, token);
            }
            AppEvent::Timer { token } => {
                if let Some(conn) = self.timer_conn.remove(&token) {
                    if let Some(WebSrvConn::Think { id }) = self.conns.get(&conn) {
                        let id = *id;
                        self.respond(conn, id, api);
                    }
                }
            }
            AppEvent::TcpSendSpace { conn } => self.pump(conn, api),
            AppEvent::TcpPeerClosed { conn } if !self.conns.contains_key(&conn) => {
                api.tcp_close(conn);
            }
            AppEvent::TcpReset { conn, .. } | AppEvent::TcpClosed { conn } => {
                self.conns.remove(&conn);
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "web-server"
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

const THINK_TIMER: u32 = 0x1111;
const RETRY_TIMER: u32 = 0x2222;
/// Per-object watchdog; low bits carry a generation so stale timers are
/// ignored (timers cannot be cancelled).
const OBJECT_TIMER_BASE: u32 = 0x4000_0000;

enum WebCliState {
    Idle,
    Connecting,
    AwaitHeader { line: Vec<u8> },
    Receiving { remaining: usize },
    Processing,
    Done,
}

/// The trace-replaying browser.
pub struct WebClient {
    /// Server address.
    pub server: (Ipv4Addr, u16),
    /// Object reference trace to replay.
    pub trace: Vec<u32>,
    /// Per-object browser processing cost (parse + render on a 75 MHz
    /// 486).
    pub processing: SimDuration,
    pos: usize,
    state: WebCliState,
    conn: Option<TcpHandle>,
    cache: HashSet<u32>,
    retries: u32,
    obj_gen: u32,
    /// Give up on an object after this long without completing it.
    pub object_timeout: SimDuration,
    /// Benchmark start.
    pub started_at: Option<SimTime>,
    /// Benchmark end (all references replayed).
    pub finished_at: Option<SimTime>,
    /// Objects fetched over the network.
    pub fetched: u32,
    /// References served from the local cache.
    pub cache_hits: u32,
    /// Transfer failures that exhausted retries.
    pub failures: u32,
}

impl WebClient {
    /// Client replaying `trace` against `server`.
    pub fn new(server: Ipv4Addr, trace: Vec<u32>) -> Self {
        WebClient {
            server: (server, WEB_PORT),
            trace,
            processing: SimDuration::from_millis(520),
            pos: 0,
            state: WebCliState::Idle,
            conn: None,
            cache: HashSet::new(),
            retries: 0,
            obj_gen: 0,
            object_timeout: SimDuration::from_secs(120),
            started_at: None,
            finished_at: None,
            fetched: 0,
            cache_hits: 0,
            failures: 0,
        }
    }

    /// Elapsed benchmark time, if complete.
    pub fn elapsed(&self) -> Option<SimDuration> {
        match (self.started_at, self.finished_at) {
            (Some(s), Some(f)) => Some(f.since(s)),
            _ => None,
        }
    }

    /// True once the whole trace has been replayed.
    pub fn is_done(&self) -> bool {
        self.finished_at.is_some()
    }

    fn next_reference(&mut self, api: &mut HostApi<'_, '_>) {
        if self.pos >= self.trace.len() {
            self.finished_at = Some(api.now());
            self.state = WebCliState::Done;
            return;
        }
        let id = self.trace[self.pos];
        if self.cache.contains(&id) {
            // Cache hit: only the processing cost.
            self.cache_hits += 1;
            self.pos += 1;
            self.state = WebCliState::Processing;
            let p = self.processing;
            api.set_timer(p, THINK_TIMER);
            return;
        }
        self.retries = 0;
        self.state = WebCliState::Connecting;
        self.conn = Some(api.tcp_connect(self.server));
        self.obj_gen = self.obj_gen.wrapping_add(1);
        let to = self.object_timeout;
        api.set_timer(to, OBJECT_TIMER_BASE | (self.obj_gen & 0xFFFF));
    }

    fn object_complete(&mut self, api: &mut HostApi<'_, '_>) {
        let id = self.trace[self.pos];
        self.cache.insert(id);
        self.fetched += 1;
        self.pos += 1;
        if let Some(conn) = self.conn.take() {
            api.tcp_close(conn);
        }
        self.state = WebCliState::Processing;
        let p = self.processing;
        api.set_timer(p, THINK_TIMER);
    }

    fn transfer_failed(&mut self, api: &mut HostApi<'_, '_>) {
        self.conn = None;
        self.retries += 1;
        if self.retries > 5 {
            // Give up on this object (a real browser shows an error).
            self.failures += 1;
            self.pos += 1;
            self.next_reference(api);
        } else {
            api.set_timer(SimDuration::from_millis(500), RETRY_TIMER);
        }
    }
}

impl App for WebClient {
    fn on_event(&mut self, event: AppEvent, api: &mut HostApi<'_, '_>) {
        match event {
            AppEvent::Start => {
                self.started_at = Some(api.now());
                self.next_reference(api);
            }
            AppEvent::Timer { token: THINK_TIMER } => {
                if matches!(self.state, WebCliState::Processing) {
                    self.next_reference(api);
                }
            }
            AppEvent::Timer { token: RETRY_TIMER }
                if self.conn.is_none() && !matches!(self.state, WebCliState::Done) =>
            {
                self.state = WebCliState::Connecting;
                self.conn = Some(api.tcp_connect(self.server));
            }
            AppEvent::Timer { token }
                if token & OBJECT_TIMER_BASE != 0
                // Stale generations are ignored; a live one means the
                // current object has stalled: abort and retry/skip.
                && token & 0xFFFF == self.obj_gen & 0xFFFF
                    && matches!(
                        self.state,
                        WebCliState::Connecting
                            | WebCliState::AwaitHeader { .. }
                            | WebCliState::Receiving { .. }
                    ) =>
            {
                if let Some(conn) = self.conn.take() {
                    api.tcp_abort(conn);
                }
                self.transfer_failed(api);
            }
            AppEvent::TcpConnected { conn } if Some(conn) == self.conn => {
                let id = self.trace[self.pos];
                api.tcp_send(conn, format!("GET {id}\n").as_bytes());
                self.state = WebCliState::AwaitHeader { line: Vec::new() };
            }
            AppEvent::TcpData { conn, data } if Some(conn) == self.conn => match &mut self.state {
                WebCliState::AwaitHeader { line } => {
                    let Some(body_len) = read_line(line, &data) else {
                        return;
                    };
                    let hdr = String::from_utf8_lossy(line).to_string();
                    let n: usize = hdr
                        .strip_prefix("LEN ")
                        .and_then(|s| s.trim().parse().ok())
                        .unwrap_or(0);
                    if n <= body_len {
                        self.object_complete(api);
                    } else {
                        self.state = WebCliState::Receiving {
                            remaining: n - body_len,
                        };
                    }
                }
                WebCliState::Receiving { remaining } => {
                    *remaining = remaining.saturating_sub(data.len());
                    if *remaining == 0 {
                        self.object_complete(api);
                    }
                }
                _ => {}
            },
            AppEvent::TcpReset { conn, .. } if Some(conn) == self.conn => {
                self.transfer_failed(api);
            }
            AppEvent::TcpPeerClosed { conn } if Some(conn) == self.conn => {
                // Server closed before we counted all bytes: if we're
                // still receiving this is a truncated transfer.
                if matches!(
                    self.state,
                    WebCliState::Receiving { .. } | WebCliState::AwaitHeader { .. }
                ) {
                    self.transfer_failed(api);
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "web-client"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkParams, Simulator};
    use netstack::{start_host, Host, HostConfig, NIC_PORT};
    use packet::MacAddr;

    #[test]
    fn object_sizes_deterministic_and_plausible() {
        let a = object_size(7, 99);
        let b = object_size(7, 99);
        assert_eq!(a, b);
        let sizes: Vec<usize> = (0..2000).map(|i| object_size(i, 1)).collect();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!((2_000.0..15_000.0).contains(&mean), "mean {mean}");
        assert!(*sizes.iter().max().unwrap() < 70_000);
        assert!(*sizes.iter().min().unwrap() >= 400);
    }

    #[test]
    fn trace_has_revisits() {
        let t = search_task_trace(5, 50, 42);
        assert_eq!(t.len(), 250);
        let unique: HashSet<_> = t.iter().collect();
        assert!(unique.len() < t.len(), "no revisits generated");
        // Users are in disjoint id spaces.
        assert!(t[..50].iter().all(|&id| id < 10_000));
        assert!(t[200..].iter().all(|&id| (40_000..50_000).contains(&id)));
    }

    #[test]
    fn replay_completes_on_clean_network() {
        let ip_c = Ipv4Addr::new(10, 0, 0, 1);
        let ip_s = Ipv4Addr::new(10, 0, 0, 2);
        let trace = search_task_trace(2, 10, 7);
        let n_refs = trace.len() as u32;
        let mut ch = Host::new(
            HostConfig::new("browser", ip_c, MacAddr::local(1)).with_arp(ip_s, MacAddr::local(2)),
        );
        let mut client = WebClient::new(ip_s, trace);
        client.processing = SimDuration::from_millis(50);
        let app = ch.add_app(Box::new(client));
        let mut sh = Host::new(
            HostConfig::new("webserver", ip_s, MacAddr::local(2)).with_arp(ip_c, MacAddr::local(1)),
        );
        sh.add_app(Box::new(WebServer::new(0)));
        let mut sim = Simulator::new(5);
        let nc = sim.add_node(Box::new(ch));
        let ns = sim.add_node(Box::new(sh));
        sim.connect_sym(nc, NIC_PORT, ns, NIC_PORT, LinkParams::ethernet_10mbps());
        start_host(&mut sim, ns, SimTime::ZERO);
        start_host(&mut sim, nc, SimTime::from_millis(5));
        sim.run_until(SimTime::from_secs(120));
        let c: &WebClient = sim.node::<Host>(nc).app(app);
        assert!(c.is_done(), "fetched {} of {}", c.fetched, n_refs);
        assert_eq!(c.fetched + c.cache_hits, n_refs);
        assert_eq!(c.failures, 0);
        assert!(c.cache_hits > 0);
        let secs = c.elapsed().unwrap().as_secs_f64();
        assert!(secs > 1.0 && secs < 60.0, "{secs}");
    }
}
