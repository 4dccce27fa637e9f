//! The FTP benchmark (§4.2): a single large disk-to-disk transfer, both
//! to ("send"/store) and from ("recv"/fetch) the mobile host, over TCP.
//!
//! Protocol: the client connects and sends one command line —
//! `SEND <n>\n` followed by `n` bytes of data, or `RECV <n>\n` after
//! which the server streams `n` bytes. The server answers a completed
//! SEND with `OK\n`. Completion is measured at the client: for SEND,
//! when `OK` arrives; for RECV, when the last byte arrives.

use crate::{read_line, Fill, CHUNK};
use netsim::SimTime;
use netstack::{App, AppEvent, HostApi, TcpHandle};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Default FTP data port.
pub const FTP_PORT: u16 = 2021;

/// What the server streams for a RECV.
static SERVER_FILL: Fill = Fill::new(0x46);
/// What the client uploads for a SEND.
static CLIENT_FILL: Fill = Fill::new(0x55);

/// Transfer direction, from the client's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtpDirection {
    /// Client uploads (the paper's "send"/store).
    Send,
    /// Client downloads (the paper's "recv"/fetch).
    Recv,
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

enum SrvConn {
    AwaitCommand { line: Vec<u8> },
    Receiving { remaining: usize },
    Sending { remaining: usize },
}

/// The FTP server application.
pub struct FtpServer {
    /// Listening port.
    pub port: u16,
    conns: HashMap<TcpHandle, SrvConn>,
    /// Completed transfers (diagnostics).
    pub completed: u32,
}

impl FtpServer {
    /// Server on the default port.
    pub fn new() -> Self {
        FtpServer {
            port: FTP_PORT,
            conns: HashMap::new(),
            completed: 0,
        }
    }

    fn pump_send(&mut self, conn: TcpHandle, api: &mut HostApi<'_, '_>) {
        let Some(SrvConn::Sending { remaining }) = self.conns.get_mut(&conn) else {
            return;
        };
        while *remaining > 0 {
            let n = (*remaining).min(CHUNK);
            let sent = api.tcp_send(conn, SERVER_FILL.chunk(n));
            *remaining -= sent;
            if sent < n {
                return; // backpressure: wait for SendSpace
            }
        }
        api.tcp_close(conn);
        self.completed += 1;
        self.conns.remove(&conn);
    }

    fn on_data(&mut self, conn: TcpHandle, data: &[u8], api: &mut HostApi<'_, '_>) {
        let Some(state) = self.conns.get_mut(&conn) else {
            return;
        };
        match state {
            SrvConn::AwaitCommand { line } => {
                let Some(body_len) = read_line(line, data) else {
                    return;
                };
                let cmd = String::from_utf8_lossy(line).to_string();
                let mut parts = cmd.split_whitespace();
                let verb = parts.next().unwrap_or("");
                let n: usize = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                match verb {
                    "SEND" => {
                        *state = SrvConn::Receiving {
                            remaining: n.saturating_sub(body_len),
                        };
                        if let Some(SrvConn::Receiving { remaining }) = self.conns.get(&conn) {
                            if *remaining == 0 {
                                api.tcp_send(conn, b"OK\n");
                                self.completed += 1;
                                self.conns.remove(&conn);
                            }
                        }
                    }
                    "RECV" => {
                        *state = SrvConn::Sending { remaining: n };
                        self.pump_send(conn, api);
                    }
                    _ => {
                        api.tcp_abort(conn);
                        self.conns.remove(&conn);
                    }
                }
            }
            SrvConn::Receiving { remaining } => {
                *remaining = remaining.saturating_sub(data.len());
                if *remaining == 0 {
                    api.tcp_send(conn, b"OK\n");
                    self.completed += 1;
                    self.conns.remove(&conn);
                }
            }
            SrvConn::Sending { .. } => { /* unexpected client data: ignore */ }
        }
    }
}

impl Default for FtpServer {
    fn default() -> Self {
        FtpServer::new()
    }
}

impl App for FtpServer {
    fn on_event(&mut self, event: AppEvent, api: &mut HostApi<'_, '_>) {
        match event {
            AppEvent::Start => api.tcp_listen(self.port),
            AppEvent::TcpAccepted { conn, .. } => {
                self.conns.insert(conn, SrvConn::AwaitCommand { line: Vec::new() });
            }
            AppEvent::TcpData { conn, data } => self.on_data(conn, &data, api),
            AppEvent::TcpSendSpace { conn } => self.pump_send(conn, api),
            AppEvent::TcpPeerClosed { conn }
                // Client finished a RECV and closed; close our side too.
                if !self.conns.contains_key(&conn) => {
                    api.tcp_close(conn);
                }
            AppEvent::TcpReset { conn, .. } | AppEvent::TcpClosed { conn } => {
                self.conns.remove(&conn);
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "ftp-server"
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

enum CliState {
    Idle,
    Connecting,
    Sending { remaining: usize },
    AwaitingOk,
    Receiving { remaining: usize },
    Done,
}

const WATCHDOG_TIMER: u32 = 0xDEAD;

/// The FTP client application: performs one transfer at Start.
pub struct FtpClient {
    /// Server address.
    pub server: (Ipv4Addr, u16),
    /// Transfer direction.
    pub direction: FtpDirection,
    /// Transfer size in bytes (the paper uses 10 MB).
    pub size: usize,
    state: CliState,
    conn: Option<TcpHandle>,
    /// When the transfer began.
    pub started_at: Option<SimTime>,
    /// When the transfer completed.
    pub finished_at: Option<SimTime>,
    /// Error, if the transfer failed.
    pub error: Option<&'static str>,
    /// Abort if no forward progress for this long (a real client's
    /// transfer timeout; also protects against a silently-dead peer
    /// behind a total blackout).
    pub idle_timeout: netsim::SimDuration,
    last_progress: Option<SimTime>,
}

impl FtpClient {
    /// Client performing one `direction` transfer of `size` bytes.
    pub fn new(server: Ipv4Addr, direction: FtpDirection, size: usize) -> Self {
        FtpClient {
            server: (server, FTP_PORT),
            direction,
            size,
            state: CliState::Idle,
            conn: None,
            started_at: None,
            finished_at: None,
            error: None,
            idle_timeout: netsim::SimDuration::from_secs(300),
            last_progress: None,
        }
    }

    /// Elapsed transfer time, if complete.
    pub fn elapsed(&self) -> Option<netsim::SimDuration> {
        match (self.started_at, self.finished_at) {
            (Some(s), Some(f)) => Some(f.since(s)),
            _ => None,
        }
    }

    /// True once finished (successfully or not).
    pub fn is_done(&self) -> bool {
        self.finished_at.is_some() || self.error.is_some()
    }

    fn pump(&mut self, api: &mut HostApi<'_, '_>) {
        let Some(conn) = self.conn else { return };
        let CliState::Sending { remaining } = &mut self.state else {
            return;
        };
        while *remaining > 0 {
            let n = (*remaining).min(CHUNK);
            let sent = api.tcp_send(conn, CLIENT_FILL.chunk(n));
            *remaining -= sent;
            if sent < n {
                return;
            }
        }
        self.state = CliState::AwaitingOk;
    }

    fn finish(&mut self, api: &mut HostApi<'_, '_>) {
        self.finished_at = Some(api.now());
        self.state = CliState::Done;
        if let Some(conn) = self.conn.take() {
            api.tcp_close(conn);
        }
    }
}

impl App for FtpClient {
    fn on_event(&mut self, event: AppEvent, api: &mut HostApi<'_, '_>) {
        match event {
            AppEvent::Start => {
                self.started_at = Some(api.now());
                self.last_progress = Some(api.now());
                self.state = CliState::Connecting;
                self.conn = Some(api.tcp_connect(self.server));
                let wd = self.idle_timeout;
                api.set_timer(wd, WATCHDOG_TIMER);
            }
            AppEvent::Timer {
                token: WATCHDOG_TIMER,
            } => {
                if self.is_done() {
                    return;
                }
                let idle = self
                    .last_progress
                    .map(|t| api.now().since(t))
                    .unwrap_or(netsim::SimDuration::ZERO);
                if idle >= self.idle_timeout {
                    self.error = Some("transfer timed out");
                    if let Some(conn) = self.conn.take() {
                        api.tcp_abort(conn);
                    }
                } else {
                    let wd = self.idle_timeout - idle;
                    api.set_timer(wd, WATCHDOG_TIMER);
                }
            }
            AppEvent::TcpConnected { conn } if Some(conn) == self.conn => match self.direction {
                FtpDirection::Send => {
                    api.tcp_send(conn, format!("SEND {}\n", self.size).as_bytes());
                    self.state = CliState::Sending {
                        remaining: self.size,
                    };
                    self.pump(api);
                }
                FtpDirection::Recv => {
                    api.tcp_send(conn, format!("RECV {}\n", self.size).as_bytes());
                    self.state = CliState::Receiving {
                        remaining: self.size,
                    };
                }
            },
            AppEvent::TcpSendSpace { conn } if Some(conn) == self.conn => {
                self.last_progress = Some(api.now());
                self.pump(api);
            }
            AppEvent::TcpData { conn, data } if Some(conn) == self.conn => {
                self.last_progress = Some(api.now());
                match &mut self.state {
                    CliState::AwaitingOk
                        if (data.windows(3).any(|w| w == b"OK\n") || data.ends_with(b"OK\n")) =>
                    {
                        self.finish(api);
                    }
                    CliState::Receiving { remaining } => {
                        *remaining = remaining.saturating_sub(data.len());
                        if *remaining == 0 {
                            self.finish(api);
                        }
                    }
                    _ => {}
                }
            }
            AppEvent::TcpReset { conn, reason } if Some(conn) == self.conn => {
                self.error = Some(reason);
                self.conn = None;
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "ftp-client"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkParams, Simulator};
    use netstack::{start_host, Host, HostConfig, NIC_PORT};
    use packet::MacAddr;

    /// Move `size` bytes between a client and a server host on a 10 Mb/s
    /// Ethernet within two virtual minutes: `(elapsed seconds, done)`.
    fn run_transfer(direction: FtpDirection, size: usize) -> (f64, bool) {
        let ip_c = Ipv4Addr::new(10, 0, 0, 1);
        let ip_s = Ipv4Addr::new(10, 0, 0, 2);
        let mut client_host = Host::new(
            HostConfig::new("client", ip_c, MacAddr::local(1)).with_arp(ip_s, MacAddr::local(2)),
        );
        let app = client_host.add_app(Box::new(FtpClient::new(ip_s, direction, size)));
        let mut server_host = Host::new(
            HostConfig::new("server", ip_s, MacAddr::local(2)).with_arp(ip_c, MacAddr::local(1)),
        );
        server_host.add_app(Box::new(FtpServer::new()));

        let mut sim = Simulator::new(11);
        let nc = sim.add_node(Box::new(client_host));
        let ns = sim.add_node(Box::new(server_host));
        sim.connect_sym(nc, NIC_PORT, ns, NIC_PORT, LinkParams::ethernet_10mbps());
        start_host(&mut sim, ns, SimTime::ZERO);
        start_host(&mut sim, nc, SimTime::from_millis(10));
        sim.run_until(SimTime::from_secs(120));
        let c: &FtpClient = sim.node::<Host>(nc).app(app);
        (
            c.elapsed().map(|d| d.as_secs_f64()).unwrap_or(f64::NAN),
            c.is_done(),
        )
    }

    #[test]
    fn send_completes_at_wire_speed_scale() {
        let (secs, done) = run_transfer(FtpDirection::Send, 2_000_000);
        assert!(done);
        // 2 MB over 10 Mb/s ≈ 1.7 s ideal; allow up to 4 s.
        assert!(secs > 1.5 && secs < 4.0, "{secs}");
    }

    #[test]
    fn recv_completes_at_wire_speed_scale() {
        let (secs, done) = run_transfer(FtpDirection::Recv, 2_000_000);
        assert!(done);
        assert!(secs > 1.5 && secs < 4.0, "{secs}");
    }

    #[test]
    fn small_transfers_work_both_ways() {
        for dir in [FtpDirection::Send, FtpDirection::Recv] {
            let (secs, done) = run_transfer(dir, 100);
            assert!(done, "{dir:?}");
            assert!(secs < 1.0, "{dir:?}: {secs}");
        }
    }
}
