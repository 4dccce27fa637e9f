//! The application programming surface of a simulated host.
//!
//! Applications (benchmarks, servers, the ping collector) are state
//! machines driven by [`AppEvent`]s; they act through the `HostApi`
//! passed to every callback. This mirrors the paper's setup where
//! *unmodified application software* runs above the socket layer — the
//! tracing and modulation machinery below is invisible to it.

use crate::tcp::TcpHandle;
use std::any::Any;
use std::net::Ipv4Addr;
use std::ops::Deref;

/// Identifies an application registered on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppId(pub usize);

/// The in-order bytes of one [`AppEvent::TcpData`], lent from the
/// connection's receive buffer for the length of the callback: no copy
/// is made for the application. Read them as a slice (`TcpBytes`
/// derefs to `[u8]`) or iterate them by value; an application that
/// only counts them reads `len()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpBytes<'a>(pub(crate) &'a [u8]);

impl Deref for TcpBytes<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.0
    }
}

impl<'a> IntoIterator for TcpBytes<'a> {
    type Item = u8;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, u8>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().copied()
    }
}

/// Everything a host can tell an application. Only
/// [`TcpData`](AppEvent::TcpData) borrows (its bytes); every other
/// event owns what it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppEvent<'a> {
    /// The simulation started (fired once, at the host's start event).
    Start,
    /// An application timer set via `HostApi::set_timer` fired.
    Timer {
        /// The token passed to `set_timer`.
        token: u32,
    },
    /// A UDP datagram arrived on a bound port.
    UdpDatagram {
        /// Local port the datagram arrived on.
        port: u16,
        /// Sender address and port.
        from: (Ipv4Addr, u16),
        /// Payload.
        data: Vec<u8>,
    },
    /// An actively-opened TCP connection completed its handshake.
    TcpConnected {
        /// The connection.
        conn: TcpHandle,
    },
    /// A listener accepted a new connection (handshake complete happens
    /// separately; this fires at SYN acceptance, `TcpConnected` follows).
    TcpAccepted {
        /// The listening port.
        port: u16,
        /// The new connection.
        conn: TcpHandle,
    },
    /// In-order TCP data arrived.
    TcpData {
        /// The connection.
        conn: TcpHandle,
        /// The bytes, in order.
        data: TcpBytes<'a>,
    },
    /// The connection's send buffer has room again after backpressure.
    TcpSendSpace {
        /// The connection.
        conn: TcpHandle,
    },
    /// Peer closed its sending direction (FIN received, all data
    /// delivered).
    TcpPeerClosed {
        /// The connection.
        conn: TcpHandle,
    },
    /// The connection is fully closed.
    TcpClosed {
        /// The connection.
        conn: TcpHandle,
    },
    /// The connection was aborted.
    TcpReset {
        /// The connection.
        conn: TcpHandle,
        /// Why.
        reason: &'static str,
    },
    /// An ICMP echo reply arrived (routed to the host's ICMP listener).
    IcmpEchoReply {
        /// Replying host.
        from: Ipv4Addr,
        /// Identifier from the request.
        ident: u16,
        /// Sequence from the request.
        seq: u16,
        /// Echoed payload (carries the send timestamp for ping).
        payload: Vec<u8>,
    },
}

/// An application running on a simulated host.
///
/// The `Api` type parameter is concretely `HostApi` — expressed as a
/// generic-free trait object boundary via the host module to keep the
/// borrow structure simple.
pub trait App: Any + Send {
    /// Handle one event.
    fn on_event(&mut self, event: AppEvent<'_>, api: &mut crate::host::HostApi<'_, '_>);

    /// Name for diagnostics.
    fn name(&self) -> &str {
        "app"
    }
}
