//! # netstack — a from-scratch simulated host protocol stack
//!
//! Every host in the reproduction runs this stack: a device layer with the
//! paper's two kernel hook points, IPv4 with real header processing, ICMP
//! echo (the tracing workload's carrier), UDP sockets (NFS-like RPC), and
//! a BSD-Reno TCP (FTP and Web benchmarks).
//!
//! The two hook points correspond exactly to the paper's kernel
//! extensions:
//!
//! * [`DeviceTap`] — trace *collection* hooks in the device input/output
//!   routines (§3.1.2); implemented by `tracekit`.
//! * [`LinkShim`] — the *modulation* layer between IP and Ethernet
//!   (§3.3); implemented by `modulate`.
//!
//! Applications implement [`App`] and act through [`HostApi`]; they are
//! oblivious to tracing and modulation, which is the transparency property
//! the paper's methodology requires.

#![warn(missing_docs)]

mod app;
mod config;
mod hooks;
mod host;
pub mod tcp;

pub use app::{App, AppEvent, AppId, TcpBytes};
pub use config::{HostConfig, TcpConfig};
pub use hooks::{DeviceTap, Direction, LinkShim, ShimRelease, ShimVerdict};
pub use host::{Host, HostApi, HostCore, HostStats, NIC_PORT, START_TOKEN};
pub use tcp::{TcpHandle, TcpState};

use netsim::{EventKind, NodeId, SimTime, Simulator};

/// Schedule the start event for a host so its applications receive
/// [`AppEvent::Start`] at `at`.
pub fn start_host(sim: &mut Simulator, host: NodeId, at: SimTime) {
    sim.schedule_event(at, host, EventKind::Timer { token: START_TOKEN });
}
