//! # workloads — the paper's benchmarks and workload generators
//!
//! * [`ping`] — the known collection workload: one small + two
//!   back-to-back large ICMP echoes per second (§3.2.2);
//! * [`ftp`] — the 10 MB disk-to-disk transfer, both directions (§4.2);
//! * [`web`] — the private-server World-Wide-Web trace replay (§4.2);
//! * [`nfs`] — the NFS-like UDP RPC substrate the Andrew benchmark runs
//!   on (server, client RPC engine with retransmission);
//! * [`andrew`] — the five-phase Andrew benchmark (§4.2, Figure 8).
//!
//! All of these are [`netstack::App`]s: they run unmodified above the
//! socket layer, oblivious to tracing and modulation underneath — the
//! transparency property the paper's methodology requires.

#![warn(missing_docs)]

use std::sync::OnceLock;

pub mod andrew;
pub mod ftp;
pub mod nfs;
pub mod ping;
pub mod web;

pub use andrew::{AndrewBenchmark, AndrewConfig, Phase, PhaseTiming};
pub use ftp::{FtpClient, FtpDirection, FtpServer, FTP_PORT};
pub use nfs::{NfsProc, NfsServer, RpcClient, NFS_PORT};
pub use ping::{PingConfig, PingWorkload};
pub use web::{search_task_trace, WebClient, WebServer, WEB_PORT};

/// Read a newline-ended text line (a command, request or header) off a
/// TCP stream: append `data` to `line` up to its first newline. Once the
/// newline arrives, `line` holds the text before it and the bytes after
/// it in `data` are counted, not copied: returns their number.
fn read_line(line: &mut Vec<u8>, data: &[u8]) -> Option<usize> {
    match data.iter().position(|&b| b == b'\n') {
        Some(pos) => {
            line.extend_from_slice(&data[..pos]);
            Some(data.len() - pos - 1)
        }
        None => {
            line.extend_from_slice(data);
            None
        }
    }
}

/// Most bytes a bulk sender offers its connection per `tcp_send`.
const CHUNK: usize = 8192;

/// A bulk sender's payload: `CHUNK` copies of one filler byte, built on
/// first use and then shared by every send, so no pump builds a buffer
/// per call. It is held on the heap rather than as a `static` array,
/// whose read-only pages enter the resident set together with their
/// file-backed neighbours.
struct Fill {
    byte: u8,
    buf: OnceLock<Vec<u8>>,
}

impl Fill {
    const fn new(byte: u8) -> Fill {
        Fill {
            byte,
            buf: OnceLock::new(),
        }
    }

    /// The first `n` bytes; `n` is at most `CHUNK`.
    fn chunk(&self, n: usize) -> &[u8] {
        &self.buf.get_or_init(|| vec![self.byte; CHUNK])[..n]
    }
}
