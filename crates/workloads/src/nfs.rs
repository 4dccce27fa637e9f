//! An NFS-like network file service over UDP RPC (§4.2).
//!
//! The Andrew benchmark runs over NFS, whose salient properties the
//! paper calls out: UDP transport, no adaptation to network quality,
//! and two message classes — small status checks (GETATTR/LOOKUP) and
//! larger data exchanges (READ/WRITE). We implement a compact NFSv2-
//! shaped protocol. The default transfer block is 1 KB (the historical
//! choice for lossy networks); 8 KB blocks — the wired-NFS default,
//! which exercises the stack's IP fragmentation — are supported via
//! [`crate::AndrewConfig::block`] and the `count` field of READ.
//!
//! Wire format (all integers big-endian):
//!
//! ```text
//! request:  xid u32 | proc u8 | handle u32 | arg u32 | count u32 | data…
//! reply:    xid u32 | status u8 | value u32 | data…
//! ```

use netsim::{SimDuration, SimTime};
use netstack::{App, AppEvent, HostApi};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The NFS service port.
pub const NFS_PORT: u16 = 2049;
/// Default transfer block size (rsize/wsize).
pub const BLOCK: usize = 1024;
/// Largest block the server will return for one READ.
pub const MAX_BLOCK: usize = 8192;

/// RPC procedure numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfsProc {
    /// No-op (mount ping).
    Null,
    /// Attribute fetch — a small status check.
    GetAttr,
    /// Name lookup in a directory — small.
    Lookup,
    /// Read a block — large reply.
    Read,
    /// Write a block — large request.
    Write,
    /// Create a file.
    Create,
    /// Create a directory.
    MkDir,
    /// List a directory — medium reply.
    ReadDir,
    /// Remove a file.
    Remove,
}

impl NfsProc {
    fn to_byte(self) -> u8 {
        match self {
            NfsProc::Null => 0,
            NfsProc::GetAttr => 1,
            NfsProc::Lookup => 2,
            NfsProc::Read => 3,
            NfsProc::Write => 4,
            NfsProc::Create => 5,
            NfsProc::MkDir => 6,
            NfsProc::ReadDir => 7,
            NfsProc::Remove => 8,
        }
    }

    fn from_byte(b: u8) -> Option<NfsProc> {
        Some(match b {
            0 => NfsProc::Null,
            1 => NfsProc::GetAttr,
            2 => NfsProc::Lookup,
            3 => NfsProc::Read,
            4 => NfsProc::Write,
            5 => NfsProc::Create,
            6 => NfsProc::MkDir,
            7 => NfsProc::ReadDir,
            8 => NfsProc::Remove,
            _ => return None,
        })
    }
}

/// Encode a request datagram.
pub fn encode_request(
    xid: u32,
    proc_: NfsProc,
    handle: u32,
    arg: u32,
    count: u32,
    data_len: usize,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(17 + data_len);
    out.extend_from_slice(&xid.to_be_bytes());
    out.push(proc_.to_byte());
    out.extend_from_slice(&handle.to_be_bytes());
    out.extend_from_slice(&arg.to_be_bytes());
    out.extend_from_slice(&count.to_be_bytes());
    out.extend_from_slice(&vec![0x5A; data_len]); // file contents are opaque
    out
}

/// Decoded request.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Transaction id.
    pub xid: u32,
    /// Procedure.
    pub proc_: NfsProc,
    /// File/dir handle.
    pub handle: u32,
    /// Procedure-specific argument (offset, name hash, …).
    pub arg: u32,
    /// Count (bytes for READ/WRITE).
    pub count: u32,
    /// Bytes of attached data (WRITE payload).
    pub data_len: u32,
}

/// Parse a request datagram (17-byte header + optional WRITE payload).
pub fn decode_request(d: &[u8]) -> Option<Request> {
    if d.len() < 17 {
        return None;
    }
    Some(Request {
        xid: u32::from_be_bytes(d[0..4].try_into().ok()?),
        proc_: NfsProc::from_byte(d[4])?,
        handle: u32::from_be_bytes(d[5..9].try_into().ok()?),
        arg: u32::from_be_bytes(d[9..13].try_into().ok()?),
        count: u32::from_be_bytes(d[13..17].try_into().ok()?),
        data_len: (d.len() - 17) as u32,
    })
}

/// Decoded reply header: (xid, status, value).
pub fn decode_reply(d: &[u8]) -> Option<(u32, u8, u32)> {
    if d.len() < 9 {
        return None;
    }
    Some((
        u32::from_be_bytes(d[0..4].try_into().ok()?),
        d[4],
        u32::from_be_bytes(d[5..9].try_into().ok()?),
    ))
}

fn encode_reply(xid: u32, status: u8, value: u32, pad: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + pad);
    out.extend_from_slice(&xid.to_be_bytes());
    out.push(status);
    out.extend_from_slice(&value.to_be_bytes());
    out.extend_from_slice(&vec![0xA5; pad]);
    out
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct FsNode {
    is_dir: bool,
    size: usize,
    children: Vec<(u32, u32)>, // (name hash, handle)
}

/// The NFS server application: a small in-memory filesystem plus the
/// request dispatcher. Replies are delayed by a per-op service time.
pub struct NfsServer {
    /// Listening port.
    pub port: u16,
    /// Per-request server processing time.
    pub service_time: SimDuration,
    fs: HashMap<u32, FsNode>,
    next_handle: u32,
    queue: HashMap<u32, (Ipv4Addr, u16, Vec<u8>)>, // timer token → reply
    next_token: u32,
    /// Requests served, by class: (status checks, data ops).
    pub served: (u64, u64),
    /// Duplicate-request cache (xid → last reply) so retransmitted
    /// non-idempotent ops are answered consistently.
    replay_cache: HashMap<(Ipv4Addr, u16, u32), Vec<u8>>,
}

/// The root directory handle.
pub const ROOT_HANDLE: u32 = 1;

impl NfsServer {
    /// Fresh server with an empty root.
    pub fn new() -> Self {
        let mut fs = HashMap::new();
        fs.insert(
            ROOT_HANDLE,
            FsNode {
                is_dir: true,
                size: 0,
                children: Vec::new(),
            },
        );
        NfsServer {
            port: NFS_PORT,
            service_time: SimDuration::from_millis(1),
            fs,
            next_handle: 2,
            queue: HashMap::new(),
            next_token: 1,
            served: (0, 0),
            replay_cache: HashMap::new(),
        }
    }

    fn execute(&mut self, req: Request) -> Vec<u8> {
        match req.proc_ {
            NfsProc::Null => encode_reply(req.xid, 0, 0, 0),
            NfsProc::GetAttr => {
                self.served.0 += 1;
                let ok = self.fs.contains_key(&req.handle);
                encode_reply(req.xid, !ok as u8, req.handle, 84) // 96B total
            }
            NfsProc::Lookup => {
                self.served.0 += 1;
                let child = self
                    .fs
                    .get(&req.handle)
                    .and_then(|n| n.children.iter().find(|&&(h, _)| h == req.arg))
                    .map(|&(_, handle)| handle);
                match child {
                    Some(h) => encode_reply(req.xid, 0, h, 116),
                    None => encode_reply(req.xid, 2, 0, 0), // ENOENT
                }
            }
            NfsProc::Read => {
                self.served.1 += 1;
                match self.fs.get(&req.handle) {
                    Some(n) if !n.is_dir => {
                        let offset = req.arg as usize;
                        let want = (req.count as usize).clamp(1, MAX_BLOCK);
                        let n_bytes = n.size.saturating_sub(offset).min(want);
                        encode_reply(req.xid, 0, n_bytes as u32, n_bytes)
                    }
                    _ => encode_reply(req.xid, 2, 0, 0),
                }
            }
            NfsProc::Write => {
                self.served.1 += 1;
                match self.fs.get_mut(&req.handle) {
                    Some(n) if !n.is_dir => {
                        let end = req.arg as usize + req.data_len as usize;
                        n.size = n.size.max(end);
                        encode_reply(req.xid, 0, req.data_len, 20) // 32B attrs
                    }
                    _ => encode_reply(req.xid, 2, 0, 0),
                }
            }
            NfsProc::Create | NfsProc::MkDir => {
                self.served.0 += 1;
                let is_dir = req.proc_ == NfsProc::MkDir;
                let Some(parent) = self.fs.get(&req.handle).cloned() else {
                    return encode_reply(req.xid, 2, 0, 0);
                };
                if !parent.is_dir {
                    return encode_reply(req.xid, 20, 0, 0); // ENOTDIR
                }
                if let Some(&(_, h)) = parent.children.iter().find(|&&(nh, _)| nh == req.arg) {
                    return encode_reply(req.xid, 0, h, 116); // already exists
                }
                let h = self.next_handle;
                self.next_handle += 1;
                self.fs.insert(
                    h,
                    FsNode {
                        is_dir,
                        size: 0,
                        children: Vec::new(),
                    },
                );
                self.fs
                    .get_mut(&req.handle)
                    .expect("parent exists")
                    .children
                    .push((req.arg, h));
                encode_reply(req.xid, 0, h, 116)
            }
            NfsProc::ReadDir => {
                self.served.0 += 1;
                match self.fs.get(&req.handle) {
                    Some(n) if n.is_dir => {
                        let entries = n.children.len();
                        encode_reply(req.xid, 0, entries as u32, 16 + entries * 32)
                    }
                    _ => encode_reply(req.xid, 20, 0, 0),
                }
            }
            NfsProc::Remove => {
                self.served.0 += 1;
                let Some(parent) = self.fs.get_mut(&req.handle) else {
                    return encode_reply(req.xid, 2, 0, 0);
                };
                match parent.children.iter().position(|&(nh, _)| nh == req.arg) {
                    Some(i) => {
                        let (_, h) = parent.children.remove(i);
                        self.fs.remove(&h);
                        encode_reply(req.xid, 0, 0, 0)
                    }
                    None => encode_reply(req.xid, 2, 0, 0),
                }
            }
        }
    }
}

impl Default for NfsServer {
    fn default() -> Self {
        NfsServer::new()
    }
}

impl App for NfsServer {
    fn on_event(&mut self, event: AppEvent, api: &mut HostApi<'_, '_>) {
        match event {
            AppEvent::Start => {
                api.udp_bind(self.port);
            }
            AppEvent::UdpDatagram { from, data, .. } => {
                let Some(req) = decode_request(&data) else {
                    return;
                };
                let key = (from.0, from.1, req.xid);
                let reply = if let Some(cached) = self.replay_cache.get(&key) {
                    cached.clone()
                } else {
                    let r = self.execute(req);
                    // Small bounded replay cache.
                    if self.replay_cache.len() > 512 {
                        self.replay_cache.clear();
                    }
                    self.replay_cache.insert(key, r.clone());
                    r
                };
                let token = self.next_token;
                self.next_token = self.next_token.wrapping_add(1);
                self.queue.insert(token, (from.0, from.1, reply));
                let st = self.service_time;
                api.set_timer(st, token);
            }
            AppEvent::Timer { token } => {
                if let Some((ip, port, reply)) = self.queue.remove(&token) {
                    let p = self.port;
                    api.udp_send(p, (ip, port), &reply);
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "nfs-server"
    }
}

// ---------------------------------------------------------------------
// Client-side RPC engine
// ---------------------------------------------------------------------

/// Timer token the RPC engine uses (callers must route it back).
pub const RPC_RETRANS_TIMER: u32 = 0x4E46;

struct PendingRpc {
    xid: u32,
    datagram: Vec<u8>,
    timeout: SimDuration,
    retries: u32,
    sent_at: SimTime,
}

/// A synchronous-style UDP RPC client with retransmission and
/// exponential backoff (one outstanding call, like a hard-mounted NFSv2
/// client without biod).
pub struct RpcClient {
    /// Server address.
    pub server: (Ipv4Addr, u16),
    /// Our bound UDP port (set at Start by the owner).
    pub port: u16,
    /// Initial retransmission timeout (historical `timeo=7` ≈ 0.7 s).
    pub initial_timeout: SimDuration,
    /// Timeout cap.
    pub max_timeout: SimDuration,
    next_xid: u32,
    pending: Option<PendingRpc>,
    /// Total calls issued.
    pub calls: u64,
    /// Total retransmissions.
    pub retransmissions: u64,
}

impl RpcClient {
    /// Client talking to `server`.
    pub fn new(server: Ipv4Addr) -> Self {
        RpcClient {
            server: (server, NFS_PORT),
            port: 0,
            initial_timeout: SimDuration::from_millis(700),
            max_timeout: SimDuration::from_secs(30),
            next_xid: 1,
            pending: None,
            calls: 0,
            retransmissions: 0,
        }
    }

    /// Is a call outstanding?
    pub fn busy(&self) -> bool {
        self.pending.is_some()
    }

    /// Issue a call. Panics if one is already outstanding (the Andrew
    /// driver is strictly sequential).
    pub fn call(
        &mut self,
        api: &mut HostApi<'_, '_>,
        proc_: NfsProc,
        handle: u32,
        arg: u32,
        count: u32,
        data_len: usize,
    ) -> u32 {
        assert!(self.pending.is_none(), "RPC already outstanding");
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        let datagram = encode_request(xid, proc_, handle, arg, count, data_len);
        api.udp_send(self.port, self.server, &datagram);
        let timeout = self.initial_timeout;
        self.pending = Some(PendingRpc {
            xid,
            datagram,
            timeout,
            retries: 0,
            sent_at: api.now(),
        });
        self.calls += 1;
        api.set_timer(timeout, RPC_RETRANS_TIMER);
        xid
    }

    /// Feed an incoming datagram. Returns `Some((status, value, data_len))`
    /// when it completes the outstanding call.
    pub fn on_datagram(&mut self, data: &[u8]) -> Option<(u8, u32, usize)> {
        let (xid, status, value) = decode_reply(data)?;
        let p = self.pending.as_ref()?;
        if p.xid != xid {
            return None; // stale reply for a timed-out call
        }
        self.pending = None;
        Some((status, value, data.len().saturating_sub(9)))
    }

    /// Handle the retransmission timer. Re-sends with backoff if the call
    /// is still outstanding and the timeout genuinely expired.
    pub fn on_timer(&mut self, api: &mut HostApi<'_, '_>) {
        let now = api.now();
        let Some(p) = self.pending.as_mut() else {
            return;
        };
        if now.since(p.sent_at) < p.timeout {
            // Stale timer from an earlier call; re-arm for the remainder.
            let remain = p.timeout - now.since(p.sent_at);
            api.set_timer(remain, RPC_RETRANS_TIMER);
            return;
        }
        // Retransmit with exponential backoff (hard mount: never give up).
        p.retries += 1;
        p.timeout = (p.timeout * 2).min(self.max_timeout);
        p.sent_at = now;
        let datagram = p.datagram.clone();
        let timeout = p.timeout;
        let (port, server) = (self.port, self.server);
        self.retransmissions += 1;
        api.udp_send(port, server, &datagram);
        api.set_timer(timeout, RPC_RETRANS_TIMER);
    }
}

/// FNV-1a hash for file names → the `arg` field of LOOKUP/CREATE.
pub fn name_hash(name: &str) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for b in name.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x01000193);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_codec_round_trip() {
        let d = encode_request(42, NfsProc::Write, 7, 1024, 1024, 1024);
        let r = decode_request(&d).unwrap();
        assert_eq!(r.xid, 42);
        assert_eq!(r.proc_, NfsProc::Write);
        assert_eq!(r.handle, 7);
        assert_eq!(r.arg, 1024);
        assert_eq!(r.data_len, 1024);
        assert!(decode_request(&d[..5]).is_none());
    }

    #[test]
    fn server_filesystem_operations() {
        let mut s = NfsServer::new();
        // MKDIR /sub
        let r = s.execute(Request {
            xid: 1,
            proc_: NfsProc::MkDir,
            handle: ROOT_HANDLE,
            arg: name_hash("sub"),
            count: 0,
            data_len: 0,
        });
        let (_, status, sub) = decode_reply(&r).unwrap();
        assert_eq!(status, 0);
        // CREATE /sub/file
        let r = s.execute(Request {
            xid: 2,
            proc_: NfsProc::Create,
            handle: sub,
            arg: name_hash("file"),
            count: 0,
            data_len: 0,
        });
        let (_, status, file) = decode_reply(&r).unwrap();
        assert_eq!(status, 0);
        // WRITE 1 KB at offset 0.
        let r = s.execute(Request {
            xid: 3,
            proc_: NfsProc::Write,
            handle: file,
            arg: 0,
            count: 1024,
            data_len: 1024,
        });
        assert_eq!(decode_reply(&r).unwrap().1, 0);
        // READ it back: full block available.
        let r = s.execute(Request {
            xid: 4,
            proc_: NfsProc::Read,
            handle: file,
            arg: 0,
            count: 1024,
            data_len: 0,
        });
        let (_, status, n) = decode_reply(&r).unwrap();
        assert_eq!(status, 0);
        assert_eq!(n, 1024);
        assert_eq!(r.len(), 9 + 1024);
        // LOOKUP finds it; ReadDir sees one entry.
        let r = s.execute(Request {
            xid: 5,
            proc_: NfsProc::Lookup,
            handle: sub,
            arg: name_hash("file"),
            count: 0,
            data_len: 0,
        });
        assert_eq!(decode_reply(&r).unwrap().2, file);
        let r = s.execute(Request {
            xid: 6,
            proc_: NfsProc::ReadDir,
            handle: sub,
            arg: 0,
            count: 0,
            data_len: 0,
        });
        assert_eq!(decode_reply(&r).unwrap().2, 1);
        // REMOVE deletes.
        let r = s.execute(Request {
            xid: 7,
            proc_: NfsProc::Remove,
            handle: sub,
            arg: name_hash("file"),
            count: 0,
            data_len: 0,
        });
        assert_eq!(decode_reply(&r).unwrap().1, 0);
        assert_eq!(s.fs.len(), 2); // root + sub
    }

    #[test]
    fn lookup_missing_is_enoent() {
        let mut s = NfsServer::new();
        let r = s.execute(Request {
            xid: 1,
            proc_: NfsProc::Lookup,
            handle: ROOT_HANDLE,
            arg: name_hash("ghost"),
            count: 0,
            data_len: 0,
        });
        assert_eq!(decode_reply(&r).unwrap().1, 2);
    }

    #[test]
    fn getattr_reply_is_small_and_read_reply_is_large() {
        let mut s = NfsServer::new();
        let small = s.execute(Request {
            xid: 1,
            proc_: NfsProc::GetAttr,
            handle: ROOT_HANDLE,
            arg: 0,
            count: 0,
            data_len: 0,
        });
        assert_eq!(small.len(), 93); // the paper's "status check" class
        assert!(small.len() < 200);
    }

    #[test]
    fn name_hash_distinct() {
        assert_ne!(name_hash("a"), name_hash("b"));
        assert_eq!(name_hash("file1"), name_hash("file1"));
    }

    #[test]
    fn create_is_idempotent_via_existing_entry() {
        let mut s = NfsServer::new();
        let mk = |s: &mut NfsServer, xid| {
            let r = s.execute(Request {
                xid,
                proc_: NfsProc::Create,
                handle: ROOT_HANDLE,
                arg: name_hash("f"),
                count: 0,
                data_len: 0,
            });
            decode_reply(&r).unwrap().2
        };
        let h1 = mk(&mut s, 1);
        let h2 = mk(&mut s, 2);
        assert_eq!(h1, h2);
    }
}
