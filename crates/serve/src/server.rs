//! The `pmor serve` daemon: listener, per-connection workers, and the
//! in-memory LRU ROM store.
//!
//! Design constraints inherited from the workspace:
//!
//! - **Bitwise determinism.** Evaluations go through the shared
//!   [`EvalEngine::transfer_batch`], so a served response is bit-for-bit
//!   what an in-process engine returns for the same points.
//! - **No wall-clock reads outside `pmor-bench`** (the `det-wallclock`
//!   lint): timing uses [`pmor_bench::timed`], and read timeouts are
//!   accumulated from fixed-length socket-timeout ticks instead of
//!   `Instant` arithmetic.
//! - **A malformed peer never kills the daemon.** Every decode failure
//!   is answered (when the envelope allows) and at worst closes that
//!   one connection.
//! - **Graceful shutdown drains in-flight batches**: the accept loop
//!   stops taking connections, then joins every live worker before the
//!   handle's `join` returns.

use crate::protocol::{
    self, EvalReply, FaultCode, Provenance, Request, Response, RomStamp, ServeFault, ServerInfo,
    HEADER_LEN, PROTOCOL_VERSION,
};
use crate::{json, ServeError};
use pmor::engine::EvalEngine;
use pmor::{rom, ParametricRom};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Socket-timeout tick used to poll the shutdown flag while blocked on
/// reads; idle time is accumulated in ticks (no wall-clock reads).
const TICK_MS: u64 = 50;

/// Accept-loop sleep between non-blocking accept attempts.
const ACCEPT_POLL_MS: u64 = 20;

/// Where a server listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// A TCP `host:port` endpoint.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl ServeAddr {
    /// Parses `unix:<path>` into [`ServeAddr::Unix`] and anything else
    /// into [`ServeAddr::Tcp`] (validated at bind/connect time).
    ///
    /// # Errors
    ///
    /// Rejects empty addresses and empty Unix paths.
    pub fn parse(text: &str) -> Result<ServeAddr, ServeError> {
        if let Some(path) = text.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(ServeError::Protocol("empty unix socket path".into()));
            }
            return Ok(ServeAddr::Unix(PathBuf::from(path)));
        }
        if text.is_empty() {
            return Err(ServeError::Protocol("empty address".into()));
        }
        Ok(ServeAddr::Tcp(text.to_string()))
    }
}

impl std::fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeAddr::Tcp(hp) => write!(f, "{hp}"),
            ServeAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Daemon configuration knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address; TCP port 0 picks an ephemeral port (resolved via
    /// [`ServerHandle::addr`]).
    pub addr: ServeAddr,
    /// Resident-ROM capacity of the LRU store.
    pub lru_capacity: usize,
    /// Maximum accepted frame body length in bytes.
    pub max_frame: u32,
    /// Maximum points per `Eval` request.
    pub max_batch: u32,
    /// Per-connection idle read timeout in milliseconds; a connection
    /// silent mid-message for longer is closed.
    pub read_timeout_ms: u64,
    /// Engine thread knob (0 = available parallelism), forwarded to
    /// [`EvalEngine::new`].
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: ServeAddr::Tcp("127.0.0.1:0".to_string()),
            lru_capacity: 8,
            max_frame: protocol::DEFAULT_MAX_FRAME,
            max_batch: protocol::DEFAULT_MAX_BATCH,
            read_timeout_ms: 10_000,
            threads: 0,
        }
    }
}

/// The resident-ROM LRU: a small most-recently-used-first vector keyed
/// by content fingerprint. A `Vec` (not a hash map) keeps iteration
/// order deterministic and the store trivially auditable.
struct RomStore {
    capacity: usize,
    entries: Vec<(u64, Arc<ParametricRom>)>,
}

impl RomStore {
    fn with_capacity(capacity: usize) -> RomStore {
        RomStore {
            capacity: capacity.max(1),
            entries: Vec::new(),
        }
    }

    /// Looks up a fingerprint, promoting a hit to most-recently-used.
    fn fetch_rom(&mut self, fingerprint: u64) -> Option<Arc<ParametricRom>> {
        let idx = self.entries.iter().position(|(fp, _)| *fp == fingerprint)?;
        let entry = self.entries.remove(idx);
        let model = entry.1.clone();
        self.entries.insert(0, entry);
        Some(model)
    }

    /// Admits a model under its fingerprint, evicting the least
    /// recently used entry when full. Re-admitting an existing
    /// fingerprint just promotes it.
    fn admit_rom(&mut self, fingerprint: u64, model: Arc<ParametricRom>) {
        if let Some(idx) = self.entries.iter().position(|(fp, _)| *fp == fingerprint) {
            let entry = self.entries.remove(idx);
            self.entries.insert(0, entry);
            return;
        }
        if self.entries.len() >= self.capacity {
            self.entries.pop();
        }
        self.entries.insert(0, (fingerprint, model));
    }

    /// Stamps of every resident model, most recently used first.
    fn stamps(&self) -> Vec<RomStamp> {
        self.entries
            .iter()
            .map(|(fp, m)| RomStamp::of(m, *fp))
            .collect()
    }
}

/// State shared by the accept loop and every connection worker.
struct Shared {
    engine: EvalEngine,
    store: Mutex<RomStore>,
    shutdown: AtomicBool,
    max_frame: u32,
    max_batch: u32,
    read_timeout_ms: u64,
}

impl Shared {
    fn store(&self) -> std::sync::MutexGuard<'_, RomStore> {
        // A poisoned store mutex means a worker panicked while holding
        // it; the store itself (a Vec of Arcs) is still structurally
        // sound, so keep serving instead of cascading the failure.
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// One accepted connection, transport-erased.
pub(crate) enum Conn {
    /// TCP transport.
    Tcp(TcpStream),
    /// Unix-domain transport.
    Unix(UnixStream),
}

impl Conn {
    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// The daemon. [`Server::start`] binds, spawns the accept loop, and
/// returns a [`ServerHandle`] for address discovery, ROM preloading and
/// shutdown.
pub struct Server;

impl Server {
    /// Binds `cfg.addr` and starts serving on a background accept
    /// thread.
    ///
    /// For TCP, port 0 is resolved to the actual ephemeral port before
    /// returning. For Unix sockets, a stale socket file left by a dead
    /// server (connection refused on probe) is removed and the bind
    /// retried once; a *live* socket at the path is a bind error.
    ///
    /// # Errors
    ///
    /// Any bind/listen failure.
    pub fn start(cfg: ServeConfig) -> Result<ServerHandle, ServeError> {
        let (listener, addr) = bind_listener(&cfg.addr)?;
        let shared = Arc::new(Shared {
            engine: EvalEngine::new(cfg.threads),
            store: Mutex::new(RomStore::with_capacity(cfg.lru_capacity)),
            shutdown: AtomicBool::new(false),
            max_frame: cfg.max_frame,
            max_batch: cfg.max_batch,
            read_timeout_ms: cfg.read_timeout_ms.max(TICK_MS),
        });
        let loop_shared = shared.clone();
        let sock_path = match &addr {
            ServeAddr::Unix(p) => Some(p.clone()),
            ServeAddr::Tcp(_) => None,
        };
        // The daemon outlives the caller's stack frame by design, so a
        // scoped pool cannot express it; lifetime is bounded by the
        // shutdown flag + join in ServerHandle.
        // pmor-lint: allow(det-unscoped-thread) reason="daemon accept loop outlives the caller; joined via ServerHandle::join"
        let accept = std::thread::spawn(move || accept_loop(listener, loop_shared, sock_path));
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
        })
    }
}

fn bind_listener(addr: &ServeAddr) -> Result<(Listener, ServeAddr), ServeError> {
    match addr {
        ServeAddr::Tcp(hp) => {
            let listener = TcpListener::bind(hp.as_str())
                .map_err(|e| ServeError::Io(format!("bind {hp}: {e}")))?;
            let local = listener
                .local_addr()
                .map_err(|e| ServeError::Io(format!("local_addr: {e}")))?;
            listener.set_nonblocking(true)?;
            Ok((Listener::Tcp(listener), ServeAddr::Tcp(local.to_string())))
        }
        ServeAddr::Unix(path) => {
            let listener = match UnixListener::bind(path) {
                Ok(l) => l,
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                    // Distinguish a live server from a stale socket file:
                    // only an unconnectable path may be reclaimed.
                    if UnixStream::connect(path).is_ok() {
                        return Err(ServeError::Io(format!(
                            "{}: another server is listening",
                            path.display()
                        )));
                    }
                    std::fs::remove_file(path)
                        .map_err(|e| ServeError::Io(format!("{}: {e}", path.display())))?;
                    UnixListener::bind(path)
                        .map_err(|e| ServeError::Io(format!("bind {}: {e}", path.display())))?
                }
                Err(e) => return Err(ServeError::Io(format!("bind {}: {e}", path.display()))),
            };
            listener.set_nonblocking(true)?;
            Ok((Listener::Unix(listener), ServeAddr::Unix(path.clone())))
        }
    }
}

fn accept_loop(listener: Listener, shared: Arc<Shared>, sock_path: Option<PathBuf>) {
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        let accepted = match &listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        };
        match accepted {
            Ok(conn) => {
                workers.retain(|h| !h.is_finished());
                let conn_shared = shared.clone();
                // pmor-lint: allow(det-unscoped-thread) reason="per-connection worker; drained by the accept loop before exit"
                workers.push(std::thread::spawn(move || {
                    handle_connection(conn, conn_shared)
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(ACCEPT_POLL_MS));
            }
            Err(_) => {
                // Accept failures (e.g. socket torn down) end the loop;
                // in-flight workers still drain below.
                break;
            }
        }
    }
    // Graceful shutdown: no new connections; drain in-flight work.
    for worker in workers {
        let _ = worker.join();
    }
    if let Some(path) = sock_path {
        let _ = std::fs::remove_file(path);
    }
}

/// Outcome of a tick-polled blocking read.
enum ReadStatus {
    /// Buffer filled completely.
    Full,
    /// Peer closed the connection (possibly mid-buffer).
    Closed,
    /// No byte arrived within the idle timeout.
    TimedOut,
    /// Server shutdown was requested while waiting.
    Stopped,
}

/// Fills `buf` from `conn`, accumulating idle time in socket-timeout
/// ticks (never reading a wall clock). Any received byte resets the
/// idle budget — the timeout bounds *silence*, not total transfer time.
fn read_full(conn: &mut Conn, buf: &mut [u8], idle_ms: &mut u64, shared: &Shared) -> ReadStatus {
    let mut filled = 0usize;
    while filled < buf.len() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return ReadStatus::Stopped;
        }
        match conn.read(&mut buf[filled..]) {
            Ok(0) => return ReadStatus::Closed,
            Ok(n) => {
                filled += n;
                *idle_ms = 0;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                *idle_ms += TICK_MS;
                if *idle_ms >= shared.read_timeout_ms {
                    return ReadStatus::TimedOut;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ReadStatus::Closed,
        }
    }
    ReadStatus::Full
}

fn handle_connection(mut conn: Conn, shared: Arc<Shared>) {
    if conn
        .set_read_timeout(Some(Duration::from_millis(TICK_MS)))
        .is_err()
    {
        return;
    }
    let mut idle_ms = 0u64;
    loop {
        // First byte selects the transport dialect for this message.
        let mut first = [0u8; 1];
        match read_full(&mut conn, &mut first, &mut idle_ms, &shared) {
            ReadStatus::Full => {}
            ReadStatus::Closed | ReadStatus::TimedOut | ReadStatus::Stopped => return,
        }
        let keep_going = if first[0] == b'{' {
            serve_json_message(&mut conn, first[0], &mut idle_ms, &shared)
        } else {
            serve_binary_message(&mut conn, first[0], &mut idle_ms, &shared)
        };
        if !keep_going {
            return;
        }
    }
}

/// Reads the rest of a binary frame (first byte already consumed),
/// processes it, writes the response. Returns `false` when the
/// connection should close.
fn serve_binary_message(conn: &mut Conn, first: u8, idle_ms: &mut u64, shared: &Shared) -> bool {
    let mut head = [0u8; HEADER_LEN];
    head[0] = first;
    match read_full(conn, &mut head[1..], idle_ms, shared) {
        ReadStatus::Full => {}
        _ => return false,
    }
    let header = match protocol::decode_header(&head) {
        Ok(h) => h,
        Err(e) => {
            // Unreadable envelope: answer what we can, then close —
            // the stream position is no longer trustworthy.
            respond_fault(conn, 0, FaultCode::Malformed, &e.to_string());
            return false;
        }
    };
    if header.body_len > shared.max_frame {
        respond_fault(
            conn,
            header.req_id,
            FaultCode::FrameTooLarge,
            &format!(
                "frame body of {} bytes exceeds the server limit of {}",
                header.body_len, shared.max_frame
            ),
        );
        return false;
    }
    let mut frame = vec![0u8; header.frame_len()];
    frame[..HEADER_LEN].copy_from_slice(&head);
    match read_full(conn, &mut frame[HEADER_LEN..], idle_ms, shared) {
        ReadStatus::Full => {}
        _ => return false,
    }
    let (req_id, request) = match protocol::decode_request(&frame) {
        Ok(decoded) => decoded,
        Err(e) => {
            respond_fault(conn, header.req_id, FaultCode::Malformed, &e.to_string());
            return false;
        }
    };
    let (response, keep_open) = process_request(request, shared);
    let ok = write_frame(conn, &protocol::encode_response(req_id, &response));
    ok && keep_open
}

/// Reads the rest of a JSON line (first byte already consumed),
/// processes it, writes one JSON line back. Returns `false` when the
/// connection should close.
fn serve_json_message(conn: &mut Conn, first: u8, idle_ms: &mut u64, shared: &Shared) -> bool {
    let mut line = vec![first];
    loop {
        let mut byte = [0u8; 1];
        match read_full(conn, &mut byte, idle_ms, shared) {
            ReadStatus::Full => {}
            _ => return false,
        }
        if byte[0] == b'\n' {
            break;
        }
        if line.len() as u64 >= shared.max_frame as u64 {
            write_json_line(conn, &json::malformed_line("json line exceeds max-frame"));
            return false;
        }
        line.push(byte[0]);
    }
    let text = match std::str::from_utf8(&line) {
        Ok(t) => t,
        Err(_) => {
            write_json_line(conn, &json::malformed_line("json line is not UTF-8"));
            return false;
        }
    };
    let (reply_line, keep_open) = match json::request_from_json(text.trim_end_matches('\r')) {
        Ok((id, request)) => {
            let (response, keep_open) = process_request(request, shared);
            (json::response_to_json(id, &response), keep_open)
        }
        Err(detail) => (json::malformed_line(&detail), true),
    };
    write_json_line(conn, &reply_line) && keep_open
}

/// Writes one newline-terminated JSON-dialect line; `false` when the
/// peer is gone.
fn write_json_line(conn: &mut Conn, line: &str) -> bool {
    conn.write_all(line.as_bytes()).is_ok() && conn.write_all(b"\n").is_ok()
}

fn respond_fault(conn: &mut Conn, req_id: u32, code: FaultCode, message: &str) {
    let response = Response::Error(ServeFault::new(code, message));
    let _ = conn.write_all(&protocol::encode_response(req_id, &response));
}

fn write_frame(conn: &mut Conn, frame: &[u8]) -> bool {
    conn.write_all(frame).is_ok()
}

/// Dispatches one decoded request. Returns the response and whether
/// the connection should stay open afterwards.
fn process_request(request: Request, shared: &Shared) -> (Response, bool) {
    match request {
        Request::Ping => (Response::Pong, true),
        Request::Info => {
            let roms = shared.store().stamps();
            (
                Response::Info(ServerInfo {
                    protocol_version: PROTOCOL_VERSION,
                    max_frame: shared.max_frame,
                    max_batch: shared.max_batch,
                    roms,
                }),
                true,
            )
        }
        Request::LoadRom { rom_bytes } => match rom::from_bytes(&rom_bytes) {
            Ok(model) => {
                // Fingerprint the canonical re-encoding, so equivalent
                // uploads land on the same key as `rom::fingerprint`.
                let fp = rom::fingerprint(&model);
                let stamp = RomStamp::of(&model, fp);
                shared.store().admit_rom(fp, Arc::new(model));
                (Response::RomLoaded(stamp), true)
            }
            Err(e) => (
                Response::Error(ServeFault::new(
                    FaultCode::Malformed,
                    format!("rom bytes rejected: {e}"),
                )),
                true,
            ),
        },
        Request::Eval {
            rom_fingerprint,
            points,
        } => (request_eval(rom_fingerprint, &points, shared), true),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            (Response::ShutdownAck, false)
        }
    }
}

fn request_eval(rom_fingerprint: u64, points: &[pmor::EvalPoint], shared: &Shared) -> Response {
    if points.len() as u64 > shared.max_batch as u64 {
        return Response::Error(ServeFault::new(
            FaultCode::BatchTooLarge,
            format!(
                "{} points exceed the server batch limit of {}",
                points.len(),
                shared.max_batch
            ),
        ));
    }
    let Some(model) = shared.store().fetch_rom(rom_fingerprint) else {
        return Response::Error(ServeFault::new(
            FaultCode::UnknownRom,
            format!("no resident rom with fingerprint {rom_fingerprint:016x}"),
        ));
    };
    let expected_params = model.num_params();
    if points.iter().any(|p| p.params.len() != expected_params) {
        return Response::Error(ServeFault::new(
            FaultCode::EvalFailed,
            format!("model expects {expected_params} parameters per point"),
        ));
    }
    let (result, eval_seconds) =
        pmor_bench::timed(|| shared.engine.transfer_batch(&*model, points));
    match result {
        Ok(mats) => {
            let provenance = Provenance {
                rom_fingerprint,
                eval_points: points.len() as u32,
                threads: shared.engine.worker_count(points.len()) as u32,
                eval_seconds,
                states: model.size() as u32,
                full_dim: model.full_dim as u32,
            };
            match EvalReply::from_matrices(provenance, &mats) {
                Ok(reply) => Response::Eval(reply),
                Err(e) => Response::Error(ServeFault::new(FaultCode::EvalFailed, e.to_string())),
            }
        }
        Err(e) => Response::Error(ServeFault::new(
            FaultCode::EvalFailed,
            format!("evaluation failed: {e}"),
        )),
    }
}

/// Handle to a running daemon: address discovery, preloading, and
/// shutdown. Dropping the handle requests shutdown but does not wait;
/// call [`ServerHandle::shutdown_and_join`] for a drained exit.
pub struct ServerHandle {
    addr: ServeAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The resolved listen address (ephemeral TCP ports filled in).
    pub fn addr(&self) -> &ServeAddr {
        &self.addr
    }

    /// Admits a model directly into the store (no socket round-trip);
    /// returns its stamp. Used by `pmor serve --roms` preloading and
    /// by in-process bench harnesses.
    pub fn preload(&self, model: &ParametricRom) -> RomStamp {
        let fp = rom::fingerprint(model);
        let stamp = RomStamp::of(model, fp);
        self.shared.store().admit_rom(fp, Arc::new(model.clone()));
        stamp
    }

    /// Requests shutdown without waiting (idempotent).
    pub fn initiate_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until the accept loop drains in-flight connections and
    /// exits. The loop only exits once shutdown has been requested —
    /// by [`ServerHandle::initiate_shutdown`] or a client `Shutdown`
    /// request — so a daemon-style caller can `join` directly and a
    /// test harness should use [`ServerHandle::shutdown_and_join`].
    ///
    /// # Errors
    ///
    /// Reports a panicked accept loop as [`ServeError::Io`].
    pub fn join(mut self) -> Result<(), ServeError> {
        if let Some(handle) = self.accept.take() {
            handle
                .join()
                .map_err(|_| ServeError::Io("accept loop panicked".into()))?;
        }
        Ok(())
    }

    /// [`ServerHandle::initiate_shutdown`] + [`ServerHandle::join`].
    ///
    /// # Errors
    ///
    /// See [`ServerHandle::join`].
    pub fn shutdown_and_join(self) -> Result<(), ServeError> {
        self.initiate_shutdown();
        self.join()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Best effort: if join() was never called, don't block drop
        // indefinitely — the accept loop notices the flag within one
        // poll tick and exits on its own.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_rom(seed: f64) -> ParametricRom {
        use pmor_num::Matrix;
        ParametricRom {
            g0: Matrix::from_fn(2, 2, |r, c| seed + (r * 2 + c) as f64),
            c0: Matrix::identity(2),
            gi: vec![],
            ci: vec![],
            b: Matrix::from_fn(2, 1, |_, _| 1.0),
            l: Matrix::from_fn(2, 1, |_, _| 1.0),
            full_dim: 2,
        }
    }

    #[test]
    fn rom_store_is_lru() {
        let mut store = RomStore::with_capacity(2);
        let (a, b, c) = (dummy_rom(1.0), dummy_rom(2.0), dummy_rom(3.0));
        store.admit_rom(1, Arc::new(a));
        store.admit_rom(2, Arc::new(b));
        // Touch 1 so 2 becomes the eviction victim.
        assert!(store.fetch_rom(1).is_some());
        store.admit_rom(3, Arc::new(c));
        assert!(store.fetch_rom(2).is_none(), "LRU entry should be evicted");
        assert!(store.fetch_rom(1).is_some());
        assert!(store.fetch_rom(3).is_some());
        // Stamps come back most-recently-used first.
        let stamps = store.stamps();
        assert_eq!(stamps.len(), 2);
        assert_eq!(stamps[0].fingerprint, 3);
        // Re-admitting an existing fingerprint promotes, not duplicates.
        store.admit_rom(1, Arc::new(dummy_rom(1.0)));
        assert_eq!(store.stamps().len(), 2);
        assert_eq!(store.stamps()[0].fingerprint, 1);
    }

    #[test]
    fn addr_parsing() {
        assert_eq!(
            ServeAddr::parse("127.0.0.1:7878").unwrap(),
            ServeAddr::Tcp("127.0.0.1:7878".into())
        );
        assert_eq!(
            ServeAddr::parse("unix:/tmp/pmor.sock").unwrap(),
            ServeAddr::Unix(PathBuf::from("/tmp/pmor.sock"))
        );
        assert!(ServeAddr::parse("").is_err());
        assert!(ServeAddr::parse("unix:").is_err());
        assert_eq!(
            ServeAddr::parse("unix:/a/b").unwrap().to_string(),
            "unix:/a/b"
        );
    }
}
