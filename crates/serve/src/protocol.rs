//! The length-prefixed binary wire protocol `pmor serve` speaks.
//!
//! # Frame layout
//!
//! Every message — request or response — travels as one frame (all
//! integers little-endian):
//!
//! ```text
//! marker      1 B   0xB1 (a first byte of `{` selects the JSON
//!                   fallback instead — see [`crate::json`])
//! version     1 B   u8, currently 1; other versions are refused
//! tag         1 B   message type (request tags < 0x80, response
//!                   tags >= 0x80)
//! reserved    1 B   must be 0
//! req_id      4 B   u32, echoed verbatim in the response so clients
//!                   can assert stable per-request ordering
//! body_len    4 B   u32 payload length (bounded by the server's
//!                   max-frame limit)
//! body        body_len B
//! checksum    8 B   FNV-1a over the body bytes
//! ```
//!
//! Floats travel as exact bit patterns (like the [`pmor::rom`] file
//! format), so a decoded request/response is **bitwise identical** to
//! the encoded one — the property the round-trip fuzz suite pins.
//! Decoding never panics on arbitrary bytes: every read is
//! bounds-checked and every violation surfaces as
//! [`crate::ServeError::Protocol`].

use crate::ServeError;
use pmor::engine::EvalPoint;
use pmor::reduce::fnv1a_bytes;
use pmor::ParametricRom;
use pmor_bench::BenchRecord;
use pmor_num::{Complex64, Matrix};

/// First byte of every binary frame.
pub const FRAME_MARKER: u8 = 0xB1;

/// Wire-format version; both sides refuse any other.
pub const PROTOCOL_VERSION: u8 = 1;

/// Fixed frame-header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Checksum trailer length in bytes.
pub const CHECKSUM_LEN: usize = 8;

/// Default server limit on `body_len` (16 MiB).
pub const DEFAULT_MAX_FRAME: u32 = 16 << 20;

/// Default server limit on points per `Eval` request.
pub const DEFAULT_MAX_BATCH: u32 = 65_536;

const REQ_PING: u8 = 0x01;
const REQ_INFO: u8 = 0x02;
const REQ_LOAD_ROM: u8 = 0x03;
const REQ_EVAL: u8 = 0x04;
const REQ_SHUTDOWN: u8 = 0x05;
const RESP_PONG: u8 = 0x81;
const RESP_INFO: u8 = 0x82;
const RESP_ROM_LOADED: u8 = 0x83;
const RESP_EVAL: u8 = 0x84;
const RESP_SHUTDOWN_ACK: u8 = 0x85;
const RESP_ERROR: u8 = 0xFF;

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Server limits and the currently resident ROM stamps.
    Info,
    /// Upload a serialized ROM ([`pmor::rom::to_bytes`] format) into
    /// the server's LRU store. Idempotent: re-loading an identical
    /// model lands on the same fingerprint.
    LoadRom {
        /// The ROM file bytes, exactly as `pmor::rom::save` writes them.
        rom_bytes: Vec<u8>,
    },
    /// Evaluate a batch of points on a resident ROM.
    Eval {
        /// Content fingerprint ([`pmor::rom::fingerprint`]) naming the
        /// model; unknown fingerprints yield [`FaultCode::UnknownRom`].
        rom_fingerprint: u64,
        /// The `(p, s)` points, evaluated in order. Every point must
        /// carry the same parameter count.
        points: Vec<EvalPoint>,
    },
    /// Ask the daemon to drain in-flight work and exit.
    Shutdown,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Info`].
    Info(ServerInfo),
    /// Answer to [`Request::LoadRom`]: the admitted model's stamp.
    RomLoaded(RomStamp),
    /// Answer to [`Request::Eval`].
    Eval(EvalReply),
    /// Answer to [`Request::Shutdown`]; the connection closes after it.
    ShutdownAck,
    /// Structured rejection; the connection stays usable unless the
    /// frame itself was unreadable.
    Error(ServeFault),
}

/// Identity card of a resident reduced model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RomStamp {
    /// Content fingerprint ([`pmor::rom::fingerprint`]).
    pub fingerprint: u64,
    /// Reduced state dimension (the paper's "model size").
    pub states: u32,
    /// Full-order dimension the model was reduced from.
    pub full_dim: u32,
    /// Number of variational parameters.
    pub num_params: u32,
    /// Number of input ports.
    pub num_inputs: u32,
    /// Number of output ports.
    pub num_outputs: u32,
}

impl RomStamp {
    /// Stamps a model under its (precomputed) fingerprint.
    pub fn of(rom: &ParametricRom, fingerprint: u64) -> RomStamp {
        RomStamp {
            fingerprint,
            states: rom.size() as u32,
            full_dim: rom.projection.nrows() as u32,
            num_params: rom.num_params() as u32,
            num_inputs: rom.num_inputs() as u32,
            num_outputs: rom.num_outputs() as u32,
        }
    }
}

/// Server limits and resident models, as reported by [`Request::Info`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerInfo {
    /// The wire-format version the server speaks.
    pub protocol_version: u8,
    /// Maximum accepted frame body length in bytes.
    pub max_frame: u32,
    /// Maximum points per `Eval` request.
    pub max_batch: u32,
    /// Resident ROM stamps, most recently used first.
    pub roms: Vec<RomStamp>,
}

/// Per-request provenance, stamped exactly like the `BENCH_*.json`
/// records the rest of the workspace emits (see
/// [`Provenance::to_record`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Provenance {
    /// Fingerprint of the model that answered.
    pub rom_fingerprint: u64,
    /// Points evaluated by this request.
    pub eval_points: u32,
    /// Worker threads the engine used for this batch.
    pub threads: u32,
    /// Wall-clock seconds of the evaluation itself.
    pub eval_seconds: f64,
    /// Reduced state dimension of the model.
    pub states: u32,
    /// Full-order dimension the model was reduced from.
    pub full_dim: u32,
}

impl Provenance {
    /// Converts the stamp into a standard [`BenchRecord`] carrying the
    /// required `median_seconds` / `dim` metrics, so served evaluations
    /// drop into the same `BENCH_*.json` trajectory as everything else
    /// (and pass `pmor bench --check`).
    pub fn to_record(&self) -> BenchRecord {
        BenchRecord::new(
            "serve_eval",
            format!("rom({:016x})", self.rom_fingerprint),
            self.eval_seconds,
        )
        .metric("median_seconds", self.eval_seconds)
        .metric("dim", self.full_dim as f64)
        .metric("size", self.states as f64)
        .metric("eval_points", self.eval_points as f64)
        .metric("threads", self.threads as f64)
    }
}

/// The payload of a successful [`Request::Eval`]: one
/// `num_outputs × num_inputs` transfer matrix per point, flattened
/// row-major, point-major — bitwise identical to what an in-process
/// [`pmor::EvalEngine::transfer_batch`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReply {
    /// Rows per matrix (the model's output count).
    pub rows: u32,
    /// Columns per matrix (the model's input count).
    pub cols: u32,
    /// Per-request provenance.
    pub provenance: Provenance,
    /// `eval_points · rows · cols` transfer values, point-major.
    pub values: Vec<Complex64>,
}

impl EvalReply {
    /// Flattens the engine's per-point matrices into a reply.
    ///
    /// # Errors
    ///
    /// Fails when a matrix's shape disagrees with its siblings or the
    /// counts disagree with `provenance.eval_points`.
    pub fn from_matrices(
        provenance: Provenance,
        mats: &[Matrix<Complex64>],
    ) -> Result<EvalReply, ServeError> {
        if mats.len() != provenance.eval_points as usize {
            return Err(ServeError::Protocol(format!(
                "eval reply: {} matrices for {} points",
                mats.len(),
                provenance.eval_points
            )));
        }
        let (rows, cols) = mats.first().map_or((0, 0), |m| (m.nrows(), m.ncols()));
        let mut values = Vec::with_capacity(mats.len() * rows * cols);
        for m in mats {
            if m.nrows() != rows || m.ncols() != cols {
                return Err(ServeError::Protocol(
                    "eval reply: ragged matrix shapes".into(),
                ));
            }
            for r in 0..rows {
                for c in 0..cols {
                    values.push(m[(r, c)]);
                }
            }
        }
        Ok(EvalReply {
            rows: rows as u32,
            cols: cols as u32,
            provenance,
            values,
        })
    }

    /// Rebuilds the per-point transfer matrices (inverse of
    /// [`EvalReply::from_matrices`], bit for bit).
    pub fn matrices(&self) -> Vec<Matrix<Complex64>> {
        let (rows, cols) = (self.rows as usize, self.cols as usize);
        let per_point = rows * cols;
        if per_point == 0 {
            return vec![Matrix::zeros(rows, cols); self.provenance.eval_points as usize];
        }
        self.values
            .chunks_exact(per_point)
            .map(|chunk| Matrix::from_fn(rows, cols, |r, c| chunk[r * cols + c]))
            .collect()
    }
}

/// Machine-readable fault classes a server can answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCode {
    /// The frame or its payload could not be decoded.
    Malformed,
    /// `body_len` exceeded the server's max-frame limit.
    FrameTooLarge,
    /// An `Eval` request carried more points than max-batch allows.
    BatchTooLarge,
    /// No resident ROM matches the requested fingerprint.
    UnknownRom,
    /// The evaluation itself failed (singular pencil, bad parameter
    /// count, …).
    EvalFailed,
    /// The operation exists but is not available on this transport
    /// (e.g. `load_rom` over the JSON fallback).
    Unsupported,
}

impl FaultCode {
    /// Wire value of the code.
    pub fn as_u16(self) -> u16 {
        match self {
            FaultCode::Malformed => 1,
            FaultCode::FrameTooLarge => 2,
            FaultCode::BatchTooLarge => 3,
            FaultCode::UnknownRom => 4,
            FaultCode::EvalFailed => 5,
            FaultCode::Unsupported => 6,
        }
    }

    /// Inverse of [`FaultCode::as_u16`].
    pub fn from_u16(v: u16) -> Option<FaultCode> {
        [
            FaultCode::Malformed,
            FaultCode::FrameTooLarge,
            FaultCode::BatchTooLarge,
            FaultCode::UnknownRom,
            FaultCode::EvalFailed,
            FaultCode::Unsupported,
        ]
        .into_iter()
        .find(|c| c.as_u16() == v)
    }

    /// The name used in the JSON fallback and log lines.
    pub fn name(self) -> &'static str {
        match self {
            FaultCode::Malformed => "malformed",
            FaultCode::FrameTooLarge => "frame_too_large",
            FaultCode::BatchTooLarge => "batch_too_large",
            FaultCode::UnknownRom => "unknown_rom",
            FaultCode::EvalFailed => "eval_failed",
            FaultCode::Unsupported => "unsupported",
        }
    }
}

/// A structured error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeFault {
    /// Machine-readable class.
    pub code: FaultCode,
    /// Human-readable detail.
    pub message: String,
}

impl ServeFault {
    /// Builds a fault.
    pub fn new(code: FaultCode, message: impl Into<String>) -> ServeFault {
        ServeFault {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServeFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.message)
    }
}

/// A decoded frame header (the first [`HEADER_LEN`] bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Message type tag.
    pub tag: u8,
    /// Request id, echoed in the response.
    pub req_id: u32,
    /// Payload length in bytes.
    pub body_len: u32,
}

impl FrameHeader {
    /// Total frame length implied by this header.
    pub fn frame_len(&self) -> usize {
        HEADER_LEN + self.body_len as usize + CHECKSUM_LEN
    }
}

/// Parses and validates a frame header.
///
/// # Errors
///
/// Rejects a wrong marker, an unsupported protocol version, and a
/// nonzero reserved byte.
pub fn decode_header(bytes: &[u8; HEADER_LEN]) -> Result<FrameHeader, ServeError> {
    if bytes[0] != FRAME_MARKER {
        return Err(ServeError::Protocol(format!(
            "bad frame marker 0x{:02x} (expected 0x{FRAME_MARKER:02x})",
            bytes[0]
        )));
    }
    if bytes[1] != PROTOCOL_VERSION {
        return Err(ServeError::Protocol(format!(
            "unsupported protocol version {} (this build speaks {PROTOCOL_VERSION})",
            bytes[1]
        )));
    }
    if bytes[3] != 0 {
        return Err(ServeError::Protocol("nonzero reserved header byte".into()));
    }
    let mut reader = ByteReader::new(&bytes[4..]);
    let req_id = reader.take_u32()?;
    let body_len = reader.take_u32()?;
    Ok(FrameHeader {
        tag: bytes[2],
        req_id,
        body_len,
    })
}

/// Encodes a request into one complete frame.
///
/// # Errors
///
/// Fails when an `Eval` batch is empty or carries ragged parameter
/// counts (the wire format stores one count for the whole batch).
pub fn encode_request(req_id: u32, req: &Request) -> Result<Vec<u8>, ServeError> {
    let (tag, body) = match req {
        Request::Ping => (REQ_PING, Vec::new()),
        Request::Info => (REQ_INFO, Vec::new()),
        Request::LoadRom { rom_bytes } => {
            let mut body = Vec::with_capacity(4 + rom_bytes.len());
            push_u32(&mut body, rom_bytes.len() as u32);
            body.extend_from_slice(rom_bytes);
            (REQ_LOAD_ROM, body)
        }
        Request::Eval {
            rom_fingerprint,
            points,
        } => {
            let Some(first) = points.first() else {
                return Err(ServeError::Protocol("eval request: empty batch".into()));
            };
            let nparams = first.params.len();
            let mut body = Vec::with_capacity(16 + points.len() * (nparams + 2) * 8);
            push_u64(&mut body, *rom_fingerprint);
            push_u32(&mut body, points.len() as u32);
            push_u32(&mut body, nparams as u32);
            for pt in points {
                if pt.params.len() != nparams {
                    return Err(ServeError::Protocol(format!(
                        "eval request: ragged parameter counts ({nparams} vs {})",
                        pt.params.len()
                    )));
                }
                for &p in &pt.params {
                    push_u64(&mut body, p.to_bits());
                }
                push_u64(&mut body, pt.s.re.to_bits());
                push_u64(&mut body, pt.s.im.to_bits());
            }
            (REQ_EVAL, body)
        }
        Request::Shutdown => (REQ_SHUTDOWN, Vec::new()),
    };
    Ok(seal_frame(tag, req_id, body))
}

/// Encodes a response into one complete frame.
pub fn encode_response(req_id: u32, resp: &Response) -> Vec<u8> {
    let (tag, body) = match resp {
        Response::Pong => (RESP_PONG, Vec::new()),
        Response::Info(info) => {
            let mut body = Vec::with_capacity(13 + info.roms.len() * 28);
            body.push(info.protocol_version);
            push_u32(&mut body, info.max_frame);
            push_u32(&mut body, info.max_batch);
            push_u32(&mut body, info.roms.len() as u32);
            for stamp in &info.roms {
                push_stamp(&mut body, stamp);
            }
            (RESP_INFO, body)
        }
        Response::RomLoaded(stamp) => {
            let mut body = Vec::with_capacity(28);
            push_stamp(&mut body, stamp);
            (RESP_ROM_LOADED, body)
        }
        Response::Eval(reply) => {
            let mut body = Vec::with_capacity(44 + reply.values.len() * 16);
            let p = &reply.provenance;
            push_u64(&mut body, p.rom_fingerprint);
            push_u32(&mut body, p.eval_points);
            push_u32(&mut body, p.threads);
            push_u64(&mut body, p.eval_seconds.to_bits());
            push_u32(&mut body, p.states);
            push_u32(&mut body, p.full_dim);
            push_u32(&mut body, reply.rows);
            push_u32(&mut body, reply.cols);
            for v in &reply.values {
                push_u64(&mut body, v.re.to_bits());
                push_u64(&mut body, v.im.to_bits());
            }
            (RESP_EVAL, body)
        }
        Response::ShutdownAck => (RESP_SHUTDOWN_ACK, Vec::new()),
        Response::Error(fault) => {
            let msg = fault.message.as_bytes();
            let mut body = Vec::with_capacity(6 + msg.len());
            body.extend_from_slice(&fault.code.as_u16().to_le_bytes());
            push_u32(&mut body, msg.len() as u32);
            body.extend_from_slice(msg);
            (RESP_ERROR, body)
        }
    };
    seal_frame(tag, req_id, body)
}

/// Decodes a complete request frame (header + body + checksum).
///
/// Never panics on arbitrary input: every violation — truncation,
/// trailing bytes, checksum mismatch, unknown tag, inconsistent counts
/// — is a [`ServeError::Protocol`].
///
/// # Errors
///
/// See above; response tags are also rejected here.
pub fn decode_request(frame: &[u8]) -> Result<(u32, Request), ServeError> {
    let (header, body) = open_frame(frame)?;
    let mut r = ByteReader::new(body);
    let req = match header.tag {
        REQ_PING => Request::Ping,
        REQ_INFO => Request::Info,
        REQ_LOAD_ROM => {
            let len = r.take_u32()? as usize;
            let bytes = r.take(len)?.to_vec();
            Request::LoadRom { rom_bytes: bytes }
        }
        REQ_EVAL => {
            let rom_fingerprint = r.take_u64()?;
            let npoints = r.take_u32()? as usize;
            let nparams = r.take_u32()? as usize;
            if npoints == 0 {
                return Err(ServeError::Protocol("eval request: empty batch".into()));
            }
            // One multiplication overflow check bounds everything that
            // follows; the reader then enforces it byte for byte.
            let need = (npoints as u64)
                .checked_mul(nparams as u64 + 2)
                .and_then(|w| w.checked_mul(8))
                .ok_or_else(|| ServeError::Protocol("eval request: size overflow".into()))?;
            if need != r.remaining() as u64 {
                return Err(ServeError::Protocol(format!(
                    "eval request: {npoints} x {nparams} points need {need} payload bytes, \
                     frame carries {}",
                    r.remaining()
                )));
            }
            let mut points = Vec::with_capacity(npoints);
            for _ in 0..npoints {
                let mut params = Vec::with_capacity(nparams);
                for _ in 0..nparams {
                    params.push(f64::from_bits(r.take_u64()?));
                }
                let re = f64::from_bits(r.take_u64()?);
                let im = f64::from_bits(r.take_u64()?);
                points.push(EvalPoint::new(params, Complex64::new(re, im)));
            }
            Request::Eval {
                rom_fingerprint,
                points,
            }
        }
        REQ_SHUTDOWN => Request::Shutdown,
        tag if tag >= 0x80 => {
            return Err(ServeError::Protocol(format!(
                "response tag 0x{tag:02x} where a request was expected"
            )))
        }
        tag => {
            return Err(ServeError::Protocol(format!(
                "unknown request tag 0x{tag:02x}"
            )))
        }
    };
    r.finish()?;
    Ok((header.req_id, req))
}

/// Decodes a complete response frame (header + body + checksum).
///
/// # Errors
///
/// Same guarantees as [`decode_request`]; request tags are rejected.
pub fn decode_response(frame: &[u8]) -> Result<(u32, Response), ServeError> {
    let (header, body) = open_frame(frame)?;
    let mut r = ByteReader::new(body);
    let resp = match header.tag {
        RESP_PONG => Response::Pong,
        RESP_INFO => {
            let protocol_version = r.take_u8()?;
            let max_frame = r.take_u32()?;
            let max_batch = r.take_u32()?;
            let count = r.take_u32()? as usize;
            if count as u64 * 28 != r.remaining() as u64 {
                return Err(ServeError::Protocol(format!(
                    "info response: {count} stamps do not fit {} payload bytes",
                    r.remaining()
                )));
            }
            let mut roms = Vec::with_capacity(count);
            for _ in 0..count {
                roms.push(take_stamp(&mut r)?);
            }
            Response::Info(ServerInfo {
                protocol_version,
                max_frame,
                max_batch,
                roms,
            })
        }
        RESP_ROM_LOADED => Response::RomLoaded(take_stamp(&mut r)?),
        RESP_EVAL => {
            let provenance = Provenance {
                rom_fingerprint: r.take_u64()?,
                eval_points: r.take_u32()?,
                threads: r.take_u32()?,
                eval_seconds: f64::from_bits(r.take_u64()?),
                states: r.take_u32()?,
                full_dim: r.take_u32()?,
            };
            let rows = r.take_u32()?;
            let cols = r.take_u32()?;
            let need = (provenance.eval_points as u64)
                .checked_mul(rows as u64)
                .and_then(|w| w.checked_mul(cols as u64))
                .and_then(|w| w.checked_mul(16))
                .ok_or_else(|| ServeError::Protocol("eval response: size overflow".into()))?;
            if need != r.remaining() as u64 {
                return Err(ServeError::Protocol(format!(
                    "eval response: {} x {rows} x {cols} values need {need} payload bytes, \
                     frame carries {}",
                    provenance.eval_points,
                    r.remaining()
                )));
            }
            let count = (need / 16) as usize;
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                let re = f64::from_bits(r.take_u64()?);
                let im = f64::from_bits(r.take_u64()?);
                values.push(Complex64::new(re, im));
            }
            Response::Eval(EvalReply {
                rows,
                cols,
                provenance,
                values,
            })
        }
        RESP_SHUTDOWN_ACK => Response::ShutdownAck,
        RESP_ERROR => {
            let raw = r.take_u16()?;
            let code = FaultCode::from_u16(raw).ok_or_else(|| {
                ServeError::Protocol(format!("unknown fault code {raw} in error response"))
            })?;
            let len = r.take_u32()? as usize;
            let bytes = r.take(len)?;
            let message = std::str::from_utf8(bytes)
                .map_err(|_| ServeError::Protocol("error message is not UTF-8".into()))?
                .to_string();
            Response::Error(ServeFault { code, message })
        }
        tag if tag < 0x80 => {
            return Err(ServeError::Protocol(format!(
                "request tag 0x{tag:02x} where a response was expected"
            )))
        }
        tag => {
            return Err(ServeError::Protocol(format!(
                "unknown response tag 0x{tag:02x}"
            )))
        }
    };
    r.finish()?;
    Ok((header.req_id, resp))
}

/// Wraps a body into a sealed frame: header + body + checksum.
fn seal_frame(tag: u8, req_id: u32, body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len() + CHECKSUM_LEN);
    out.push(FRAME_MARKER);
    out.push(PROTOCOL_VERSION);
    out.push(tag);
    out.push(0);
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&fnv1a_bytes(&body).to_le_bytes());
    out
}

/// Validates a whole frame's envelope and returns `(header, body)`.
fn open_frame(frame: &[u8]) -> Result<(FrameHeader, &[u8]), ServeError> {
    if frame.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(ServeError::Protocol(format!(
            "frame of {} bytes is shorter than header + checksum",
            frame.len()
        )));
    }
    let mut head = [0u8; HEADER_LEN];
    head.copy_from_slice(&frame[..HEADER_LEN]);
    let header = decode_header(&head)?;
    if header.frame_len() != frame.len() {
        return Err(ServeError::Protocol(format!(
            "frame length {} disagrees with header body_len {}",
            frame.len(),
            header.body_len
        )));
    }
    let body = &frame[HEADER_LEN..frame.len() - CHECKSUM_LEN];
    let mut sum = [0u8; CHECKSUM_LEN];
    sum.copy_from_slice(&frame[frame.len() - CHECKSUM_LEN..]);
    if fnv1a_bytes(body) != u64::from_le_bytes(sum) {
        return Err(ServeError::Protocol(
            "frame checksum mismatch (corrupted body)".into(),
        ));
    }
    Ok((header, body))
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_stamp(out: &mut Vec<u8>, stamp: &RomStamp) {
    push_u64(out, stamp.fingerprint);
    push_u32(out, stamp.states);
    push_u32(out, stamp.full_dim);
    push_u32(out, stamp.num_params);
    push_u32(out, stamp.num_inputs);
    push_u32(out, stamp.num_outputs);
}

fn take_stamp(r: &mut ByteReader<'_>) -> Result<RomStamp, ServeError> {
    Ok(RomStamp {
        fingerprint: r.take_u64()?,
        states: r.take_u32()?,
        full_dim: r.take_u32()?,
        num_params: r.take_u32()?,
        num_inputs: r.take_u32()?,
        num_outputs: r.take_u32()?,
    })
}

/// Bounds-checked little-endian cursor: the reason the decoder cannot
/// panic on byte soup.
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ServeError::Protocol("truncated frame body".into()))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn take_u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    fn take_u16(&mut self) -> Result<u16, ServeError> {
        let b = self.take(2)?;
        let mut a = [0u8; 2];
        a.copy_from_slice(b);
        Ok(u16::from_le_bytes(a))
    }

    fn take_u32(&mut self) -> Result<u32, ServeError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    fn take_u64(&mut self) -> Result<u64, ServeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn finish(&self) -> Result<(), ServeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ServeError::Protocol(format!(
                "{} trailing bytes after frame body",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<EvalPoint> {
        vec![
            EvalPoint::new(vec![0.1, -0.2], Complex64::jw(1e9)),
            EvalPoint::new(vec![0.0, 0.3], Complex64::new(-1.0, 2.0)),
        ]
    }

    #[test]
    fn request_frames_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Info,
            Request::LoadRom {
                rom_bytes: vec![1, 2, 3, 4, 5],
            },
            Request::Eval {
                rom_fingerprint: 0xDEAD_BEEF_1234_5678,
                points: sample_points(),
            },
            Request::Shutdown,
        ];
        for (i, req) in reqs.iter().enumerate() {
            let frame = encode_request(i as u32 + 7, req).unwrap();
            let (id, back) = decode_request(&frame).unwrap();
            assert_eq!(id, i as u32 + 7);
            assert_eq!(&back, req);
        }
    }

    #[test]
    fn response_frames_round_trip() {
        let stamp = RomStamp {
            fingerprint: 42,
            states: 8,
            full_dim: 1024,
            num_params: 4,
            num_inputs: 1,
            num_outputs: 1,
        };
        let reply = EvalReply {
            rows: 1,
            cols: 2,
            provenance: Provenance {
                rom_fingerprint: 42,
                eval_points: 2,
                threads: 4,
                eval_seconds: 0.25,
                states: 8,
                full_dim: 1024,
            },
            values: vec![
                Complex64::new(1.0, -2.0),
                Complex64::new(0.5, 0.0),
                Complex64::new(-3.0, 4.0),
                Complex64::new(0.0, 0.0),
            ],
        };
        let resps = [
            Response::Pong,
            Response::Info(ServerInfo {
                protocol_version: PROTOCOL_VERSION,
                max_frame: DEFAULT_MAX_FRAME,
                max_batch: DEFAULT_MAX_BATCH,
                roms: vec![stamp, stamp],
            }),
            Response::RomLoaded(stamp),
            Response::Eval(reply),
            Response::ShutdownAck,
            Response::Error(ServeFault::new(FaultCode::UnknownRom, "no such model")),
        ];
        for (i, resp) in resps.iter().enumerate() {
            let frame = encode_response(i as u32, resp);
            let (id, back) = decode_response(&frame).unwrap();
            assert_eq!(id, i as u32);
            assert_eq!(&back, resp);
        }
    }

    #[test]
    fn nan_payloads_round_trip_bitwise() {
        // PartialEq can't see NaN equality, so compare re-encoded bytes:
        // the wire format carries exact bit patterns.
        let req = Request::Eval {
            rom_fingerprint: 1,
            points: vec![EvalPoint::new(
                vec![f64::NAN, f64::INFINITY],
                Complex64::new(f64::NEG_INFINITY, -0.0),
            )],
        };
        let frame = encode_request(3, &req).unwrap();
        let (_, back) = decode_request(&frame).unwrap();
        assert_eq!(frame, encode_request(3, &back).unwrap());
    }

    #[test]
    fn corruption_and_confusion_are_rejected() {
        let frame = encode_request(
            1,
            &Request::Eval {
                rom_fingerprint: 9,
                points: sample_points(),
            },
        )
        .unwrap();
        // Flip one body bit: checksum mismatch.
        let mut bad = frame.clone();
        bad[HEADER_LEN + 3] ^= 0x10;
        assert!(decode_request(&bad).is_err());
        // Truncation at every prefix length never panics.
        for cut in 0..frame.len() {
            assert!(decode_request(&frame[..cut]).is_err());
        }
        // Bad marker / version / reserved byte.
        for (at, val) in [(0usize, 0x00u8), (1, 9), (3, 1)] {
            let mut bad = frame.clone();
            bad[at] = val;
            assert!(decode_request(&bad).is_err());
        }
        // A response frame is not a request.
        let resp = encode_response(1, &Response::Pong);
        assert!(decode_request(&resp).is_err());
        assert!(decode_response(&frame).is_err());
        // Empty eval batches are refused at encode time.
        assert!(encode_request(
            1,
            &Request::Eval {
                rom_fingerprint: 0,
                points: vec![]
            }
        )
        .is_err());
    }

    #[test]
    fn eval_reply_matrix_round_trip() {
        let mats = vec![
            Matrix::from_fn(2, 3, |r, c| Complex64::new(r as f64, c as f64)),
            Matrix::from_fn(2, 3, |r, c| Complex64::new(-(r as f64), 2.0 * c as f64)),
        ];
        let prov = Provenance {
            rom_fingerprint: 5,
            eval_points: 2,
            threads: 1,
            eval_seconds: 0.0,
            states: 4,
            full_dim: 100,
        };
        let reply = EvalReply::from_matrices(prov, &mats).unwrap();
        let back = reply.matrices();
        assert_eq!(back.len(), 2);
        for (a, b) in mats.iter().zip(&back) {
            for r in 0..2 {
                for c in 0..3 {
                    assert_eq!(a[(r, c)].re.to_bits(), b[(r, c)].re.to_bits());
                    assert_eq!(a[(r, c)].im.to_bits(), b[(r, c)].im.to_bits());
                }
            }
        }
        // Count mismatch is refused.
        assert!(EvalReply::from_matrices(prov, &mats[..1]).is_err());
    }

    #[test]
    fn provenance_record_carries_required_metrics() {
        let rec = Provenance {
            rom_fingerprint: 7,
            eval_points: 128,
            threads: 4,
            eval_seconds: 0.01,
            states: 12,
            full_dim: 1024,
        }
        .to_record();
        assert_eq!(rec.method, "serve_eval");
        for required in pmor_bench::report::REQUIRED_METRICS {
            assert!(
                rec.metrics.iter().any(|(n, _)| n == required),
                "missing {required}"
            );
        }
    }

    #[test]
    fn fault_codes_round_trip() {
        for code in [
            FaultCode::Malformed,
            FaultCode::FrameTooLarge,
            FaultCode::BatchTooLarge,
            FaultCode::UnknownRom,
            FaultCode::EvalFailed,
            FaultCode::Unsupported,
        ] {
            assert_eq!(FaultCode::from_u16(code.as_u16()), Some(code));
        }
        assert_eq!(FaultCode::from_u16(0), None);
    }
}
