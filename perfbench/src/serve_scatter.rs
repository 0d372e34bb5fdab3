//! `serve_scatter`: the `rom_sweep` ROM hosted by `pmor serve` on loopback
//! TCP, driven by two closed-loop clients from this process.
//!
//! Each timed unit is one `Client::request_eval` of 64 points, every point
//! with its own seeded parameter point and frequency (the Monte-Carlo
//! shape), so per-parameter-point caching finds nothing to reuse. Protocol
//! encode/decode, the per-connection threads and the engine's worker
//! dispatch all do work; two clients on a two-worker engine oversubscribe a
//! two-core host.

use crate::calib::{self, Kernel};
use crate::common::*;
use crate::measure::{median, peak_rss_mb, Metrics, Timing};
use crate::rom_sweep::setups;
use pmor::engine::EvalPoint;
use pmor::eval::FullModel;
use pmor::EvalEngine;
use pmor_serve::protocol::{self, EvalReply, Request, Response};
use pmor_serve::{Client, ServeConfig, ServeError, Server, ServerHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Length of a calibration epoch.
const EPOCH: Duration = Duration::from_millis(250);
/// Kernel runs per quiet calibration (their median is used).
const QUIET_RUNS: usize = 5;

struct Daemon {
    handle: ServerHandle,
    clients: Vec<Client>,
    fingerprint: u64,
}

fn start_daemon(rom: &pmor::ParametricRom) -> Result<Daemon, ServeError> {
    let handle = Server::start(ServeConfig::default())?;
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(handle.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let fingerprint = clients[0].load_rom(rom)?.fingerprint;
    Ok(Daemon {
        handle,
        clients,
        fingerprint,
    })
}

fn stop_daemon(d: Daemon) -> Result<(), ServeError> {
    // Dropping the clients closes their connections, so the drain ends.
    drop(d.clients);
    d.handle.shutdown_and_join()
}

/// What one client thread measured. Latencies are raw until the run's
/// quiet calibrations are known.
#[derive(Default)]
struct ClientLog {
    /// `(request id, raw seconds, epoch, traced)` per completed request.
    latency: Vec<(u64, f64, usize, bool)>,
    /// Hash of each reply's values (`None` when the request failed).
    hashes: Vec<Option<u64>>,
    /// Engine workers the server reported.
    workers: u32,
    errors: Vec<String>,
    request_bytes: usize,
    response_bytes: usize,
    replays_ok: bool,
}

/// Epoch bookkeeping shared by the client threads. At each epoch boundary
/// both clients stop; with no request in flight, each runs the dense
/// kernel on its own core, and the epoch's calibration is the mean of the
/// two, since the server's work runs on both cores, whose speeds can
/// differ.
struct Epochs {
    barrier: Barrier,
    stop: AtomicBool,
    /// Kernel times of the boundary in progress.
    pending: Mutex<Vec<f64>>,
    /// Host slowdown at each boundary.
    slowdown: Mutex<Vec<f64>>,
    deadline: Instant,
}

impl Epochs {
    /// Joins an epoch boundary; returns `false` once the timed phase is
    /// over.
    fn boundary(&self, run: &Run) -> bool {
        self.barrier.wait();
        let c = calib::quiet(Kernel::Dense, QUIET_RUNS);
        self.pending.lock().expect("epoch list poisoned").push(c);
        if self.barrier.wait().is_leader() {
            let mut pending = self.pending.lock().expect("epoch list poisoned");
            let mean = pending.iter().sum::<f64>() / pending.len() as f64;
            pending.clear();
            let slowdown = run.note_calib(Kernel::Dense, mean);
            self.slowdown
                .lock()
                .expect("epoch list poisoned")
                .push(slowdown);
            self.stop
                .store(Instant::now() >= self.deadline, Ordering::SeqCst);
        }
        self.barrier.wait();
        !self.stop.load(Ordering::SeqCst)
    }
}

/// Replays a traced request's encode and its reply's decode, outside the
/// timed unit, and checks the decode returns the reply unchanged.
fn replay(
    run: &Run,
    req: u64,
    fingerprint: u64,
    points: &[EvalPoint],
    reply: &EvalReply,
    log: &mut ClientLog,
) {
    let tr = &run.tracer;
    let id = req as u32;
    let request = Request::Eval {
        rom_fingerprint: fingerprint,
        points: points.to_vec(),
    };
    let frame = tr.span("serve.encode_request", None, req, || {
        protocol::encode_request(id, &request)
    });
    log.request_bytes = frame.map_or(0, |f| f.len());
    let response = Response::Eval(reply.clone());
    let frame = protocol::encode_response(id, &response);
    log.response_bytes = frame.len();
    let decoded = tr.span("serve.decode_response", None, req, || {
        protocol::decode_response(&frame)
    });
    log.replays_ok &= log.request_bytes > 0 && decoded == Ok((id, response));
}

/// The input stream of client `c`.
fn client_rng(seed: u64, c: usize) -> SeedRng {
    SeedRng::new(seed ^ (c as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407))
}

fn client_loop(
    run: &Run,
    c: usize,
    client: &mut Client,
    fingerprint: u64,
    num_params: usize,
    epochs: &Epochs,
) -> ClientLog {
    let tr = &run.tracer;
    let mut log = ClientLog {
        replays_ok: true,
        ..Default::default()
    };
    let mut rng = client_rng(run.seed, c);
    let mut i = 0u64;
    let mut epoch = 0;
    while epochs.boundary(run) {
        let end = (Instant::now() + EPOCH).min(epochs.deadline);
        loop {
            let points = scatter_batch(&mut rng, num_params);
            let req = ((c as u64 + 1) << 32) | i;
            let traced = run.traced() && i % 2 == 1;
            let root = if traced {
                tr.open("serve.roundtrip", None, req)
            } else {
                None
            };
            let t = Instant::now();
            let res = client.request_eval(fingerprint, &points);
            let raw = t.elapsed().as_secs_f64();
            tr.close(root);
            match res {
                Ok(reply) => {
                    log.latency.push((req, raw, epoch, traced));
                    if let Some(root) = root {
                        // The server measures its evaluation; the span
                        // takes that duration, centred in the round trip.
                        let (start, end) = tr.bounds(root);
                        let mid = 0.5 * (start + end);
                        let half = 0.5 * reply.provenance.eval_seconds;
                        tr.record("serve.server_eval", mid - half, mid + half, Some(root), req);
                        replay(run, req, fingerprint, &points, &reply, &mut log);
                    }
                    log.workers = reply.provenance.threads;
                    log.hashes.push(Some(batch_hash(&reply.matrices())));
                }
                Err(e) => {
                    log.errors.push(format!("client {c} request {i}: {e}"));
                    log.hashes.push(None);
                }
            }
            i += 1;
            if Instant::now() >= end {
                break;
            }
        }
        epoch += 1;
    }
    log
}

pub fn run(run: &Run) -> Outcome {
    let tr = &run.tracer;
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let mut counts = ReduceCounts::default();
    let mut retire_notes = Vec::new();
    let set_up = setups(
        run,
        &mut m,
        &mut tally,
        &mut counts,
        start_daemon,
        |d: Result<Daemon, ServeError>| match d.and_then(stop_daemon) {
            Ok(()) => {}
            Err(e) => retire_notes.push(format!("daemon start or shutdown failed: {e}")),
        },
    );
    notes.append(&mut retire_notes);
    let set_up = match set_up {
        Ok((sys, rom, Ok(d))) => Ok((sys, rom, d)),
        Ok((_, _, Err(e))) => Err(format!("daemon start failed: {e}")),
        Err(e) => Err(format!("set-up failed: {e}")),
    };
    let (sys, rom, mut daemon) = match set_up {
        Ok(ready) => ready,
        Err(e) => {
            notes.push(e);
            tally.check(false);
            return Outcome {
                metrics: m,
                tally,
                notes,
            };
        }
    };

    let epochs = Epochs {
        barrier: Barrier::new(CLIENTS),
        stop: AtomicBool::new(false),
        pending: Mutex::new(Vec::new()),
        slowdown: Mutex::new(Vec::new()),
        deadline: Instant::now() + Duration::from_secs_f64(run.seconds),
    };
    let fingerprint = daemon.fingerprint;
    let np = sys.num_params();
    let epochs = &epochs;
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let threads: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || client_loop(run, c, client, fingerprint, np, epochs))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    if let Err(e) = stop_daemon(daemon) {
        notes.push(format!("daemon shutdown failed: {e}"));
    }

    // Every reply must equal an in-process batch on the same points, bit
    // for bit.
    let engine = EvalEngine::new(2);
    let reference = |pts: &[EvalPoint]| {
        engine
            .transfer_batch(&rom, pts)
            .ok()
            .map(|h| batch_hash(&h))
    };
    let mut latency = Timing::default();
    let mut traced_t = Timing::default();
    let mut workers = 0.0;
    let (mut request_bytes, mut response_bytes) = (0, 0);
    // A request in epoch `e` is normalised by the mean of the quiet
    // calibrations that open and close that epoch.
    let quiet = epochs.slowdown.lock().expect("epoch list poisoned").clone();
    for (c, log) in logs.iter().enumerate() {
        for &(req, raw, e, traced) in &log.latency {
            let slowdown = 0.5 * (quiet[e] + quiet[e + 1]);
            tr.set_slowdown(req, slowdown);
            if traced { &mut traced_t } else { &mut latency }.push(raw, slowdown);
        }
        for e in &log.errors {
            notes.push(e.clone());
            tally.check(false);
        }
        let mut rng = client_rng(run.seed, c);
        for ok in verify_hashes(
            &log.hashes,
            move || scatter_batch(&mut rng, np),
            &reference,
            1,
        ) {
            tally.check(ok);
        }
        workers = f64::from(log.workers);
        if run.traced() {
            tally.check(log.replays_ok);
            request_bytes = log.request_bytes;
            response_bytes = log.response_bytes;
        }
    }
    verify_accuracy(&FullModel::new(&sys), &rom, &mut m, &mut tally, &mut notes);
    batch_metrics(&mut m, &latency, CLIENTS);
    m.set("ok_frac", tally.ok_frac());
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("samples.units", latency.len() as f64);
    m.set("samples.batches", latency.len() as f64);
    counts.report(&mut m);
    if run.traced() {
        span_metrics(
            run,
            &mut m,
            &[
                ("circuits.assemble_s", "circuits.assemble", "s", false),
                ("sparse.factor_g0_s", "sparse.factor_g0", "s", false),
                ("lowrank.projection_s", "lowrank.projection", "s", false),
                ("rom.congruence_s", "rom.congruence", "s", false),
                ("serve.roundtrip_ms", "serve.roundtrip", "ms", false),
                ("serve.server_eval_ms", "serve.server_eval", "ms", false),
                ("serve.overhead_ms", "serve.roundtrip", "ms", true),
                (
                    "serve.encode_request_us",
                    "serve.encode_request",
                    "us",
                    false,
                ),
                (
                    "serve.decode_response_us",
                    "serve.decode_response",
                    "us",
                    false,
                ),
            ],
        );
        m.set("serve.request_bytes", request_bytes as f64);
        m.set("serve.response_bytes", response_bytes as f64);
        m.set("serve.engine_workers", workers);
        let path = [
            median(&tr.timing("serve.roundtrip", true).norm),
            median(&tr.timing("serve.server_eval", false).norm),
        ];
        trace_metrics(&mut m, &traced_t, &latency, &path);
    }
    Outcome {
        metrics: m,
        tally,
        notes,
    }
}
