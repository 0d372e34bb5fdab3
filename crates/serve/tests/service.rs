//! End-to-end battery for the `pmor serve` daemon: protocol round
//! trips over real sockets, N-client concurrency determinism against
//! a serial in-process engine, fault injection that must not take the
//! daemon down, read-timeout enforcement, and graceful shutdown.

use pmor::engine::{EvalEngine, EvalPoint};
use pmor::lowrank::{LowRankOptions, LowRankPmor};
use pmor::{rom, ParametricRom, Reducer};
use pmor_circuits::generators::{rc_mesh, rc_random, RcMeshConfig, RcRandomConfig};
use pmor_num::Complex64;
use pmor_serve::{Client, FaultCode, ServeAddr, ServeConfig, ServeError, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use temp_dir::TempDir;

#[path = "../../../tests/support/temp_dir.rs"]
mod temp_dir;

/// A small but real ROM: RC mesh, 2 variational parameters.
fn test_rom() -> ParametricRom {
    let sys = rc_random(&RcRandomConfig {
        num_nodes: 60,
        ..Default::default()
    })
    .assemble();
    LowRankPmor::new(LowRankOptions {
        s_order: 6,
        param_order: 2,
        rank: 2,
        ..Default::default()
    })
    .reduce_once(&sys)
    .expect("reduction")
}

/// Deterministic point batches: varied params, log-spaced frequencies.
fn batches(num_params: usize, count: usize, points_each: usize) -> Vec<Vec<EvalPoint>> {
    (0..count)
        .map(|b| {
            (0..points_each)
                .map(|i| {
                    let params: Vec<f64> = (0..num_params)
                        .map(|k| 0.15 * ((((b * 7 + i * 13 + k * 31) % 11) as f64) / 5.0 - 1.0))
                        .collect();
                    let f = 1e8 * (10f64).powf((i % 16) as f64 / 5.0);
                    EvalPoint::new(params, Complex64::jw(f))
                })
                .collect()
        })
        .collect()
}

fn start_default() -> pmor_serve::ServerHandle {
    Server::start(ServeConfig::default()).expect("server start")
}

#[test]
fn ping_info_load_eval_round_trip() {
    let handle = start_default();
    let model = test_rom();
    let mut client = Client::connect(handle.addr()).expect("connect");

    client.ping().expect("ping");
    let info = client.server_info().expect("info");
    assert_eq!(info.protocol_version, 1);
    assert!(info.roms.is_empty());

    let stamp = client.load_rom(&model).expect("load");
    assert_eq!(stamp.fingerprint, rom::fingerprint(&model));
    assert_eq!(stamp.states as usize, model.size());
    assert_eq!(stamp.num_params as usize, model.num_params());
    let info = client.server_info().expect("info");
    assert_eq!(info.roms, vec![stamp]);

    // Served response is bitwise identical to the in-process engine.
    let points = batches(model.num_params(), 1, 24).remove(0);
    let reply = client
        .request_eval(stamp.fingerprint, &points)
        .expect("eval");
    assert_eq!(reply.provenance.eval_points as usize, points.len());
    assert_eq!(reply.provenance.rom_fingerprint, stamp.fingerprint);
    assert!(reply.provenance.threads >= 1);
    let expected = EvalEngine::serial()
        .transfer_batch(&model, &points)
        .expect("in-process eval");
    let served = reply.matrices();
    assert_eq!(served.len(), expected.len());
    for (a, b) in expected.iter().zip(&served) {
        for r in 0..a.nrows() {
            for c in 0..a.ncols() {
                assert_eq!(a[(r, c)].re.to_bits(), b[(r, c)].re.to_bits());
                assert_eq!(a[(r, c)].im.to_bits(), b[(r, c)].im.to_bits());
            }
        }
    }
    // Provenance converts to a validator-clean bench record.
    let dir = TempDir::new("serve_prov");
    let path =
        pmor_bench::write_bench_json_in(&dir, "serve_probe", &[reply.provenance.to_record()])
            .expect("write record");
    let text = std::fs::read_to_string(&path).expect("read record");
    pmor_bench::validate_bench_json(&text).expect("provenance record validates");

    handle.shutdown_and_join().expect("shutdown");
}

#[test]
fn n_clients_match_serial_in_process_bitwise() {
    let model = test_rom();
    let handle = start_default();
    let stamp = handle.preload(&model);
    let num_params = model.num_params();

    const CLIENTS: usize = 6;
    const BATCHES: usize = 3;
    const POINTS: usize = 16;

    // Expected results: the same batches through a *serial* in-process
    // engine — the engine's own 1-vs-N bitwise invariant plus the
    // protocol's bit-exact floats make this the ground truth.
    let serial = EvalEngine::serial();
    let all_batches: Vec<Vec<Vec<EvalPoint>>> = (0..CLIENTS)
        .map(|c| {
            (0..BATCHES)
                .map(|b| batches(num_params, 1, POINTS + c + b).remove(0))
                .collect()
        })
        .collect();
    let expected: Vec<Vec<Vec<_>>> = all_batches
        .iter()
        .map(|per_client| {
            per_client
                .iter()
                .map(|pts| serial.transfer_batch(&model, pts).expect("serial eval"))
                .collect()
        })
        .collect();

    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for (c, (my_batches, my_expected)) in all_batches.iter().zip(&expected).enumerate() {
            let addr = handle.addr();
            joins.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for (b, (pts, want)) in my_batches.iter().zip(my_expected).enumerate() {
                    let reply = client
                        .request_eval(stamp.fingerprint, pts)
                        .unwrap_or_else(|e| panic!("client {c} batch {b}: {e}"));
                    let got = reply.matrices();
                    assert_eq!(got.len(), want.len(), "client {c} batch {b}");
                    for (a, g) in want.iter().zip(&got) {
                        for r in 0..a.nrows() {
                            for col in 0..a.ncols() {
                                assert_eq!(
                                    a[(r, col)].re.to_bits(),
                                    g[(r, col)].re.to_bits(),
                                    "client {c} batch {b} mismatch"
                                );
                                assert_eq!(
                                    a[(r, col)].im.to_bits(),
                                    g[(r, col)].im.to_bits(),
                                    "client {c} batch {b} mismatch"
                                );
                            }
                        }
                    }
                }
            }));
        }
        for j in joins {
            j.join().expect("client thread");
        }
    });

    handle.shutdown_and_join().expect("shutdown");
}

#[test]
fn faults_are_structured_and_do_not_kill_other_connections() {
    let model = test_rom();
    let handle = start_default();
    let stamp = handle.preload(&model);
    let points = batches(model.num_params(), 1, 4).remove(0);

    let mut healthy = Client::connect(handle.addr()).expect("connect healthy");
    healthy.ping().expect("healthy ping");

    // 1. Unknown ROM fingerprint → unknown_rom fault, connection lives.
    let mut client = Client::connect(handle.addr()).expect("connect");
    match client.request_eval(stamp.fingerprint ^ 0xFFFF, &points) {
        Err(ServeError::Fault(fault)) => assert_eq!(fault.code, FaultCode::UnknownRom),
        other => panic!("expected unknown_rom fault, got {other:?}"),
    }
    client
        .request_eval(stamp.fingerprint, &points)
        .expect("same connection still serves");

    // 2. Wrong parameter count → eval_failed fault, connection lives.
    let bad_points = vec![EvalPoint::new(vec![0.1], Complex64::jw(1e9))];
    match client.request_eval(stamp.fingerprint, &bad_points) {
        Err(ServeError::Fault(fault)) => assert_eq!(fault.code, FaultCode::EvalFailed),
        other => panic!("expected eval_failed fault, got {other:?}"),
    }

    // 2b. Non-finite p or s → eval_failed fault, never a NaN "result".
    for bad in [
        EvalPoint::new(vec![f64::NAN; model.num_params()], Complex64::jw(1e9)),
        EvalPoint::new(vec![f64::INFINITY; model.num_params()], Complex64::jw(1e9)),
        EvalPoint::new(vec![0.0; model.num_params()], Complex64::new(f64::NAN, 1e9)),
    ] {
        match client.request_eval(stamp.fingerprint, &[points[0].clone(), bad]) {
            Err(ServeError::Fault(fault)) => {
                assert_eq!(fault.code, FaultCode::EvalFailed);
                assert!(fault.message.contains("non-finite"), "{}", fault.message);
            }
            other => panic!("expected eval_failed fault, got {other:?}"),
        }
    }
    client
        .request_eval(stamp.fingerprint, &points)
        .expect("same connection still serves after non-finite input");

    // 3. Garbage bytes → malformed fault; daemon keeps serving others.
    let ServeAddr::Tcp(hp) = handle.addr().clone() else {
        panic!("default config is TCP")
    };
    let mut raw = TcpStream::connect(&hp).expect("raw connect");
    raw.write_all(&[
        0xB1, 1, 0x42, 0, 1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ])
    .expect("write garbage");
    let mut buf = Vec::new();
    let _ = raw.read_to_end(&mut buf); // server replies with an error frame, then closes
    assert!(
        !buf.is_empty(),
        "malformed frame should get an error response"
    );

    // 4. Client disconnect mid-request: write half a frame, drop.
    {
        let mut raw = TcpStream::connect(&hp).expect("raw connect");
        raw.write_all(&[0xB1, 1, 0x04, 0, 9])
            .expect("partial frame");
        // dropped here, mid-header
    }

    // 5. Frame exceeding the server limit → frame_too_large.
    let tiny = Server::start(ServeConfig {
        max_frame: 64,
        ..ServeConfig::default()
    })
    .expect("tiny server");
    let tiny_stamp = tiny.preload(&model);
    let mut small = Client::connect(tiny.addr()).expect("connect tiny");
    let big = batches(model.num_params(), 1, 64).remove(0);
    match small.request_eval(tiny_stamp.fingerprint, &big) {
        Err(ServeError::Fault(fault)) => assert_eq!(fault.code, FaultCode::FrameTooLarge),
        other => panic!("expected frame_too_large fault, got {other:?}"),
    }
    tiny.shutdown_and_join().expect("tiny shutdown");

    // 6. Batch exceeding max_batch → batch_too_large.
    let strict = Server::start(ServeConfig {
        max_batch: 2,
        ..ServeConfig::default()
    })
    .expect("strict server");
    let strict_stamp = strict.preload(&model);
    let mut sc = Client::connect(strict.addr()).expect("connect strict");
    match sc.request_eval(strict_stamp.fingerprint, &points) {
        Err(ServeError::Fault(fault)) => assert_eq!(fault.code, FaultCode::BatchTooLarge),
        other => panic!("expected batch_too_large fault, got {other:?}"),
    }
    strict.shutdown_and_join().expect("strict shutdown");

    // After every fault above, the untouched connection still works.
    healthy
        .ping()
        .expect("healthy connection survived the chaos");
    healthy
        .request_eval(stamp.fingerprint, &points)
        .expect("healthy eval survived the chaos");

    handle.shutdown_and_join().expect("shutdown");
}

#[test]
fn idle_half_frame_connection_times_out_but_server_lives() {
    let handle = Server::start(ServeConfig {
        read_timeout_ms: 200,
        ..ServeConfig::default()
    })
    .expect("server");
    let ServeAddr::Tcp(hp) = handle.addr().clone() else {
        panic!("default config is TCP")
    };

    // Start a frame, then go silent: the server must close the
    // connection after ~read_timeout_ms of silence.
    let mut stalled = TcpStream::connect(&hp).expect("connect");
    stalled.write_all(&[0xB1, 1]).expect("half a header");
    let mut buf = [0u8; 16];
    let n = stalled.read(&mut buf).expect("server closes cleanly");
    assert_eq!(
        n, 0,
        "timed-out connection should be closed, not written to"
    );

    // The daemon itself is unaffected.
    let mut client = Client::connect(handle.addr()).expect("connect after timeout");
    client.ping().expect("ping after timeout");
    handle.shutdown_and_join().expect("shutdown");
}

#[test]
fn json_fallback_speaks_line_protocol() {
    let model = test_rom();
    let handle = start_default();
    let stamp = handle.preload(&model);
    let ServeAddr::Tcp(hp) = handle.addr().clone() else {
        panic!("default config is TCP")
    };

    let mut sock = TcpStream::connect(&hp).expect("connect");
    let eval = format!(
        "{{\"op\":\"eval\",\"id\":5,\"rom\":\"{:016x}\",\"points\":[{{\"params\":[0.0,0.0],\"s\":[0.0,6.28e9]}}]}}\n",
        stamp.fingerprint
    );
    // The trailing garbage is exactly HEADER_LEN bytes so the server
    // consumes it fully before rejecting (a clean close, no TCP reset).
    let script = format!("{{\"op\":\"ping\",\"id\":3}}\n{eval}{{\"op\":\"info\"}}\nnot-json-hdr");
    sock.write_all(script.as_bytes()).expect("write lines");

    let mut reader = std::io::BufReader::new(sock.try_clone().expect("clone"));
    let mut lines = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).expect("read line");
        lines.push(line);
    }
    assert!(
        lines[0].contains("\"id\":3") && lines[0].contains("pong"),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].contains("\"id\":5") && lines[1].contains("\"ok\":\"eval\""),
        "{}",
        lines[1]
    );
    assert!(
        lines[1].contains(&format!("{:016x}", stamp.fingerprint)),
        "{}",
        lines[1]
    );
    assert!(lines[2].contains("\"ok\":\"info\""), "{}", lines[2]);
    // The trailing "not-json-hdr" starts with a brace-less byte, so it
    // hits the *binary* dialect: marker mismatch → binary malformed
    // fault frame, then the server closes this connection.
    let mut rest = Vec::new();
    std::io::Read::read_to_end(&mut reader, &mut rest).expect("drain binary fault");
    assert!(
        !rest.is_empty(),
        "garbage line should get a binary fault frame"
    );

    // A line that *does* start with '{' but is unparsable gets a JSON
    // malformed answer on a fresh connection, which stays open.
    let mut sock2 = TcpStream::connect(&hp).expect("connect 2");
    sock2
        .write_all(b"{broken\n{\"op\":\"ping\",\"id\":8}\n")
        .expect("write");
    let mut reader2 = std::io::BufReader::new(sock2);
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader2, &mut line).expect("malformed reply");
    assert!(line.contains("\"error\":\"malformed\""), "{line}");
    line.clear();
    std::io::BufRead::read_line(&mut reader2, &mut line).expect("ping reply");
    assert!(line.contains("\"id\":8") && line.contains("pong"), "{line}");
    // Either way the daemon survives:
    let mut client = Client::connect(handle.addr()).expect("connect after garbage");
    client.ping().expect("ping after garbage");
    handle.shutdown_and_join().expect("shutdown");
}

#[test]
fn json_line_over_max_frame_gets_a_newline_terminated_fault() {
    let handle = Server::start(ServeConfig {
        max_frame: 64,
        ..ServeConfig::default()
    })
    .expect("server");
    let ServeAddr::Tcp(hp) = handle.addr().clone() else {
        panic!("default config is TCP")
    };
    // The server reads one byte past max-frame before it gives up, so
    // these 65 bytes are consumed whole (a clean close, no TCP reset).
    let line = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(43));
    assert_eq!(line.len(), 65);
    let mut sock = TcpStream::connect(&hp).expect("connect");
    sock.write_all(line.as_bytes()).expect("write long line");
    let mut reply = String::new();
    sock.read_to_string(&mut reply)
        .expect("fault line, then close");
    assert!(reply.contains("\"error\":\"malformed\""), "{reply:?}");
    assert!(reply.contains("max-frame"), "{reply:?}");
    assert!(reply.ends_with('\n'), "{reply:?}");
    // The daemon survives.
    let mut client = Client::connect(handle.addr()).expect("connect after fault");
    client.ping().expect("ping after fault");
    handle.shutdown_and_join().expect("shutdown");
}

#[test]
fn graceful_shutdown_drains_in_flight_batches() {
    let model = test_rom();
    let handle = start_default();
    let stamp = handle.preload(&model);
    let points = batches(model.num_params(), 1, 256).remove(0);
    let serial = EvalEngine::serial();
    let expected = serial.transfer_batch(&model, &points).expect("serial");

    std::thread::scope(|scope| {
        let addr = handle.addr();
        let worker = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut replies = Vec::new();
            for _ in 0..10 {
                replies.push(client.request_eval(stamp.fingerprint, &points));
            }
            replies
        });
        // Request shutdown while the client is mid-stream. Every reply
        // that *does* come back must still be complete and correct;
        // once the daemon stops, the client sees clean I/O errors —
        // never torn frames (which would surface as Protocol errors).
        std::thread::sleep(std::time::Duration::from_millis(30));
        handle.initiate_shutdown();
        let replies = worker.join().expect("client thread");
        let mut served = 0;
        for reply in replies {
            match reply {
                Ok(r) => {
                    served += 1;
                    let got = r.matrices();
                    for (a, g) in expected.iter().zip(&got) {
                        for row in 0..a.nrows() {
                            for col in 0..a.ncols() {
                                assert_eq!(a[(row, col)].re.to_bits(), g[(row, col)].re.to_bits());
                                assert_eq!(a[(row, col)].im.to_bits(), g[(row, col)].im.to_bits());
                            }
                        }
                    }
                }
                Err(ServeError::Io(_)) => {}
                Err(other) => panic!("drain must not tear frames: {other}"),
            }
        }
        assert!(served >= 1, "at least the in-flight batch should drain");
    });

    handle.join().expect("accept loop drained and exited");
}

#[test]
fn unix_socket_transport_works() {
    let dir = TempDir::new("serve_test");
    let sock = dir.join("daemon.sock");
    let handle = Server::start(ServeConfig {
        addr: ServeAddr::Unix(sock.clone()),
        ..ServeConfig::default()
    })
    .expect("unix server");
    let model = test_rom();
    let mut client = Client::connect(handle.addr()).expect("connect unix");
    let stamp = client.load_rom(&model).expect("load over unix");
    let points = batches(model.num_params(), 1, 8).remove(0);
    client
        .request_eval(stamp.fingerprint, &points)
        .expect("eval over unix");
    handle.shutdown_and_join().expect("shutdown");
    assert!(!sock.exists(), "socket file should be removed on shutdown");
}

#[test]
fn lru_evicts_and_reload_restores() {
    let handle = Server::start(ServeConfig {
        lru_capacity: 1,
        ..ServeConfig::default()
    })
    .expect("server");
    let model = test_rom();
    let mut other = model.clone();
    other.g0[(0, 0)] = f64::from_bits(other.g0[(0, 0)].to_bits() ^ 1);

    let mut client = Client::connect(handle.addr()).expect("connect");
    let first = client.load_rom(&model).expect("load first");
    let second = client.load_rom(&other).expect("load second");
    assert_ne!(first.fingerprint, second.fingerprint);

    // Capacity 1: loading `other` evicted `model`.
    let points = batches(model.num_params(), 1, 4).remove(0);
    match client.request_eval(first.fingerprint, &points) {
        Err(ServeError::Fault(fault)) => assert_eq!(fault.code, FaultCode::UnknownRom),
        other => panic!("expected eviction, got {other:?}"),
    }
    // Re-uploading restores service under the *same* fingerprint.
    let again = client.load_rom(&model).expect("reload");
    assert_eq!(again.fingerprint, first.fingerprint);
    client
        .request_eval(first.fingerprint, &points)
        .expect("eval after reload");
    handle.shutdown_and_join().expect("shutdown");
}

#[test]
fn rom_without_its_projection_fits_a_frame_its_projection_would_overflow() {
    // A 64×64 mesh (4096 unknowns) reduced by lowrank: the ROM on the
    // wire is the reduced matrices only. A frame limit between that size
    // and the size with the `n × q` projection appended (16 + 8·n·q more
    // bytes) admits it, and the stamp still reports the full dimension.
    let sys = rc_mesh(&RcMeshConfig {
        rows: 64,
        cols: 64,
        ..Default::default()
    })
    .assemble();
    let model = LowRankPmor::with_defaults()
        .reduce_once(&sys)
        .expect("reduction");
    let bytes = rom::to_bytes(&model).len();
    let with_projection = bytes + 16 + 8 * sys.dim() * model.size();
    let max_frame = (bytes + with_projection) / 2;
    let handle = Server::start(ServeConfig {
        max_frame: max_frame as u32,
        ..ServeConfig::default()
    })
    .expect("server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let stamp = client.load_rom(&model).expect("load under the frame limit");
    assert_eq!(stamp.full_dim, 4096);
    assert_eq!(stamp.states as usize, model.size());
    let points = batches(model.num_params(), 1, 4).remove(0);
    let reply = client
        .request_eval(stamp.fingerprint, &points)
        .expect("eval");
    assert_eq!(reply.provenance.full_dim, 4096);
    handle.shutdown_and_join().expect("shutdown");
}
