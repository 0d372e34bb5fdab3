//! Newline-delimited JSON fallback for `pmor serve`.
//!
//! A connection whose first byte is `{` speaks this instead of the
//! binary protocol: one JSON object per line in, one per line out.
//! Parsing and the string/number primitives come from the workspace's
//! one JSON crate, `pmor-json`; this module only maps requests and
//! responses onto them, in a compact one-line layout.
//!
//! The fallback exists for quick `nc`/script interop; numbers travel
//! as decimal text (shortest round-trip form, like `BENCH_*.json`),
//! so the **binary** protocol remains the bitwise-exact transport.
//! `load_rom` is binary-only and answered with an `unsupported` fault
//! here.
//!
//! Request lines:
//!
//! ```json
//! {"op":"ping","id":1}
//! {"op":"info"}
//! {"op":"eval","rom":"00a1b2c3d4e5f607","points":[{"params":[0.1,-0.2],"s":[0.0,6.28e9]}]}
//! {"op":"shutdown"}
//! ```

use crate::protocol::{FaultCode, Request, Response, ServeFault};
use pmor::engine::EvalPoint;
use pmor_json::{parse_json, push_number, push_string, Json, Kind};
use pmor_num::Complex64;

/// Parses one JSON request line into `(req_id, Request)`.
///
/// `id` defaults to 0 when absent; `rom` fingerprints are 16-digit hex
/// strings (the same rendering responses use).
///
/// # Errors
///
/// Returns a message suitable for a `malformed` fault on any schema
/// violation; `"op":"load_rom"` is reported as binary-only.
pub fn request_from_json(line: &str) -> Result<(u32, Request), String> {
    let doc = parse_json(line)?;
    let op = doc.field("op", Kind::Str)?.text();
    let id = match doc.get("id") {
        None => 0,
        Some(v) => v
            .as_count()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or("\"id\" must be a u32")?,
    };
    let req = match op {
        "ping" => Request::Ping,
        "info" => Request::Info,
        "shutdown" => Request::Shutdown,
        "load_rom" => {
            return Err("load_rom is binary-protocol-only (ROM bytes don't travel as JSON)".into())
        }
        "eval" => {
            let rom = doc.field("rom", Kind::Str)?.text();
            let rom = u64::from_str_radix(rom, 16)
                .map_err(|_| format!("\"rom\" is not a hex fingerprint: {rom:?}"))?;
            let raw_points = doc.field("points", Kind::Arr)?.items();
            if raw_points.is_empty() {
                return Err("\"points\" must be non-empty".into());
            }
            let mut points = Vec::with_capacity(raw_points.len());
            for (i, p) in raw_points.iter().enumerate() {
                let array = |key| p.field(key, Kind::Arr).map(Json::items);
                let params = array("params").map_err(|e| format!("point {i}: {e}"))?;
                let mut pv = Vec::with_capacity(params.len());
                for v in params {
                    match v {
                        Json::Num(n) => pv.push(*n),
                        _ => return Err(format!("point {i}: non-numeric parameter")),
                    }
                }
                let s = match array("s").map_err(|e| format!("point {i}: {e}"))? {
                    [Json::Num(re), Json::Num(im)] => Complex64::new(*re, *im),
                    _ => return Err(format!("point {i}: \"s\" must be [re, im]")),
                };
                points.push(EvalPoint::new(pv, s));
            }
            Request::Eval {
                rom_fingerprint: rom,
                points,
            }
        }
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok((id, req))
}

/// Renders one response as a single JSON line (no trailing newline).
///
/// Fingerprints render as 16-digit hex strings; floats use the same
/// shortest-round-trip decimal form as `BENCH_*.json` (non-finite →
/// `null`).
pub fn response_to_json(id: u32, resp: &Response) -> String {
    let mut out = format!("{{\"id\":{id}");
    match resp {
        Response::Pong => out.push_str(",\"ok\":\"pong\""),
        Response::ShutdownAck => out.push_str(",\"ok\":\"shutdown\""),
        Response::Info(info) => {
            out.push_str(&format!(
                ",\"ok\":\"info\",\"protocol_version\":{},\"max_frame\":{},\"max_batch\":{},\"roms\":[",
                info.protocol_version, info.max_frame, info.max_batch
            ));
            for (i, stamp) in info.roms.iter().enumerate() {
                out.push_str(if i == 0 { "" } else { "," });
                push_stamp_json(&mut out, stamp);
            }
            out.push(']');
        }
        Response::RomLoaded(stamp) => {
            out.push_str(",\"ok\":\"rom_loaded\",\"rom\":");
            push_stamp_json(&mut out, stamp);
        }
        Response::Eval(reply) => {
            let p = &reply.provenance;
            out.push_str(&format!(
                ",\"ok\":\"eval\",\"rom\":\"{:016x}\",\"eval_points\":{},\"threads\":{},\"eval_seconds\":",
                p.rom_fingerprint, p.eval_points, p.threads
            ));
            push_number(&mut out, p.eval_seconds);
            let (rows, cols) = (reply.rows, reply.cols);
            out.push_str(&format!(",\"rows\":{rows},\"cols\":{cols},\"values\":["));
            for (i, v) in reply.values.iter().enumerate() {
                out.push_str(if i == 0 { "[" } else { ",[" });
                push_number(&mut out, v.re);
                out.push(',');
                push_number(&mut out, v.im);
                out.push(']');
            }
            out.push(']');
        }
        Response::Error(fault) => {
            let code = fault.code.name();
            out.push_str(&format!(",\"error\":\"{code}\",\"message\":"));
            push_string(&mut out, &fault.message);
        }
    }
    out.push('}');
    out
}

fn push_stamp_json(out: &mut String, stamp: &crate::protocol::RomStamp) {
    out.push_str(&format!(
        "{{\"fingerprint\":\"{:016x}\",\"states\":{},\"full_dim\":{},\"num_params\":{},\
         \"num_inputs\":{},\"num_outputs\":{}}}",
        stamp.fingerprint,
        stamp.states,
        stamp.full_dim,
        stamp.num_params,
        stamp.num_inputs,
        stamp.num_outputs
    ));
}

/// The standard fault line for an unparsable JSON request.
pub fn malformed_line(detail: &str) -> String {
    response_to_json(
        0,
        &Response::Error(ServeFault::new(FaultCode::Malformed, detail)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{EvalReply, Provenance, RomStamp, ServerInfo};

    /// The one-value eval reply both rendering tests use.
    fn eval_reply(value: Complex64) -> Response {
        Response::Eval(EvalReply {
            rows: 1,
            cols: 1,
            provenance: Provenance {
                rom_fingerprint: 0xabc,
                eval_points: 1,
                threads: 1,
                eval_seconds: 0.5,
                states: 6,
                full_dim: 100,
            },
            values: vec![value],
        })
    }

    #[test]
    fn request_lines_parse() {
        let (id, req) = request_from_json(r#"{"op":"ping","id":7}"#).unwrap();
        assert_eq!((id, req), (7, Request::Ping));
        let (id, req) = request_from_json(
            r#"{"op":"eval","rom":"00000000000000ff","points":[{"params":[0.1],"s":[0.0,1.0]}]}"#,
        )
        .unwrap();
        assert_eq!(id, 0);
        match req {
            Request::Eval {
                rom_fingerprint,
                points,
            } => {
                assert_eq!(rom_fingerprint, 0xff);
                assert_eq!(points.len(), 1);
                assert_eq!(points[0].params, vec![0.1]);
            }
            other => panic!("unexpected request {other:?}"),
        }
        assert!(request_from_json(r#"{"op":"load_rom"}"#).is_err());
        assert!(request_from_json(r#"{"op":"eval","rom":"zz","points":[]}"#).is_err());
        assert!(request_from_json(r#"{"op":"nope"}"#).is_err());
        assert!(request_from_json(r#"{"id":-1,"op":"ping"}"#).is_err());
        // Wrong-typed fields are named in the malformed message.
        let err = request_from_json(r#"{"op":1}"#).unwrap_err();
        assert!(err.contains("\"op\""), "{err}");
        let err = request_from_json(r#"{"op":"eval","rom":"ff","points":[{"params":[],"s":{}}]}"#)
            .unwrap_err();
        assert!(err.contains("point 0") && err.contains("\"s\""), "{err}");
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let stamp = RomStamp {
            fingerprint: 0xabc,
            states: 6,
            full_dim: 100,
            num_params: 2,
            num_inputs: 1,
            num_outputs: 1,
        };
        let lines = [
            response_to_json(1, &Response::Pong),
            response_to_json(2, &Response::ShutdownAck),
            response_to_json(
                3,
                &Response::Info(ServerInfo {
                    protocol_version: 1,
                    max_frame: 16,
                    max_batch: 8,
                    roms: vec![stamp],
                }),
            ),
            response_to_json(4, &Response::RomLoaded(stamp)),
            response_to_json(5, &eval_reply(Complex64::new(1.0, f64::NAN))),
            response_to_json(
                6,
                &Response::Error(ServeFault::new(
                    crate::protocol::FaultCode::UnknownRom,
                    "tab\there \"quoted\"",
                )),
            ),
            malformed_line("bad { line"),
        ];
        for line in &lines {
            assert!(!line.contains('\n'), "multi-line: {line}");
            let doc = parse_json(line).unwrap_or_else(|e| panic!("unparsable {line}: {e}"));
            assert!(doc.get("id").is_some(), "no id in {line}");
        }
        // NaN rendered as null, exact hex fingerprint present.
        assert!(lines[4].contains("null"));
        assert!(lines[4].contains("0000000000000abc"));
        // The exact bytes are pinned: the wire form is part of the contract.
        let stamp_json = r#"{"fingerprint":"0000000000000abc","states":6,"full_dim":100,"num_params":2,"num_inputs":1,"num_outputs":1}"#;
        let expected = [
            r#"{"id":1,"ok":"pong"}"#.to_string(),
            r#"{"id":2,"ok":"shutdown"}"#.to_string(),
            format!(
                r#"{{"id":3,"ok":"info","protocol_version":1,"max_frame":16,"max_batch":8,"roms":[{stamp_json}]}}"#
            ),
            format!(r#"{{"id":4,"ok":"rom_loaded","rom":{stamp_json}}}"#),
            r#"{"id":5,"ok":"eval","rom":"0000000000000abc","eval_points":1,"threads":1,"eval_seconds":0.5,"rows":1,"cols":1,"values":[[1.0,null]]}"#.to_string(),
            r#"{"id":6,"error":"unknown_rom","message":"tab\there \"quoted\""}"#.to_string(),
            r#"{"id":0,"error":"malformed","message":"bad { line"}"#.to_string(),
        ];
        assert_eq!(lines, expected);
    }

    #[test]
    fn json_number_matches_report_style() {
        // Reply floats go through the shared writer primitive, so the
        // fallback renders numbers exactly like `BENCH_*.json`.
        for (v, text) in [(2.0, "2.0"), (0.1, "0.1"), (f64::INFINITY, "null")] {
            let line = response_to_json(0, &eval_reply(Complex64::new(v, v)));
            assert!(line.ends_with(&format!("[[{text},{text}]]}}")), "{line}");
        }
        let line = response_to_json(0, &eval_reply(Complex64::new(1e300, 0.0)));
        let values = parse_json(&line)
            .unwrap()
            .field("values", Kind::Arr)
            .unwrap()
            .clone();
        assert_eq!(values.items()[0].items()[0], Json::Num(1e300));
    }
}
