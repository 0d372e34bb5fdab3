//! The repository benchmark: three workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a traced run. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <reduce_mesh|rom_sweep|serve_scatter> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are `#`
//! comments (seed, host calibration, sample counts, notes).

mod calib;
mod common;
mod measure;
mod reduce_mesh;
mod rom_sweep;
mod serve_scatter;
mod trace;

use calib::Kernel;
use common::Run;
use measure::{quantile, result_line};
use std::process::ExitCode;

/// End-to-end metrics (reported with `--trace 0`), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("reduce_s", "s"),
    ("evals_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("rom_err_digits", "digits"),
    ("rom_states", "count"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (reported with `--trace 1`), with units. A layer a
/// workload does not run reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("host.calib_ms", "ms"),
    ("host.calib_q1_ms", "ms"),
    ("host.calib_q3_ms", "ms"),
    ("host.calib_sparse_ms", "ms"),
    ("host.calib_sparse_q1_ms", "ms"),
    ("host.calib_sparse_q3_ms", "ms"),
    ("host.calib_blend_ms", "ms"),
    ("host.calib_blend_q1_ms", "ms"),
    ("host.calib_blend_q3_ms", "ms"),
    ("circuits.assemble_s", "s"),
    ("sparse.factor_g0_s", "s"),
    ("sparse.factor_nnz", "count"),
    ("sparse.fill_ratio", "ratio"),
    ("sparse.real_factorizations", "count"),
    ("lowrank.projection_s", "s"),
    ("lowrank.v0_size", "count"),
    ("lowrank.param_size", "count"),
    ("rom.congruence_s", "s"),
    ("engine.batch_ms", "ms"),
    ("engine.overhead_us", "us"),
    ("rom.transfer_us", "us"),
    ("rom.assemble_us", "us"),
    ("num.lu_factor_us", "us"),
    ("num.lu_share", "ratio"),
    ("num.lu_flops", "flop"),
    ("num.lu_bytes", "B"),
    ("serve.roundtrip_ms", "ms"),
    ("serve.server_eval_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.encode_request_us", "us"),
    ("serve.decode_response_us", "us"),
    ("serve.request_bytes", "B"),
    ("serve.response_bytes", "B"),
    ("serve.engine_workers", "count"),
    ("trace.unit_traced_s", "s"),
    ("trace.unit_untraced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.path_sum_s", "s"),
    ("trace.path_residual_s", "s"),
    ("samples.setups", "count"),
    ("samples.units", "count"),
    ("samples.traced_units", "count"),
    ("samples.batches", "count"),
    ("raw.setup_s", "s"),
    ("raw.reduce_s", "s"),
    ("raw.evals_per_s", "1/s"),
    ("raw.batch_p50_ms", "ms"),
    ("raw.batch_p90_ms", "ms"),
    ("raw.circuits.assemble_s", "s"),
    ("raw.sparse.factor_g0_s", "s"),
    ("raw.lowrank.projection_s", "s"),
    ("raw.rom.congruence_s", "s"),
    ("raw.engine.batch_ms", "ms"),
    ("raw.engine.overhead_us", "us"),
    ("raw.rom.transfer_us", "us"),
    ("raw.rom.assemble_us", "us"),
    ("raw.num.lu_factor_us", "us"),
    ("raw.serve.roundtrip_ms", "ms"),
    ("raw.serve.server_eval_ms", "ms"),
    ("raw.serve.overhead_ms", "ms"),
    ("raw.serve.encode_request_us", "us"),
    ("raw.serve.decode_response_us", "us"),
];

/// Names that must not appear in the calibration kernel's source: the
/// workspace's crates and any path back into this benchmark.
const FORBIDDEN_IN_KERNEL: &[&str] = &["pmor", "rand::", "proptest", "crate::", "super::"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let kernel_src = include_str!("calib.rs");
    if let Some(name) = FORBIDDEN_IN_KERNEL.iter().find(|n| kernel_src.contains(*n)) {
        eprintln!("perfbench: the calibration kernel must be self-contained, but names {name}");
        return ExitCode::from(3);
    }
    calib::warm();
    let run = Run::new(args.seed, args.seconds, args.trace);
    let workload: fn(&Run) -> common::Outcome = match args.workload.as_str() {
        "reduce_mesh" => reduce_mesh::run,
        "rom_sweep" => rom_sweep::run,
        "serve_scatter" => serve_scatter::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = workload(&run);

    let m = &mut out.metrics;
    for (kernel, name) in [
        (Kernel::Dense, "host.calib"),
        (Kernel::Sparse, "host.calib_sparse"),
    ] {
        let samples = run.calib_samples(kernel);
        let q = |p| quantile(&samples, p) * 1e3;
        println!(
            "# {name}_ms median {:.4} q1 {:.4} q3 {:.4} over {} runs (reference {:.4})",
            q(0.5),
            q(0.25),
            q(0.75),
            samples.len(),
            kernel.reference_s() * 1e3
        );
        if !samples.is_empty() {
            m.set(&format!("{name}_ms"), q(0.5));
            m.set(&format!("{name}_q1_ms"), q(0.25));
            m.set(&format!("{name}_q3_ms"), q(0.75));
        }
    }
    for (name, value) in &m.0 {
        println!("# {name} = {value}");
    }
    for note in &out.notes {
        println!("# note: {note}");
    }

    let names = if args.trace {
        let missing: Vec<&str> = PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| m.get(n).is_none())
            .collect();
        if !missing.is_empty() {
            println!(
                "# not measured on this workload (reported as 0): {}",
                missing.join(", ")
            );
        }
        for n in missing {
            m.set(n, 0.0);
        }
        let path = std::path::PathBuf::from(format!(
            ".bench_trace/{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = run.tracer.write(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("# spans written to {}", path.display());
        PER_LAYER
    } else {
        END_TO_END
    };
    let correct = out.tally.failed == 0 && out.notes.is_empty();
    match result_line(correct, out.tally.attempted, out.tally.failed, m, names) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
