//! `reduce_mesh`: cold low-rank reductions of a 128×128 RC mesh (16,384
//! unknowns, four regional parameters, AMD ordering, one thread).
//!
//! Each timed unit is one reduction from a fresh context, so `reduce_s`
//! is the paper's cost claim: one `G0` factorization plus the projection
//! and the congruence. After each reduction the fresh ROM is swept over
//! `SWEEPS` frequency-sweep batches, timed apart from `reduce_s`; they give
//! this workload its batch metrics.

use crate::calib::Kernel;
use crate::common::*;
use crate::measure::{median, peak_rss_mb, Metrics, Timing};
use pmor::engine::EvalPoint;
use pmor::eval::FullModel;
use pmor::{EvalEngine, OrderingChoice, ParametricRom};
use std::time::Instant;

const SIDE: usize = 128;
const SWEEPS: usize = 40;
/// Enough reductions for a steady median, and enough sweeps behind them
/// for a p90 with ten samples beyond it.
const MIN_UNITS: u64 = 6;

pub fn run(run: &Run) -> Outcome {
    let tr = &run.tracer;
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    let mut setup = Timing::default();
    let mut sys = None;
    for i in 0..SETUPS as u64 {
        let req = SETUP_REQ + i;
        let (s, slowdown) = run.timed(Kernel::Sparse, &mut setup, || {
            let root = tr.open("setup", None, req);
            let s = build_system(run, SIDE, req, root);
            tr.close(root);
            s
        });
        tr.set_slowdown(req, slowdown);
        sys = Some(s);
    }
    let sys = sys.expect("at least one set-up");

    let engine = EvalEngine::new(1);
    let mut rng = SeedRng::new(run.seed);
    let mut counts = ReduceCounts::default();
    let mut reduce_t = Timing::default();
    let mut traced_t = Timing::default();
    let mut batch_t = Timing::default();
    let mut reference: Option<(Vec<u8>, ParametricRom)> = None;
    let mut hashes = Vec::new();
    let start = Instant::now();
    let mut unit = 0u64;
    while unit < MIN_UNITS || start.elapsed().as_secs_f64() < run.seconds {
        // The traced run alternates layered (traced) and registry
        // (untraced) units, so one run yields both and the bit-for-bit
        // comparison between them.
        let layered = run.traced() && unit % 2 == 1;
        let into = if layered {
            &mut traced_t
        } else {
            &mut reduce_t
        };
        let (res, slowdown) = run.timed(Kernel::Sparse, into, || {
            let root = if layered {
                tr.open("reduce", None, unit)
            } else {
                None
            };
            let out = reduce(
                run,
                &sys,
                OrderingChoice::Amd,
                layered,
                unit,
                root,
                &mut counts,
            );
            tr.close(root);
            out
        });
        tr.set_slowdown(unit, slowdown);
        unit += 1;
        let rom = match res {
            Ok((rom, real)) => {
                let bytes = pmor::rom::to_bytes(&rom);
                let same = reference.as_ref().is_none_or(|(b, _)| *b == bytes);
                if real != 1 || !same {
                    notes.push(format!(
                        "reduction {unit}: {real} real factorizations, bitwise equal to the first: {same}"
                    ));
                }
                tally.check(real == 1 && same);
                if reference.is_none() {
                    reference = Some((bytes, rom.clone()));
                }
                rom
            }
            Err(e) => {
                notes.push(format!("reduction {unit} failed: {e}"));
                tally.check(false);
                continue;
            }
        };
        for _ in 0..SWEEPS {
            let points = sweep_batch(&mut rng, sys.num_params());
            let (res, _) = run.timed(Kernel::Dense, &mut batch_t, || {
                engine.transfer_batch(&rom, &points)
            });
            match res {
                Ok(h) => hashes.push(Some(batch_hash(&h))),
                Err(e) => {
                    notes.push(format!("sweep batch failed: {e}"));
                    tally.check(false);
                    hashes.push(None);
                }
            }
        }
    }

    let Some((_, rom)) = reference else {
        return Outcome {
            metrics: m,
            tally,
            notes,
        };
    };
    let mut rng = SeedRng::new(run.seed);
    let np = sys.num_params();
    let reference = |pts: &[EvalPoint]| pointwise_hash(&rom, pts);
    for ok in verify_hashes(&hashes, move || sweep_batch(&mut rng, np), &reference, 2) {
        tally.check(ok);
    }
    let full = FullModel::with_ordering(&sys, OrderingChoice::Amd);
    verify_accuracy(&full, &rom, &mut m, &mut tally, &mut notes);

    m.timing("setup_s", &setup, "s");
    m.timing("reduce_s", &reduce_t, "s");
    batch_metrics(&mut m, &batch_t, 1);
    m.set("ok_frac", tally.ok_frac());
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("samples.setups", setup.len() as f64);
    m.set("samples.units", reduce_t.len() as f64);
    m.set("samples.batches", batch_t.len() as f64);
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
            ],
        );
        let path = [
            "reduce",
            "sparse.factor_g0",
            "lowrank.projection",
            "rom.congruence",
        ]
        .map(|name| median(&tr.timing(name, true).norm));
        trace_metrics(&mut m, &traced_t, &reduce_t, &path);
    }
    Outcome {
        metrics: m,
        tally,
        notes,
    }
}
