//! `rom_sweep`: in-process frequency sweeps of the `rc_mesh_stress` ROM
//! (32×32 mesh, lowrank, q = 76) through `EvalEngine::new(1)`.
//!
//! Each timed unit is one batch: one seeded parameter point × 64
//! log-spaced frequencies. Every point of a batch shares `p`, so this is
//! the workload on which per-parameter-point caching has work to reuse.
//! The reduction runs in set-up only.

use crate::calib::Kernel;
use crate::common::*;
use crate::measure::{median, peak_rss_mb, Metrics, Timing};
use pmor::engine::EvalPoint;
use pmor::eval::FullModel;
use pmor::{EvalEngine, EvalWorkspace, ParametricRom};
use pmor_num::lu::LuFactors;
use pmor_num::{Complex64, Matrix};
use std::time::Instant;

const SIDE: usize = 32;
const MIN_BATCHES: u64 = 100;

/// Set-ups shared with `serve_scatter`: `SETUPS` times, generate, assemble
/// and reduce the mesh, then run `extra` (which returns the state the
/// timed phase needs). Each state but the last goes to `retire` outside
/// the timing. Returns the system, the ROM and the last state; records
/// `setup_s`, `reduce_s` and the reduction checks. In the traced run every
/// set-up reduces layer by layer and is checked bit for bit against the
/// registry's `Reducer::reduce`.
///
/// The set-ups are bracketed by the blended kernel: the 32×32 reduction
/// mixes small sparse solves with dense work on a 1024×76 basis, and
/// tracks neither kernel alone as well.
pub fn setups<S>(
    run: &Run,
    m: &mut Metrics,
    tally: &mut Tally,
    counts: &mut ReduceCounts,
    mut extra: impl FnMut(&ParametricRom) -> S,
    mut retire: impl FnMut(S),
) -> pmor::Result<(pmor_circuits::ParametricSystem, ParametricRom, S)> {
    let tr = &run.tracer;
    let mut setup = Timing::default();
    let mut reduce_t = Timing::default();
    let mut last = None;
    let mut reference: Option<Vec<u8>> = None;
    if run.traced() {
        let req = SETUP_REQ + SETUPS as u64;
        let (res, slowdown) = run.timed(Kernel::Blend, &mut Timing::default(), || {
            build_rom(run, SIDE, false, req, None, counts)
        });
        tr.set_slowdown(req, slowdown);
        reference = Some(pmor::rom::to_bytes(&res?.1));
    }
    for i in 0..SETUPS as u64 {
        let req = SETUP_REQ + i;
        let (res, slowdown) = run.timed(Kernel::Blend, &mut setup, || {
            let root = tr.open("setup", None, req);
            let out =
                build_rom(run, SIDE, run.traced(), req, root, counts).map(|(sys, rom, real, t)| {
                    let state = extra(&rom);
                    (sys, rom, real, t, state)
                });
            tr.close(root);
            out
        });
        tr.set_slowdown(req, slowdown);
        let (sys, rom, real, t_reduce, state) = res?;
        reduce_t.push(t_reduce, slowdown);
        let bytes = pmor::rom::to_bytes(&rom);
        let same = reference.get_or_insert_with(|| bytes.clone()) == &bytes;
        tally.check(real == 1 && same);
        if let Some((_, _, prev)) = last.replace((sys, rom, state)) {
            retire(prev);
        }
    }
    m.timing("setup_s", &setup, "s");
    m.timing("reduce_s", &reduce_t, "s");
    m.set("samples.setups", setup.len() as f64);
    Ok(last.expect("at least one set-up"))
}

/// Replays a traced batch point by point, outside the timed unit, with
/// spans around `ParametricRom::transfer_with`, `g_at_into` + `c_at_into`
/// and `LuFactors::factor` on the same pencil; checks each replayed value
/// against the batch's bit for bit.
fn replay(
    run: &Run,
    rom: &ParametricRom,
    req: u64,
    points: &[EvalPoint],
    got: &[Matrix<Complex64>],
    ws: &mut EvalWorkspace,
) -> bool {
    let tr = &run.tracer;
    // The points first, back to back as the engine runs them, so their
    // sum is comparable with the batch; then the layers under them.
    let mut ok = points.len() == got.len();
    for (pt, want) in points.iter().zip(got) {
        let h = tr.span("rom.transfer_with", None, req, || {
            rom.transfer_with(&pt.params, pt.s, ws)
        });
        ok &= h.is_ok_and(|h| same_bits(&h, want));
    }
    let mut g = Matrix::zeros(0, 0);
    let mut c = Matrix::zeros(0, 0);
    for pt in points {
        tr.span("rom.assemble", None, req, || {
            rom.g_at_into(&pt.params, &mut g);
            rom.c_at_into(&pt.params, &mut c);
        });
        let n = rom.size();
        let pencil = Matrix::from_fn(n, n, |r, col| {
            Complex64::new(g[(r, col)], 0.0) + pt.s * Complex64::new(c[(r, col)], 0.0)
        });
        ok &= tr
            .span("num.lu_factor", None, req, || LuFactors::factor(&pencil))
            .is_ok();
    }
    ok
}

/// Bitwise equality of two transfer matrices.
fn same_bits(a: &Matrix<Complex64>, b: &Matrix<Complex64>) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Computed work of one dense complex LU of order `n` (the elimination
/// loop of `LuFactors::factor`: a 6-flop scaling per sub-diagonal entry
/// and an 8-flop multiply-subtract per trailing entry; the trailing
/// update reads and writes 16-byte entries). Returns `(flops, bytes)`.
pub fn lu_work(n: usize) -> (f64, f64) {
    let (mut flops, mut bytes) = (0.0, 0.0);
    for m in 0..n {
        let m = m as f64;
        flops += 6.0 * m + 8.0 * m * m;
        bytes += 32.0 * m * m;
    }
    (flops, bytes)
}

pub fn run(run: &Run) -> Outcome {
    let tr = &run.tracer;
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let mut counts = ReduceCounts::default();
    let (sys, rom) = match setups(run, &mut m, &mut tally, &mut counts, |_| (), |()| ()) {
        Ok((sys, rom, ())) => (sys, rom),
        Err(e) => {
            notes.push(format!("set-up failed: {e}"));
            tally.check(false);
            return Outcome {
                metrics: m,
                tally,
                notes,
            };
        }
    };

    let engine = EvalEngine::new(1);
    let mut ws = EvalWorkspace::new();
    let mut rng = SeedRng::new(run.seed);
    let mut batch_t = Timing::default();
    let mut traced_t = Timing::default();
    let mut overhead = Timing::default();
    let mut hashes = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while i < MIN_BATCHES || start.elapsed().as_secs_f64() < run.seconds {
        let points = sweep_batch(&mut rng, sys.num_params());
        let traced = run.traced() && i % 2 == 1;
        let into = if traced { &mut traced_t } else { &mut batch_t };
        let (res, slowdown) = run.timed(Kernel::Dense, into, || {
            if traced {
                tr.span("engine.transfer_batch", None, i, || {
                    engine.transfer_batch(&rom, &points)
                })
            } else {
                engine.transfer_batch(&rom, &points)
            }
        });
        tr.set_slowdown(i, slowdown);
        match res {
            Ok(h) => {
                if traced {
                    tally.check(replay(run, &rom, i, &points, &h, &mut ws));
                }
                hashes.push(Some(batch_hash(&h)));
            }
            Err(e) => {
                notes.push(format!("batch {i} failed: {e}"));
                tally.check(false);
                hashes.push(None);
            }
        }
        i += 1;
    }

    let mut rng = SeedRng::new(run.seed);
    let np = sys.num_params();
    let reference = |pts: &[EvalPoint]| pointwise_hash(&rom, pts);
    for ok in verify_hashes(&hashes, move || sweep_batch(&mut rng, np), &reference, 2) {
        tally.check(ok);
    }
    verify_accuracy(&FullModel::new(&sys), &rom, &mut m, &mut tally, &mut notes);
    batch_metrics(&mut m, &batch_t, 1);
    m.set("ok_frac", tally.ok_frac());
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("samples.units", batch_t.len() as f64);
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
                ("engine.batch_ms", "engine.transfer_batch", "ms", false),
                ("rom.transfer_us", "rom.transfer_with", "us", false),
                ("rom.assemble_us", "rom.assemble", "us", false),
                ("num.lu_factor_us", "num.lu_factor", "us", false),
            ],
        );
        // Engine overhead of a batch: its time minus the time its points
        // take through `transfer_with` alone.
        let batch = tr.timing_per_req("engine.transfer_batch");
        let points = tr.timing_per_req("rom.transfer_with");
        let mut point_sums = Timing::default();
        for (req, b) in &batch {
            let slowdown = tr.slowdown_of(*req);
            let p = points.get(req).copied().unwrap_or(0.0);
            overhead.push(b - p, slowdown);
            point_sums.push(p, slowdown);
        }
        m.timing("engine.overhead_us", &overhead, "us");
        let lu = m.get("num.lu_factor_us").unwrap_or(f64::NAN);
        let transfer = m.get("rom.transfer_us").unwrap_or(f64::NAN);
        m.set("num.lu_share", lu / transfer);
        let (flops, bytes) = lu_work(rom.size());
        m.set("num.lu_flops", flops);
        m.set("num.lu_bytes", bytes);
        let path = [median(&overhead.norm), median(&point_sums.norm)];
        trace_metrics(&mut m, &traced_t, &batch_t, &path);
    }
    Outcome {
        metrics: m,
        tally,
        notes,
    }
}
