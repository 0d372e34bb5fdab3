//! Conformance suite for the unified [`TransferModel`] evaluation
//! interface: the full model and **every** registered reducer's ROM,
//! on **every** generator workload family, must agree through the trait
//! at DC and at an AC point — the contract the analysis layer
//! (`pmor_variation::analysis`) relies on when it accepts two arbitrary
//! `&dyn TransferModel`s. Also pins the [`EvalEngine`] determinism
//! guarantee: results are bitwise identical for any thread count.

#[path = "../crates/num/tests/support/ldl_reference.rs"]
mod ldl_reference;

use ldl_reference::ldl_reference;
use pmor::eval::FullModel;
use pmor::{EvalEngine, EvalPoint, ReducerKind, ReductionContext, TransferModel};
use pmor_circuits::generators::{
    clock_tree, rc_mesh, rc_random, rlc_bus, ClockTreeConfig, RcMeshConfig, RcRandomConfig,
    RlcBusConfig,
};
use pmor_circuits::ParametricSystem;
use pmor_num::lu::{LuFactors, PencilLu};
use pmor_num::{Complex64, Matrix};

/// Small instances of every generator family (kept small so the
/// methods × workloads product stays fast).
fn workloads() -> Vec<(&'static str, ParametricSystem)> {
    vec![
        (
            "clock_tree",
            clock_tree(&ClockTreeConfig {
                num_nodes: 40,
                ..Default::default()
            })
            .assemble(),
        ),
        (
            "rc_random",
            rc_random(&RcRandomConfig {
                num_nodes: 60,
                ..Default::default()
            })
            .assemble(),
        ),
        (
            "rlc_bus",
            rlc_bus(&RlcBusConfig {
                segments: 12,
                ..Default::default()
            })
            .assemble(),
        ),
        (
            "rc_mesh",
            rc_mesh(&RcMeshConfig {
                rows: 12,
                cols: 12,
                ..Default::default()
            })
            .assemble(),
        ),
    ]
}

#[test]
fn full_and_every_rom_agree_through_the_trait_at_dc_and_ac() {
    for (workload, sys) in workloads() {
        let mut ctx = ReductionContext::new();
        let full = FullModel::new(&sys);
        let full_dyn: &dyn TransferModel = &full;
        assert_eq!(full_dyn.kind(), "full");
        assert_eq!(full_dyn.dim(), sys.dim());
        assert_eq!(full_dyn.num_params(), sys.num_params());

        let p0 = vec![0.0; sys.num_params()];
        // DC plus one low-frequency AC point: every registered method is
        // accurate here, so disagreement means interface breakage, not a
        // method-level accuracy trade-off.
        let dc = Complex64::ZERO;
        let ac = Complex64::jw(2.0 * std::f64::consts::PI * 1e7);
        let h_dc_ref = full_dyn.transfer(&p0, dc).unwrap();
        let h_ac_ref = full_dyn.transfer(&p0, ac).unwrap();

        for kind in ReducerKind::ALL {
            let rom = kind.build(&sys).reduce(&sys, &mut ctx).unwrap();
            let rom_dyn: &dyn TransferModel = &rom;
            assert_eq!(rom_dyn.kind(), "rom");
            assert_eq!(rom_dyn.dim(), rom.size());
            assert_eq!(rom_dyn.num_params(), sys.num_params());

            for (what, s, h_ref) in [("DC", dc, &h_dc_ref), ("AC", ac, &h_ac_ref)] {
                let h = rom_dyn.transfer(&p0, s).unwrap();
                assert_eq!(
                    (h.nrows(), h.ncols()),
                    (h_ref.nrows(), h_ref.ncols()),
                    "{workload}/{}: {what} shape mismatch",
                    kind.name()
                );
                let err = h_ref.sub_mat(&h).max_abs() / h_ref.max_abs();
                assert!(
                    err < 1e-2,
                    "{workload}/{}: {what} transfer error {err} through TransferModel",
                    kind.name()
                );
            }

            // Dominant poles agree through the trait too (magnitudes of
            // the single most dominant pole, loose tolerance: ROMs are
            // approximations). RC workloads only — RLC pencils carry
            // oscillatory pole clusters whose dominance ordering is a
            // method-accuracy question, not an interface one.
            if workload != "rlc_bus" {
                let zf = full_dyn.dominant_poles(&p0, 1).unwrap();
                let zr = rom_dyn.dominant_poles(&p0, 1).unwrap();
                let (zf, zr) = (zf[0].abs(), zr[0].abs());
                assert!(
                    (zf - zr).abs() < 0.05 * zf,
                    "{workload}/{}: dominant pole {zr:.4e} vs full {zf:.4e}",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn workspace_batch_path_matches_plain_transfer_bitwise() {
    // The workspace/batched path is an amortization, never an
    // approximation: eval_batch must reproduce transfer() bit for bit on
    // both sides of the trait.
    let (_, sys) = workloads().swap_remove(0);
    let full = FullModel::new(&sys);
    let rom = ReducerKind::LowRank.build(&sys).reduce_once(&sys).unwrap();
    let points: Vec<EvalPoint> = (0..7)
        .map(|i| {
            EvalPoint::new(
                vec![0.04 * (i % 3) as f64, -0.05 * (i % 2) as f64, 0.1],
                Complex64::jw(2.0 * std::f64::consts::PI * 1e8 * (1 + i) as f64),
            )
        })
        .collect();
    let engine = EvalEngine::serial();
    for model in [&full as &dyn TransferModel, &rom as &dyn TransferModel] {
        let batched = engine.transfer_batch(model, &points).unwrap();
        for (pt, hb) in points.iter().zip(&batched) {
            let plain = model.transfer(&pt.params, pt.s).unwrap();
            for r in 0..plain.nrows() {
                for c in 0..plain.ncols() {
                    assert_eq!(
                        plain[(r, c)].re.to_bits(),
                        hb[(r, c)].re.to_bits(),
                        "{} at {pt:?}",
                        model.kind()
                    );
                    assert_eq!(plain[(r, c)].im.to_bits(), hb[(r, c)].im.to_bits());
                }
            }
        }
    }
}

/// The generic dense path nonsymmetric ROM evaluations are pinned to:
/// `LuFactors::<Complex64>` on `G̃(p).to_complex() + s·C̃(p).to_complex()`,
/// `solve_mat` on `B̃.to_complex()`, then `L̃.to_complex().tr_mul_mat`.
fn generic_rom_transfer(
    rom: &pmor::ParametricRom,
    p: &[f64],
    s: Complex64,
) -> (LuFactors<Complex64>, Matrix<Complex64>) {
    let mut a = rom.g_at(p).to_complex();
    a.add_assign_scaled(s, &rom.c_at(p).to_complex());
    let lu = LuFactors::factor(&a).unwrap();
    let x = lu.solve_mat(&rom.b.to_complex()).unwrap();
    let h = rom.l.to_complex().tr_mul_mat(&x);
    (lu, h)
}

fn assert_same_bits(a: &Matrix<Complex64>, b: &Matrix<Complex64>, what: &str) {
    assert_eq!((a.nrows(), a.ncols()), (b.nrows(), b.ncols()), "{what}");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}");
    }
}

#[test]
fn rom_sweeps_match_the_generic_complex_lu_bitwise() {
    // Pins ROM evaluation bit for bit: a lowrank ROM of every workload
    // family, swept over 10 MHz–10 GHz at shared parameter points (the
    // batch path assembles once per run of equal `p`). The RLC bus's
    // pencil is not symmetric: it runs on the split-plane LU, whose
    // factors and permutation are checked against `LuFactors` on the
    // same pencil. The RC families' pencils equal their transposes bit
    // for bit: they run on the pivot-free LDLᵀ, pinned to its plain
    // reference and held within 1e-12·max|H| of `LuFactors`.
    for (workload, sys) in workloads() {
        let rom = ReducerKind::LowRank.build(&sys).reduce_once(&sys).unwrap();
        let symmetric = workload != "rlc_bus";
        let freqs: Vec<f64> = (0..=24).map(|i| 1e7 * 10f64.powf(i as f64 / 8.0)).collect();
        let mut points = Vec::new();
        let np = rom.num_params();
        for step in [0.0, 0.04, -0.03] {
            let p: Vec<f64> = (0..np).map(|i| step * (1.0 + i as f64).sqrt()).collect();
            points.extend(EvalPoint::sweep(&p, &freqs));
        }
        let batched = EvalEngine::serial().transfer_batch(&rom, &points).unwrap();
        let mut kernel = PencilLu::new();
        for (pt, hb) in points.iter().zip(&batched) {
            let (lu, h_lu) = generic_rom_transfer(&rom, &pt.params, pt.s);
            let at = format!("{workload} at {pt:?}");
            let (g, c) = (rom.g_at(&pt.params), rom.c_at(&pt.params));
            assert_eq!(
                g.is_bitwise_symmetric() && c.is_bitwise_symmetric(),
                symmetric,
                "{at}"
            );
            let want = if symmetric {
                let ldl = ldl_reference(&g, &c, pt.s);
                assert!(ldl.kept, "{at}: certificate ρ = {}", ldl.certificate);
                let h = ldl.transfer(&rom.b, &rom.l);
                assert!(
                    h.sub_mat(&h_lu).max_abs() <= 1e-12 * h_lu.max_abs(),
                    "{at}: LDLᵀ vs LU"
                );
                h
            } else {
                kernel.factor_pencil_into(&g, &c, pt.s).unwrap();
                let (re, im) = kernel.factors();
                for (k, z) in lu.packed().as_slice().iter().enumerate() {
                    assert_eq!(re.as_slice()[k].to_bits(), z.re.to_bits(), "{at}");
                    assert_eq!(im.as_slice()[k].to_bits(), z.im.to_bits(), "{at}");
                }
                assert_eq!(kernel.perm(), lu.perm(), "{at}");
                h_lu
            };
            assert_same_bits(hb, &want, &at);
            assert_same_bits(&rom.transfer(&pt.params, pt.s).unwrap(), &want, &at);
        }
    }
}

#[test]
fn engine_is_bitwise_deterministic_across_thread_counts() {
    let (_, sys) = workloads().swap_remove(0);
    let full = FullModel::new(&sys);
    let rom = ReducerKind::LowRank.build(&sys).reduce_once(&sys).unwrap();
    // A batch mixing parameter points and frequencies, deliberately not
    // a multiple of the worker count so chunk boundaries are irregular.
    let points: Vec<EvalPoint> = (0..11)
        .map(|i| {
            EvalPoint::new(
                vec![0.03 * (i % 4) as f64, 0.02 * (i % 3) as f64, -0.06],
                Complex64::jw(2.0 * std::f64::consts::PI * 5e7 * (1 + i % 5) as f64),
            )
        })
        .collect();
    for model in [&full as &dyn TransferModel, &rom as &dyn TransferModel] {
        let serial = EvalEngine::new(1).transfer_batch(model, &points).unwrap();
        let parallel = EvalEngine::new(4).transfer_batch(model, &points).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            for r in 0..a.nrows() {
                for c in 0..a.ncols() {
                    assert_eq!(
                        a[(r, c)].re.to_bits(),
                        b[(r, c)].re.to_bits(),
                        "{}: threads=1 vs threads=4 diverged",
                        model.kind()
                    );
                    assert_eq!(a[(r, c)].im.to_bits(), b[(r, c)].im.to_bits());
                }
            }
        }
    }
}

#[test]
fn analysis_registry_is_deterministic_across_thread_counts() {
    // End-to-end determinism of a registry-dispatched analysis: the
    // Monte-Carlo transfer metric reports identical numbers on 1 and 4
    // threads.
    use pmor_variation::analysis::{AnalysisConfig, AnalysisKind, ErrorMetric};
    let (_, sys) = workloads().swap_remove(3);
    let full = FullModel::new(&sys);
    let rom = ReducerKind::LowRank.build(&sys).reduce_once(&sys).unwrap();
    let cfg = AnalysisConfig {
        instances: Some(8),
        metric: Some(ErrorMetric::Transfer {
            freqs_hz: vec![1e8, 1e9],
        }),
        ..Default::default()
    };
    let analysis = AnalysisKind::MonteCarlo.build(&cfg).unwrap();
    let a = analysis
        .run(&EvalEngine::new(1), Some(&full), &rom)
        .unwrap();
    let b = analysis
        .run(&EvalEngine::new(4), Some(&full), &rom)
        .unwrap();
    for metric in ["worst_rel_transfer_err", "mean_rel_transfer_err"] {
        assert_eq!(
            a.metric_value(metric).unwrap().to_bits(),
            b.metric_value(metric).unwrap().to_bits(),
            "{metric} diverged across thread counts"
        );
    }
}
