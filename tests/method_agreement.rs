//! Cross-method agreement: independent reduction algorithms must converge
//! to the same answers — a strong end-to-end correctness check, since the
//! methods share only the sparse substrate.

use pmor::eval::{pole_errors, FullModel};
use pmor::fit::{FitOptions, FittedProjectionPmor};
use pmor::lowrank::{LowRankOptions, LowRankPmor};
use pmor::moments::{SinglePointOptions, SinglePointPmor};
use pmor::multipoint::{MultiPointOptions, MultiPointPmor};
use pmor::Reducer;
use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
use pmor_num::Complex64;

fn sys() -> pmor_circuits::ParametricSystem {
    clock_tree(&ClockTreeConfig {
        num_nodes: 70,
        ..Default::default()
    })
    .assemble()
}

#[test]
fn all_methods_agree_at_moderate_perturbation() {
    let sys = sys();
    let p = [0.15, -0.2, 0.1];
    let s = Complex64::jw(2.0 * std::f64::consts::PI * 5e8);
    let reference = FullModel::new(&sys).transfer(&p, s).unwrap()[(0, 0)];

    let candidates: Vec<(&str, Complex64)> = vec![
        (
            "single-point",
            SinglePointPmor::new(SinglePointOptions { order: 3 })
                .reduce_once(&sys)
                .unwrap()
                .transfer(&p, s)
                .unwrap()[(0, 0)],
        ),
        (
            "multi-point",
            MultiPointPmor::new(MultiPointOptions::grid(&[(-0.3, 0.3); 3], 2, 4))
                .reduce_once(&sys)
                .unwrap()
                .transfer(&p, s)
                .unwrap()[(0, 0)],
        ),
        (
            "low-rank",
            LowRankPmor::new(LowRankOptions {
                s_order: 5,
                param_order: 3,
                rank: 2,
                ..Default::default()
            })
            .reduce_once(&sys)
            .unwrap()
            .transfer(&p, s)
            .unwrap()[(0, 0)],
        ),
    ];
    for (name, h) in candidates {
        let err = (h - reference).abs() / reference.abs();
        assert!(err < 5e-3, "{name}: {err}");
    }
}

#[test]
fn lowrank_and_multipoint_agree_on_dominant_poles() {
    let sys = sys();
    let lowrank = LowRankPmor::new(LowRankOptions {
        s_order: 6,
        param_order: 3,
        rank: 2,
        ..Default::default()
    })
    .reduce_once(&sys)
    .unwrap();
    let multipoint = MultiPointPmor::new(MultiPointOptions::grid(&[(-0.3, 0.3); 3], 2, 6))
        .reduce_once(&sys)
        .unwrap();
    for p in [[0.0, 0.0, 0.0], [0.2, -0.2, 0.2], [-0.25, 0.1, 0.05]] {
        let a = lowrank.dominant_poles(&p, 3).unwrap();
        let b = multipoint.dominant_poles(&p, 8).unwrap();
        let errs = pole_errors(&a, &b);
        for (k, e) in errs.iter().enumerate() {
            assert!(*e < 1e-3, "pole {k} at {p:?}: disagreement {e}");
        }
    }
}

#[test]
fn projection_fit_agrees_near_its_samples() {
    let sys = sys();
    let mut samples = vec![vec![0.0; 3]];
    for i in 0..3 {
        for v in [-0.25, 0.25] {
            let mut p = vec![0.0; 3];
            p[i] = v;
            samples.push(p);
        }
    }
    let fitted = FittedProjectionPmor::new(FitOptions {
        samples,
        num_block_moments: 4,
    })
    .reduce_once(&sys)
    .unwrap();
    let lowrank = LowRankPmor::with_defaults().reduce_once(&sys).unwrap();
    let s = Complex64::jw(2.0 * std::f64::consts::PI * 2e8);
    for p in [[0.1, 0.0, 0.0], [0.0, -0.15, 0.0], [0.05, 0.05, 0.05]] {
        let hf = fitted.transfer(&p, s).unwrap()[(0, 0)];
        let hl = lowrank.transfer(&p, s).unwrap()[(0, 0)];
        let err = (hf - hl).abs() / hl.abs();
        assert!(err < 2e-2, "fit-vs-lowrank at {p:?}: {err}");
    }
}

#[test]
fn rom_frequency_response_is_causal_low_pass() {
    // Physical sanity shared by all models of an RC driving point:
    // magnitude decreases with frequency, real part stays positive
    // (positive-real immittance).
    let sys = sys();
    let rom = LowRankPmor::with_defaults().reduce_once(&sys).unwrap();
    let p = [0.2, -0.1, 0.3];
    let mut last = f64::INFINITY;
    for f in [1e6, 1e7, 1e8, 1e9, 1e10, 1e11] {
        let h = rom
            .transfer(&p, Complex64::jw(2.0 * std::f64::consts::PI * f))
            .unwrap()[(0, 0)];
        assert!(h.re > 0.0, "non-positive-real at {f}: {h}");
        assert!(h.abs() <= last * 1.001, "magnitude rose at {f}");
        last = h.abs();
    }
}
