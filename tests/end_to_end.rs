//! End-to-end integration: generator → MNA assembly → reduction →
//! evaluation, across every workload family and every reducer.

use pmor::eval::FullModel;
use pmor::lowrank::{LowRankOptions, LowRankPmor};
use pmor::multipoint::{MultiPointOptions, MultiPointPmor};
use pmor::prima::{Prima, PrimaOptions};
use pmor::{ParametricRom, Reducer, ReductionContext};
use pmor_circuits::generators::{
    clock_tree, rc_random, rlc_bus, ClockTreeConfig, RcRandomConfig, RlcBusConfig,
};
use pmor_circuits::ParametricSystem;
use pmor_num::Complex64;

fn workloads() -> Vec<(&'static str, ParametricSystem, Vec<f64>, f64)> {
    vec![
        (
            "rc_random",
            rc_random(&RcRandomConfig {
                num_nodes: 150,
                ..Default::default()
            })
            .assemble(),
            vec![0.4, -0.4],
            1e9,
        ),
        (
            "rlc_bus",
            rlc_bus(&RlcBusConfig {
                segments: 30,
                ..Default::default()
            })
            .assemble(),
            vec![0.25, -0.2],
            1e10,
        ),
        (
            "clock_tree",
            clock_tree(&ClockTreeConfig {
                num_nodes: 90,
                ..Default::default()
            })
            .assemble(),
            vec![0.3, -0.3, 0.2],
            1e9,
        ),
    ]
}

#[test]
fn lowrank_tracks_full_model_on_every_workload() {
    for (name, sys, p, f_hz) in workloads() {
        let rom = LowRankPmor::new(LowRankOptions {
            s_order: 8,
            param_order: 3,
            rank: 2,
            ..Default::default()
        })
        .reduce_once(&sys)
        .unwrap_or_else(|e| panic!("{name}: reduction failed: {e}"));
        assert!(rom.size() < sys.dim(), "{name}: no reduction achieved");
        let full = FullModel::new(&sys);
        let s = Complex64::jw(2.0 * std::f64::consts::PI * f_hz);
        let hf = full.transfer(&p, s).unwrap();
        let hr = rom.transfer(&p, s).unwrap();
        let err = hf.sub_mat(&hr).max_abs() / hf.max_abs();
        assert!(err < 1e-2, "{name}: error {err}");
    }
}

#[test]
fn multipoint_tracks_full_model_on_every_workload() {
    for (name, sys, p, f_hz) in workloads() {
        let np = sys.num_params();
        let opts = MultiPointOptions::grid(&vec![(-0.4, 0.4); np], 2, 6);
        let rom = MultiPointPmor::new(opts)
            .reduce_once(&sys)
            .unwrap_or_else(|e| panic!("{name}: reduction failed: {e}"));
        let full = FullModel::new(&sys);
        let s = Complex64::jw(2.0 * std::f64::consts::PI * f_hz);
        let hf = full.transfer(&p, s).unwrap();
        let hr = rom.transfer(&p, s).unwrap();
        let err = hf.sub_mat(&hr).max_abs() / hf.max_abs();
        assert!(err < 2e-2, "{name}: error {err}");
    }
}

#[test]
fn prima_is_exact_at_nominal_low_frequency() {
    for (name, sys, _, f_hz) in workloads() {
        let rom = Prima::new(PrimaOptions {
            num_block_moments: 10,
        })
        .reduce_once(&sys)
        .unwrap();
        let p = vec![0.0; sys.num_params()];
        let full = FullModel::new(&sys);
        let s = Complex64::jw(2.0 * std::f64::consts::PI * f_hz * 0.01);
        let hf = full.transfer(&p, s).unwrap();
        let hr = rom.transfer(&p, s).unwrap();
        let err = hf.sub_mat(&hr).max_abs() / hf.max_abs();
        assert!(err < 1e-6, "{name}: nominal error {err}");
    }
}

#[test]
fn reduced_poles_are_stable_across_corners() {
    // Congruence reduction of a passive net must not produce unstable
    // reduced poles anywhere in the variation box.
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 60,
        ..Default::default()
    })
    .assemble();
    let rom = LowRankPmor::with_defaults().reduce_once(&sys).unwrap();
    for corner in [
        [0.3, 0.3, 0.3],
        [-0.3, -0.3, -0.3],
        [0.3, -0.3, 0.3],
        [-0.3, 0.3, -0.3],
    ] {
        for z in rom.poles(&corner).unwrap() {
            assert!(z.re < 0.0, "unstable reduced pole {z} at {corner:?}");
        }
    }
}

#[test]
fn projection_expands_reduced_states_to_node_voltages() {
    // The reducer's projection maps reduced DC solutions back to
    // physical node voltages.
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 40,
        ..Default::default()
    })
    .assemble();
    let reducer = LowRankPmor::with_defaults();
    let v = reducer
        .projection(&sys, &mut ReductionContext::new())
        .unwrap();
    let rom = ParametricRom::by_congruence(&sys, &v);
    // The same basis the registry path reduces with, bit for bit.
    let bytes = pmor::rom::to_bytes(&reducer.reduce_once(&sys).unwrap());
    assert!(pmor::rom::to_bytes(&rom) == bytes);
    assert_eq!(rom.full_dim, sys.dim());
    let p = vec![0.0; 3];
    // Reduced DC solve: G̃ x̃ = B̃.
    let lu = pmor_num::lu::LuFactors::factor(&rom.g_at(&p)).unwrap();
    let xr = lu.solve(&rom.b.col(0)).unwrap();
    let x_nodes = v.mul_vec(&xr);
    // Full DC solve.
    let slu = pmor_sparse::SparseLu::factor(&sys.g0, None).unwrap();
    let xf = slu.solve(&sys.b.col(0)).unwrap();
    assert!(pmor_num::vecops::rel_err(&x_nodes, &xf) < 1e-8);
}
