//! Oracle: the batched Algorithm-1 projection is bitwise the
//! one-sensitivity-at-a-time reference.
//!
//! `LowRankPmor::projection_with_stats` runs the randomized SVDs, Krylov
//! starts and Krylov steps of several sensitivities through one solve
//! pass per stage, and merges with `OrthoBasis::insert_block`. The
//! reference in `support/lowrank_reference.rs` does every solve per
//! column and every insert per vector, on full-length vectors. These
//! tests pin the basis and the ROM bytes to it on every workload family
//! under both orderings, across ranks, power iterations, the §4.1
//! simplified variant, the raw sensitivity ablation, and sensitivities
//! that are empty, all zero or rank one (sketches that deflate to uneven
//! widths). The reducer runs each sketch on its sensitivity's support, so
//! the families include RCNetB, whose sensitivities store as few as 2% of
//! the columns, and a sensitivity of one node, whose support is narrower
//! than its sketch. They also pin the solve-pass count of the
//! `reduce_mesh` reduction.

#[path = "support/lowrank_reference.rs"]
mod lowrank_reference;
#[path = "../crates/num/tests/support/mgs_reference.rs"]
mod mgs_reference;

use pmor::lowrank::{LowRankOptions, LowRankPmor};
use pmor::opsvd::OperatorSvdOptions;
use pmor::reduce::registry_defaults as rd;
use pmor::{OrderingChoice, ParametricRom, ReductionContext};
use pmor_circuits::generators::{
    clock_tree, power_grid, rc_mesh, rc_random, rcnet_b, rlc_bus, ClockTreeConfig, PowerGridConfig,
    RcMeshConfig, RcRandomConfig, RlcBusConfig,
};
use pmor_circuits::ParametricSystem;
use pmor_num::Matrix;
use pmor_sparse::CsrMatrix;

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
            "rc_mesh",
            rc_mesh(&RcMeshConfig {
                rows: 10,
                cols: 10,
                ..Default::default()
            })
            .assemble(),
        ),
        (
            "power_grid",
            power_grid(&PowerGridConfig {
                rows: 12,
                cols: 12,
                pitch: 4,
                ..Default::default()
            })
            .assemble(),
        ),
        (
            "rlc_bus",
            rlc_bus(&RlcBusConfig {
                segments: 20,
                ..Default::default()
            })
            .assemble(),
        ),
        ("rcnet_b", rcnet_b().assemble()),
        ("one_node", one_node_sensitivity()),
    ]
}

/// A 10×10 `rc_mesh` whose first conductance sensitivity grounds one
/// node: a support of one coordinate under a sketch of several columns.
fn one_node_sensitivity() -> ParametricSystem {
    let mut sys = rc_mesh(&RcMeshConfig {
        rows: 10,
        cols: 10,
        ..Default::default()
    })
    .assemble();
    let n = sys.dim();
    sys.gi[0] = CsrMatrix::from_triplets(n, n, &[(37, 37, 2e-3)]);
    sys
}

/// The registry's low-rank options (what every scenario and perfbench
/// reduce with).
fn registry_options() -> LowRankOptions {
    LowRankOptions {
        s_order: rd::LOWRANK_S_ORDER,
        param_order: rd::LOWRANK_PARAM_ORDER,
        rank: rd::LOWRANK_RANK,
        ..Default::default()
    }
}

fn same_bits(got: &Matrix<f64>, want: &Matrix<f64>, what: &str) {
    assert_eq!(
        (got.nrows(), got.ncols()),
        (want.nrows(), want.ncols()),
        "{what}: shape"
    );
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: flat entry {i}");
    }
}

/// Reduces `sys` with `o` under both orderings and checks the basis and
/// the ROM bytes against the reference.
fn check(name: &str, sys: &ParametricSystem, o: &LowRankOptions) {
    for ordering in [OrderingChoice::Rcm, OrderingChoice::Amd] {
        let what = format!("{name}/{ordering:?} {o:?}");
        let mut ctx = ReductionContext::with_ordering(ordering);
        let v = LowRankPmor::new(o.clone())
            .projection(sys, &mut ctx)
            .unwrap();
        let lu = ctx.factor_g0(sys).unwrap();
        let want = lowrank_reference::projection(sys, &lu, o);
        same_bits(&v, &want, &what);
        assert!(
            pmor::rom::to_bytes(&ParametricRom::by_congruence(sys, &v))
                == pmor::rom::to_bytes(&ParametricRom::by_congruence(sys, &want)),
            "{what}: ROM bytes differ"
        );
    }
}

#[test]
fn batched_projection_is_the_reference_on_every_workload_and_ordering() {
    for (name, sys) in workloads() {
        check(name, &sys, &registry_options());
    }
}

#[test]
fn batched_projection_is_the_reference_across_ranks_and_power_iterations() {
    let workloads = workloads();
    for (name, sys) in [&workloads[0], &workloads[2]] {
        for rank in [1, 2, 3] {
            for power_iterations in [0, 2] {
                let o = LowRankOptions {
                    s_order: 3,
                    rank,
                    svd: OperatorSvdOptions {
                        power_iterations,
                        ..Default::default()
                    },
                    ..registry_options()
                };
                check(name, sys, &o);
            }
        }
    }
}

#[test]
fn batched_projection_is_the_reference_for_the_simplified_and_raw_variants() {
    let workloads = workloads();
    for (name, sys) in [&workloads[1], &workloads[3]] {
        for (include_transpose_subspaces, approximate_raw_sensitivities) in
            [(false, false), (true, true), (false, true)]
        {
            let o = LowRankOptions {
                param_order: 3,
                include_transpose_subspaces,
                approximate_raw_sensitivities,
                ..registry_options()
            };
            check(name, sys, &o);
        }
    }
}

#[test]
fn batched_projection_is_the_reference_with_empty_zero_and_rank_one_sensitivities() {
    let base = &workloads()[0].1;
    let n = base.dim();
    assert!(base.num_params() >= 3, "needs three parameters");
    // C₁ stores nothing (skipped), C₂ stores only zeros (its sketch
    // deflates to width 0), G₃ is rank one (its sketch deflates to width
    // 1 beside a full-width partner).
    let mut sys = base.clone();
    sys.ci[0] = CsrMatrix::zeros(n, n);
    sys.ci[1] = base.ci[1].map(|_| 0.0);
    sys.gi[2] = CsrMatrix::from_triplets(n, n, &[(3, 3, 2e-3)]);
    assert!(sys.ci[1].nnz() > 0, "stored zeros are kept");
    for o in [
        registry_options(),
        LowRankOptions {
            rank: 1,
            param_order: 3,
            ..registry_options()
        },
    ] {
        check("zero and rank-one sensitivities", &sys, &o);
    }
}

#[test]
fn nearby_system_is_built_from_the_reference_svds() {
    let sys = &workloads()[0].1;
    let o = LowRankOptions {
        rank: 2,
        ..Default::default()
    };
    let nearby = LowRankPmor::new(o.clone()).nearby_system(sys).unwrap();
    let lu = ReductionContext::new().factor_g0(sys).unwrap();
    let mut seed = o.svd.seed;
    for i in 0..sys.num_params() {
        for (mat, got) in [(&sys.gi[i], &nearby.gi[i]), (&sys.ci[i], &nearby.ci[i])] {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let svd = lowrank_reference::sensitivity_svd(&lu, mat, &o, seed);
            let want = CsrMatrix::from_dense(&sys.g0.mul_dense(&svd.reconstruct()), 0.0);
            let bits = |m: &CsrMatrix<f64>| {
                m.iter()
                    .map(|(r, c, v)| (r, c, v.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(got), bits(&want), "sensitivity {i}");
        }
    }
}

/// The `reduce_mesh` reduction streams the `G0` factors 43 times: 7 for
/// `V0` (two column solves for `G0⁻¹B`, then five 2-column steps), and 9
/// for each of the four groups of two sensitivities (six 12-column
/// sketch, power-iteration and `Bᵀ` passes, one 4-column `Ṽ` start, one
/// 4-column forward and one 4-column transpose Krylov step). One
/// sensitivity at a time took 100.
#[test]
fn reduce_mesh_solve_passes_are_pinned_at_any_thread_count() {
    let sys = rc_mesh(&RcMeshConfig {
        rows: 128,
        cols: 128,
        num_regions: 4,
        ..Default::default()
    })
    .assemble();
    assert!(sys.gi.iter().chain(&sys.ci).all(|m| m.nnz() > 0));
    assert_eq!((sys.num_params(), sys.num_inputs()), (4, 2));
    for threads in [1, 0, 4] {
        let mut ctx = ReductionContext::with_ordering(OrderingChoice::Amd);
        ctx.set_threads(threads);
        let (_, stats) = LowRankPmor::new(registry_options())
            .projection_with_stats(&sys, &mut ctx)
            .unwrap();
        assert_eq!(stats.solve_passes, 43, "{threads} threads");
        assert_eq!(
            (stats.v0_size, stats.param_size),
            (12, 64),
            "{threads} threads"
        );
    }
}
