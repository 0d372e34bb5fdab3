//! Ordering quality on real generator workloads: the fill-reducing
//! orderings must actually reduce fill on the matrix families the
//! scenarios factor, not just on synthetic grids (which
//! `pmor_sparse::ordering`'s own property tests cover).

use pmor_circuits::generators::{
    power_grid, rc_mesh, rc_random, PowerGridConfig, RcMeshConfig, RcRandomConfig,
};
use pmor_sparse::{OrderingChoice, SparseLu};

/// Factor nnz under a column order (`None` = natural order).
fn fill_with(g: &pmor_sparse::CsrMatrix<f64>, order: Option<&[usize]>) -> usize {
    SparseLu::factor(g, order)
        .expect("generator G0 factors")
        .factor_nnz()
}

/// Factor nnz under an ordering policy.
fn fill_under(g: &pmor_sparse::CsrMatrix<f64>, choice: OrderingChoice) -> usize {
    fill_with(g, Some(&choice.resolve(g)))
}

#[test]
fn amd_beats_natural_on_the_rc_random_family() {
    // The paper's §5.1 workload at several sizes and seeds: AMD must
    // never lose to the natural order on this family.
    for (num_nodes, seed) in [(120usize, 1u64), (250, 7), (400, 0xBEEF)] {
        let sys = rc_random(&RcRandomConfig {
            num_nodes,
            seed,
            ..Default::default()
        })
        .assemble();
        let natural = fill_with(&sys.g0, None);
        let amd = fill_under(&sys.g0, OrderingChoice::Amd);
        assert!(
            amd <= natural,
            "rc_random(n={num_nodes}, seed={seed:#x}): amd {amd} > natural {natural}"
        );
    }
}

#[test]
fn amd_beats_rcm_on_mesh_and_grid_workloads() {
    // The 2-D regime the large tier targets: AMD fill must beat RCM on
    // both the single-layer mesh and the two-layer power grid (this is
    // the measured gap the `[reduce] ordering = "amd"` knob exists for).
    let mesh = rc_mesh(&RcMeshConfig {
        rows: 24,
        cols: 24,
        ..Default::default()
    })
    .assemble();
    let grid = power_grid(&PowerGridConfig {
        rows: 24,
        cols: 24,
        pitch: 6,
        ..Default::default()
    })
    .assemble();
    for (name, sys) in [("rc_mesh", &mesh), ("power_grid", &grid)] {
        let rcm = fill_under(&sys.g0, OrderingChoice::Rcm);
        let amd = fill_under(&sys.g0, OrderingChoice::Amd);
        assert!(amd < rcm, "{name}: amd {amd} >= rcm {rcm}");
    }
}
