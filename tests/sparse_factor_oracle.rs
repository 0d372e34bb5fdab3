//! Oracle for the one-time `G0` factorization's symbolic work: the pruned
//! reach search of `SparseLu::factor` and the supervariable `ordering::amd`
//! against plain references of the kernels they replaced
//! (`tests/support/`).
//!
//! - Pruning changes the order of the reach search, so factor values move
//!   in the last bits. It must not change the reach: on every generator
//!   family, ordering and scalar kind, the pivot sequence and the fill
//!   equal the unpruned search's, and the residual stays at rounding
//!   level. `rlc_bus` under natural order has
//!   near-tied pivots, where another update order could flip one; it
//!   keeps the reference's pivots, so it is held to the same checks.
//! - Supervariable AMD gives a different permutation; it must be one, and
//!   its fill must stay within 3% of the reference AMD's.

#[path = "support/amd_reference.rs"]
mod amd_reference;
#[path = "support/gp_reference.rs"]
mod gp_reference;

use pmor_circuits::generators::{
    clock_tree, power_grid, rc_mesh, rc_random, rcnet_a, rcnet_b, rlc_bus, ClockTreeConfig,
    PowerGridConfig, RcMeshConfig, RcRandomConfig, RlcBusConfig,
};
use pmor_circuits::ParametricSystem;
use pmor_num::{Complex64, Scalar};
use pmor_sparse::{ordering, CsrMatrix, SparseLu};

/// One generator instance per family the scenarios factor.
fn families() -> Vec<(&'static str, ParametricSystem)> {
    vec![
        (
            "clock_tree",
            clock_tree(&ClockTreeConfig::default()).assemble(),
        ),
        ("rcnet_a", rcnet_a().assemble()),
        ("rcnet_b", rcnet_b().assemble()),
        (
            "rc_random",
            rc_random(&RcRandomConfig::default()).assemble(),
        ),
        ("rc_mesh", rc_mesh(&RcMeshConfig::default()).assemble()),
        (
            "power_grid",
            power_grid(&PowerGridConfig::default()).assemble(),
        ),
        ("rlc_bus", rlc_bus(&RlcBusConfig::default()).assemble()),
    ]
}

/// The column ordering each policy hands to the factorization.
fn orderings<T: Scalar>(a: &CsrMatrix<T>) -> [(&'static str, Option<Vec<usize>>); 3] {
    [
        ("natural", None),
        ("rcm", Some(ordering::rcm(a))),
        ("amd", Some(ordering::amd(a))),
    ]
}

/// `G0 + j·2π·f·C0` at `f` = 1 GHz.
fn pencil_at_1ghz(sys: &ParametricSystem) -> CsrMatrix<Complex64> {
    let w = 2.0 * std::f64::consts::PI * 1e9;
    let g = sys.g0.map(|v| Complex64::new(v, 0.0));
    g.add_scaled(
        Complex64::new(0.0, w),
        &sys.c0.map(|v| Complex64::new(v, 0.0)),
    )
}

fn rhs<T: Scalar>(n: usize, col: usize) -> Vec<T> {
    (0..n)
        .map(|i| T::from_f64(((i * 7 + col * 3) as f64 * 0.37).sin() + 0.25))
        .collect()
}

fn norm_inf<T: Scalar>(v: &[T]) -> f64 {
    v.iter().map(|x| x.modulus()).fold(0.0, f64::max)
}

/// Normwise relative residual `‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)`.
fn relative_residual<T: Scalar>(a: &CsrMatrix<T>, x: &[T], b: &[T]) -> f64 {
    let ax = a.mul_vec(x);
    let r: Vec<T> = ax.iter().zip(b).map(|(&u, &v)| u - v).collect();
    let a_inf = (0..a.nrows())
        .map(|i| a.row(i).1.iter().map(|v| v.modulus()).sum::<f64>())
        .fold(0.0, f64::max);
    norm_inf(&r) / (a_inf * norm_inf(x) + norm_inf(b))
}

/// Pivots and fill against the unpruned reference, and the residual, on
/// one matrix.
fn check_factor<T: Scalar>(a: &CsrMatrix<T>, order: Option<&[usize]>, what: &str) {
    let n = a.nrows();
    let lu = SparseLu::factor(a, order).expect("generator matrix factors");
    let reference = gp_reference::factor(a, order);
    assert!(
        lu.row_of_position() == reference.row_of_pos.as_slice(),
        "{what}: pivot sequence differs from the unpruned search"
    );
    assert_eq!(lu.factor_nnz(), reference.factor_nnz(), "{what}: fill");
    let b = rhs::<T>(n, 0);
    let res = relative_residual(a, &lu.solve(&b).unwrap(), &b);
    assert!(res <= 1e-12, "{what}: residual {res:e}");
    let res_t = relative_residual(&a.transposed(), &lu.solve_transpose(&b).unwrap(), &b);
    assert!(res_t <= 1e-12, "{what}: transpose residual {res_t:e}");
}

#[test]
fn pruned_factor_keeps_the_reach_of_the_unpruned_search_on_real_g0() {
    for (family, sys) in families() {
        for (name, order) in orderings(&sys.g0) {
            check_factor(&sys.g0, order.as_deref(), &format!("{family}/{name} G0"));
        }
    }
}

#[test]
fn pruned_factor_keeps_the_reach_of_the_unpruned_search_on_complex_pencils() {
    for (family, sys) in families() {
        let a = pencil_at_1ghz(&sys);
        for (name, order) in orderings(&a) {
            check_factor(
                &a,
                order.as_deref(),
                &format!("{family}/{name} G0+sC0 at 1 GHz"),
            );
        }
    }
}

#[test]
fn supervariable_amd_is_a_permutation_on_every_family() {
    for (family, sys) in families() {
        let p = ordering::amd(&sys.g0);
        let n = sys.g0.nrows();
        assert_eq!(p.len(), n, "{family}: length");
        let mut seen = vec![false; n];
        for &i in &p {
            assert!(i < n && !seen[i], "{family}: duplicate or out-of-range {i}");
            seen[i] = true;
        }
    }
}

#[test]
fn supervariable_amd_fill_stays_within_three_percent_of_the_reference() {
    let mesh = rc_mesh(&RcMeshConfig {
        rows: 128,
        cols: 128,
        num_regions: 4,
        ..Default::default()
    })
    .assemble();
    let grid = power_grid(&PowerGridConfig::default()).assemble();
    let random = rc_random(&RcRandomConfig::default()).assemble();
    for (name, g) in [
        ("rc_mesh 128x128", &mesh.g0),
        ("power_grid", &grid.g0),
        ("rc_random", &random.g0),
    ] {
        let fill = |p: &[usize]| SparseLu::factor(g, Some(p)).unwrap().factor_nnz();
        let new = fill(&ordering::amd(g));
        let reference = fill(&amd_reference::amd(g));
        assert!(
            new as f64 <= 1.03 * reference as f64,
            "{name}: amd fill {new} > 1.03 x reference {reference}"
        );
    }
}
