//! Oracle for the symmetric `L·D·Lᵀ` factor behind `RealFactor::factor`,
//! with `SparseLu` as the reference.
//!
//! - On the four RC families (`clock_tree`, `rc_random`, `rc_mesh`,
//!   `power_grid`), under natural, RCM and AMD orderings, `G0` and a
//!   perturbed `G(p)` take the symmetric factor. It stores `D` and one
//!   triangle: exactly `(n + SparseLu::factor_nnz()) / 2` entries, at most
//!   0.55 of LU's on the meshes and grids, whose factors fill in. Its
//!   solutions agree with LU's, and the
//!   normwise relative residuals of `solve`, `solve_transpose`,
//!   `solve_block` and `solve_transpose_block` stay at rounding level at
//!   widths 1, 2, 4, 6, 7, 10 and 12.
//! - Every block solve is bitwise its columns solved one at a time,
//!   including on blocks of `±0` and on the width-0 block.
//! - The dispatch rule: `rlc_bus`'s asymmetric `G0`, an indefinite
//!   symmetric matrix and a singular one take `SparseLu`, whose answers
//!   (or errors) the front door returns unchanged.

use pmor_circuits::generators::{
    clock_tree, power_grid, rc_mesh, rc_random, rlc_bus, ClockTreeConfig, PowerGridConfig,
    RcMeshConfig, RcRandomConfig, RlcBusConfig,
};
use pmor_circuits::ParametricSystem;
use pmor_num::Matrix;
use pmor_sparse::{ordering, CsrMatrix, RealFactor, SparseError, SparseLu};

const WIDTHS: [usize; 7] = [1, 2, 4, 6, 7, 10, 12];

/// One generator instance per RC family.
fn rc_families() -> Vec<(&'static str, ParametricSystem)> {
    vec![
        (
            "clock_tree",
            clock_tree(&ClockTreeConfig::default()).assemble(),
        ),
        (
            "rc_random",
            rc_random(&RcRandomConfig::default()).assemble(),
        ),
        ("rc_mesh", rc_mesh(&RcMeshConfig::default()).assemble()),
        (
            "power_grid",
            power_grid(&PowerGridConfig::default()).assemble(),
        ),
    ]
}

fn orderings(a: &CsrMatrix<f64>) -> [(&'static str, Option<Vec<usize>>); 3] {
    [
        ("natural", None),
        ("rcm", Some(ordering::rcm(a))),
        ("amd", Some(ordering::amd(a))),
    ]
}

/// A dense block of deterministic values; column `c` differs per column.
fn block(n: usize, m: usize, seed: usize) -> Matrix<f64> {
    Matrix::from_fn(n, m, |i, c| {
        ((i * 7 + c * 13 + seed) as f64 * 0.37).sin() + 0.25
    })
}

/// Mostly `+0`/`−0`, a few nonzeros, and one all-zero column.
fn zero_heavy_block(n: usize, m: usize) -> Matrix<f64> {
    Matrix::from_fn(n, m, |i, c| {
        if c == 0 || (i * 5 + c * 3) % 17 != 0 {
            if (i + c) % 2 == 0 {
                0.0
            } else {
                -0.0
            }
        } else {
            (i as f64 * 0.11).cos()
        }
    })
}

fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// Normwise relative residual `‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)`.
fn relative_residual(a: &CsrMatrix<f64>, x: &[f64], b: &[f64]) -> f64 {
    let r: Vec<f64> = a.mul_vec(x).iter().zip(b).map(|(u, v)| u - v).collect();
    let a_inf = (0..a.nrows())
        .map(|i| a.row(i).1.iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0, f64::max);
    norm_inf(&r) / (a_inf * norm_inf(x) + norm_inf(b))
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Checks one symmetric matrix against `SparseLu` under one ordering.
/// `fills`: the family's factors fill in (meshes and grids), so the
/// stored-entry ratio to LU is held to 0.55.
fn check_symmetric(a: &CsrMatrix<f64>, order: Option<&[usize]>, fills: bool, what: &str) {
    let n = a.nrows();
    let f = RealFactor::factor(a, order).expect("RC matrix factors");
    assert!(f.is_symmetric(), "{what}: took LU");
    let lu = SparseLu::factor(a, order).unwrap();
    assert_eq!(f.column_order(), lu.column_order(), "{what}: order");
    let (stored, lu_stored) = (f.factor_nnz(), lu.factor_nnz());
    // Both store the n pivots; LU pivots on the diagonal of these
    // matrices, so its `L` has the symmetric factor's pattern and `U`
    // mirrors it. The symmetric factor stores exactly D and one of them.
    assert_eq!(
        2 * stored,
        lu_stored + n,
        "{what}: {stored} vs LU's {lu_stored}"
    );
    // D weighs as much in both, so the ratio nears one half only with
    // fill: a fill-free tree stores (2n − 1)/(3n − 2) ≈ 2/3 of LU's.
    if fills {
        assert!(
            stored as f64 <= 0.55 * lu_stored as f64,
            "{what}: {stored} stored entries vs LU's {lu_stored}"
        );
    }
    let triangle = a.iter().filter(|&(r, c, _)| c <= r).count();
    assert_eq!(f.matrix_nnz(), triangle, "{what}: stored triangle");
    assert!(
        stored >= triangle,
        "{what}: fewer entries than the triangle"
    );

    for &m in &WIDTHS {
        let b = block(n, m, m);
        let x = f.solve_block(&b).unwrap();
        let xt = f.solve_transpose_block(&b).unwrap();
        assert_eq!(bits(x.as_slice()), bits(xt.as_slice()), "{what}: Aᵀ = A");
        let x_lu = lu.solve_block(&b).unwrap();
        for c in 0..m {
            let (bc, xc) = (b.col(c), x.col(c));
            let col = f.solve(&bc).unwrap();
            assert_eq!(bits(&col), bits(&xc), "{what}: width {m} column {c}");
            let col_t = f.solve_transpose(&bc).unwrap();
            assert_eq!(bits(&col_t), bits(&xc), "{what}: transpose column {c}");
            for (kind, sol) in [("solve", &col), ("solve_block", &xc)] {
                let res = relative_residual(a, sol, &bc);
                assert!(res <= 1e-12, "{what}: {kind} width {m}: residual {res:e}");
            }
            let res_t = relative_residual(&a.transposed(), &xt.col(c), &bc);
            assert!(res_t <= 1e-12, "{what}: transpose width {m}: {res_t:e}");
            let gap = norm_inf(
                &xc.iter()
                    .zip(&x_lu.col(c))
                    .map(|(u, v)| u - v)
                    .collect::<Vec<_>>(),
            ) / norm_inf(&x_lu.col(c));
            assert!(gap <= 1e-10, "{what}: width {m} vs LU: {gap:e}");
        }
        let z = zero_heavy_block(n, m);
        let xz = f.solve_block(&z).unwrap();
        for c in 0..m {
            assert_eq!(
                bits(&f.solve(&z.col(c)).unwrap()),
                bits(&xz.col(c)),
                "{what}: ±0 block width {m} column {c}"
            );
        }
    }
    let empty = f.solve_block(&Matrix::zeros(n, 0)).unwrap();
    assert_eq!((empty.nrows(), empty.ncols()), (n, 0), "{what}: width 0");
    assert!(matches!(
        f.solve_block(&Matrix::zeros(n + 1, 2)),
        Err(SparseError::DimensionMismatch { .. })
    ));
    assert!(f.solve(&vec![1.0; n - 1]).is_err(), "{what}: short rhs");
}

#[test]
fn rc_conductance_matrices_take_the_symmetric_factor_and_match_lu() {
    for (family, sys) in rc_families() {
        let fills = matches!(family, "rc_mesh" | "power_grid");
        let p = vec![0.2; sys.num_params()];
        for (label, a) in [("G0", sys.g0.clone()), ("G(0.2)", sys.g_at(&p))] {
            for (name, order) in orderings(&a) {
                let what = format!("{family}/{name} {label}");
                check_symmetric(&a, order.as_deref(), fills, &what);
            }
        }
    }
}

#[test]
fn a_fill_free_tree_stores_exactly_one_triangle() {
    let sys = clock_tree(&ClockTreeConfig::default()).assemble();
    let rcm = ordering::rcm(&sys.g0);
    let f = RealFactor::factor(&sys.g0, Some(&rcm)).unwrap();
    let n = sys.dim();
    assert_eq!((f.matrix_nnz(), f.factor_nnz()), (2 * n - 1, 2 * n - 1));
}

#[test]
fn asymmetric_indefinite_and_singular_matrices_fall_back_to_lu() {
    let b = |n: usize| block(n, 3, 5);
    let same_as_lu = |a: &CsrMatrix<f64>, what: &str| {
        let f = RealFactor::factor(a, None).unwrap();
        assert!(!f.is_symmetric(), "{what}: took L·D·Lᵀ");
        let lu = SparseLu::factor(a, None).unwrap();
        assert_eq!(f.factor_nnz(), lu.factor_nnz(), "{what}");
        assert_eq!(f.matrix_nnz(), a.nnz(), "{what}");
        let rhs = b(a.nrows());
        for (got, want) in [
            (f.solve_block(&rhs), lu.solve_block(&rhs)),
            (
                f.solve_transpose_block(&rhs),
                lu.solve_transpose_block(&rhs),
            ),
            (f.solve_dense(&rhs), lu.solve_dense(&rhs)),
        ] {
            let (got, want) = (got.unwrap(), want.unwrap());
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{what}");
        }
        let col = rhs.col(0);
        assert_eq!(
            bits(&f.solve_transpose(&col).unwrap()),
            bits(&lu.solve_transpose(&col).unwrap()),
            "{what}"
        );
    };

    let bus = rlc_bus(&RlcBusConfig::default()).assemble();
    assert!(!bus.g0.is_bitwise_symmetric());
    same_as_lu(&bus.g0, "rlc_bus G0");

    // Bitwise symmetric, pivots 2 and −2.5.
    let indefinite = CsrMatrix::from_triplets(
        3,
        3,
        &[
            (0, 0, 2.0),
            (0, 1, 3.0),
            (1, 0, 3.0),
            (1, 1, 2.0),
            (2, 2, 1.0),
        ],
    );
    assert!(indefinite.is_bitwise_symmetric());
    same_as_lu(&indefinite, "indefinite");

    // A negated RC conductance matrix: symmetric, every pivot negative.
    let tree = clock_tree(&ClockTreeConfig::default()).assemble();
    same_as_lu(&tree.g0.scaled(-1.0), "negated clock_tree G0");

    // Symmetric and singular: LU's error comes back.
    let singular =
        CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
    assert_eq!(
        RealFactor::factor(&singular, None).unwrap_err(),
        SparseLu::factor(&singular, None).unwrap_err()
    );
    // A malformed ordering is refused on either path.
    let spd = CsrMatrix::<f64>::identity(3);
    for order in [&[0, 0, 1][..], &[0, 1]] {
        assert!(matches!(
            RealFactor::factor(&spd, Some(order)),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }
}
