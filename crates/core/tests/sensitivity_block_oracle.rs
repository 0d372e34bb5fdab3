//! Oracle: the generalized sensitivities' block actions are bitwise
//! their column actions, in the coordinates of each member's support.
//!
//! `GeneralizedSensitivities` solves the blocks of all its members side
//! by side in one block triangular solve and forms `Mᵀ·Y` blocked, and
//! each member reads and writes only the rows of its support `S` (the
//! columns `M` stores). This pins each member's block, bit for bit, to
//! the full-length column form `x ↦ G0⁻¹(M·x)` / `x ↦ Mᵀ(G0⁻ᵀx)`, whose
//! transpose rows outside `S` must be `+0`, on an `rc_mesh` `G0` with
//! conductance and capacitance sensitivities, on dense blocks and on
//! blocks full of `±0`, and for sensitivities that store explicit zeros
//! or touch one node.

use pmor::opsvd::{GeneralizedSensitivities, OperatorFamily, Panel};
use pmor_circuits::generators::{rc_mesh, RcMeshConfig};
use pmor_num::Matrix;
use pmor_sparse::{ordering, CsrMatrix, RealFactor};

/// Deterministic values in `[-1, 1)` (xorshift), no RNG crate needed.
fn stream(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 2_000_001) as f64 / 1_000_000.0 - 1.0
    }
}

fn dense_block(n: usize, m: usize, seed: u64) -> Matrix<f64> {
    let mut next = stream(seed);
    Matrix::from_fn(n, m, |_, _| next())
}

/// Mostly `+0`/`−0` with a few nonzeros on a column-dependent pattern,
/// every fifth row zero throughout and column 1 all `±0`.
fn sparse_block(n: usize, m: usize, seed: u64) -> Matrix<f64> {
    let mut next = stream(seed);
    Matrix::from_fn(n, m, |r, c| {
        let v = next();
        let zero = if (r + c) % 2 == 0 { 0.0 } else { -0.0 };
        if c == 1 || r % 5 == 0 || (r * 7 + c * 3) % 11 != 0 {
            zero
        } else {
            v
        }
    })
}

/// `G0⁻¹(M·X)` one column at a time.
fn apply_per_column(lu: &RealFactor, m: &CsrMatrix<f64>, x: &Matrix<f64>) -> Matrix<f64> {
    per_column(x, |col| lu.solve(&m.mul_vec(col)).unwrap())
}

/// `Mᵀ(G0⁻ᵀX)` one column at a time.
fn apply_transpose_per_column(lu: &RealFactor, m: &CsrMatrix<f64>, x: &Matrix<f64>) -> Matrix<f64> {
    per_column(x, |col| m.tr_mul_vec(&lu.solve_transpose(col).unwrap()))
}

fn per_column(x: &Matrix<f64>, f: impl Fn(&[f64]) -> Vec<f64>) -> Matrix<f64> {
    let mut out = Matrix::zeros(x.nrows(), x.ncols());
    for j in 0..x.ncols() {
        out.set_col(j, &f(&x.col(j)));
    }
    out
}

/// The rows `support` of `x`.
fn rows(x: &Matrix<f64>, support: &[usize]) -> Matrix<f64> {
    Matrix::from_fn(support.len(), x.ncols(), |r, c| x[(support[r], c)])
}

/// Checks a support-coordinate transpose action against the full-length
/// one: the rows `support` bit for bit, every other row `+0`.
fn assert_transpose_on_support(
    got: &Matrix<f64>,
    full: &Matrix<f64>,
    support: &[usize],
    what: &str,
) {
    assert_same_bits(got, &rows(full, support), what);
    let mut inside = vec![false; full.nrows()];
    for &r in support {
        inside[r] = true;
    }
    for r in (0..full.nrows()).filter(|&r| !inside[r]) {
        for (j, v) in full.row(r).iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                0,
                "{what}: row {r} col {j} outside the support is {v}"
            );
        }
    }
}

/// Both actions of the one-member family of `m` against the full-length
/// column actions on `x`.
fn check_member(lu: &RealFactor, m: &CsrMatrix<f64>, x: &Matrix<f64>, what: &str) {
    let n = x.nrows();
    let op = GeneralizedSensitivities::new(lu, vec![m]);
    let support = op.support(0).into_owned();
    assert_same_bits(
        &op.apply_each(&[rows(x, &support)]).unwrap().block(0),
        &apply_per_column(lu, m, x),
        &format!("{what}: apply_each"),
    );
    assert_transpose_on_support(
        &op.apply_transpose_each(Panel::from_blocks(n, std::slice::from_ref(x)))
            .unwrap()[0],
        &apply_transpose_per_column(lu, m, x),
        &support,
        &format!("{what}: apply_transpose_each"),
    );
}

fn assert_same_bits(got: &Matrix<f64>, want: &Matrix<f64>, what: &str) {
    assert_eq!(
        (got.nrows(), got.ncols()),
        (want.nrows(), want.ncols()),
        "{what}"
    );
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: flat entry {i}: {g} vs {w}"
        );
    }
}

#[test]
fn generalized_sensitivity_block_actions_match_per_column_default() {
    let sys = rc_mesh(&RcMeshConfig {
        cols: 20,
        rows: 20,
        ..RcMeshConfig::default()
    })
    .assemble();
    let n = sys.dim();
    let lu = RealFactor::factor(&sys.g0, Some(&ordering::amd(&sys.g0))).unwrap();
    for (name, m) in [("G1", &sys.gi[0]), ("C2", &sys.ci[1])] {
        assert!(
            m.nnz() > 0 && m.nnz() < sys.g0.nnz(),
            "{name} is a regional sensitivity"
        );
        for w in [1, 2, 5, 6, 13] {
            for (kind, x) in [
                ("dense", dense_block(n, w, 71 + w as u64)),
                ("sparse", sparse_block(n, w, 83 + w as u64)),
            ] {
                check_member(&lu, m, &x, &format!("{name}, {kind} width {w}"));
            }
        }
    }
}

#[test]
fn sensitivity_family_actions_match_each_members_column_actions() {
    let sys = rc_mesh(&RcMeshConfig {
        cols: 20,
        rows: 20,
        ..RcMeshConfig::default()
    })
    .assemble();
    let n = sys.dim();
    let lu = RealFactor::factor(&sys.g0, Some(&ordering::amd(&sys.g0))).unwrap();
    let mats = [&sys.gi[0], &sys.ci[1], &sys.gi[1]];
    let family = GeneralizedSensitivities::new(&lu, mats.to_vec());
    let supports: Vec<Vec<usize>> = (0..mats.len())
        .map(|i| family.support(i).into_owned())
        .collect();
    // Uneven widths, an empty member block, and a sparse block beside
    // dense ones.
    for widths in [[6, 6, 6], [1, 0, 5], [2, 13, 4]] {
        let xs: Vec<Matrix<f64>> = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                if i == 1 {
                    sparse_block(n, w, 91 + w as u64)
                } else {
                    dense_block(n, w, 97 + (i * w) as u64)
                }
            })
            .collect();
        let on_support: Vec<Matrix<f64>> =
            xs.iter().zip(&supports).map(|(x, s)| rows(x, s)).collect();
        let before = family.passes();
        let fwd = family.apply_each(&on_support).unwrap();
        let tr = family
            .apply_transpose_each(Panel::from_blocks(n, &xs))
            .unwrap();
        assert_eq!(
            family.passes() - before,
            2,
            "one pass per action for {widths:?}"
        );
        for (i, m) in mats.iter().enumerate() {
            let what = format!("member {i} of widths {widths:?}");
            assert_same_bits(
                &fwd.block(i),
                &apply_per_column(&lu, m, &xs[i]),
                &format!("{what}: apply_each"),
            );
            assert_transpose_on_support(
                &tr[i],
                &apply_transpose_per_column(&lu, m, &xs[i]),
                &supports[i],
                &format!("{what}: apply_transpose_each"),
            );
        }
    }
    let empty: Vec<Matrix<f64>> = supports.iter().map(|s| Matrix::zeros(s.len(), 0)).collect();
    family.apply_each(&empty).unwrap();
    assert_eq!(family.passes(), 6, "an all-empty action makes no pass");
}

/// The support is every column the matrix stores, stored zeros included,
/// and the support-coordinate actions are the full-length ones for
/// sensitivities with explicit zeros, all-zero values and one node.
#[test]
fn support_coordinate_actions_match_full_length_actions() {
    let sys = rc_mesh(&RcMeshConfig {
        cols: 16,
        rows: 16,
        ..RcMeshConfig::default()
    })
    .assemble();
    let n = sys.dim();
    let lu = RealFactor::factor(&sys.g0, Some(&ordering::amd(&sys.g0))).unwrap();
    // Every third stored value of G1 replaced by an explicit 0.0; all of
    // C2's values zero; one grounded node.
    let mut k = 0;
    let some_zeros = sys.gi[0].map(|v| {
        k += 1;
        if k % 3 == 0 {
            0.0
        } else {
            v
        }
    });
    let all_zeros = sys.ci[1].map(|_| 0.0);
    let one_node = CsrMatrix::from_triplets(n, n, &[(37, 37, 2e-3)]);
    for (name, m) in [
        ("G1 with stored zeros", &some_zeros),
        ("C2 all zero", &all_zeros),
        ("one node", &one_node),
    ] {
        let mut stored: Vec<usize> = m.col_indices().to_vec();
        stored.sort_unstable();
        stored.dedup();
        let op = GeneralizedSensitivities::new(&lu, vec![m]);
        assert_eq!(*op.support(0), stored[..], "{name}: support");
        assert!(stored.len() < n, "{name} is local");
        for w in [1, 4, 6, 12] {
            for (kind, x) in [
                ("dense", dense_block(n, w, 101 + w as u64)),
                ("sparse", sparse_block(n, w, 113 + w as u64)),
            ] {
                check_member(&lu, m, &x, &format!("{name}, {kind} width {w}"));
            }
        }
    }
}
