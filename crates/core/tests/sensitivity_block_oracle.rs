//! Oracle: the generalized sensitivities' block actions are bitwise
//! their column actions.
//!
//! `GeneralizedSensitivities` solves the blocks of all its members side
//! by side in one block triangular solve and forms `Mᵀ·Y` blocked. This
//! pins each member's block, bit for bit, to the column form
//! `x ↦ G0⁻¹(M·x)` / `x ↦ Mᵀ(G0⁻ᵀx)` on an `rc_mesh` `G0` with
//! conductance and capacitance sensitivities, on dense blocks and on
//! blocks full of `±0`.

use pmor::opsvd::{GeneralizedSensitivities, OperatorFamily};
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
        let op = GeneralizedSensitivities::new(&lu, vec![m]);
        for w in [1, 2, 5, 6, 13] {
            for (kind, x) in [
                ("dense", dense_block(n, w, 71 + w as u64)),
                ("sparse", sparse_block(n, w, 83 + w as u64)),
            ] {
                let what = format!("{name}, {kind} width {w}");
                let xs = std::slice::from_ref(&x);
                assert_same_bits(
                    &op.apply_each(xs).unwrap()[0],
                    &apply_per_column(&lu, m, &x),
                    &format!("{what}: apply_each"),
                );
                assert_same_bits(
                    &op.apply_transpose_each(xs).unwrap()[0],
                    &apply_transpose_per_column(&lu, m, &x),
                    &format!("{what}: apply_transpose_each"),
                );
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
        let before = family.passes();
        let fwd = family.apply_each(&xs).unwrap();
        let tr = family.apply_transpose_each(&xs).unwrap();
        assert_eq!(
            family.passes() - before,
            2,
            "one pass per action for {widths:?}"
        );
        for (i, m) in mats.iter().enumerate() {
            let what = format!("member {i} of widths {widths:?}");
            assert_same_bits(
                &fwd[i],
                &apply_per_column(&lu, m, &xs[i]),
                &format!("{what}: apply_each"),
            );
            assert_same_bits(
                &tr[i],
                &apply_transpose_per_column(&lu, m, &xs[i]),
                &format!("{what}: apply_transpose_each"),
            );
        }
    }
    let empty = vec![Matrix::zeros(n, 0); 3];
    family.apply_each(&empty).unwrap();
    assert_eq!(family.passes(), 6, "an all-empty action makes no pass");
}
