//! Oracle: `GeneralizedSensitivity`'s block actions are bitwise its
//! column actions.
//!
//! `operator_svd` drives `apply_dense` / `apply_transpose_dense`, which
//! `GeneralizedSensitivity` overrides with block triangular solves and a
//! blocked `Mᵀ·Y`. This pins both, bit for bit, to the trait's per-column
//! default on an `rc_mesh` `G0` with one conductance and one capacitance
//! sensitivity, on dense blocks and on blocks full of `±0`.

use pmor::opsvd::GeneralizedSensitivity;
use pmor_circuits::generators::{rc_mesh, RcMeshConfig};
use pmor_num::Matrix;
use pmor_sparse::{ordering, LinearOperator, SparseLu};

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

/// Forwards only the column actions, so the block actions are the
/// trait's per-column defaults.
struct PerColumn<'a>(&'a dyn LinearOperator);

impl LinearOperator for PerColumn<'_> {
    fn nrows(&self) -> usize {
        self.0.nrows()
    }
    fn ncols(&self) -> usize {
        self.0.ncols()
    }
    fn apply(&self, x: &[f64]) -> Vec<f64> {
        self.0.apply(x)
    }
    fn apply_transpose(&self, x: &[f64]) -> Vec<f64> {
        self.0.apply_transpose(x)
    }
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
    let lu = SparseLu::factor(&sys.g0, Some(&ordering::amd(&sys.g0))).unwrap();
    for (name, m) in [("G1", &sys.gi[0]), ("C2", &sys.ci[1])] {
        assert!(
            m.nnz() > 0 && m.nnz() < sys.g0.nnz(),
            "{name} is a regional sensitivity"
        );
        let op = GeneralizedSensitivity::new(&lu, m);
        let oracle = PerColumn(&op);
        for w in [1, 2, 5, 6, 13] {
            for (kind, x) in [
                ("dense", dense_block(n, w, 71 + w as u64)),
                ("sparse", sparse_block(n, w, 83 + w as u64)),
            ] {
                let what = format!("{name}, {kind} width {w}");
                assert_same_bits(
                    &op.apply_dense(&x),
                    &oracle.apply_dense(&x),
                    &format!("{what}: apply_dense"),
                );
                assert_same_bits(
                    &op.apply_transpose_dense(&x),
                    &oracle.apply_transpose_dense(&x),
                    &format!("{what}: apply_transpose_dense"),
                );
            }
        }
    }
}
